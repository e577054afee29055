"""Shared fixtures: the worked-example problems and random generators."""

from __future__ import annotations

import argparse
import functools
import random
import re
from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

from gbsyz import (
    Ambient,
    DivisionResult,
    GroebnerBasis,
    GuardExceeded,
    Integers,
    InternalError,
    IntegersLocalizedAt,
    IntegersMod,
    Mono,
    ParseError,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    divide,
    is_groebner,
    mono_divides,
    parse_problem,
    sort_basis,
)
from gbsyz.dsl import ProblemFile, parse_vector_literal
from gbsyz.errors import PackedOverflow
from gbsyz.groebner import pair_cofactors, s_pair_indexed
from gbsyz.poly import EXP_BITS, POSMASK, Accumulator, reorder
from gbsyz.syzygy import Certificate

GOLDEN = {
    "f2y_spair": """ring F2[y]/y^2; vars X2 X1; rank 1;
        f = y*X2 + X1;
        g = y*X1 + y;
    """,
    "z2_rank2": """ring Z/2; vars Y X; rank 2;
        u1 = [Y, X];
        u2 = [X, 0];
    """,
    "zloc2_ideal": """ring Z_(2); vars Y X; rank 1;
        g1 = Y^4 - Y;
        g2 = 2*Y;
        g3 = X^3 - 1;
    """,
    "z4_ideal": """ring Z/4; vars Y X; rank 1;
        g1 = Y^4 - Y;
        g2 = 2*Y;
        g3 = X^3 - 1;
    """,
    "zint_ideal": """ring Z; vars Y X; rank 1;
        g1 = Y^2 - X + 3;
        g2 = 4*X^2 - 4;
        g3 = 6*X + 6;
    """,
    "z12_ideal": """ring Z/12; vars Y X; rank 1;
        g1 = Y + 1;
        g2 = X^3 + X^2 + 6;
        g3 = 3*X^2;
        g4 = 9;
    """,
}


def exps_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def positive_part(alpha):
    return tuple(max(a, 0) for a in alpha)


def problem(key):
    return parse_problem(GOLDEN[key])


def gens_of(prob):
    return [name for name, _ in prob.generators], [v for _, v in prob.generators]


def resized_problem(prob, rank):
    """The same ring/vars with a different rank, for parsing payload strings."""
    ambient = Ambient(prob.ring, len(prob.var_names), rank)
    return ProblemFile(
        prob.ring, prob.var_names, rank, prob.order, ambient, prob.poly_ambient, ()
    )


def parse_in(prob, rank, text):
    return parse_vector_literal(text, resized_problem(prob, rank))


def rings_under_test():
    return [
        Integers(),
        IntegersMod(4),
        IntegersMod(6),
        IntegersMod(12),
        TruncatedF2y(2),
        IntegersLocalizedAt(2),
    ]


class ReferenceTruncatedF2y(TruncatedF2y):
    """TruncatedF2y with its own gcd_bezout, strict_pair, euclid_step and
    normalize_unit as they were before the shared `_ValuationRing` ones:
    the reference for those, and the only strict_pair of the ring."""

    def gcd_bezout(self, items):
        if not items:
            raise UsageError("gcd_bezout of an empty list")
        vals = [(self.valuation(a), i) for i, a in enumerate(items) if a & self.mask]
        if not vals:
            return 0, [0] * len(items)
        v, i0 = min(vals)
        d = 1 << v
        coeffs = [0] * len(items)
        coeffs[i0] = self.divides(items[i0], d)
        return d, coeffs

    def strict_pair(self, b1, b2):
        b1, b2 = b1 & self.mask, b2 & self.mask
        if b1 == 0 and b2 == 0:
            raise UsageError("strict_pair(0, 0)")
        v1 = self.valuation(b1) if b1 else self.r
        v2 = self.valuation(b2) if b2 else self.r
        d = 1 << min(v1, v2)
        b1p = self.divides(d, b1)
        b2p = self.divides(d, b2)
        if v1 <= v2:
            c1, c2 = self._unit_inv(b1p), 0
        else:
            c1, c2 = 0, self._unit_inv(b2p)
        return d, b1p, b2p, c1, c2

    def euclid_step(self, a, d):
        q = self.divides(d, a)
        if q is not None:
            return q, 0
        return 0, a & self.mask

    def normalize_unit(self, a):
        a &= self.mask
        if a == 0:
            return 1, 0
        k = self.valuation(a)
        return a >> k, 1 << k


class ReferenceIntegersLocalizedAt:
    """Z localized at p on `fractions.Fraction`, written from the
    definitions and sharing no code with `IntegersLocalizedAt`: the
    oracle for its pair arithmetic. Elements are Fractions, the ring's
    (num, den) being (a.numerator, a.denominator)."""

    def __init__(self, p):
        self.p = p

    def __repr__(self):
        return f"Z_({self.p})"

    def lies_in(self, a):
        return a.denominator % self.p != 0

    def from_fraction(self, num, den):
        if den == 0:
            raise UsageError("zero denominator")
        a = Fraction(num, den)
        if not self.lies_in(a):
            raise UsageError(f"{a} does not lie in Z localized at {self.p}")
        return a

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def eq(self, a, b):
        return a == b

    def valuation(self, a):
        if a == 0:
            raise InternalError(f"valuation of 0 in {self}")
        v = 0
        while a.numerator % self.p ** (v + 1) == 0:
            v += 1
        return v

    def divides(self, a, b):
        if a == 0:
            return Fraction(0) if b == 0 else None
        q = b / a
        return q if self.lies_in(q) else None

    def normalize_unit(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        canon = Fraction(self.p) ** self.valuation(a)
        return a / canon, canon

    def unit_inverse(self, u):
        if u == 0 or not self.lies_in(1 / u):
            raise InternalError(f"{u} is not a unit in {self}")
        return 1 / u

    def gcd_bezout(self, items):
        """The first item of least valuation generates the ideal."""
        if not items:
            raise UsageError("gcd_bezout of an empty list")
        coeffs = [Fraction(0)] * len(items)
        nonzero = [i for i, a in enumerate(items) if a != 0]
        if not nonzero:
            return Fraction(0), coeffs
        i0 = min(nonzero, key=lambda i: self.valuation(items[i]))
        d = Fraction(self.p) ** self.valuation(items[i0])
        coeffs[i0] = d / items[i0]
        return d, coeffs

    def euclid_step(self, a, d):
        q = self.divides(d, a)
        return (Fraction(0), a) if q is None else (q, Fraction(0))

    def spair_cofactors(self, lc_f, lc_g):
        """(a, b) with b*lc_f = a*lc_g; b = 1 when lc_g divides lc_f."""
        if self.valuation(lc_g) <= self.valuation(lc_f):
            return lc_f / lc_g, Fraction(1)
        return Fraction(1), lc_g / lc_f

    def ann_gen(self, a):
        return Fraction(1) if a == 0 else Fraction(0)

    def format(self, a):
        return str(a)

    def sort_key(self, a):
        return a.numerator, a.denominator


def random_element(rng, ring):
    if isinstance(ring, Integers):
        return rng.randint(-6, 6)
    if isinstance(ring, IntegersMod):
        return rng.randrange(ring.n)
    if isinstance(ring, TruncatedF2y):
        return rng.randrange(1 << ring.r)
    if isinstance(ring, IntegersLocalizedAt):
        den = rng.choice([1, 3, 5, 7])
        while den % ring.p == 0:
            den += 2
        return ring.from_fraction(rng.randint(-8, 8), den)
    raise AssertionError(ring)


def random_nonzero(rng, ring):
    x = random_element(rng, ring)
    while ring.is_zero(x):
        x = random_element(rng, ring)
    return x


def element_candidates(ring, bound=10):
    """Search space for brute-force oracles; exhaustive on the finite rings."""
    if isinstance(ring, IntegersMod):
        return list(range(ring.n))
    if isinstance(ring, TruncatedF2y):
        return list(range(1 << ring.r))
    if isinstance(ring, Integers):
        return list(range(-bound, bound + 1))
    if isinstance(ring, IntegersLocalizedAt):
        dens = [d for d in (1, 3, 5) if d % ring.p]
        return [ring.from_fraction(n, d) for d in dens for n in range(-bound, bound + 1)]
    raise AssertionError(ring)


def random_mono(rng, nvars, rank, max_exp=4):
    return Mono(tuple(rng.randrange(max_exp + 1) for _ in range(nvars)), rng.randrange(rank))


def random_vector(rng, ambient, order, max_terms=4, max_exp=4):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        c = random_element(rng, ambient.ring)
        if not ambient.ring.is_zero(c):
            terms.append(Term(c, random_mono(rng, ambient.nvars, ambient.rank, max_exp)))
    return Vector(ambient, order, terms)


def random_nonzero_vector(rng, ambient, order, max_terms=4, max_exp=4):
    while True:
        v = random_vector(rng, ambient, order, max_terms, max_exp)
        if not v.is_zero():
            return v


def vec(prob, text, order=None):
    v = parse_vector_literal(text, prob)
    if order is not None and order is not prob.order:
        return Vector(v.ambient, order, v.terms)
    return v


def reference_divide(h, divisors, order, trace=None):
    """Full-merge gcd-aggregating division: the working polynomial is a
    Vector rebuilt by `sub` on every step. The reference for `divide`."""
    ring = h.ambient.ring
    q_acc = [dict() for _ in divisors]
    r_terms = []
    lead = [(d.lc(), d.lm()) for d in divisors]
    work = h
    while not work.is_zero():
        lc, lm = work.terms[0]
        D = [(j, g) for j, (_c, m) in enumerate(lead) if (g := mono_divides(m, lm)) is not None]
        if not D:
            r_terms.append(work.terms[0])
            work = work.sub(Vector(work.ambient, order, [work.terms[0]]))
            continue
        if trace is not None:
            trace({"event": "reduction_step", "lm": lm, "divisors": [j for j, _ in D]})
        step = None
        for j, gamma in D:
            q = ring.divides(lead[j][0], lc)
            if q is not None:
                step = [(j, gamma, q)]
                break
        if step is None:
            d, coeffs = ring.gcd_bezout([lead[j][0] for j, _ in D])
            c, e = ring.euclid_step(lc, d)
            if not ring.is_zero(e):
                r_terms.append(Term(e, lm))
            step = []
            for (j, gamma), cj in zip(D, coeffs):
                w = ring.mul(c, cj)
                if not ring.is_zero(w):
                    step.append((j, gamma, w))
        new = work
        for j, gamma, w in step:
            q_acc[j][gamma] = ring.add(q_acc[j].get(gamma, ring.zero()), w)
            new = new.sub(divisors[j].term_mul(w, gamma))
        if r_terms and r_terms[-1].mono == lm:
            new = new.sub(Vector(work.ambient, order, [r_terms[-1]]))
        work = new
    return _reference_result(h, order, q_acc, r_terms)


def reference_divide_valuation(h, divisors, order, trace=None):
    """Full-merge first-divisor division: the reference for `divide_valuation`."""
    ring = h.ambient.ring
    q_acc = [dict() for _ in divisors]
    r_terms = []
    work = h
    while not work.is_zero():
        lc, lm = work.terms[0]
        hit = None
        for j, d in enumerate(divisors):
            gamma = mono_divides(d.lm(), lm)
            c = None if gamma is None else ring.divides(d.lc(), lc)
            if c is not None:
                hit = (j, gamma, c)
                break
        if hit is None:
            r_terms.append(work.terms[0])
            work = work.sub(Vector(work.ambient, order, [work.terms[0]]))
            continue
        j, gamma, c = hit
        if trace is not None:
            trace({"event": "reduction_step", "lm": lm, "divisors": [j]})
        q_acc[j][gamma] = ring.add(q_acc[j].get(gamma, ring.zero()), c)
        work = work.sub(divisors[j].term_mul(c, gamma))
    return _reference_result(h, order, q_acc, r_terms)


def _reference_result(h, order, q_acc, r_terms):
    ring_amb = Ambient(h.ambient.ring, h.ambient.nvars, 1)
    quotients = tuple(
        Vector(ring_amb, order, [Term(c, Mono(e, 0)) for e, c in acc.items()]) for acc in q_acc
    )
    return DivisionResult(quotients, Vector(h.ambient, order, r_terms))


def random_sample(rng, basis):
    """sum c_v * X^a_v * v over a random subset of the basis, as a dict
    monomial -> coefficient that holds no zero coefficient."""
    amb = basis[0].ambient
    ring = amb.ring
    mul, add, is_zero = ring.mul, ring.add, ring.is_zero
    coeffs = {}
    for v in basis:
        if rng.random() < 0.5:
            continue
        exps = tuple(rng.randrange(3) for _ in range(amb.nvars))
        coeff = random_element(rng, ring)
        if is_zero(coeff):
            continue
        for c, m in v.terms:
            p = mul(coeff, c)
            if is_zero(p):
                continue
            mono = Mono(exps_add(m.exps, exps), m.pos)
            old = coeffs.get(mono)
            if old is None:
                coeffs[mono] = p
            elif is_zero(s := add(old, p)):
                del coeffs[mono]
            else:
                coeffs[mono] = s
    return coeffs


def reference_level_verdicts(res, samples=20, seed=0):
    """The per-level checks that `verify_resolution` used to run, as a
    list of (groebner, kernel_sampling) per level: Buchberger's criterion
    by `is_groebner`, then `samples` random module combinations of each
    nonempty level, drawn from one `random.Random(seed)` across the
    levels, reduced to zero against it (None for an empty level)."""
    rng = random.Random(seed)
    out = []
    for level in res.levels:
        groebner = is_groebner(list(level.basis))
        sampling = None
        if level.basis:
            amb = level.basis[0].ambient
            sampling = True
            for _ in range(samples):
                sample = random_sample(rng, level.basis)
                terms = [Term(c, m) for m, c in sample.items()]
                h = Vector(amb, level.order, terms)
                if not divide(h, list(level.basis)).remainder.is_zero():
                    sampling = False
                    break
        out.append((groebner, sampling))
    return out


def reference_apply_relation(rel, source):
    """One whole-vector add per relation term: the reference for
    `syzygy.apply_relation`."""
    out = Vector.zero(source[0].ambient, source[0].order)
    for c, m in rel.terms:
        out = out.add(source[m.pos].term_mul(c, m.exps))
    return out


def reference_vector_mul(a, b):
    """One whole-vector add per term of a: the reference for `Vector.mul`."""
    acc = Vector.zero(a.ambient, a.order)
    for c, m in a.terms:
        acc = acc.add(b.term_mul(c, m.exps))
    return acc


def reference_s_pair_value(f, g, order, auto):
    """The value of an S-pair by whole-vector products and a merge: the
    reference for `groebner.s_pair_indexed`'s value."""
    ring = f.ambient.ring
    if auto:
        b = ring.ann_gen(f.lc())
        return Vector.zero(f.ambient, order) if ring.is_zero(b) else f.scale(b)
    if f.lp() != g.lp():
        return Vector.zero(f.ambient, order)
    a, b = ring.spair_cofactors(f.lc(), g.lc())
    mu, nu = f.lm().exps, g.lm().exps
    beta = positive_part(exps_sub(nu, mu))
    alpha = positive_part(exps_sub(mu, nu))
    return f.term_mul(b, beta).sub(g.term_mul(a, alpha))


def reference_buchberger(gens, order, guard=10_000, trace=None):
    """Buchberger's loop with one `s_pair_indexed` and one `divide` per
    pair: the reference for `groebner.buchberger`, whose pairs reduce on
    its prepared index."""
    basis = [reorder(g, order) for g in gens]
    queue = deque((i, j) for i in range(len(basis)) for j in range(i, len(basis)))
    while queue:
        i, j = queue.popleft()
        sp = s_pair_indexed(basis[i], basis[j], auto=(i == j))
        if trace is not None:
            trace({"event": "pair", "i": i + 1, "j": j + 1, "kind": sp.kind})
        if sp.value.is_zero():
            continue
        rem = divide(sp.value, basis, trace=trace).remainder
        if rem.is_zero():
            continue
        basis.append(rem)
        t = len(basis) - 1
        if len(basis) > guard:
            raise GuardExceeded(f"basis grew past guard={guard}", tuple(basis))
        if trace is not None:
            trace({"event": "basis_added", "index": t + 1})
        queue.extend((k, t) for k in range(t))
        queue.append((t, t))
    return GroebnerBasis(tuple(basis), order)


def reference_s_pairs(source, trace=None, start_lift=None):
    """(i, j, sp, lift, res) per S-pair of source with a cofactor, by
    `s_pair_indexed` and `divide`, which adds -sum q_l eps_l for the
    quotients q_l into the lift; res is None for a zero value: the
    reference for `groebner.s_pairs`."""
    neg = source[0].ambient.ring.neg
    for i in range(len(source)):
        for j in range(i, len(source)):
            if source[i].lp() != source[j].lp():
                continue
            sp = s_pair_indexed(source[i], source[j], auto=(i == j))
            if sp.kind == "auto" and sp.left_cofactor is None:
                continue
            if trace is not None:
                trace({"event": "syzygy_pair", "i": i + 1, "j": j + 1, "kind": sp.kind})
            lift = None if start_lift is None else start_lift(i, j, sp)
            res = None
            if not sp.value.is_zero():
                res = divide(sp.value, source, trace=trace)
                if lift is not None:
                    for ell, q in enumerate(res.quotients):
                        for c, m in q.packed:
                            lift.add(neg(c), m + ell)
            yield i, j, sp, lift, res


def reference_certificate(source, sch, trace=None):
    """The `Certificate` of source under the Schreyer order sch by
    `reference_s_pairs`: the reference for what `schreyer_syzygies` and
    the verifier keep, pairs whose division leaves a remainder included."""
    amb0 = source[0].ambient
    amb = Ambient(amb0.ring, amb0.nvars, len(source))

    def start_lift(i, j, sp):
        b, beta = sp.left_cofactor
        lift = Accumulator(amb, sch, [(b, beta + i)])
        if sp.right_cofactor is not None:
            a, alpha = sp.right_cofactor
            lift.add(amb.ring.neg(a), alpha + j)
        return lift

    pairs, unreduced = {}, set()
    for i, j, _, lift, res in reference_s_pairs(source, trace, start_lift):
        if res is not None and not res.remainder.is_zero():
            unreduced.add((i, j))
        pairs[i, j] = lift.vector()
    return Certificate(source, pairs, frozenset(unreduced))


def _reencoded(v, codec):
    """The terms of v packed by codec, from its decoded terms."""
    return [(c, codec.encode(m)) for c, m in v.terms]


def reference_check_level(level, cert, ring):
    """The verifier's pair check with a new work `Accumulator` per pair,
    each pair's quotient terms listed before they go in and every
    position over the bound collected: the reference for
    `syzygy._check_level`, which returns the same (standard, identity)
    witnesses."""
    basis, key, codec = level.basis, level.order.key, level.order.codec
    packed = [_reencoded(g, codec) for g in basis]
    lms = [terms[0][1] for terms in packed]
    add, neg, is_zero = ring.add, ring.neg, ring.is_zero
    standard = identity = None
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if (lms[i] ^ lms[j]) & POSMASK:
                continue
            cofactors = pair_cofactors(basis[i], basis[j], auto=(i == j))
            if cofactors is None:
                continue
            pair = f"S-pair ({i + 1},{j + 1})"
            lift = cert.pairs.get((i, j))
            if lift is None or lift.ambient.rank != len(basis):
                standard = standard or f"{pair} has no certificate for its cofactors"
                continue
            (b, beta), right = cofactors
            own = {beta + i: b}
            if right is not None:
                own[right[1] + j] = neg(right[0])
            work = Accumulator(basis[i].ambient, level.order)
            for m, c in own.items():
                pos = m & POSMASK
                work.add_term_mul(c, m - pos, packed[pos])
            bound = min(map(key, work.coeffs), default=None)
            rest = [(c if (o := own.pop(m, None)) is None else add(c, neg(o)), m)
                    for c, m in _reencoded(lift, codec)]
            over = []
            for c, m in rest + [(neg(o), m) for m, o in own.items()]:
                if is_zero(c):
                    continue
                pos = m & POSMASK
                if bound is None or key(m - pos + lms[pos]) < bound:
                    over.append(pos + 1)
                work.add_term_mul(c, m - pos, packed[pos])
            if standard is None and (i, j) in cert.unreduced:
                standard = f"{pair} leaves a nonzero remainder"
            elif standard is None and over:
                standard = f"{pair} has LM(q{min(over)}) * LM(g{min(over)}) above LM(S)"
            if identity is None and work.coeffs:
                identity = f"{pair} differs from sum q_l g_l"
            if standard is not None and identity is not None:
                return standard, identity
    return standard, identity


def reference_inner_label(label, index):
    """The regular-expression reading of a relation label: the reference
    for `syzygy._inner_label`."""
    m = re.fullmatch(r"u\[(.*)\]'*\**", label or "")
    return m.group(1) if m else str(index + 1)


def reference_expand_combination(quotients, vectors):
    """One whole-vector add per quotient term: the reference for
    `groebner.expand_combination`."""
    acc = Vector.zero(vectors[0].ambient, vectors[0].order)
    for q, v in zip(quotients, vectors):
        for c, m in q.terms:
            acc = acc.add(v.term_mul(c, m.exps))
    return acc


def _reference_unit_normalize(v):
    ring = v.ambient.ring
    u, _canon = ring.normalize_unit(v.lc())
    if ring.eq(u, ring.one()):
        return v
    return v.scale(ring.unit_inverse(u))


def _reference_head_exhaust(g, others, order, branches):
    """Whole-vector leading-term exhaustion: every step rebuilds g by
    `Vector.sub` and tests every other element. Each step on a leading
    term is counted in `branches` under its kind."""
    ring = g.ambient.ring
    others = list(others)
    extras = []
    while True:
        if g.is_zero():
            return None, extras
        g = _reference_unit_normalize(g)
        lc, lm = g.terms[0]
        D = []
        for o in others:
            gamma = mono_divides(o.lm(), lm)
            if gamma is not None:
                D.append((o, gamma))
        if not D:
            branches["no_divisor"] += 1
            return g, extras
        single = None
        for o, gamma in D:
            q = ring.divides(o.lc(), lc)
            if q is not None:
                single = (o, gamma, q)
                break
        if single is not None:
            branches["exact"] += 1
            o, gamma, q = single
            g = g.sub(o.term_mul(q, gamma))
            continue
        d, coeffs = ring.gcd_bezout([o.lc() for o, _ in D])
        c, e = ring.euclid_step(lc, d)
        if ring.is_zero(e):
            branches["bezout_exact"] += 1
            for (o, gamma), cj in zip(D, coeffs):
                w = ring.mul(c, cj)
                if not ring.is_zero(w):
                    g = g.sub(o.term_mul(w, gamma))
            continue
        dd, combo = ring.gcd_bezout([lc, d])
        if ring.divides(lc, dd) is not None:
            branches["associate_stop"] += 1
            return g, extras  # gcd is an associate of LC(g): nothing to gain
        c0, c1 = combo
        mixed = Vector.zero(g.ambient, order)
        for (o, gamma), cj in zip(D, coeffs):
            w = ring.mul(c1, cj)
            if not ring.is_zero(w):
                mixed = mixed.add(o.term_mul(w, gamma))
        comb = g.scale(c0).add(mixed)
        if ring.is_unit(c0):
            branches["unit_c0"] += 1
            g = comb
            continue
        branches["extra"] += 1
        comb = _reference_unit_normalize(comb)
        extras.append(comb)
        others.append(comb)


def reference_pseudo_reduce(gb, guard=10_000, branches=None):
    """Whole-vector pseudo-reduction of a `GroebnerBasis` record, each
    element exhausted in full: the reference for
    `groebner.pseudo_reduce`. `branches`, a `collections.Counter` if
    given, counts the steps of the exhaustion by kind: no_divisor,
    exact, bezout_exact, associate_stop, unit_c0 and extra."""
    branches = Counter() if branches is None else branches
    if not isinstance(gb, GroebnerBasis):
        raise UsageError("pseudo_reduce needs a GroebnerBasis record")
    elements, order = gb
    work = sort_basis([_reference_unit_normalize(v) for v in elements])
    passes = 0
    changed = True
    while changed:
        passes += 1
        if passes > guard:
            raise GuardExceeded("pseudo_reduce did not stabilise", tuple(work))
        changed = False
        idx = 0
        while idx < len(work):
            others = work[:idx] + work[idx + 1 :]
            new, extras = _reference_head_exhaust(work[idx], others, order, branches)
            for extra in extras:
                if not extra.is_zero() and extra not in work:
                    work.append(extra)
                    changed = True
            if new is None:
                del work[idx]
                changed = True
                continue
            if new != work[idx]:
                changed = True
            work[idx] = new
            idx += 1
        work = sort_basis(work)
    return GroebnerBasis(tuple(work), order)


def reference_labels(reduced, relations, labels, kinds=None):
    """Labels for the elements of `reduced` (a pseudo-reduced basis of
    `relations`) by scanning the inputs for each element: the reference
    for `syzygy.pseudo_reduce_labeled`; None where no input matches.
    `kinds`, a `collections.Counter` if given, counts the matches by
    kind: value, normalized and lm."""
    kinds = Counter() if kinds is None else kinds
    out_labels = []
    raw = list(zip(relations, labels))
    for v in reduced.elements:
        label = None
        for r, lab in raw:
            if v == r:
                label, kind = lab, "value"
                break
        if label is None:
            ring = v.ambient.ring
            for r, lab in raw:
                u, _ = ring.normalize_unit(r.lc())
                if not ring.eq(u, ring.one()) and v == r.scale(ring.unit_inverse(u)):
                    label, kind = lab + "'", "normalized"
                    break
        if label is None:
            for r, lab in raw:
                if not r.is_zero() and not v.is_zero() and v.lm() == r.lm():
                    label, kind = lab + "'", "lm"
                    break
        if label is not None:
            kinds[kind] += 1
        out_labels.append(label)
    return tuple(out_labels)


# ---------------------------------------------------------------------------
# the reference printers: dsl's format_vector and format_lt_module as they
# were before printing read packed terms, each term decoded and formatted
# anew, frozen here so that they share no printing code with dsl
# ---------------------------------------------------------------------------


def _reference_format_monomial(exps, names):
    factors = []
    for e, name in zip(exps, names):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _reference_format_term(ring, coeff, exps, names):
    mono = _reference_format_monomial(exps, names)
    cs = ring.format(coeff)
    if not mono:
        return cs
    if cs == "1":
        return mono
    if any(ch in cs for ch in "+- "):
        cs = f"({cs})"
    return f"{cs}*{mono}"


def _reference_format_poly(ring, terms, names):
    pieces = []
    for coeff, exps in terms:
        if ring.is_negative(coeff):
            pieces.append(("-", _reference_format_term(ring, ring.neg(coeff), exps, names)))
        else:
            pieces.append(("+", _reference_format_term(ring, coeff, exps, names)))
    if not pieces:
        return "0"
    sign, first = pieces[0]
    out = first if sign == "+" else f"-{first}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def reference_format_vector(v, names):
    ring = v.ambient.ring
    exps = v.order.codec.exps
    if v.ambient.rank == 1:
        return _reference_format_poly(ring, [(c, exps(m)) for c, m in v.packed], names)
    comps = [[] for _ in range(v.ambient.rank)]
    for c, m in v.packed:
        comps[m & POSMASK].append((c, exps(m)))
    return "[" + ", ".join(_reference_format_poly(ring, terms, names) for terms in comps) + "]"


def reference_format_lt_module(elements, names):
    if not elements:
        return "<0>"
    by_pos = {}
    for v in elements:
        c, m = v.packed[0]
        by_pos.setdefault(m & POSMASK, []).append(
            _reference_format_term(v.ambient.ring, c, v.order.codec.exps(m), names)
        )
    rank = elements[0].ambient.rank
    parts = []
    for pos in sorted(by_pos):
        gens = ", ".join(by_pos[pos])
        if rank == 1:
            parts.append(f"<{gens}>")
        else:
            parts.append(f"<{gens}>e{pos + 1}")
    return " (+) ".join(parts)


# ---------------------------------------------------------------------------
# the reference parser: the token-list tokenizer and recursive descent
# that dsl used before string tokens, frozen here so that it shares no
# parsing code with dsl, with every expression evaluated as a Vector
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)|(?P<sym>[;=+\-*^/\[\](),])"
)
_REFERENCE_TOO_LARGE = f"exponent above {(1 << (EXP_BITS - 1)) - 1}"


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def reference_tokenize(text):
    """The tokenizer that counts newlines and columns in every chunk:
    a Token per name, int and symbol, then an `eof` Token."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _ReferenceParser:
    """Recursive descent over a Token list ending in an `eof` Token. The
    statement pass copies each vector component's Tokens; a component is
    evaluated after the declarations, as a Token list closed by an `eof`
    at its last Token, one normalised, sorted Vector per constant and
    variable, combined with `Vector.add`, `sub`, `neg` and `mul`."""

    def __init__(self, tokens, problem=None):
        self.tokens = tokens
        self.i = 0
        self.problem = problem

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def accept(self, kind, text=None):
        tok = self.tokens[self.i]
        if tok.kind == kind and (text is None or tok.text == text):
            self.i += 1
            return tok
        return None

    # -- statements ---------------------------------------------------------

    def parse_problem(self):
        ring = None
        var_names = None
        rank = None
        raw_gens = []
        while self.peek().kind != "eof":
            head = self.expect("name")
            if head.text == "ring":
                if ring is not None:
                    self.fail("duplicate ring declaration", head)
                ring = self.parse_ring()
            elif head.text == "vars":
                if var_names is not None:
                    self.fail("duplicate vars declaration", head)
                var_names = self.parse_vars(ring)
            elif head.text == "rank":
                if rank is not None:
                    self.fail("duplicate rank declaration", head)
                tok = self.expect("int")
                rank = int(tok.text)
                if rank < 1:
                    self.fail("rank must be >= 1", tok)
            else:
                if ring is None:
                    self.fail("ring must be declared before generators", head)
                if var_names is None:
                    self.fail("vars must be declared before generators", head)
                if any(tok.text == head.text for tok, _ in raw_gens):
                    self.fail(f"duplicate generator name {head.text!r}", head)
                self.expect("sym", "=")
                raw_gens.append((head, self.parse_pending_vector()))
            self.expect("sym", ";")
        if ring is None:
            self.fail("missing ring declaration")
        if var_names is None:
            self.fail("missing vars declaration")
        rank = rank or 1
        order = TopLex(len(var_names))
        ambient = Ambient(ring, len(var_names), rank)
        poly_ambient = Ambient(ring, len(var_names), 1)
        problem = ProblemFile(ring, tuple(var_names), rank, order, ambient, poly_ambient, ())
        gens = []
        for head, pending in raw_gens:
            gens.append((head.text, _reference_assemble(problem, pending, head)))
        return problem._replace(generators=tuple(gens))

    def parse_ring(self):
        tok = self.expect("name")
        if tok.text == "Z":
            if self.accept("sym", "/"):
                n = self.expect("int")
                try:
                    return IntegersMod(int(n.text))
                except UsageError as exc:
                    self.fail(str(exc), n)
            return Integers()
        if tok.text == "Z_":
            self.expect("sym", "(")
            p = self.expect("int")
            self.expect("sym", ")")
            try:
                return IntegersLocalizedAt(int(p.text))
            except UsageError as exc:
                self.fail(str(exc), p)
        if tok.text == "F2":
            self.expect("sym", "[")
            y = self.expect("name")
            if y.text != "y":
                self.fail("expected 'y'", y)
            self.expect("sym", "]")
            self.expect("sym", "/")
            y = self.expect("name")
            if y.text != "y":
                self.fail("expected 'y'", y)
            self.expect("sym", "^")
            r = self.expect("int")
            try:
                return TruncatedF2y(int(r.text))
            except UsageError as exc:
                self.fail(str(exc), r)
        self.fail(f"unknown ring {tok.text!r}", tok)

    def parse_vars(self, ring):
        names = []
        while True:
            tok = self.peek()
            if tok.kind != "name":
                break
            if tok.text in ("ring", "vars", "rank"):
                self.fail(f"{tok.text!r} is a keyword", tok)
            if isinstance(ring, TruncatedF2y) and tok.text == "y":
                self.fail("'y' is reserved for the coefficient ring", tok)
            if tok.text in names:
                self.fail(f"duplicate variable {tok.text!r}", tok)
            names.append(self.next().text)
        if not names:
            self.fail("vars needs at least one variable name")
        return names

    def parse_pending_vector(self):
        """Collect tokens of a vector literal; evaluation waits for the ambient."""
        if self.accept("sym", "["):
            parts = [self.parse_expr_tokens(stop={",", "]"})]
            while self.accept("sym", ","):
                parts.append(self.parse_expr_tokens(stop={",", "]"}))
            self.expect("sym", "]")
            return parts
        return [self.parse_expr_tokens(stop={";"})]

    def parse_expr_tokens(self, stop):
        depth = 0
        toks = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                if toks and depth == 0:
                    return toks
                self.fail("unterminated expression", tok)
            if depth == 0 and tok.kind == "sym" and tok.text in stop:
                if not toks:
                    self.fail("empty expression", tok)
                return toks
            if tok.kind == "sym" and tok.text == "(":
                depth += 1
            elif tok.kind == "sym" and tok.text == ")":
                depth -= 1
                if depth < 0:
                    self.fail("unbalanced ')'", tok)
            toks.append(self.next())

    # -- polynomial expressions ---------------------------------------------

    def parse_polynomial(self):
        value = self.expr()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r}")
        return value

    def expr(self):
        negate = self.accept("sym", "-")
        value = self.term()
        if negate:
            value = value.neg()
        while tok := self.accept("sym", "+") or self.accept("sym", "-"):
            rhs = self.term()
            value = value.add(rhs) if tok.text == "+" else value.sub(rhs)
        return value

    def term(self):
        value = self.factor()
        while tok := self.accept("sym", "*"):
            rhs = self.factor()
            try:
                value = value.mul(rhs)
            except PackedOverflow:
                self.fail(_REFERENCE_TOO_LARGE, tok)
        return value

    def factor(self):
        value = self.atom()
        if self.accept("sym", "^"):
            e = self.next()
            if e.kind != "int":
                self.fail("exponent must be a nonnegative integer", e)
            try:
                value = _reference_power(self.problem, value, int(e.text))
            except PackedOverflow:
                self.fail(_REFERENCE_TOO_LARGE, e)
        return value

    def atom(self):
        problem = self.problem
        if self.accept("sym", "("):
            value = self.expr()
            close = self.next()
            if close.kind != "sym" or close.text != ")":
                self.fail("expected ')'", close)
            return value
        tok = self.next()
        if tok.kind == "int":
            if self.accept("sym", "/"):
                den = self.next()
                if den.kind != "int":
                    self.fail("expected integer denominator", den)
                try:
                    coeff = problem.ring.from_fraction(int(tok.text), int(den.text))
                except UsageError as exc:
                    raise ParseError(str(exc), tok.line, tok.column) from None
                return _reference_constant(problem, coeff)
            return _reference_constant(problem, problem.ring.from_int(int(tok.text)))
        if tok.kind == "name":
            if tok.text in problem.var_names:
                idx = problem.var_names.index(tok.text)
                exps = tuple(1 if k == idx else 0 for k in range(len(problem.var_names)))
                return _reference_monomial(problem, problem.ring.one(), exps)
            if tok.text == "y" and isinstance(problem.ring, TruncatedF2y):
                return _reference_constant(problem, problem.ring.y())
            self.fail(f"unknown variable {tok.text!r}", tok)
        self.fail(f"unexpected {tok.text or 'end of input'!r}", tok)


def _reference_assemble(problem, pending, head):
    if len(pending) != problem.rank and not (problem.rank == 1 and len(pending) == 1):
        raise ParseError(
            f"generator {head.text!r} has {len(pending)} components, rank is {problem.rank}",
            head.line,
            head.column,
        )
    if problem.rank > POSMASK + 1:
        raise ParseError(f"rank above {POSMASK + 1}", head.line, head.column)
    terms = []
    for pos, toks in enumerate(pending):
        eof = Token("eof", "", toks[-1].line, toks[-1].column)
        poly = _ReferenceParser(toks + [eof], problem).parse_polynomial()
        for c, m in poly.terms:
            terms.append(Term(c, Mono(m.exps, pos)))
    return Vector(problem.ambient, problem.order, terms)


def _reference_monomial(problem, coeff, exps):
    return Vector(problem.poly_ambient, problem.order, [Term(coeff, Mono(exps, 0))])


def _reference_constant(problem, coeff):
    zero = tuple([0] * len(problem.var_names))
    if problem.ring.is_zero(coeff):
        return Vector.zero(problem.poly_ambient, problem.order)
    return _reference_monomial(problem, coeff, zero)


def _reference_power(problem, value, e):
    if e == 0:
        return _reference_constant(problem, problem.ring.one())
    while not e & 1:
        value = value.mul(value)
        e >>= 1
    out = value
    while e := e >> 1:
        value = value.mul(value)
        if e & 1:
            out = out.mul(value)
    return out


def reference_parse_problem(text):
    """`dsl.parse_problem` through the frozen reference parser."""
    return _ReferenceParser(reference_tokenize(text)).parse_problem()


def reference_parse_vector_literal(text, problem):
    """`dsl.parse_vector_literal` through the frozen reference parser."""
    parser = _ReferenceParser(reference_tokenize(text))
    pending = parser.parse_pending_vector()
    parser.accept("sym", ";")
    if parser.peek().kind != "eof":
        parser.fail("trailing input after vector")
    return _reference_assemble(problem, pending, Token("name", "<target>", 1, 1))


def reference_order_from_names(problem, names_spec):
    """`dsl.order_from_names` as it split its spec, on the regular
    expression `[\\s,]+`: the TopLex order, or a UsageError."""
    wanted = [w for w in re.split(r"[\s,]+", names_spec.strip()) if w]
    if sorted(wanted) != sorted(problem.var_names):
        raise UsageError(
            f"order spec {names_spec!r} must be a permutation of {' '.join(problem.var_names)}"
        )
    return TopLex(len(problem.var_names), tuple(problem.var_names.index(w) for w in wanted))


@functools.cache
def reference_argparser():
    """The command-line parser as it was written with `add_argument` calls,
    before `cli._GRAMMAR` declared it: the reference for the table's two
    readers of argv."""
    ap = argparse.ArgumentParser(
        prog="gbsyz",
        description="Groebner bases, syzygies, and free resolutions over Z, Z/N, F2[y]/y^r, Z_(p).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, order_flag=True):
        p.add_argument("file", help="problem file (use '-' for stdin)")
        p.add_argument("--format", choices=["text", "json-like"], default="text")
        p.add_argument("--trace", action="store_true", help="structured events on stderr")
        if order_flag:
            p.add_argument("--order", help="lex priority override, e.g. 'X,Y'")

    def reduce_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--pseudo-reduce", dest="pseudo_reduce", action="store_true")
        group.add_argument("--no-pseudo-reduce", dest="pseudo_reduce", action="store_false")
        p.set_defaults(pseudo_reduce=False)

    p = sub.add_parser("gb", help="Groebner basis of the generators")
    common(p)
    reduce_flags(p)
    p = sub.add_parser("reduce", help="divide a target vector by the generators")
    common(p)
    p.add_argument("target", help="vector literal to reduce")
    p.add_argument("--valuation-division", action="store_true")
    p = sub.add_parser("member", help="module membership of a target vector")
    common(p)
    p.add_argument("target", help="vector literal to test")
    p.add_argument("--valuation-division", action="store_true")
    p = sub.add_parser("syz", help="Schreyer syzygy basis of the Groebner basis")
    common(p)
    reduce_flags(p)
    p = sub.add_parser("resolve", help="free resolution of the generated module")
    common(p, order_flag=False)
    p.add_argument("--max-levels", type=int, default=32)
    p.add_argument("--unsafe-order", help="non-default order (termination not guaranteed)")
    p.add_argument("--order", help=argparse.SUPPRESS)
    return ap
