"""Syzygies and free resolutions via Schreyer's method.

`term_syzygies` implements the relation generators S_ij for a list of
terms; `schreyer_syzygies` lifts them over a Groebner basis, dividing
each S-polynomial by the basis itself. Iterating, `free_resolution`
computes resolutions under the TOP-lex order, ending in a free tail
when every stabilized leading coefficient is regular and otherwise in
the period-2 annihilator pattern, of which one extra level is computed
explicitly as a check and the rest reported symbolically.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from .errors import GuardExceeded, InternalError, UsageError
from .groebner import (
    Divisors,
    GroebnerBasis,
    buchberger,
    divide,
    is_groebner,
    pseudo_reduce,
    reduce_coeffs,
    s_pair_indexed,
)
from .poly import (
    Ambient,
    Mono,
    Schreyer,
    Term,
    TopLex,
    Vector,
    exps_add,
    reorder,
    sort_basis,
)


class SyzygyBasis(NamedTuple):
    relations: tuple
    order: Schreyer
    source: tuple
    labels: tuple


def _inner_label(label, index):
    m = re.fullmatch(r"u\[(.*)\]'*\**", label or "")
    return m.group(1) if m else str(index + 1)


def _pair_label(source_labels, i, j):
    a = _inner_label(source_labels[i], i)
    b = _inner_label(source_labels[j], j)
    sep = "," if ("," not in a + b and ";" not in a + b) else ";"
    return f"u[{a}{sep}{b}]"


def term_syzygies(terms, ambient, order):
    """Generators S_ij of the syzygy module of a list of terms.

    Pairs with distinct leading positions are omitted, as are auto
    relations of regular coefficients. The relations carry Schreyer's
    order induced by the order on the ambient and the terms.
    """
    ring = ambient.ring
    vecs = []
    for t in terms:
        c, m = t
        if ring.is_zero(c):
            raise UsageError("zero term")
        vecs.append(Vector(ambient, order, [Term(c, Mono(tuple(m.exps), m.pos))]))
    return _syzygies_of(vecs, order, divide_quotients=False, labels=None)


def schreyer_syzygies(gb, check=True, trace=None, labels=None):
    """Schreyer's syzygy algorithm over a Groebner basis.

    The division of each S-polynomial against the basis must be exact;
    a nonzero remainder means the input was not a Groebner basis.
    """
    if isinstance(gb, GroebnerBasis):
        source, order = list(gb.elements), gb.order
        vouched = True
    else:
        source, order = list(gb[0]), gb[1]
        vouched = False
    if check and not vouched and not is_groebner(source, order):
        raise UsageError("input is not a Groebner basis")
    return _syzygies_of(source, order, divide_quotients=True, labels=labels, trace=trace)


def _syzygies_of(source, order, divide_quotients, labels, trace=None):
    if not source:
        raise UsageError("syzygies of the empty list")
    amb0 = source[0].ambient
    sch = Schreyer(source, order)
    amb = Ambient(amb0.ring, amb0.nvars, len(source))
    index = Divisors(source) if divide_quotients else None
    relations, out_labels = [], []
    for i in range(len(source)):
        for j in range(i, len(source)):
            if source[i].lp() != source[j].lp():
                continue
            sp = s_pair_indexed(source[i], source[j], order, auto=(i == j))
            if sp.kind == "auto" and sp.left_cofactor is None:
                continue
            if trace is not None:
                trace({"event": "syzygy_pair", "i": i + 1, "j": j + 1, "kind": sp.kind})
            if divide_quotients and not sp.value.is_zero():
                res = divide(sp.value, index, order, trace=trace)
                if not res.remainder.is_zero():
                    raise UsageError(
                        "S-polynomial does not reduce to zero: not a Groebner basis"
                    )
                quotients = res.quotients
            else:
                quotients = tuple()
            terms = []
            b, bmono = sp.left_cofactor
            terms.append(Term(b, Mono(bmono.exps, i)))
            if sp.kind == "cross":
                a, amono = sp.right_cofactor
                terms.append(Term(amb.ring.neg(a), Mono(amono.exps, j)))
            for ell, q in enumerate(quotients):
                for c, m in q.terms:
                    terms.append(Term(amb.ring.neg(c), Mono(m.exps, ell)))
            rel = Vector(amb, sch, terms)
            if rel.is_zero():
                continue
            relations.append(rel)
            out_labels.append(
                _pair_label(labels or [None] * len(source), i, j)
            )
    return SyzygyBasis(tuple(relations), sch, tuple(source), tuple(out_labels))


def apply_relation(rel, source):
    """Evaluate a relation vector against its source: sum rel_l * source_l,
    every product term collected first and normalised once."""
    if not source:
        raise UsageError("empty source")
    first = source[0]
    ring = first.ambient.ring
    terms = []
    for c, m in rel.terms:
        v = source[m.pos]
        first._check_compatible(v)
        for d, n in v.terms:
            p = ring.mul(c, d)
            if not ring.is_zero(p):
                terms.append(Term(p, Mono(exps_add(n.exps, m.exps), n.pos)))
    return Vector(first.ambient, first.order, terms)


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


class ResolutionLevel(NamedTuple):
    basis: tuple
    order: object
    labels: tuple


class FreeTail(NamedTuple):
    kind: str = "free"


class PeriodicTail(NamedTuple):
    b: tuple
    ann_b: tuple
    ann_ann_b: tuple
    positions: tuple
    stable_index: int
    kind: str = "periodic"


class Resolution(NamedTuple):
    ambient: Ambient
    levels: tuple
    tail: object
    quotient: bool

    @property
    def length(self):
        """Length of the resolution of the submodule itself."""
        return len(self.levels) - 1

    @property
    def quotient_length(self):
        return len(self.levels)


def _stabilized(basis):
    """All leading monomials constant, one element per position.

    Level 0 is not reduced, so duplicate-position constants can occur
    there; they are not stabilized yet (the next syzygy level merges
    them). Exhausted levels always separate positions.
    """
    if not all(all(e == 0 for e in v.mdeg()) for v in basis):
        return False
    positions = [v.lp() for v in basis]
    return len(set(positions)) == len(positions)


def _exhausted_level(syz, guard):
    gbr, labels = _pseudo_reduce_labeled(syz.relations, syz.order, syz.labels, guard)
    return ResolutionLevel(gbr.elements, syz.order, labels)


def _pseudo_reduce_labeled(relations, order, labels, guard):
    """pseudo_reduce that keeps a display label attached to each element."""
    reduced = pseudo_reduce(list(relations), order, guard=guard)
    out_labels = []
    raw = list(zip(relations, labels))
    counter = 0
    for v in reduced.elements:
        label = None
        for r, lab in raw:
            if v == r:
                label = lab
                break
        if label is None:
            ring = v.ambient.ring
            for r, lab in raw:
                u, _ = ring.normalize_unit(r.lc())
                if not ring.eq(u, ring.one()) and v == r.scale(ring.unit_inverse(u)):
                    label = lab + "'"
                    break
        if label is None:
            counter += 1
            label = f"v{counter}"
            for r, lab in raw:
                if not r.is_zero() and not v.is_zero() and v.lm() == r.lm():
                    label = lab + "'"
                    break
        out_labels.append(label)
    return reduced, tuple(out_labels)


def free_resolution(
    gens,
    order=None,
    max_levels=32,
    resolve_quotient=False,
    labels=None,
    guard=10_000,
    trace=None,
    unsafe_order=None,
):
    """Iterated Schreyer syzygies of the module generated by gens.

    Level 0 is the Buchberger basis of the generators (kept as computed,
    sorted by leading term); every later level is the exhausted syzygy
    basis of the previous one. Stops once all leading monomials are
    constant: a free tail when every stabilized leading coefficient is
    regular, otherwise a periodic annihilator tail with one explicitly
    verified extra level.
    """
    gens = list(gens)
    if not gens:
        raise UsageError("free_resolution needs at least one generator")
    amb = gens[0].ambient
    if unsafe_order is not None:
        order = unsafe_order
    elif order is None:
        order = TopLex(amb.nvars)
    elif not isinstance(order, TopLex):
        raise UsageError("free_resolution requires the TOP-lex order (use unsafe_order to override)")
    gens = [reorder(g, order) for g in gens]
    gb0, labels0 = _buchberger_level0(gens, order, labels, guard=guard, trace=trace)
    levels = [ResolutionLevel(gb0, order, labels0)]
    ring = amb.ring
    while True:
        cur = levels[-1]
        if trace is not None:
            trace({"event": "level", "index": len(levels) - 1, "rank": len(cur.basis)})
        if _stabilized(cur.basis):
            positions = tuple(v.lp() for v in cur.basis)
            b = tuple(v.lc() for v in cur.basis)
            ann_b = tuple(ring.canonical(ring.ann_gen(x)) for x in b)
            if all(ring.is_zero(a) for a in ann_b):
                res = Resolution(amb, tuple(levels), FreeTail(), resolve_quotient)
                _assert_length_bound(res, order, unsafe_order)
                return res
            ann_ann_b = tuple(ring.canonical(ring.ann_gen(a)) for a in ann_b)
            syz = schreyer_syzygies((cur.basis, cur.order), check=False, labels=cur.labels)
            extra = _exhausted_level(syz, guard)
            # the extra level lives in the free module indexed by the
            # stabilized elements, so Ann(b_j) sits at index j there
            _check_periodic_level(extra, ann_b, ring)
            levels.append(extra)
            tail = PeriodicTail(b, ann_b, ann_ann_b, positions, len(levels) - 2)
            res = Resolution(amb, tuple(levels), tail, resolve_quotient)
            _assert_length_bound(res, order, unsafe_order)
            return res
        if len(levels) > max_levels:
            raise GuardExceeded(
                f"no stabilization after {max_levels} levels",
                Resolution(amb, tuple(levels), None, resolve_quotient),
            )
        syz = schreyer_syzygies((cur.basis, cur.order), check=False, labels=cur.labels, trace=trace)
        if not syz.relations:
            res = Resolution(amb, tuple(levels), FreeTail(), resolve_quotient)
            _assert_length_bound(res, order, unsafe_order)
            return res
        levels.append(_exhausted_level(syz, guard))


def _assert_length_bound(res, order, unsafe_order):
    """The syzygy theorems bound the quotient resolution by n + 1
    (and place the stabilized kernel at some p <= n + 1) under the
    default TOP-lex order; nothing is claimed for override orders."""
    if unsafe_order is not None or order.priority != tuple(range(res.ambient.nvars)):
        return
    bound = res.ambient.nvars + 1
    if isinstance(res.tail, FreeTail):
        if res.quotient_length > bound:
            raise InternalError(
                f"free resolution of quotient has length {res.quotient_length} > {bound}"
            )
    elif res.tail.stable_index + 1 > bound:
        raise InternalError(
            f"periodic tail stabilized only at level {res.tail.stable_index} > {bound - 1}"
        )


def _buchberger_level0(gens, order, labels, guard, trace=None):
    """Buchberger basis of the generators, sorted, with labels tracking elements."""
    gb = buchberger(gens, order, guard=guard, trace=trace)
    names = list(labels) if labels is not None else []
    names += [f"g{i + 1}" for i in range(len(names), len(gb.elements))]
    by_id = {id(v): names[i] for i, v in enumerate(gb.elements)}
    ordered = sort_basis(list(gb.elements), order)
    return tuple(ordered), tuple(by_id[id(v)] for v in ordered)


def _check_periodic_level(level, ann_b, ring):
    """The explicit extra level must realise LT = (+) Ann(b_j) eps_j."""
    expected = {
        (j, ring.sort_key(a)) for j, a in enumerate(ann_b) if not ring.is_zero(a)
    }
    got = set()
    for v in level.basis:
        if any(e != 0 for e in v.mdeg()):
            raise InternalError("periodic verification level is not constant")
        got.add((v.lp(), ring.sort_key(ring.canonical(v.lc()))))
    if expected != got:
        raise InternalError(
            f"periodic tail mismatch: expected {sorted(expected)}, got {sorted(got)}"
        )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class VerificationReport(NamedTuple):
    ok: bool
    checks: tuple

    def failures(self):
        return [c for c in self.checks if not c["ok"]]


def verify_resolution(res, samples=20, seed=0):
    """Re-check a resolution and report each check, passed or failed.

    The checks, in this order:
    - `composite_zero`, levels 1..: each relation applied to the level
      below it vanishes (the witness is the first failing label);
    - `groebner`, every level: Buchberger's criterion, each S-pair
      divides to zero against the level;
    - `kernel_sampling`, every nonempty level: `samples` random module
      combinations of the level, drawn from `random.Random(seed)`,
      divide to zero against it;
    - free tails, `free_tail_kernel_zero` at the last level: its
      Schreyer syzygies are zero. If they cannot be computed because
      the level is not a Groebner basis, the check fails with the
      error message as witness;
    - periodic tails: `tail_annihilation`, `tail_triple_ann`
      (Ann(Ann(Ann)) = Ann) and `tail_extra_level`.

    A passing `groebner` check already implies, by Buchberger's
    criterion, that every element of the level reduces to zero against
    it. `kernel_sampling` is kept as an independent cross-check of the
    division code: each sample is merged straight into a coefficient
    dict and reduced by the same kernel as `divide`, against divisors
    prepared once per level. The printed `(N checks)` counts every
    check.
    """
    rng = random.Random(seed)
    ring = res.ambient.ring
    checks = []

    def record(name, level, ok, witness=None):
        checks.append({"check": name, "level": level, "ok": ok, "witness": witness})

    for k in range(1, len(res.levels)):
        prev = res.levels[k - 1]
        ok_wit = None
        ok = True
        for rel, lab in zip(res.levels[k].basis, res.levels[k].labels):
            if not apply_relation(rel, list(prev.basis)).is_zero():
                ok, ok_wit = False, lab
                break
        record("composite_zero", k, ok, ok_wit)

    for k, level in enumerate(res.levels):
        record("groebner", k, is_groebner(list(level.basis), level.order))

    for k, level in enumerate(res.levels):
        if not level.basis:
            continue
        index = Divisors(level.basis)
        ok = True
        wit = None
        for _ in range(samples):
            sample = _random_sample(rng, level.basis)
            if sample and reduce_coeffs(sample, index, level.order, ring):
                ok, wit = False, "sampled combination did not reduce to zero"
                break
        record("kernel_sampling", k, ok, wit)

    if isinstance(res.tail, FreeTail):
        last = res.levels[-1]
        try:
            syz = schreyer_syzygies((last.basis, last.order), check=False)
            record("free_tail_kernel_zero", len(res.levels) - 1, not syz.relations)
        except UsageError as exc:
            record("free_tail_kernel_zero", len(res.levels) - 1, False, str(exc))
    elif isinstance(res.tail, PeriodicTail):
        tail = res.tail
        ok = all(
            ring.is_zero(ring.mul(x, a)) for x, a in zip(tail.b, tail.ann_b)
        )
        record("tail_annihilation", tail.stable_index, ok)
        triple = [ring.canonical(ring.ann_gen(a)) for a in tail.ann_ann_b]
        ok = all(ring.eq(t, a) for t, a in zip(triple, tail.ann_b))
        record("tail_triple_ann", tail.stable_index, ok)
        extra = res.levels[-1]
        try:
            _check_periodic_level(extra, tail.ann_b, ring)
            record("tail_extra_level", len(res.levels) - 1, True)
        except InternalError as exc:
            record("tail_extra_level", len(res.levels) - 1, False, str(exc))

    return VerificationReport(all(c["ok"] for c in checks), tuple(checks))


def _random_sample(rng, basis):
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
        coeff = ring.random_element(rng)
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
