"""Syzygies and free resolutions via Schreyer's method.

`term_syzygies` implements the relation generators S_ij for a list of
terms; `schreyer_syzygies` lifts them over a Groebner basis, dividing
each S-polynomial by the basis itself, and keeps the lifts as the
basis's `Certificate`. Iterating, `free_resolution` computes
resolutions under the TOP-lex order, ending in a free tail when every
stabilized leading coefficient is regular and otherwise in the period-2
annihilator pattern, of which one extra level is computed explicitly as
a check and the rest reported symbolically. Each level carries its
certificate, which `verify_resolution` checks without dividing again.
"""

from .errors import GuardExceeded, InternalError, UsageError
from .groebner import (
    GroebnerBasis,
    buchberger,
    divide,  # not called here; bench/test_bench.py checks the tracer restores it
    pair_cofactors,
    pseudo_reduce,
    s_pairs,
    unit_normalize,
)
from .poly import (
    POSMASK,
    Accumulator,
    Ambient,
    Mono,
    Schreyer,
    Term,
    TopLex,
    Vector,
    check_order,
    combination,
    packed_under,
    record,
    reorder,
    sort_basis,
)


Certificate = record("Certificate", "basis pairs unreduced")
Certificate.__doc__ = """Per S-pair (i, j) of `basis` that carries a cofactor, 0-based and
in enumeration order, its lifted relation, zero included; and the
pairs whose division left a nonzero remainder."""
SyzygyBasis = record("SyzygyBasis", "relations order source labels certificate",
                     defaults=(None,))


def _inner_label(label, index):
    """X of a label u[X] followed by primes and then stars, where X has
    no newline; else index + 1."""
    core = (label or "").rstrip("*").rstrip("'")
    if core.startswith("u[") and core.endswith("]") and "\n" not in core:
        return core[2:-1]
    return str(index + 1)


def _pair_label(a, b):
    """The label of a relation of the sources with inner labels a and b."""
    sep = "," if ("," not in a + b and ";" not in a + b) else ";"
    return f"u[{a}{sep}{b}]"


def term_syzygies(terms, ambient, order):
    """Generators S_ij of the syzygy module of a list of terms.

    Pairs with distinct leading positions are omitted, as are auto
    relations of regular coefficients. The relations carry Schreyer's
    order induced by the order on the ambient and the terms. Every
    S-polynomial of two terms is zero, so nothing is divided.
    """
    ring = ambient.ring
    vecs = []
    for t in terms:
        c, m = t
        if ring.is_zero(c):
            raise UsageError("zero term")
        vecs.append(Vector(ambient, order, [Term(c, Mono(tuple(m.exps), m.pos))]))
    return _syzygies_of(vecs, order, labels=None)


def schreyer_syzygies(gb, trace=None, labels=None):
    """Schreyer's syzygy algorithm over a Groebner basis: a
    `GroebnerBasis`, or a pair (elements, order).

    The division of each S-polynomial against the basis must be exact;
    a nonzero remainder means the input was not a Groebner basis and
    raises `UsageError`. By Moeller's lifting theorem these divisions
    are Buchberger's criterion, so no separate check runs first. Each
    division lifts to the relation b X^beta eps_i - a X^alpha eps_j -
    sum q_l eps_l, and the result's `certificate` maps every S-pair to
    its lift; the `relations` are the nonzero lifts themselves. Its
    `basis` is the result's `source`, the given elements themselves when
    they come as a tuple.
    """
    source, order = gb
    return _syzygies_of(tuple(source), order, labels=labels, trace=trace)


def _syzygies_of(source, order, labels, trace=None):
    """The nonzero lifts of source's S-pairs under its Schreyer order:
    the first nonzero remainder raises `UsageError`."""
    if not source:
        raise UsageError("syzygies of the empty list")
    sch = Schreyer(source, order)
    cert = _certify(source, sch, trace, strict=True)
    names = labels or [None] * len(source)
    inner = [_inner_label(name, k) for k, name in enumerate(names)]
    relations, out_labels = [], []
    for (i, j), lift in cert.pairs.items():
        if not lift.is_zero():
            relations.append(lift)
            out_labels.append(_pair_label(inner[i], inner[j]))
    return SyzygyBasis(tuple(relations), sch, source, tuple(out_labels), cert)


_NOT_GROEBNER = "S-polynomial does not reduce to zero: not a Groebner basis"


def _certify(source, sch, trace=None, strict=False):
    """The `Certificate` of source: every S-pair divided by source under
    the parent of the Schreyer order sch, and its division lifted to
    b X^beta eps_i - a X^alpha eps_j - sum q_l eps_l under sch: the lift
    starts from the cofactor terms and the division adds the quotient
    terms into it. One lift `Accumulator` per call serves every pair:
    each lift becomes a `Vector` before the next pair, and `start_lift`
    clears it and seeds it with the pair's cofactor terms. With `strict`
    the first nonzero remainder raises `UsageError`. The divisions run
    under the elements' own order, so sch's parent must be that order."""
    check_order(sch.parent, source[0])
    amb0 = source[0].ambient
    lift = Accumulator(Ambient(amb0.ring, amb0.nvars, len(source)), sch)
    coeffs, neg = lift.coeffs, amb0.ring.neg

    def start_lift(i, j, left, right):
        coeffs.clear()
        b, beta = left
        coeffs[beta + i] = b
        if right is not None:
            a, alpha = right
            coeffs[alpha + j] = neg(a)
        return lift

    pairs, unreduced = {}, set()
    for i, j, _, rest in s_pairs(source, trace, start_lift):
        if rest:
            if strict:
                raise UsageError(_NOT_GROEBNER)
            unreduced.add((i, j))
        pairs[i, j] = lift.vector()
    return Certificate(source, pairs, frozenset(unreduced))


def apply_relation(rel, source):
    """Evaluate a relation vector against its source: sum rel_l * source_l."""
    acc = combination(((rel, 0),), source)
    return Vector.from_coeffs(source[0].ambient, source[0].order, acc)


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


ResolutionLevel = record("ResolutionLevel", "basis order labels certificate", defaults=(None,))
FreeTail = record("FreeTail", "kind", defaults=("free",))
PeriodicTail = record("PeriodicTail", "b ann_b ann_ann_b positions stable_index kind",
                      defaults=("periodic",))


class Resolution(record("Resolution", "ambient levels tail")):
    __slots__ = ()

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
    if not all(v.packed[0][1] <= POSMASK for v in basis):
        return False
    positions = [v.lp() for v in basis]
    return len(set(positions)) == len(positions)


def _exhausted_level(syz, guard):
    gbr, labels = pseudo_reduce_labeled(syz.relations, syz.order, syz.labels, guard)
    return ResolutionLevel(gbr.elements, syz.order, labels)


def pseudo_reduce_labeled(relations, order, labels, guard):
    """pseudo_reduce that keeps a display label attached to each element.

    The relations must form a Groebner basis under order, as a
    Buchberger basis or Schreyer's relations of one do: they are passed
    as a `GroebnerBasis`, whose elements with a leading term that the
    others generate are dropped without being reduced.

    An element equal to an input takes its label. Otherwise it takes the
    label of an input it equals after unit-normalizing that input, or
    else of an input with its leading monomial, with a `'` added; the
    first such input wins. On a Groebner basis every element that
    pseudo-reduction keeps, rewrites or appends has the leading monomial
    of an input, so a miss there is an `InternalError`.

    Inputs and elements share one order, hence one codec, and equal ring
    elements are equal Python values, so two of them are equal exactly
    when their packed terms are: values are matched by `tuple(packed)`.
    """
    reduced = pseudo_reduce(GroebnerBasis(tuple(relations), order), guard=guard)
    by_value = {}
    for r, lab in zip(relations, labels):
        by_value.setdefault(tuple(r.packed), lab)
    by_normalized = by_lm = None
    out_labels = []
    for v in reduced.elements:
        terms = tuple(v.packed)
        label = by_value.get(terms)
        if label is None:
            if by_normalized is None:
                by_normalized, by_lm = _near_labels(relations, labels)
            # primed labels are never empty
            label = by_normalized.get(terms) or by_lm.get(terms[0][1])
            if label is None:
                raise InternalError("a pseudo-reduced element has no input's leading monomial")
        out_labels.append(label)
    return reduced, tuple(out_labels)


def _near_labels(relations, labels):
    """The primed labels of the nonzero relations, by the packed terms
    of the relation made unit-normalized (when that changes it) and by
    the packed leading monomial; the first relation wins each key."""
    by_normalized, by_lm = {}, {}
    for r, lab in zip(relations, labels):
        if r.is_zero():
            continue
        if (n := unit_normalize(r)) is not r:
            by_normalized.setdefault(tuple(n.packed), lab + "'")
        by_lm.setdefault(r.packed[0][1], lab + "'")
    return by_normalized, by_lm


def free_resolution(
    gens,
    order=None,
    max_levels=32,
    labels=None,
    guard=10_000,
    trace=None,
):
    """Iterated Schreyer syzygies of the module generated by gens.

    Level 0 is the Buchberger basis of the generators (kept as computed,
    sorted by leading term); every later level is the exhausted syzygy
    basis of the previous one. Stops once all leading monomials are
    constant: a free tail when every stabilized leading coefficient is
    regular, otherwise a periodic annihilator tail with one explicitly
    verified extra level. A level `max_levels` that has not stabilized
    raises `GuardExceeded` with the levels so far. `order` is a TOP-lex
    order of any variable priority, by default declaration order; the
    length bound of the syzygy theorem is asserted at that default.

    Every level whose syzygies were computed carries their
    `certificate`, the lifts of its S-pairs, and so does the periodic
    tail's extra level, whose lifts are computed untraced for
    `verify_resolution`.
    """
    gens = list(gens)
    if not gens:
        raise UsageError("free_resolution needs at least one generator")
    if max_levels < 0:
        raise UsageError("max_levels must be >= 0")
    amb = gens[0].ambient
    if order is None:
        order = TopLex(amb.nvars)
    elif not isinstance(order, TopLex):
        raise UsageError("free_resolution requires a TOP-lex order")
    gens = [reorder(g, order) for g in gens]
    gb0, labels0 = buchberger_level0(gens, order, labels, guard=guard, trace=trace)
    levels = [ResolutionLevel(gb0, order, labels0)]
    ring = amb.ring
    while True:
        cur = levels[-1]
        if trace is not None:
            trace({"event": "level", "index": len(levels) - 1, "rank": len(cur.basis)})
        stable = _stabilized(cur.basis)
        if stable:
            b = tuple(v.lc() for v in cur.basis)
            ann_b = tuple(ring.canonical(ring.ann_gen(x)) for x in b)
            if all(ring.is_zero(a) for a in ann_b):
                tail = FreeTail()
                break
        elif len(levels) > max_levels:
            raise GuardExceeded(
                f"no stabilization after {max_levels} levels",
                Resolution(amb, tuple(levels), None),
            )
        syz = schreyer_syzygies((cur.basis, cur.order), labels=cur.labels, trace=trace)
        levels[-1] = cur._replace(certificate=syz.certificate)
        if not stable and not syz.relations:
            tail = FreeTail()
            break
        levels.append(_exhausted_level(syz, guard))
        if stable:
            # the extra level lives in the free module indexed by the
            # stabilized elements, so Ann(b_j) sits at index j there
            extra = levels[-1]
            _check_periodic_level(extra, ann_b, ring)
            sch = Schreyer(extra.basis, extra.order)
            levels[-1] = extra._replace(certificate=_certify(extra.basis, sch))
            ann_ann_b = tuple(ring.canonical(ring.ann_gen(a)) for a in ann_b)
            positions = tuple(v.lp() for v in cur.basis)
            tail = PeriodicTail(b, ann_b, ann_ann_b, positions, len(levels) - 2)
            break
    res = Resolution(amb, tuple(levels), tail)
    _assert_length_bound(res, order)
    return res


def _assert_length_bound(res, order):
    """The syzygy theorems bound the quotient resolution by n + 1
    (and place the stabilized kernel at some p <= n + 1) under the
    default TOP-lex order; nothing is claimed for other priorities."""
    if order.priority != tuple(range(res.ambient.nvars)):
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


def buchberger_level0(gens, order, labels, guard, trace=None):
    """Buchberger basis of the generators, sorted, with labels tracking elements."""
    gb = buchberger(gens, order, guard=guard, trace=trace)
    names = list(labels) if labels is not None else []
    names += [f"g{i + 1}" for i in range(len(names), len(gb.elements))]
    by_id = {id(v): names[i] for i, v in enumerate(gb.elements)}
    ordered = sort_basis(list(gb.elements), order)
    return tuple(ordered), tuple(by_id[id(v)] for v in ordered)


# `bench/tracing.py` looks these two up by their former private names,
# and the benchmark changes only in changes of its own. Its tracer wraps
# every module binding of the same function object, so the public
# bindings that `cli` imports stay timed too.
_buchberger_level0 = buchberger_level0
_pseudo_reduce_labeled = pseudo_reduce_labeled


def _check_periodic_level(level, ann_b, ring):
    """The explicit extra level must realise LT = (+) Ann(b_j) eps_j."""
    expected = {
        (j, ring.sort_key(a)) for j, a in enumerate(ann_b) if not ring.is_zero(a)
    }
    got = set()
    for v in level.basis:
        if v.packed[0][1] > POSMASK:
            raise InternalError("periodic verification level is not constant")
        got.add((v.lp(), ring.sort_key(ring.canonical(v.lc()))))
    if expected != got:
        raise InternalError(
            f"periodic tail mismatch: expected {sorted(expected)}, got {sorted(got)}"
        )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class VerificationReport(record("VerificationReport", "ok checks")):
    __slots__ = ()

    def failures(self):
        return [c for c in self.checks if not c["ok"]]


def verify_resolution(res):
    """Re-check a resolution and report each check, passed or failed.

    The checks, in this order:
    - `composite_zero`, levels 1..: each relation applied to the level
      below it vanishes, and has that level's rank (the witness is the
      first failing label);
    - `standard_representation`, every level: the level's certificate
      has a lift L for each S-pair S = b X^beta g_i - a X^alpha g_j of
      the level, and its division left no remainder. The quotient terms
      sum q_l eps_l are the cofactor terms b X^beta eps_i - a X^alpha
      eps_j, which the verifier computes itself from the leading terms,
      minus L, and each must be under the degree bound
      LM(q_l) * LM(g_l) <= LM(S);
    - `lift_identity`, every nonempty level: each lift vanishes on the
      level, that is S = sum q_l g_l, by plain term products as in
      `composite_zero`;
    - free tails, `free_tail_kernel_zero` at the last level: every lift
      in its certificate, so every Schreyer syzygy, is zero. If a
      division there left a remainder, the level is not a Groebner
      basis, and the check fails with `schreyer_syzygies`' error
      message as witness;
    - periodic tails: `tail_annihilation`, `tail_triple_ann`
      (Ann(Ann(Ann)) = Ann) and `tail_extra_level`.

    A level's certificate is the one `free_resolution` attached to it
    (its `certificate`), used only when it was made for this very basis
    (`certificate.basis is level.basis`); otherwise, for a level built
    or changed by hand, the same divisions `schreyer_syzygies` makes
    produce it here. Checking a certificate divides nothing and reads
    no stored cofactor.

    The middle two are a complete certificate that each level is a
    Groebner basis, whatever the division code did. The S-pairs of a
    level generate the syzygies of its leading terms (`term_syzygies`),
    and the leading terms of each cancel, so LM(S) lies below the pair's
    degree. A standard representation of every S-pair lifts every
    generating syzygy, which is Schreyer's argument and Moeller's
    lifting theorem (Moeller 1988; Adams and Loustaunau 1994, ch. 4).
    The witnesses name the first failing S-pair. The printed
    `(N checks)` counts every check.
    """
    ring = res.ambient.ring
    checks = []

    def add_check(name, level, ok, witness=None):
        checks.append({"check": name, "level": level, "ok": ok, "witness": witness})

    for k in range(1, len(res.levels)):
        prev, level = list(res.levels[k - 1].basis), res.levels[k]
        bad = [lab for rel, lab in zip(level.basis, level.labels)
               if rel.ambient.rank != len(prev)
               or combination(((rel, 0),), prev)]
        add_check("composite_zero", k, not bad, bad[0] if bad else None)

    certs = [_certificate_of(level) for level in res.levels]
    checked = [_check_level(level, cert, ring) for level, cert in zip(res.levels, certs)]
    for k, (standard, _) in enumerate(checked):
        add_check("standard_representation", k, standard is None, standard)
    for k, (_, identity) in enumerate(checked):
        if res.levels[k].basis:
            add_check("lift_identity", k, identity is None, identity)

    if isinstance(res.tail, FreeTail):
        cert = certs[-1]
        ok = not cert.unreduced and all(lift.is_zero() for lift in cert.pairs.values())
        add_check("free_tail_kernel_zero", len(res.levels) - 1, ok,
                  _NOT_GROEBNER if cert.unreduced else None)
    elif isinstance(res.tail, PeriodicTail):
        tail = res.tail
        ok = all(
            ring.is_zero(ring.mul(x, a)) for x, a in zip(tail.b, tail.ann_b)
        )
        add_check("tail_annihilation", tail.stable_index, ok)
        triple = [ring.canonical(ring.ann_gen(a)) for a in tail.ann_ann_b]
        ok = all(ring.eq(t, a) for t, a in zip(triple, tail.ann_b))
        add_check("tail_triple_ann", tail.stable_index, ok)
        extra = res.levels[-1]
        try:
            _check_periodic_level(extra, tail.ann_b, ring)
            add_check("tail_extra_level", len(res.levels) - 1, True)
        except InternalError as exc:
            add_check("tail_extra_level", len(res.levels) - 1, False, str(exc))

    return VerificationReport(all(c["ok"] for c in checks), tuple(checks))


def _certificate_of(level):
    """The level's own certificate if it was made for its basis, else a
    new one from the same divisions."""
    cert = level.certificate
    if cert is not None and cert.basis is level.basis:
        return cert
    if not level.basis:
        return Certificate(level.basis, {}, frozenset())
    return _certify(level.basis, Schreyer(level.basis, level.order))


def _pair_name(i, j):
    return f"S-pair ({i + 1},{j + 1})"


def _check_level(level, cert, ring):
    """(standard, identity): witnesses of the first S-pair of the level
    without a lift, with a remainder or with a quotient term over the
    degree bound, and of the first whose lift does not vanish on the
    level; None if none. The quotient terms are the verifier's own
    cofactor terms b X^beta eps_i - a X^alpha eps_j minus the lift.

    One work `Accumulator` per level takes each pair's S and then its
    quotient terms applied to the level, so it ends the pair holding the
    lift applied to the level: empty when the identity holds, and
    cleared only after a pair where it fails. The least position of a
    quotient term over the bound is kept as the terms go in."""
    basis, key, codec = level.basis, level.order.key, level.order.codec
    if not basis:
        return None, None
    packed = [packed_under(g, codec) for g in basis]
    lms = [terms[0][1] for terms in packed]
    add, neg = ring.add, ring.neg
    work = Accumulator(basis[0].ambient, level.order)
    zero, coeffs, add_term_mul = work.zero, work.coeffs, work.add_term_mul
    standard = identity = None
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            if (lms[i] ^ lms[j]) & POSMASK:
                continue
            cofactors = pair_cofactors(basis[i], basis[j], auto=(i == j))
            if cofactors is None:
                continue
            lift = cert.pairs.get((i, j))
            if lift is None or lift.ambient.rank != n:
                standard = standard or f"{_pair_name(i, j)} has no certificate for its cofactors"
                continue
            (b, beta), right = cofactors
            own = {beta + i: b}
            add_term_mul(b, beta, packed[i])
            if right is not None:
                a, alpha = right
                own[alpha + j] = c = neg(a)
                add_term_mul(c, alpha, packed[j])
            # LM(S) from the sum, before the quotients go in; when S is
            # zero, every quotient term breaks the bound
            bound = min(map(key, coeffs), default=None)
            # the lift minus the own terms: -q X^m eps_l per quotient term;
            # over is the least position over the bound, n if there is none
            over = n
            for c, m in packed_under(lift, codec):
                if (o := own.pop(m, None)) is not None:
                    c = add(c, neg(o))
                if c == zero:
                    continue
                pos = m & POSMASK
                if pos < over and (bound is None or key(m - pos + lms[pos]) < bound):
                    over = pos
                add_term_mul(c, m - pos, packed[pos])
            for m, o in own.items():
                if (c := neg(o)) == zero:
                    continue
                pos = m & POSMASK
                if pos < over and (bound is None or key(m - pos + lms[pos]) < bound):
                    over = pos
                add_term_mul(c, m - pos, packed[pos])
            if standard is None and (i, j) in cert.unreduced:
                standard = f"{_pair_name(i, j)} leaves a nonzero remainder"
            elif standard is None and over < n:
                standard = f"{_pair_name(i, j)} has LM(q{over + 1}) * LM(g{over + 1}) above LM(S)"
            if coeffs:
                identity = identity or f"{_pair_name(i, j)} differs from sum q_l g_l"
                coeffs.clear()
            if standard is not None and identity is not None:
                return standard, identity
    return standard, identity
