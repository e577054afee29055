"""Division with remainder, S-polynomials, Buchberger's algorithm.

Every reduction here takes one step on a leading term lc * lm
(`_lead_step`): of the divisors at lm's position whose leading monomial
divides lm, the first whose leading coefficient divides lc is used
alone; otherwise the step is the Bezout combination of all of them,
with the Euclid residue of lc left over. That reproduces the hand
computations of the worked examples while keeping the output contract
(reconstruction identity, the LM(q_j)LM(h_j) <= LM(h) bound, and no
remainder term lying in the leading-term module of the divisors). Each
caller keeps its own rule for what is left over: `divide` moves it to
the remainder. Over a valuation ring the gcd of the candidates is the
one of least valuation, so a step with no exact candidate leaves the
whole term over: `divide` then is the first-divisor division, and
`divide_valuation` is `divide` restricted to those rings.

The working polynomial of every reduction, the quotients of a division
and the value of an S-pair are sums of term products c * X^gamma * v,
formed in `poly.Accumulator`. Every S-pair takes its cofactors and value
from one kernel, `_s_pair`. `divide` prepares a `Divisors` of its list
and reduces h on it with `_reduce`. Buchberger's loop and `s_pairs`
read their pairs from one prepared `Divisors` and reduce them on it
with the same loop. `s_pairs` enumerates the S-pairs of a basis with
their divisions, once for `is_groebner` and Schreyer's syzygies, whose
lifts it seeds with each pair's cofactor terms before the division adds
the quotient terms; `pair_cofactors` gives the cofactors alone, for the
resolution verifier, which divides nothing.

`pseudo_reduce` is the leading-term exhaustion used between syzygy
levels, on a `GroebnerBasis` record: unit-normalize leading
coefficients, drop an element whose leading term the others generate,
and replace coefficients by proper gcd combinations when they improve
the displayed leading-term module (its rule for a residue); each element
is settled by one step. Tails are deliberately left alone; full tail
reduction would rewrite the bases the worked examples pin down.
`term_module_member` decides membership of a term without the step, as
an independent check of what the divisions leave.
"""

from bisect import bisect_left, insort
from collections import deque

from .errors import GuardExceeded, InternalError, UsageError
from .poly import (
    POSMASK,
    Accumulator,
    Term,
    Vector,
    check_order,
    combination,
    mono_divides,
    record,
    reorder,
    sort_basis,
)


DivisionResult = record("DivisionResult", "quotients remainder")
# kind is "auto", "cross" or "zero"; a cofactor is None when absent. The
# value is a sorted Vector; from s_pair_indexed the cofactors are packed
# (coeff, int) pairs, which s_poly decodes
SPair = record("SPair", "value left_cofactor right_cofactor kind")
GroebnerBasis = record("GroebnerBasis", "elements order")
GroebnerBasis.__doc__ = """elements, which must form a Groebner basis under order:
`pseudo_reduce` trusts a record to be one, and takes nothing else."""


class Divisors:
    """A divisor list prepared once for many divisions.

    Each divisor is checked once: it must be nonzero and compatible with
    `like` (by default the first divisor). The leading terms are indexed
    as (index, LC, packed LM) by leading position, in ascending index
    order: only same-position divisors can divide. `packed` holds each
    divisor's packed terms and `mask` the guard and position bits of
    their codec. `append` grows the set, as Buchberger's basis grows.
    """

    __slots__ = ("vectors", "packed", "by_pos", "mask", "_ref")

    def __init__(self, vectors=(), *, like=None):
        self.vectors = []
        self.packed = []
        self.by_pos = {}
        self.mask = None
        self._ref = like
        for v in vectors:
            self.append(v)

    def append(self, v):
        if v.is_zero():
            raise UsageError("zero divisor in division")
        if self._ref is None:
            self._ref = v
        else:
            v._check_compatible(self._ref)
        if self.mask is None:
            self.mask = v.order.codec.divmask
        terms = v.packed
        lc, lm = terms[0]
        self.by_pos.setdefault(lm & POSMASK, []).append((len(self.vectors), lc, lm))
        self.vectors.append(v)
        self.packed.append(terms)

    def put(self, j, v):
        """Replace divisor j by the nonzero v, or drop it for None; its
        slot in `vectors` and `packed` is then None."""
        if (old := self.packed[j]) is not None:
            bucket = self.by_pos[old[0][1] & POSMASK]
            del bucket[bisect_left(bucket, (j,))]
        self.vectors[j] = v
        self.packed[j] = None if v is None else v.packed
        if v is not None:
            lc, lm = v.packed[0]
            insort(self.by_pos.setdefault(lm & POSMASK, []), (j, lc, lm))


def _lead_step(index, ring, lc, lm, scan_all=False):
    """The step every reduction takes on the leading term lc * lm.

    Scans the candidates at lm's position in the prepared `index`, in
    index order, and collects in D, as (j, LC_j, gamma), those whose
    leading monomial divides lm: all monomials are packed, and LM_j
    divides lm iff lm - LM_j has no guard or position bit set, the
    quotient gamma. The first whose leading coefficient
    divides lc too is taken alone: the step is [(j, gamma, q)] and the
    scan stops there unless `scan_all`. Otherwise the step is the Bezout
    combination of all of D: with d = sum c_j LC_j their gcd and
    lc = c * d + e, it is [(j, gamma, c * c_j)], nonzero entries only,
    and e is left on lm.

    Returns (D, step, rest): step subtracts w * X^gamma * divisor j per
    entry; it is None when D is empty. rest is None for an exact step
    and (e, d, [c_j]) for a combination.
    """
    D = []
    step = None
    mask = index.mask
    for j, djc, djm in index.by_pos.get(lm & POSMASK, ()):
        if (gamma := lm - djm) & mask:
            continue
        D.append((j, djc, gamma))
        if step is None and (q := ring.divides(djc, lc)) is not None:
            step = [(j, gamma, q)]
            if not scan_all:
                break
    if step is not None or not D:
        return D, step, None
    d, coeffs = ring.gcd_bezout([djc for _, djc, _ in D])
    c, e = ring.euclid_step(lc, d)
    step = []
    for (j, _, gamma), cj in zip(D, coeffs):
        w = ring.mul(c, cj)
        if not ring.is_zero(w):
            step.append((j, gamma, w))
    return D, step, (e, d, coeffs)


def _reduce(work, index, lift, trace):
    """The gcd-aggregating reduction loop: reduce the accumulator work
    against the prepared divisors until it is zero and return the
    remainder terms, in descending order. Unless `lift` is None, each
    step w * X^gamma on divisor j lands in it once as -w * X^gamma *
    eps_j, so it ends up holding -sum q_j eps_j for the quotients q_j.
    A leading term without divisors, and the Euclid residue of a
    combination, move to the remainder. Every step cancels its leading
    monomial; a step that leaves it in work would repeat forever, so it
    raises InternalError.

    With a trace the step scans every candidate, because the
    `reduction_step` event names them all.
    """
    ring = work.ring
    neg = ring.neg
    lead, add_term_mul = work.lead, work.add_term_mul
    packed, coeffs = index.packed, work.coeffs
    r_terms = []
    while (t := lead()) is not None:
        lc, lm = t
        D, step, rest = _lead_step(index, ring, lc, lm, trace is not None)
        if not D:
            r_terms.append(t)
            work.add(neg(lc), lm)
        else:
            if trace is not None:
                trace({"event": "reduction_step", "lm": work.order.codec.decode(lm),
                       "divisors": [j for j, _, _ in D]})
            for j, gamma, w in step:
                w = neg(w)
                if lift is not None:
                    lift.add(w, gamma + j)
                add_term_mul(w, gamma, packed[j])
            if rest is not None and not ring.is_zero(e := rest[0]):
                r_terms.append((e, lm))
                work.add(neg(e), lm)
        if lm in coeffs:
            lm = work.order.codec.decode(lm)
            raise InternalError(f"reduction step left its leading monomial {lm} in place")
    return r_terms


def divide(h, divisors, *, trace=None):
    """Divide h by the list of divisors (gcd-aggregating division) under
    h's order.

    Returns quotients as rank-1 polynomials and a remainder none of
    whose terms lies in the leading-term module of the divisors. With
    an empty divisor list the remainder is h itself. Each divisor must
    be nonzero and compatible with h.
    """
    index = Divisors(divisors, like=h)
    order = h.order
    lift = Accumulator(h.ambient._replace(rank=len(index.vectors)), order)
    # the remainder terms are already descending: each step removes the
    # leading term of the working polynomial and adds only smaller ones
    r_terms = _reduce(Accumulator(h.ambient, order, h.packed), index, lift, trace)
    # split -sum q_j eps_j by position, flipping the signs back
    neg = h.ambient.ring.neg
    parts = [{} for _ in index.vectors]
    for m, c in lift.coeffs.items():
        pos = m & POSMASK
        parts[pos][m - pos] = neg(c)
    ring_amb = h.ambient._replace(rank=1)
    quotients = tuple(Vector.from_coeffs(ring_amb, order, q) for q in parts)
    return DivisionResult(quotients, Vector.from_packed(h.ambient, order, r_terms))


def divide_valuation(h, divisors, *, trace=None):
    """First-divisor division for the valuation-ring backends: the first
    divisor whose leading term divides (as a term) is used alone, and a
    leading term without one moves to the remainder. On a valuation ring
    that is what `divide` does, so this is `divide` with the ring
    checked first.
    """
    if not h.ambient.ring.is_valuation_ring:
        raise UsageError(f"{h.ambient.ring} is not a valuation ring")
    return divide(h, divisors, trace=trace)


def _s_pair(ft, gt, auto, ring, codec, value=None):
    """The S-pair b X^beta f - a X^alpha g of the packed terms ft, gt of
    two nonzero vectors, from their leading terms: (kind, left, right)
    with left = (b, X^beta) and right = (a, X^alpha) packed at position
    0, None where there is no cofactor. The auto pair of f is b f with
    Ann(LC(f)) = <b>; a cross pair at distinct positions is "zero".
    Unless `value` is None, the pair's value is added into it from the
    tails ft[1:] and gt[1:] alone: the leading products cancel exactly,
    as b LC(f) = 0 (auto) and b LC(f) = a LC(g) (cross, at the lcm)."""
    fc, mu = ft[0]
    if auto:
        b = ring.ann_gen(fc)
        if ring.is_zero(b):
            return "auto", None, None
        if value is not None:
            value.add_term_mul(b, 0, ft[1:])
        return "auto", (b, 0), None
    gc, nu = gt[0]
    if (mu ^ nu) & POSMASK:
        return "zero", None, None
    a, b = ring.spair_cofactors(fc, gc)
    lcm = codec.lcm(mu, nu)
    if value is not None:
        value.add_term_mul(b, lcm - mu, ft[1:])
        value.add_term_mul(ring.neg(a), lcm - nu, gt[1:])
    return "cross", (b, lcm - mu), (a, lcm - nu)


def s_pair_indexed(f, g, auto):
    """S-pair computation with the auto/cross split decided by the caller.

    Buchberger's loop and the syzygy algorithms take the auto case for
    the index pair i = j; two equal values at distinct indices still
    form a cross pair (their syzygy eps_i - eps_j matters). The value
    is a sorted `Vector` and the cofactors are packed `pair_cofactors`.
    """
    if f.is_zero() or g.is_zero():
        raise UsageError("S-polynomial of the zero vector")
    f._check_compatible(g)
    value = Accumulator(f.ambient, f.order)
    kind, left, right = _s_pair(f.packed, g.packed, auto, f.ambient.ring, f.order.codec, value)
    if left is None:
        return SPair(Vector.zero(f.ambient, f.order), None, None, kind)
    return SPair(value.vector(), left, right, kind)


def pair_cofactors(f, g, auto):
    """The cofactor terms (b, X^beta), (a, X^alpha) of the S-pair
    b X^beta f - a X^alpha g of two nonzero vectors at one leading
    position, from their leading terms alone, with beta and alpha packed
    by f's codec at position 0. The auto pair of f is b f with
    Ann(LC(f)) = <b>, as ((b, 0), None), and None when b is zero; a cross
    pair at distinct leading positions is None too."""
    _, left, right = _s_pair(f.packed, g.packed, auto, f.ambient.ring, f.order.codec)
    return None if left is None else (left, right)


def s_poly(f, g):
    """The S-polynomial of f and g, with its cofactors.

    f = g (as values) is the auto case b*f with Ann(LC(f)) = <b>;
    distinct leading positions give the zero S-polynomial; otherwise
    the cofactors come from the ring's coprime decomposition of the
    leading coefficients. The value is a sorted `Vector` and the
    cofactors are `Term`s.
    """
    sp = s_pair_indexed(f, g, auto=(f == g))
    decode = f.order.codec.decode
    left, right = (None if t is None else Term(t[0], decode(t[1]))
                   for t in (sp.left_cofactor, sp.right_cofactor))
    return sp._replace(left_cofactor=left, right_cofactor=right)


def buchberger(gens, order, guard=10_000, trace=None):
    """Buchberger's algorithm with the deterministic (i, j) pair queue.

    A pair without a cofactor, an auto pair whose leading coefficient is
    regular or a cross pair at distinct positions, is skipped without a
    division. Remainders are taken against the full current basis. One
    work `Accumulator` per call holds every pair's value: `_reduce`
    drains it. The guard bounds the basis size; all shipped rings are
    Groebner rings, so hitting it means a bug, not a hard instance. The
    generators are re-sorted under `order` first.
    """
    gens = [reorder(g, order) for g in gens]
    if not gens:
        raise UsageError("buchberger needs at least one generator")
    if guard < 1:
        raise UsageError("guard must be >= 1")
    for g in gens:
        if g.is_zero():
            raise UsageError("zero generator")
    index = Divisors(gens)
    basis, packed = index.vectors, index.packed
    amb, codec = basis[0].ambient, order.codec
    work = Accumulator(amb, order)
    queue = deque((i, j) for i in range(len(basis)) for j in range(i, len(basis)))
    while queue:
        i, j = queue.popleft()
        kind, left, _ = _s_pair(packed[i], packed[j], i == j, amb.ring, codec, work)
        if trace is not None:
            trace({"event": "pair", "i": i + 1, "j": j + 1, "kind": kind})
        if left is None:
            continue
        r_terms = _reduce(work, index, None, trace)
        if not r_terms:
            continue
        index.append(Vector.from_packed(amb, order, r_terms))
        t = len(basis) - 1
        if len(basis) > guard:
            raise GuardExceeded(f"basis grew past guard={guard}", tuple(basis))
        if trace is not None:
            trace({"event": "basis_added", "index": t + 1})
        queue.extend((k, t) for k in range(t))
        queue.append((t, t))
    return GroebnerBasis(tuple(basis), order)


def s_pairs(source, trace=None, lift=None):
    """(i, j, rest) for the S-pairs of the nonzero elements source that
    carry a cofactor, in (i, j) order: rest is the list of remainder
    terms of the pair's value divided by source, descending, and empty
    when it reduces to zero. Each pair clears `lift`, an `Accumulator`
    on source's free module unless None, and seeds it with the cofactor
    terms b X^beta eps_i - a X^alpha eps_j; the division adds -sum q_l
    eps_l. One work `Accumulator` per call holds every pair's value:
    `_reduce` drains it."""
    if not source:
        return
    index = Divisors(source)
    amb, order, packed = source[0].ambient, source[0].order, index.packed
    codec, neg = order.codec, amb.ring.neg
    work = Accumulator(amb, order)
    for i, ft in enumerate(packed):
        # only elements at the same leading position pair up
        bucket = index.by_pos[ft[0][1] & POSMASK]
        for j, _, _ in bucket[bisect_left(bucket, (i,)):]:
            kind, left, right = _s_pair(ft, packed[j], i == j, amb.ring, codec, work)
            if left is None:
                continue
            if trace is not None:
                trace({"event": "syzygy_pair", "i": i + 1, "j": j + 1, "kind": kind})
            if lift is not None:
                lift.coeffs.clear()
                lift.coeffs[left[1] + i] = left[0]
                if right is not None:
                    lift.coeffs[right[1] + j] = neg(right[0])
            yield i, j, _reduce(work, index, lift, trace)


def is_groebner(elements) -> bool:
    """Buchberger's criterion: every S-pair (auto included) reduces to zero."""
    elements = list(elements)
    for g in elements:
        if g.is_zero():
            raise UsageError("zero element in candidate basis")
    return not any(rest for _, _, rest in s_pairs(elements))


# ---------------------------------------------------------------------------
# leading-term exhaustion (pseudo-reduction)
# ---------------------------------------------------------------------------


def unit_normalize(v):
    """v scaled by the inverse of its leading coefficient's unit part;
    v itself when that unit is one."""
    ring = v.ambient.ring
    u, _canon = ring.normalize_unit(v.lc())
    if ring.eq(u, ring.one()):
        return v
    return v.scale(ring.unit_inverse(u))


def _head_exhaust(g, index):
    """Settle g against the prepared `index` of the other elements in one
    leading-term step. Returns g itself to keep it, None to drop it, or
    the element that replaces it:

    - no candidate divides LM(g), or the gcd dd = c0 LC(g) + c1 d of
      LC(g) and the candidates' gcd d is an associate of LC(g): keep g;
    - the step is full (exact, or a combination with a zero residue):
      drop g;
    - otherwise the combination c0 g + c1 sum c_j X^gamma_j o_j, whose
      leading term is dd LM(g), replaces g when c0 is a unit; else it is
      appended to `index` and g is dropped.
    """
    ring = g.ambient.ring
    lc, lm = g.packed[0]
    D, _, rest = _lead_step(index, ring, lc, lm)
    if not D:
        return g
    if rest is None or ring.is_zero(rest[0]):
        return None
    _, d, coeffs = rest
    dd, (c0, c1) = ring.gcd_bezout([lc, d])
    if ring.divides(lc, dd) is not None:
        return g  # gcd is an associate of LC(g): nothing to gain
    scaled = ((ring.mul(c0, c), m) for c, m in g.packed)
    comb = Accumulator(g.ambient, g.order, [(p, m) for p, m in scaled if not ring.is_zero(p)])
    for (j, _, gamma), cj in zip(D, coeffs):
        w = ring.mul(c1, cj)
        if not ring.is_zero(w):
            comb.add_term_mul(w, gamma, index.packed[j])
    comb = comb.vector()
    if ring.is_unit(c0):
        return comb
    index.append(comb)
    return None


def pseudo_reduce(gb, guard=10_000):
    """Exhaust all reductions between the leading terms of a Groebner basis.

    gb is a `GroebnerBasis` record, trusted to be one; anything else is
    a `UsageError`, and so are a zero element and an order that is not
    the elements' own. Elements are
    unit-normalized and kept sorted descending. Each pass prepares one
    `Divisors` of its elements: an element is taken out of it, settled
    against the rest by `_head_exhaust` in one leading-term step, and
    put back unless it is dropped; the combinations appended to it are
    visited in the same pass. An element that nothing changes is kept
    as the same object. Passes repeat until one changes nothing. The
    result generates the same module and is again a Groebner basis.

    Why one step settles an element. Let the pass's index O + {g} be a
    Groebner basis of a module M, with g the element visited.
    - A full step puts LT(g) in the module of LT(O), so LT(O) generates
      LT(M): O is a Groebner basis of M and g lies in the span of O.
      Every leading term of an element of M then has a full step, so
      exhausting g would take only full steps down to zero, append no
      combination and change nothing else: g is dropped at once.
    - Leading coefficients stay canonical: the inputs are
      unit-normalized, and a combination's is the gcd dd that
      `gcd_bezout` returns canonical.
    - After a rewrite by a unit c0 the candidates are the same, and no
      LC of a candidate divides dd (dd divides LC(g), and the step on g
      was not exact) nor does d (d would divide LC(g)). So the next step
      is a combination again, gcd(dd, d) = dd, and it stops: the
      rewritten element is final.
    - An appended combination lies in M, and its leading term dd LM(g)
      divides LT(g), so the index stays a Groebner basis of M with LT(g)
      in its leading-term module: as for a full step, g would reduce to
      zero, and is dropped.
    A keep, a rewrite or a drop keeps every old leading term in the new
    index's leading-term module, so the index stays a Groebner basis of
    M through the pass, and the next pass starts from that index.
    """
    if not isinstance(gb, GroebnerBasis):
        raise UsageError("pseudo_reduce needs a GroebnerBasis record")
    elements, order = gb
    if elements:
        check_order(order, elements[0])
    work = sort_basis([unit_normalize(v) for v in elements])
    passes = 0
    changed = True
    while changed:
        passes += 1
        if passes > guard:
            raise GuardExceeded("pseudo_reduce did not stabilise", tuple(work))
        changed = False
        index = Divisors(work)
        # the pass visits the combinations appended to it as well
        for idx, g in enumerate(index.vectors):
            index.put(idx, None)
            new = _head_exhaust(g, index)
            if new is not None:
                index.put(idx, new)
            changed |= new is not g
        if changed:
            work = sort_basis([v for v in index.vectors if v is not None])
        else:
            # none was dropped, rewritten or appended, so the list is
            # still in sort_basis order
            work = index.vectors
    return GroebnerBasis(tuple(work), order)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


TermCertificate = record("TermCertificate", "entries")  # of (index, coeff, gamma)
TermCertificate.__doc__ = """T = sum coeff_i * X^gamma_i * gens[index_i]."""


def term_module_member(term, gens, ring):
    """Membership of a term in a module generated by terms.

    gens is a list of (coeff, Mono). The divisible subset decides: the
    gcd of its coefficients must divide the target coefficient.
    """
    b, target = term
    entries = []
    divisible = []
    for i, (c, m) in enumerate(gens):
        if ring.is_zero(c):
            raise UsageError("zero generator term")
        gamma = mono_divides(m, target)
        if gamma is not None:
            divisible.append((i, c, gamma))
    if not divisible:
        return None
    d, coeffs = ring.gcd_bezout([c for _i, c, _g in divisible])
    q = ring.divides(d, b)
    if q is None:
        return None
    for (i, _c, gamma), cj in zip(divisible, coeffs):
        w = ring.mul(q, cj)
        if not ring.is_zero(w):
            entries.append((i, w, gamma))
    return TermCertificate(tuple(entries))


def module_member(h, gb):
    """Quotients expressing h over a Groebner basis, or None."""
    res = divide(h, list(gb.elements))
    if res.remainder.is_zero():
        return res.quotients
    return None


def expand_combination(quotients, vectors):
    """sum q_i * v_i for rank-1 quotients against module vectors."""
    acc = combination([(q, i) for i, q in enumerate(quotients)], vectors)
    return Vector.from_coeffs(vectors[0].ambient, vectors[0].order, acc)
