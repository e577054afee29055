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
divisions write their quotients straight into each pair's lift;
`pair_cofactors` gives the cofactors alone, for the resolution
verifier, which divides nothing.

`pseudo_reduce` is the leading-term exhaustion used between syzygy
levels: unit-normalize leading coefficients, reduce a leading term away
whenever the other leading terms divide it, and replace coefficients by
proper gcd combinations when they improve the displayed leading-term
module (its rule for a residue). Tails are deliberately left alone;
full tail reduction would rewrite the bases the worked examples pin
down. `term_module_member` decides membership of a term without the
step, as an independent check of what the divisions leave.
"""

from bisect import bisect_left, insort
from collections import deque, namedtuple

from .errors import GuardExceeded, InternalError, UsageError
from .poly import (
    POSMASK,
    Accumulator,
    Term,
    Vector,
    combination,
    mono_divides,
    reorder,
    sort_basis,
)


DivisionResult = namedtuple("DivisionResult", "quotients remainder")
# kind is "auto", "cross" or "zero"; a cofactor is None when absent. The
# value is a sorted Vector; from s_pair_indexed the cofactors are packed
# (coeff, int) pairs, which s_poly decodes
SPair = namedtuple("SPair", "value left_cofactor right_cofactor kind")
GroebnerBasis = namedtuple("GroebnerBasis", "elements order")


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


def _order_of(v, order):
    """order, by default v's own. The terms of v are sorted under its own
    order, so any other order is a `UsageError`."""
    if order is None:
        return v.order
    if order is not v.order and order != v.order:
        raise UsageError("order differs from the vectors' monomial order")
    return order


def divide(h, divisors, order=None, trace=None):
    """Divide h by the list of divisors (gcd-aggregating division).

    Returns quotients as rank-1 polynomials and a remainder none of
    whose terms lies in the leading-term module of the divisors. With
    an empty divisor list the remainder is h itself. Each divisor must
    be nonzero and compatible with h. `order` defaults to h's and must
    equal it.
    """
    index = Divisors(divisors, like=h)
    order = _order_of(h, order)
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


def divide_valuation(h, divisors, order=None, trace=None):
    """First-divisor division for the valuation-ring backends: the first
    divisor whose leading term divides (as a term) is used alone, and a
    leading term without one moves to the remainder. On a valuation ring
    that is what `divide` does, so this is `divide` with the ring
    checked first.
    """
    if not h.ambient.ring.is_valuation_ring:
        raise UsageError(f"{h.ambient.ring} is not a valuation ring")
    return divide(h, divisors, order, trace=trace)


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


def s_pair_indexed(f, g, order, auto):
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
        return SPair(Vector.zero(f.ambient, order), None, None, kind)
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


def s_poly(f, g, order=None):
    """The S-polynomial of f and g, with its cofactors.

    f = g (as values) is the auto case b*f with Ann(LC(f)) = <b>;
    distinct leading positions give the zero S-polynomial; otherwise
    the cofactors come from the ring's coprime decomposition of the
    leading coefficients. `order` defaults to f's and must equal it.
    The value is a sorted `Vector` and the cofactors are `Term`s.
    """
    sp = s_pair_indexed(f, g, _order_of(f, order), auto=(f == g))
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


def s_pairs(source, order, trace=None, start_lift=None):
    """(i, j, lift, rest) for the S-pairs of the nonzero elements source
    that carry a cofactor, in (i, j) order: rest is the list of
    remainder terms of the pair's value divided by source, descending,
    and empty when it reduces to zero. Without `start_lift` only
    remainders are computed and lift is None; otherwise lift is
    start_lift(i, j, left, right) for the packed cofactor terms of the
    pair, an `Accumulator` into which the division adds -sum q_l eps_l.
    One work `Accumulator` per call holds every pair's value: `_reduce`
    drains it. `order` must equal the elements' own."""
    if not source:
        return
    index = Divisors(source)
    order = _order_of(source[0], order)
    amb, codec, packed = source[0].ambient, order.codec, index.packed
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
            lift = None if start_lift is None else start_lift(i, j, left, right)
            yield i, j, lift, _reduce(work, index, lift, trace)


def is_groebner(elements, order) -> bool:
    """Buchberger's criterion: every S-pair (auto included) reduces to zero."""
    elements = list(elements)
    for g in elements:
        if g.is_zero():
            raise UsageError("zero element in candidate basis")
    return not any(rest for *_, rest in s_pairs(elements, order))


# ---------------------------------------------------------------------------
# leading-term exhaustion (pseudo-reduction)
# ---------------------------------------------------------------------------


def _unit_normalize(v):
    ring = v.ambient.ring
    u, _canon = ring.normalize_unit(v.lc())
    if ring.eq(u, ring.one()):
        return v
    return v.scale(ring.unit_inverse(u))


def _opened(work, g):
    """work, or a new accumulator of g when there is none yet."""
    return Accumulator(g.ambient, g.order, g.packed) if work is None else work


def _head_exhaust(g, index):
    """Drive the leading term of g as low as the other elements allow.

    g is reduced by the shared step, against the prepared `index` of
    the others, in an accumulator opened at its first change: a unit
    rescale or a step. The accumulator holds g / u for a pending unit u,
    which collects the rescales and is applied once at the end. When a
    combination leaves a residue, the gcd combination
    c0 * g + c1 * sum c_j X^gamma_j o_j is formed unless the gcd is an
    associate of LC(g): in place when c0 is a unit.

    Returns g itself when nothing changed, else the new g, or None when
    it reduced to zero. A gcd combination whose Bezout coefficient of g
    is not a unit is appended to `index` at once, so g's old leading
    term is reduced away before returning (otherwise the two could
    recreate each other forever).
    """
    ring = g.ambient.ring
    one = ring.one()
    work = None
    u = u_inv = one  # g = u * work once work is open
    lc, lm = g.packed[0]
    while True:
        n, _canon = ring.normalize_unit(lc)
        if n != one:
            work = _opened(work, g)
            n_inv = ring.unit_inverse(n)
            u, u_inv, lc = ring.mul(u, n_inv), ring.mul(u_inv, n), ring.mul(lc, n_inv)
        D, step, rest = _lead_step(index, ring, lc, lm)
        if not D:
            break
        if rest is not None and not ring.is_zero(rest[0]):
            _, d, coeffs = rest
            dd, (c0, c1) = ring.gcd_bezout([lc, d])
            if ring.divides(lc, dd) is not None:
                break  # gcd is an associate of LC(g): nothing to gain
            step = []
            for (j, _, gamma), cj in zip(D, coeffs):
                w = ring.mul(c1, cj)
                if not ring.is_zero(w):
                    step.append((j, gamma, ring.neg(w)))
            if ring.is_unit(c0):
                work = _opened(work, g)
                u, u_inv = ring.mul(u, c0), ring.mul(u_inv, ring.unit_inverse(c0))
            else:
                terms = g.packed if work is None else [(c, m) for m, c in work.coeffs.items()]
                c0u = ring.mul(c0, u)
                scaled = ((ring.mul(c0u, c), m) for c, m in terms)
                comb = Accumulator(g.ambient, g.order, [(p, m) for p, m in scaled if not ring.is_zero(p)])
                for j, gamma, w in step:
                    comb.add_term_mul(ring.neg(w), gamma, index.packed[j])
                # the combination is new: its leading term dd * lm, with
                # dd != 0 dividing lc, would make an element that has it
                # a candidate whose coefficient divides lc, and the step
                # would have been exact
                index.append(_unit_normalize(comb.vector()))
                continue
        work = _opened(work, g)
        for j, gamma, w in step:
            work.add_term_mul(ring.neg(ring.mul(u_inv, w)), gamma, index.packed[j])
        if (t := work.lead()) is None:
            return None
        c, lm = t
        lc = ring.mul(u, c)
    if work is None:
        return g
    if u != one:
        work.scale(u)
    return work.vector()


def pseudo_reduce(gb, order=None, guard=10_000):
    """Exhaust all reductions between the leading terms of a Groebner basis.

    Elements are unit-normalized and kept sorted descending; an element
    whose leading term the others divide is rewritten (and dropped when
    it reduces to zero), and coefficient gcd combinations are formed
    where they properly shrink a displayed leading coefficient. The
    result generates the same module and is again a Groebner basis.
    A zero element is a `UsageError`.

    Each pass prepares one `Divisors` of its elements: an element is
    taken out of it while it is exhausted against the rest, and put back
    rewritten; the combinations join it at the end. An element that
    nothing changes is kept as the same object.
    """
    if isinstance(gb, GroebnerBasis):
        elements, order = list(gb.elements), gb.order
    else:
        if order is None:
            raise UsageError("pseudo_reduce of a plain list needs the order")
        elements = list(gb)
    work = sort_basis([_unit_normalize(v) for v in elements], order)
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
            size = len(index.vectors)
            index.put(idx, None)
            new = _head_exhaust(g, index)
            if new is not None:
                index.put(idx, new)
            if new is None or (new is not g and new != g) or len(index.vectors) > size:
                changed = True
        if changed:
            work = sort_basis([v for v in index.vectors if v is not None], order)
        else:
            # none was dropped or appended, and each equals the element
            # it replaced, so the list is still in sort_basis order
            work = index.vectors
    return GroebnerBasis(tuple(work), order)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


TermCertificate = namedtuple("TermCertificate", "entries")  # of (index, coeff, gamma)
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
    res = divide(h, list(gb.elements), gb.order)
    if res.remainder.is_zero():
        return res.quotients
    return None


def expand_combination(quotients, vectors):
    """sum q_i * v_i for rank-1 quotients against module vectors."""
    acc = combination([(q, i) for i, q in enumerate(quotients)], vectors)
    return Vector.from_coeffs(vectors[0].ambient, vectors[0].order, acc)
