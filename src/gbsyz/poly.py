"""Free-module polynomial vectors and monomial orders.

A monomial in R[X1..Xn]^m is X^alpha * e_pos; exponents are tuples
indexed by the ambient's variable list (index 0 = lex-greatest by
default). A vector is a descending-sorted tuple of (coeff, monomial)
terms under its active order; the empty tuple is 0. Ring polynomials
(division quotients, syzygy coordinates) are rank-1 vectors.

An order is a sort key on monomials, where a smaller key is a greater
monomial, so sorting by `order.key` gives the vector order and a
min-heap pops the leading term.

Every sum of term products c * X^gamma * v (products, divisions,
S-polynomials, lifted relations, parsed expressions) is formed in one
`Accumulator`.
"""

from __future__ import annotations

import heapq
import operator
from typing import NamedTuple

from .errors import UsageError


class Mono(NamedTuple):
    exps: tuple
    pos: int


class Term(NamedTuple):
    coeff: object
    mono: Mono


class _NegInfinity:
    """mdeg of the zero vector; compares below every exponent tuple."""

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __repr__(self):
        return "-inf"


MDEG_NEG_INF = _NegInfinity()


class Ambient(NamedTuple):
    """The data of H_m = R[X1..Xn]^m."""

    ring: object
    nvars: int
    rank: int


def positive_part(alpha):
    """Componentwise max(alpha_i, 0)."""
    return tuple(a if a > 0 else 0 for a in alpha)


def exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exps_add(a, b):
    return tuple(map(operator.add, a, b))


def mono_divides(m, n):
    """Quotient exponent vector n/m if m divides n (same position), else None."""
    if m.pos != n.pos:
        return None
    out = []
    for a, b in zip(m.exps, n.exps):
        if a > b:
            return None
        out.append(b - a)
    return tuple(out)


def term_divides(t, u, ring):
    """Quotient term u/t when both coefficient and monomial divide, else None.

    The quotient is a ring-level term (coefficient, exponent vector);
    multiplying it back onto t recovers u exactly.
    """
    gamma = mono_divides(t.mono, u.mono)
    if gamma is None:
        return None
    c = ring.divides(t.coeff, u.coeff)
    if c is None:
        return None
    return Term(c, Mono(gamma, 0))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class TopLex:
    """Term-over-position order on H_m over lex on the ring monomials.

    `priority` is the variable-index permutation, most significant
    first; the default is declaration order (vars[0] greatest). Ring
    monomials compare lexicographically along the priority; ties go to
    the smaller position.
    """

    def __init__(self, nvars, priority=None):
        self.nvars = nvars
        self.priority = tuple(priority) if priority is not None else tuple(range(nvars))
        if sorted(self.priority) != list(range(nvars)):
            raise UsageError(f"priority {priority!r} is not a permutation of 0..{nvars - 1}")
        # memoised keys, one per monomial seen; they die with the order
        self._keys = {}

    def __eq__(self, other):
        return type(other) is TopLex and other.priority == self.priority

    def __hash__(self):
        return hash(("toplex", self.priority))

    def key(self, m):
        """Sort key of a monomial: a smaller key is a greater monomial."""
        k = self._keys.get(m)
        if k is None:
            exps = m.exps
            k = self._keys[m] = tuple([-exps[i] for i in self.priority] + [m.pos])
        return k

    def compare(self, m, n):
        return _compare_keys(self.key(m), self.key(n))

    def frame(self, pos):
        """(shift, chain) of position pos: the key of X^a * e_pos is
        -(a + shift) along the priority, followed by chain."""
        return (0,) * self.nvars, (pos,)


class Schreyer:
    """Order induced by a parent order and nonzero images g_1..g_p.

    X^a*eps_l > X^b*eps_k iff LM(X^a g_l) > LM(X^b g_k) under the
    parent order, with ties broken by l < k.
    """

    def __init__(self, images, parent):
        if not images:
            raise UsageError("Schreyer order needs at least one image")
        for g in images:
            if g.is_zero():
                raise UsageError("Schreyer order images must be nonzero")
        self.images = tuple(images)
        self.parent = parent
        self.priority = parent.priority
        # X^a * eps_l sorts as X^(a + LM(g_l).exps) * e_LP(g_l) under the
        # parent, ties broken by l: fold that down to the base TOP-lex order
        self._frames = []
        for l, g in enumerate(self.images):
            lm = g.lm()
            shift, chain = parent.frame(lm.pos)
            self._frames.append((exps_add(lm.exps, shift), chain + (l,)))
        # memoised keys, one per monomial seen; they die with the order
        self._keys = {}

    def key(self, m):
        """Sort key of a monomial: a smaller key is a greater monomial."""
        k = self._keys.get(m)
        if k is None:
            exps = m.exps
            shift, chain = self._frames[m.pos]
            k = self._keys[m] = tuple([-(exps[i] + shift[i]) for i in self.priority]) + chain
        return k

    def compare(self, m, n):
        return _compare_keys(self.key(m), self.key(n))

    def frame(self, pos):
        """(shift, chain) of position pos, as for TopLex.frame."""
        return self._frames[pos]


def _compare_keys(k, l):
    """1, 0 or -1 as the monomial of key k is greater than, equal to or less than l's."""
    return (k < l) - (k > l)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class Vector:
    """An element of H_m as a descending-sorted term tuple."""

    __slots__ = ("ambient", "order", "terms")

    def __init__(self, ambient, order, terms, _normalized=False):
        self.ambient = ambient
        self.order = order
        if _normalized:
            self.terms = tuple(terms)
        else:
            self.terms = _normalize(ambient, order, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient, order):
        return cls(ambient, order, (), _normalized=True)

    @classmethod
    def from_coeffs(cls, ambient, order, coeffs):
        """The vector of a dict monomial -> nonzero coefficient."""
        terms = [Term(coeffs[m], m) for m in sorted(coeffs, key=order.key)]
        return cls(ambient, order, terms, _normalized=True)

    # -- leading data --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def lt(self):
        return self.terms[0] if self.terms else None

    def lm(self):
        if not self.terms:
            raise UsageError("leading monomial of the zero vector")
        return self.terms[0].mono

    def lc(self):
        if not self.terms:
            return self.ambient.ring.zero()
        return self.terms[0].coeff

    def lp(self):
        if not self.terms:
            raise UsageError("leading position of the zero vector")
        return self.terms[0].mono.pos

    def mdeg(self):
        if not self.terms:
            return MDEG_NEG_INF
        return self.terms[0].mono.exps

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other):
        if self.ambient != other.ambient:
            raise UsageError("vectors from different ambients")
        if self.order is not other.order and self.order != other.order:
            raise UsageError("vectors under different monomial orders")

    def add(self, other):
        self._check_compatible(other)
        ring = self.ambient.ring
        key = self.order.key
        out = []
        a, b = self.terms, other.terms
        i, j = 0, 0
        if a and b:
            ka, kb = key(a[0].mono), key(b[0].mono)
            while True:
                if ka < kb:
                    out.append(a[i])
                    i += 1
                    if i == len(a):
                        break
                    ka = key(a[i].mono)
                elif kb < ka:
                    out.append(b[j])
                    j += 1
                    if j == len(b):
                        break
                    kb = key(b[j].mono)
                else:
                    s = ring.add(a[i].coeff, b[j].coeff)
                    if not ring.is_zero(s):
                        out.append(Term(s, a[i].mono))
                    i += 1
                    j += 1
                    if i == len(a) or j == len(b):
                        break
                    ka, kb = key(a[i].mono), key(b[j].mono)
        out.extend(a[i:])
        out.extend(b[j:])
        return Vector(self.ambient, self.order, out, _normalized=True)

    def neg(self):
        ring = self.ambient.ring
        return Vector(
            self.ambient,
            self.order,
            [Term(ring.neg(c), m) for c, m in self.terms],
            _normalized=True,
        )

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, coeff):
        """Multiply by a ring element (zero terms may appear and are dropped)."""
        ring = self.ambient.ring
        out = []
        for c, m in self.terms:
            p = ring.mul(coeff, c)
            if not ring.is_zero(p):
                out.append(Term(p, m))
        return Vector(self.ambient, self.order, out, _normalized=True)

    def term_mul(self, coeff, exps):
        """Multiply by the ring term coeff * X^exps."""
        ring = self.ambient.ring
        out = []
        for c, m in self.terms:
            p = ring.mul(coeff, c)
            if not ring.is_zero(p):
                out.append(Term(p, Mono(exps_add(m.exps, exps), m.pos)))
        return Vector(self.ambient, self.order, out, _normalized=True)

    def mul(self, other):
        """Polynomial product; only meaningful for rank-1 (ring) vectors."""
        self._check_compatible(other)
        if self.ambient.rank != 1:
            raise UsageError("product of module vectors of rank > 1")
        return Vector.from_coeffs(self.ambient, self.order, combination(self.terms, (other,)))

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.ambient != other.ambient or len(self.terms) != len(other.terms):
            return False
        ring = self.ambient.ring
        mine = {m: c for c, m in self.terms}
        return all(
            m in mine and ring.eq(mine[m], c) for c, m in other.terms
        )

    def __hash__(self):
        ring = self.ambient.ring
        return hash(
            (self.ambient, frozenset((m, ring.sort_key(c)) for c, m in self.terms))
        )

    def __repr__(self):
        from .dsl import format_vector

        names = tuple(f"x{i + 1}" for i in range(self.ambient.nvars))
        return f"<{format_vector(self, names)}>"


def _normalize(ambient, order, terms):
    ring = ambient.ring
    merged = {}
    for c, m in terms:
        if m.pos < 0 or m.pos >= ambient.rank or len(m.exps) != ambient.nvars:
            raise UsageError(f"monomial {m} outside ambient {ambient}")
        if any(e < 0 for e in m.exps):
            raise UsageError(f"negative exponent in {m}")
        if m in merged:
            merged[m] = ring.add(merged[m], c)
        else:
            merged[m] = c
    monos = [m for m, c in merged.items() if not ring.is_zero(c)]
    monos.sort(key=order.key)
    return tuple(Term(merged[m], m) for m in monos)


def reorder(v, order):
    """The same vector re-sorted under a different monomial order; v
    itself when it already is under that order."""
    if order is v.order:
        return v
    return Vector(v.ambient, order, v.terms)


class Accumulator:
    """A sparse sum of terms in `ambient` under `order`.

    Coefficients live in a dict monomial -> nonzero coefficient, so a sum
    that cancels leaves the dict at once. The leading term comes from a
    min-heap of (order key, monomial), built on the first `lead()` and
    kept up to date from then on; a monomial that has left the dict is
    dropped when it surfaces. This is the dict-plus-heap of Monagan and
    Pearce 2007 (*Polynomial division using dynamic arrays, heaps, and
    packed exponent vectors*). `terms` seeds the sum with (coeff, mono)
    pairs of distinct monomials and nonzero coefficients.
    """

    __slots__ = ("ambient", "ring", "order", "coeffs", "heap")

    def __init__(self, ambient, order, terms=()):
        self.ambient = ambient
        self.ring = ambient.ring
        self.order = order
        self.coeffs = {m: c for c, m in terms}
        self.heap = None

    def lead(self):
        """The leading term, or None for zero."""
        heap, coeffs = self.heap, self.coeffs
        if heap is None:
            key = self.order.key
            heap = self.heap = [(key(m), m) for m in coeffs]
            heapq.heapify(heap)
        while heap:
            m = heap[0][1]
            c = coeffs.get(m)
            if c is not None:
                return Term(c, m)
            heapq.heappop(heap)
        return None

    def add(self, c, m):
        """Add the nonzero term c * m."""
        old = self.coeffs.get(m)
        if old is None:
            self.coeffs[m] = c
            if self.heap is not None:
                heapq.heappush(self.heap, (self.order.key(m), m))
        elif self.ring.is_zero(s := self.ring.add(old, c)):
            del self.coeffs[m]
        else:
            self.coeffs[m] = s

    def add_term_mul(self, c, exps, terms):
        """Add c * X^exps * v for the (coeff, mono) terms of a v, term by term."""
        ring = self.ring
        mul, add, is_zero = ring.mul, ring.add, ring.is_zero
        coeffs, heap, key = self.coeffs, self.heap, self.order.key
        for d, n in terms:
            p = mul(c, d)
            if is_zero(p):
                continue
            mono = Mono(exps_add(n.exps, exps), n.pos)
            old = coeffs.get(mono)
            if old is None:
                coeffs[mono] = p
                if heap is not None:
                    heapq.heappush(heap, (key(mono), mono))
            elif is_zero(s := add(old, p)):
                del coeffs[mono]
            else:
                coeffs[mono] = s

    def scale(self, u):
        """Multiply by the unit u in place (no coefficient vanishes)."""
        mul, coeffs = self.ring.mul, self.coeffs
        for m, c in coeffs.items():
            coeffs[m] = mul(u, c)

    def vector(self):
        """The sum as a Vector."""
        return Vector.from_coeffs(self.ambient, self.order, self.coeffs)


def combination(terms, source):
    """sum c * X^m * source[m.pos] over the terms (c, m), by plain term
    products, as a dict monomial -> coefficient without zeros."""
    if not source:
        raise UsageError("empty source")
    first = source[0]
    for v in source[1:]:
        first._check_compatible(v)
    acc = Accumulator(first.ambient, first.order)
    for c, m in terms:
        try:
            v = source[m.pos]
        except IndexError:
            raise UsageError(f"position {m.pos + 1} past a source of {len(source)}") from None
        acc.add_term_mul(c, m.exps, v.terms)
    return acc.coeffs


def vector_key(order, v):
    """Total deterministic sort key of a vector, term by term: a smaller
    key is a greater monomial, then a smaller coefficient sort key. The
    closing (1,) sorts after every (0, ...) term key, so a vector that is
    a prefix of another sorts after it."""
    ring = v.ambient.ring
    return tuple([(0, order.key(m), ring.sort_key(c)) for c, m in v.terms] + [(1,)])


def sort_basis(vectors, order):
    """Descending by leading term, the stable display and Schreyer-source order."""
    return sorted(vectors, key=lambda v: vector_key(order, v))
