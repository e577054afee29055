"""Free-module polynomial vectors and monomial orders.

A monomial in R[X1..Xn]^m is X^alpha * e_pos. At the boundary it is a
`Mono(exps, pos)`, with exponents indexed by the ambient's variable list
(index 0 = lex-greatest by default). Inside the engine it is one int,
packed by the order's `Codec`: each exponent has a field of EXP_BITS
bits whose top bit is a guard, the fields sit most significant first
along the order's priority, and the position sits in the low POS_BITS
bits. Multiplying by X^gamma is then one int addition of the packed
gamma (position 0), and m divides n iff (n - m) has no guard or position
bit set, with quotient n - m (Monagan and Pearce 2007, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*;
Bachmann and Schoenemann 1998, *Monomial representations for Groebner
bases computations*). Exponents stay below the guard bit: packing and
products that would reach it raise `PackedOverflow`, an
`InternalError`, and never wrap.

A vector is a descending-sorted sequence of packed `(coeff, int)` terms
(`packed`) under its active order; the empty one is 0. Its decoded
`Term(coeff, Mono)`s (`terms`) are made once, when first read. Ring
polynomials (division quotients, syzygy coordinates) are
rank-1 vectors.

An order is a sort key on packed monomials, an int where a smaller key
is a greater monomial, so sorting by `order.key` gives the vector order
and a list sorted by negated keys ends in the leading term. `order.unkey`
inverts it.

Every sum of term products c * X^gamma * v (products, divisions,
S-polynomials, lifted relations, parsed expressions) is formed in one
`Accumulator`, on packed monomials.
"""

import sys
from _collections import _tuplegetter
from bisect import insort
from functools import lru_cache, partial

from .errors import PackedOverflow, UsageError


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

_tuple_new = tuple.__new__


class Record(tuple):
    """The base of the package's records, tuples with named fields that
    `record` makes. A record behaves as the `collections.namedtuple` of
    its fields does: `_fields`, `_field_defaults`, `__match_args__`,
    `_make`, `_replace`, `_asdict`, repr, copy and pickle. The methods
    are shared here, so making a record compiles nothing."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        result = _tuple_new(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **kwds):
        result = _tuple_new(type(self), map(kwds.pop, self._fields, self))
        if kwds:
            raise ValueError(f"Got unexpected field names: {list(kwds)!r}")
        return result

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def _asdict(self):
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)


def _bind(cls, args, kwargs):
    """The field values of cls(*args, **kwargs), or TypeError."""
    rest = cls._fields[len(args):]
    values = {**cls._field_defaults, **kwargs}
    if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest) <= values.keys():
        raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(cls._fields)}); got "
                        f"{len(args)} positional and the keywords {list(kwargs)}")
    return args + tuple(values[field] for field in rest)


def record(name, fields, defaults=()):
    """A Record subclass `name` of the space-separated `fields`, the last
    of which take the tuple `defaults`, defined in the calling module."""
    fields = tuple(fields.split())
    n, required = len(fields), len(fields) - len(defaults)

    def __new__(cls, *args, **kwargs):
        if len(args) == n and not kwargs:
            return _tuple_new(cls, args)
        if required <= len(args) < n and not kwargs:
            return _tuple_new(cls, args + defaults[len(args) - required:])
        return _tuple_new(cls, _bind(cls, args, kwargs))

    namespace = {
        "__doc__": f"{name}({', '.join(fields)})",
        "__module__": sys._getframe(1).f_globals["__name__"],
        "__slots__": (),
        "__new__": __new__,
        "_fields": fields,
        "_field_defaults": dict(zip(fields[required:], defaults)),
        "__match_args__": fields,
    }
    for i, field in enumerate(fields):
        namespace[field] = _tuplegetter(i, f"Alias for field number {i}")
    return type(name, (Record,), namespace)


Mono = record("Mono", "exps pos")
Term = record("Term", "coeff mono")
Ambient = record("Ambient", "ring nvars rank")
Ambient.__doc__ = """The data of H_m = R[X1..Xn]^m."""


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


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

# bits per exponent field, its guard bit included: exponents stay below 2^31
EXP_BITS = 32
# bits of the position: ranks up to 2^24
POS_BITS = 24
POSMASK = (1 << POS_BITS) - 1
# a packed monomial shifted down past its position, modulo this, is its
# total degree modulo this, as 2^EXP_BITS is 1 modulo it
_FIELD_SUM = (1 << EXP_BITS) - 1


class Codec:
    """The packing of X^a * e_pos for `nvars` variables along `priority`.

    `shifts[i]` is the bit offset of variable i's field; `guard` has the
    top bit of every field set. Codecs are shared: `codec_of` builds one
    per (nvars, priority).
    """

    __slots__ = ("shifts", "guard", "divmask", "fieldmask", "values")

    def __init__(self, nvars, priority):
        shifts = [0] * nvars
        for k, i in enumerate(priority):
            shifts[i] = POS_BITS + EXP_BITS * (nvars - 1 - k)
        self.shifts = tuple(shifts)
        top = 1 << (EXP_BITS - 1)
        self.guard = sum(top << s for s in shifts)
        self.divmask = self.guard | POSMASK
        self.fieldmask = (1 << EXP_BITS) - 1
        # the exponent bits below the guards
        self.values = self.guard - (self.guard >> (EXP_BITS - 1))

    def pack(self, exps, pos):
        """The int of X^exps * e_pos; an exponent outside the field or a
        position past POS_BITS raises PackedOverflow, and exponents for
        another number of variables UsageError."""
        if len(exps) != len(self.shifts):
            raise UsageError(f"{len(exps)} exponents for an order on {len(self.shifts)} variables")
        m = pos
        for e, s in zip(exps, self.shifts):
            if e >> (EXP_BITS - 1):
                raise PackedOverflow(f"exponent {e} outside the packed field of {EXP_BITS - 1} bits")
            m += e << s
        if pos >> POS_BITS:
            raise PackedOverflow(f"position {pos} outside the packed field of {POS_BITS} bits")
        return m

    def encode(self, mono):
        return self.pack(mono.exps, mono.pos)

    def exps(self, m):
        """The exponent tuple of a packed monomial."""
        f = self.fieldmask
        return tuple([(m >> s) & f for s in self.shifts])

    def decode(self, m):
        return Mono(self.exps(m), m & POSMASK)

    def lcm(self, m, n):
        """The lcm of two packed monomials at m's position. All fields
        compare at once: (m | guard) - n keeps a field's guard bit iff
        m's exponent there is at least n's, and no borrow crosses a
        field."""
        ge = ((m | self.guard) - (n & self.values)) & self.guard
        take = ge - (ge >> (EXP_BITS - 1))
        return (m & (take | POSMASK)) | (n & (self.values ^ take))


@lru_cache(maxsize=64)
def codec_of(nvars, priority):
    return Codec(nvars, priority)


def check_product(m, guard):
    """m itself, or PackedOverflow when a product carried into a guard bit."""
    if m & guard:
        raise PackedOverflow("monomial product past the packed exponent field")
    return m


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class TopLex:
    """Term-over-position order on H_m over lex on the ring monomials.

    `priority` is the variable-index permutation, most significant
    first; the default is declaration order (vars[0] greatest). Ring
    monomials compare lexicographically along the priority; ties go to
    the smaller position. Packed along the priority, X^a * e_pos is
    A + pos with A ordered as the lex order, so the key pos - A is
    2 * pos - m, with no table.
    """

    def __init__(self, nvars, priority=None):
        self.nvars = nvars
        self.priority = tuple(priority) if priority is not None else tuple(range(nvars))
        if sorted(self.priority) != list(range(nvars)):
            raise UsageError(f"priority {priority!r} is not a permutation of 0..{nvars - 1}")
        self.codec = codec_of(nvars, self.priority)

    def __eq__(self, other):
        return type(other) is TopLex and other.priority == self.priority

    def __hash__(self):
        return hash(("toplex", self.priority))

    def key(self, m):
        """Sort key of a packed monomial: a smaller key is a greater monomial."""
        return 2 * (m & POSMASK) - m

    def unkey(self, k):
        """The packed monomial of a key."""
        return 2 * (k & POSMASK) - k

    def compare(self, m, n):
        """1, 0 or -1 as the Mono m is greater than, equal to or less than n."""
        return _compare_keys(self, m, n)

    def fold(self, pos):
        """(shift, rank) of position pos: the key of X^a * e_pos is
        rank - (A + shift) for the packed exponents A of X^a."""
        return 0, pos


class Schreyer:
    """Order induced by a parent order and nonzero images g_1..g_p,
    vectors under the parent order (else `UsageError`).

    X^a*eps_l > X^b*eps_k iff LM(X^a g_l) > LM(X^b g_k) under the
    parent order, with ties broken by l < k. Folded down to the base
    TOP-lex order, X^a * eps_l sorts by the exponents a plus the shift
    of l (LM(g_l) plus the parent's shift at LP(g_l)), then by the rank
    of l's tie-break chain; so its key is offset[l] - m for the packed
    m = A + l, with offset[l] = rank[l] + l - shift[l]. The codec is the
    parent's.
    """

    def __init__(self, images, parent):
        if not images:
            raise UsageError("Schreyer order needs at least one image")
        for g in images:
            if g.is_zero():
                raise UsageError("Schreyer order images must be nonzero")
            check_order(parent, g)
        if len(images) > POSMASK + 1:
            raise PackedOverflow(f"{len(images)} positions outside the packed field of {POS_BITS} bits")
        self.images = tuple(images)
        self.parent = parent
        self.priority = parent.priority
        self.codec = codec = parent.codec
        shifts, chain = [], []
        for g in self.images:
            lm = g.packed[0][1]
            pos = lm & POSMASK
            shift, rank = parent.fold(pos)
            shift += lm - pos
            if shift & codec.guard:
                raise PackedOverflow("Schreyer shift past the packed exponent field")
            shifts.append(shift)
            chain.append(rank)
        self._shifts = shifts
        # positions by rank: the parent's rank of LP(g_l), then l
        self._by_rank = sorted(range(len(chain)), key=lambda l: (chain[l], l))
        self._ranks = ranks = [0] * len(chain)
        for r, l in enumerate(self._by_rank):
            ranks[l] = r
        self._offsets = [ranks[l] + l - shifts[l] for l in range(len(chain))]

    def key(self, m):
        """Sort key of a packed monomial: a smaller key is a greater monomial."""
        return self._offsets[m & POSMASK] - m

    def unkey(self, k):
        """The packed monomial of a key."""
        return self._offsets[self._by_rank[k & POSMASK]] - k

    def compare(self, m, n):
        """1, 0 or -1 as the Mono m is greater than, equal to or less than n."""
        return _compare_keys(self, m, n)

    def fold(self, pos):
        """(shift, rank) of position pos, as for TopLex.fold."""
        return self._shifts[pos], self._ranks[pos]


def _compare_keys(order, m, n):
    encode = order.codec.encode
    k, l = order.key(encode(m)), order.key(encode(n))
    return (k < l) - (k > l)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class Vector:
    """An element of H_m as a descending-sorted sequence of packed
    (coeff, int) terms under `order.codec`; the decoded `Term`s are
    made on first read of `terms` and kept."""

    __slots__ = ("ambient", "order", "packed", "_terms")

    def __init__(self, ambient, order, terms):
        self.ambient = ambient
        self.order = order
        self.packed = _normalize(ambient, order, terms)
        self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient, order):
        return cls.from_packed(ambient, order, ())

    @classmethod
    def from_packed(cls, ambient, order, pairs):
        """The vector of descending (coeff, packed monomial) pairs under
        order, with distinct monomials and nonzero coefficients."""
        v = cls.__new__(cls)
        v.ambient, v.order, v.packed, v._terms = ambient, order, pairs, None
        return v

    @classmethod
    def from_coeffs(cls, ambient, order, coeffs):
        """The vector of a dict packed monomial -> nonzero coefficient.
        Under TOP-lex on rank 1 the key -m is a plain descending sort."""
        if _is_toplex_rank1(ambient, order):
            monos = sorted(coeffs, reverse=True)
        else:
            monos = sorted(coeffs, key=order.key)
        return cls.from_packed(ambient, order, [(coeffs[m], m) for m in monos])

    @property
    def terms(self):
        """The decoded terms, (coeff, Mono) each."""
        if self._terms is None:
            decode = self.order.codec.decode
            self._terms = tuple([Term(c, decode(m)) for c, m in self.packed])
        return self._terms

    # -- leading data --------------------------------------------------------

    def is_zero(self):
        return not self.packed

    def lm(self):
        if not self.packed:
            raise UsageError("leading monomial of the zero vector")
        return self.order.codec.decode(self.packed[0][1])

    def lc(self):
        if not self.packed:
            return self.ambient.ring.zero()
        return self.packed[0][0]

    def lp(self):
        if not self.packed:
            raise UsageError("leading position of the zero vector")
        return self.packed[0][1] & POSMASK

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
        a, b = self.packed, other.packed
        i, j = 0, 0
        if a and b:
            ka, kb = key(a[0][1]), key(b[0][1])
            while True:
                if ka < kb:
                    out.append(a[i])
                    i += 1
                    if i == len(a):
                        break
                    ka = key(a[i][1])
                elif kb < ka:
                    out.append(b[j])
                    j += 1
                    if j == len(b):
                        break
                    kb = key(b[j][1])
                else:
                    s = ring.add(a[i][0], b[j][0])
                    if not ring.is_zero(s):
                        out.append((s, a[i][1]))
                    i += 1
                    j += 1
                    if i == len(a) or j == len(b):
                        break
                    ka, kb = key(a[i][1]), key(b[j][1])
        out.extend(a[i:])
        out.extend(b[j:])
        return Vector.from_packed(self.ambient, self.order, out)

    def neg(self):
        neg = self.ambient.ring.neg
        return Vector.from_packed(self.ambient, self.order, [(neg(c), m) for c, m in self.packed])

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, coeff):
        """Multiply by a ring element (zero terms may appear and are dropped)."""
        ring = self.ambient.ring
        out = []
        for c, m in self.packed:
            p = ring.mul(coeff, c)
            if not ring.is_zero(p):
                out.append((p, m))
        return Vector.from_packed(self.ambient, self.order, out)

    def term_mul(self, coeff, exps):
        """Multiply by the ring term coeff * X^exps."""
        ring = self.ambient.ring
        codec = self.order.codec
        shift, guard = codec.pack(exps, 0), codec.guard
        out = []
        for c, m in self.packed:
            p = ring.mul(coeff, c)
            if not ring.is_zero(p):
                out.append((p, check_product(m + shift, guard)))
        return Vector.from_packed(self.ambient, self.order, out)

    def mul(self, other):
        """Polynomial product; only meaningful for rank-1 (ring) vectors."""
        self._check_compatible(other)
        if self.ambient.rank != 1:
            raise UsageError("product of module vectors of rank > 1")
        return Vector.from_coeffs(self.ambient, self.order, combination(((self, 0),), (other,)))

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        if self.order.codec is other.order.codec:
            mine, theirs = self.packed, other.packed
        else:
            mine, theirs = self.terms, other.terms
        if len(mine) != len(theirs):
            return False
        eq = self.ambient.ring.eq
        mine = {m: c for c, m in mine}
        return all(m in mine and eq(mine[m], c) for c, m in theirs)

    def __hash__(self):
        # position, total degree and coefficient of each term, with no
        # decode and the same under every priority
        sort_key = self.ambient.ring.sort_key
        return hash((self.ambient, frozenset(
            (m & POSMASK, (m >> POS_BITS) % _FIELD_SUM, sort_key(c)) for c, m in self.packed
        )))

    def __repr__(self):
        from .dsl import format_vector

        names = tuple(f"x{i + 1}" for i in range(self.ambient.nvars))
        return f"<{format_vector(self, names)}>"


def _is_toplex_rank1(ambient, order):
    """Whether order is TOP-lex on a rank-1 ambient, where every position
    is 0 and the key 2 * pos - m of a monomial m is -m."""
    return ambient.rank == 1 and type(order) is TopLex


def _normalize(ambient, order, terms):
    """The packed, merged and sorted form of (coeff, Mono) terms."""
    ring = ambient.ring
    encode = order.codec.encode
    merged = {}
    for c, m in terms:
        if m.pos < 0 or m.pos >= ambient.rank or len(m.exps) != ambient.nvars:
            raise UsageError(f"monomial {m} outside ambient {ambient}")
        if any(e < 0 for e in m.exps):
            raise UsageError(f"negative exponent in {m}")
        p = encode(m)
        merged[p] = ring.add(merged[p], c) if p in merged else c
    monos = [m for m, c in merged.items() if not ring.is_zero(c)]
    monos.sort(key=order.key)
    return tuple([(merged[m], m) for m in monos])


def check_order(order, v):
    """Raise `UsageError` unless order is the monomial order of v."""
    if order != v.order:
        raise UsageError("order differs from the vectors' monomial order")


def reorder(v, order):
    """The same vector re-sorted under a different monomial order; v
    itself when it already is under that order. The only function that
    re-encodes a vector's terms."""
    if order is v.order:
        return v
    encode = order.codec.encode
    return Vector.from_coeffs(v.ambient, order, {encode(m): c for c, m in v.terms})


# the sum size from which `Accumulator.lead()` keeps a sorted index: 96% of
# its calls on the seed 1001 `gb` corpus see 7 terms or fewer; 16 measured
# within 1%
HEAP_MIN = 8


class Accumulator:
    """A sparse sum of packed terms in `ambient` under `order`.

    Coefficients live in a dict packed monomial -> nonzero coefficient,
    so a sum that cancels leaves the dict at once. Below HEAP_MIN terms
    the leading term is the least key; from the first `lead()` that sees
    HEAP_MIN or more on, it is the last entry of `heap`, a list of negated
    order keys kept ascending by `bisect.insort`, where an entry whose
    monomial has left the dict is popped when it comes last (the lazy
    deletion of Monagan and Pearce 2007's dict-plus-heap). A `lead()`
    that finds the sum empty drops the index, so a drained accumulator
    can be refilled. The ring's `mul` and `add`, the order's `key` and
    `unkey` and the leader of a small sum are bound once; under TOP-lex
    on rank 1 the key is -m, so the least key of distinct monomials is
    their `max`. A coefficient is tested for zero by == with the
    ring's zero: equal ring elements are equal values.
    `terms` seeds the sum with packed (coeff, mono) pairs of distinct
    monomials and nonzero coefficients.
    """

    __slots__ = ("ambient", "ring", "zero", "order", "coeffs", "heap", "guard",
                 "_mul", "_add", "_key", "_unkey", "_leading")

    def __init__(self, ambient, order, terms=()):
        self.ambient = ambient
        self.ring = ring = ambient.ring
        self.zero = ring.zero()
        self.order = order
        self.coeffs = {m: c for c, m in terms} if terms else {}
        self.heap = None
        self.guard = order.codec.guard
        self._mul, self._add = ring.mul, ring.add
        self._key, self._unkey = order.key, order.unkey
        self._leading = max if _is_toplex_rank1(ambient, order) else partial(min, key=order.key)

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        """The leading (coeff, mono) pair, or None for zero, which drops
        the index; without one, HEAP_MIN or more terms build it."""
        coeffs = self.coeffs
        if not coeffs:
            self.heap = None
            return None
        heap = self.heap
        if heap is None:
            if len(coeffs) < HEAP_MIN:
                m = self._leading(coeffs)
                return coeffs[m], m
            key = self._key
            heap = self.heap = sorted([-key(m) for m in coeffs])
        unkey = self._unkey
        while True:
            m = unkey(-heap[-1])
            c = coeffs.get(m)
            if c is not None:
                return c, m
            heap.pop()

    def add(self, c, m):
        """Add the nonzero term c * m."""
        old = self.coeffs.get(m)
        if old is None:
            self.coeffs[m] = c
            if self.heap is not None:
                insort(self.heap, -self._key(m))
        elif (s := self._add(old, c)) == self.zero:
            del self.coeffs[m]
        else:
            self.coeffs[m] = s

    def add_term_mul(self, c, shift, terms):
        """Add c * X^shift * v for the packed terms of a v, term by term;
        shift is a packed monomial at position 0."""
        mul, add, zero = self._mul, self._add, self.zero
        coeffs, heap, guard = self.coeffs, self.heap, self.guard
        for d, n in terms:
            p = mul(c, d)
            if p == zero:
                continue
            m = n + shift
            if m & guard:
                check_product(m, guard)
            old = coeffs.get(m)
            if old is None:
                coeffs[m] = p
                if heap is not None:
                    insort(heap, -self._key(m))
            elif (s := add(old, p)) == zero:
                del coeffs[m]
            else:
                coeffs[m] = s

    def vector(self):
        """The sum as a Vector."""
        return Vector.from_coeffs(self.ambient, self.order, self.coeffs)


def combination(rows, source):
    """sum c * X^a * source[pos + offset] over the terms c * X^a * e_pos
    of each (vector, offset) in rows, by plain term products, as a dict
    packed monomial -> coefficient without zeros. Each row must be packed
    by the source's codec."""
    if not source:
        raise UsageError("empty source")
    first = source[0]
    for v in source[1:]:
        first._check_compatible(v)
    codec = first.order.codec
    acc = Accumulator(first.ambient, first.order)
    for row, offset in rows:
        if row.order.codec.shifts != codec.shifts:
            raise UsageError("row packed by another codec than its source")
        for c, m in row.packed:
            pos = m & POSMASK
            if pos + offset >= len(source):
                raise UsageError(f"position {pos + offset + 1} past a source of {len(source)}")
            acc.add_term_mul(c, m - pos, source[pos + offset].packed)
    return acc.coeffs


def vector_key(v):
    """Total deterministic sort key of a vector under its order, term by
    term: a smaller key is a greater monomial, then a smaller coefficient
    sort key. The closing (1,) sorts after every (0, ...) term key, so a
    vector that is a prefix of another sorts after it."""
    sort_key, key = v.ambient.ring.sort_key, v.order.key
    return tuple([(0, key(m), sort_key(c)) for c, m in v.packed] + [(1,)])


def sort_basis(vectors):
    """Descending by leading term under the vectors' one order, the
    stable display and Schreyer-source order: by `vector_key`. When the
    vectors are nonzero and their pairs (key of LM, sort key of LC) are
    distinct, those first items of the vector keys decide alone."""
    vectors = list(vectors)  # read twice
    heads = []
    for v in vectors:
        if not v.packed:
            break
        c, m = v.packed[0]
        heads.append((v.order.key(m), v.ambient.ring.sort_key(c)))
    else:
        if len(set(heads)) == len(heads):
            return [v for _, v in sorted(zip(heads, vectors))]
    return sorted(vectors, key=vector_key)
