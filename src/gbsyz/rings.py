"""Coefficient rings: Z, Z/N, F2[y]/(y^r), and Z localized at a prime p.

All four are coherent strict Bezout rings with a divisibility test.
Elements are plain Python values: an int for Z and Z/N, an r-bit mask
for F2[y]/(y^r), and a canonical pair (num, den) of ints for Z_(p).
Every operation goes through the ring object, so values from different
rings never mix silently.

Conventions fixed here, because the algorithms compare results "up to a
unit" and we need equality of normal forms:

* canonical associates: |a| over Z, gcd(a, N) over Z/N, y^k over
  F2[y]/(y^r), p^v over Z_(p);
* divides() returns the smallest canonical quotient when several exist;
* euclidean steps over Z minimize |e| and break ties toward e > 0;
* over the two valuation rings, division is trivial (c=0, e=a) unless
  the divisor divides exactly.
"""

from math import gcd

from .errors import InternalError, UsageError


def xgcd(a, b):
    """Extended gcd for nonnegative integers: returns (g, x, y) with x*a + y*b = g.

    When one argument divides the other the coefficients are (1, 0) or
    (0, 1); otherwise the classical iteration yields the minimal pair.
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    if b == 0:
        return a, 1, 0
    if a == 0:
        return b, 0, 1
    if b % a == 0:
        return a, 1, 0
    if a % b == 0:
        return b, 0, 1
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return g, x, y


# Miller-Rabin to these bases decides every n below _MR_BOUND (Sorenson
# and Webster 2015, *Strong pseudoprimes to twelve prime bases*)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Miller-Rabin to _MR_BASES. At or above _MR_BOUND a witness still
    proves n composite; a number that no base witnesses there has no
    fast exact verdict, so it is a `UsageError` naming the bound."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise UsageError(f"cannot decide whether {n} is prime: primality is decided only below {_MR_BOUND}")
    return True


class Ring:
    """Shared interface of the four coefficient-ring backends."""

    is_valuation_ring = False

    # -- plain arithmetic -------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def is_negative(self, a):
        """Whether a prints with a leading minus sign; only the ordered rings say yes."""
        return False

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, num, den):
        """Interpret a literal num/den, or raise UsageError if it has no meaning here."""
        if den == 0:
            raise UsageError("zero denominator")
        raise UsageError(f"fraction {num}/{den} is not a valid coefficient in {self}")

    # -- Bezout structure -------------------------------------------------

    def divides(self, a, b):
        """Return c with b = c*a if b lies in <a>, else None."""
        raise NotImplementedError

    def is_unit(self, a):
        return self.divides(a, self.one()) is not None

    def gcd_bezout(self, items):
        """Return (d, coeffs) with d = sum(c_i * a_i), d dividing every a_i.

        d is the canonical associate of the gcd; the empty list is a
        usage error (an empty divisible set is the caller's d = 0 case).
        """
        raise NotImplementedError

    def spair_cofactors(self, lc_f, lc_g):
        """Return (a, b) with b*lc_f = a*lc_g = lcm-like cancellation and gcd(a, b) = 1.

        The S-polynomial of f and g is b*X^beta*f - a*X^alpha*g.
        """
        raise NotImplementedError

    def ann_gen(self, a):
        """Return a canonical generator of Ann(a); 1 for a = 0, 0 when a is regular."""
        raise NotImplementedError

    def euclid_step(self, a, d):
        """Return (c, e) with a = c*d + e and e = 0 iff d divides a."""
        raise NotImplementedError

    def normalize_unit(self, a):
        """Return (u, a_canon) with a = u * a_canon and u a unit."""
        raise NotImplementedError

    def canonical(self, a):
        return self.normalize_unit(a)[1]

    def unit_inverse(self, u):
        inv = self.divides(u, self.one())
        if inv is None:
            raise InternalError(f"{self.format(u)} is not a unit in {self}")
        return inv

    # -- presentation ------------------------------------------------------

    def format(self, a):
        raise NotImplementedError

    def sort_key(self, a):
        """A deterministic total key on canonical element representations."""
        raise NotImplementedError

    def descriptor(self):
        """The DSL spelling of this ring (`ring <descriptor>;`)."""
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


class Integers(Ring):
    """The rational integers with exact arbitrary-precision arithmetic."""

    def __eq__(self, other):
        return type(other) is Integers

    def __hash__(self):
        return hash("Z")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_negative(self, a):
        return a < 0

    def from_int(self, n):
        return n

    def from_fraction(self, num, den):
        if den != 0 and num % den == 0:
            return num // den
        raise UsageError(f"{num}/{den} is not an integer coefficient")

    def divides(self, a, b):
        if a == 0:
            return 0 if b == 0 else None
        return b // a if b % a == 0 else None

    def gcd_bezout(self, items):
        if not items:
            raise UsageError("gcd_bezout of an empty list")
        d, coeffs = abs(items[0]), [1 if items[0] >= 0 else -1]
        for a in items[1:]:
            g, x, y = xgcd(d, abs(a))
            coeffs = [c * x for c in coeffs]
            coeffs.append(y if a >= 0 else -y)
            d = g
        return d, coeffs

    def spair_cofactors(self, lc_f, lc_g):
        if lc_f == 0 and lc_g == 0:
            raise UsageError("spair_cofactors(0, 0)")
        d = gcd(lc_f, lc_g)
        return lc_f // d, lc_g // d

    def ann_gen(self, a):
        return 1 if a == 0 else 0

    def euclid_step(self, a, d):
        if d == 0:
            return 0, a
        sign = 1 if d > 0 else -1
        ad = abs(d)
        c = a // ad
        e = a - c * ad
        # e in [0, ad); the balanced remainder may be smaller
        if abs(e - ad) < e:
            c, e = c + 1, e - ad
        return c * sign, e

    def normalize_unit(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    def format(self, a):
        return str(a)

    def sort_key(self, a):
        return (abs(a), -a)

    def descriptor(self):
        return "Z"


class IntegersMod(Ring):
    """Z/NZ with canonical representatives in [0, N-1]."""

    def __init__(self, n):
        if not isinstance(n, int) or n < 2:
            raise UsageError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n

    def __eq__(self, other):
        return type(other) is IntegersMod and other.n == self.n

    def __hash__(self):
        return hash(("Z/", self.n))

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def from_int(self, v):
        return v % self.n

    def from_fraction(self, num, den):
        inv = self.divides(den % self.n, self.one())
        if den == 0 or inv is None:
            raise UsageError(f"{num}/{den} is not a valid coefficient mod {self.n}")
        return (num * inv) % self.n

    def divides(self, a, b):
        a, b = a % self.n, b % self.n
        if a == 0:
            return 0 if b == 0 else None
        g = gcd(a, self.n)
        if b % g:
            return None
        m = self.n // g
        # smallest canonical solution of a*x = b (mod n)
        return (b // g) * pow(a // g, -1, m) % m

    def gcd_bezout(self, items):
        if not items:
            raise UsageError("gcd_bezout of an empty list")
        reps = [a % self.n for a in items]
        g, coeffs = reps[0], [1]
        for a in reps[1:]:
            g, x, y = xgcd(g, a)
            coeffs = [c * x for c in coeffs]
            coeffs.append(y)
        d, _s, t = xgcd(self.n, g)
        coeffs = [t * c % self.n for c in coeffs]
        if d == self.n:  # all entries were 0
            d = 0
        # smallest representative within c_i + <n / gcd(n, a_i)> keeps the sum
        out = []
        for c, a in zip(coeffs, reps):
            m = self.n // gcd(self.n, a) if a else 1
            out.append(c % m)
        return d % self.n, out

    def spair_cofactors(self, lc_f, lc_g):
        r1, r2 = lc_f % self.n, lc_g % self.n
        if r1 == 0 and r2 == 0:
            raise UsageError("spair_cofactors(0, 0)")
        g = gcd(r1, r2)
        return r1 // g, r2 // g

    def ann_gen(self, a):
        a = a % self.n
        if a == 0:
            return self.one()
        return (self.n // gcd(self.n, a)) % self.n

    def euclid_step(self, a, d):
        a, d = a % self.n, d % self.n
        if d == 0:
            return 0, a
        q = self.divides(d, a)
        if q is not None:
            return q, 0
        g = gcd(self.n, d)
        e = a % g
        c = self.divides(d, (a - e) % self.n)
        if c is None:
            raise InternalError(f"euclid_step({a}, {d}) in {self}: {d} does not divide {a} - {e}")
        return c, e

    def normalize_unit(self, a):
        a = a % self.n
        if a == 0:
            return self.one(), 0
        g = gcd(a, self.n)
        step = self.n // g
        u = (a // g) % step
        while gcd(u, self.n) != 1:
            u += step
        return u % self.n, g

    def format(self, a):
        return str(a % self.n)

    def sort_key(self, a):
        return a % self.n

    def descriptor(self):
        return f"Z/{self.n}"


class _ValuationRing(Ring):
    """What the two valuation rings share: the ideals form a chain, so of
    two elements one divides the other, and a gcd is the element of
    least valuation. A nonzero a is u * t^k with k = valuation(a), t the
    uniformizer and u a unit; subclasses give t^k (`_power`) and u
    (`_unit_part`)."""

    is_valuation_ring = True

    def gcd_bezout(self, items):
        if not items:
            raise UsageError("gcd_bezout of an empty list")
        vals = [(self.valuation(a), i) for i, a in enumerate(items) if not self.is_zero(a)]
        coeffs = [self.zero()] * len(items)
        if not vals:
            return self.zero(), coeffs
        v, i0 = min(vals)
        d = self._power(v)
        coeffs[i0] = self.divides(items[i0], d)
        return d, coeffs

    def euclid_step(self, a, d):
        q = self.divides(d, a)
        if q is not None:
            return q, self.zero()
        return self.zero(), a

    def normalize_unit(self, a):
        if self.is_zero(a):
            return self.one(), self.zero()
        k = self.valuation(a)
        return self._unit_part(a, k), self._power(k)

    def spair_cofactors(self, lc_f, lc_g):
        # one cofactor is exactly 1
        q = self.divides(lc_g, lc_f)
        if q is not None:
            return q, self.one()
        return self.one(), self.divides(lc_f, lc_g)


class TruncatedF2y(_ValuationRing):
    """F2[Y]/(Y^r), written F2[y]; elements are bit masks of length r.

    Bit i is the coefficient of y^i. A nonzero element factors uniquely
    as y^k * (1 + y*b) with the second factor a unit, so the ring is a
    zero-dimensional valuation ring with Ann(y^k) = <y^(r-k)>.
    """

    def __init__(self, r):
        if not isinstance(r, int) or r < 2:
            raise UsageError(f"truncation order must be an integer >= 2, got {r!r}")
        self.r = r
        self.mask = (1 << r) - 1

    def __eq__(self, other):
        return type(other) is TruncatedF2y and other.r == self.r

    def __hash__(self):
        return hash(("F2y", self.r))

    def zero(self):
        return 0

    def one(self):
        return 1

    def y(self):
        return 2

    def add(self, a, b):
        return (a ^ b) & self.mask

    def sub(self, a, b):
        return (a ^ b) & self.mask

    def mul(self, a, b):
        out = 0
        while b:
            low = b & -b
            out ^= a << (low.bit_length() - 1)
            b ^= low
        return out & self.mask

    def neg(self, a):
        return a & self.mask

    def is_zero(self, a):
        return a & self.mask == 0

    def from_int(self, v):
        return v % 2

    def valuation(self, a):
        if not a:
            raise InternalError(f"valuation of 0 in {self}")
        return (a & -a).bit_length() - 1

    def _power(self, k):
        return 1 << k

    def _unit_part(self, a, k):
        return (a & self.mask) >> k

    def _unit_inv(self, u):
        # invert 1 + y*b bit by bit
        if not u & 1:
            raise InternalError(f"{self.format(u)} is not a unit in {self}")
        x, prod = 1, u
        for i in range(1, self.r):
            if (prod >> i) & 1:
                x |= 1 << i
                prod ^= (u << i) & self.mask
        return x

    def divides(self, a, b):
        a, b = a & self.mask, b & self.mask
        if a == 0:
            return 0 if b == 0 else None
        if b == 0:
            return 0
        k, l = self.valuation(a), self.valuation(b)
        if k > l:
            return None
        q = self.mul(self._unit_inv(a >> k), b) >> k
        # quotient is determined mod y^(r-k); clear the free high bits
        return q & ((1 << (self.r - k)) - 1)

    def ann_gen(self, a):
        a &= self.mask
        if a == 0:
            return 1
        k = self.valuation(a)
        if k == 0:
            return 0
        return 1 << (self.r - k)

    def format(self, a):
        a &= self.mask
        if a == 0:
            return "0"
        parts = []
        for i in reversed(range(self.r)):
            if (a >> i) & 1:
                parts.append("1" if i == 0 else ("y" if i == 1 else f"y^{i}"))
        return " + ".join(parts)

    def sort_key(self, a):
        return a & self.mask

    def descriptor(self):
        return f"F2[y]/y^{self.r}"


class IntegersLocalizedAt(_ValuationRing):
    """Z localized at the prime p: the quotients a/s with p not dividing s.

    An element is a canonical pair (num, den) of ints: den > 0,
    gcd(num, den) == 1 and p does not divide den; zero is (0, 1). Equal
    elements are equal tuples, so == and hash need no normalisation.
    """

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise UsageError(f"localization requires a prime, got {p!r}")
        self.p = p

    def __eq__(self, other):
        return type(other) is IntegersLocalizedAt and other.p == self.p

    def __hash__(self):
        return hash(("Z_(p)", self.p))

    def zero(self):
        return 0, 1

    def one(self):
        return 1, 1

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        n, d = an * bd + bn * ad, ad * bd
        g = gcd(n, d)
        return n // g, d // g

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        # cross cancellation keeps the product reduced; a zero factor
        # cancels the other denominator and gives (0, 1)
        g, h = gcd(an, bd), gcd(bn, ad)
        return (an // g) * (bn // h), (ad // h) * (bd // g)

    def neg(self, a):
        return -a[0], a[1]

    def is_zero(self, a):
        return a[0] == 0

    def is_negative(self, a):
        return a[0] < 0

    def eq(self, a, b):
        return a == b

    def from_int(self, v):
        return v, 1

    def from_fraction(self, num, den):
        if den == 0:
            raise UsageError("zero denominator")
        g = gcd(num, den)
        a = (num // g, den // g) if den > 0 else (-num // g, -den // g)
        if a[1] % self.p == 0:
            raise UsageError(f"{self.format(a)} does not lie in Z localized at {self.p}")
        return a

    def valuation(self, a):
        num = a[0]
        if num == 0:
            raise InternalError(f"valuation of 0 in {self}")
        v = 0
        while num % self.p == 0:
            num //= self.p
            v += 1
        return v

    def _power(self, k):
        return self.p**k, 1

    def _unit_part(self, a, k):
        return a[0] // self.p**k, a[1]

    def divides(self, a, b):
        an, ad = a
        bn, bd = b
        if an == 0:
            return (0, 1) if bn == 0 else None
        if bn == 0:
            return 0, 1
        # b/a = (bn * ad) / (bd * an), reduced; it lies in the ring, that
        # is v(a) <= v(b), exactly when p does not divide its denominator
        g, h = gcd(bn, an), gcd(ad, bd)
        n, d = (bn // g) * (ad // h), (bd // h) * (an // g)
        if d % self.p == 0:
            return None
        return (n, d) if d > 0 else (-n, -d)

    def ann_gen(self, a):
        return (1, 1) if a[0] == 0 else (0, 1)

    def format(self, a):
        num, den = a
        return str(num) if den == 1 else f"{num}/{den}"

    def sort_key(self, a):
        return a

    def descriptor(self):
        return f"Z_({self.p})"
