"""Coefficient-ring backends: arithmetic, divisibility, Bezout structure."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from gbsyz import (
    Integers,
    IntegersLocalizedAt,
    InternalError,
    IntegersMod,
    TruncatedF2y,
    UsageError,
    parse_problem,
)
from gbsyz.rings import _is_prime
from helpers import (
    ReferenceIntegersLocalizedAt,
    ReferenceTruncatedF2y,
    element_candidates,
    random_element,
    random_nonzero,
    rings_under_test,
)


@pytest.fixture
def z():
    return Integers()


@pytest.fixture
def z12():
    return IntegersMod(12)


@pytest.fixture
def f2y2():
    return TruncatedF2y(2)


@pytest.fixture
def z2loc():
    return IntegersLocalizedAt(2)


def test_descriptors_round_trip():
    for ring in rings_under_test():
        assert parse_problem(f"ring {ring.descriptor()}; vars X;").ring == ring


def test_constructor_validation():
    with pytest.raises(UsageError):
        IntegersMod(1)
    with pytest.raises(UsageError):
        TruncatedF2y(1)
    with pytest.raises(UsageError):
        IntegersLocalizedAt(4)  # not prime
    IntegersLocalizedAt(13)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division_and_sympy():
    # every n below 10^5 against trial division, then seeded 20- to
    # 80-bit n against sympy, strong pseudoprimes to the base 2 included
    for n in range(10**5):
        assert _is_prime(n) == _trial_division_is_prime(n), n
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for n in [2047, 3215031751, 3825123056546413051, 318665857834031151167461]:
        assert not _is_prime(n) and not sympy.isprime(n)
    for _ in range(3000):
        bits = rng.randint(20, 80)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert _is_prime(n) == sympy.isprime(n), n


def test_arithmetic_examples(z12, f2y2, z2loc):
    assert z12.add(9, 9) == 6
    y_plus_1 = 3
    assert f2y2.mul(y_plus_1, y_plus_1) == 1  # char 2 and y^2 = 0
    q = z2loc.from_fraction
    assert z2loc.add(q(3, 5), q(1, 5)) == q(4, 5)


def test_divides_examples(z, z12, f2y2):
    assert z.divides(4, 6) is None
    assert z.divides(2, 6) == 3
    # smallest canonical quotient: 9*3 = 27 = 3 (mod 12)
    assert z12.divides(9, 3) == 3
    assert f2y2.divides(2, 2) == 1  # y | y
    assert f2y2.divides(2, 1) is None  # y does not divide 1


def test_divides_zero_cases():
    for ring in rings_under_test():
        zero, one = ring.zero(), ring.one()
        assert ring.divides(zero, zero) is not None
        assert ring.divides(zero, one) is None
        assert ring.divides(one, zero) is not None


def test_divides_randomized():
    rng = random.Random(101)
    for ring in rings_under_test():
        for _ in range(10_000):
            a = random_element(rng, ring)
            b = random_element(rng, ring)
            c = ring.divides(a, b)
            if c is not None:
                assert ring.eq(ring.mul(c, a), b)


def _combine(ring, coeffs, items):
    """sum(c_i * a_i) in the ring."""
    total = ring.zero()
    for c, a in zip(coeffs, items):
        total = ring.add(total, ring.mul(c, a))
    return total


def test_gcd_bezout_examples(z, z12, z2loc):
    assert z.gcd_bezout([4, 6]) == (2, [-1, 1])
    assert z12.gcd_bezout([9]) == (3, [3])
    # <4/3, 6> = <2> in Z_(2); the stated d = 4 in the one-line example
    # contradicts "d divides every a_i" (4 does not divide 6 here)
    items = [z2loc.from_fraction(4, 3), z2loc.from_int(6)]
    d, coeffs = z2loc.gcd_bezout(items)
    assert d == z2loc.from_int(2)
    assert _combine(z2loc, coeffs, items) == d


def test_gcd_bezout_randomized():
    rng = random.Random(202)
    for ring in rings_under_test():
        for _ in range(400):
            items = [random_element(rng, ring) for _ in range(rng.randrange(1, 4))]
            d, coeffs = ring.gcd_bezout(items)
            total = ring.zero()
            for c, a in zip(coeffs, items):
                total = ring.add(total, ring.mul(c, a))
            assert ring.eq(total, d)
            for a in items:
                assert ring.divides(d, a) is not None
    with pytest.raises(UsageError):
        Integers().gcd_bezout([])


def test_spair_cofactors_examples(z, f2y2):
    assert z.spair_cofactors(4, 6) == (2, 3)
    assert z.spair_cofactors(-4, 6) == (-2, 3)
    assert IntegersMod(4).spair_cofactors(2, 2) == (1, 1)
    assert IntegersMod(12).spair_cofactors(9, 6) == (3, 2)
    # brute force over the 4-element ring gives c = (0, 1+y):
    # y*0 + (1+y)*(1+y) = 1, while (1, 1+y) would give 1 + y. The
    # valuation rings build S-pairs without a strict pair, so the case
    # runs on the reference
    d, b1p, b2p, c1, c2 = ReferenceTruncatedF2y(2).strict_pair(2, 3)
    assert (d, b1p, b2p) == (1, 2, 3)
    assert f2y2.eq(f2y2.add(f2y2.mul(c1, b1p), f2y2.mul(c2, b2p)), 1)


def test_spair_cofactors_randomized():
    # b * lc_f = a * lc_g with <a, b> the unit ideal: the strict Bezout
    # pair of the S-polynomial b X^beta f - a X^alpha g
    rng = random.Random(303)
    for ring in rings_under_test():
        for _ in range(400):
            b1 = random_element(rng, ring)
            b2 = random_element(rng, ring)
            if ring.is_zero(b1) and ring.is_zero(b2):
                continue
            a, b = ring.spair_cofactors(b1, b2)
            assert ring.eq(ring.mul(b, b1), ring.mul(a, b2))
            d, _ = ring.gcd_bezout([a, b])
            assert ring.is_unit(d)
    for ring in (Integers(), IntegersMod(12)):
        with pytest.raises(UsageError):
            ring.spair_cofactors(0, 0)


def test_ann_gen_examples(z, z12, f2y2):
    assert z12.ann_gen(9) == 4
    assert f2y2.ann_gen(2) == 2  # Ann(y) = <y>
    assert z.ann_gen(7) == 0
    for ring in rings_under_test():
        assert ring.eq(ring.ann_gen(ring.zero()), ring.one())


def test_ann_gen_exhaustive_small_rings():
    for ring in [IntegersMod(n) for n in (4, 6, 9, 12, 36)] + [
        TruncatedF2y(r) for r in (2, 3, 4)
    ]:
        for a in element_candidates(ring):
            ann = ring.ann_gen(a)
            assert ring.is_zero(ring.mul(a, ann))
            for x in element_candidates(ring):
                if ring.is_zero(ring.mul(a, x)):
                    assert ring.divides(ann, x) is not None
            # Ann(Ann(Ann(a))) = Ann(a) up to associates
            triple = ring.ann_gen(ring.ann_gen(ann))
            assert ring.eq(ring.canonical(triple), ring.canonical(ann))


def test_euclid_step_examples(z, z12, f2y2):
    assert z.euclid_step(7, 2) == (3, 1)  # |e| tie broken toward positive e
    assert z.euclid_step(4, 6) == (1, -2)
    assert z12.euclid_step(6, 3) == (2, 0)
    assert f2y2.euclid_step(1, 2) == (0, 1)  # trivial division, y does not divide 1


def test_euclid_step_contract():
    rng = random.Random(404)
    for ring in rings_under_test():
        for _ in range(600):
            a = random_element(rng, ring)
            d = random_element(rng, ring)
            c, e = ring.euclid_step(a, d)
            assert ring.eq(ring.add(ring.mul(c, d), e), a)
            assert ring.is_zero(e) == (ring.divides(d, a) is not None)


def test_normalize_unit_examples(z, z12, f2y2):
    assert z.normalize_unit(-6) == (-1, 6)
    assert z12.normalize_unit(9) == (7, 3)
    assert f2y2.normalize_unit(2) == (1, 2)
    f2y3 = TruncatedF2y(3)
    assert f2y3.normalize_unit(6) == (3, 2)  # y + y^2 = (1+y)*y


def test_normalize_unit_properties():
    rng = random.Random(505)
    for ring in rings_under_test():
        assert ring.normalize_unit(ring.zero())[1] == ring.zero()
        for _ in range(400):
            a = random_element(rng, ring)
            u, canon = ring.normalize_unit(a)
            assert ring.is_unit(u)
            assert ring.eq(ring.mul(u, canon), a)
    # associates share a canonical form (exhaustive on small rings)
    for ring in [IntegersMod(12), TruncatedF2y(3)]:
        for a in element_candidates(ring):
            for u in element_candidates(ring):
                if not ring.is_unit(u):
                    continue
                assert ring.eq(
                    ring.canonical(ring.mul(u, a)), ring.canonical(a)
                )


def test_localized_denominator_guard(z2loc):
    with pytest.raises(UsageError):
        z2loc.from_fraction(1, 2)
    assert z2loc.from_fraction(3, 5) == (3, 5)


def test_gcd_bezout_first_minimal_valuation(z2loc, f2y2):
    items = [z2loc.from_int(0), z2loc.from_int(6), z2loc.from_int(2)]
    d, coeffs = z2loc.gcd_bezout(items)
    assert d == z2loc.from_int(2) and coeffs[0] == z2loc.zero()
    assert _combine(z2loc, coeffs, items) == d
    d, coeffs = f2y2.gcd_bezout([0, 0])
    assert d == 0 and coeffs == [0, 0]


def test_unit_inverse():
    rng = random.Random(606)
    for ring in rings_under_test():
        for _ in range(200):
            a = random_nonzero(rng, ring)
            if ring.is_unit(a):
                inv = ring.unit_inverse(a)
                assert ring.eq(ring.mul(a, inv), ring.one())


def test_broken_preconditions_raise_internal_error(f2y2, z2loc):
    # checks that must survive `python -O`, unlike a bare assert
    with pytest.raises(InternalError):
        f2y2.valuation(0)
    with pytest.raises(InternalError):
        z2loc.valuation(z2loc.zero())
    with pytest.raises(InternalError):
        f2y2._unit_inv(0b10)


def _outcome(fn, *args):
    """fn(*args) as ("ok", value) or ("raise", exception type, text)."""
    try:
        return ("ok", fn(*args))
    except (UsageError, InternalError) as exc:
        return ("raise", type(exc), str(exc))


def _same_typed(got, want):
    """Equal values of equal Python types, element by element in tuples
    and lists."""
    if type(got) is not type(want):
        return False
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(_same_typed, got, want))
    return got == want


def _assert_valuation_methods_match(ring, ref, elements, pairs, triples):
    cases = [("normalize_unit", (a,)) for a in elements]
    cases += [("gcd_bezout", ([a],)) for a in elements] + [("gcd_bezout", ([],))]
    for a, b in pairs:
        cases += [("gcd_bezout", ([a, b],)), ("euclid_step", (a, b))]
    cases += [("gcd_bezout", (list(t),)) for t in triples]
    for name, args in cases:
        got = _outcome(getattr(ring, name), *args)
        want = _outcome(getattr(ref, name), *args)
        assert _same_typed(got, want), (ring, name, args, got, want)


def test_valuation_methods_match_per_ring_reference_f2y_exhaustive():
    # every element, pair and triple of F2[y]/y^r for r = 2..5
    for r in range(2, 6):
        elements = range(1 << r)
        pairs = [(a, b) for a in elements for b in elements]
        triples = [(a, b, c) for a, b in pairs for c in elements]
        _assert_valuation_methods_match(
            TruncatedF2y(r), ReferenceTruncatedF2y(r), elements, pairs, triples
        )


def _as_pairs(value):
    """value with every Fraction, in tuples and lists too, as (num, den)."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, (tuple, list)):
        return type(value)(map(_as_pairs, value))
    return value


def _is_canonical_pair(p, x):
    return (
        type(x) is tuple and len(x) == 2 and all(type(n) is int for n in x)
        and x[1] > 0 and gcd(*x) == 1 and x[1] % p != 0
    )


def _matches_oracle(p, got, want):
    """got equals want with each Fraction of want as a canonical pair:
    `Vector.__eq__`, `Vector.__hash__` and the label dicts of
    pseudo-reduction compare elements as plain tuples."""
    if isinstance(want, Fraction):
        return _is_canonical_pair(p, got) and got == _as_pairs(want)
    if type(got) is not type(want):
        return False
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(_matches_oracle(p, g, w) for g, w in zip(got, want))
    return got == want


UNARY = ("neg", "valuation", "normalize_unit", "unit_inverse", "ann_gen", "format", "sort_key")
BINARY = ("add", "mul", "eq", "divides", "euclid_step")


def test_valuation_methods_match_per_ring_reference_zloc_seeded():
    # every method on canonical pairs against the Fraction oracle, over
    # at least 10^3 seeded cases per method and prime
    rng = random.Random(77)
    for p in (2, 3, 5):
        ring, ref = IntegersLocalizedAt(p), ReferenceIntegersLocalizedAt(p)

        def draw():
            den = rng.choice([d for d in range(1, 30) if d % p])
            return Fraction(rng.randint(-9, 9) * p ** rng.randrange(4), den)

        elements = [Fraction(0)] + [draw() for _ in range(1000)]
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1500)]
        pairs += [(a, a) for a in elements[:20]]
        triples = [tuple(rng.choice(elements) for _ in range(3)) for _ in range(1500)]
        cases = [(name, (a,)) for a in elements for name in UNARY]
        cases += [("gcd_bezout", ([a],)) for a in elements] + [("gcd_bezout", ([],))]
        for a, b in pairs:
            cases += [(name, (a, b)) for name in BINARY]
            cases.append(("gcd_bezout", ([a, b],)))
            if a != 0 and b != 0:
                cases.append(("spair_cofactors", (a, b)))
        cases += [("gcd_bezout", (list(t),)) for t in triples]
        cases += [("from_fraction", (rng.randint(-40, 40), rng.randint(-40, 40)))
                  for _ in range(1000)]
        counts = Counter(name for name, _ in cases)
        assert min(counts.values()) >= 1000, counts
        for name, args in cases:
            got = _outcome(getattr(ring, name), *_as_pairs(args))
            want = _outcome(getattr(ref, name), *args)
            assert _matches_oracle(p, got, want), (ring, name, args, got, want)


def test_localized_divides_matches_the_reference_seeded():
    # divides decides membership from the reduced quotient's denominator
    # alone; the Fraction oracle decides it from the definition, on
    # zeros, negative numerators, valuations up to 5 and denominators of
    # up to 60 bits
    rng = random.Random(41)
    for p in (2, 3, 5, 7):
        ring, ref = IntegersLocalizedAt(p), ReferenceIntegersLocalizedAt(p)

        def draw():
            den = rng.choice([rng.randrange(1, 30), rng.getrandbits(60) | 1])
            while den % p == 0:
                den += 1
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 50) * p ** rng.randrange(6), den)

        elements = [Fraction(0)] + [draw() for _ in range(400)]
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(3000)]
        pairs += [(a, Fraction(0)) for a in elements[:20]] + [(Fraction(0), a) for a in elements[:20]]
        pairs += [(a, -a) for a in elements[:20]] + [(a, a * p) for a in elements[:20]]
        pairs += [(a * p, a) for a in elements[:20]]
        exact = 0
        for a, b in pairs:
            got = ring.divides(*_as_pairs((a, b)))
            want = ref.divides(a, b)
            assert _matches_oracle(p, got, want), (p, a, b, got, want)
            exact += want is not None
        assert 0.25 * len(pairs) < exact < 0.9 * len(pairs), (p, exact)


def _values_that_reach_vectors(ring, rng):
    """Seeded elements and every result of theirs that a Vector can hold."""
    seeds = [random_element(rng, ring) for _ in range(12)] + [ring.zero(), ring.one()]
    out = list(seeds) + [ring.from_int(n) for n in range(-13, 14)]
    for num in range(-6, 7):
        for den in range(1, 7):
            try:
                out.append(ring.from_fraction(num, den))
            except UsageError:
                pass
    for a in seeds:
        out += [ring.neg(a), *ring.normalize_unit(a), ring.canonical(a), ring.ann_gen(a)]
        if ring.is_unit(a):
            out.append(ring.unit_inverse(a))
        for b in seeds:
            out += [ring.add(a, b), ring.mul(a, b), *ring.euclid_step(a, b)]
            if (q := ring.divides(a, b)) is not None:
                out.append(q)
            if not (ring.is_zero(a) and ring.is_zero(b)):
                out += ring.spair_cofactors(a, b)
            d, coeffs = ring.gcd_bezout([a, b])
            out += [d, *coeffs]
    return out


def test_equal_elements_are_equal_python_values():
    # labels and memos key vectors by their packed terms, so ring
    # equality must be == on the values that reach a Vector, with equal
    # hashes
    rng = random.Random(59)
    rings = [Integers(), IntegersMod(7), IntegersMod(12), TruncatedF2y(3),
             IntegersLocalizedAt(2), IntegersLocalizedAt(3)]
    for ring in rings:
        values = _values_that_reach_vectors(ring, rng)
        first = {}
        for v in values:
            assert hash(first.setdefault(v, v)) == hash(v)
        distinct = list(first)
        for a in distinct:
            for b in distinct:
                assert ring.eq(a, b) == (a == b), (ring, a, b)
                assert ring.is_zero(ring.sub(a, b)) == (a == b), (ring, a, b)
