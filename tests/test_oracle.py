"""Differential checks of `buchberger` and `free_resolution` against
sympy, which shares no code with the package.

Over a prime Z/p the output is compared over GF(p), and over Z it is
compared over QQ (an ideal of Z[X] and its extension to QQ[X] have the
same generators). The basis and the input generators must give the same
reduced Groebner basis, and the basis's minimal leading monomials must
be those of sympy's reduced basis under the same lex order: every
element of the ideal over QQ has an integer multiple in the ideal over
Z, whose leading term the basis divides.

A resolution is a complex: every relation of level k, applied to the
elements of level k - 1, must vanish, over QQ for Z (an integer
polynomial is zero there exactly when it is zero over Z), modulo N for
Z/N, prime or not, over QQ for Z_(p), whose elements are fractions, and
for F2[y]/y^r over GF(2) in an extra variable y, modulo y^r.
"""

import random

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    TopLex,
    TruncatedF2y,
    buchberger,
    free_resolution,
)
from helpers import gens_of, problem, random_nonzero_vector

sympy = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7)
COMPOSITES = (4, 6, 12)


def as_expr(v, symbols):
    return sum(
        c * sympy.prod(x**e for x, e in zip(symbols, m.exps)) for c, m in v.terms
    )


def domain_of(ring):
    if isinstance(ring, TruncatedF2y):
        return {"modulus": 2}
    return {"modulus": ring.n} if isinstance(ring, IntegersMod) else {"domain": "QQ"}


def sympy_basis(vectors, ring, symbols, order):
    kwargs = domain_of(ring)
    exprs = [as_expr(v, symbols) for v in vectors]
    return sympy.groebner(exprs, *symbols, order=order, **kwargs)


def minimal(monos):
    monos = set(monos)
    return {
        m for m in monos
        if not any(n != m and all(a <= b for a, b in zip(n, m)) for n in monos)
    }


def assert_agrees_with_sympy(gens, order):
    ring = gens[0].ambient.ring
    symbols = sympy.symbols(f"x0:{gens[0].ambient.nvars}")
    gb = buchberger(gens, order)
    assert (
        sympy_basis(gb.elements, ring, symbols, "grevlex").exprs
        == sympy_basis(gens, ring, symbols, "grevlex").exprs
    )
    lex = sympy_basis(gens, ring, symbols, "lex")
    want = {p.monoms(order="lex")[0] for p in lex.polys}
    assert minimal(v.lm().exps for v in gb.elements) == want


def random_ideals(ring, seed, count):
    rng = random.Random(seed)
    amb = Ambient(ring, 2, 1)
    order = TopLex(2)
    for _ in range(count):
        gens = [
            random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
            for _ in range(rng.randrange(1, 4))
        ]
        yield gens, order


@pytest.mark.parametrize("p", PRIMES)
def test_buchberger_matches_sympy_over_prime_fields(p):
    for gens, order in random_ideals(IntegersMod(p), seed=p, count=8):
        assert_agrees_with_sympy(gens, order)


def test_buchberger_matches_sympy_over_the_rationals():
    prob = problem("zint_ideal")
    assert_agrees_with_sympy(gens_of(prob)[1], prob.order)
    for gens, order in random_ideals(Integers(), seed=11, count=16):
        assert_agrees_with_sympy(gens, order)


def coordinates(v, symbols):
    """The coordinates of a module vector v as sympy expressions; a Z_(p)
    coefficient, the pair (num, den), is the fraction num/den, and an
    F2[y]/y^r coefficient, a bit mask, is a polynomial in the symbol
    after the variables, y."""
    ring = v.ambient.ring
    out = [sympy.Integer(0)] * v.ambient.rank
    for c, m in v.terms:
        if isinstance(ring, IntegersLocalizedAt):
            c = sympy.Rational(*c)
        elif isinstance(ring, TruncatedF2y):
            y = symbols[len(m.exps)]
            c = sum(y**i for i in range(c.bit_length()) if c >> i & 1)
        out[m.pos] += c * sympy.prod(x**e for x, e in zip(symbols, m.exps))
    return out


def vanishes(value, symbols, ring):
    """Whether the sympy expression value is zero in the ring's
    polynomial ring; for F2[y]/y^r, once reduced modulo y^r."""
    poly = sympy.Poly(value, *symbols, **domain_of(ring))
    if isinstance(ring, TruncatedF2y):
        return all(m[-1] >= ring.r for m in poly.as_dict())
    return poly.is_zero


def assert_complex_in_sympy(res):
    ring = res.ambient.ring
    extra = 1 if isinstance(ring, TruncatedF2y) else 0
    symbols = sympy.symbols(f"x0:{res.ambient.nvars + extra}")
    for below, level in zip(res.levels, res.levels[1:]):
        images = [coordinates(g, symbols) for g in below.basis]
        for rel in level.basis:
            coeffs = coordinates(rel, symbols)
            assert len(coeffs) == len(images)
            for pos in range(below.basis[0].ambient.rank):
                value = sum(c * image[pos] for c, image in zip(coeffs, images))
                assert vanishes(value, symbols, ring)


def seeded_resolutions(ring, seed, count):
    rng = random.Random(seed)
    order = TopLex(2)
    for rank in (1, 2):
        amb = Ambient(ring, 2, rank)
        for _ in range(count):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                for _ in range(rng.randrange(1, 4))
            ]
            yield free_resolution(gens)


@pytest.mark.parametrize("key", ["zint_ideal", "z2_rank2", "z4_ideal", "z12_ideal", "zloc2_ideal",
                                 "f2y_spair"])
def test_golden_resolutions_are_complexes_in_sympy(key):
    res = free_resolution(gens_of(problem(key))[1])
    assert len(res.levels) > 1
    assert_complex_in_sympy(res)


@pytest.mark.parametrize("p", PRIMES)
def test_resolutions_are_complexes_in_sympy_over_prime_fields(p):
    resolutions = list(seeded_resolutions(IntegersMod(p), seed=40 + p, count=4))
    assert sum(len(res.levels) > 1 for res in resolutions) >= 4
    for res in resolutions:
        assert_complex_in_sympy(res)


@pytest.mark.parametrize("n", COMPOSITES)
def test_resolutions_are_complexes_in_sympy_over_composite_moduli(n):
    # sympy reduces modulo a composite N too; its Groebner bases over ZZ
    # are not strong bases, so only the complex is checked here
    resolutions = list(seeded_resolutions(IntegersMod(n), seed=60 + n, count=4))
    assert sum(len(res.levels) > 1 for res in resolutions) >= 4
    for res in resolutions:
        assert_complex_in_sympy(res)


@pytest.mark.parametrize("p", (2, 3))
def test_resolutions_are_complexes_in_sympy_over_local_rings(p):
    resolutions = list(seeded_resolutions(IntegersLocalizedAt(p), seed=80 + p, count=4))
    assert sum(len(res.levels) > 1 for res in resolutions) >= 4
    for res in resolutions:
        assert_complex_in_sympy(res)


def test_resolutions_are_complexes_in_sympy_over_the_integers():
    resolutions = list(seeded_resolutions(Integers(), seed=47, count=6))
    assert any(len(res.levels) > 2 for res in resolutions)
    for res in resolutions:
        assert_complex_in_sympy(res)


@pytest.mark.parametrize("r", (2, 3))
def test_resolutions_are_complexes_in_sympy_over_truncated_f2y(r):
    resolutions = list(seeded_resolutions(TruncatedF2y(r), seed=90 + r, count=4))
    assert sum(len(res.levels) > 1 for res in resolutions) >= 4
    for res in resolutions:
        assert_complex_in_sympy(res)
