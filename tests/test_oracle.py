"""Differential checks of `buchberger` against sympy, which shares no
code with the package.

Over a prime Z/p the output is compared over GF(p), and over Z it is
compared over QQ (an ideal of Z[X] and its extension to QQ[X] have the
same generators). The basis and the input generators must give the same
reduced Groebner basis, and the basis's minimal leading monomials must
be those of sympy's reduced basis under the same lex order: every
element of the ideal over QQ has an integer multiple in the ideal over
Z, whose leading term the basis divides.
"""

import random

import pytest

from gbsyz import Ambient, Integers, IntegersMod, TopLex, buchberger
from helpers import gens_of, problem, random_nonzero_vector

sympy = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7)


def as_expr(v, symbols):
    return sum(
        c * sympy.prod(x**e for x, e in zip(symbols, m.exps)) for c, m in v.terms
    )


def sympy_basis(vectors, ring, symbols, order):
    kwargs = {"modulus": ring.n} if isinstance(ring, IntegersMod) else {"domain": "QQ"}
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
