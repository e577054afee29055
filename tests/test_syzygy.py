"""Term syzygies and Schreyer's syzygy algorithm."""

import random

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    Mono,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    apply_relation,
    buchberger,
    is_groebner,
    parse_problem,
    schreyer_syzygies,
    term_syzygies,
)
from gbsyz import groebner, syzygy
from gbsyz.poly import Accumulator
from helpers import (
    GOLDEN,
    gens_of,
    positive_part,
    problem,
    random_nonzero,
    random_nonzero_vector,
    reference_inner_label,
    rings_under_test,
    vec,
)


def rel(p, syz, polys):
    """Build a relation vector in syz's ambient from component strings."""
    amb = syz.relations[0].ambient
    terms = []
    for pos, text in enumerate(polys):
        poly = vec(p, text)
        for c, m in poly.terms:
            terms.append(Term(c, Mono(m.exps, pos)))
    return Vector(amb, syz.order, terms)


# -- term syzygies -----------------------------------------------------------


def test_term_syzygies_single_regular_term_empty():
    z = Integers()
    amb = Ambient(z, 2, 1)
    order = TopLex(2)
    syz = term_syzygies([Term(7, Mono((1, 0), 0))], amb, order)
    assert syz.relations == ()


def test_term_syzygies_duplicate_term_mod4():
    z4 = IntegersMod(4)
    amb = Ambient(z4, 2, 1)
    order = TopLex(2)
    t = Term(2, Mono((0, 1), 0))
    syz = term_syzygies([t, t], amb, order)
    got = {v for v in syz.relations}
    ramb = syz.relations[0].ambient
    expect = {
        Vector(ramb, syz.order, [Term(2, Mono((0, 0), 0))]),
        Vector(ramb, syz.order, [Term(1, Mono((0, 0), 0)), Term(3, Mono((0, 0), 1))]),
        Vector(ramb, syz.order, [Term(2, Mono((0, 0), 1))]),
    }
    assert got == expect


def test_term_syzygies_annihilate_and_complete_small():
    """Exhaustive kernel search over small instances reduces to zero."""
    import itertools

    z4 = IntegersMod(4)
    amb = Ambient(z4, 1, 1)
    order = TopLex(1)
    rng = random.Random(31)
    monos = [Mono((e,), 0) for e in range(2)]
    for _ in range(30):
        terms = [
            Term(random_nonzero(rng, z4), rng.choice(monos)) for _ in range(2)
        ]
        syz = term_syzygies(terms, amb, order)
        source = [Vector(amb, order, [t]) for t in terms]
        for r in syz.relations:
            assert apply_relation(r, source).is_zero()
        # every kernel tuple (q1, q2) with deg <= 1 reduces to zero
        ramb = Ambient(z4, 1, 2)
        coeff_space = list(itertools.product(range(4), repeat=2))
        from gbsyz import divide

        for c1 in coeff_space:
            for c2 in coeff_space:
                cand = Vector(
                    ramb,
                    syz.order,
                    [
                        Term(c1[0], Mono((0,), 0)),
                        Term(c1[1], Mono((1,), 0)),
                        Term(c2[0], Mono((0,), 1)),
                        Term(c2[1], Mono((1,), 1)),
                    ],
                )
                if cand.is_zero():
                    continue
                if apply_relation(cand, source).is_zero():
                    if syz.relations:
                        res = divide(cand, list(syz.relations))
                        assert res.remainder.is_zero()
                    else:
                        raise AssertionError("kernel element but no generators")


def test_term_syzygies_complete_two_vars():
    """n = 2 variant: all degree-<=1 kernel tuples reduce to zero."""
    import itertools

    from gbsyz import divide

    z4 = IntegersMod(4)
    amb = Ambient(z4, 2, 1)
    order = TopLex(2)
    rng = random.Random(37)
    monos = [Mono((0, 0), 0), Mono((1, 0), 0), Mono((0, 1), 0)]
    coeff_vectors = list(itertools.product(range(4), repeat=3))  # a + bY + cX
    for _ in range(4):
        terms = [Term(random_nonzero(rng, z4), rng.choice(monos)) for _ in range(2)]
        syz = term_syzygies(terms, amb, order)
        source = [Vector(amb, order, [t]) for t in terms]
        ramb = Ambient(z4, 2, 2)
        for c1 in coeff_vectors:
            for c2 in coeff_vectors:
                cand = Vector(
                    ramb,
                    syz.order,
                    [Term(c, Mono(m.exps, pos)) for pos, cs in ((0, c1), (1, c2))
                     for c, m in zip(cs, monos)],
                )
                if cand.is_zero() or not apply_relation(cand, source).is_zero():
                    continue
                assert syz.relations, "kernel element without generators"
                assert divide(cand, list(syz.relations)).remainder.is_zero()


def test_term_syzygies_z12_leading_terms():
    p = problem("z12_ideal")
    _, gens = gens_of(p)
    lts = [g.terms[0] for g in gens]
    syz = term_syzygies(lts, p.ambient, p.order)
    from gbsyz import format_lt_module

    assert (
        format_lt_module(list(syz.relations), p.var_names)
        == "<X^3, 3*X^2, 9>e1 (+) <3, 9>e2 (+) <4, 3>e3 (+) <4>e4"
    )


def test_term_syzygies_rejects_zero():
    z = Integers()
    amb = Ambient(z, 2, 1)
    with pytest.raises(UsageError):
        term_syzygies([Term(0, Mono((0, 0), 0))], amb, TopLex(2))


# -- Schreyer syzygies --------------------------------------------------------


def test_schreyer_zint_ideal_exact():
    p = problem("zint_ideal")
    labels, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    syz = schreyer_syzygies(gb, labels=labels)
    assert list(syz.labels) == ["u[1,2]", "u[1,3]", "u[2,3]"]
    assert syz.relations[0] == rel(p, syz, ["4*X^2 - 4", "-Y^2 + X - 3", "0"])
    assert syz.relations[1] == rel(p, syz, ["6*X + 6", "0", "-Y^2 + X - 3"])
    assert syz.relations[2] == rel(p, syz, ["0", "3", "-2*X + 2"])


def test_schreyer_z4_ideal_module_equal():
    p = problem("z4_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    syz = schreyer_syzygies(gb)
    reference = [
        rel(p, syz, ["X^3 - 1", "0", "-Y^4 + Y"]),  # u13
        rel(p, syz, ["2", "-Y^3 + 1", "0"]),  # u12
        rel(p, syz, ["0", "X^3 - 1", "-2*Y"]),  # u23
        rel(p, syz, ["0", "2", "0"]),  # u22
    ]
    from gbsyz import divide

    assert len(syz.relations) == 4
    assert rel(p, syz, ["0", "2", "0"]) in set(syz.relations)
    for v in reference:
        assert divide(v, list(syz.relations)).remainder.is_zero()
    for v in syz.relations:
        assert divide(v, reference).remainder.is_zero()


def test_schreyer_zloc2_ideal_exact():
    p = problem("zloc2_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    syz = schreyer_syzygies(gb)
    expect = {
        rel(p, syz, ["2", "-Y^3 + 1", "0"]),
        rel(p, syz, ["X^3 - 1", "0", "-Y^4 + Y"]),
        rel(p, syz, ["0", "X^3 - 1", "-2*Y"]),
    }
    assert set(syz.relations) == expect


def test_schreyer_requires_groebner_input():
    p = problem("z2_rank2")
    _, gens = gens_of(p)
    with pytest.raises(UsageError):
        schreyer_syzygies((gens, p.order))


def test_schreyer_rejects_an_order_other_than_its_elements():
    # the divisions run under the elements' own order: a Schreyer order
    # over another one gave relations that were no Groebner basis under it
    p = parse_problem("ring Z; vars Y X; rank 1; g1 = X*Y + Y^3; g2 = X^2 + Y;")
    gb = buchberger([v for _, v in p.generators], p.order)
    with pytest.raises(UsageError, match="^order differs from the vectors' monomial order$"):
        schreyer_syzygies((gb.elements, TopLex(2, (1, 0))))
    assert schreyer_syzygies((gb.elements, TopLex(2))).relations == schreyer_syzygies(gb).relations


def test_schreyer_divisions_are_the_groebner_check():
    # no separate criterion runs first: a (list, order) input raises
    # exactly when is_groebner rejects it, from the failing division
    rng = random.Random(17)
    seen = set()
    for ring in rings_under_test():
        amb, order = Ambient(ring, 2, 2), TopLex(2)
        for _ in range(25):
            gens = [random_nonzero_vector(rng, amb, order, 3, 2) for _ in range(rng.randint(1, 4))]
            groebner = is_groebner(gens)
            seen.add(groebner)
            if groebner:
                schreyer_syzygies((gens, order))
                continue
            with pytest.raises(UsageError, match="does not reduce to zero: not a Groebner basis"):
                schreyer_syzygies((gens, order))
    assert seen == {True, False}


def test_schreyer_divisions_write_into_the_lift(monkeypatch):
    # every division of Schreyer's method, on every level of every
    # golden resolution, adds its quotients into the pair's lift and
    # builds no per-divisor quotients: it runs the reduction loop with
    # the lift as its sink and never goes through `divide`
    from gbsyz import free_resolution

    reduce = groebner._reduce
    calls = []

    def recorded(work, index, lift, trace):
        calls.append(lift)
        return reduce(work, index, lift, trace)

    def forbidden(*args, **kwargs):
        raise AssertionError("Schreyer's method called divide")

    for key in GOLDEN:
        _, gens = gens_of(problem(key))
        for level in free_resolution(gens).levels:
            with monkeypatch.context() as m:
                m.setattr(groebner, "_reduce", recorded)
                m.setattr(groebner, "divide", forbidden)
                schreyer_syzygies((level.basis, level.order))
    assert calls
    assert all(type(lift) is Accumulator for lift in calls)


def _lt_formula_expected(ring, gi, gj, i, j):
    """LT(u_ij) predicted by the closed formulas, per backend family."""
    if i == j:
        b = ring.ann_gen(gi.lc())
        if ring.is_zero(b):
            return None
        return Term(ring.canonical(b), Mono(tuple([0] * gi.ambient.nvars), i))
    beta = positive_part(tuple(a - b for a, b in zip(gj.lm().exps, gi.lm().exps)))
    if ring.is_valuation_ring:
        a = ring.divides(gj.lc(), gi.lc())
        if a is not None:
            return Term(ring.one(), Mono(beta, i))
        b = ring.divides(gi.lc(), gj.lc())
        return Term(b, Mono(beta, i))
    if isinstance(ring, Integers):
        from math import gcd

        b = gj.lc() // gcd(gi.lc(), gj.lc())
        return Term(b, Mono(beta, i))
    if isinstance(ring, IntegersMod):
        from math import gcd

        b = (gj.lc() % ring.n) // gcd(gi.lc() % ring.n, gj.lc() % ring.n)
        return Term(b % ring.n, Mono(beta, i))
    raise AssertionError(ring)


def check_lt_formulas(gb, syz, ring):
    by_label = dict(zip(syz.labels, syz.relations))
    src = list(gb.elements)
    for i in range(len(src)):
        for j in range(i, len(src)):
            if src[i].lp() != src[j].lp():
                continue
            label = f"u[{i + 1},{j + 1}]"
            expect = _lt_formula_expected(ring, src[i], src[j], i, j)
            if label not in by_label:
                assert expect is None or by_label.keys()
                continue
            got = by_label[label].terms[0]
            assert expect is not None
            assert got.mono == expect.mono
            if i == j:
                assert ring.eq(ring.canonical(got.coeff), expect.coeff)
            else:
                assert ring.eq(got.coeff, expect.coeff)


def test_schreyer_relations_annihilate_and_lt_formulas():
    rng = random.Random(33)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        done = 0
        while done < 25:
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                for _ in range(2)
            ]
            gb = buchberger(gens, order)
            syz = schreyer_syzygies(gb)
            for r_ in syz.relations:
                assert apply_relation(r_, list(gb.elements)).is_zero()
            check_lt_formulas(gb, syz, ring)
            done += 1


def test_syzygy_basis_is_groebner_under_schreyer_order():
    rng = random.Random(34)
    for ring in [Integers(), IntegersMod(4), TruncatedF2y(2), IntegersLocalizedAt(2)]:
        amb = Ambient(ring, 2, 1)
        order = TopLex(2)
        for _ in range(6):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=2, max_exp=2)
                for _ in range(2)
            ]
            gb = buchberger(gens, order)
            syz = schreyer_syzygies(gb)
            if syz.relations:
                assert is_groebner(list(syz.relations))


INNER_LABEL_EDGES = (None, "", "u[]", "u[a]'*", "u[a]*'", "u[a]]''**", "xu[a]", "u[a\nb]",
                     "u[u[1,2];3]'")


def test_inner_label_matches_the_regular_expression():
    # the edges, then seeded labels over the characters that matter
    rng = random.Random(7)
    labels = list(INNER_LABEL_EDGES)
    for _ in range(3000):
        body = "".join(rng.choice("u[]'*,;g1\n ") for _ in range(rng.randrange(8)))
        labels += [body, f"u[{body}]" + "'" * rng.randrange(3) + "*" * rng.randrange(3)]
    assert {syzygy._inner_label(label, 4) for label in INNER_LABEL_EDGES} == {
        "5", "", "a", "a]", "u[1,2];3"}
    for k, label in enumerate(labels):
        assert syzygy._inner_label(label, k) == reference_inner_label(label, k), label
