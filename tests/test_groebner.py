"""S-polynomials, Buchberger's algorithm, pseudo-reduction, membership."""

import itertools
import random
from collections import Counter

import pytest

from gbsyz import (
    Ambient,
    GroebnerBasis,
    GuardExceeded,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    Mono,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    buchberger,
    divide,
    expand_combination,
    free_resolution,
    is_groebner,
    module_member,
    parse_problem,
    pseudo_reduce,
    s_poly,
    schreyer_syzygies,
    term_module_member,
    term_syzygies,
)
from gbsyz import groebner, syzygy
from gbsyz.poly import Schreyer
from helpers import (
    GOLDEN,
    element_candidates,
    gens_of,
    problem,
    random_element,
    random_nonzero,
    random_nonzero_vector,
    reference_buchberger,
    reference_certificate,
    reference_pseudo_reduce,
    reference_s_pairs,
    rings_under_test,
    vec,
)


# -- S-polynomials -----------------------------------------------------------


def test_spoly_f2y_golden():
    p = problem("f2y_spair")
    f = vec(p, "y*X2 + X1")
    g = vec(p, "y*X1 + y")
    assert s_poly(f, g).value == vec(p, "X1^2 + y*X2")
    assert s_poly(f, f).value == vec(p, "y*X1")
    assert s_poly(g, g).value == vec(p, "0")


def test_spoly_zint_golden():
    p = problem("zint_ideal")
    g2 = vec(p, "4*X^2 - 4")
    g3 = vec(p, "6*X + 6")
    sp = s_poly(g2, g3)
    assert sp.value == vec(p, "-12*X - 12")  # 3*g2 - 2X*g3
    assert sp.left_cofactor.coeff == 3 and sp.right_cofactor.coeff == 2


def test_spoly_position_mismatch_and_errors():
    p = problem("z2_rank2")
    u1 = vec(p, "[Y, X]")
    u3 = vec(p, "[0, X^2]")
    sp = s_poly(u1, u3)
    assert sp.kind == "zero" and sp.value.is_zero()
    with pytest.raises(UsageError):
        s_poly(u1, Vector.zero(p.ambient, p.order))


def test_spoly_lm_drop_invariant():
    rng = random.Random(21)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(300):
            f = random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
            g = random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
            if f.lp() != g.lp():
                continue
            sp = s_poly(f, g)
            if f == g or sp.value.is_zero():
                continue
            sup = Mono(
                tuple(max(a, b) for a, b in zip(f.lm().exps, g.lm().exps)), f.lp()
            )
            assert order.compare(sp.value.lm(), sup) < 0


def test_spoly_shift_equivariance():
    rng = random.Random(22)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(200):
            f = random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
            g = random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
            delta = tuple(rng.randrange(3) for _ in range(2))
            one = ring.one()
            sf = f.term_mul(one, delta)
            sg = g.term_mul(one, delta)
            lhs = s_poly(sf, sg).value
            rhs = s_poly(f, g).value.term_mul(one, delta)
            assert lhs == rhs


# -- Buchberger --------------------------------------------------------------


def test_buchberger_zint_ideal_fixes_input():
    p = problem("zint_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    assert list(gb.elements) == gens
    assert is_groebner(list(gb.elements))


def test_buchberger_z2_rank2_adds_one_element():
    p = problem("z2_rank2")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    assert list(gb.elements[:2]) == gens
    assert gb.elements[2] == vec(p, "[0, X^2]")
    assert len(gb.elements) == 3


def test_buchberger_z4_ideal_fixes_input():
    p = problem("z4_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    assert list(gb.elements) == gens
    # auto S-polynomial of 2Y vanishes: 2*(2Y) = 0 in Z/4
    g2 = gens[1]
    assert s_poly(g2, g2).value.is_zero()


def test_buchberger_rejects_zero_and_guard():
    p = problem("zint_ideal")
    with pytest.raises(UsageError):
        buchberger([Vector.zero(p.ambient, p.order)], p.order)
    _, gens = gens_of(p)
    p52 = problem("z2_rank2")
    _, gens52 = gens_of(p52)
    with pytest.raises(GuardExceeded):
        buchberger(gens52, p52.order, guard=2)


def test_is_groebner_examples():
    p = problem("z12_ideal")
    _, gens = gens_of(p)
    assert is_groebner(gens)
    p52 = problem("z2_rank2")
    _, gens52 = gens_of(p52)
    assert not is_groebner(gens52)  # missing X^2 e2
    pz = problem("zint_ideal")
    assert is_groebner([vec(pz, "Y^2 - X + 3")])


def test_buchberger_randomized_outputs_groebner():
    rng = random.Random(23)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(40):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                for _ in range(2)
            ]
            gb = buchberger(gens, order)
            assert is_groebner(list(gb.elements))
            for g in gens:
                assert divide(g, list(gb.elements)).remainder.is_zero()


# the ring descriptors of the benchmark corpus
BENCH_RINGS = ("Z", "Z/2", "Z/3", "Z/5", "Z/7", "Z/4", "Z/6", "Z/12",
               "F2[y]/y^2", "F2[y]/y^3", "Z_(2)", "Z_(3)")


def assert_same_certificate(got, want):
    assert list(got.pairs) == list(want.pairs)
    assert [lift.packed for lift in got.pairs.values()] == [lift.packed for lift in want.pairs.values()]
    assert got.unreduced == want.unreduced


def assert_certified_like_the_reference(source, order):
    # Schreyer's certificate (s_pairs with lifts) and is_groebner
    # (s_pairs without) against the per-pair loop, trace events included;
    # then without a trace, where a step stops at its first exact
    # candidate: certificates, and each pair's remainder terms
    sch = Schreyer(source, order)
    got_events, want_events = [], []
    got = syzygy._certify(source, sch, trace=got_events.append)
    want = reference_certificate(source, sch, trace=want_events.append)
    assert_same_certificate(got, want)
    assert got_events == want_events
    assert_same_certificate(syzygy._certify(source, sch), reference_certificate(source, sch))
    rests = [(i, j, rest) for i, j, _, rest in groebner.s_pairs(source)]
    assert rests == [(i, j, [] if res is None else list(res.remainder.packed))
                     for i, j, _, _, res in reference_s_pairs(source)]
    assert is_groebner(source) == (not want.unreduced)


def test_pair_loops_match_the_per_pair_reference():
    # Buchberger's loop and s_pairs reduce each pair on the prepared
    # index; the reference runs s_pair_indexed and divide per pair. Same
    # bases, trace events and certificates, with a trace and without: on
    # every level of the golden resolutions, and on seeded problems of
    # rank 1 and 2 over every ring of the benchmark corpus, for their
    # generators (not always a Groebner basis) and their bases
    problems = [gens_of(problem(key))[1] for key in GOLDEN]
    for key in GOLDEN:
        for level in free_resolution(gens_of(problem(key))[1]).levels:
            if level.certificate is not None:
                assert_same_certificate(
                    level.certificate,
                    reference_certificate(level.basis, Schreyer(level.basis, level.order)))
            assert_certified_like_the_reference(level.basis, level.order)
    rng = random.Random(41)
    for text in BENCH_RINGS:
        for rank in (1, 2):
            p = parse_problem(f"ring {text}; vars X Y; rank {rank};")
            for _ in range(8):
                problems.append([random_nonzero_vector(rng, p.ambient, p.order, 3, 2)
                                 for _ in range(rng.randint(2, 3))])
    kinds, unreduced = Counter(), 0
    for gens in problems:
        order = gens[0].order
        got_events, want_events = [], []
        gb = buchberger(gens, order, trace=got_events.append)
        want = reference_buchberger(gens, order, trace=want_events.append)
        assert [v.packed for v in gb.elements] == [v.packed for v in want.elements]
        assert got_events == want_events
        untraced = [v.packed for v in buchberger(gens, order).elements]
        assert untraced == [v.packed for v in reference_buchberger(gens, order).elements]
        kinds.update(e["kind"] for e in got_events if e["event"] == "pair")
        assert_certified_like_the_reference(tuple(gens), order)
        assert_certified_like_the_reference(gb.elements, order)
        unreduced += not is_groebner(gens)
    # every kind of pair and both outcomes of the criterion occurred
    assert set(kinds) == {"auto", "cross", "zero"} and unreduced


# -- pseudo-reduction --------------------------------------------------------


def test_pseudo_reduce_zint_syzygy_level():
    # the level-one reduction the worked example performs: u12 -> X*u13 - u12
    from gbsyz import schreyer_syzygies

    p = problem("zint_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    syz = schreyer_syzygies(gb)
    red = pseudo_reduce(GroebnerBasis(syz.relations, syz.order))
    names = p.var_names
    from gbsyz import format_lt_module

    assert format_lt_module(list(red.elements), names) == "<2*X^2, 6*X>e1 (+) <3>e2"
    amb = syz.relations[0].ambient
    expected = Vector(
        amb,
        syz.order,
        vec_terms(p, ["2*X^2 + 6*X + 4", "Y^2 - X + 3", "-Y^2*X + X^2 - 3*X"]),
    )
    assert red.elements[0] == expected


def vec_terms(p, polys):
    out = []
    for pos, text in enumerate(polys):
        poly = vec(p, text)
        for c, m in poly.terms:
            out.append(Term(c, Mono(m.exps, pos)))
    return out


def test_pseudo_reduce_keeps_reduced_basis():
    p = problem("zloc2_ideal")
    from gbsyz import schreyer_syzygies

    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    syz = schreyer_syzygies(gb)
    red = pseudo_reduce(GroebnerBasis(syz.relations, syz.order))
    assert set(red.elements) == set(syz.relations)


def test_pseudo_reduce_drops_duplicates():
    p = problem("zint_ideal")
    g = vec(p, "Y^2 - X + 3")
    red = pseudo_reduce(GroebnerBasis((g, g), p.order))
    assert list(red.elements) == [g]


def test_pseudo_reduce_rejects_every_zero_element():
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 1)
        order = TopLex(2)
        zero = Vector.zero(amb, order)
        g = Vector(amb, order, [Term(ring.one(), Mono((1, 0), 0))])
        for elements in ([zero], [zero, zero], [g, zero], [zero, g]):
            with pytest.raises(UsageError, match="^zero divisor in division$"):
                pseudo_reduce(GroebnerBasis(tuple(elements), order))


def test_pseudo_reduce_rejects_a_plain_list():
    p = problem("zint_ideal")
    g = vec(p, "Y^2 - X + 3")
    for plain in ([g], (g,), ([g], p.order)):
        with pytest.raises(UsageError, match="^pseudo_reduce needs a GroebnerBasis record$"):
            pseudo_reduce(plain)


def test_pseudo_reduce_rejects_an_order_other_than_its_elements():
    # the record's order is the result's: another order than the
    # elements' own gave a record whose elements were not under it
    p = parse_problem("ring Z; vars Y X; rank 1; g1 = X*Y + Y^3; g2 = X^2 + Y;")
    gb = buchberger([v for _, v in p.generators], p.order)
    with pytest.raises(UsageError, match="^order differs from the vectors' monomial order$"):
        pseudo_reduce(GroebnerBasis(gb.elements, TopLex(2, (1, 0))))
    assert pseudo_reduce(GroebnerBasis(gb.elements, TopLex(2))) == pseudo_reduce(gb)


def test_pseudo_reduce_prepares_one_divisors_per_pass(monkeypatch):
    # the passes are counted by the smallest guard that lets the
    # reduction finish; every pass must build one index, not one per
    # element
    for key in GOLDEN:
        p = problem(key)
        _, gens = gens_of(p)
        syz = schreyer_syzygies(buchberger(gens, p.order))
        passes = 1
        while True:
            try:
                pseudo_reduce(GroebnerBasis(syz.relations, syz.order), guard=passes)
                break
            except GuardExceeded:
                passes += 1
        built = []

        class Counted(groebner.Divisors):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(groebner, "Divisors", Counted)
            pseudo_reduce(GroebnerBasis(syz.relations, syz.order))
        assert len(built) == passes


def test_pseudo_reduce_preserves_module():
    rng = random.Random(24)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(25):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                for _ in range(2)
            ]
            gb = buchberger(gens, order)
            red = pseudo_reduce(gb)
            assert is_groebner(list(red.elements))
            # mutual reduction: same module both ways
            for v in gb.elements:
                assert divide(v, list(red.elements)).remainder.is_zero()
            for v in red.elements:
                assert divide(v, list(gb.elements)).remainder.is_zero()


def test_pseudo_reduce_leaves_its_own_output_alone(monkeypatch):
    # an exhausted basis is a fixed point: each element comes back as the
    # very same object, and none of them opens an accumulator
    from gbsyz import free_resolution

    made = []

    class Counted(groebner.Accumulator):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    bases = []
    for key in GOLDEN:
        _, gens = gens_of(problem(key))
        bases += [(level.basis, level.order) for level in free_resolution(gens).levels]
    rng = random.Random(31)
    for ring in rings_under_test():
        amb, order = Ambient(ring, 2, 2), TopLex(2)
        for _ in range(10):
            gens = [random_nonzero_vector(rng, amb, order, 3, 2) for _ in range(3)]
            bases.append((buchberger(gens, order).elements, order))
    for basis, order in bases:
        red = pseudo_reduce(GroebnerBasis(tuple(basis), order))
        with monkeypatch.context() as m:
            m.setattr(groebner, "Accumulator", Counted)
            again = pseudo_reduce(red)
        assert len(again.elements) == len(red.elements)
        assert all(a is b for a, b in zip(again.elements, red.elements))
    assert not made


def _assert_same_pseudo_reduction(elements, order, branches):
    """pseudo_reduce of the Groebner basis elements equals the
    whole-vector reference term for term, in the same order. The
    reference's steps are added to `branches` by kind."""
    gb = GroebnerBasis(tuple(elements), order)
    want = reference_pseudo_reduce(gb, branches=branches)
    got = pseudo_reduce(gb)
    assert [v.terms for v in got.elements] == [v.terms for v in want.elements]


def test_pseudo_reduce_matches_whole_vector_reference_on_golden_levels(monkeypatch):
    # the syzygy relations of every level, as free_resolution exhausts
    # them; the levels are built on the reference
    from gbsyz import free_resolution, syzygy

    for key in GOLDEN:
        _, gens = gens_of(problem(key))
        with monkeypatch.context() as m:
            m.setattr(syzygy, "pseudo_reduce", reference_pseudo_reduce)
            levels = free_resolution(gens).levels
        for level in levels:
            syz = schreyer_syzygies((level.basis, level.order))
            if syz.relations:
                _assert_same_pseudo_reduction(syz.relations, syz.order, Counter())


def test_pseudo_reduce_matches_whole_vector_reference_randomized():
    # Buchberger bases and their syzygy relations over the four rings;
    # the family must reach every kind of exhaustion step
    rng = random.Random(5)
    branches = Counter()
    for ring in (Integers(), IntegersMod(12), TruncatedF2y(3), IntegersLocalizedAt(2)):
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(12):
            gens = [random_nonzero_vector(rng, amb, order, 3, 2) for _ in range(3)]
            gb = buchberger(gens, order)
            _assert_same_pseudo_reduction(gb.elements, order, branches)
            syz = schreyer_syzygies(gb)
            if syz.relations:
                _assert_same_pseudo_reduction(syz.relations, syz.order, branches)
    kinds = ("exact", "bezout_exact", "associate_stop", "unit_c0", "extra")
    assert all(branches[k] > 0 for k in kinds), branches


# -- term-module membership --------------------------------------------------


def test_term_membership_examples():
    from gbsyz import Integers, IntegersMod

    z = Integers()
    target = Term(6, Mono((2, 1), 0))
    gens = [(4, Mono((2, 0), 0)), (10, Mono((1, 0), 0))]
    cert = term_module_member(target, gens, z)
    assert cert is not None
    total = 0
    for idx, coeff, gamma in cert.entries:
        assert tuple(a + b for a, b in zip(gens[idx][1].exps, gamma)) == (2, 1)
        total += coeff * gens[idx][0]
    assert total == 6
    # position mismatch
    assert term_module_member(Term(2, Mono((1, 0), 1)), [(4, Mono((1, 0), 0))], z) is None
    z12 = IntegersMod(12)
    cert = term_module_member(Term(6, Mono((0, 0), 0)), [(9, Mono((0, 0), 0))], z12)
    assert cert is not None


def brute_force_member(ring, target, gens, bound=10):
    b, tm = target
    divisible = []
    for c, m in gens:
        out = []
        ok = True
        for a, bb in zip(m.exps, tm.exps):
            if a > bb:
                ok = False
                break
            out.append(bb - a)
        if ok and m.pos == tm.pos:
            divisible.append(c)
    if not divisible:
        return False
    cands = element_candidates(ring, bound)
    for combo in itertools.product(cands, repeat=len(divisible)):
        total = ring.zero()
        for x, a in zip(combo, divisible):
            total = ring.add(total, ring.mul(x, a))
        if ring.eq(total, b):
            return True
    return False


def test_term_membership_against_oracle():
    rng = random.Random(25)
    for ring in rings_under_test():
        for _ in range(180):
            k = rng.randrange(1, 3)
            gens = [
                (random_nonzero(rng, ring), Mono((rng.randrange(3), rng.randrange(3)), rng.randrange(2)))
                for _ in range(k)
            ]
            target = Term(
                random_nonzero(rng, ring), Mono((rng.randrange(3), rng.randrange(3)), rng.randrange(2))
            )
            cert = term_module_member(target, gens, ring)
            if cert is not None:
                total = ring.zero()
                for idx, coeff, gamma in cert.entries:
                    assert all(
                        a + b == c
                        for a, b, c in zip(gens[idx][1].exps, gamma, target.mono.exps)
                    )
                    assert gens[idx][1].pos == target.mono.pos
                    total = ring.add(total, ring.mul(coeff, gens[idx][0]))
                assert ring.eq(total, target.coeff)
            else:
                assert not brute_force_member(ring, target, gens)


def test_module_member_examples():
    p = problem("zint_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order)
    q = module_member(vec(p, "12*X^2 - 12"), gb)
    assert q is not None
    assert expand_combination(q, list(gb.elements)) == vec(p, "12*X^2 - 12")
    assert module_member(vec(p, "1"), gb) is None
    assert module_member(gens[0], gb) is not None


# -- the leading-cancellation lemma ------------------------------------------


def test_cancelled_combinations_are_constant_spoly_combinations():
    """A combination of equal-LM vectors that drops in leading monomial is an
    R-linear combination of their S-polynomials (checked by bounded search)."""
    rng = random.Random(26)
    from gbsyz import Integers, IntegersLocalizedAt, IntegersMod, TruncatedF2y

    for ring in [Integers(), IntegersMod(4), IntegersMod(12), TruncatedF2y(2), IntegersLocalizedAt(2)]:
        amb = Ambient(ring, 2, 1)
        order = TopLex(2)
        checked = 0
        trials = 0
        while checked < 12 and trials < 200:
            trials += 1
            lm = Mono((rng.randrange(3), rng.randrange(3)), 0)
            fs = [_vec_with_lm(rng, ring, amb, order, lm) for _ in range(2)]
            syz = term_syzygies([f.terms[0] for f in fs], amb, order)
            if not syz.relations:
                continue
            rel = syz.relations[rng.randrange(len(syz.relations))]
            if any(any(m.exps) for _, m in rel.terms):
                continue
            v = Vector.zero(amb, order)
            for c, m in rel.terms:
                v = v.add(fs[m.pos].scale(c))
            if v.is_zero():
                continue
            assert order.compare(v.lm(), lm) < 0
            spolys = []
            for i in range(2):
                for j in range(i, 2):
                    sp = s_poly(fs[i], fs[j])
                    if not sp.value.is_zero():
                        spolys.append(sp.value)
            assert spolys, "cancellation without any nonzero S-polynomial"
            found = False
            for combo in itertools.product(element_candidates(ring, 8), repeat=len(spolys)):
                acc = Vector.zero(amb, order)
                for c, s in zip(combo, spolys):
                    acc = acc.add(s.scale(c))
                if acc == v:
                    found = True
                    break
            assert found
            checked += 1
        assert checked >= 8


def _vec_with_lm(rng, ring, amb, order, lm):
    terms = [Term(random_nonzero(rng, ring), lm)]
    for _ in range(rng.randrange(3)):
        exps = tuple(rng.randrange(e + 1) for e in lm.exps)
        m = Mono(exps, 0)
        if order.compare(m, lm) < 0:
            c = random_element(rng, ring)
            if not ring.is_zero(c):
                terms.append(Term(c, m))
    return Vector(amb, order, terms)


def _order_case():
    p = parse_problem("ring Z; vars X Y; rank 1; f = X*Y + Y^3; g = X^2 + Y;")
    return p, [v for _, v in p.generators], TopLex(2, (1, 0))


def test_buchberger_reorders_its_generators():
    # generators under another order used to raise "vectors under
    # different monomial orders" at the first nonzero remainder
    p, gens, swapped = _order_case()
    gb = buchberger(gens, swapped)
    reordered = buchberger([vec(p, t, swapped) for t in ("X*Y + Y^3", "X^2 + Y")], swapped)
    assert gb.order is swapped and all(v.order is swapped for v in gb.elements)
    assert gb.elements == reordered.elements
