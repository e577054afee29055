"""The division algorithm and its valuation-ring variant."""

import random

import pytest

from gbsyz import (
    Ambient,
    Divisors,
    InternalError,
    TopLex,
    UsageError,
    divide,
    divide_valuation,
    expand_combination,
    parse_problem,
    term_module_member,
)
from gbsyz.poly import POSMASK, Accumulator
from helpers import (
    GOLDEN,
    gens_of,
    parse_in,
    problem,
    random_nonzero_vector,
    random_vector,
    reference_divide,
    reference_divide_valuation,
    rings_under_test,
    vec,
)


def check_contract(h, divisors, res):
    order = h.order
    recon = res.remainder
    if divisors:
        recon = recon.add(expand_combination(res.quotients, divisors))
    else:
        assert res.remainder == h
    assert recon == h, "reconstruction identity failed"
    if not h.is_zero():
        for q, d in zip(res.quotients, divisors):
            if q.is_zero():
                continue
            prod = tuple(a + b for a, b in zip(q.lm().exps, d.lm().exps))
            assert order.compare(h.lm(), type(d.lm())(prod, d.lm().pos)) >= 0
    ring = h.ambient.ring
    lts = [(d.lc(), d.lm()) for d in divisors]
    for t in res.remainder.terms:
        assert term_module_member(t, lts, ring) is None, "remainder term is reducible"


def test_divide_by_self():
    p = problem("zint_ideal")
    g = vec(p, "Y^2 - X + 3")
    res = divide(g, [g], p.order)
    assert res.remainder.is_zero()
    assert res.quotients[0] == vec(p, "1")


def test_divide_empty_divisors():
    p = problem("zint_ideal")
    h = vec(p, "Y^2 - X + 3")
    res = divide(h, [], p.order)
    assert res.remainder == h and res.quotients == ()


def test_divide_zint_ideal_golden():
    # S(g1,g2) = 4Y^2 - 4X^3 + 12X^2 divides out as 4*g1 + (-X+3)*g2
    p = problem("zint_ideal")
    _, gens = gens_of(p)
    h = vec(p, "4*Y^2 - 4*X^3 + 12*X^2")
    res = divide(h, gens, p.order)
    assert res.remainder.is_zero()
    assert [str_q for str_q in _fmt(res.quotients, p)] == ["4", "-X + 3", "0"]


def test_divide_z12_ideal_golden():
    p = problem("z12_ideal")
    _, gens = gens_of(p)
    h = vec(p, "3*X^2 + 6")
    res = divide(h, gens, p.order)
    assert res.remainder.is_zero()
    assert _fmt(res.quotients, p) == ["0", "0", "1", "2"]


def _fmt(quotients, p):
    from gbsyz import format_vector

    return [format_vector(q, p.var_names) for q in quotients]


def test_divide_zero_divisor_rejected():
    p = problem("zint_ideal")
    with pytest.raises(UsageError):
        divide(vec(p, "X"), [vec(p, "0")], p.order)


def test_divide_valuation_exact_divisor():
    p = problem("zloc2_ideal")
    _, gens = gens_of(p)
    h = vec(p, "2*Y")
    res = divide_valuation(h, gens, p.order)
    assert res.remainder.is_zero()
    assert _fmt(res.quotients, p) == ["0", "1", "0"]


def test_divide_valuation_f2y_case():
    # remainder terms are certified irreducible by the term-membership test
    p = problem("f2y_spair")
    _, gens = gens_of(p)
    h = vec(p, "X1^2 + y*X2")
    res = divide_valuation(h, gens, p.order)
    check_contract(h, gens, res)
    assert not res.remainder.is_zero()


def test_divide_valuation_requires_valuation_ring():
    p = problem("zint_ideal")
    with pytest.raises(UsageError):
        divide_valuation(vec(p, "X"), [vec(p, "X")], p.order)


def test_divide_valuation_position_mismatch():
    from gbsyz import parse_problem

    q = problem("zloc2_ideal")
    h = vec(q, "Y^4")
    res = divide_valuation(h, [vec(q, "X^3 - 1")], q.order)
    check_contract(h, [vec(q, "X^3 - 1")], res)
    assert res.remainder == h
    # divisor positions never match the dividend's: remainder is h itself
    p2 = parse_problem("ring Z_(2); vars Y X; rank 2; h = [Y + X, 0]; d = [0, X];")
    h2, d2 = [v for _, v in p2.generators]
    res2 = divide_valuation(h2, [d2], p2.order)
    assert res2.remainder == h2 and res2.quotients[0].is_zero()


def test_division_contract_randomized():
    rng = random.Random(42)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 3)
        order = TopLex(2)
        for _ in range(250):
            h = random_vector(rng, amb, order, max_terms=4, max_exp=4)
            divisors = [
                random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=3)
                for _ in range(rng.randrange(1, 4))
            ]
            res = divide(h, divisors, order)
            check_contract(h, divisors, res)
            if ring.is_valuation_ring:
                resv = divide_valuation(h, divisors, order)
                check_contract(h, divisors, resv)


def test_divide_and_valuation_agree_on_contract_not_output():
    # both satisfy the same postconditions, and over a valuation ring
    # they are the same division: equal quotients and remainder
    p = problem("f2y_spair")
    _, gens = gens_of(p)
    h = vec(p, "y*X2*X1 + X1^3 + y")
    a = divide(h, gens, p.order)
    b = divide_valuation(h, gens, p.order)
    check_contract(h, gens, a)
    check_contract(h, gens, b)
    assert b.remainder.terms == a.remainder.terms
    assert [q.terms for q in b.quotients] == [q.terms for q in a.quotients]


def test_members_reduce_to_zero_under_both_divisions():
    # over a valuation ring, a known module element has zero remainder
    # under the aggregating and the first-divisor division alike
    import random

    from gbsyz import buchberger, expand_combination

    rng = random.Random(404)
    p = problem("zloc2_ideal")
    _, gens = gens_of(p)
    gb = buchberger(gens, p.order).elements
    for _ in range(40):
        member = expand_combination(
            [random_vector(rng, gens[0].ambient._replace(rank=1), p.order, 2, 2) for _ in gb],
            list(gb),
        )
        assert divide(member, list(gb), p.order).remainder.is_zero()
        assert divide_valuation(member, list(gb), p.order).remainder.is_zero()


def _assert_same_division(h, divisors, order):
    """divide against the full-merge reference: identical terms and
    trace streams. On valuation rings divide_valuation gives the terms
    of the first-divisor reference and the trace stream of divide."""
    got_trace, want_trace = [], []
    got = divide(h, divisors, order, trace=got_trace.append)
    want = reference_divide(h, divisors, order, trace=want_trace.append)
    assert got.remainder.terms == want.remainder.terms
    assert [q.terms for q in got.quotients] == [q.terms for q in want.quotients]
    assert got_trace == want_trace
    if h.ambient.ring.is_valuation_ring:
        val_trace = []
        val = divide_valuation(h, divisors, order, trace=val_trace.append)
        ref = reference_divide_valuation(h, divisors, order)
        assert val.remainder.terms == ref.remainder.terms
        assert [q.terms for q in val.quotients] == [q.terms for q in ref.quotients]
        assert val_trace == want_trace
    _assert_same_kernel_paths(h, divisors, order)


def test_accumulator_matches_full_merge_on_golden_levels():
    # every S-pair of every resolution level, under TOP-lex and the
    # nested Schreyer orders, divided by its own level
    from gbsyz import free_resolution, s_poly

    for key in GOLDEN:
        _, gens = gens_of(problem(key))
        for level in free_resolution(gens).levels:
            basis = list(level.basis)
            for i in range(len(basis)):
                for j in range(i, len(basis)):
                    sp = s_poly(basis[i], basis[j], level.order).value
                    if not sp.is_zero():
                        _assert_same_division(sp, basis, level.order)
                        _assert_same_division(sp.add(basis[i]), basis[j:], level.order)


def test_accumulator_matches_full_merge_randomized():
    # rank 3 spreads up to six divisors over three positions
    rng = random.Random(2024)
    for rank, trials, max_divisors in ((2, 150, 4), (3, 100, 6)):
        for ring in rings_under_test():
            amb = Ambient(ring, 2, rank)
            order = TopLex(2, rng.choice([(0, 1), (1, 0)]))
            for _ in range(trials):
                h = random_vector(rng, amb, order, max_terms=5, max_exp=4)
                divisors = [
                    random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                    for _ in range(rng.randrange(1, max_divisors + 1))
                ]
                _assert_same_division(h, divisors, order)


def _assert_same_kernel_paths(h, divisors, order):
    """A Divisors grown one divisor at a time, as Buchberger's basis
    grows, equals one built at once. Untraced divide stops scanning at
    the first exactly dividing candidate and still gives the traced
    result."""
    ring = h.ambient.ring
    index = Divisors(divisors)
    grown = Divisors(divisors[:1])
    for d in divisors[1:]:
        grown.append(d)
    assert grown.by_pos == index.by_pos and grown.vectors == index.vectors
    fns = [divide, divide_valuation] if ring.is_valuation_ring else [divide]
    for fn in fns:
        want = fn(h, divisors, order, trace=lambda event: None)
        got = fn(h, divisors, order)
        assert got.remainder.terms == want.remainder.terms
        assert [q.terms for q in got.quotients] == [q.terms for q in want.quotients]


def test_division_errors_keep_their_text():
    # divisors are checked in list order, each for zero and then against h
    p = problem("zloc2_ideal")
    h, d, zero = vec(p, "X^2 + 1"), vec(p, "X"), vec(p, "0")
    rank2 = parse_in(p, 2, "[X, 1]")
    swapped = vec(p, "X", TopLex(2, (1, 0)))
    zero_text = "zero divisor in division"
    ambient_text = "vectors from different ambients"
    order_text = "vectors under different monomial orders"
    cases = [
        ([zero], zero_text),
        ([d, zero], zero_text),
        ([rank2], ambient_text),
        ([d, swapped], order_text),
        ([rank2, zero], ambient_text),
        ([zero, rank2], zero_text),
        ([d, swapped, zero], order_text),
        ([d, zero, swapped], zero_text),
    ]
    for divisors, text in cases:
        for fn in (divide, divide_valuation):
            with pytest.raises(UsageError, match=f"^{text}$"):
                fn(h, divisors, p.order)


def test_prepared_divisor_errors_keep_their_text():
    # a prepared set checks its divisors against its first one when it is
    # built or grown
    p = problem("zloc2_ideal")
    h, d, zero = vec(p, "X^2 + 1"), vec(p, "X"), vec(p, "0")
    rank2 = parse_in(p, 2, "[X, 1]")
    swapped = vec(p, "X", TopLex(2, (1, 0)))
    for divisors, text in (
        ([zero], "zero divisor in division"),
        ([d, zero], "zero divisor in division"),
        ([d, rank2], "vectors from different ambients"),
        ([d, swapped], "vectors under different monomial orders"),
    ):
        with pytest.raises(UsageError, match=f"^{text}$"):
            Divisors(divisors)
        index = Divisors(divisors[:1]) if divisors[0] is d else Divisors()
        with pytest.raises(UsageError, match=f"^{text}$"):
            index.append(divisors[-1])


def test_divisors_put_keeps_each_position_in_index_order():
    # after every replace and drop, each position lists exactly the live
    # divisors leading there, in ascending index order, as _lead_step
    # scans them
    rng = random.Random(15)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 3)
        order = TopLex(2)
        vectors = [random_nonzero_vector(rng, amb, order, 3, 2) for _ in range(8)]
        index = Divisors(vectors)
        for _ in range(40):
            j = rng.randrange(len(vectors))
            vectors[j] = None if rng.random() < 0.3 else random_nonzero_vector(rng, amb, order, 3, 2)
            index.put(j, vectors[j])
            assert index.vectors == vectors
            want = {}
            for k, v in enumerate(vectors):
                if v is not None:
                    lc, lm = v.packed[0]
                    want.setdefault(lm & POSMASK, []).append((k, lc, lm))
                assert index.packed[k] == (None if v is None else v.packed)
            assert {pos: b for pos, b in index.by_pos.items() if b} == want


ORDER_TEXT = "^order differs from the vectors' monomial order$"


def test_divide_rejects_an_order_other_than_the_vectors():
    # under Y > X the leading term of X*Y + Y^3 is Y^3, which divides Y^7:
    # dividing by the X > Y leading terms under it left such a remainder
    p = parse_problem("ring Z; vars X Y; rank 1; f = X*Y + Y^3; g = X^2 + Y;")
    divisors, h = [v for _, v in p.generators], vec(p, "X^3*Y + 1")
    with pytest.raises(UsageError, match=ORDER_TEXT):
        divide(h, divisors, TopLex(2, (1, 0)))
    assert divide(h, divisors, TopLex(2)) == divide(h, divisors)


def test_divide_valuation_rejects_an_order_other_than_the_vectors():
    p = parse_problem("ring Z_(2); vars X Y; rank 1; f = X*Y + Y^3; g = X^2 + Y;")
    divisors, h = [v for _, v in p.generators], vec(p, "X^3*Y + 1")
    with pytest.raises(UsageError, match=ORDER_TEXT):
        divide_valuation(h, divisors, TopLex(2, (1, 0)))
    assert divide_valuation(h, divisors, TopLex(2)) == divide_valuation(h, divisors)


def test_divisors_at_interleaved_positions():
    # the divisor index groups by leading position; candidates must still
    # be tried in ascending index order across the interleaved groups
    from gbsyz import parse_problem

    for ring, two in (("Z", "2"), ("Z/12", "2"), ("Z_(2)", "2"), ("F2[y]/y^3", "y")):
        p = parse_problem(
            f"ring {ring}; vars Y X; rank 3;"
            f" d1 = [{two}*X, 0, 1]; d2 = [0, Y, X]; d3 = [0, 0, {two}*X^2];"
            f" d4 = [{two}^2*Y, X, 0]; d5 = [0, {two}*Y^2, 0]; d6 = [0, 0, {two}*X^2 + X];"
            " d7 = [X*Y, 0, 0];"
        )
        divisors = [v for _, v in p.generators]
        assert [d.lp() for d in divisors] == [0, 1, 2, 0, 1, 2, 0]
        h = vec(p, f"[{two}^2*X*Y^2 + 3*X*Y + X, 3*Y^3 + X^2, X^3 + 3*X^2 + 7]")
        _assert_same_division(h, divisors, p.order)
        events = []
        divide(h, divisors, p.order, trace=events.append)
        steps = [e["divisors"] for e in events]
        assert any(len(js) > 1 for js in steps)
        assert all(js == sorted(js) for js in steps)



def test_divide_raises_when_a_step_keeps_its_leading_monomial(monkeypatch):
    # an accumulator that keeps a cancelled term at coefficient zero
    # leaves the step's leading monomial in place: without the guard the
    # division would take the same step forever
    add = Accumulator.add

    def keep_zero_sums(self, c, m):
        old = self.coeffs.get(m)
        add(self, c, m)
        if old is not None and m not in self.coeffs:
            self.coeffs[m] = self.ring.zero()

    p = problem("zint_ideal")
    h, divisors = vec(p, "X^2 + Y*X + 1"), [vec(p, "Y")]
    assert not divide(h, divisors).remainder.is_zero()
    monkeypatch.setattr(Accumulator, "add", keep_zero_sums)
    with pytest.raises(InternalError, match="left its leading monomial"):
        divide(h, divisors)
    with pytest.raises(InternalError):
        divide(h, divisors, trace=lambda event: None)
