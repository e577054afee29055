"""Problem-file parsing, diagnostics, and print/parse round-trips."""

import random

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    ParseError,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    format_vector,
    parse_problem,
    parse_vector_literal,
)
from gbsyz.dsl import order_from_names
from helpers import (
    parse_in,
    problem,
    random_vector,
    reference_vector_mul,
    resized_problem,
    rings_under_test,
    vec,
)


def test_parse_zint_ideal_header():
    p = problem("zint_ideal")
    assert p.ring == Integers()
    assert p.var_names == ("Y", "X")
    assert p.rank == 1
    assert [n for n, _ in p.generators] == ["g1", "g2", "g3"]
    g1 = p.generators[0][1]
    assert g1.lm().exps == (2, 0)  # Y^2 under vars (Y, X)


def test_parse_ring_forms():
    assert parse_problem("ring Z; vars X;").ring == Integers()
    assert parse_problem("ring Z/4; vars X;").ring == IntegersMod(4)
    assert parse_problem("ring F2[y]/y^3; vars X;").ring == TruncatedF2y(3)
    assert parse_problem("ring Z_(5); vars X;").ring == IntegersLocalizedAt(5)
    with pytest.raises(ParseError):
        parse_problem("ring Q; vars X;")
    with pytest.raises(ParseError):
        parse_problem("ring Z_(4); vars X;")  # not prime


def test_parse_coefficients_per_ring():
    p = parse_problem("ring Z/4; vars Y X; g2 = 2*Y;")
    assert p.generators[0][1].lc() == 2
    p = parse_problem("ring Z_(2); vars X; g = 3/5*X + 1/5;")
    from fractions import Fraction

    assert p.generators[0][1].lc() == Fraction(3, 5)
    p = parse_problem("ring F2[y]/y^2; vars X1; g = (1 + y)*X1 + y;")
    assert p.generators[0][1].lc() == 3


def test_parse_errors_report_positions():
    with pytest.raises(ParseError) as exc:
        parse_problem("ring Z; rank 2;\ng = [X, 0];")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_problem("ring Z; vars X;\ng = 1/2;")
    assert "1/2" in str(exc.value) or "integer" in str(exc.value)
    with pytest.raises(ParseError):
        parse_problem("ring Z; vars X X;")
    with pytest.raises(ParseError):
        parse_problem("ring Z; vars X; g = X; g = X;")
    with pytest.raises(ParseError):
        parse_problem("ring Z; vars X; rank 2; g = X;")  # rank mismatch
    with pytest.raises(ParseError):
        parse_problem("ring Z; vars X; g = X + ;")
    with pytest.raises(ParseError):
        parse_problem("ring F2[y]/y^2; vars y X;")  # y reserved


def test_vector_literals_and_rank():
    p = problem("z2_rank2")
    v = parse_vector_literal("[Y + X, X^2]", p)
    assert v.ambient.rank == 2
    with pytest.raises(ParseError):
        parse_vector_literal("[X, 0, 0]", p)
    single = problem("zint_ideal")
    assert parse_vector_literal("[Y]", single) == parse_vector_literal("Y", single)


def test_format_parse_round_trip_golden_generators():
    for key in ("f2y_spair", "z2_rank2", "zloc2_ideal", "z4_ideal", "zint_ideal", "z12_ideal"):
        p = problem(key)
        for _, v in p.generators:
            text = format_vector(v, p.var_names)
            assert parse_vector_literal(text, p) == v


def test_format_parse_round_trip_random():
    rng = random.Random(77)
    for ring in rings_under_test():
        desc = ring.descriptor()
        base = parse_problem(f"ring {desc}; vars B A; rank 3;")
        amb = Ambient(ring, 2, 3)
        for _ in range(120):
            v = random_vector(rng, amb, TopLex(2), max_terms=5, max_exp=5)
            text = format_vector(v, base.var_names)
            assert parse_in(base, 3, text) == v


def test_format_negative_and_unit_coefficients():
    p = problem("zint_ideal")
    assert format_vector(vec(p, "-Y + 1"), p.var_names) == "-Y + 1"
    assert format_vector(vec(p, "Y - 1"), p.var_names) == "Y - 1"
    assert format_vector(vec(p, "0"), p.var_names) == "0"
    f2 = problem("f2y_spair")
    g = vec(f2, "(1 + y)*X1 + y")
    assert format_vector(g, f2.var_names) == "(y + 1)*X1 + y"


def test_order_from_names():
    p = problem("zint_ideal")
    order = order_from_names(p, "X,Y")
    assert order.priority == (1, 0)
    with pytest.raises(UsageError):
        order_from_names(p, "X,Z")


def test_resized_problem_parses_relations():
    p = problem("zint_ideal")
    v = parse_in(p, 3, "[3, -X - 2, -Y^2 + X - 3]")
    assert v.ambient.rank == 3
    assert resized_problem(p, 3).rank == 3


def test_expression_edges():
    p = problem("zint_ideal")
    assert vec(p, "2^3") == vec(p, "8")
    assert vec(p, "(Y - 1)*(Y + 1)") == vec(p, "Y^2 - 1")
    assert vec(p, "(Y + X)^2") == vec(p, "Y^2 + 2*Y*X + X^2")
    z12 = parse_problem("ring Z/12; vars X; g = 1/5*X;")
    assert z12.generators[0][1].lc() == 5  # 5 is its own inverse mod 12
    with pytest.raises(ParseError):
        parse_problem("ring Z/12; vars X; g = 1/3*X;")  # 3 not invertible


def test_power_makes_no_wasted_products(monkeypatch):
    # square-and-multiply from the lowest set bit: no product with the
    # constant 1 and no square after the last bit; values are the
    # repeated products
    p = problem("zint_ideal")
    base = vec(p, "X + Y + 1")
    powers = [vec(p, "1"), base]
    for _ in range(3):
        powers.append(reference_vector_mul(powers[-1], base))
    pairs = []
    mul = Vector.mul

    def counting_mul(self, other):
        pairs.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    monkeypatch.setattr(Vector, "mul", counting_mul)
    for k, expected in enumerate(([], [], [9], [9, 18], [9, 36])):
        pairs.clear()
        assert vec(p, f"(X + Y + 1)^{k}").terms == powers[k].terms
        assert pairs == expected


def test_comments_and_whitespace():
    p = parse_problem(
        """# a comment
        ring Z;  # inline comment
        vars X;
        g = X^2 - 1;
        """
    )
    assert p.generators[0][1].lm().exps == (2,)
