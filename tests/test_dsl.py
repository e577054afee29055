"""Problem-file parsing, diagnostics, and print/parse round-trips."""

import random
import re

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    ParseError,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    format_lt_module,
    format_vector,
    parse_problem,
    parse_vector_literal,
)
from gbsyz import dsl, poly
from gbsyz.dsl import order_from_names
from helpers import (
    GOLDEN,
    parse_in,
    problem,
    random_vector,
    reference_format_lt_module,
    reference_format_vector,
    reference_parse_problem,
    reference_parse_vector_literal,
    reference_tokenize,
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
    assert p.generators[0][1].lc() == p.ring.from_fraction(3, 5)
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


def test_duplicate_generator_name_after_thousands_of_generators():
    # the last of a few thousand generators repeats an earlier name: the
    # error and its position are those of the reference parser
    lines = ["ring Z; vars X;"] + [f"g{k} = X + {k};" for k in range(1, 4001)] + ["  g1234 = X;"]
    text = "\n".join(lines)
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    got = (exc.value.message, exc.value.line, exc.value.column)
    assert got == ("duplicate generator name 'g1234'", 4002, 3)
    with pytest.raises(ParseError) as exc:
        reference_parse_problem(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == got


def test_exponents_past_the_packed_field_are_parse_errors():
    # an exponent of 2^31 or more, by a literal, a product or a power,
    # is the input's fault: a ParseError at the operator or exponent
    top = (1 << (poly.EXP_BITS - 1)) - 1
    p = parse_problem(f"ring Z; vars X Y; g = X^{top} * Y^{top} - 1;")
    assert p.generators[0][1].lm().exps == (top, top)
    assert parse_problem(f"ring Z; vars X; g = (X - X)^{top + 1} + 1^{top + 1};").generators[0][1] == (
        parse_problem("ring Z; vars X; g = 1;").generators[0][1])
    for text, column in ((f"X^{top + 1}", 7), (f"X^{top} * X", 18), (f"(X + 1) * X^{top}", 13),
                         (f"(Y + X^{top // 2 + 1})^2", 24)):
        with pytest.raises(ParseError) as exc:
            parse_problem(f"ring Z; vars Y X;\ng = {text};")
        assert (exc.value.line, exc.value.column) == (2, column), text
        assert "exponent above" in exc.value.message


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


def test_memoised_printing_matches_the_decoded_reference():
    # the vectors of the round trip above, rank 1 and rank 3, under the
    # declared and the reversed priority, all printed through one memo
    rng = random.Random(77)
    for ring in rings_under_test():
        names = ("B", "A")
        texts = {}
        for rank in (1, 3):
            amb = Ambient(ring, 2, rank)
            for order in (TopLex(2), TopLex(2, (1, 0))):
                vectors = [random_vector(rng, amb, order, max_terms=5, max_exp=5) for _ in range(120)]
                for v in vectors:
                    assert format_vector(v, names, texts) == reference_format_vector(v, names)
                    assert format_vector(v, names) == reference_format_vector(v, names)
                nonzero = [v for v in vectors if not v.is_zero()]
                for elements in (nonzero, nonzero[:1], []):
                    assert (format_lt_module(elements, names, texts)
                            == format_lt_module(elements, names)
                            == reference_format_lt_module(elements, names))
        assert len(texts) == 2  # one memo per codec


def test_format_negative_and_unit_coefficients():
    p = problem("zint_ideal")
    assert format_vector(vec(p, "-Y + 1"), p.var_names) == "-Y + 1"
    assert format_vector(vec(p, "Y - 1"), p.var_names) == "Y - 1"
    assert format_vector(vec(p, "0"), p.var_names) == "0"
    f2 = problem("f2y_spair")
    g = vec(f2, "(1 + y)*X1 + y")
    assert format_vector(g, f2.var_names) == "(y + 1)*X1 + y"


def test_negative_coefficients_print_and_reparse_from_the_ring_sign():
    # the printer asks the ring for the sign: Z and Z_(p) write a leading
    # minus, and the text parses back to the same vector
    cases = [
        ("Z", "-3*X*Y - Y + 2"),
        ("Z_(5)", "-3/7*X*Y - 1/3*Y"),
        ("Z_(5)", "-X + 4/3*Y - 25/2"),
    ]
    for ring, text in cases:
        prob = parse_problem(f"ring {ring}; vars X Y; g = X;")
        v = parse_vector_literal(text, prob)
        printed = format_vector(v, prob.var_names)
        assert printed == text
        again = parse_vector_literal(printed, prob)
        assert again == v
        assert format_vector(again, prob.var_names) == printed
    z5 = IntegersLocalizedAt(5)
    assert z5.is_negative(z5.from_fraction(-3, 7)) and not z5.is_negative(z5.zero())
    assert Integers().is_negative(-1) and not IntegersMod(4).is_negative(3)


def test_zloc_literal_errors_keep_their_text_and_position():
    prob = parse_problem("ring Z_(2); vars X; g = X;")
    with pytest.raises(ParseError) as exc:
        parse_vector_literal("X +\n 1/0", prob)
    assert (exc.value.message, exc.value.line, exc.value.column) == ("zero denominator", 2, 2)
    with pytest.raises(ParseError) as exc:
        parse_vector_literal("X + 2/4", prob)
    assert exc.value.message == "1/2 does not lie in Z localized at 2"
    assert (exc.value.line, exc.value.column) == (1, 5)
    assert parse_vector_literal("0/4", prob).is_zero()
    assert parse_vector_literal("X + 0/4", prob) == parse_vector_literal("X", prob)


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
    product = dsl._product

    def size(value):
        return 1 if type(value) is tuple else len(value.coeffs)

    def counting_product(problem, a, b):
        pairs.append(size(a) * size(b))
        return product(problem, a, b)

    monkeypatch.setattr(dsl, "_product", counting_product)
    for k, expected in enumerate(([], [], [9], [9, 18], [9, 36])):
        pairs.clear()
        assert vec(p, f"(X + Y + 1)^{k}").terms == powers[k].terms
        assert pairs == expected


def _parse_outcome(parse, text, prob):
    """The terms of a parsed vector with their coefficient types, or the
    text and position of its ParseError."""
    try:
        v = parse(text, prob)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    assert v.order is prob.order and v.ambient == prob.ambient
    return ("value", [(c, type(c), m) for c, m in v.terms])


def _random_expression(rng, names, dens, depth):
    """An expression string over names; fractions take a denominator
    from dens, and rarely any denominator up to 12."""

    def atom(d):
        r = rng.random()
        if d > 0 and r < 0.25:
            return f"({expr(d - 1)})"
        if r < 0.45:
            n = rng.randrange(13)
            if rng.random() < 0.2:
                if rng.random() < 0.1:
                    return f"{n}/{rng.randrange(1, 13)}"
                if dens:
                    return f"{n}/{rng.choice(dens)}"
            return str(n)
        return rng.choice(names)

    def factor(d):
        a = atom(d)
        return f"{a}^{rng.randrange(4)}" if rng.random() < 0.25 else a

    def term(d):
        return "*".join(factor(d) for _ in range(rng.randrange(1, 4)))

    def expr(d):
        out = ("-" if rng.random() < 0.25 else "") + term(d)
        for _ in range(rng.randrange(4)):
            out += rng.choice((" + ", " - ")) + term(d)
        return out

    return expr(depth)


def _accepts_fraction(ring, num, den):
    try:
        ring.from_fraction(num, den)
    except UsageError:
        return False
    return True


PARSE_EDGES = [
    "((X - (Y + 1)) * -(Z))",  # unary minus only starts an expression
    "((X - (Y + 1)) * (-Z))",
    "-(-X)",
    "X^0",
    "(X + Y)^0 - 1",
    "0^0 + 0^2",
    "2*3",
    "2*3*X + 3*X*2 + 4",
    "X - X",
    "(X + Y)*(X - Y) - X^2 + Y^2",
    "1/3*X + 2/5",
    "1/5*(X + 1)^2",
    "[X, -X + Y^2, 0]",
]


def test_parser_matches_vector_reference():
    # values, term order and coefficient types of the accumulator parser
    # against the Vector-per-atom reference, over every test ring; an
    # expression that one rejects the other rejects at the same place
    rng = random.Random(2007)
    values = 0
    for ring in rings_under_test() + [TruncatedF2y(3), IntegersLocalizedAt(3)]:
        names = ["X", "Y", "Z"] + (["y"] if isinstance(ring, TruncatedF2y) else [])
        prob = parse_problem(f"ring {ring}; vars X Y Z; g = X;")
        texts = PARSE_EDGES + ["y*X + y^2 - (y + X)^2", "(1 + y)^3*(1 - y)"] * isinstance(ring, TruncatedF2y)
        dens = [d for d in range(1, 13) if _accepts_fraction(ring, 1, d)]
        texts = texts + [_random_expression(rng, names, dens, 2) for _ in range(60)]
        for text in texts:
            target = resized_problem(prob, 3) if text.startswith("[") else prob
            got = _parse_outcome(parse_vector_literal, text, target)
            assert got == _parse_outcome(reference_parse_vector_literal, text, target), (str(ring), text)
            values += got[0] == "value"
    assert values > 450


@pytest.mark.parametrize(
    "ring, text",
    [
        ("Z", "X + W"),  # unknown variable
        ("Z", "X^Y"),  # bad exponent
        ("Z", "X^-1"),
        ("Z", "(X + 1))"),  # unbalanced ')'
        ("Z", "[X, (Y]"),
        ("Z", "(X + 1"),
        ("Z", "X + "),
        ("Z", "X Y"),
        ("Z", "1/2*X"),
        ("Z/12", "1/3*X"),  # not invertible
        ("Z/12", "X + 1/0"),
        ("Z", "X; Y"),  # trailing input
        ("Z", "X +\n  Y $ 1"),  # unexpected character after a newline
        ("Z", "X # note\n\t+ Y\r\n  * ?"),
        ("F2[y]/y^2", "X^2 +\n\n   y/X"),
        ("Z", "[X, Y]"),  # rank mismatch
    ],
)
def test_parse_errors_match_reference(ring, text):
    prob = parse_problem(f"ring {ring}; vars X Y; g = X;")
    got = _parse_outcome(parse_vector_literal, text, prob)
    assert got[0] == "error"
    assert got == _parse_outcome(reference_parse_vector_literal, text, prob)


# Tokens for the mutations: every token class, keywords, a decimal digit
# outside ASCII, and characters that are not in the language.
MUTATION_TOKENS = [
    "X", "Y", "Z", "W", "y", "g1", "_t", "ring", "vars", "rank", "Z_", "F2",
    "0", "1", "2", "3", "5", "12", "\u0663",
    ";", "=", "+", "-", "*", "^", "/", "[", "]", "(", ")", ",",
    "$", "?", "\u00b2", "# note", "\n",
]
_MUTATION_SPAN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;=+\-*^/\[\](),]")


def _mutated(rng, text):
    """text after 1-3 single-token inserts, deletes or replaces, each at
    a token's span; an insert adds a space after the token or not."""
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in _MUTATION_SPAN.finditer(text)] or [(0, 0)]
        start, end = rng.choice(spans)
        op = rng.randrange(3)
        tok = rng.choice(MUTATION_TOKENS)
        if op == 0:
            text = text[:start] + text[end:]
        elif op == 1:
            text = text[:start] + tok + text[end:]
        else:
            text = text[:start] + tok + rng.choice(("", " ")) + text[start:]
    return text


def _problem_outcome(parse, text):
    """The header and the generators' packed terms, with coefficient
    types, of a parsed problem, or the text and position of its error."""
    try:
        p = parse(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    gens = [(name, v.ambient == p.ambient, [(c, type(c), m) for c, m in v.packed])
            for name, v in p.generators]
    return ("value", p.ring, p.var_names, p.rank, gens)


def _random_problem_texts(rng):
    """Problem texts over every test ring, with comments, blank lines
    and generators that the printer wrote."""
    texts = []
    for ring in rings_under_test() + [TruncatedF2y(3), IntegersLocalizedAt(3)]:
        for rank in (1, 2, 3):
            base = parse_problem(f"ring {ring.descriptor()}; vars Z Y X; rank {rank};")
            lines = [f"# {ring} rank {rank}", f"ring {ring.descriptor()};", "vars Z Y X;  # lex",
                     f"rank {rank};", ""]
            for k in range(rng.randint(1, 3)):
                v = random_vector(rng, base.ambient, base.order, max_terms=4, max_exp=3)
                lines.append(f"g{k + 1} = {format_vector(v, base.var_names)};")
            texts.append("\n".join(lines) + "\n")
    return texts


def test_parser_matches_frozen_reference_on_mutated_inputs():
    # seeded single-token mutations of golden and random problems and of
    # printed vectors: the values, or the error text and position, equal
    # those of the frozen Token-list reference
    rng = random.Random(1717)
    problems = list(GOLDEN.values()) + _random_problem_texts(rng)
    errors = 0
    for _ in range(2000):
        text = _mutated(rng, rng.choice(problems))
        got = _problem_outcome(parse_problem, text)
        assert got == _problem_outcome(reference_parse_problem, text), text
        errors += got[0] == "error"
    targets = []
    for text in problems:
        prob = parse_problem(text)
        targets += [(prob, format_vector(v, prob.var_names)) for _, v in prob.generators]
    for _ in range(1000):
        prob, literal = rng.choice(targets)
        text = _mutated(rng, literal)
        got = _parse_outcome(parse_vector_literal, text, prob)
        assert got == _parse_outcome(reference_parse_vector_literal, text, prob), text
        errors += got[0] == "error"
    assert errors >= 0.25 * 3000


def test_unexpected_character_wins_over_earlier_syntax_errors():
    for text, where in (("ring Q; vars X; $", (1, 17)), ("ring Z; vars X;\ng = X +;\n  ?", (3, 3)),
                        ("\u00b2", (1, 1))):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert exc.value.message.startswith("unexpected character")
        assert (exc.value.line, exc.value.column) == where
    prob = problem("zint_ideal")
    with pytest.raises(ParseError) as exc:
        parse_vector_literal("[X, ; Y $", prob)
    assert (exc.value.message, exc.value.line, exc.value.column) == ("unexpected character '$'", 1, 9)


def test_tokenizer_positions_match_reference():
    # token texts, then each token's position from the error-path helper,
    # the end of input included
    texts = list(GOLDEN.values()) + ["\n\n  ring Z; # c\n\tvars X;\r\n g = X  \n  + 1;\n", "", "  \n",
                                     "# only a comment", "g = X # c\n  ^\u0663 # end"]
    for text in texts:
        tokens = dsl.tokenize(text)
        got = [(tok, *dsl.token_position(text, k)) for k, tok in enumerate(tokens)]
        assert got == [(t.text, t.line, t.column) for t in reference_tokenize(text)], text


def test_parsing_builds_one_vector_per_generator(monkeypatch):
    # expressions evaluate in accumulators of packed monomials: no Vector
    # arithmetic, no normalisation of decoded terms, and one sort of the
    # packed terms per generator
    calls = []
    for name in ("add", "sub", "neg", "mul", "term_mul", "scale"):
        method = getattr(Vector, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(Vector, name, counted)
    normalize = poly._normalize

    def counted_normalize(*args):
        calls.append("_normalize")
        return normalize(*args)

    monkeypatch.setattr(poly, "_normalize", counted_normalize)
    from_coeffs = Vector.from_coeffs.__func__

    def counted_from_coeffs(cls, *args):
        calls.append("from_coeffs")
        return from_coeffs(cls, *args)

    monkeypatch.setattr(Vector, "from_coeffs", classmethod(counted_from_coeffs))
    for text in GOLDEN.values():
        calls.clear()
        prob = parse_problem(text)
        assert calls == ["from_coeffs"] * len(prob.generators)
    calls.clear()
    parse_in(prob, 3, "[3, -X - 2*(Y + 1)^2, -Y^2 + X - 3]")
    assert calls == ["from_coeffs"]


def test_comments_and_whitespace():
    p = parse_problem(
        """# a comment
        ring Z;  # inline comment
        vars X;
        g = X^2 - 1;
        """
    )
    assert p.generators[0][1].lm().exps == (2,)
