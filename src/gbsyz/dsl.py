"""The problem-file language and the matching printers.

Grammar (informally):

    ring <Z | Z/<N> | F2[y]/y^<r> | Z_(<p>)> ;
    vars <name> <name> ... ;          # first name is lex-greatest
    rank <m> ;                        # optional, default 1
    <name> = <vector> ;  ...          # named generators

A vector of rank 1 is a polynomial; otherwise `[p1, ..., pm]`.
Polynomials use + - * ^, integer (or fraction) literals, the declared
variables, and `y` for the F2[y]/(y^r) nilpotent. Everything printed by
`format_vector` re-parses to an equal value.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import PackedOverflow, ParseError, UsageError
from .poly import EXP_BITS, POSMASK, Accumulator, Ambient, TopLex, Vector, check_product
from .rings import Integers, IntegersLocalizedAt, IntegersMod, TruncatedF2y

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)|(?P<sym>[;=+\-*^/\[\](),])"
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the first character of the line
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "ws":
            # only whitespace spans lines: a comment stops before its newline
            chunk = m.group()
            if (nl := chunk.rfind("\n")) >= 0:
                line += chunk.count("\n")
                line_start = pos + nl + 1
        elif kind != "comment":
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class ProblemFile(NamedTuple):
    ring: object
    var_names: tuple
    rank: int
    order: TopLex
    ambient: Ambient
    poly_ambient: Ambient
    generators: tuple  # of (name, Vector)


class _Parser:
    """Recursive descent over a token list ending in an `eof` token.
    Polynomial expressions evaluate in the ambient of `problem`."""

    def __init__(self, tokens, problem=None):
        self.tokens = tokens
        self.i = 0
        self.problem = problem

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def accept(self, kind, text=None):
        tok = self.tokens[self.i]
        if tok.kind == kind and (text is None or tok.text == text):
            self.i += 1
            return tok
        return None

    # -- statements ---------------------------------------------------------

    def parse_problem(self):
        ring = None
        var_names = None
        rank = None
        raw_gens = []
        while self.peek().kind != "eof":
            head = self.expect("name")
            if head.text == "ring":
                if ring is not None:
                    self.fail("duplicate ring declaration", head)
                ring = self.parse_ring()
            elif head.text == "vars":
                if var_names is not None:
                    self.fail("duplicate vars declaration", head)
                var_names = self.parse_vars(ring)
            elif head.text == "rank":
                if rank is not None:
                    self.fail("duplicate rank declaration", head)
                tok = self.expect("int")
                rank = int(tok.text)
                if rank < 1:
                    self.fail("rank must be >= 1", tok)
            else:
                if ring is None:
                    self.fail("ring must be declared before generators", head)
                if var_names is None:
                    self.fail("vars must be declared before generators", head)
                if any(tok.text == head.text for tok, _ in raw_gens):
                    self.fail(f"duplicate generator name {head.text!r}", head)
                self.expect("sym", "=")
                raw_gens.append((head, self.parse_pending_vector()))
            self.expect("sym", ";")
        if ring is None:
            self.fail("missing ring declaration")
        if var_names is None:
            self.fail("missing vars declaration")
        rank = rank or 1
        order = TopLex(len(var_names))
        ambient = Ambient(ring, len(var_names), rank)
        poly_ambient = Ambient(ring, len(var_names), 1)
        problem = ProblemFile(ring, tuple(var_names), rank, order, ambient, poly_ambient, ())
        gens = []
        for head, pending in raw_gens:
            gens.append((head.text, _assemble_vector(problem, pending, head)))
        return problem._replace(generators=tuple(gens))

    def parse_ring(self):
        tok = self.expect("name")
        if tok.text == "Z":
            if self.accept("sym", "/"):
                n = self.expect("int")
                try:
                    return IntegersMod(int(n.text))
                except UsageError as exc:
                    self.fail(str(exc), n)
            return Integers()
        if tok.text == "Z_":
            self.expect("sym", "(")
            p = self.expect("int")
            self.expect("sym", ")")
            try:
                return IntegersLocalizedAt(int(p.text))
            except UsageError as exc:
                self.fail(str(exc), p)
        if tok.text == "F2":
            self.expect("sym", "[")
            y = self.expect("name")
            if y.text != "y":
                self.fail("expected 'y'", y)
            self.expect("sym", "]")
            self.expect("sym", "/")
            y = self.expect("name")
            if y.text != "y":
                self.fail("expected 'y'", y)
            self.expect("sym", "^")
            r = self.expect("int")
            try:
                return TruncatedF2y(int(r.text))
            except UsageError as exc:
                self.fail(str(exc), r)
        self.fail(f"unknown ring {tok.text!r}", tok)

    def parse_vars(self, ring):
        names = []
        while True:
            tok = self.peek()
            if tok.kind != "name":
                break
            if tok.text in ("ring", "vars", "rank"):
                self.fail(f"{tok.text!r} is a keyword", tok)
            if isinstance(ring, TruncatedF2y) and tok.text == "y":
                self.fail("'y' is reserved for the coefficient ring", tok)
            if tok.text in names:
                self.fail(f"duplicate variable {tok.text!r}", tok)
            names.append(self.next().text)
        if not names:
            self.fail("vars needs at least one variable name")
        return names

    def parse_pending_vector(self):
        """Collect tokens of a vector literal; evaluation waits for the ambient."""
        if self.accept("sym", "["):
            parts = [self.parse_expr_tokens(stop={",", "]"})]
            while self.accept("sym", ","):
                parts.append(self.parse_expr_tokens(stop={",", "]"}))
            self.expect("sym", "]")
            return parts
        return [self.parse_expr_tokens(stop={";"})]

    def parse_expr_tokens(self, stop):
        depth = 0
        toks = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                if toks and depth == 0:
                    return toks
                self.fail("unterminated expression", tok)
            if depth == 0 and tok.kind == "sym" and tok.text in stop:
                if not toks:
                    self.fail("empty expression", tok)
                return toks
            if tok.kind == "sym" and tok.text == "(":
                depth += 1
            elif tok.kind == "sym" and tok.text == ")":
                depth -= 1
                if depth < 0:
                    self.fail("unbalanced ')'", tok)
            toks.append(self.next())

    # -- polynomial expressions ---------------------------------------------

    def parse_polynomial(self):
        value = self.expr()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r}")
        return value

    def expr(self):
        ring = self.problem.ring
        negate = self.accept("sym", "-")
        value = self.term()
        if negate:
            if type(value) is tuple:
                value = (ring.neg(value[0]), value[1])
            else:
                coeffs = value.coeffs
                for m, c in coeffs.items():
                    coeffs[m] = ring.neg(c)
        tok = self.accept("sym", "+") or self.accept("sym", "-")
        if tok is None:
            return value
        acc = value if type(value) is Accumulator else _accumulator(self.problem, (value,))
        while tok is not None:
            rhs = _terms(self.term())
            if tok.text == "+":
                for c, m in rhs:
                    acc.add(c, m)
            else:
                for c, m in rhs:
                    acc.add(ring.neg(c), m)
            tok = self.accept("sym", "+") or self.accept("sym", "-")
        return acc

    def term(self):
        value = self.factor()
        while tok := self.accept("sym", "*"):
            rhs = self.factor()
            try:
                value = _product(self.problem, value, rhs)
            except PackedOverflow:
                self.fail(_TOO_LARGE, tok)
        return value

    def factor(self):
        value = self.atom()
        if self.accept("sym", "^"):
            e = self.next()
            if e.kind != "int":
                self.fail("exponent must be a nonnegative integer", e)
            try:
                value = _power(self.problem, value, int(e.text))
            except PackedOverflow:
                self.fail(_TOO_LARGE, e)
        return value

    def atom(self):
        problem = self.problem
        if self.accept("sym", "("):
            value = self.expr()
            close = self.next()
            if close.kind != "sym" or close.text != ")":
                self.fail("expected ')'", close)
            return value
        tok = self.next()
        if tok.kind == "int":
            if self.accept("sym", "/"):
                den = self.next()
                if den.kind != "int":
                    self.fail("expected integer denominator", den)
                try:
                    coeff = problem.ring.from_fraction(int(tok.text), int(den.text))
                except UsageError as exc:
                    raise ParseError(str(exc), tok.line, tok.column) from None
                return _constant(problem, coeff)
            return _constant(problem, problem.ring.from_int(int(tok.text)))
        if tok.kind == "name":
            if tok.text in problem.var_names:
                shift = problem.order.codec.shifts[problem.var_names.index(tok.text)]
                return problem.ring.one(), 1 << shift
            if tok.text == "y" and isinstance(problem.ring, TruncatedF2y):
                return _constant(problem, problem.ring.y())
            self.fail(f"unknown variable {tok.text!r}", tok)
        self.fail(f"unexpected {tok.text or 'end of input'!r}", tok)


_TOO_LARGE = f"exponent above {(1 << (EXP_BITS - 1)) - 1}"

# A polynomial expression evaluates to a nonzero single term, a tuple
# (coeff, packed monomial), or to an Accumulator that the evaluation
# owns (zero is an empty one); its monomials are packed by the problem
# order's codec at position 0 of `problem.poly_ambient`.


def _accumulator(problem, terms=()):
    return Accumulator(problem.poly_ambient, problem.order, terms)


def _terms(value):
    """The packed (coeff, mono) terms of an expression value."""
    if type(value) is tuple:
        return (value,)
    coeffs = value.coeffs
    return tuple(zip(coeffs.values(), coeffs.keys()))


def _assemble_vector(problem, pending, head):
    if len(pending) != problem.rank and not (problem.rank == 1 and len(pending) == 1):
        raise ParseError(
            f"generator {head.text!r} has {len(pending)} components, rank is {problem.rank}",
            head.line,
            head.column,
        )
    if problem.rank > POSMASK + 1:
        raise ParseError(f"rank above {POSMASK + 1}", head.line, head.column)
    coeffs = {}
    for pos, toks in enumerate(pending):
        eof = Token("eof", "", toks[-1].line, toks[-1].column)
        value = _Parser(toks + [eof], problem).parse_polynomial()
        for c, m in _terms(value):
            coeffs[m + pos] = c
    return Vector.from_coeffs(problem.ambient, problem.order, coeffs)


def _constant(problem, coeff):
    if problem.ring.is_zero(coeff):
        return _accumulator(problem)
    return coeff, 0


def _product(problem, a, b):
    """a * b for expression values: one ring product for two single
    terms, term products summed in a fresh accumulator otherwise."""
    if type(a) is tuple and type(b) is tuple:
        c = problem.ring.mul(a[0], b[0])
        if problem.ring.is_zero(c):
            return _accumulator(problem)
        return c, check_product(a[1] + b[1], problem.order.codec.guard)
    out = _accumulator(problem)
    b_terms = _terms(b)
    for c, m in _terms(a):
        out.add_term_mul(c, m, b_terms)
    return out


def _power(problem, value, e):
    """value^e by squaring, from the lowest set bit of e: no product
    with 1, and no square past the highest bit."""
    if e == 0:
        return _constant(problem, problem.ring.one())
    while not e & 1:
        value = _product(problem, value, value)
        e >>= 1
    out = value
    while e := e >> 1:
        value = _product(problem, value, value)
        if e & 1:
            out = _product(problem, out, value)
    return out


def parse_problem(text):
    return _Parser(tokenize(text)).parse_problem()


def parse_vector_literal(text, problem):
    """Parse a standalone vector in the context of a parsed problem."""
    parser = _Parser(tokenize(text))
    pending = parser.parse_pending_vector()
    parser.accept("sym", ";")
    if parser.peek().kind != "eof":
        parser.fail("trailing input after vector")
    head = Token("name", "<target>", 1, 1)
    return _assemble_vector(problem, pending, head)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def format_monomial(exps, names):
    factors = []
    for e, name in zip(exps, names):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def format_term(ring, coeff, exps, names):
    mono = format_monomial(exps, names)
    cs = ring.format(coeff)
    if not mono:
        return cs
    if cs == "1":
        return mono
    if any(ch in cs for ch in "+- "):
        cs = f"({cs})"
    return f"{cs}*{mono}"


def format_poly(ring, terms, names):
    """terms: iterable of (coeff, exps), already in display order."""
    pieces = []
    for coeff, exps in terms:
        if ring.is_negative(coeff):
            text = format_term(ring, ring.neg(coeff), exps, names)
            pieces.append(("-", text))
        else:
            pieces.append(("+", format_term(ring, coeff, exps, names)))
    if not pieces:
        return "0"
    sign, first = pieces[0]
    out = first if sign == "+" else f"-{first}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def format_vector(v, names):
    ring = v.ambient.ring
    exps = v.order.codec.exps
    if v.ambient.rank == 1:
        return format_poly(ring, [(c, exps(m)) for c, m in v.packed], names)
    comps = [[] for _ in range(v.ambient.rank)]
    for c, m in v.packed:
        comps[m & POSMASK].append((c, exps(m)))
    return "[" + ", ".join(format_poly(ring, terms, names) for terms in comps) + "]"


def format_lt_module(elements, names):
    """Leading terms grouped by position: `<gens>e1 (+) <gens>e2 ...`."""
    if not elements:
        return "<0>"
    by_pos = {}
    for v in elements:
        c, m = v.packed[0]
        by_pos.setdefault(m & POSMASK, []).append(
            format_term(v.ambient.ring, c, v.order.codec.exps(m), names)
        )
    rank = elements[0].ambient.rank
    parts = []
    for pos in sorted(by_pos):
        gens = ", ".join(by_pos[pos])
        if rank == 1:
            parts.append(f"<{gens}>")
        else:
            parts.append(f"<{gens}>e{pos + 1}")
    return " (+) ".join(parts)


def order_from_names(problem, names_spec):
    """Build a TopLex priority from a list like "Y,X" of the problem's vars."""
    wanted = [w for w in re.split(r"[\s,]+", names_spec.strip()) if w]
    if sorted(wanted) != sorted(problem.var_names):
        raise UsageError(
            f"order spec {names_spec!r} must be a permutation of {' '.join(problem.var_names)}"
        )
    priority = tuple(problem.var_names.index(w) for w in wanted)
    return TopLex(len(problem.var_names), priority)
