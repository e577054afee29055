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

import re
from collections import namedtuple

from .errors import PackedOverflow, ParseError, UsageError
from .poly import EXP_BITS, POSMASK, Accumulator, Ambient, TopLex, Vector, check_product
from .rings import Integers, IntegersLocalizedAt, IntegersMod, TruncatedF2y

_SKIP = r"(?:\s+|#[^\n]*)*"  # whitespace and comments; only whitespace holds a newline
_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|\d+|[;=+\-*^/\[\](),]"  # name, int or symbol
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# the match ends at the first character outside the language
_VALID_RE = re.compile(rf"(?:{_TOKEN}|\s+|#[^\n]*)*")
_TOKEN_RE = re.compile(rf"{_SKIP}({_TOKEN}|\Z)")  # group 1: a token, or "" at the end of input


def tokenize(text):
    """The token texts of `text`, then "" for the end of input. A token
    is a name if it starts with an ASCII letter or `_`, an int if it
    starts with a decimal digit (`str.isdecimal`, exactly `\\d`), and
    a symbol otherwise."""
    if (pos := _VALID_RE.match(text).end()) < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_column(text, pos))
    tokens = _TOKEN_RE.findall(text)
    if tokens[-2:] == ["", ""]:  # after trailing whitespace or a comment, the end matches twice
        tokens.pop()
    return tokens


def _line_column(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def token_position(text, index):
    """(line, column) of token `index` of `text`, the end of input
    included, counted from 1. Positions are only needed for errors, so
    they are found again from the text."""
    matches = _TOKEN_RE.finditer(text)
    for _ in range(index):
        next(matches)
    return _line_column(text, next(matches).start(1))


# generators: a tuple of (name, Vector)
ProblemFile = namedtuple("ProblemFile", "ring var_names rank order ambient poly_ambient generators")


class _Parser:
    """Recursive descent over the token texts of `text`. The statement
    pass records each vector component as a (start, stop) span of
    tokens; `assemble` reads each span as a polynomial in the ambient of
    `problem`, with the end marker "" written over the token at stop.
    Errors name a token by its index; past the span being read, that is
    the span's last token."""

    def __init__(self, text, problem=None):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.last = len(self.tokens) - 1
        self.problem = problem

    def fail(self, message, i=None):
        i = self.i if i is None else i
        raise ParseError(message, *token_position(self.text, min(i, self.last))) from None

    def expect(self, want):
        """The next token, which must be the symbol `want`, or a name or an
        int when `want` is "name" or "int"."""
        tok = self.tokens[self.i]
        if ("name" if tok[:1] in _NAME_START else "int" if tok.isdecimal() else tok) != want:
            self.fail(f"expected {want!r}, found {tok or 'end of input'!r}")
        self.i += 1
        return tok

    def accept(self, text):
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    # -- statements ---------------------------------------------------------

    def parse_problem(self):
        ring = var_names = rank = None
        raw_gens = []  # of (name, index of the name, component spans)
        seen = set()
        while self.tokens[self.i]:
            at = self.i
            head = self.expect("name")
            if head == "ring":
                if ring is not None:
                    self.fail("duplicate ring declaration", at)
                ring = self.parse_ring()
            elif head == "vars":
                if var_names is not None:
                    self.fail("duplicate vars declaration", at)
                var_names = self.parse_vars(ring)
            elif head == "rank":
                if rank is not None:
                    self.fail("duplicate rank declaration", at)
                rank = int(self.expect("int"))
                if rank < 1:
                    self.fail("rank must be >= 1", self.i - 1)
            else:
                if ring is None:
                    self.fail("ring must be declared before generators", at)
                if var_names is None:
                    self.fail("vars must be declared before generators", at)
                if head in seen:
                    self.fail(f"duplicate generator name {head!r}", at)
                seen.add(head)
                self.expect("=")
                raw_gens.append((head, at, self.parse_pending_vector()))
            self.expect(";")
        if ring is None:
            self.fail("missing ring declaration")
        if var_names is None:
            self.fail("missing vars declaration")
        rank = rank or 1
        order = TopLex(len(var_names))
        ambient = Ambient(ring, len(var_names), rank)
        poly_ambient = Ambient(ring, len(var_names), 1)
        self.problem = ProblemFile(ring, tuple(var_names), rank, order, ambient, poly_ambient, ())
        gens = tuple((name, self.assemble(spans, name, at)) for name, at, spans in raw_gens)
        return self.problem._replace(generators=gens)

    def parse_ring(self):
        tok = self.expect("name")
        if tok == "Z":
            if self.accept("/"):
                n = self.expect("int")
                try:
                    return IntegersMod(int(n))
                except UsageError as exc:
                    self.fail(str(exc), self.i - 1)
            return Integers()
        if tok == "Z_":
            self.expect("(")
            p = self.expect("int")
            self.expect(")")
            try:
                return IntegersLocalizedAt(int(p))
            except UsageError as exc:
                self.fail(str(exc), self.i - 2)
        if tok == "F2":
            self.expect("[")
            if self.expect("name") != "y":
                self.fail("expected 'y'", self.i - 1)
            self.expect("]")
            self.expect("/")
            if self.expect("name") != "y":
                self.fail("expected 'y'", self.i - 1)
            self.expect("^")
            r = self.expect("int")
            try:
                return TruncatedF2y(int(r))
            except UsageError as exc:
                self.fail(str(exc), self.i - 1)
        self.fail(f"unknown ring {tok!r}", self.i - 1)

    def parse_vars(self, ring):
        names = []
        while (tok := self.tokens[self.i])[:1] in _NAME_START:
            if tok in ("ring", "vars", "rank"):
                self.fail(f"{tok!r} is a keyword")
            if isinstance(ring, TruncatedF2y) and tok == "y":
                self.fail("'y' is reserved for the coefficient ring")
            if tok in names:
                self.fail(f"duplicate variable {tok!r}")
            names.append(tok)
            self.i += 1
        if not names:
            self.fail("vars needs at least one variable name")
        return names

    def parse_pending_vector(self):
        """The component spans of a vector literal; evaluation waits for the ambient."""
        if self.accept("["):
            spans = [self.parse_span((",", "]"))]
            while self.accept(","):
                spans.append(self.parse_span((",", "]")))
            self.expect("]")
            return spans
        return [self.parse_span((";",))]

    def parse_span(self, stop):
        """The span of tokens up to a `stop` symbol outside parentheses,
        or up to the end of input."""
        tokens = self.tokens
        start = i = self.i
        depth = 0
        while True:
            tok = tokens[i]
            if not tok:
                if i > start and depth == 0:
                    break
                self.fail("unterminated expression", i)
            if depth == 0 and tok in stop:
                if i == start:
                    self.fail("empty expression", i)
                break
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth < 0:
                    self.fail("unbalanced ')'", i)
            i += 1
        self.i = i
        return start, i

    def assemble(self, spans, name, at):
        """The Vector of the component spans of generator `name`, whose
        name is token `at`; None for a target, reported at 1:1."""
        problem = self.problem
        message = None
        if len(spans) != problem.rank and not (problem.rank == 1 and len(spans) == 1):
            message = f"generator {name!r} has {len(spans)} components, rank is {problem.rank}"
        elif problem.rank > POSMASK + 1:
            message = f"rank above {POSMASK + 1}"
        if message is not None:
            raise ParseError(message, *((1, 1) if at is None else token_position(self.text, at)))
        self.monos = dict(zip(problem.var_names, (1 << s for s in problem.order.codec.shifts)))
        coeffs = {}
        for pos, (start, stop) in enumerate(spans):
            self.tokens[stop] = ""
            self.i, self.last = start, stop - 1
            value = self.expr()
            if tok := self.tokens[self.i]:
                self.fail(f"unexpected {tok!r}")
            for c, m in _terms(value):
                coeffs[m + pos] = c
        return Vector.from_coeffs(problem.ambient, problem.order, coeffs)

    # -- polynomial expressions ---------------------------------------------

    def expr(self):
        ring = self.problem.ring
        negate = self.accept("-")
        value = self.term()
        if negate:
            if type(value) is tuple:
                value = (ring.neg(value[0]), value[1])
            else:
                coeffs = value.coeffs
                for m, c in coeffs.items():
                    coeffs[m] = ring.neg(c)
        op = self.tokens[self.i]
        if op != "+" and op != "-":
            return value
        acc = value if type(value) is Accumulator else _accumulator(self.problem, (value,))
        while op == "+" or op == "-":
            self.i += 1
            rhs = _terms(self.term())
            if op == "+":
                for c, m in rhs:
                    acc.add(c, m)
            else:
                for c, m in rhs:
                    acc.add(ring.neg(c), m)
            op = self.tokens[self.i]
        return acc

    def term(self):
        value = self.factor()
        while self.tokens[self.i] == "*":
            at = self.i
            self.i += 1
            rhs = self.factor()
            try:
                value = _product(self.problem, value, rhs)
            except PackedOverflow:
                self.fail(_TOO_LARGE, at)
        return value

    def factor(self):
        value = self.atom()
        if self.accept("^"):
            if not (e := self.tokens[self.i]).isdecimal():
                self.fail("exponent must be a nonnegative integer")
            self.i += 1
            try:
                value = _power(self.problem, value, int(e))
            except PackedOverflow:
                self.fail(_TOO_LARGE, self.i - 1)
        return value

    def atom(self):
        problem = self.problem
        tokens = self.tokens
        at = self.i
        tok = tokens[at]
        self.i = at + 1
        if (mono := self.monos.get(tok)) is not None:
            return problem.ring.one(), mono
        if tok == "(":
            value = self.expr()
            if tokens[self.i] != ")":
                self.fail("expected ')'")
            self.i += 1
            return value
        if tok.isdecimal():
            if self.accept("/"):
                if not (den := tokens[self.i]).isdecimal():
                    self.fail("expected integer denominator")
                self.i += 1
                try:
                    coeff = problem.ring.from_fraction(int(tok), int(den))
                except UsageError as exc:
                    self.fail(str(exc), at)
                return _constant(problem, coeff)
            return _constant(problem, problem.ring.from_int(int(tok)))
        if tok == "y" and isinstance(problem.ring, TruncatedF2y):
            return _constant(problem, problem.ring.y())
        if tok[:1] in _NAME_START:
            self.fail(f"unknown variable {tok!r}", at)
        self.fail(f"unexpected {tok or 'end of input'!r}", at)


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
    return _Parser(text).parse_problem()


def parse_vector_literal(text, problem):
    """Parse a standalone vector in the context of a parsed problem."""
    parser = _Parser(text, problem)
    spans = parser.parse_pending_vector()
    parser.accept(";")
    if parser.tokens[parser.i]:
        parser.fail("trailing input after vector")
    return parser.assemble(spans, "<target>", None)


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


def _with_coefficient(cs, mono):
    """The text of a term from the texts of its coefficient and monomial:
    the monomial alone for a coefficient "1", and the coefficient in
    parentheses when it holds a sign or a space."""
    if not mono:
        return cs
    if cs == "1":
        return mono
    if "+" in cs or "-" in cs or " " in cs:
        cs = f"({cs})"
    return f"{cs}*{mono}"


def format_poly(ring, terms, names):
    """terms: iterable of (coeff, exps), already in display order."""
    return _signed_sum(ring, [(c, format_monomial(exps, names)) for c, exps in terms])


def _signed_sum(ring, terms):
    """The polynomial text of (coeff, monomial text) pairs in display order."""
    if not terms:
        return "0"
    out = []
    for c, mono in terms:
        if ring.is_negative(c):
            out.append(" - " + _with_coefficient(ring.format(ring.neg(c)), mono))
        else:
            out.append(" + " + _with_coefficient(ring.format(c), mono))
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


# The printers below read packed terms. Their `texts` dict, owned by the
# caller, maps (codec, names) to a memo from a packed monomial at
# position 0 to its text, so one dict serves vectors under several
# orders. Pass one dict to every call that should share the memo, or
# None for a memo that lives for one call.


def _monomial_texts(texts, codec, names):
    """The memo of `texts` for codec and names, made on first use."""
    if texts is None:
        return {}
    key = codec, tuple(names)
    memo = texts.get(key)
    if memo is None:
        memo = texts[key] = {}
    return memo


def _monomial_text(m, memo, codec, names):
    """The text of the packed monomial m, its position stripped."""
    m -= m & POSMASK
    text = memo.get(m)
    if text is None:
        text = memo[m] = format_monomial(codec.exps(m), names)
    return text


def format_vector(v, names, texts=None):
    """The DSL text of v; monomial texts are kept in `texts` (see above)."""
    ring, codec = v.ambient.ring, v.order.codec
    memo = _monomial_texts(texts, codec, names)
    if v.ambient.rank == 1:
        return _signed_sum(ring, [(c, _monomial_text(m, memo, codec, names)) for c, m in v.packed])
    comps = [[] for _ in range(v.ambient.rank)]
    for c, m in v.packed:
        comps[m & POSMASK].append((c, _monomial_text(m, memo, codec, names)))
    return "[" + ", ".join([_signed_sum(ring, terms) for terms in comps]) + "]"


def format_lt_module(elements, names, texts=None):
    """Leading terms grouped by position: `<gens>e1 (+) <gens>e2 ...`;
    monomial texts are kept in `texts` as for format_vector."""
    if not elements:
        return "<0>"
    by_pos = {}
    codec = None
    for v in elements:
        if v.order.codec is not codec:
            codec = v.order.codec
            memo = _monomial_texts(texts, codec, names)
        c, m = v.packed[0]
        text = _with_coefficient(v.ambient.ring.format(c), _monomial_text(m, memo, codec, names))
        by_pos.setdefault(m & POSMASK, []).append(text)
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
