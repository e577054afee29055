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

from .errors import PackedOverflow, ParseError, UsageError
from .poly import EXP_BITS, POSMASK, Accumulator, Ambient, TopLex, Vector, check_product, record
from .rings import Integers, IntegersLocalizedAt, IntegersMod, TruncatedF2y, text_to_int

_DIGITS = "0123456789"
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | frozenset(_DIGITS)
_SYMBOLS = ";=+-*^/[](),"
_PADDED = tuple((sym, f" {sym} ") for sym in _SYMBOLS)
# each ASCII character's class: "a" starts a name, "0" is a digit, " " is
# whitespace or a symbol, and "!" can start nothing outside a comment;
# other characters keep themselves, so only text of the ASCII class alone
# maps to "a", "0" and " " alone
_CLASSES = str.maketrans({
    ch: "a" if ch in _NAME_START else "0" if ch in _DIGITS
    else " " if ch.isspace() or ch in _SYMBOLS else "!"
    for ch in map(chr, range(128))
})
# the characters outside ASCII that `str.isspace` accepts
_SPACES = ("\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
           "\u2028\u2029\u202f\u205f\u3000")


def tokenize(text):
    """The token texts of `text`, then "" for the end of input. A token
    is a name if it starts with an ASCII letter or `_`, an int if it
    starts with a decimal digit (`str.isdecimal`, exactly `\\d`), and
    a symbol otherwise.

    The text is first cut at its comments, which keeps each line's
    start, so every character left keeps its line and column. Text then
    made of the ASCII class alone (whitespace, letters, digits, `_` and
    the symbols) is padded around each symbol and split on whitespace;
    a chunk that starts with digits and goes on with a name is then
    split in two. Whitespace outside ASCII is first mapped to " ", one
    character for one, so such text takes the same path. Any other text
    goes through `_scan`, which raises the `ParseError` of its first
    character outside the language."""
    if "#" in text:
        text = "\n".join(line.partition("#")[0] for line in text.split("\n"))
    classes = text.translate(_CLASSES)
    if not classes.isascii():
        for space in _SPACES:
            text = text.replace(space, " ")
        # what is left outside ASCII, a digit or a character outside the language, goes to _scan
        classes = text.translate(_CLASSES) if text.isascii() else "!"
    if "!" in classes:
        tokens = [tok for _, tok in _scan(text)]
    else:
        for sym, padded in _PADDED:
            text = text.replace(sym, padded)
        tokens = text.split()
        if "0a" in classes:  # a digit right before a name character
            tokens = [part for chunk in tokens for part in _int_then_name(chunk)]
    tokens.append("")
    return tokens


def _int_then_name(chunk):
    """The tokens of a chunk of ASCII name characters or a symbol: a
    leading run of digits is an int of its own."""
    name = chunk.lstrip(_DIGITS)
    return (chunk,) if name in ("", chunk) else (chunk[: len(chunk) - len(name)], name)


def _scan(text):
    """(offset, token text) of each token of `text`, one character at a
    time: the definition of the language. Whitespace (`str.isspace`) and
    comments, from `#` to the next newline, separate tokens; a name is
    an ASCII letter or `_` followed by ASCII letters, digits and `_`, an
    int a run of decimal digits (`str.isdecimal`), and each symbol a
    token of its own. Any other character raises a `ParseError` at its
    line and column."""
    pos, end = 0, len(text)
    while pos < end:
        start, ch = pos, text[pos]
        pos += 1
        if ch in _NAME_START:
            while pos < end and text[pos] in _NAME_CHARS:
                pos += 1
        elif ch.isdecimal():
            while pos < end and text[pos].isdecimal():
                pos += 1
        elif ch.isspace():
            continue
        elif ch == "#":
            pos = text.find("\n", pos)
            if pos < 0:
                return
            continue
        elif ch not in _SYMBOLS:
            raise ParseError(f"unexpected character {ch!r}", *_line_column(text, start))
        yield start, text[start:pos]


def _line_column(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def token_position(text, index):
    """(line, column) of token `index` of `text`, the end of input
    included, counted from 1. Positions are only needed for errors, so
    they are found again by `_scan`."""
    for start, _ in _scan(text):
        if not index:
            return _line_column(text, start)
        index -= 1
    return _line_column(text, len(text))


# generators: a tuple of (name, Vector)
ProblemFile = record("ProblemFile", "ring var_names rank order ambient poly_ambient generators")


class _Parser:
    """Recursive descent over the token texts of `text`. The statement
    pass records each vector component as a (start, stop) span of
    tokens; `assemble` reads each span as a polynomial in the ambient of
    `problem`, with the end marker "" written over the token at stop.
    `expr` evaluates a polynomial in one loop over its terms, and an
    inner loop over each term's factors; it recurses only at `(`. While
    every factor of a term is a single term, their product is a
    coefficient and a packed monomial held in locals, as is a power of
    one variable; a polynomial factor goes through `_product`, any other
    power through `_power`, and a sum of terms into one `Accumulator`.
    Errors name a token by its index; past the span being read, that is
    the span's last token."""

    def __init__(self, text, problem=None):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.last = len(self.tokens) - 1
        self.problem = problem
        self.monos = None  # variable name -> packed monomial, bound with one, zero and guard by assemble

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
                rank = text_to_int(self.expect("int"))
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
                    return IntegersMod(text_to_int(n))
                except UsageError as exc:
                    self.fail(str(exc), self.i - 1)
            return Integers()
        if tok == "Z_":
            self.expect("(")
            p = self.expect("int")
            self.expect(")")
            try:
                return IntegersLocalizedAt(text_to_int(p))
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
                return TruncatedF2y(text_to_int(r))
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
        if self.monos is None:
            codec = problem.order.codec
            self.monos = dict(zip(problem.var_names, (1 << s for s in codec.shifts)))
            self.one, self.zero, self.guard = problem.ring.one(), problem.ring.zero(), codec.guard
        coeffs = {}
        for pos, (start, stop) in enumerate(spans):
            self.tokens[stop] = ""
            self.i, self.last = start, stop - 1
            value = self.expr()
            if tok := self.tokens[self.i]:
                self.fail(f"unexpected {tok!r}")
            if type(value) is tuple:
                coeffs[value[1] + pos] = value[0]
            elif not pos:  # the first component's own sum, at position 0
                coeffs = value.coeffs
            else:
                for m, c in value.coeffs.items():
                    coeffs[m + pos] = c
        return Vector.from_coeffs(problem.ambient, problem.order, coeffs)

    # -- polynomial expressions ---------------------------------------------

    def expr(self):
        """The value of the expression from token self.i, which it leaves
        at the first token past the expression."""
        problem, tokens, monos, one, zero = self.problem, self.tokens, self.monos, self.one, self.zero
        ring, mul, guard = problem.ring, problem.ring.mul, self.guard
        i = self.i
        op = tokens[i]  # the sign of the term: "-", or any other token for "+"
        if op == "-":
            i += 1
        acc = None
        while True:
            at = None  # the index of the `*` before this factor, None for the first
            while True:
                tok = tokens[i]
                i += 1
                f = None  # the factor when it is a polynomial, else fc * fm
                if (fm := monos.get(tok)) is not None:
                    fc = one
                elif tok == "(":
                    self.i = i
                    f = self.expr()
                    i = self.i
                    if tokens[i] != ")":
                        self.fail("expected ')'", i)
                    i += 1
                else:
                    if tok.isdecimal():
                        if tokens[i] != "/":
                            fc = ring.from_int(text_to_int(tok))
                        elif not (den := tokens[i + 1]).isdecimal():
                            self.fail("expected integer denominator", i + 1)
                        else:
                            try:
                                fc = ring.from_fraction(text_to_int(tok), text_to_int(den))
                            except UsageError as exc:
                                self.fail(str(exc), i - 1)
                            i += 2
                    elif tok == "y" and isinstance(ring, TruncatedF2y):
                        fc = ring.y()
                    elif tok[:1] in _NAME_START:
                        self.fail(f"unknown variable {tok!r}", i - 1)
                    else:
                        self.fail(f"unexpected {tok or 'end of input'!r}", i - 1)
                    fm = 0
                    if fc == zero:
                        f = _accumulator(problem)
                if tokens[i] == "^":
                    if not (e := tokens[i + 1]).isdecimal():
                        self.fail("exponent must be a nonnegative integer", i + 1)
                    i += 2
                    if tok in monos and (e := text_to_int(e)) <= _TOP:  # a power of one variable
                        fm *= e
                    else:
                        try:
                            f = _power(problem, (fc, fm) if f is None else f, text_to_int(e))
                        except PackedOverflow:
                            self.fail(_TOO_LARGE, i - 1)
                if type(f) is tuple:
                    (fc, fm), f = f, None
                if at is None:
                    value = f
                    if f is None:
                        c, m = fc, fm
                elif value is None and f is None:
                    c = mul(c, fc)
                    if c == zero:
                        value = _accumulator(problem)
                    elif (m := m + fm) & guard:
                        self.fail(_TOO_LARGE, at)
                else:
                    try:
                        value = _product(problem, (c, m) if value is None else value,
                                         (fc, fm) if f is None else f)
                    except PackedOverflow:
                        self.fail(_TOO_LARGE, at)
                if tokens[i] != "*":
                    break
                at = i
                i += 1
            # the term: value, or c * m when value is None
            if value is None:
                if op == "-":
                    c = ring.neg(c)
                if acc is not None:
                    acc.add(c, m)
            else:
                if op == "-":
                    coeffs = value.coeffs
                    for mono in coeffs:
                        coeffs[mono] = ring.neg(coeffs[mono])
                if acc is None:
                    acc = value
                else:
                    for mono, coeff in value.coeffs.items():
                        acc.add(coeff, mono)
            op = tokens[i]
            if op != "+" and op != "-":
                self.i = i
                return (c, m) if acc is None else acc
            i += 1
            if acc is None:
                acc = _accumulator(problem, ((c, m),))


_TOP = (1 << (EXP_BITS - 1)) - 1
_TOO_LARGE = f"exponent above {_TOP}"

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
    wanted = names_spec.replace(",", " ").split()
    if sorted(wanted) != sorted(problem.var_names):
        raise UsageError(
            f"order spec {names_spec!r} must be a permutation of {' '.join(problem.var_names)}"
        )
    priority = tuple(problem.var_names.index(w) for w in wanted)
    return TopLex(len(problem.var_names), priority)
