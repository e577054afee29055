"""Groebner bases, syzygies, and free resolutions over coherent strict
Bezout rings with a divisibility test: Z, Z/N, F2[y]/(y^r), and Z
localized at a prime."""

from .errors import GuardExceeded, InternalError, ParseError, UsageError
from .rings import (
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    TruncatedF2y,
)
from .poly import (
    Ambient,
    Mono,
    Schreyer,
    Term,
    TopLex,
    Vector,
    mono_divides,
    reorder,
    sort_basis,
)
from .groebner import (
    DivisionResult,
    Divisors,
    GroebnerBasis,
    SPair,
    buchberger,
    divide,
    divide_valuation,
    expand_combination,
    is_groebner,
    module_member,
    pseudo_reduce,
    s_poly,
    term_module_member,
)
from .syzygy import (
    FreeTail,
    PeriodicTail,
    Resolution,
    SyzygyBasis,
    apply_relation,
    free_resolution,
    schreyer_syzygies,
    term_syzygies,
    verify_resolution,
)
from .dsl import (
    format_lt_module,
    format_poly,
    format_vector,
    parse_problem,
    parse_vector_literal,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "DivisionResult",
    "Divisors",
    "FreeTail",
    "GroebnerBasis",
    "GuardExceeded",
    "Integers",
    "IntegersLocalizedAt",
    "IntegersMod",
    "InternalError",
    "Mono",
    "ParseError",
    "PeriodicTail",
    "Resolution",
    "SPair",
    "Schreyer",
    "SyzygyBasis",
    "Term",
    "TopLex",
    "TruncatedF2y",
    "UsageError",
    "Vector",
    "apply_relation",
    "buchberger",
    "divide",
    "divide_valuation",
    "expand_combination",
    "format_lt_module",
    "format_poly",
    "format_vector",
    "free_resolution",
    "is_groebner",
    "module_member",
    "mono_divides",
    "parse_problem",
    "parse_vector_literal",
    "pseudo_reduce",
    "reorder",
    "s_poly",
    "schreyer_syzygies",
    "sort_basis",
    "term_module_member",
    "term_syzygies",
    "verify_resolution",
]
