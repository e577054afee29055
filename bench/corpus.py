"""Seeded problem generators for the benchmark workloads.

Every op is one `gbsyz` command line plus the problem text it reads on
standard input. The same (workload, seed) always yields the same ops.

Cost depends heavily on the input, so each workload is sized through the
generator parameters below and stratified: every corpus holds the same
number of problems of each shape on each ring, and the seed draws only
the coefficients, monomials, targets and the order of the ops. Instances are
never re-drawn or dropped for being slow; the parameters were chosen so
that the slowest draws stay far below the per-op time limit (see
README.md, "Heavy tail").
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Problem(NamedTuple):
    """A problem file: ring descriptor, variable names, rank, generators.

    Each generator is a tuple of `rank` component expressions.
    """

    ring: str
    names: tuple
    rank: int
    gens: tuple

    def text(self):
        lines = [f"ring {self.ring}; vars {' '.join(self.names)}; rank {self.rank};"]
        for i, comps in enumerate(self.gens):
            lines.append(f"g{i + 1} = {vector_text(comps)};")
        return "\n".join(lines) + "\n"


class Op(NamedTuple):
    """One closed-loop request: `gbsyz <argv>` with the problem on stdin."""

    label: str
    argv: tuple
    problem: Problem


def vector_text(comps):
    return comps[0] if len(comps) == 1 else "[" + ", ".join(comps) + "]"


def _golden(ring, names, rank, *gens):
    return Problem(ring, tuple(names.split()), rank,
                   tuple(tuple(g) if isinstance(g, tuple) else (g,) for g in gens))


# The six worked examples of the test suite.
GOLDEN = {
    "f2y_spair": _golden("F2[y]/y^2", "X2 X1", 1, "y*X2 + X1", "y*X1 + y"),
    "z2_rank2": _golden("Z/2", "Y X", 2, ("Y", "X"), ("X", "0")),
    "zloc2_ideal": _golden("Z_(2)", "Y X", 1, "Y^4 - Y", "2*Y", "X^3 - 1"),
    "z4_ideal": _golden("Z/4", "Y X", 1, "Y^4 - Y", "2*Y", "X^3 - 1"),
    "zint_ideal": _golden("Z", "Y X", 1, "Y^2 - X + 3", "4*X^2 - 4", "6*X + 6"),
    "z12_ideal": _golden("Z/12", "Y X", 1, "Y + 1", "X^3 + X^2 + 6", "3*X^2", "9"),
}

# Two rings of each backend family besides Z: prime Z/p, composite Z/N,
# F2[y]/y^r and Z_(p).
RINGS = ("Z", "Z/2", "Z/3", "Z/5", "Z/7", "Z/4", "Z/6", "Z/12",
         "F2[y]/y^2", "F2[y]/y^3", "Z_(2)", "Z_(3)")
VALUATION_RINGS = ("F2[y]/y^2", "F2[y]/y^3", "Z_(2)", "Z_(3)")
VAR_NAMES = ("X", "Y", "Z", "W")

CYCLIC4 = ("u0 + u1 + u2 + u3", "u0*u1 + u1*u2 + u2*u3 + u3*u0",
           "u0*u1*u2 + u1*u2*u3 + u2*u3*u0 + u3*u0*u1", "u0*u1*u2*u3 - 1")
KATSURA3 = ("u0 + 2*u1 + 2*u2 + 2*u3 - 1", "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1", "u1^2 + 2*u0*u2 + 2*u1*u3 - u2")
KATSURA2 = ("u0 + 2*u1 + 2*u2 - 1", "u0^2 + 2*u1^2 + 2*u2^2 - u0", "2*u0*u1 + 2*u1*u2 - u1")
# Katsura shapes run only where they stay well below the per-op limit:
# Katsura-3 gb needs >60 s over Z and 10 s over Z_(3); Katsura-2 resolve
# needs up to 5 s over Z/12 and Z_(2) (README.md, "Heavy tail").
KATSURA3_RINGS = ("Z/3", "Z/5", "Z/7", "Z/4")
KATSURA2_RINGS = ("Z/3", "Z/5", "Z/7")
# Random resolve problems skip Z/12 and F2[y]/y^3, where single draws of
# three binomials took 6 s and 0.9 s against a median near 30 ms; the
# golden problem keeps Z/12 in the corpus.
RESOLVE_RINGS = tuple(r for r in RINGS if r not in ("Z/12", "F2[y]/y^3"))

# Generator parameters. Over Z a single trinomial among four generators
# already gives draws past 3 s, so random generators are binomials.
QUERY_RANDOM_PER_RING = 20   # problems per ring; each yields 4 ops
GB_RANDOM_PER_RING = 160     # 4 variables, 4 binomial generators, degree <= 2
RESOLVE_RANDOM_PER_RING = 90  # 3 variables, 2 or 3 binomial generators, degree <= 2
COEFF_SIZE = 3               # |integer numerators| <= COEFF_SIZE

WORKLOADS = ("query", "gb", "resolve")


def ring_kind(ring):
    if ring == "Z":
        return "Z"
    if ring.startswith("Z_("):
        return "Zp"
    if ring.startswith("F2"):
        return "F2y"
    return "ZN"


def coefficient(rng, ring, size=COEFF_SIZE):
    """A coefficient literal that is nonzero in `ring`."""
    kind = ring_kind(ring)
    if kind == "ZN":
        return str(rng.randrange(1, int(ring[2:])))
    if kind == "F2y":
        r = int(ring.split("^")[1])
        bits = rng.randrange(1, 1 << r)
        parts = ["1" if i == 0 else ("y" if i == 1 else f"y^{i}")
                 for i in reversed(range(r)) if bits >> i & 1]
        return "(" + " + ".join(parts) + ")"
    num = rng.choice((-1, 1)) * rng.randint(1, size)
    den = 1
    if kind == "Zp":
        p = int(ring[3:-1])
        den = rng.choice([d for d in (1, 1, 1, 2, 3, 5) if d % p])
    if den != 1:
        return f"({num}/{den})"
    return f"({num})" if num < 0 else str(num)


def monomial(rng, nvars, max_deg):
    exps = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def mono_text(exps, names):
    return "*".join(n if e == 1 else f"{n}^{e}" for e, n in zip(exps, names) if e) or "1"


def polynomial(rng, ring, names, terms, max_deg):
    """A nonzero polynomial: distinct monomials with nonzero coefficients."""
    monos = []
    while len(monos) < terms:
        m = monomial(rng, len(names), max_deg)
        if m not in monos:
            monos.append(m)
    return " + ".join(f"{coefficient(rng, ring)}*{mono_text(m, names)}" for m in monos)


def random_problem(rng, ring, nvars, ngens, terms, max_deg):
    names = VAR_NAMES[:nvars]
    gens = tuple((polynomial(rng, ring, names, terms, max_deg),) for _ in range(ngens))
    return Problem(ring, names, 1, gens)


def shape_problem(ring, polys):
    """A fixed shape in u0 > u1 > ... The variable order is not seeded: over
    Z/6 it moves one Katsura-3 op from 0.26 s to 6.7 s (README.md)."""
    names = tuple(f"u{i}" for i in range(len(polys)))
    return Problem(ring, names, 1, tuple((p,) for p in polys))


def random_target(rng, problem, in_module):
    """A target vector literal; `in_module` builds a combination of the generators."""
    comps = []
    for pos in range(problem.rank):
        if in_module:
            parts = []
            for g in problem.gens:
                if g[pos] != "0" and rng.random() < 0.7:
                    m = mono_text(monomial(rng, len(problem.names), 1), problem.names)
                    parts.append(f"{coefficient(rng, problem.ring)}*{m}*({g[pos]})")
            comps.append(" + ".join(parts) or "0")
        else:
            comps.append(polynomial(rng, problem.ring, problem.names, rng.randint(1, 3), 3))
    return vector_text(comps)


def _query_ops(rng, key, problem):
    ops = []
    valuation = problem.ring in VALUATION_RINGS
    for cmd in ("reduce", "member"):
        for k in range(2):
            argv = [cmd, "-", random_target(rng, problem, in_module=(k == 0))]
            if k == 1:
                argv += ["--format", "json-like"]
            if valuation and rng.random() < 0.5:
                argv.append("--valuation-division")
            ops.append(Op(f"query/{key}/{cmd}{k}", tuple(argv), problem))
    return ops


def query_ops(rng):
    ops = []
    for key, problem in GOLDEN.items():
        for rep in range(2):
            ops += _query_ops(rng, f"{key}.{rep}", problem)
    for i in range(QUERY_RANDOM_PER_RING):
        for ring in RINGS:
            nvars = 2 + i % 2
            problem = random_problem(rng, ring, nvars, 2 + (i // 2) % 2, 2, 2)
            ops += _query_ops(rng, f"{ring}.{i}", problem)
    return ops


def gb_ops(rng):
    """Half of the ops on each ring pseudo-reduce."""
    problems = []
    for i in range(GB_RANDOM_PER_RING):
        for j, ring in enumerate(RINGS):
            problems.append((f"random.{ring}.{i}", random_problem(rng, ring, 4, 4, 2, 2), i + j))
    for j, ring in enumerate(RINGS):
        problems.append((f"cyclic4.{ring}", shape_problem(ring, CYCLIC4), j))
    for j, ring in enumerate(KATSURA3_RINGS):
        problems.append((f"katsura3.{ring}", shape_problem(ring, KATSURA3), j))
    return [Op(f"gb/{key}", ("gb", "-") + (("--pseudo-reduce",) if parity % 2 else ()), problem)
            for key, problem, parity in problems]


def resolve_ops(rng):
    problems = [(f"golden.{key}", p) for key, p in GOLDEN.items()]
    for i in range(RESOLVE_RANDOM_PER_RING):
        for ring in RESOLVE_RINGS:
            problems.append((f"random.{ring}.{i}", random_problem(rng, ring, 3, 2 + i % 2, 2, 2)))
    for ring in KATSURA2_RINGS:
        problems.append((f"katsura2.{ring}", shape_problem(ring, KATSURA2)))
    ops = []
    for n, (key, problem) in enumerate(problems):
        ops.append(Op(f"resolve/{key}", ("resolve", "-"), problem))
        if n % 4 == 0:
            argv = ("syz", "-") + (("--pseudo-reduce",) if n % 8 else ())
            ops.append(Op(f"syz/{key}", argv, problem))
    return ops


_WORKLOAD_OPS = {"query": query_ops, "gb": gb_ops, "resolve": resolve_ops}


def workload_ops(workload, seed):
    """The corpus of one workload, in run order, drawn from `seed` alone."""
    rng = random.Random(f"gbsyz-bench:{workload}:{seed}")
    ops = _WORKLOAD_OPS[workload](rng)
    rng.shuffle(ops)
    return ops
