"""An independent check of `gbsyz` outputs with sympy.

Nothing here imports `gbsyz`: the problem comes from the benchmark's own
generator and the answers are parsed back from the command's stdout.
Coefficients are compared as integers or rationals and then reduced by
the ring: modulo N for Z/N, modulo 2 and y^r for F2[y]/y^r.

- `gb` over prime Z/p: the printed basis and the input generate the same
  ideal, compared as reduced bases from `sympy.groebner(..., modulus=p)`.
- `gb` over Z: the same comparison over QQ.
- `reduce`: h = sum q_i * g_i + r, with h equal to the requested target.
- `member`: a "yes" certificate satisfies h = sum q_i * b_i over the
  printed basis; over prime Z/p and Z the answer also agrees with ideal
  membership in sympy (a "no" is only checked over prime Z/p).
"""

from __future__ import annotations

import json
import re

import sympy
from sympy import QQ
from sympy.polys.rings import ring as poly_ring

from corpus import vector_text

PRIMES = {2, 3, 5, 7, 11, 13}


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def parse_records(command, output):
    """(kind, name, value) records from text or json-like output."""
    records = []
    if output.startswith("{"):
        for line in output.splitlines():
            rec = json.loads(line)
            records.append((rec["kind"], rec.get("name"), rec.get("value")))
        return records
    for line in output.splitlines():
        if line.startswith("#") or line.startswith("LT = "):
            continue
        if line.startswith("member: "):
            records.append(("member", None, line[len("member: "):]))
            continue
        name, sep, value = line.partition(" = ")
        if not sep:
            raise Mismatch(f"unparsed output line {line!r}")
        if name in ("target", "remainder"):
            records.append((name, None, value))
        elif name.startswith("q(") and name.endswith(")"):
            kind = "quotient" if command == "reduce" else "certificate"
            records.append((kind, name[2:-1], value))
        else:
            records.append(("basis", name, value))
    return records


_FRACTION = re.compile(r"(\d+)/(\d+)")


class Context:
    """Polynomial arithmetic over QQ[vars, y] and the ring's notion of zero."""

    def __init__(self, problem):
        self.problem = problem
        self.ring = problem.ring
        self.R, *gens = poly_ring(list(problem.names) + ["y"], QQ)
        self.gens = gens[:-1]
        self.namespace = {"__builtins__": {}, "Q": QQ, "y": gens[-1]}
        self.namespace.update(zip(problem.names, self.gens))
        self.modulus = int(self.ring[2:]) if self.ring.startswith("Z/") else None
        self.prime = self.modulus if self.modulus in PRIMES else None

    def poly(self, text):
        """Evaluate a polynomial written by the generator or printed by gbsyz."""
        expr = _FRACTION.sub(r"Q(\1, \2)", text).replace("^", "**")
        return self.R(eval(expr, self.namespace))  # trusted: our own text

    def vector(self, text):
        text = text.strip()
        if self.problem.rank == 1:
            return [self.poly(text)]
        if not (text.startswith("[") and text.endswith("]")):
            raise Mismatch(f"expected a rank-{self.problem.rank} vector, got {text!r}")
        comps = [self.poly(c) for c in text[1:-1].split(",")]
        if len(comps) != self.problem.rank:
            raise Mismatch(f"vector {text!r} has the wrong rank")
        return comps

    def is_zero(self, p):
        """Whether a polynomial with rational coefficients is 0 in the ring."""
        if not p:
            return True
        if self.ring == "Z" or self.ring.startswith("Z_("):
            return False
        if self.modulus is not None:
            return all(c.denominator == 1 and c.numerator % self.modulus == 0
                       for c in p.values())
        r = int(self.ring.split("^")[1])
        return all((c.denominator == 1 and c.numerator % 2 == 0) or monom[-1] >= r
                   for monom, c in p.items())

    def equal(self, u, v):
        return all(self.is_zero(a - b) for a, b in zip(u, v))


def _combination(ctx, quotients, vectors):
    out = [ctx.R.zero] * ctx.problem.rank
    for q, vec in zip(quotients, vectors):
        out = [o + q * c for o, c in zip(out, vec)]
    return out


def _ideal(ctx, polys):
    polys = [p.as_expr() for p in polys if p]
    kwargs = {"modulus": ctx.prime} if ctx.prime else {"domain": "QQ"}
    return sympy.groebner(polys, *[g.as_expr() for g in ctx.gens], order="grevlex", **kwargs)


def _field_checked(ctx):
    return ctx.problem.rank == 1 and (ctx.prime is not None or ctx.ring == "Z")


def check(op, output):
    """Raise Mismatch unless the op's stdout agrees with the oracle.

    Returns whether an oracle check applied to this op.
    """
    command = op.argv[0]
    if command not in ("gb", "reduce", "member"):
        return False
    ctx = Context(op.problem)
    records = parse_records(command, output)
    gens = [ctx.vector(text) for text in map(vector_text, op.problem.gens)]
    if command == "gb":
        if not _field_checked(ctx):
            return False
        basis = [ctx.vector(v)[0] for k, _n, v in records if k == "basis"]
        if _ideal(ctx, basis).exprs != _ideal(ctx, [g[0] for g in gens]).exprs:
            raise Mismatch("basis and generators span different ideals")
        return True
    values = {k: v for k, _n, v in records if k in ("target", "remainder", "member")}
    target = ctx.vector(values["target"])
    if not ctx.equal(target, ctx.vector(op.argv[2])):
        raise Mismatch("printed target differs from the requested one")
    if command == "reduce":
        quotients = [ctx.poly(v) for k, _n, v in records if k == "quotient"]
        if len(quotients) != len(gens):
            raise Mismatch("one quotient per generator expected")
        rhs = _combination(ctx, quotients, gens)
        rhs = [a + b for a, b in zip(rhs, ctx.vector(values["remainder"]))]
        if not ctx.equal(target, rhs):
            raise Mismatch("h != sum q_i g_i + r")
        return True
    member = values["member"] == "yes"
    if member:
        certs = [ctx.poly(v) for k, _n, v in records if k == "certificate"]
        basis = [ctx.vector(v) for k, _n, v in records if k == "basis"]
        if len(certs) != len(basis) or not ctx.equal(target, _combination(ctx, certs, basis)):
            raise Mismatch("h != sum q_i b_i for the membership certificate")
    if _field_checked(ctx) and (member or ctx.prime):
        contained = _ideal(ctx, [g[0] for g in gens]).contains(target[0].as_expr())
        if contained != member:
            raise Mismatch(f"membership {member} but sympy says {contained}")
    return True
