"""Command-line interface: gb, reduce, member, syz, resolve.

Reads a problem file in the DSL, runs the requested computation, and
prints either human-readable text or a line-delimited JSON-like record
stream (`--format json-like`). `--trace` mirrors structured events to
standard error. Exit codes: 0 on success (mathematical "no" answers
included), 2 on usage or parse errors, 3 on broken internal invariants
and on running out of memory.
"""

import functools
import sys
import types

from .dsl import (
    format_lt_module,
    format_vector,
    order_from_names,
    parse_problem,
    parse_vector_literal,
)
from .errors import GuardExceeded, InternalError, ParseError, UsageError
from .groebner import divide, divide_valuation
from .poly import reorder
from .syzygy import (
    FreeTail,
    buchberger_level0,
    free_resolution,
    pseudo_reduce_labeled,
    schreyer_syzygies,
    verify_resolution,
)

_NORMALIZATION_NOTE = (
    "coefficients are canonical associates; bases print in descending leading-term order"
)


# the help of a flag that help texts leave out: `_build_argparser` puts
# argparse.SUPPRESS in its place
_HIDDEN = object()

# The command-line grammar, declared once for both readers of argv: per
# command, its help and its arguments in `add_argument` order, each the
# name of a positional or a flag with the keywords `add_argument` takes; a
# tuple of flags is a mutually exclusive group.
_FILE = ("file", {"help": "problem file (use '-' for stdin)"})
_FORMAT = ("--format", {"choices": ["text", "json-like"], "default": "text"})
_TRACE = ("--trace", {"action": "store_true", "help": "structured events on stderr"})
_ORDER = ("--order", {"help": "lex priority override, e.g. 'X,Y'"})
_PSEUDO_REDUCE = (
    ("--pseudo-reduce", {"dest": "pseudo_reduce", "action": "store_true"}),
    ("--no-pseudo-reduce", {"dest": "pseudo_reduce", "action": "store_false", "default": False}),
)
_VALUATION_DIVISION = ("--valuation-division", {"action": "store_true"})
_GRAMMAR = {
    "gb": ("Groebner basis of the generators", (_FILE, _FORMAT, _TRACE, _ORDER, _PSEUDO_REDUCE)),
    "reduce": (
        "divide a target vector by the generators",
        (_FILE, _FORMAT, _TRACE, _ORDER, ("target", {"help": "vector literal to reduce"}), _VALUATION_DIVISION),
    ),
    "member": (
        "module membership of a target vector",
        (_FILE, _FORMAT, _TRACE, _ORDER, ("target", {"help": "vector literal to test"}), _VALUATION_DIVISION),
    ),
    "syz": ("Schreyer syzygy basis of the Groebner basis", (_FILE, _FORMAT, _TRACE, _ORDER, _PSEUDO_REDUCE)),
    "resolve": (
        "free resolution of the generated module",
        (
            _FILE,
            _FORMAT,
            _TRACE,
            ("--max-levels", {"type": int, "default": 32}),
            ("--unsafe-order", {"help": "non-default order (termination not guaranteed)"}),
            ("--order", {"help": _HIDDEN}),
        ),
    ),
}


def _members(entry):
    """The (name, keywords) pairs of a `_GRAMMAR` entry, and whether they
    form a mutually exclusive group."""
    group = isinstance(entry[0], tuple)
    return (entry if group else (entry,)), group


@functools.cache
def _build_argparser():
    """The argument parser, built from `_GRAMMAR` the first time an argv
    needs it (a usage error or help) and reused for the rest of the
    process; a well-formed argv never imports argparse."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="gbsyz",
        description="Groebner bases, syzygies, and free resolutions over Z, Z/N, F2[y]/y^r, Z_(p).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_text)
        for entry in arguments:
            members, group = _members(entry)
            owner = p.add_mutually_exclusive_group() if group else p
            for name, keywords in members:
                if keywords.get("help") is _HIDDEN:
                    keywords = {**keywords, "help": argparse.SUPPRESS}
                owner.add_argument(name, **keywords)
    return ap


@functools.cache
def _command_shape(command):
    """(positional names, {flag: (dest, keywords)}, {dest: default}) of a
    command, the defaults as argparse puts them in its namespace."""
    positionals, flags, defaults = [], {}, {}
    for entry in _GRAMMAR[command][1]:
        for name, keywords in _members(entry)[0]:
            if _flag_like(name):
                dest = keywords.get("dest", name[2:].replace("-", "_"))
                flags[name] = dest, keywords
            else:
                dest = name
                positionals.append(name)
            implied = {"store_true": False, "store_false": True}.get(keywords.get("action"))
            defaults.setdefault(dest, keywords.get("default", implied))
    return positionals, flags, defaults


def _flag_like(token):
    """Whether argparse may read `token` as a flag: it may read every
    token that starts with '-' as one, except '-' itself."""
    return token[:1] == "-" and token != "-"


def _parse_well_formed(argv):
    """argparse's namespace for an argv `<command> <positionals...>
    <flags...>` with each flag (or exclusive group) at most once and every
    value valid and not starting with '-' (except '-' itself); None for
    any other argv, which is argparse's to read, help and errors included."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positionals, flags, defaults = _command_shape(argv[0])
    values = {"command": argv[0], **defaults}
    k = 1 + len(positionals)
    if len(argv) < k:
        return None
    for name, value in zip(positionals, argv[1:k]):
        if _flag_like(value):
            return None
        values[name] = value
    seen = set()
    while k < len(argv):
        flag = flags.get(argv[k])
        if flag is None or flag[0] in seen:
            return None
        dest, keywords = flag
        seen.add(dest)
        action = keywords.get("action")
        if action:
            value = action == "store_true"
            k += 1
        else:
            if k + 1 == len(argv):
                return None
            value = argv[k + 1]
            k += 2
            if _flag_like(value):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if value not in keywords.get("choices", (value,)):
                return None
        values[dest] = value
    return types.SimpleNamespace(**values)


def _read_problem(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_problem(text)


def _pick_order(args, problem):
    spec = getattr(args, "order", None)
    if args.command == "resolve":
        if spec:
            raise UsageError("resolve refuses --order; use --unsafe-order (termination is only covered for the default TOP-lex order)")
        spec = getattr(args, "unsafe_order", None)
    if spec:
        return order_from_names(problem, spec)
    return problem.order


def _trace_sink(args):
    if not args.trace:
        return None
    import json

    def sink(event):
        print(json.dumps(event, default=str), file=sys.stderr)

    return sink


def _header(args, problem, order):
    names = problem.var_names
    priority = " > ".join(names[i] for i in order.priority)
    return {
        "kind": "header",
        "command": args.command,
        "ring": problem.ring.descriptor(),
        "vars": list(names),
        "rank": problem.rank,
        "order": f"top-lex {priority}",
        "note": _NORMALIZATION_NOTE,
    }


def _gens(problem, order):
    if not problem.generators:
        raise UsageError("problem file declares no generators")
    names = [n for n, _ in problem.generators]
    vecs = [reorder(v, order) for _, v in problem.generators]
    return names, vecs


def _vector_record(kind, v, args, problem, **head):
    """The record of one vector: kind, then head (level, name), rank, value."""
    return {"kind": kind, **head, "rank": v.ambient.rank,
            "value": format_vector(v, problem.var_names, args.texts)}


def cmd_gb(args, problem, order, names, vecs, trace):
    basis, labels = buchberger_level0(vecs, order, names, guard=10_000, trace=trace)
    if args.pseudo_reduce:
        gbr, labels = pseudo_reduce_labeled(basis, order, labels, guard=10_000)
        basis = gbr.elements
    records = [_vector_record("basis", v, args, problem, name=lab) for lab, v in zip(labels, basis)]
    records.append({"kind": "lt_module", "value": format_lt_module(list(basis), problem.var_names, args.texts)})
    return records


def _divide_for(args, target, divisors, trace):
    if getattr(args, "valuation_division", False):
        return divide_valuation(target, divisors, trace=trace)
    return divide(target, divisors, trace=trace)


def cmd_reduce(args, problem, order, names, vecs, trace):
    target = reorder(parse_vector_literal(args.target, problem), order)
    res = _divide_for(args, target, vecs, trace)
    records = [_vector_record("target", target, args, problem)]
    records += [_vector_record("quotient", q, args, problem, name=name) for name, q in zip(names, res.quotients)]
    records.append(_vector_record("remainder", res.remainder, args, problem))
    return records


def cmd_member(args, problem, order, names, vecs, trace):
    target = reorder(parse_vector_literal(args.target, problem), order)
    basis, labels = buchberger_level0(vecs, order, names, guard=10_000, trace=trace)
    res = _divide_for(args, target, basis, trace)
    member = res.remainder.is_zero()
    records = [_vector_record("target", target, args, problem)]
    records.append({"kind": "member", "value": "yes" if member else "no"})
    if member:
        records += [_vector_record("certificate", q, args, problem, name=lab)
                    for lab, q in zip(labels, res.quotients)]
        records += [_vector_record("basis", v, args, problem, name=lab) for lab, v in zip(labels, basis)]
    return records


def cmd_syz(args, problem, order, names, vecs, trace):
    basis, labels = buchberger_level0(vecs, order, names, guard=10_000, trace=trace)
    syz = schreyer_syzygies((basis, order), labels=labels, trace=trace)
    relations, rel_labels = syz.relations, syz.labels
    if args.pseudo_reduce:
        gbr, rel_labels = pseudo_reduce_labeled(relations, syz.order, rel_labels, guard=10_000)
        relations = gbr.elements
    records = [_vector_record("basis", v, args, problem, name=lab) for lab, v in zip(labels, basis)]
    records += [_vector_record("syzygy", v, args, problem, name=lab) for lab, v in zip(rel_labels, relations)]
    records.append(
        {"kind": "lt_module", "value": format_lt_module(list(relations), problem.var_names, args.texts) if relations else "<0>"}
    )
    return records


def cmd_resolve(args, problem, order, names, vecs, trace):
    res = free_resolution(vecs, order=order, max_levels=args.max_levels, labels=names, trace=trace)
    records = []
    for k, level in enumerate(res.levels):
        records.append({"kind": "level", "index": k, "rank": len(level.basis)})
        records += [_vector_record("relation", v, args, problem, level=k, name=lab)
                    for lab, v in zip(level.labels, level.basis)]
        records.append(
            {
                "kind": "lt_module",
                "level": k,
                "value": format_lt_module(list(level.basis), problem.var_names, args.texts),
            }
        )
    chain = [f"R^{len(level.basis)}" for level in reversed(res.levels)] + ["U", "0"]
    if isinstance(res.tail, FreeTail):
        records.append({"kind": "chain", "value": " -> ".join(["0"] + chain), "length": res.length})
        records.append({"kind": "tail", "value": "free", "length": res.length})
    else:
        ring = problem.ring
        records.append(
            {
                "kind": "chain",
                "value": " -> ".join(["..."] + chain),
                "length": "infinite",
                "explicit_levels": len(res.levels),
            }
        )
        records.append(
            {
                "kind": "tail",
                "value": "periodic",
                "stable_level": res.tail.stable_index,
                "b": [ring.format(x) for x in res.tail.b],
                "ann_b": [ring.format(x) for x in res.tail.ann_b],
                "ann_ann_b": [ring.format(x) for x in res.tail.ann_ann_b],
            }
        )
    report = verify_resolution(res)
    records.append(
        {
            "kind": "verification",
            "value": "ok" if report.ok else "failed",
            "checks": len(report.checks),
        }
    )
    if not report.ok:
        raise InternalError(f"resolution verification failed: {report.failures()}")
    return records


_COMMANDS = {
    "gb": cmd_gb,
    "reduce": cmd_reduce,
    "member": cmd_member,
    "syz": cmd_syz,
    "resolve": cmd_resolve,
}


def _render_text(records):
    lines = []
    for rec in records:
        kind = rec["kind"]
        if kind == "header":
            lines.append(f"# {rec['command']} over {rec['ring']}[{', '.join(rec['vars'])}]^{rec['rank']}")
            lines.append(f"# order: {rec['order']}")
            lines.append(f"# note: {rec['note']}")
        elif kind == "level":
            lines.append(f"level {rec['index']} (rank {rec['rank']}):")
        elif kind in ("quotient", "certificate"):
            lines.append(f"q({rec['name']}) = {rec['value']}")
        elif kind in ("basis", "syzygy", "relation"):
            prefix = "  " if "level" in rec else ""
            lines.append(f"{prefix}{rec['name']} = {rec['value']}")
        elif kind == "lt_module":
            prefix = "  " if "level" in rec else ""
            lines.append(f"{prefix}LT = {rec['value']}")
        elif kind == "target":
            lines.append(f"target = {rec['value']}")
        elif kind == "remainder":
            lines.append(f"remainder = {rec['value']}")
        elif kind == "member":
            lines.append(f"member: {rec['value']}")
        elif kind == "chain":
            lines.append(f"resolution: {rec['value']} (length {rec['length']})")
        elif kind == "tail":
            if rec["value"] == "periodic":
                lines.append(
                    f"tail: periodic from level {rec['stable_level']}; b = ({', '.join(rec['b'])}); "
                    f"Ann(b) = ({', '.join(rec['ann_b'])}); Ann(Ann(b)) = ({', '.join(rec['ann_ann_b'])})"
                )
            else:
                lines.append("tail: free")
        elif kind == "verification":
            lines.append(f"verification: {rec['value']} ({rec['checks']} checks)")
        else:
            raise InternalError(f"no text form for record kind {kind!r}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_well_formed(argv)
    if args is None:
        try:
            args = _build_argparser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    args.texts = {}  # the printers' monomial texts, shared for this call only
    try:
        problem = _read_problem(args)
        order = _pick_order(args, problem)
        names, vecs = _gens(problem, order)
        trace = _trace_sink(args)
        records = [_header(args, problem, order)]
        records += _COMMANDS[args.command](args, problem, order, names, vecs, trace)
        if args.format == "json-like":
            import json

            out = "\n".join(json.dumps(rec) for rec in records) + "\n"
        else:
            out = _render_text(records)
    except (ParseError, UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, GuardExceeded) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
