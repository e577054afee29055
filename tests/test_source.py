"""Source-level checks on the package."""

import ast
import importlib
import io
import subprocess
import sys
from pathlib import Path

import gbsyz
from gbsyz.cli import main
from helpers import GOLDEN

PACKAGE = Path(gbsyz.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts; broken invariants raise InternalError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# private helpers that one package module may import from another: none
PRIVATE_IMPORT_ALLOWLIST = set()


def test_no_private_imports_between_package_modules():
    found, allowed = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gbsyz"):
                continue
            for alias in node.names:
                if not alias.name.startswith("_"):
                    continue
                if alias.name in PRIVATE_IMPORT_ALLOWLIST:
                    allowed.add(alias.name)
                else:
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
    assert not found, found
    # an entry that is no longer imported must leave the allowlist
    assert allowed == PRIVATE_IMPORT_ALLOWLIST


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods and nested
    functions included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _tests_divisibility(node):
    """A call of mono_divides, or the packed test (n - m) & mask, the
    difference possibly named by `:=`."""
    if isinstance(node, ast.Name):
        return node.id == "mono_divides"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        sides = [side.value if isinstance(side, ast.NamedExpr) else side
                 for side in (node.left, node.right)]
        return any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub) for side in sides)
    return False


def test_one_leading_term_step_in_groebner():
    # every division and pseudo-reduction finds the divisors of a leading
    # term through one step, on packed monomials; term_module_member
    # stays an independent check on decoded ones
    tree = ast.parse((PACKAGE / "groebner.py").read_text())
    callers = {
        name
        for name, fn in _functions(tree)
        for node in ast.walk(fn)
        if _tests_divisibility(node)
    }
    assert callers == {"_lead_step", "term_module_member"}, callers


def test_one_s_pair_rule_in_groebner():
    # Buchberger's loop, s_pairs and the public S-pair functions take
    # their cofactors from one kernel: no other function in groebner
    # asks the ring for S-pair cofactors or annihilators
    tree = ast.parse((PACKAGE / "groebner.py").read_text())
    callers = {
        name
        for name, fn in _functions(tree)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("spair_cofactors", "ann_gen")
    }
    assert callers == {"_s_pair"}, callers
    # and the two pair loops reduce on their own index, not per pair
    # through the public entry points
    loops = {name: fn for name, fn in _functions(tree) if name in ("buchberger", "s_pairs")}
    assert len(loops) == 2
    for name, fn in loops.items():
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not names & {"divide", "s_pair_indexed"}, name


def _parameters(fn):
    """The names of every parameter of a function node."""
    args = fn.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {arg.arg for arg in every if arg is not None}


def test_orders_come_from_the_vectors():
    # every vector carries its order and keeps its terms sorted under it,
    # so an order passed next to vectors could only repeat theirs: of the
    # public functions in groebner only buchberger, which re-sorts its
    # generators, takes one, and free_resolution takes its order once
    def public(module):
        tree = ast.parse((PACKAGE / module).read_text())
        return {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}

    takers = {name for name, fn in public("groebner.py").items() if "order" in _parameters(fn)}
    assert takers == {"buchberger"}, takers
    resolution = _parameters(public("syzygy.py")["free_resolution"])
    assert "order" in resolution and "unsafe_order" not in resolution, resolution


def test_one_sparse_accumulator():
    # poly.Accumulator owns the leading-term index and the term products:
    # its index is a bisect-sorted list, so no module imports heapq, and
    # groebner forms no monomial products itself
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "heapq" in names:
                importers.add(path.name)
    assert importers == set()
    assert "exps_add" not in (PACKAGE / "groebner.py").read_text()


# `poly` and `dsl` import each other, so `Vector.__repr__` imports `dsl`
# when it runs
LOCAL_IMPORT_ALLOWLIST = {("poly.py", "Vector.__repr__", "dsl")}


def test_no_package_imports_inside_functions():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("gbsyz")
                ):
                    found.add((path.name, name, node.module or "."))
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("gbsyz"):
                            found.add((path.name, name, alias.name))
    assert found == LOCAL_IMPORT_ALLOWLIST, found ^ LOCAL_IMPORT_ALLOWLIST


def test_no_module_imports_random():
    # results are exact and deterministic: nothing in the package draws
    # random numbers
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "random" or name.startswith("random.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_makes_records_with_namedtuple():
    # each namedtuple class compiles its own __new__ at import; records
    # come from poly.record, which compiles nothing
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "namedtuple" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _literal(tree, name):
    """The value of the module-level literal assignment `name = ...`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no literal {name}")


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/tracing.py wraps these names from outside; one that is gone
    # breaks only the traced benchmark run, so check them here, reading
    # the tables without importing the harness
    tracing = PACKAGE.parent.parent / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), str(tracing))
    missing = []
    for table in ("TIMED", "COUNTED"):
        for module, qualname, _span in _literal(tree, table):
            obj = importlib.import_module(f"gbsyz.{module}")
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{qualname}")
    rings = importlib.import_module("gbsyz.rings")
    for cls in _literal(tree, "RING_CLASSES"):
        for meth in _literal(tree, "TIMED_RING_METHODS") + _literal(tree, "COUNTED_RING_METHODS"):
            if not callable(getattr(getattr(rings, cls, None), meth, None)):
                missing.append(f"rings.{cls}.{meth}")
    assert not missing, missing


def test_importing_the_cli_leaves_out_fractions_and_decimal():
    # Z_(p) elements are int pairs: `fractions` and what it pulls in
    # (`decimal`, `numbers`) would only add to the start-up time, as would
    # `heapq`, which the Accumulator's sorted index does without
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gbsyz.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers', 'heapq'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n", done.stdout


def _fresh_main(argv, stdin_text):
    """(stdout, stderr) of `gbsyz.cli.main(argv)` in a fresh `python -I
    -S` on the package's sources. The last stderr line is the exit code,
    then which of json, typing, __future__, argparse and gettext were
    imported after `import gbsyz.cli` and after `main`."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "unused = {'json', 'typing', '__future__', 'argparse', 'gettext'}; "
            "import gbsyz.cli; before = sorted(unused & set(sys.modules)); "
            "rc = gbsyz.cli.main(sys.argv[2:]); "
            "print(rc, before, sorted(unused & set(sys.modules)), file=sys.stderr)")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent), *argv],
        input=stdin_text, capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout, done.stderr


def test_the_cli_imports_json_only_to_write_json(capsys):
    # `typing` and `__future__` are never needed, `json` only for
    # `json-like` output and `--trace`, and `argparse` (with `gettext`)
    # only to report a usage error; the output is the in-process one
    text = GOLDEN["z12_ideal"]
    for argv, rc, imported in (
        (["gb", "-"], 0, "[]"),
        (["resolve", "-"], 0, "[]"),
        (["resolve", "-", "--format", "json-like"], 0, "['json']"),
        (["resolve", "-", "--trace"], 0, "['json']"),
        (["resolve", "-", "--max-levels", "x"], 2, "['argparse', 'gettext']"),
    ):
        out, err = _fresh_main(argv, text)
        *err_lines, summary = err.splitlines(keepends=True)
        assert summary == f"{rc} [] {imported}\n", argv
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            assert main(argv) == rc
        finally:
            sys.stdin = stdin
        here = capsys.readouterr()
        assert (out, "".join(err_lines)) == (here.out, here.err), argv
