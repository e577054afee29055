"""Check that two gbsyz source trees give the same output on every benchmark op.

    python3 tests/same_output.py OLD_SRC [NEW_SRC]

Each argument is a directory that holds a `gbsyz` package, such as the
`src/` of a `git archive` export of the parent commit; NEW_SRC defaults to
this checkout's `src/`. Both trees are imported into one process under
distinct package names. Every op of the seed 1 and 1001 corpora of the
`query`, `gb` and `resolve` workloads, read from `bench/corpus.py`, runs
through each tree's `cli.main` in three modes: as drawn (plain), with
`--format json-like` and with `--trace`. Exit code, stdout and stderr must
be equal. Prints the first mismatch and exits 1, else prints the number
of ops compared and exits 0. Only the standard library is needed and
nothing under `bench/` is written; pytest does not collect this file.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 1001)
MODES = ("plain", "json-like", "trace")


def load_cli(src, name):
    """The `cli` module of the gbsyz package under src, imported as `name`."""
    init = Path(src).resolve() / "gbsyz" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no gbsyz package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def mode_argv(argv, mode):
    """argv as run in mode: json-like adds the format unless it is set."""
    if mode == "json-like" and "--format" not in argv:
        return argv + ("--format", "json-like")
    if mode == "trace":
        return argv + ("--trace",)
    return argv


def run(cli, argv, text):
    """(exit code, stdout, stderr) of `gbsyz argv` with text on stdin."""
    stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


def excerpt(a, b):
    """The first differing line of two texts, from each."""
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1}:\n  old: {x!r}\n  new: {y!r}"
    k = min(len(la), len(lb))
    return f"line {k + 1}: old has {len(la)} lines, new {len(lb)}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old = load_cli(argv[0], "gbsyz_old")
    new = load_cli(argv[1] if len(argv) == 2 else ROOT / "src", "gbsyz_new")
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    compared = 0
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            ops = corpus.workload_ops(workload, seed)
            for op in ops:
                text = op.problem.text()
                for mode in MODES:
                    args = mode_argv(op.argv, mode)
                    got_old, got_new = run(old, args, text), run(new, args, text)
                    if got_old != got_new:
                        print(f"MISMATCH {workload} seed {seed} {mode} {op.label}: gbsyz {' '.join(args)}")
                        for field, a, b in zip(("exit code", "stdout", "stderr"), got_old, got_new):
                            if a != b:
                                detail = f"{a!r} != {b!r}" if field == "exit code" else excerpt(a, b)
                                print(f"{field} differs, {detail}")
                        return 1
                    compared += 1
            print(f"{workload} seed {seed}: {len(ops)} ops x {len(MODES)} modes equal", flush=True)
    print(f"{compared} ops equal in exit code, stdout and stderr")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
