"""Check the recorded output digests under every installed Python 3.10-3.13.

    python3 tests/interpreters.py                      # each pyenv 3.10-3.13
    python3 tests/interpreters.py /usr/bin/python3.12  # the given interpreters

For each interpreter, a child process runs the seed 1 corpora of the
`query`, `gb` and `resolve` workloads through `gbsyz.cli.main`, one op at a
time, forms each digest with `bench/run.py`'s `digest` and compares it with
`bench/digests.json`, which it only reads. The interpreters run one after
another. Without arguments it takes every `~/.pyenv/versions/3.1[0-3]*/bin/python3`.
Only the standard library is needed, so interpreters without pytest
qualify; pytest does not collect this file. Exits 0 when every digest
matches, 1 otherwise.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query", "gb", "resolve")
SEED = 1
CHILD_LIMIT_S = 600


def installed():
    """The pyenv interpreters of Python 3.10 to 3.13, in version order."""
    versions = Path.home() / ".pyenv" / "versions"
    found = [p / "bin" / "python3" for p in versions.glob("3.1[0-3]*")]
    return sorted((p for p in found if p.is_file()),
                  key=lambda p: tuple(int(x) for x in p.parent.parent.name.split(".")[:3] if x.isdigit()))


def child():
    """Print one line per workload: its name, then `ok` or `MISMATCH`."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus
    import run

    cli = run.load_cli()
    bad = 0
    for workload in WORKLOADS:
        ops = corpus.workload_ops(workload, SEED)
        runner = run.Runner(cli, ops, run.OP_LIMIT_S[workload])
        got = run.digest(ops, [runner.run(k)[:2] for k in range(len(ops))])
        ok = got == run.expected_digest(workload, SEED)
        bad += not ok
        print(f"{workload} seed {SEED}: {'ok' if ok else 'MISMATCH ' + got}", flush=True)
    return 1 if bad else 0


def main(argv):
    pythons = [Path(a) for a in argv] or installed()
    if not pythons:
        print("no interpreter to check", file=sys.stderr)
        return 1
    failed = 0
    for python in pythons:
        version = subprocess.run([str(python), "-c", "import sys; print(sys.version.split()[0])"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        proc = subprocess.run([str(python), "-I", str(Path(__file__).resolve()), "--child"],
                              capture_output=True, text=True, timeout=CHILD_LIMIT_S)
        print(f"Python {version} ({python}): exit {proc.returncode}")
        print(proc.stdout, end="")
        if proc.returncode:
            print(proc.stderr[-2000:], end="")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        raise SystemExit(child())
    raise SystemExit(main(sys.argv[1:]))
