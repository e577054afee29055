"""Compare the CPU time of two gbsyz source trees on one benchmark corpus.

    python3 tests/speed.py OLD_SRC [NEW_SRC] --workload W --seed N --rounds R
    python3 tests/speed.py OLD_SRC [NEW_SRC] --case katsura3-z12-resolve --rounds R
    python3 tests/speed.py OLD_SRC [NEW_SRC] --import [--samples S]

Each source argument is a directory that holds a `gbsyz` package, such as
the `src/` of a `git archive` export of the parent commit; NEW_SRC
defaults to this checkout's `src/`. Both trees are imported into one
process under distinct package names, as in `same_output.py`, and every
op of the `bench/corpus.py` corpus of workload W and seed N runs once
through each tree untimed, to warm both. Each round then runs every op
once more through each tree's `cli.main`, in chunks of 32 ops: a chunk
runs through one tree and then the other, and which tree goes first flips
from chunk to chunk and from round to round, so that drift in the
machine's speed falls on both alike. The process CPU time of each tree's
chunks is summed per round.

`--case` times one named heavy op in place of a corpus:
`katsura3-z12-resolve` is `gbsyz resolve` on `bench/corpus.py`'s
Katsura-3 generators over `Z/12`, the op of `bench/run.py --case` of the
same name. It is one chunk, so the tree that goes first flips from round
to round.

OLD_SRC is always imported and warmed first, and the first output line
names it. Prints, per round, both sums and their ratio NEW/OLD, then the
number of rounds in which NEW was faster and the median ratio. A ratio
below 1 means NEW is faster. The import order alone can shift the ratio
by about 0.5%, as a tree timed against a byte-identical copy of itself
shows, so a median within 1% of 1.0 needs a second run with the two
trees swapped (`speed.py NEW_SRC OLD_SRC ...`): a difference holds only
if both orders put the same tree ahead.

`--import` times `import gbsyz.cli` instead, as `bench/run.py`'s
`import_sample` does for `setup_s`: each sample is a fresh `python -I`
interpreter that imports the tree, and its wall time is also scaled to
the reference speed by `bench/refspeed.py`'s `module_kernel`, run in the
same interpreter just before and after the import. The two trees
alternate on every one of the `--samples` (default 30) samples, and
which goes first flips from sample to sample; one child runs at a time,
with a limit of 60 s, after one untimed import per tree that writes its
bytecode cache. Prints each pair of samples, then per tree
the median and quartiles of the raw and the scaled times, the number of
pairs in which NEW was faster (scaled) and the ratio NEW/OLD of the
scaled medians.

Only the standard library is needed, and nothing is written but the
trees' bytecode caches; pytest does not collect this file.
"""

import argparse
import statistics
import subprocess
import sys
import time

from same_output import ROOT, load_cli, run

BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
from refspeed import REF_NOMINAL_S

CHUNK = 32
CASES = ("katsura3-z12-resolve",)
SAMPLES = 30
SAMPLE_TIMEOUT_S = 60
# the child of bench/run.py's import_sample: the import's wall seconds and
# the mean module-kernel time around it
IMPORT_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
               "from refspeed import module_kernel, reference_seconds; "
               "r = reference_seconds(module_kernel); t = time.perf_counter(); import gbsyz.cli; "
               "d = time.perf_counter() - t; print(d, (r + reference_seconds(module_kernel)) / 2)")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="speed.py", description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?", default=str(ROOT / "src"))
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("query", "gb", "resolve"))
    what.add_argument("--case", choices=CASES)
    what.add_argument("--import", dest="imports", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--samples", type=int)
    args = parser.parse_args(argv)
    if (args.seed is None) == (args.workload is not None):
        parser.error("--seed goes with --workload, and only with it")
    if args.imports:
        if args.rounds is not None:
            parser.error("--rounds does not go with --import")
        args.samples = SAMPLES if args.samples is None else args.samples
        if args.samples < 1:
            parser.error("--samples must be at least 1")
    else:
        if args.samples is not None:
            parser.error("--samples goes with --import, and only with it")
        args.rounds = 5 if args.rounds is None else args.rounds
        if args.rounds < 1:
            parser.error("--rounds must be at least 1")
    return args


def timed_chunk(cli, chunk):
    """CPU seconds of running every (argv, text) of chunk through cli."""
    t0 = time.process_time()
    for argv, text in chunk:
        run(cli, argv, text)
    return time.process_time() - t0


def import_sample(src):
    """(wall seconds, scaled seconds) of one fresh interpreter's import
    of the gbsyz.cli under src."""
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(src), str(BENCH)],
                          capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, check=True)
    d, ref = map(float, proc.stdout.split())
    return d, d * REF_NOMINAL_S / ref


def spread(values):
    """'median ms [first quartile-third quartile]' of seconds."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{med * 1e3:.3f} ms [{q1 * 1e3:.3f}-{q3 * 1e3:.3f}]"


def time_imports(srcs, samples):
    for src in srcs:
        import_sample(src)
    print(f"import gbsyz.cli: {samples} alternated samples per tree, "
          "one fresh `python -I` at a time; ms raw (scaled)")
    taken = ([], [])
    for k in range(samples):
        first = k % 2
        for side in (first, 1 - first):
            taken[side].append(import_sample(srcs[side]))
        (old, old_scaled), (new, new_scaled) = taken[0][-1], taken[1][-1]
        print(f"sample {k + 1}: old {old * 1e3:.3f} ({old_scaled * 1e3:.3f}), "
              f"new {new * 1e3:.3f} ({new_scaled * 1e3:.3f})", flush=True)
    for name, pairs in zip(("old", "new"), taken):
        print(f"{name}: raw {spread([raw for raw, _ in pairs])}, "
              f"scaled {spread([scaled for _, scaled in pairs])}")
    scaled = [[s for _, s in pairs] for pairs in taken]
    faster = sum(new < old for old, new in zip(*scaled))
    print(f"new faster in {faster} of {samples} samples (scaled); "
          f"median new/old {statistics.median(scaled[1]) / statistics.median(scaled[0]):.4f}")
    return 0


def main(argv):
    args = parse_args(argv)
    if args.imports:
        return time_imports((args.old_src, args.new_src), args.samples)
    clis = (load_cli(args.old_src, "gbsyz_old"), load_cli(args.new_src, "gbsyz_new"))
    import corpus

    if args.case:  # katsura3-z12-resolve, the only case
        ops = [(("resolve", "-"), corpus.shape_problem("Z/12", corpus.KATSURA3).text())]
        title = args.case
    else:
        ops = [(op.argv, op.problem.text()) for op in corpus.workload_ops(args.workload, args.seed)]
        title = f"{args.workload} seed {args.seed}"
    chunks = [ops[k:k + CHUNK] for k in range(0, len(ops), CHUNK)]
    for cli in clis:
        for argv, text in ops:
            run(cli, argv, text)
    print(f"{title}: {len(ops)} ops in {len(chunks)} chunks of {CHUNK}; "
          f"imported first: old {args.old_src}")
    ratios = []
    for r in range(args.rounds):
        spent = [0.0, 0.0]
        for k, chunk in enumerate(chunks):
            first = (k + r) % 2
            for side in (first, 1 - first):
                spent[side] += timed_chunk(clis[side], chunk)
        ratios.append(spent[1] / spent[0])
        print(f"round {r + 1}: old {spent[0]:.3f} s, new {spent[1]:.3f} s, "
              f"new/old {ratios[-1]:.4f}", flush=True)
    faster = sum(ratio < 1 for ratio in ratios)
    print(f"new faster in {faster} of {len(ratios)} rounds; "
          f"median new/old {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
