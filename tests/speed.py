"""Compare the CPU time of two gbsyz source trees on one benchmark corpus.

    python3 tests/speed.py OLD_SRC [NEW_SRC] --workload W --seed N --rounds R
    python3 tests/speed.py OLD_SRC [NEW_SRC] --case katsura3-z12-resolve --rounds R

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

Prints, per round, both sums and their ratio NEW/OLD, then the number of
rounds in which NEW was faster and the median ratio. A ratio below 1
means NEW is faster. Only the standard library is needed and nothing is
written; pytest does not collect this file.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from same_output import ROOT, load_cli, run

CHUNK = 32
CASES = ("katsura3-z12-resolve",)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="speed.py", description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?", default=str(ROOT / "src"))
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("query", "gb", "resolve"))
    what.add_argument("--case", choices=CASES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if (args.seed is None) != (args.case is not None):
        parser.error("--seed goes with --workload, and only with it")
    return args


def timed_chunk(cli, chunk):
    """CPU seconds of running every (argv, text) of chunk through cli."""
    t0 = time.process_time()
    for argv, text in chunk:
        run(cli, argv, text)
    return time.process_time() - t0


def main(argv):
    args = parse_args(argv)
    clis = (load_cli(args.old_src, "gbsyz_old"), load_cli(args.new_src, "gbsyz_new"))
    sys.path.insert(0, str(ROOT / "bench"))
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
    print(f"{title}: {len(ops)} ops in {len(chunks)} chunks of {CHUNK}")
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
