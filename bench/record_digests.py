"""Record the output digests of the shipped seeds in bench/digests.json.

    python3 bench/record_digests.py            # seeds 1-10, every workload

Runs every op of each corpus once, untimed, and stores the digest that
`run.py` compares each run against. Re-record only for a deliberate change
of the output contract; it refuses to record while any op fails.
"""

from __future__ import annotations

import json
import sys

import corpus
import run
from sweep import seed_list


def main(argv=None):
    seeds = seed_list(argv[0] if argv else "1-10")
    cli = run.load_cli()
    digests = {}
    for workload in corpus.WORKLOADS:
        digests[workload] = {}
        for seed in seeds:
            ops = corpus.workload_ops(workload, seed)
            runner = run.Runner(cli, ops, run.OP_LIMIT_S[workload])
            results = [runner.run(k)[:2] for k in range(len(ops))]
            bad = [op.label for op, (rc, out) in zip(ops, results) if run.op_problem(op, rc, out)]
            if bad:
                raise SystemExit(f"{workload} seed {seed}: failing ops {bad[:5]}")
            digests[workload][str(seed)] = run.digest(ops, results)
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
