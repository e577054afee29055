"""The gbsyz benchmark: seeded closed-loop workloads through the CLI.

    python3 bench/run.py --workload {query,gb,resolve} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload gb --seed 3 --smoke        # a few ops, both modes
    python3 bench/run.py --case katsura3-z12-resolve           # opt-in slow case

One client in one process sends one op at a time: `gbsyz.cli.main(argv)`
runs in-process with the problem on stdin and its stdout captured. With
`--trace 0` the run measures for `--seconds` and prints the end-to-end
metrics; with `--trace 1` it runs a fixed prefix of the corpus once
untraced and once traced (interleaved), prints the per-layer metrics and
writes every span to `bench/out/`. The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` next to this directory, never from an
installed copy; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import corpus
from refspeed import REF_NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# Per-op wall-time limit; an op that reaches it fails. The generators keep
# the slowest draws far below these (README.md, "Heavy tail").
OP_LIMIT_S = {"query": 5.0, "gb": 15.0, "resolve": 20.0}
# Corpus ops covered by a traced run; a fixed prefix keeps its counts exact.
TRACE_OPS = {"query": 1000, "gb": 300, "resolve": 300}
SMOKE_OPS = 4
# Work after this much of a run's own time is skipped and counted as
# failed, so that a run ends within 180 s even if the program hangs.
RUN_GUARD_S = 150.0
ORACLE_LIMIT_S = 10.0
# The reference kernel (refspeed.py) is timed after every REF_EVERY_S of op time.
REF_EVERY_S = 0.05
# Fresh interpreters that time the import of gbsyz.cli, spread evenly over
# the timed loop so that their median covers the same changes of machine
# speed as the ops do.
SETUP_SAMPLES = 40
SMOKE_SETUP_SAMPLES = 3
# Traced wall time per op that is allowed outside the spans of `main`
# (output capture, the alarm, entering the wrapper); 0.10-0.14 ms is used.
HARNESS_PER_OP_S = 1e-3
SLOW_CASES = {
    "katsura3-z12-resolve": corpus.Op(
        "case/katsura3-z12-resolve", ("resolve", "-"),
        corpus.Problem("Z/12", ("u0", "u1", "u2", "u3"), 1,
                       tuple((p,) for p in corpus.KATSURA3)),
    ),
}


class OpTimeout(BaseException):
    """Raised inside an op that reached its wall-time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds):
    """Raise OpTimeout in the block once `seconds` of wall time have passed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def over_guard():
    return perf_counter() - _STARTED > RUN_GUARD_S


_STARTED = perf_counter()


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_cli():
    """Import `gbsyz.cli` from the checkout's `src/`, or exit 2."""
    if not (SRC / "gbsyz" / "cli.py").is_file():
        print(f"error: no gbsyz sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import gbsyz.cli

    if Path(gbsyz.cli.__file__).resolve().parent != (SRC / "gbsyz").resolve():
        print(f"error: imported gbsyz from {gbsyz.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return gbsyz.cli


class Runner:
    """Runs ops through `cli.main`, one at a time, with a wall-time limit."""

    def __init__(self, cli, ops, limit):
        self.cli = cli
        self.ops = ops
        self.texts = [op.problem.text() for op in ops]
        self.limit = limit

    def run(self, k):
        """(exit code or None on timeout, stdout, seconds) of op k."""
        stdin = sys.stdin
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(self.texts[k])
        main = self.cli.main  # looked up per op: a traced run wraps it
        argv = list(self.ops[k].argv)
        t0 = perf_counter()
        try:
            try:
                with time_limit(self.limit), redirect_stdout(out), redirect_stderr(err):
                    rc = main(argv)
            finally:
                t1 = perf_counter()
        except OpTimeout:
            rc, t1 = None, perf_counter()
        finally:
            sys.stdin = stdin
        return rc, out.getvalue(), t1 - t0


def op_problem(op, rc, out):
    """Why op's result is wrong, or None."""
    if rc is None:
        return "per-op time limit reached"
    if rc != 0:
        return f"exit code {rc}"
    if op.argv[0] == "resolve" and "\nverification: ok (" not in out:
        return "resolution not verified"
    return None


def digest(ops, results):
    h = hashlib.sha256()
    for op, (rc, out) in zip(ops, results):
        h.update(f"{op.label}\0{' '.join(op.argv)}\0{rc}\0{out}\0".encode())
    return h.hexdigest()


def import_sample():
    """One fresh interpreter's time to import `gbsyz.cli`: (wall seconds,
    the same scaled to the reference speed by module-kernel runs just
    before and after the import)."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "from refspeed import module_kernel, reference_seconds; "
            "r = reference_seconds(module_kernel); t = time.perf_counter(); import gbsyz.cli; "
            "d = time.perf_counter() - t; print(d, (r + reference_seconds(module_kernel)) / 2)")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=60, check=True)
    d, ref = map(float, proc.stdout.split())
    return d, d * REF_NOMINAL_S / ref


def timed_run(runner, seconds, setup_samples, log):
    """Closed loop over the corpus for `seconds` of loop time, and on
    until every op has run once, so that the timed ops cover the whole
    corpus and each op has a first result.

    Between ops, every REF_EVERY_S of op time, the reference kernel is
    timed; each op's wall time is also reported scaled by REF_NOMINAL_S
    over the mean of the reference times on either side of it. At the
    same points, `setup_samples` import samples are taken, evenly spread
    over the loop time; the time they take is not loop time. Returns the
    first (exit code, stdout) of each op, per timed op its index, wall
    time, scaled time and whether it failed, and the import samples.
    """
    ops = runner.ops
    first = [None] * len(ops)
    timed, pending, setups = [], [], []
    import_sample()  # the first import writes the bytecode cache
    ref_before = reference_seconds()
    start, sampling = perf_counter(), 0.0

    def loop_time():
        return perf_counter() - start - sampling

    i = 0
    while True:
        k = i % len(ops)
        rc, out, dt = runner.run(k)
        bad = op_problem(ops[k], rc, out)
        if first[k] is None:
            first[k] = (rc, out)
        elif (rc, out) != first[k]:
            bad = bad or "output differs from the op's first run"
        if bad:
            log(f"FAILED {ops[k].label}: {bad}")
        pending.append((k, dt, bool(bad)))
        i += 1
        guard = i < len(ops) and over_guard()
        done = guard or (i >= len(ops) and loop_time() >= seconds)
        if done or sum(p[1] for p in pending) >= REF_EVERY_S:
            ref_after = reference_seconds()
            factor = 2 * REF_NOMINAL_S / (ref_before + ref_after)
            timed += [(k, dt, dt * factor, bad) for k, dt, bad in pending]
            pending, ref_before = [], ref_after
            now, taken = loop_time(), len(setups)
            while len(setups) < setup_samples and not guard and (
                    done or now >= len(setups) * seconds / setup_samples):
                setups.append(import_sample())
            if len(setups) > taken:
                sampling = perf_counter() - start - now
                ref_before = reference_seconds()
        if done:
            break
    if guard:
        log(f"run guard: {len(ops) - i} ops not run")
        first[i:] = [(None, "")] * (len(ops) - i)
    return first, timed, setups


def check_outputs(ops, first, log):
    """Exit codes, verification lines and the sympy oracle, per distinct op.

    Returns the indices of the ops that failed and the number of ops the
    oracle checked.
    """
    import oracle

    bad, checked = set(), 0
    for k, (op, (rc, out)) in enumerate(zip(ops, first)):
        why = op_problem(op, rc, out)
        if why is None and over_guard():
            why = "not checked: run guard"
        elif why is None:
            try:
                with time_limit(ORACLE_LIMIT_S):
                    checked += oracle.check(op, out)
            except oracle.Mismatch as exc:
                why = f"oracle: {exc}"
            except OpTimeout:
                why = "oracle time limit reached"
        if why:
            bad.add(k)
            log(f"WRONG {op.label}: {why}")
    return bad, checked


def expected_digest(workload, seed):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def untraced(args, cli, ops, log):
    runner = Runner(cli, ops, OP_LIMIT_S[args.workload])
    first, timed, setups = timed_run(runner, args.seconds,
                                     SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES, log)
    setup_raw = statistics.median(raw for raw, _scaled in setups)
    setup_s = statistics.median(scaled for _raw, scaled in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = perf_counter()
    wrong, checked = check_outputs(ops, first, log)
    got = digest(ops, first)
    want = None if args.smoke else expected_digest(args.workload, args.seed)
    # A timed op fails if it failed in the loop or its op failed a check.
    failed = sum(bad or k in wrong for k, _dt, _scaled, bad in timed)
    attempted = len(timed)
    raw = [dt for _k, dt, _scaled, _bad in timed]
    scaled = [s for _k, _dt, s, _bad in timed]
    log(f"ops timed: {attempted} (latency samples), distinct ops: {len(ops)}, "
        f"oracle-checked: {checked}, checks took {perf_counter() - t:.1f} s")
    log(f"output digest {args.workload} seed {args.seed}: {got}"
        + ("" if want is None else " (matches recorded)" if got == want else f" (RECORDED {want})"))
    log(f"unscaled wall time: p50 {percentile(raw, 0.5) * 1e3:.4f} ms, "
        f"p90 {percentile(raw, 0.9) * 1e3:.4f} ms, "
        f"{(attempted - failed) / sum(raw):.4f} ops per second of op time; "
        f"import {setup_raw * 1e3:.2f} ms (median of {len(setups)} interpreters)")
    metrics = {
        "latency_p50_ms": (percentile(scaled, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(scaled, 0.90) * 1e3, "ms"),
        "throughput_ops_s": ((attempted - failed) / sum(scaled), "1/s"),
        "ops_ok_share": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    correct = failed == 0 and not wrong and (want is None or got == want)
    return correct, attempted, failed, metrics


def traced(args, cli, ops, log):
    from tracing import LAYERS, Tracer, layer_metrics

    ops = ops[:TRACE_OPS[args.workload]]
    runner = Runner(cli, ops, OP_LIMIT_S[args.workload])
    tracer = Tracer()
    plain = with_trace = 0.0
    failed = 0
    for k, op in enumerate(ops):
        if over_guard():
            log(f"run guard: stopped after {k} of {len(ops)} traced ops")
            ops = ops[:k]
            break
        rc0, out0, dt0 = runner.run(k)
        tracer.op = k
        tracer.install()
        try:
            rc1, out1, dt1 = runner.run(k)
        finally:
            tracer.uninstall()
        plain += dt0
        with_trace += dt1
        bad = op_problem(op, rc0, out0) or op_problem(op, rc1, out1)
        if not bad and out1 != out0:
            bad = "traced output differs from untraced output"
        if bad:
            failed += 1
            log(f"FAILED {op.label}: {bad}")
    metrics = layer_metrics(tracer, with_trace)
    metrics["trace.ops"] = (len(ops), "count")
    metrics["trace.overhead_share"] = ((with_trace - plain) / plain, "ratio")
    # The spans of `main` lie inside the op times the Runner measured, and
    # the six layer self times add up to those spans.
    outside = with_trace - sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    consistent = -1e-9 <= outside <= HARNESS_PER_OP_S * len(ops)
    log(f"traced ops: {len(ops)}; untraced {plain:.3f} s, traced {with_trace:.3f} s; "
        f"layer self times sum to {with_trace - outside:.6f} s, "
        f"{outside * 1e3:.3f} ms outside main (allowed: {HARNESS_PER_OP_S * 1e3:g} ms per op)")
    if not consistent:
        log("FAILED: layer self times do not add up to the traced op wall time")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
    tracer.write(path)
    log(f"{len(tracer.span_name)} spans written to {path}")
    return failed == 0 and consistent, len(ops), failed, metrics


def slow_case(name, cli, log):
    op = SLOW_CASES[name]
    runner = Runner(cli, [op], limit=24 * 3600.0)
    rc, out, dt = runner.run(0)
    why = op_problem(op, rc, out)
    log(out.rstrip("\n"))
    log(f"{name}: {dt:.1f} s" + (f", FAILED: {why}" if why else ""))
    return why is None, 1, int(why is not None), {"wall_s": (dt, "s")}


def report(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"first {SMOKE_OPS} ops only, untraced then traced, for self-tests")
    ap.add_argument("--case", choices=sorted(SLOW_CASES), help="one opt-in slow op, not gated")
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.case is None):
        ap.error("give exactly one of --workload and --case")
    cli = load_cli()

    def log(line):
        print(line, flush=True)

    if args.case:
        report(*slow_case(args.case, cli, log))
        return 0
    ops = corpus.workload_ops(args.workload, args.seed)
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(ops)} corpus ops")
    if args.smoke:
        ops = ops[:SMOKE_OPS]
        args.seconds = min(args.seconds, 0.5)
        a = untraced(args, cli, ops, log)
        b = traced(args, cli, ops, log)
        result = (a[0] and b[0], a[1] + b[1], a[2] + b[2], {**a[3], **b[3]})
    elif args.trace:
        result = traced(args, cli, ops, log)
    else:
        result = untraced(args, cli, ops, log)
    report(*result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
