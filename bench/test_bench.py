"""Self-tests of the benchmark harness: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import oracle
import run
import tracing

HERE = Path(__file__).resolve().parent
cli = run.load_cli()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = corpus.workload_ops(workload, 5)
    assert a == corpus.workload_ops(workload, 5)
    assert a != corpus.workload_ops(workload, 6)
    assert [op.problem.text() for op in a] == [op.problem.text() for op in corpus.workload_ops(workload, 5)]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_generator_is_nonzero(workload):
    from gbsyz.dsl import parse_problem

    problems = {op.problem for op in corpus.workload_ops(workload, 2)}
    for problem in problems:
        parsed = parse_problem(problem.text())
        assert len(parsed.generators) == len(problem.gens)
        assert all(not v.is_zero() for _name, v in parsed.generators), problem


@pytest.mark.parametrize("ring", corpus.RINGS)
def test_coefficients_are_nonzero_in_their_ring(ring):
    from gbsyz.dsl import parse_problem

    rng = random.Random(ring)
    for _ in range(200):
        text = f"ring {ring}; vars X; g = {corpus.coefficient(rng, ring)}*X;"
        assert not parse_problem(text).generators[0][1].is_zero()


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 1.0) == 100
    assert run.percentile([3, 1, 2], 0.5) == 2
    assert run.percentile([7], 0.9) == 7
    assert run.percentile(list(range(1, 11)), 0.9) == 9
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] -> divide [1, 4] -> add [2, 3];  root -> divide [5, 9];  a second root [20, 21]
    names = ["cli.main", "groebner.divide", "poly.Vector.add", "groebner.divide", "cli.main"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 21.0]
    selfs = tracing.self_times(names, parents, starts, ends)
    assert selfs == {"cli.main": 3.0 + 1.0, "groebner.divide": 2.0 + 4.0, "poly.Vector.add": 1.0}
    assert sum(selfs.values()) == tracing.inclusive_time(names, parents, starts, ends, {"cli.main"}) == 11.0
    assert tracing.inclusive_time(names, parents, starts, ends, {"groebner.divide"}) == 7.0


def test_nested_spans_of_one_set_count_once():
    names = ["dsl.format_vector", "dsl.format_poly", "dsl.format_poly"]
    parents = [-1, 0, -1]
    starts, ends = [0.0, 1.0, 5.0], [4.0, 2.0, 6.0]
    wanted = {"dsl.format_vector", "dsl.format_poly"}
    assert tracing.inclusive_time(names, parents, starts, ends, wanted) == 5.0


def test_tracer_restores_every_wrapped_name():
    import gbsyz
    from gbsyz import groebner, poly, rings, syzygy

    before = (cli.main, cli.divide, syzygy.divide, groebner.divide, gbsyz.divide,
              poly.Vector.add, poly.TopLex.compare, groebner.mono_divides)
    ring_attrs = {name: dict(vars(getattr(rings, name))) for name in tracing.RING_CLASSES}
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.divide is syzygy.divide is groebner.divide is not before[1]
    assert "mul" in vars(rings.IntegersMod) and "gcd_bezout" in vars(rings.TruncatedF2y)
    tracer.uninstall()
    after = (cli.main, cli.divide, syzygy.divide, groebner.divide, gbsyz.divide,
             poly.Vector.add, poly.TopLex.compare, groebner.mono_divides)
    assert after == before
    assert ring_attrs == {name: dict(vars(getattr(rings, name))) for name in tracing.RING_CLASSES}


def test_oracle_rejects_a_wrong_remainder():
    ops = [op for op in corpus.workload_ops("query", 1) if op.argv[0] == "reduce"
           and "--format" not in op.argv and op.problem.ring == "Z"]
    op = ops[0]
    rc, out, _dt = run.Runner(cli, [op], 5.0).run(0)
    assert rc == 0 and oracle.check(op, out)
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("remainder = "))
    lines[k] += " + 1"
    with pytest.raises(oracle.Mismatch):
        oracle.check(op, "\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_mode_reports_every_metric(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert names <= set(result["metrics"])
