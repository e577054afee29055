"""End-to-end CLI checks over the worked-example corpus."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gbsyz
from gbsyz import TopLex, cli, free_resolution, syzygy, verify_resolution
from gbsyz.cli import main
from gbsyz.dsl import format_vector, parse_problem, parse_vector_literal
from helpers import GOLDEN, parse_in, problem


@pytest.fixture
def goldens(tmp_path):
    paths = {}
    for key, text in GOLDEN.items():
        path = tmp_path / f"{key}.gb"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jrecords(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def test_gb_text_z12_ideal(goldens, capsys):
    code, out, _ = run(capsys, "gb", goldens["z12_ideal"])
    assert code == 0
    assert "g1 = Y + 1" in out
    assert "LT = <Y, X^3, 3*X^2, 9>" in out


def test_gb_json_round_trips(goldens, capsys):
    code, out, _ = run(capsys, "gb", goldens["zint_ideal"], "--format", "json-like")
    assert code == 0
    recs = jrecords(out)
    assert recs[0]["kind"] == "header" and recs[0]["ring"] == "Z"
    p = problem("zint_ideal")
    basis = [r for r in recs if r["kind"] == "basis"]
    assert [r["value"] for r in basis] == ["Y^2 - X + 3", "4*X^2 - 4", "6*X + 6"]
    for r in basis:
        assert parse_in(p, 1, r["value"]) is not None


def test_gb_z2_rank2_adds_element(goldens, capsys):
    code, out, _ = run(capsys, "gb", goldens["z2_rank2"], "--format", "json-like")
    assert code == 0
    values = [r["value"] for r in jrecords(out) if r["kind"] == "basis"]
    assert "[0, X^2]" in values


def test_reduce_command(goldens, capsys):
    code, out, _ = run(capsys, "reduce", goldens["zint_ideal"], "4*Y^2 - 4*X^3 + 12*X^2")
    assert code == 0
    assert "q(g1) = 4" in out
    assert "q(g2) = -X + 3" in out
    assert "remainder = 0" in out


def test_member_yes_and_no(goldens, capsys):
    code, out, _ = run(capsys, "member", goldens["zint_ideal"], "12*X^2 - 12")
    assert code == 0 and "member: yes" in out
    code, out, _ = run(capsys, "member", goldens["zint_ideal"], "1")
    assert code == 0 and "member: no" in out  # mathematical no is still exit 0


def test_syz_zint_ideal(goldens, capsys):
    code, out, _ = run(capsys, "syz", goldens["zint_ideal"], "--format", "json-like")
    assert code == 0
    recs = jrecords(out)
    rels = {r["name"]: r["value"] for r in recs if r["kind"] == "syzygy"}
    assert rels["u[1,2]"] == "[4*X^2 - 4, -Y^2 + X - 3, 0]"
    assert rels["u[1,3]"] == "[6*X + 6, 0, -Y^2 + X - 3]"
    assert rels["u[2,3]"] == "[0, 3, -2*X + 2]"
    p = problem("zint_ideal")
    for text in rels.values():
        parse_in(p, 3, text)


def test_syz_pseudo_reduce_flag(goldens, capsys):
    code, out, _ = run(capsys, "syz", goldens["z12_ideal"], "--pseudo-reduce", "--format", "json-like")
    assert code == 0
    recs = jrecords(out)
    lt = [r for r in recs if r["kind"] == "lt_module"][-1]
    assert lt["value"] == "<X^3, 3>e1 (+) <3>e2 (+) <1>e3 (+) <4>e4"


def test_resolve_zloc2_ideal(goldens, capsys):
    code, out, _ = run(capsys, "resolve", goldens["zloc2_ideal"], "--format", "json-like")
    assert code == 0
    recs = jrecords(out)
    chain = next(r for r in recs if r["kind"] == "chain")
    assert chain["length"] == 2
    tail = next(r for r in recs if r["kind"] == "tail")
    assert tail["value"] == "free"
    final = [r for r in recs if r["kind"] == "relation" and r["level"] == 2]
    assert [r["value"] for r in final] == ["[2, -X^3 + 1, -Y^3 + 1]"]
    assert next(r for r in recs if r["kind"] == "verification")["value"] == "ok"


def test_resolve_z12_ideal_tail(goldens, capsys):
    code, out, _ = run(capsys, "resolve", goldens["z12_ideal"], "--format", "json-like")
    assert code == 0
    tail = next(r for r in jrecords(out) if r["kind"] == "tail")
    assert tail["value"] == "periodic"
    assert tail["b"] == ["3", "4", "4", "3"]
    assert tail["ann_b"] == ["4", "3", "3", "4"]
    assert tail["ann_ann_b"] == ["3", "4", "4", "3"]


def test_resolve_refuses_plain_order_flag(goldens, capsys):
    code, _, err = run(capsys, "resolve", goldens["zint_ideal"], "--order", "X,Y")
    assert code == 2
    assert "unsafe-order" in err


def test_resolve_unsafe_order(goldens, capsys):
    code, out, _ = run(capsys, "resolve", goldens["zint_ideal"], "--unsafe-order", "X,Y")
    assert code == 0
    assert "tail: free" in out


def test_unsafe_order_resolve_matches_the_library(goldens, capsys):
    # free_resolution under a TOP-lex order of another priority gives the
    # levels and labels that `resolve --unsafe-order` prints for it
    order = TopLex(2, (1, 0))
    for key in GOLDEN:
        p = problem(key)
        spec = ",".join(p.var_names[i] for i in order.priority)
        code, out, _ = run(capsys, "resolve", goldens[key], "--unsafe-order", spec,
                           "--format", "json-like")
        assert code == 0, key
        printed = [(r["level"], r["name"], r["value"]) for r in jrecords(out)
                   if r["kind"] == "relation"]
        res = free_resolution([v for _, v in p.generators], order=order,
                              labels=[n for n, _ in p.generators])
        assert verify_resolution(res).ok, key
        assert printed == [(k, lab, format_vector(v, p.var_names))
                           for k, level in enumerate(res.levels)
                           for lab, v in zip(level.labels, level.basis)], key


def test_unsafe_order_at_the_default_priority_is_plain_resolve(goldens, capsys, monkeypatch):
    # the default priority spelled out prints what plain resolve prints,
    # and the length bound of the syzygy theorem is checked on it
    checked = []
    bound = syzygy._assert_length_bound

    def spy(res, order):
        checked.append(order.priority)
        bound(res, order)

    monkeypatch.setattr(syzygy, "_assert_length_bound", spy)
    for key in GOLDEN:
        spec = ",".join(problem(key).var_names)
        plain = run(capsys, "resolve", goldens[key])
        checked.clear()
        assert run(capsys, "resolve", goldens[key], "--unsafe-order", spec) == plain, key
        assert plain[0] == 0 and checked == [(0, 1)], key


def test_order_override_on_gb(goldens, capsys):
    code, out, _ = run(capsys, "gb", goldens["zint_ideal"], "--order", "X,Y", "--format", "json-like")
    assert code == 0
    assert jrecords(out)[0]["order"] == "top-lex X > Y"


def test_valuation_division_flag_guard(goldens, capsys):
    code, _, err = run(capsys, "reduce", goldens["zint_ideal"], "Y", "--valuation-division")
    assert code == 2
    assert "valuation" in err
    code, out, _ = run(capsys, "reduce", goldens["zloc2_ideal"], "2*Y", "--valuation-division")
    assert code == 0
    assert "remainder = 0" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gb"
    bad.write_text("ring Z; rank 2; g = [X, 0];", encoding="utf-8")
    code, _, err = run(capsys, "gb", str(bad))
    assert code == 2
    assert "vars" in err


def test_zloc_literal_errors_exit_2_with_their_text(tmp_path, capsys):
    for body, message in [
        ("g = X + 1/0;", "2:9: zero denominator"),
        ("g = X +\n 2/4;", "3:2: 1/2 does not lie in Z localized at 2"),
    ]:
        bad = tmp_path / "bad.gb"
        bad.write_text(f"ring Z_(2); vars X;\n{body}\n", encoding="utf-8")
        code, out, err = run(capsys, "gb", str(bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "gb", "/nonexistent/problem.gb")
    assert code == 2
    assert "error" in err


NOT_UTF8 = b"ring Z; vars X; g = X\xff;\n"
NOT_UTF8_ERROR = "error: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte\n"


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.gb"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "gb", str(bad))
    assert (code, out, err) == (2, "", NOT_UTF8_ERROR)


def test_a_stdin_that_is_not_utf8_is_an_input_error(capsys, monkeypatch):
    # a strict decoder on stdin raises as the read goes
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    code, out, err = run(capsys, "gb", "-")
    assert (code, out, err) == (2, "", NOT_UTF8_ERROR)


def test_a_large_prime_localization_is_quick(tmp_path, capsys):
    # a 21-digit prime: trial division up to its square root took minutes
    path = tmp_path / "big.gb"
    path.write_text("ring Z_(100000000000000000039); vars X; g = 3*X + 1;\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "gb", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "g = 3*X + 1" in out


@pytest.mark.parametrize("p", [3317044064679887385961981, 10**25 + 13])
def test_a_localization_at_or_above_the_primality_bound_is_refused(tmp_path, capsys, p):
    # the least strong pseudoprime to the bases 2..41, and a 26-digit
    # prime: no Miller-Rabin base witnesses either, and trial division
    # up to the square root ran for hours
    path = tmp_path / "huge.gb"
    path.write_text(f"ring Z_({p}); vars X; g = X;\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: 1:9: cannot decide whether {p} is prime: "
                   "primality is decided only below 3317044064679887385961981\n")


def test_trace_emits_events(goldens, capsys):
    code, _, err = run(capsys, "gb", goldens["z2_rank2"], "--trace")
    assert code == 0
    events = [json.loads(line) for line in err.splitlines() if line.strip()]
    assert any(e.get("event") == "pair" for e in events)
    assert any(e.get("event") == "basis_added" for e in events)


def test_trace_covers_the_periodic_extra_level(goldens, capsys):
    # the extra level of a periodic tail runs the same traced Schreyer
    # step: its S-pairs follow the last `level` event
    code, out, err = run(capsys, "resolve", goldens["z12_ideal"], "--trace", "--format", "json-like")
    assert code == 0
    events = [json.loads(line) for line in err.splitlines() if line.strip()]
    last = max(k for k, e in enumerate(events) if e["event"] == "level")
    stable_rank = events[last]["rank"]
    pairs = [e for e in events[last + 1:] if e["event"] == "syzygy_pair"]
    assert pairs and all(1 <= e["i"] <= e["j"] <= stable_rank for e in pairs)
    (tail,) = [r for r in jrecords(out) if r["kind"] == "tail"]
    assert tail["value"] == "periodic" and tail["stable_level"] == events[last]["index"]


def test_resolve_rejects_negative_max_levels(goldens, capsys):
    for key in ("z12_ideal", "zint_ideal"):
        code, out, err = run(capsys, "resolve", goldens[key], "--max-levels", "-1")
        assert (code, out) == (2, "")
        assert "max_levels must be >= 0" in err


def _fresh_env():
    src = str(Path(gbsyz.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _separate_call(argv):
    """(exit code, stdout, stderr) of the command in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "gbsyz.cli", *argv],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_matches_separate_calls(goldens, capsys):
    # the parser is built once per process; flags set by one call must
    # not leak into the next, and a usage error must not poison it
    calls = [
        ["gb", goldens["zint_ideal"], "--pseudo-reduce"],
        ["gb", goldens["zint_ideal"]],
        ["gb", goldens["zint_ideal"], "--bogus-flag"],
        ["syz", goldens["z12_ideal"], "--format", "json-like", "--order", "X,Y"],
        ["reduce", goldens["zloc2_ideal"], "2*Y", "--valuation-division"],
        ["reduce", goldens["zint_ideal"], "4*Y^2 - 4*X^3 + 12*X^2"],
        ["resolve", goldens["z12_ideal"], "--max-levels", "1"],
        ["member", goldens["zint_ideal"], "12*X^2 - 12", "--trace"],
        ["resolve", goldens["z12_ideal"]],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [r[0] for r in in_process] == [0, 0, 2, 0, 0, 0, 3, 0, 0]
    assert in_process[0][1] != in_process[1][1]  # --pseudo-reduce changes this basis
    for argv, got in zip(calls, in_process):
        assert got == _separate_call(argv), argv


def test_import_does_not_build_the_parser():
    # building the parser at import would move its cost into every startup,
    # and a well-formed run reads its argv without it; a usage error builds
    # it once and reports through it
    probe = (
        "import gbsyz.cli as cli; n = cli._build_argparser.cache_info().currsize; "
        "cli.main(['gb', '-']); m = cli._build_argparser.cache_info().currsize; "
        "rc = cli.main(['gb', '-', '--bogus-flag']); "
        "print(n, m, cli._build_argparser.cache_info().currsize, rc)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], input=GOLDEN["zint_ideal"],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0 1 2"
    assert done.stderr.endswith("gbsyz: error: unrecognized arguments: --bogus-flag\n"), done.stderr


def test_commands_do_not_resort_parsed_vectors(goldens, capsys, monkeypatch):
    # parsed generators and targets are already under the problem's order:
    # every reorder the commands ask for returns its input
    kept = []

    def recording_reorder(v, order, _reorder=gbsyz.reorder):
        out = _reorder(v, order)
        kept.append(out is v)
        return out

    monkeypatch.setattr(cli, "reorder", recording_reorder)
    monkeypatch.setattr(syzygy, "reorder", recording_reorder)
    for argv in (["resolve", goldens["zint_ideal"]], ["gb", goldens["z2_rank2"]],
                 ["reduce", goldens["zint_ideal"], "Y^3 + X"], ["member", goldens["z12_ideal"], "X + 1"]):
        assert run(capsys, *argv)[0] == 0
    assert kept and all(kept)
    kept.clear()
    assert run(capsys, "gb", goldens["zint_ideal"], "--order", "X,Y")[0] == 0
    assert kept and not any(kept)


def test_text_output_refuses_an_unknown_record_kind(goldens, capsys, monkeypatch):
    # every record kind a command emits has a text form; another one is a
    # broken invariant, not a line of JSON
    cmd_gb = cli._COMMANDS["gb"]
    monkeypatch.setitem(cli._COMMANDS, "gb", lambda *prologue: cmd_gb(*prologue) + [{"kind": "mystery"}])
    code, out, err = run(capsys, "gb", goldens["zint_ideal"])
    assert (code, out) == (3, "")
    assert err == "internal error: no text form for record kind 'mystery'\n"
    code, out, _ = run(capsys, "gb", goldens["zint_ideal"], "--format", "json-like")
    assert code == 0 and jrecords(out)[-1] == {"kind": "mystery"}


def test_out_of_memory_is_a_one_line_internal_error(goldens, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_problem", exhausted)
    code, out, err = run(capsys, "gb", goldens["zint_ideal"])
    assert (code, out, err) == (3, "", "internal error: out of memory\n")


@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_numbers_past_the_int_str_digit_limit_round_trip(tmp_path, capsys, fmt):
    # Python converts between int and str only up to 4300 digits by
    # default; the DSL reads and the printers write longer numbers exactly
    big, ten = "9" * 5000, "1" + "0" * 5000
    path = tmp_path / "big.gb"
    for source, printed in ((f"{big}*X + 1", f"{big}*X + 1"), ("10^5000*X", f"{ten}*X")):
        path.write_text(f"ring Z; vars X; g = {source};\n", encoding="utf-8")
        code, out, err = run(capsys, "gb", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json-like":
            value = jrecords(out)[1]["value"]
        else:
            value = out.splitlines()[3].removeprefix("g = ")
        assert value == printed
        p = parse_problem(path.read_text(encoding="utf-8"))
        assert parse_vector_literal(value, p) == p.generators[0][1]


def test_a_modulus_past_the_int_str_digit_limit_prints_its_header(tmp_path, capsys):
    modulus = "7" * 5000
    path = tmp_path / "mod.gb"
    path.write_text(f"ring Z/{modulus}; vars X; g = 2*X + 3;\n", encoding="utf-8")
    code, out, err = run(capsys, "gb", str(path))
    assert (code, err) == (0, "")
    assert out.startswith(f"# gb over Z/{modulus}[X]^1\n# order: top-lex X\n")
    assert out.splitlines()[3] == "g = 2*X + 3"
    code, out, err = run(capsys, "gb", str(path), "--format", "json-like")
    assert (code, err, jrecords(out)[0]["ring"]) == (0, "", f"Z/{modulus}")


def test_numbers_past_the_int_str_digit_limit_in_errors(tmp_path, capsys):
    # a long number in an error message is printed in full, and a long
    # exponent is the usual parse error at its token
    big = "9" * 5000
    path = tmp_path / "bad.gb"
    for text, message in (
        (f"ring Z; vars X; g = 1/{big}*X;\n", f"1:21: 1/{big} is not an integer coefficient"),
        (f"ring Z; vars X; g = X^{big};\n", "1:23: exponent above 2147483647"),
    ):
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "gb", str(path)) == (2, "", f"error: {message}\n")
