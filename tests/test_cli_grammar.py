"""The command-line grammar: `cli._GRAMMAR` read by argparse and by the
table path that keeps argparse off every well-formed argv."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from gbsyz import cli
from helpers import reference_argparser

BENCH = Path(__file__).resolve().parent.parent / "bench"
TEXTS = json.loads((Path(__file__).resolve().parent / "cli_texts.json").read_text(encoding="utf-8"))


def parsed(parser, argv):
    """vars() of argparse's namespace for argv, or None on a usage error or help."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def run(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def argparse_only(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of `main` reading every argv with the
    reference parser, as it did before the table path."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_well_formed", lambda argv: None)
        m.setattr(cli, "_build_argparser", reference_argparser)
        return run(capsys, argv)


def corpus_argv(workload, seed):
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [list(op.argv) for op in corpus.workload_ops(workload, seed)]


@pytest.mark.parametrize("workload", ["query", "gb", "resolve"])
def test_the_benchmark_argv_take_the_table_path(workload, capsys):
    # every argv of a corpus, and the same in `json-like` and `--trace`
    # mode, reads without argparse into argparse's namespace
    shapes = set()
    for op_argv in corpus_argv(workload, seed=1):
        modes = [op_argv, op_argv + ["--trace"]]
        if "--format" not in op_argv:
            modes.append(op_argv + ["--format", "json-like"])
        for argv in modes:
            got = cli._parse_well_formed(argv)
            assert got is not None, argv
            want = parsed(cli._build_argparser(), argv)
            assert vars(got) == want == parsed(reference_argparser(), argv), argv
            shapes.add(tuple(a if a.startswith("-") else "." for a in argv))
    assert len(shapes) >= 4
    assert capsys.readouterr() == ("", "")


FLAGS = sorted({flag for command in cli._GRAMMAR for flag in cli._command_shape(command)[1]})
ALPHABET = [*cli._GRAMMAR, "re", "-", "problem.gb", "X+1", "-X", "", "x y", *FLAGS,
            "--form", "--tr", "--format=text", "text", "json-like", "json", "3", "-1", " 4", "1_0",
            "--", "-h", "--bogus"]


def fuzz_argv(seed, count):
    # mostly a command, then its file, then tokens: about one argv in ten
    # is one the table path accepts
    rng = random.Random(seed)
    for _ in range(count):
        head = [rng.choice(list(cli._GRAMMAR))] if rng.random() < 0.9 else []
        head += [rng.choice(["-", "problem.gb"])] if rng.random() < 0.5 else []
        yield head + [rng.choice(ALPHABET) for _ in range(rng.randint(0, 5))]


def test_the_table_path_agrees_with_argparse_on_fuzzed_argv(capsys, monkeypatch):
    # whatever the table path accepts parses equal under argparse; what it
    # leaves to argparse parses as before, and a usage error or help gives
    # the same exit code and texts as the argparse-only path
    monkeypatch.setenv("COLUMNS", "80")
    accepted = handed_over = malformed = 0
    for argv in fuzz_argv(seed=20, count=3000):
        want = parsed(reference_argparser(), argv)
        capsys.readouterr()
        got = cli._parse_well_formed(argv)
        if got is not None:
            accepted += 1
            assert vars(got) == want == parsed(cli._build_argparser(), argv), argv
        elif want is not None:
            handed_over += 1
            assert parsed(cli._build_argparser(), argv) == want, argv
        else:
            malformed += 1
            assert run(capsys, argv) == argparse_only(capsys, monkeypatch, argv), argv
    assert min(accepted, handed_over, malformed) >= 30, (accepted, handed_over, malformed)


def test_help_and_usage_texts_are_pinned(capsys, monkeypatch):
    # captured before the grammar became a table; argparse words its texts
    # differently across versions, so under another Python than the one
    # named in the file the reference parser gives them
    monkeypatch.setenv("COLUMNS", "80")
    pinned = TEXTS["python"] == "%d.%d" % sys.version_info[:2]
    for case in TEXTS["texts"].values():
        argv = case["argv"]
        want = (case["exit"], case["stdout"], case["stderr"]) if pinned else argparse_only(capsys, monkeypatch, argv)
        assert run(capsys, argv) == want, argv
