"""cli.parse_args against the argparse parser it replaced (tests/util.py).

Both read command lines drawn from the words a dualnets command line is
made of: the commands, families and demo names, the options --n, --p, --c
and --m as "--n 7" and "--n=7", integers (negative ones too), "-", "--",
"x", -h and --help.  argparse must accept a line exactly when parse_args
does, with the same family, n, p, c (default 1), m, NETFILE and demo
name, and a line argparse rejects must make parse_args raise ValueError.

Two deliberate differences, each with its own test: argparse took an
abbreviation of --help (--h, --he, --hel) for --help, and parse_args
reads it as an unknown option; and argparse up to Python 3.12 read the
value "--" given as "--n=--" as n = [], on which construct failed with a
TypeError traceback, and parse_args raises ValueError (argparse refuses
it from 3.13).  So the generated "--n=..." words leave that value out.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualnets.cli import DEMOS, FAMILIES, OPERANDS, OPTIONS, parse_args  # noqa: E402
from util import build_parser, run_main  # noqa: E402

COMMANDS = list(OPERANDS)
WORDS = COMMANDS + list(FAMILIES) + list(DEMOS) + list(OPTIONS) + ["-", "--", "x", "-h", "--help"]
VALUE = st.one_of(st.integers(-20, 200).map(str), st.sampled_from(["x", "-", ""]))
WORD = st.one_of(st.sampled_from(WORDS), st.integers(-20, 200).map(str),
                 st.builds("{}={}".format, st.sampled_from(OPTIONS), VALUE))
OPTION = st.one_of(st.builds(lambda flag, value: [flag, str(value)], st.sampled_from(OPTIONS),
                             st.integers(-20, 200)),
                   st.builds(lambda flag, value: ["%s=%d" % (flag, value)], st.sampled_from(OPTIONS),
                             st.integers(-20, 200)))


@st.composite
def lines(draw):
    """Any words, or, so that many lines are valid, a command with an
    operand it takes, construct's options, all in any order, and now and
    then a stray word before the command or among the rest."""
    if draw(st.booleans()):
        return draw(st.lists(WORD, max_size=8))
    command = draw(st.sampled_from(COMMANDS))
    chunks = [[draw(st.sampled_from(list(OPERANDS[command] or ("-", "x", "--"))))]]
    if command == "construct":
        chunks += draw(st.lists(OPTION, max_size=4))
    if draw(st.integers(0, 2)) == 2:
        chunks.append([draw(WORD)])
    before = [draw(WORD)] if draw(st.integers(0, 3)) == 3 else []
    return before + [command] + sum(draw(st.permutations(chunks)), [])


PARSER = build_parser()


def argparse_reading(argv):
    """"help", "error", or (command, values) as parse_args returns them."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = PARSER.parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"
    if args.command == "construct":
        return "construct", {name: getattr(args, name) for name in ("family", "n", "p", "c", "m")}
    return args.command, args.name if args.command == "demo" else args.netfile


def new_reading(argv):
    try:
        command, operand = parse_args(argv)
    except ValueError:
        return "error"
    return "help" if command is None else (command, operand)


@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(lines())
def test_parse_args_reads_lines_as_argparse_did(argv):
    assert new_reading(argv) == argparse_reading(argv)


def construct(family, n=None, p=None, c=1, m=None):
    return "construct", {"family": family, "n": n, "p": p, "c": c, "m": m}


@pytest.mark.parametrize("argv, want", [
    (["construct", "--n", "7", "--p=61", "fermat"], construct("fermat", n=7, p=61)),
    (["construct", "fermat", "--n=7", "--p", "61", "--n", "3"], construct("fermat", n=3, p=61)),
    (["construct", "triangular", "--c", "-3", "--n=-5"], construct("triangular", n=-5, c=-3)),
    (["construct", "--p", "13", "--", "hesse4"], construct("hesse4", p=13)),
    (["construct", "hesse4", "--", "--p", "13"], "error"),
    (["construct", "--p", "13", "hesse4", "--"], construct("hesse4", p=13)),
    (["construct", "hesse4", "--p", "13", "--"], "error"),
    (["construct", "hesse4", "--p"], "error"),
    (["construct", "hesse4", "--p", "--c", "2"], "error"),
    (["construct", "hesse4", "--p", "x"], "error"),
    (["construct", "hesse4", "--q", "3"], "error"),
    (["construct"], "error"),
    (["verify", "-"], ("verify", "-")),
    (["verify", "--", "-h"], ("verify", "-h")),
    (["verify", "--", "--"], ("verify", "--")),
    (["verify", "a", "b"], "error"),
    (["--", "verify", "-"], "error"),
    (["--n", "7", "construct", "hesse4"], "error"),
    (["demo", "j0-identities"], ("demo", "j0-identities")),
    (["demo", "nope"], "error"),
    # -h gives help unless a usage error that is raised at once comes first
    (["--q", "-h"], "help"),
    (["verify", "a", "b", "-h"], "help"),
    (["construct", "-h", "moebius"], "help"),
    (["construct", "moebius", "-h"], "error"),
    (["construct", "hesse4", "--p", "x", "-h"], "error"),
    (["demo", "nope", "--help"], "error"),
    # help takes no value
    (["--help=x"], "error"),
    (["construct", "--help=1"], "error"),
])
def test_named_lines(argv, want):
    assert argparse_reading(argv) == new_reading(argv) == want


@pytest.mark.parametrize("flag", ["--h", "--he", "--hel"])
def test_help_abbreviations_are_errors(flag):
    for argv in ([flag], ["construct", flag], ["verify", flag]):
        assert argparse_reading(argv) == "help"
        assert new_reading(argv) == "error"
        code, out, err = run_main(*argv)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, name, value", [
    (["construct", "hesse4", "--p=--"], "p", []),
    (["construct", "triangular", "--n=--", "--n", "3", "--p", "7"], "n", 3),
])
def test_explicit_dash_dash_value_is_an_error(argv, name, value):
    # argparse up to 3.12 reads "--n=--" as n = []; from 3.13 it refuses it
    reading = argparse_reading(argv)
    assert reading == "error" or reading[1][name] == value
    assert new_reading(argv) == "error"
    code, out, err = run_main(*argv)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
