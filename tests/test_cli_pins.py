"""Pinned command-line outputs, one row per command.

A row is (argv as a shell line, exit status, stdout, stderr), run in-process
through ``cli.main``; stdout may be read from ``golden/``.  Outputs must not
depend on the hash seed, so CI runs this file once more under
PYTHONHASHSEED=0 and once under 1, from a copy of the package, this file,
``golden/``, ``test_readme.py`` and README.md outside the checkout: the
package must print every row with nothing of ``tests/`` importable.  A new
pin is a new row here.
"""

import argparse
import shlex
from pathlib import Path

import pytest

from shirshov.cli import MAX_GENS, build_parser, main


def degrees(*counts):
    """``degree d: n`` lines for d = 1, 2, …"""
    return "".join("degree %d: %d\n" % (d, n) for d, n in enumerate(counts, 1))


class Counts(str):
    """A listing's ``degree d: n`` lines; its indented terms are not compared."""


def passed(header, n):
    return "%s\npass: all %d compositions reduce to 0\n" % (header, n)


def golden(name):
    return (Path(__file__).resolve().parent / "golden" / name).read_text()


def with_and_without_trace(argv, expr, out, err):
    """The plain row, then the ``--trace`` row: the same stdout, the log on
    stderr."""
    return [
        ("%s '%s'" % (argv, expr), 0, out, ""),
        ("%s --trace '%s'" % (argv, expr), 0, out, err),
    ]


FRACTIONAL = "5/3 [D(P(x1)) P(x2)] - 7/2 D^2(P([x1 x2]))"
TRACED = "[D(P([x1 x2])) x1] + [P(x1) P(x2)] + D^2(P(x1))"
UNKNOWN_X0 = "error: unknown symbol 'x0' (at position 0)\n"
NOT_LYNDON = "error: not a Lyndon-Shirshov word: x2 * x1\n"

PINS = [
    ("oracle-dim --gens 2 --lambda 1 --max-deg 6", 0,
     degrees(2, 5, 17, 57, 211, 785), ""),
    ("oracle-dim --gens 2 --lambda 0 --max-deg 7", 0,
     degrees(2, 5, 17, 57, 211, 785, 3069), ""),
    ("oracle-dim --gens 1 --lambda 1/2 --max-deg 7", 0,
     degrees(1, 2, 5, 12, 32, 83, 230), ""),
    ("oracle-dim --gens 1 --lambda 1 --max-deg 3", 0, degrees(1, 2, 5), ""),
    ("oracle-dim --gens 1 --lambda 1 --max-deg 5", 0,
     degrees(1, 2, 5, 12, 32), ""),
    ("basis --gens 2 --max-deg 7", 0,
     Counts(degrees(2, 5, 17, 57, 211, 785, 3069)), ""),
    ("basis --gens 3 --max-deg 6", 0,
     Counts(degrees(3, 9, 38, 161, 749, 3555)), ""),
    ("basis --gens 1 --max-deg 9", 0,
     Counts(degrees(1, 2, 5, 12, 32, 83, 230, 637, 1815)), ""),
    ("basis --gens 1 --max-deg 4", 0, Counts(degrees(1, 2, 5, 12)), ""),
    ("basis --gens 1 --lambda 1 --max-deg 3", 0,
     "degree 1: 1\n  x1\n"
     "degree 2: 2\n  D(x1)\n  P(x1)\n"
     "degree 3: 5\n  D^2(x1)\n  P(D(x1))\n  P(P(x1))\n  [D(x1) x1]\n"
     "  [P(x1) x1]\n", ""),
    ("lyndon --gens 2 --max-deg 2", 0,
     "degree 1: 2\n  x2\n  x1\n"
     "degree 2: 3\n  D(x2)\n  D(x1)\n  x1 * x2\n", ""),
    ("lyndon --gens 2 --max-deg 4", 0, Counts(degrees(2, 3, 8, 18)), ""),
    # the generator cap is accepted
    ("lyndon --gens %d --max-deg 1" % MAX_GENS, 0, Counts(degrees(MAX_GENS)), ""),
    ("nf --max-deg 1 x%d" % MAX_GENS, 0, "x%d\n" % MAX_GENS, ""),
    # a bare rational must be zero
    ("nf --max-deg 1 0", 0, "0\n", ""),
    ("nf --lambda 1 --mode lie --max-deg 4 '[P(x1) P(x2)]'", 0,
     "P([P(x1) x2]) - P([P(x2) x1]) + P([x1 x2])\n", ""),
    ("nf --lambda 1 --max-deg 6"
     " '[D(x1) P([x1 x2])] - 3/2 [P(x1) P(x2)] + [x1 [x1 x2]]'", 0,
     "-[P([x1 x2]) D(x1)] - 3/2 P([P(x1) x2]) + 3/2 P([P(x2) x1])"
     " + [x1 [x1 x2]] - 3/2 P([x1 x2])\n", ""),
    ("nf --lambda 1 --max-deg 4"
     " '[P(x1) P(x2)] - P([P(x1) x2]) + P([P(x2) x1]) - P([x1 x2])'", 0,
     "0\n", ""),
    ("nf --lambda 1 --max-deg 5 '1/2 [x1 x2] - 1/3 [P(x1) x2]"
     " + 5/6 P(1/2 x1 - 3/4 x2) + 1/6 [x1 x2]'", 0,
     "-1/3 [P(x1) x2] + 2/3 [x1 x2] + 5/12 P(x1) - 5/8 P(x2)\n", ""),
    ("nf --mode assoc --lambda 1 --max-deg 6"
     " '[D(x1) P([x1 x2])] - 3/2 [P(x1) P(x2)]'", 0,
     "-P(x1 x2) * D(x1) + P(x2 x1) * D(x1) + D(x1) * P(x1 x2)"
     " - D(x1) * P(x2 x1) - 3/2 P(P(x1) x2) + 3/2 P(P(x2) x1)"
     " - 3/2 P(x1 P(x2)) + 3/2 P(x2 P(x1)) - 3/2 P(x1 x2) + 3/2 P(x2 x1)\n", ""),
    ("nf --mode assoc --lambda 0 --max-deg 9"
     " 'D^3(P([x1 x2])) - [P(x1) P(D(x2))]'", 0,
     "P(P(D(x2)) x1) - P(P(x1) D(x2)) + P(D(x2) P(x1)) - P(x1 P(D(x2)))"
     " + D^2(x1) * x2 - D^2(x2) * x1 + 2 D(x1) * D(x2) - 2 D(x2) * D(x1)"
     " + x1 * D^2(x2) - x2 * D^2(x1)\n", ""),
    # an expression that starts with a minus sign goes after "--";
    # argparse reads it as an option otherwise
    ("nf --max-deg 6 -- '-D(P(x1))'", 0, "-x1\n", ""),
    ("nf --max-deg 6 '-D(P(x1))'", 2, "",
     "usage: shirshov nf [-h] [--lambda WEIGHT] [--mode {lie,assoc}]"
     " --max-deg MAX_DEG [--trace] expr\n"
     "shirshov nf: error: the following arguments are required: expr\n"),
    ("nf --lambda 1 --max-deg 4 --trace '[P(x1) P(x2)]'", 0,
     "P([P(x1) x2]) - P([P(x2) x1]) + P([x1 x2])\n",
     "step 1: rota-baxter(x1, x2); lift 0; context *; coefficient 1\n"),
    ("nf --lambda 1 --max-deg 6 --trace '[x2 P([D(P(x1)) x2])]'", 0,
     "-[P([x1 x2]) x2]\n",
     "step 1: section(x1); lift 0; context P(* x2) * x2; coefficient -1\n"),
    ("nf --mode assoc --lambda 0 --max-deg 8 --trace 'D(P(x2 D(P(x1))))'", 0,
     "D(P(x2 x1))\n",
     "step 1: section(x1); lift 0; context D(P(x2 *)); coefficient 1\n"),
    ("nf --lambda 1 --max-deg 7 --trace"
     " '[D^2(x1) D^2(x2)] + D^3(P([P(x1) x1]))'", 0,
     "D^3(P([x1 x2])) - [D^2(x1) P(x1)] - [D^2(x1) D(x1)]"
     " - 2 [D^2(x1) D(x2)] + 2 [D^2(x2) D(x1)] - 2 [D^2(x1) x1]"
     " - [D^2(x1) x2] + [D^2(x2) x1] - 2 [D(x1) D(x2)] - [D(x1) x1]\n",
     "step 1: completion(P(x1) * x1, 2); lift 0; context *; coefficient 1\n"
     "step 2: section(x1 * x2); lift 2; context *; coefficient -1\n"),
    ("nf --mode assoc --lambda 1 --max-deg 7 --trace"
     " '[D^2(x1) D^2(x2)] + D^3(P([P(x1) x1]))'", 0,
     "D^3(P(x1 x2)) - D^3(P(x2 x1)) - D^2(x1) * P(x1) - D^2(x1) * D(x1)"
     " - 2 D^2(x1) * D(x2) + 2 D^2(x2) * D(x1) + P(x1) * D^2(x1)"
     " + D(x1) * D^2(x1) - 2 D(x1) * D^2(x2) + 2 D(x2) * D^2(x1)"
     " - 2 D^2(x1) * x1 - D^2(x1) * x2 + D^2(x2) * x1 - 2 D(x1) * D(x2)"
     " + 2 D(x2) * D(x1) + 2 x1 * D^2(x1) - x1 * D^2(x2) + x2 * D^2(x1)"
     " - D(x1) * x1 + x1 * D(x1)\n",
     "step 1: completion(P(x1) * x1, 2); lift 0; context *; coefficient 1\n"
     "step 2: section(x1 * x2); lift 2; context *; coefficient -1\n"),
    ("nf --lambda 1/2 --max-deg 7 --trace '%s'" % FRACTIONAL, 0,
     "-7/4 [D(x1) D(x2)] - 5/3 [P(x2) x1] - 7/2 [D(x1) x2]"
     " + 7/2 [D(x2) x1]\n",
     "step 1: section(x1); lift 0; context * * P(x2); coefficient 5/3\n"
     "step 2: section(x1 * x2); lift 1; context *; coefficient -7/2\n"),
    ("nf --mode assoc --lambda 1/2 --max-deg 6 --trace '%s'" % FRACTIONAL, 0,
     "-7/4 D(x1) * D(x2) + 7/4 D(x2) * D(x1) - 5/3 P(x2) * x1"
     " - 7/2 D(x1) * x2 + 7/2 D(x2) * x1 + 5/3 x1 * P(x2)"
     " - 7/2 x1 * D(x2) + 7/2 x2 * D(x1)\n",
     "step 1: section(x1); lift 0; context * * P(x2); coefficient 5/3\n"
     "step 2: section(x1); lift 0; context P(x2) * *; coefficient -5/3\n"
     "step 3: section(x1 * x2); lift 1; context *; coefficient -7/2\n"),
    *with_and_without_trace(
        "nf --lambda 1 --mode lie --max-deg 5", TRACED,
        "P([P(x1) x2]) - P([P(x2) x1]) - [x1 [x1 x2]] + P([x1 x2]) + D(x1)\n",
        "step 1: section(x1 * x2); lift 0; context * * x1; coefficient 1\n"
        "step 2: rota-baxter(x1, x2); lift 0; context *; coefficient 1\n"
        "step 3: section(x1); lift 1; context *; coefficient 1\n"),
    *with_and_without_trace(
        "nf --lambda 1 --mode assoc --max-deg 5", TRACED,
        "P(P(x1) x2) - P(P(x2) x1) + P(x1 P(x2)) - P(x2 P(x1))"
        " - x1 * x1 * x2 + 2 x1 * x2 * x1 - x2 * x1 * x1 + P(x1 x2)"
        " - P(x2 x1) + D(x1)\n",
        "step 1: section(x1 * x2); lift 0; context * * x1; coefficient 1\n"
        "step 2: section(x1 * x2); lift 0; context x1 * *; coefficient -1\n"
        "step 3: rota-baxter(x1, x2); lift 0; context *; coefficient 1\n"
        "step 4: section(x1); lift 1; context *; coefficient 1\n"),
    ("nf --max-deg 3 '[P(x1 x2) x1]'", 2, "",
     "error: expected ')', found 'x2' (at position 6)\n"),
    ("nf --max-deg 3 'P('", 2, "",
     "error: expected a factor, found 'end of input' (at position 2)\n"),
    ("nf --max-deg 4 x0", 2, "", UNKNOWN_X0),
    # an index with a leading zero names no generator
    ("nf --max-deg 2 x0001", 2, "",
     "error: unknown symbol 'x0001' (at position 0)\n"),
    ("nf --mode assoc --max-deg 2 'P(P(x1))'", 2, "",
     "error: degree 3 exceeds --max-deg 2\n"),
    ("nf --mode lie --max-deg 2 'P(P(x1))'", 2, "",
     "error: degree 3 exceeds the requested bound 2\n"),
    ("bracket 'x1 x1 x2'", 0, "[x1 [x1 x2]]\n", ""),
    ("bracket 'P(x1 x2) D(x1) x2'", 0, "[P([x1 x2]) [D(x1) x2]]\n", ""),
    # a word, or an operator argument at any depth, that is not
    # Lyndon-Shirshov is refused with status 1 and named
    ("bracket 'x2 x1'", 1, "", NOT_LYNDON),
    ("bracket 'P(x2 x1)'", 1, "", NOT_LYNDON),
    ("bracket 'P(x2 x1) x1'", 1, "", NOT_LYNDON),
    ("bracket x0", 2, "", UNKNOWN_X0),
    ("check-gsb --system drbl --gens 1 --max-deg 5", 0,
     passed("system=drbl gens=1 lambda=0 max-deg=5 mode=lie", 1), ""),
    ("check-gsb --system drbl --lambda 1 --max-deg 5", 0,
     passed("system=drbl gens=2 lambda=1 max-deg=5 mode=lie", 2), ""),
    ("check-gsb --system drbl --gens 1 --lambda 1 --max-deg 7", 0,
     passed("system=drbl gens=1 lambda=1 max-deg=7 mode=lie", 51), ""),
    ("check-gsb --system drbl --gens 2 --lambda 1 --max-deg 7", 0,
     passed("system=drbl gens=2 lambda=1 max-deg=7 mode=lie", 203), ""),
    ("check-gsb --system drbl --gens 2 --lambda 1/2 --max-deg 7", 0,
     passed("system=drbl gens=2 lambda=1/2 max-deg=7 mode=lie", 203), ""),
    ("check-gsb --system drbl --gens 2 --lambda -1/2 --max-deg 7", 0,
     passed("system=drbl gens=2 lambda=-1/2 max-deg=7 mode=lie", 203), ""),
    ("check-gsb --system drbl --gens 1 --lambda 2 --max-deg 7", 0,
     passed("system=drbl gens=1 lambda=2 max-deg=7 mode=lie", 51), ""),
    ("check-gsb --system drbl --gens 2 --lambda 0 --max-deg 7", 0,
     passed("system=drbl gens=2 lambda=0 max-deg=7 mode=lie", 245), ""),
    ("check-gsb --system drbl --gens 2 --lambda 0 --max-deg 8", 0,
     passed("system=drbl gens=2 lambda=0 max-deg=8 mode=lie", 1527), ""),
    ("check-gsb --system drbl --gens 2 --lambda 0 --max-deg 9", 0,
     passed("system=drbl gens=2 lambda=0 max-deg=9 mode=lie", 8945), ""),
    ("check-gsb --system s1 --gens 2 --lambda 0 --max-deg 7", 0,
     passed("system=s1 gens=2 lambda=0 max-deg=7 mode=assoc", 107), ""),
    ("check-gsb --system s1 --gens 2 --lambda 1/2 --max-deg 6", 0,
     passed("system=s1 gens=2 lambda=1/2 max-deg=6 mode=assoc", 17), ""),
    ("check-gsb --system s1 --gens 2 --lambda 1 --max-deg 6", 0,
     passed("system=s1 gens=2 lambda=1 max-deg=6 mode=assoc", 17), ""),
    ("check-gsb --system s1 --lambda 0 --max-deg 5", 0,
     passed("system=s1 gens=2 lambda=0 max-deg=5 mode=assoc", 2), ""),
    # the 12 compositions the s1 rules leave uncertified at degree 7, each
    # with its residue; completing the s1 subsystem changes these files
    ("check-gsb --system s1 --gens 2 --lambda 1 --max-deg 7", 1,
     golden("check_gsb_s1_lambda_1_deg7.txt"), ""),
    ("check-gsb --system s1 --gens 2 --lambda 1/2 --max-deg 7", 1,
     golden("check_gsb_s1_lambda_1_2_deg7.txt"), ""),
]


@pytest.mark.parametrize("argv, status, out, err", PINS, ids=[r[0] for r in PINS])
def test_pinned_output(capsys, monkeypatch, argv, status, out, err):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "200")
    try:
        got = main(shlex.split(argv))
    except SystemExit as e:  # a usage error
        got = e.code
    seen = capsys.readouterr()
    text = seen.out
    if isinstance(out, Counts):
        text = "".join(s for s in text.splitlines(True) if not s.startswith("  "))
    assert (got, text, seen.err) == (status, out, err)


def test_no_command_is_pinned_twice():
    argvs = [tuple(shlex.split(row[0])) for row in PINS]
    assert [a for a in argvs if argvs.count(a) > 1] == []


def test_every_subcommand_has_a_row():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(sub.choices) - {shlex.split(row[0])[0] for row in PINS} == set()
