"""The context printer: a one-hole context prints as its word with ``*`` in
the hole, at top level, inside operator arguments and under D powers."""

import gc

import pytest

import shirshov.words as words
from shirshov import Alphabet, parse_word
from shirshov.cli import make_alphabet
from shirshov.syntax import format_context, format_term
from shirshov.words import ArgHole, Context, Hole, Prime, Word

AB = Alphabet(("x", "y"), (("B", 2), ("P", 1)))
x, y = Prime(0, "x"), Prime(0, "y")


def _table_sizes():
    return (
        len(words._WORDS),
        sum(len(t) for t in words._PRIMES.values()),
        sum(len(t) for t in words._OPAPPS.values()),
        len(words._ARGHOLES),
        len(words._CONTEXTS),
    )


def _contexts():
    x2 = parse_word("x2", make_alphabet(2)).primes[0]
    return [
        (Context((), Hole(0), ()), "*"),
        (
            Context((y,), ArgHole(2, "B", (Word((x,)),), Context((x,), Hole(0), ()), ()), (x,)),
            "y * D^2(B(x, x *)) * x",
        ),
        (
            Context((), ArgHole(0, "B", (), Context((), Hole(0), ()), (parse_word("y x", AB),)), ()),
            "B(*, y x)",
        ),
        (
            Context((), ArgHole(1, "P", (), Context((x2,), Hole(0), ()), ()), ()),
            "D(P(x2 *))",
        ),
    ]


@pytest.mark.parametrize("index", range(4))
def test_each_hole_position_prints_exactly(index):
    ctx, want = _contexts()[index]
    assert format_context(ctx) == want
    assert format_term(ctx) == repr(ctx) == want


def test_printing_a_context_leaves_nothing_interned():
    contexts = _contexts()
    gc.collect()
    before = _table_sizes()
    for ctx, want in contexts:
        assert format_context(ctx) == want
    gc.collect()
    assert _table_sizes() == before
    # the word that fills the hole is built per call, never held
    assert "*" not in words._PRIMES.get(0, {})
