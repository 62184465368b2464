"""Term language: degrees, orders, contexts, occurrence search."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    Context,
    DrblSystem,
    OpApp,
    Poly,
    Prime,
    Word,
    apply_D,
    d_power_leading,
    enumerate_words,
    occurrences,
    parse_term,
    parse_word,
)
from shirshov import words
from shirshov.cli import make_alphabet
from shirshov.words import (
    ArgHole,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    concat,
    lex_cmp,
    substitute,
    underlying_word,
)


A1 = Alphabet(("x",), (("P", 1),))
A2 = Alphabet(("x", "y"), (("P", 1),))


def all_words(alphabet, max_degree):
    by_deg = enumerate_words(alphabet, max_degree)
    return [w for d in sorted(by_deg) for w in by_deg[d]]


def test_degree_and_breadth():
    w = parse_word("D^2(P(x y)) * x", A2)
    # prime D^2(P(xy)): 2 + (1 + 2) = 5, plus generator 1
    assert w.degree == 6
    assert w.breadth == 2
    assert w.primes[0].d_power == 2
    assert w.primes[0].head == OpApp("P", (parse_word("x y", A2),))


def test_d_zero_is_identified_with_bare_head():
    assert parse_word("D^0(x)", A1) == parse_word("x", A1)
    p = Prime(0, "x")
    assert p.shifted(0) is p
    assert p.shifted(2) == Prime(2, "x")
    with pytest.raises(ValueError):
        Prime(-1, "x")


def test_words_are_nonempty():
    with pytest.raises(ValueError):
        Word(())


def test_deglex_degree_then_breadth_then_primes():
    key = A2.key
    # degree decides first
    assert key(parse_word("D^2(x)", A2)) > key(parse_word("x y", A2))
    # equal degree: larger breadth wins
    assert key(parse_word("x y", A2)) > key(parse_word("D(x)", A2))
    assert key(parse_word("D^2(x) * D^2(y)", A2)) > key(
        parse_word("D^3(P(x y))", A2)
    )
    # equal degree and breadth: prime-by-prime, operator above D
    assert key(parse_word("P(x)", A2)) > key(parse_word("D(x)", A2))
    assert key(parse_word("P(y)", A2)) > key(parse_word("D(x)", A2))
    # generators descend x > y
    assert key(parse_word("x", A2)) > key(parse_word("y", A2))
    # operator arguments compare recursively
    assert key(parse_word("P(x)", A2)) > key(parse_word("P(y)", A2))
    assert key(parse_word("D(P(x))", A2)) > key(parse_word("D(P(y))", A2))


def test_deglex_total_order_exhaustive():
    words = all_words(A2, 4)
    key = A2.key
    keys = [key(w) for w in words]
    # totality and antisymmetry: distinct words get distinct comparable keys
    seen = {}
    for w, k in zip(words, keys):
        assert k not in seen, (w, seen[k])
        seen[k] = w
    # transitivity on a seeded sample of triples
    rng = random.Random(2024)
    for _ in range(20000):
        a, b, c = (rng.choice(keys) for _ in range(3))
        if a > b and b > c:
            assert a > c


def test_lex_proper_prefix_is_greater():
    x = parse_word("x", A2)
    xy = parse_word("x y", A2)
    assert lex_cmp(x, xy, A2) > 0
    assert lex_cmp(xy, x, A2) < 0
    # empty word (None) ranks above everything
    assert lex_cmp(None, x, A2) > 0
    assert lex_cmp(x, None, A2) < 0
    # first differing prime decides
    assert lex_cmp(parse_word("x y", A2), parse_word("y x", A2), A2) > 0


def test_substitute_bare_hole_splices():
    ctx = Context((Prime(0, "x"),), Hole(0), (Prime(0, "y"),))
    w = substitute(ctx, parse_word("P(x) y", A2))
    assert w == parse_word("x P(x) y y", A2)
    assert not ctx.is_identity


def test_substitute_wrapped_hole_requires_one_prime():
    # holes are bare: D^2 around the filler is written into the filler
    with pytest.raises(ValueError, match="D-lift"):
        Context((), Hole(2), (Prime(0, "y"),))
    ctx = Context((), Hole(0), (Prime(0, "y"),))
    w = substitute(ctx, parse_word("D^2(P(x))", A2))
    assert w == parse_word("D^2(P(x)) y", A2)


def test_occurrences_top_level_and_nested():
    w = parse_word("P(x) x P(x)", A1)
    p = parse_word("P(x)", A1)
    occ = occurrences(w, p)
    assert len(occ) == 2  # the two top-level positions
    filled = [substitute(c, p) for c in occ]
    assert all(f == w for f in filled)

    w2 = parse_word("P(P(x) x) x", A1)
    occ2 = occurrences(w2, p)
    assert len(occ2) == 1  # inside the operator argument only
    assert substitute(occ2[0], p) == w2

    big = parse_word("D(P(D(P(x))))", A1)
    inner = parse_word("D(P(x))", A1)
    occ = occurrences(big, inner)
    assert len(occ) == 1
    assert substitute(occ[0], inner) == big


def test_occurrences_of_multi_prime_run():
    w = parse_word("x y x y", A2)
    p = parse_word("x y", A2)
    occ = occurrences(w, p)
    assert len(occ) == 2
    assert all(substitute(c, p) == w for c in occ)


def test_enumerate_words_counts_small():
    by_deg = enumerate_words(A1, 3)
    assert [len(by_deg[d]) for d in (1, 2, 3)] == [1, 3, 10]
    # deg-lex sorted ascending within each degree
    key = A1.key
    for d in (1, 2, 3):
        ks = [key(w) for w in by_deg[d]]
        assert ks == sorted(ks)
    # spot the degree-2 stratum exactly (ascending: breadth 1 before 2)
    assert [repr(w) for w in by_deg[2]] == ["D(x)", "P(x)", "x * x"]


def test_only_bare_holes():
    assert Hole(0) is Hole(0)
    for k in (1, 2):
        with pytest.raises(ValueError, match="D-lift"):
            Hole(k)


def test_context_equality_and_hash():
    c1 = Context((Prime(0, "x"),), Hole(0), ())
    c2 = Context((Prime(0, "x"),), Hole(0), ())
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1 != Context((), Hole(0), (Prime(0, "x"),))


# ---------------------------------------------------------------------------
# Interning: one object per word.


def _table_sizes():
    return (
        len(words._WORDS),
        sum(len(t) for t in words._PRIMES.values()),
        sum(len(t) for t in words._OPAPPS.values()),
        len(words._ARGHOLES),
        len(words._CONTEXTS),
        len(words._NAOPS),
        len(words._NALEAVES),
        len(words._NAPAIRS),
    )


def test_equal_words_built_by_different_routes_are_one_object():
    x, y = Prime(0, "x"), Prime(0, "y")
    target = Word((Prime(1, OpApp("P", (Word((x, y)),))), y))
    assert Word([Prime(1, OpApp("P", [Word([x, y])])), y]) is target
    assert concat(parse_word("D(P(x y))", A2), Word((y,))) is target
    ctx = Context((), Hole(0), (y,))
    assert substitute(ctx, parse_word("D(P(x y))", A2)) is target
    p = parse_word("P(x y)", A2).primes[0]
    assert Word((p.shifted(1), y)) is target
    assert p.shifted(1) is target.primes[0]
    assert p.shifted(1).head is p.head
    config = AlgebraConfig(A2, 0)
    assert d_power_leading(config, parse_word("P(x y) y", A2), 1)[0] is target
    node = parse_term("[D(P([x y])) y]", A2)
    assert underlying_word(node) is target
    image = apply_D(config, Poly({parse_word("P(x y) y", A2): Fraction(1)}))
    assert any(w is target for w in image.terms)
    assert parse_word("D(P(x y)) y", A2) is target


def test_interned_objects_survive_copy_and_pickle_as_themselves():
    w = parse_word("D^2(P(x P(y))) x", A2)
    [nested] = occurrences(parse_word("x P(y P(x y))", A2), parse_word("x y", A2))
    assert type(nested.core.inner.core) is ArgHole
    t = parse_term("[x D(P([x y]))]", A2)
    for obj in (w, w.primes[0], w.primes[0].head, nested, t, t.right, t.right.head):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj


def test_a_pickle_from_another_hash_seed_loads_as_the_interned_objects():
    # a hash cached in the object would travel with the pickle and go stale
    dump = "\n".join([
        "import pickle, sys",
        "from shirshov import occurrences, parse_term, parse_word",
        "from shirshov.cli import make_alphabet",
        "A = make_alphabet(2)",
        "t = parse_term('[x1 P([x1 x2])]', A)",
        "[ctx] = occurrences(parse_word('x1 P(x1 x2) x2', A), parse_word('x1 x2', A))",
        "sys.stdout.write(pickle.dumps((t, ctx)).hex())",
    ])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-c", dump],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
    )
    t, ctx = pickle.loads(bytes.fromhex(run.stdout))
    A = make_alphabet(2)
    assert parse_term("[x1 P([x1 x2])]", A) is t
    [fresh] = occurrences(parse_word("x1 P(x1 x2) x2", A), parse_word("x1 x2", A))
    assert fresh is ctx


def test_invalid_constructions_raise_and_intern_nothing():
    before = _table_sizes()
    with pytest.raises(ValueError, match="words are nonempty"):
        Word(())
    with pytest.raises(ValueError, match="negative D power"):
        Prime(-1, "x")
    with pytest.raises(ValueError, match="negative D power"):
        Prime(-3, "fresh-generator")
    with pytest.raises(ValueError, match="needs at least one argument"):
        OpApp("P", ())
    with pytest.raises(ValueError, match="needs at least one argument"):
        OpApp("fresh-operator", [])
    assert _table_sizes() == before
    assert -1 not in words._PRIMES and -3 not in words._PRIMES
    assert "fresh-operator" not in words._OPAPPS


def test_dropped_words_leave_the_intern_tables():
    def job():
        # Names no other test uses, so every word of the job is new.
        alphabet = Alphabet(("leak1", "leak2"), (("Q", 1),))
        engine = DrblSystem(AlgebraConfig(alphabet, 0)).system(7)
        return len(engine.lifted), _table_sizes()

    gc.collect()
    before = _table_sizes()
    lifted, during = job()
    assert lifted > 0 and during[0] > before[0] + 1000
    gc.collect()
    assert _table_sizes() == before


def test_a_late_callback_keeps_the_entry_filed_since():
    primes = (Prime(7, "x"), Prime(0, "y"))
    w = Word(primes)
    old_ref = words._WORDS[primes]
    assert old_ref() is w
    del w
    assert primes not in words._WORDS
    w = Word(primes)
    new_ref = words._WORDS[primes]
    # The old word's callback, had it run late, must not drop the new entry.
    words._forget(old_ref)
    assert words._WORDS[primes] is new_ref and new_ref() is w


def test_word_is_not_equal_to_its_primes():
    w = parse_word("x y", A2)
    assert w != w.primes and w.primes != w
    assert w.primes[0] != (0, "x")
    assert w.primes[0].head == "x"
    assert {w: 1}.get(w.primes) is None


def test_identity_is_equality():
    for cls in (Word, Prime, OpApp, Context, ArgHole, NaOp, NaLeaf, NaPair):
        assert "__eq__" not in vars(cls)
        assert "_hash" not in cls.__slots__
    u = parse_word("P(x) y", A2)
    v = parse_word("P(x) y", A2)
    assert u is v and hash(u) == object.__hash__(u)
    x, y = Prime(0, "x"), Prime(0, "y")
    builders = (
        lambda: Context((x,), Hole(0), [y]),
        lambda: ArgHole(1, "P", (), Context((), Hole(0), (y,)), [parse_word("x", A2)]),
        lambda: NaOp("P", [NaLeaf(0, "x")]),
        lambda: NaLeaf(2, NaOp("P", (NaLeaf(0, "x"),))),
        lambda: NaPair(NaLeaf(0, "x"), NaPair(NaLeaf(0, "x"), NaLeaf(0, "y"))),
    )
    for build in builders:
        u = build()
        v = build()
        assert u is v and hash(u) == object.__hash__(u)
