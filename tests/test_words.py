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
    RewriteSystem,
    Word,
    apply_D,
    d_power_leading,
    drbl_nf,
    enumerate_words,
    format_term,
    make_rule,
    occurrences,
    parse_poly,
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
    context_at,
    lex_cmp,
    subword_runs,
    substitute,
)
from oracles import concat, oracle_subword_runs, underlying_word


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


def test_d_prime_keys_intern_no_words():
    # D^i(h) keys as (degree, 0, key of the one-prime word D^(i-1)(h)),
    # built from the inner prime's key: no word is made or memoised
    fresh = make_alphabet(2)
    assert fresh.prime_key(Prime(5, "x1"))[:2] == (6, 0)
    assert fresh._word_keys == {}
    config = AlgebraConfig(make_alphabet(2), Fraction(1))
    assert DrblSystem(config).system(6).is_gsb("lie")
    alphabet, second = config.alphabet, make_alphabet(2)
    d_primes = [p for p in alphabet._prime_keys if p.d_power]
    assert {p.d_power for p in d_primes} == {1, 2, 3}
    assert any(type(p.head) is OpApp for p in d_primes)
    for p in d_primes:
        want = (p.degree, 0, second.key(Word((p.shifted(-1),))))
        assert alphabet.prime_key(p) == want


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


def _depth(w):
    """Nesting depth of operator arguments: 0 for a word without one."""
    return max(
        (1 + _depth(a) for p in w.primes if type(p.head) is OpApp for a in p.head.args),
        default=0,
    )


def test_subword_runs_and_context_at_match_the_closure_walk():
    # seeded words of degree <= 6 over two generators, half of them with an
    # operator inside an operator argument
    rng = random.Random(25)
    pool = all_words(A2, 6)
    nested = [w for w in pool if _depth(w) >= 2]
    sample = rng.sample(pool, 300) + rng.sample(nested, 300)
    assert len(nested) > 300
    deep = 0
    for w in sample:
        got = [(run, context_at(w.primes, where)) for run, where in subword_runs(w)]
        want = [(run, build()) for run, build in oracle_subword_runs(w)]
        assert got == want, w
        # for one run, the walk order is the order of ``occurrences``
        for run in dict.fromkeys(run for run, _ in got):
            at = [ctx for r, ctx in got if r == run]
            assert at == occurrences(w, Word(run)), (w, run)
            assert all(substitute(ctx, Word(run)) is w for ctx in at)
        deep += sum(
            type(ctx.core) is ArgHole and type(ctx.core.inner.core) is ArgHole
            for _, ctx in got
        )
    assert deep > 300


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


def test_enumerate_words_counts_a_binary_operator():
    # primes of degree d: D^(d-1) of the two generators, and D^k(Q(a, b))
    # with deg a + deg b = d - 1 - k; words of degree d: a prime of degree
    # k, then a word of degree d - k.  So the primes number 2, 2, 2 + 2·2
    # and 2 + (2·6 + 6·2) + 2·2, and the words 2, 2 + 2·2 = 6,
    # 6 + 2·6 + 2·2 = 22 and 30 + 2·22 + 2·6 + 6·2 = 98.
    alphabet = Alphabet(("x", "y"), (("Q", 2),))
    by_deg = enumerate_words(alphabet, 4)
    assert [len(by_deg[d]) for d in (1, 2, 3, 4)] == [2, 6, 22, 98]
    primes = {d: [w for w in by_deg[d] if len(w.primes) == 1] for d in by_deg}
    assert [len(primes[d]) for d in (1, 2, 3, 4)] == [2, 2, 6, 30]
    assert sorted(format_term(w) for w in primes[3]) == [
        "D^2(x)", "D^2(y)", "Q(x, x)", "Q(x, y)", "Q(y, x)", "Q(y, y)"
    ]
    # each argument pair once, the degree-1 argument on either side
    heads = [w.primes[0].head for w in primes[4] if w.primes[0].d_power == 0]
    assert len(heads) == len(set(heads)) == 24
    assert sorted(h.args[0].degree for h in heads) == [1] * 12 + [2] * 12
    assert [w.degree for w in by_deg[4]] == [4] * 98


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
    # Names no other test uses, so no alphabet's key memo holds the word.
    primes = (Prime(7, "late1"), Prime(0, "late2"))
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


def _x_word():
    return Word((Prime(0, "x"),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Alphabet(("x", "x")), ValueError, "names must be distinct"),
        (lambda: Alphabet(("x", "D")), ValueError, "the name D is reserved"),
        (
            lambda: Alphabet(("x",), (("P", 0),)),
            ValueError,
            "operator 'P' must take at least one argument",
        ),
        (
            lambda: A1.key(Word((Prime(0, "y"),))),
            ValueError,
            "unknown generator 'y'",
        ),
        (
            lambda: A1.key(Word((Prime(0, OpApp("Q", (_x_word(),))),))),
            ValueError,
            "unknown operator 'Q'",
        ),
        (
            lambda: A1.key(Word((Prime(0, OpApp("P", (_x_word(), _x_word()))),))),
            ValueError,
            r"operator 'P' expects 1 argument\(s\), got 2",
        ),
        (
            lambda: DrblSystem(AlgebraConfig(Alphabet(("x",)))),
            ValueError,
            "exactly one unary operator",
        ),
        (
            lambda: DrblSystem(AlgebraConfig(Alphabet(("x",), (("P", 2),)))),
            ValueError,
            "exactly one unary operator",
        ),
        (
            lambda: drbl_nf("x", DrblSystem(AlgebraConfig(A1))),
            TypeError,
            "cannot interpret 'x' as a Lie element",
        ),
        (lambda: format_term(1.5), TypeError, "cannot format 'float'"),
        (
            lambda: make_rule(AlgebraConfig(A1), Poly.zero()),
            ValueError,
            "rules must be nonzero",
        ),
        (
            lambda: RewriteSystem(
                AlgebraConfig(A1),
                [make_rule(AlgebraConfig(A1, 1), parse_poly("x", A1))],
                3,
            ),
            ValueError,
            "a rule was made under another configuration",
        ),
        (
            lambda: RewriteSystem(AlgebraConfig(A1), [], 3).reduce(
                parse_poly("x", A1), mode="lie-ish"
            ),
            ValueError,
            "mode must be 'assoc' or 'lie'",
        ),
        (
            lambda: RewriteSystem(AlgebraConfig(A1), [], 3).enumerate_irr("lie-ish"),
            ValueError,
            "mode must be 'assoc' or 'lie'",
        ),
        (lambda: make_alphabet(0), ValueError, "need at least one generator"),
    ],
)
def test_bad_inputs_raise_their_named_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_every_public_name_resolves_once_in_sorted_order():
    import shirshov

    names = shirshov.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(shirshov, name) is not None, name
