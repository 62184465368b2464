"""Lyndon-Shirshov words, standard bracketings, isolating bracketings."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    NaLeaf,
    NaOp,
    NaPair,
    Poly,
    enumerate_alsw,
    enumerate_alsw_by_degree,
    is_alsw,
    is_alsw_hereditary,
    leading,
    lie_expand,
    ls_factorization,
    occurrences,
    parse_poly,
    parse_word,
    shirshov_bracket,
    special_expand,
)
from shirshov import lyndon, rota_baxter, words
from shirshov.cli import make_alphabet
from shirshov.lyndon import _LEFT, _RIGHT, _spine, _standard_split
from shirshov.rota_baxter import DrblSystem, s1_rules
from shirshov.words import (
    ArgHole,
    Context,
    Hole,
    Prime,
    Word,
    context_at,
    enumerate_words,
    subword_runs,
    substitute,
)
from oracles import (
    _oracle_is_alsw,
    concat,
    fill_mark,
    oracle_all_bracketings,
    oracle_enumerate_alsw_by_degree,
    oracle_lyndon_count,
    oracle_special_expand,
    special_template,
)


A1 = Alphabet(("x",), (("P", 1),))
A2 = Alphabet(("x", "y"), (("P", 1),))
PURE2 = Alphabet(("x", "y"))
PURE3 = Alphabet(("x", "y", "z"))


def w(s, alphabet=A2):
    return parse_word(s, alphabet)


@dataclass(frozen=True)
class SpecialBracket:
    """A bracketing of ``word`` isolating a designated subword.

    ``bracketing`` carries the standard bracketing of the subword at the
    marked slot; ``expansion`` is ``special_expand`` with the subword as
    its own core.
    """

    word: Word
    bracketing: object
    expansion: Poly


def _graft(steps, node):
    """The bracketing the package's spine ``steps`` builds over ``node``."""
    for step in steps:
        kind = step[0]
        if kind is _LEFT:
            node = NaPair(node, step[1])
        elif kind is _RIGHT:
            node = NaPair(step[1], node)
        else:
            _, d_power, name, before, after = step
            node = NaLeaf(d_power, NaOp(name, before + (node,) + after))
    return node


def special_bracket(cfg, ctx, v):
    """Bracket ``ctx`` filled with ``v`` so the bracketing isolates ``v``.

    The expansion is certified by ``special_expand``: leading term exactly
    (filled word, 1).
    """
    expanded = special_expand(cfg, ctx, v, Poly.word(v))
    u = substitute(ctx, v)
    alphabet = cfg.alphabet
    bracketing = _graft(_spine(u, ctx, alphabet), shirshov_bracket(v, alphabet))
    return SpecialBracket(u, bracketing, expanded)


def test_is_alsw_examples():
    assert is_alsw(w("x y"), A2)
    assert not is_alsw(w("y x"), A2)
    assert not is_alsw(w("x x"), A2)
    assert is_alsw(w("x x y"), A2)
    assert not is_alsw(w("x y x"), A2)
    assert is_alsw(w("x"), A2)
    assert is_alsw(w("P(y x)"), A2)  # top level only looks at the run
    assert not is_alsw_hereditary(w("P(y x)"), A2)
    assert is_alsw_hereditary(w("P(x y)"), A2)
    assert is_alsw_hereditary(w("D(P(x)) P(x)"), A2)


def test_is_alsw_matches_rotation_oracle():
    by_deg = enumerate_words(A2, 4)
    for d in by_deg:
        for u in by_deg[d]:
            assert is_alsw(u, A2) == _oracle_is_alsw(u, A2)


def generators_only(alphabet):
    """Letter maker restricted to the bare generators (no D powers)."""

    def letters(d, alsw_by_deg):
        return [Prime(0, g) for g in alphabet.generators] if d == 1 else []

    return letters


def test_pure_generator_counts_match_necklace_oracle():
    for q, alphabet in ((2, PURE2), (3, PURE3)):
        by_deg = enumerate_alsw_by_degree(
            alphabet, 6, letters=generators_only(alphabet)
        )
        for n in range(1, 7):
            assert len(by_deg[n]) == oracle_lyndon_count(q, n)
    by_deg2 = enumerate_alsw_by_degree(PURE2, 8, letters=generators_only(PURE2))
    assert [len(by_deg2[n]) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_enumeration_matches_brute_filter():
    # the filter decides on a fresh alphabet, whose caches the enumeration
    # has not seeded; words are interned, so the two alphabets share them
    for gens, degree, counts in (
        (("x",), 6, (730, 255)),
        (("x", "y"), 5, (1134, 394)),
        (("x", "y", "z"), 4, (612, 241)),
    ):
        alphabet = Alphabet(gens, (("P", 1),))
        by_deg = enumerate_alsw_by_degree(alphabet, degree)
        fresh = Alphabet(gens, (("P", 1),))
        words = enumerate_words(fresh, degree)
        for d in range(1, degree + 1):
            brute = [u for u in words[d] if is_alsw_hereditary(u, fresh)]
            assert by_deg[d] == brute
        total = sum(map(len, words.values())), sum(map(len, by_deg.values()))
        assert total == counts


def test_enumerate_alsw_flat_and_sorted():
    cfg = AlgebraConfig(A2)
    flat = enumerate_alsw(cfg, 3)
    by_deg = enumerate_alsw_by_degree(A2, 3)
    assert flat == by_deg[1] + by_deg[2] + by_deg[3]


def test_letters_hook_restricts_language():
    # restricting the letters of the operator alphabet to bare generators
    # yields the same language as doing so without the operator at all
    restricted = enumerate_alsw_by_degree(A2, 5, letters=generators_only(A2))
    pure = enumerate_alsw_by_degree(PURE2, 5, letters=generators_only(PURE2))
    assert restricted == pure
    # the default letter maker also admits D-powered generators
    full = enumerate_alsw_by_degree(PURE2, 3)
    assert [len(full[n]) for n in (1, 2, 3)] == [2, 3, 8]
    assert all(len(full[n]) > len(pure[n]) for n in (2, 3))


@pytest.mark.parametrize(
    "gens, restricted",
    [(("x",), False), (("x", "y"), False), (("x", "y"), True)],
    ids=["full-1", "full-2", "generators-2"],
)
def test_enumeration_records_what_a_fresh_alphabet_decides(gens, restricted):
    alphabet = Alphabet(gens, (("P", 1),))
    letters = generators_only(alphabet) if restricted else None
    by_deg = enumerate_alsw_by_degree(alphabet, 7, letters=letters)
    fresh = Alphabet(gens, (("P", 1),))
    seen = 0
    for d in range(1, 8):
        for w in by_deg[d]:
            assert alphabet._alsw_cache[w] is True
            assert is_alsw(w, alphabet) is is_alsw(w, fresh) is True
            if w.breadth > 1:
                k = alphabet._split_cache[w]
                assert k == _standard_split(w.primes, fresh)
                seen += 1
            assert shirshov_bracket(w, alphabet) == shirshov_bracket(w, fresh)
    assert seen > 0
    assert not fresh._split_cache


@pytest.mark.parametrize("maker", ["default", "basis", "generators"])
@pytest.mark.parametrize("gens, degree", [(1, 7), (2, 7), (3, 6)])
def test_enumeration_matches_the_pairwise_oracle(gens, degree, maker):
    # the same words, as the same interned objects, and the same caches as
    # comparing every pair of smaller words
    def enumerate_with(enumerate_by_degree):
        alphabet = make_alphabet(gens)
        letters = None
        if maker == "basis":
            letters = rota_baxter._basis_letters(DrblSystem(AlgebraConfig(alphabet)))
        elif maker == "generators":
            letters = generators_only(alphabet)
        return alphabet, enumerate_by_degree(alphabet, degree, letters)

    alphabet, by_deg = enumerate_with(enumerate_alsw_by_degree)
    want_alphabet, want = enumerate_with(oracle_enumerate_alsw_by_degree)
    assert sorted(by_deg) == sorted(want)
    for d in want:
        assert len(by_deg[d]) == len(want[d])
        assert all(u is v for u, v in zip(by_deg[d], want[d]))
    assert alphabet._alsw_cache == want_alphabet._alsw_cache
    assert alphabet._split_cache == want_alphabet._split_cache
    assert alphabet._hereditary_cache == want_alphabet._hereditary_cache


def with_letter(alphabet, word):
    """Default letters plus the one-prime ``word`` as a letter of its degree."""
    default = words.default_letters(alphabet)

    def letters(d, alsw_by_deg):
        out = default(d, alsw_by_deg)
        return out + list(word.primes) if d == word.degree else out

    return letters


@pytest.mark.parametrize(
    "maker", ["default", "generators", "basis", "non-hereditary"]
)
def test_hereditary_cache_agrees_with_a_fresh_alphabet(maker):
    # the enumeration seeds the hereditary cache for its default letters
    # only; every entry, seeded or decided, matches a fresh alphabet's
    # answer, also when a custom letter is not hereditary itself
    alphabet = Alphabet(("x", "y"), (("P", 1),))
    letters = None
    if maker == "generators":
        letters = generators_only(alphabet)
    elif maker == "basis":
        letters = rota_baxter._basis_letters(DrblSystem(AlgebraConfig(alphabet)))
    elif maker == "non-hereditary":
        letters = with_letter(alphabet, w("P(y x)", alphabet))
    by_deg = enumerate_alsw_by_degree(alphabet, 4, letters=letters)
    cache = alphabet._hereditary_cache
    enumerated = [u for d in sorted(by_deg) for u in by_deg[d]]
    assert bool(cache) == (maker == "default")
    if maker == "default":
        assert set(cache) == set(enumerated)
    others = [
        w(t, alphabet)
        for t in ("P(y x)", "D(P(x)) P(x)", "y x", "x P(y x)", "P(P(y x))")
    ]
    assert (others[0] in enumerated) == (maker == "non-hereditary")
    for u in enumerated + others:
        is_alsw_hereditary(u, alphabet)
    fresh = Alphabet(("x", "y"), (("P", 1),))
    for u, known in cache.items():
        assert known is is_alsw_hereditary(u, fresh), u
    assert [cache[u] for u in others] == [False, True, False, False, False]


@pytest.mark.parametrize("gens", [1, 2])
@pytest.mark.parametrize("weight", [0, 1])
def test_section_rules_decide_no_parameter_again(monkeypatch, gens, weight):
    names = tuple("x%d" % (i + 1) for i in range(gens))
    counting = []
    real_cmp = words.lex_cmp_primes

    def counted(*args):
        if counting:
            counting.append(args)
        return real_cmp(*args)

    monkeypatch.setattr(lyndon, "lex_cmp_primes", counted)
    monkeypatch.setattr(words, "lex_cmp_primes", counted)
    real_enumerate = rota_baxter.enumerate_alsw

    def enumerate_then_count(config, max_degree):
        out = real_enumerate(config, max_degree)
        counting.append("on")
        return out

    monkeypatch.setattr(rota_baxter, "enumerate_alsw", enumerate_then_count)
    sys_ = DrblSystem(AlgebraConfig(Alphabet(names, (("P", 1),)), weight))
    rules = s1_rules(sys_, 8)
    assert len(rules) > 100
    assert counting == ["on"]
    # Live control: a fresh alphabet decides the same parameters by
    # comparing rotations.
    control = Alphabet(names, (("P", 1),))
    for rule in rules:
        rota_baxter._check_parameter(rule.origin[1], control)
    assert len(counting) > 1


def test_ls_factorization_examples():
    assert ls_factorization(w("y x"), A2) == [w("y"), w("x")]
    assert ls_factorization(w("x y x y"), A2) == [w("x y"), w("x y")]
    assert ls_factorization(w("x x y"), A2) == [w("x x y")]
    assert ls_factorization(w("y y x"), A2) == [w("y"), w("y"), w("x")]


def test_ls_factorization_unique_by_brute_force():
    def all_factorizations(primes):
        if not primes:
            yield []
            return
        for k in range(1, len(primes) + 1):
            head = Word = None
            head = primes[:k]
            from shirshov.words import Word as W

            if is_alsw(W(head), A2):
                for rest in all_factorizations(primes[k:]):
                    yield [W(head)] + rest

    from shirshov.words import lex_cmp

    by_deg = enumerate_words(A2, 4)
    for d in by_deg:
        for u in by_deg[d]:
            valid = [
                fs
                for fs in all_factorizations(u.primes)
                if all(
                    lex_cmp(a, b, A2) <= 0 for a, b in zip(fs, fs[1:])
                )
            ]
            assert len(valid) == 1
            assert ls_factorization(u, A2) == valid[0]
            assert concat(*valid[0]) == u


def test_shirshov_bracket_examples():
    b = shirshov_bracket(w("x x y"), A2)
    assert b == NaPair(NaLeaf(0, "x"), NaPair(NaLeaf(0, "x"), NaLeaf(0, "y")))
    assert repr(b) == "[x [x y]]"
    with pytest.raises(ValueError):
        shirshov_bracket(w("y x"), A2)


def test_shirshov_bracket_matches_exhaustive_search():
    cfg = AlgebraConfig(A2)
    for alphabet, bound in ((PURE2, 5), (A2, 4)):
        by_deg = enumerate_alsw_by_degree(alphabet, bound)
        for d in by_deg:
            for u in by_deg[d]:
                assert shirshov_bracket(u, alphabet) == oracle_all_bracketings(
                    u, alphabet
                )
                expansion = lie_expand(cfg, shirshov_bracket(u, alphabet))
                assert leading(cfg, expansion) == (u, Fraction(1))


def test_special_bracket_identity_context():
    cfg = AlgebraConfig(A2)
    u = w("x x y")
    ctx = Context((), Hole(0), ())
    sb = special_bracket(cfg, ctx, u)
    assert sb.word == u
    assert sb.bracketing == shirshov_bracket(u, A2)
    # the isolated subword enters the expansion as an atom, so the identity
    # context expands to the bare word
    assert sb.expansion == Poly.word(u)


def test_special_bracket_prefix_and_suffix_contexts():
    cfg = AlgebraConfig(A2)
    v = w("x y")
    left = Context((w("x").primes[0],), Hole(0), ())  # x · [v]
    sb1 = special_bracket(cfg, left, v)
    assert sb1.word == w("x x y")
    assert leading(cfg, sb1.expansion) == (w("x x y"), Fraction(1))
    right = Context((), Hole(0), (w("y").primes[0],))  # [v] · y
    sb2 = special_bracket(cfg, right, v)
    assert sb2.word == w("x y y")
    assert leading(cfg, sb2.expansion) == (w("x y y"), Fraction(1))


def test_special_bracket_nested_context():
    cfg = AlgebraConfig(A2)
    v = w("x y")
    big = w("P(x y)")
    ctx = occurrences(big, v)[0]
    sb = special_bracket(cfg, ctx, v)
    assert sb.word == big
    assert leading(cfg, sb.expansion) == (big, Fraction(1))
    deep = w("D(P(P(x y) x))")
    ctx2 = occurrences(deep, v)[0]
    sb2 = special_bracket(cfg, ctx2, v)
    assert sb2.word == deep
    assert leading(cfg, sb2.expansion) == (deep, Fraction(1))


def test_special_bracket_rejects_bad_inputs():
    cfg = AlgebraConfig(A2)
    with pytest.raises(ValueError):
        special_bracket(cfg, Context((), Hole(0), ()), w("y x"))
    # filled word y·x·y is not Lyndon-Shirshov
    ctx = Context((w("y").primes[0],), Hole(0), (w("y").primes[0],))
    with pytest.raises(ValueError):
        special_bracket(cfg, ctx, w("x"))


def test_special_expand_carries_core_coefficient():
    cfg = AlgebraConfig(A2, Fraction(1))
    v = w("x y")
    core = parse_poly("2 x y + y", A2)  # leading (x y, 2)
    ctx = Context((w("x").primes[0],), Hole(0), ())
    out = special_expand(cfg, ctx, v, core)
    assert leading(cfg, out) == (w("x x y"), Fraction(2))
    with pytest.raises(ValueError):
        special_expand(cfg, ctx, v, parse_poly("y x", A2))


def test_a_single_letter_has_no_standard_split():
    with pytest.raises(ValueError, match="no proper ALSW suffix; input is a single"):
        _standard_split(w("x").primes, A2)


def test_a_planted_alsw_test_that_knows_only_letters_fails_the_factorization(
    monkeypatch,
):
    # with only letters Lyndon-Shirshov, x y factors greedily as x, y, which
    # descends (x > y)
    monkeypatch.setattr(lyndon, "is_alsw", lambda u, alphabet: len(u.primes) == 1)
    with pytest.raises(AssertionError, match="factorization not non-decreasing"):
        ls_factorization(w("x y"), A2)


def test_a_planted_split_that_cuts_the_isolated_subword_fails_the_descent(
    monkeypatch,
):
    # x x y splits as x (x y); a split after x x cuts the isolated x y away
    # from its start
    monkeypatch.setattr(
        lyndon, "_standard_split", lambda primes, alphabet: len(primes) - 1
    )
    cfg = AlgebraConfig(A2)
    ctx = Context(w("x").primes, Hole(0), ())
    with pytest.raises(RuntimeError, match="subword straddles a standard split"):
        special_expand(cfg, ctx, w("x y"), Poly.word(w("x y")))


def test_special_expand_random_certificates():
    rng = random.Random(5)
    cfg = AlgebraConfig(A2, Fraction(1))
    by_deg = enumerate_alsw_by_degree(A2, 5)
    pool = [u for d in by_deg for u in by_deg[d] if u.breadth >= 2]
    for _ in range(25):
        target = rng.choice(pool)
        primes = target.primes
        i = rng.randrange(len(primes))
        j = rng.randint(i + 1, len(primes))
        from shirshov.words import Word as W

        v = W(primes[i:j])
        if not is_alsw_hereditary(v, A2):
            continue
        ctx = Context(primes[:i], Hole(0), primes[j:])
        sb = special_bracket(cfg, ctx, v)
        assert sb.word == target
        assert leading(cfg, sb.expansion) == (target, Fraction(1))
        # the expansion treats the isolated subword as an atom, so it can
        # differ from the plain bracket expansion, but only strictly below
        # the shared leading term
        diff = lie_expand(cfg, sb.bracketing) - sb.expansion
        if not diff.is_zero():
            dw, _ = leading(cfg, diff)
            assert A2.key(dw) < A2.key(target)


@pytest.mark.parametrize("alphabet, degree", [(A1, 7), (A2, 6)])
def test_special_bracket_matches_recursive_template(alphabet, degree):
    """Every hereditary-ALSW subword run of every ALSW word up to ``degree``,
    top level and nested: the bracketing equals the oracle's recursive
    template, which finds standard splits by rotations on its own."""
    cfg = AlgebraConfig(alphabet)
    by_deg = enumerate_alsw_by_degree(alphabet, degree)
    seen = {Hole: 0, ArgHole: 0}
    for d in by_deg:
        for u in by_deg[d]:
            for run, where in subword_runs(u):
                v = Word(run)
                if not is_alsw_hereditary(v, alphabet):
                    continue
                ctx = context_at(u.primes, where)
                seen[type(ctx.core)] += 1
                want = fill_mark(
                    special_template(cfg, ctx, v), shirshov_bracket(v, alphabet)
                )
                assert special_bracket(cfg, ctx, v).bracketing == want
    assert min(seen.values()) > 100


KERNEL_WEIGHTS = (0, 1, 2, Fraction(1, 2))


def _assert_same_expansion(got, want):
    """Equal term for term and in order, and every coefficient a Fraction."""
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("weight", KERNEL_WEIGHTS)
def test_special_expand_matches_fraction_oracle_on_random_contexts(weight):
    """Random occurrences, top level and nested, with cores that carry
    denominators and lower terms."""
    rng = random.Random(41)
    cfg = AlgebraConfig(A2, Fraction(weight))
    by_deg = enumerate_alsw_by_degree(A2, 6)
    pool = [u for d in by_deg for u in by_deg[d] if u.degree >= 2]
    lower = enumerate_words(A2, 5)
    seen = {Hole: 0, ArgHole: 0}
    while min(seen.values()) < 40:
        target = rng.choice(pool)
        run, where = rng.choice(list(subword_runs(target)))
        v = Word(run)
        if not is_alsw_hereditary(v, A2):
            continue
        ctx = context_at(target.primes, where)
        seen[type(ctx.core)] += 1
        cores = [Poly.word(v), Poly.word(v, rng.choice((-3, 2, Fraction(2, 3))))]
        if v.degree > 1:
            below = [u for d in range(1, v.degree) for u in lower[d]]
            core = Poly.word(v, Fraction(2, 3))
            for c in (Fraction(5, 7), -3, Fraction(-1, 2)):
                core = core + Poly.word(rng.choice(below), c)
            cores.append(core)
        for core in cores:
            got = special_expand(cfg, ctx, v, core)
            _assert_same_expansion(got, oracle_special_expand(cfg, ctx, v, core))
            assert leading(cfg, got) == (target, leading(cfg, core)[1])


def test_special_expand_matches_fraction_oracle_on_a_fractional_core():
    cfg = AlgebraConfig(A2, Fraction(1, 2))
    v = w("x y")
    core = parse_poly("2/3 x y + 5/7 y", A2)
    for target in map(w, ("x x y", "x y y", "P(x x y) y", "D(P(x y)) x", "P(P(x y) x)")):
        contexts = [
            context_at(target.primes, where)
            for run, where in subword_runs(target)
            if run == v.primes
        ]
        assert contexts
        for ctx in contexts:
            got = special_expand(cfg, ctx, v, core)
            _assert_same_expansion(got, oracle_special_expand(cfg, ctx, v, core))


@pytest.mark.parametrize("weight", KERNEL_WEIGHTS)
def test_special_expand_matches_fraction_oracle_on_lifted_rules(weight):
    """Every lift of the one-generator degree-6 system at every occurrence
    of its leading word in an ALSW word; at weight 1/2 the lifts have
    denominators."""
    cfg = AlgebraConfig(A1, Fraction(weight))
    engine = DrblSystem(cfg).system(6)
    by_deg = enumerate_alsw_by_degree(A1, 6)
    occurrences_by_run = {}
    for d in by_deg:
        for u in by_deg[d]:
            for run, where in subword_runs(u):
                occurrences_by_run.setdefault(run, []).append((u, where))
    cases = [
        (entry, u, where)
        for entry in engine.lifted
        for u, where in occurrences_by_run.get(entry.leading_word.primes, ())
    ]
    assert len(cases) > 100
    denominators = False
    for entry, u, where in cases:
        core = engine.core(entry.rule_index, entry.lift)
        denominators |= any(c.denominator != 1 for c in core.terms.values())
        ctx = context_at(u.primes, where)
        got = special_expand(cfg, ctx, entry.leading_word, core)
        want = oracle_special_expand(cfg, ctx, entry.leading_word, core)
        _assert_same_expansion(got, want)
    assert denominators == (weight == Fraction(1, 2))
