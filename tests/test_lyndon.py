"""Lyndon-Shirshov words, standard bracketings, isolating bracketings."""

import random
from fractions import Fraction

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    NaLeaf,
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
    special_bracket,
    special_expand,
)
from shirshov import lyndon, rota_baxter, words
from shirshov.lyndon import _standard_split
from shirshov.rota_baxter import DrblSystem, s1_rules
from shirshov.words import Context, Hole, Prime, concat, enumerate_words
from shirshov.reference import (
    _oracle_is_alsw,
    oracle_all_bracketings,
    oracle_lyndon_count,
)


A2 = Alphabet(("x", "y"), (("P", 1),))
PURE2 = Alphabet(("x", "y"))
PURE3 = Alphabet(("x", "y", "z"))


def w(s, alphabet=A2):
    return parse_word(s, alphabet)


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
    by_deg = enumerate_alsw_by_degree(A2, 4)
    words = enumerate_words(A2, 4)
    for d in range(1, 5):
        brute = [u for u in words[d] if is_alsw_hereditary(u, A2)]
        assert by_deg[d] == brute


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
    control = DrblSystem(AlgebraConfig(Alphabet(names, (("P", 1),)), weight))
    for rule in rules:
        control._bracket(rule.origin[1])
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
