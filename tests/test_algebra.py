"""Polynomial layer: products, the weighted differential, leading terms."""

import random
from fractions import Fraction

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    NaLeaf,
    NaOp,
    NaPair,
    Poly,
    apply_D,
    apply_operator,
    commutator,
    d_power_leading,
    enumerate_alsw,
    leading,
    lie_expand,
    multiply,
    parse_poly,
    parse_term,
    parse_word,
    shirshov_bracket,
    subst_poly,
)
from shirshov.words import Context, Hole, enumerate_words
from oracles import derivation_recursive, expand_template as oracle_lie_expand


A2 = Alphabet(("x", "y"), (("P", 1),))


def cfg(weight=0):
    return AlgebraConfig(A2, Fraction(weight))


def random_poly(rng, max_degree=3, terms=4):
    by_deg = enumerate_words(A2, max_degree)
    pool = [w for d in by_deg for w in by_deg[d]]
    out = Poly.zero()
    for _ in range(terms):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + Poly.word(rng.choice(pool), c)
    return out


def test_poly_arithmetic_is_exact_and_strips_zeros():
    p = parse_poly("1/3 x + 2/3 x - y", A2)
    q = parse_poly("x - y", A2)
    assert p == q
    assert (p - q).is_zero()
    assert not (p - q)
    assert p.scale(0).is_zero()
    assert (-p) + p == Poly.zero()
    assert p.scale(Fraction(3, 2)) == parse_poly("3/2 x - 3/2 y", A2)


def test_multiply_is_concatenation_bilinear():
    p = parse_poly("x + y", A2)
    q = parse_poly("x - y", A2)
    assert multiply(p, q) == parse_poly("x x - x y + y x - y y", A2)
    r = parse_poly("P(x)", A2)
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    assert p * q == multiply(p, q)
    assert 2 * p == p.scale(2)


def test_commutator_antisymmetric():
    p = parse_poly("x + P(y)", A2)
    q = parse_poly("D(x) y", A2)
    assert commutator(p, q) == -commutator(q, p)
    assert commutator(p, p).is_zero()


def test_apply_operator_is_multilinear():
    p = parse_poly("x + 2 y", A2)
    assert apply_operator("P", p) == parse_poly("P(x) + 2 P(y)", A2)
    got = apply_operator("P", parse_poly("3 x y", A2))
    assert got == parse_poly("3 P(x y)", A2)


def test_product_kernel_terms_are_literal_and_in_order():
    """Pins the term-dict kernel by hand-computed terms, not by parse_poly
    (which builds its products with ``multiply`` itself)."""
    AQ = Alphabet(("x", "y"), (("P", 1), ("Q", 2)))

    def poly(*pairs):
        return Poly({parse_word(w, AQ): Fraction(c) for w, c in pairs})

    def terms(p):
        assert all(type(c) is Fraction for c in p.terms.values())
        return list(p.terms.items())

    def want(*pairs):
        return [(parse_word(w, AQ), Fraction(c)) for w, c in pairs]

    # x·yy, x·(−y), xy·yy, then xy·(−y) cancels x y y.
    got = multiply(poly(("x", 1), ("x y", 1)), poly(("y y", 1), ("y", -1)))
    assert terms(got) == want(("x y", -1), ("x y y y", 1))
    # x x + x y − (x x + y x): x x cancels in place.
    assert terms(commutator(poly(("x", 1)), poly(("x", 1), ("y", 1)))) == want(
        ("x y", 1), ("y x", -1)
    )
    a, b = poly(("x", 1), ("y", "-1/2")), poly(("P(x)", 3), ("y", 1))
    got = apply_operator("Q", a, b)
    assert terms(got) == want(
        ("Q(x, P(x))", 3), ("Q(x, y)", 1), ("Q(y, P(x))", "-3/2"), ("Q(y, y)", "-1/2")
    )
    p = poly(("x", 1), ("y", "1/2"))
    q = poly(("P(x)", 1), ("x", -1), ("y", 1))
    assert terms(p + q) == want(("y", "3/2"), ("P(x)", 1))
    assert terms(p - q) == want(("x", 2), ("y", "-1/2"), ("P(x)", -1))
    assert terms(p - poly(("y", "1/2"))) == want(("x", 1))


def test_differential_unweighted_leibniz():
    c = cfg(0)
    assert apply_D(c, parse_poly("x y", A2)) == parse_poly(
        "D(x) y + x D(y)", A2
    )
    assert apply_D(c, parse_poly("P(x)", A2)) == parse_poly("D(P(x))", A2)


def test_differential_weighted_marks_subsets():
    c = cfg(1)
    assert apply_D(c, parse_poly("x y", A2)) == parse_poly(
        "D(x) y + x D(y) + D(x) D(y)", A2
    )
    got = apply_D(cfg(2), parse_poly("x y", A2))
    assert got == parse_poly("D(x) y + x D(y) + 2 D(x) D(y)", A2)
    # breadth three: every nonempty marked subset, weight^(size-1)
    got3 = apply_D(c, parse_poly("x y x", A2))
    assert len(got3.terms) == 7
    assert got3.terms[parse_word("D(x) D(y) D(x)", A2)] == 1
    got3b = apply_D(cfg(3), parse_poly("x y x", A2))
    assert got3b.terms[parse_word("D(x) D(y) D(x)", A2)] == 9
    assert got3b.terms[parse_word("D(x) D(y) x", A2)] == 3
    assert got3b.terms[parse_word("D(x) y x", A2)] == 1


def test_differential_at_a_fractional_weight_keeps_single_hits_integral():
    # a single hit carries the coefficient as it is; only the product with
    # a power of the weight may make a Fraction
    c = cfg(Fraction(1, 2))
    xy = parse_word("x y", A2)
    got = apply_D(c, Poly({xy: 5}))
    assert got == derivation_recursive(c, xy).scale(5)
    single = [got.terms[parse_word(s, A2)] for s in ("D(x) y", "x D(y)")]
    assert single == [5, 5] and [type(k) for k in single] == [int, int]
    assert got.terms[parse_word("D(x) D(y)", A2)] == Fraction(5, 2)


def test_differential_product_rule_identity():
    rng = random.Random(7)
    for weight in (0, 1, 2, Fraction(-1)):
        c = cfg(weight)
        for _ in range(12):
            p = random_poly(rng)
            q = random_poly(rng)
            lhs = apply_D(c, multiply(p, q))
            rhs = (
                multiply(apply_D(c, p), q)
                + multiply(p, apply_D(c, q))
                + multiply(apply_D(c, p), apply_D(c, q)).scale(Fraction(weight))
            )
            assert lhs == rhs


def test_differential_matches_recursive_reference():
    for weight in (0, 1, 2, -1):
        c = cfg(weight)
        by_deg = enumerate_words(A2, 3)
        for d in by_deg:
            for w in by_deg[d]:
                assert apply_D(c, Poly.word(w)) == derivation_recursive(c, w)


def test_apply_D_iterates():
    c = cfg(1)
    p = parse_poly("x y + P(x)", A2)
    assert apply_D(c, p, 3) == apply_D(c, apply_D(c, apply_D(c, p)))
    assert apply_D(c, p, 0) == p


def test_leading_term():
    c = cfg(0)
    assert leading(c, parse_poly("x y - y x", A2)) == (
        parse_word("x y", A2),
        Fraction(1),
    )
    # degree dominates breadth dominates prime-wise comparison
    w, coeff = leading(c, parse_poly("2 D(x) - 3 x y", A2))
    assert w == parse_word("x y", A2) and coeff == -3
    with pytest.raises(ValueError):
        leading(c, Poly.zero())


def test_d_power_leading_matches_expansion():
    rng = random.Random(11)
    by_deg = enumerate_words(A2, 3)
    pool = [w for d in by_deg for w in by_deg[d]]
    for weight in (0, 1, 2, -1):
        c = cfg(weight)
        for _ in range(40):
            u = rng.choice(pool)
            i = rng.randint(0, 3)
            claimed = d_power_leading(c, u, i)
            expanded = apply_D(c, Poly.word(u), i)
            assert claimed == leading(c, expanded)


def test_d_power_leading_branches_differ():
    # unweighted: only the first prime absorbs the Ds
    c0, c1 = cfg(0), cfg(2)
    u = parse_word("x y", A2)
    assert d_power_leading(c0, u, 2) == (parse_word("D^2(x) y", A2), Fraction(1))
    # weighted: every prime shifts, with a weight power as coefficient
    assert d_power_leading(c1, u, 2) == (
        parse_word("D^2(x) D^2(y)", A2),
        Fraction(4),
    )


def test_d_power_leading_computes_no_power_for_a_zero_exponent(monkeypatch):
    # a one-prime word has coefficient 1 at every lift and weight
    def no_pow(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(Fraction, "__pow__", no_pow)
    for weight in (1, 2, Fraction(-1, 2)):
        got = d_power_leading(cfg(weight), parse_word("P(x y)", A2), 3)
        assert got == (parse_word("D^3(P(x y))", A2), 1)
        assert type(got[1]) is Fraction


def test_lie_expand_commutators():
    c = cfg(0)
    t = NaPair(NaLeaf(0, "x"), NaPair(NaLeaf(0, "x"), NaLeaf(0, "y")))
    got = lie_expand(c, t)
    assert got == parse_poly("x x y - 2 x y x + y x x", A2)
    assert leading(c, got) == (parse_word("x x y", A2), Fraction(1))
    # a D power on an operator leaf differentiates the whole expansion
    t2 = NaLeaf(1, NaOp("P", (NaPair(NaLeaf(0, "x"), NaLeaf(0, "y")),)))
    assert lie_expand(c, t2) == apply_D(
        c, apply_operator("P", parse_poly("x y - y x", A2))
    )
    # the parser's bracket syntax agrees with explicit trees
    assert parse_poly("[x [x y]]", A2) == got


def _same_expansion(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("gens", [("x",), ("x", "y")], ids=["1gen", "2gens"])
def test_lie_expand_equals_the_unmemoised_oracle(gens):
    # one alphabet for every weight: the memo is filled at the first weight
    # and read back at the others, since the expansion is weight-free
    alphabet = Alphabet(gens, (("P", 1),))
    trees = [
        shirshov_bracket(u, alphabet)
        for u in enumerate_alsw(AlgebraConfig(alphabet), 7)
    ]
    for weight in (0, 1, Fraction(1, 2)):
        c = AlgebraConfig(alphabet, Fraction(weight))
        for t in trees:
            _same_expansion(lie_expand(c, t), oracle_lie_expand(c, t))


@pytest.mark.parametrize(
    "text",
    [
        "[x P(y)]",
        "[P(x) x]",
        "[[x y] x]",
        "[D^2(P([x y])) x]",
        "D^3(P([y P(x)]))",
        "[D(x) D^2(P(P([x P(y)])))]",
        "P([P([y x]) D(P(x))])",
        "[x Q([x y], P([D(x) y]))]",
        "D(Q(P(x), [y x]))",
    ],
)
def test_lie_expand_equals_the_oracle_on_parsed_shapes(text):
    alphabet = Alphabet(("x", "y"), (("P", 1), ("Q", 2)))
    t = parse_term(text, alphabet)
    assert isinstance(t, (NaLeaf, NaPair))
    for weight in (0, 1, Fraction(1, 2)):
        c = AlgebraConfig(alphabet, Fraction(weight))
        _same_expansion(lie_expand(c, t), oracle_lie_expand(c, t))


def test_lie_expand_results_do_not_alias_the_memo():
    alphabet = Alphabet(("x", "y"), (("P", 1),))
    c = AlgebraConfig(alphabet)
    t = parse_term("[x [P(y) x]]", alphabet)
    want = oracle_lie_expand(c, t)
    first = lie_expand(c, t)
    first.terms.clear()
    second = lie_expand(c, t)
    _same_expansion(second, want)
    for w in second.terms:
        second.terms[w] = Fraction(7)
    second.terms[parse_word("y", alphabet)] = Fraction(1)
    _same_expansion(lie_expand(c, t), want)
    # nor does mutating a parsed polynomial, which holds the memo's words
    p = parse_poly("[x [P(y) x]] + 2 x", alphabet)
    p.terms.clear()
    _same_expansion(lie_expand(c, t), want)


def test_the_memo_holds_each_bracketing_once():
    alphabet = Alphabet(("x", "y"), (("P", 1),))
    c = AlgebraConfig(alphabet)
    inner = parse_term("[x [P(y) x]]", alphabet)
    assert parse_term("[x [P(y) x]]", alphabet) is inner
    lie_expand(c, inner)
    # the nodes x, y, P(y), [P(y) x] and ``inner`` itself
    assert len(alphabet._expansions) == 5
    outer = parse_term("[y P([x [P(y) x]])]", alphabet)
    # an equal subtree of a later tree is the node already stored
    assert outer.right.head.args[0] is inner
    lie_expand(c, outer)
    assert len(alphabet._expansions) == 7


def test_alphabets_do_not_share_expansions():
    a = Alphabet(("x", "y"), (("P", 1),))
    b = Alphabet(("x", "y"), (("P", 1),))
    t = parse_term("[x P([x y])]", a)
    lie_expand(AlgebraConfig(a), t)
    assert t in a._expansions
    assert not b._expansions
    got = lie_expand(AlgebraConfig(b), t)
    assert got == lie_expand(AlgebraConfig(a), t)
    assert a._expansions.keys() == b._expansions.keys()
    for n, terms in a._expansions.items():
        assert b._expansions[n] is not terms


def test_subst_poly_linear_and_d_wrapped():
    c = cfg(1)
    p = parse_poly("x + P(x)", A2)
    bare = Context((parse_word("y", A2).primes[0],), Hole(0), ())
    assert subst_poly(bare, p) == parse_poly("y x + y P(x)", A2)


def test_subst_poly_respects_leading_in_bare_contexts():
    # substituting into a bare context maps the leading monomial of p to
    # the leading monomial of the result
    rng = random.Random(23)
    c = cfg(1)
    by_deg = enumerate_words(A2, 2)
    pool = [w for d in by_deg for w in by_deg[d]]
    for _ in range(30):
        p = random_poly(rng, max_degree=2)
        if p.is_zero():
            continue
        before = rng.choice(pool)
        ctx = Context(before.primes, Hole(0), ())
        lw, lc = leading(c, p)
        rw, rc = leading(c, subst_poly(ctx, p))
        from shirshov.words import substitute

        assert rw == substitute(ctx, lw) and rc == lc
