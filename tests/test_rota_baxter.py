"""Weighted differential Lie systems with a Rota-Baxter operator."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    DrblSystem,
    NaLeaf,
    NaOp,
    NaPair,
    Poly,
    apply_D,
    apply_operator,
    commutator,
    drbl_nf,
    enumerate_alsw,
    enumerate_basis,
    instantiate_rules,
    leading,
    lie_expand,
    make_rule,
    parse_poly,
    parse_word,
    s1_rules,
    shirshov_bracket,
)
from oracles import (
    congruence_failures,
    nf_corpus,
    oracle_find_match,
    oracle_rota_baxter_rule,
    oracle_section_rule,
    underlying_word,
    verify_axioms,
)


A1 = Alphabet(("x",), (("P", 1),))
A2 = Alphabet(("x", "y"), (("P", 1),))


def make_sys(alphabet=A2, weight=0):
    return DrblSystem(AlgebraConfig(alphabet, Fraction(weight)))


def w(s, alphabet=A2):
    return parse_word(s, alphabet)


def random_lie(rng, config, max_degree, terms=3):
    pool = enumerate_alsw(config, max_degree)
    out = Poly.zero()
    for _ in range(terms):
        u = rng.choice(pool)
        c = Fraction(rng.randint(-3, 3))
        if c:
            out = out + lie_expand(
                config, shirshov_bracket(u, config.alphabet)
            ).scale(c)
    return out


def test_rule_leading_forms():
    sys_ = make_sys(A2, 1)
    g = sys_.section_rule(w("x y"))
    assert leading(sys_.config, g.poly) == (w("D(P(x y))"), Fraction(1))
    assert g.origin == ("section", w("x y"))
    f = sys_.rota_baxter_rule(w("x"), w("y"))
    assert leading(sys_.config, f.poly) == (w("P(x) P(y)"), Fraction(1))
    assert f.origin == ("rota-baxter", w("x"), w("y"))
    with pytest.raises(ValueError):
        sys_.rota_baxter_rule(w("y"), w("x"))
    with pytest.raises(ValueError):
        sys_.section_rule(w("y x"))


def test_rota_baxter_rule_expands_the_defining_identity():
    sys_ = make_sys(A2, 2)
    c = sys_.config
    f = sys_.rota_baxter_rule(w("x"), w("y")).poly
    x, y = parse_poly("x", A2), parse_poly("y", A2)
    px, py = apply_operator("P", x), apply_operator("P", y)
    expect = (
        commutator(px, py)
        - apply_operator("P", commutator(x, py))
        - apply_operator("P", commutator(px, y))
        - apply_operator("P", commutator(x, y)).scale(2)
    )
    assert f == expect


def test_instantiate_rules_small_inventories():
    sys1 = make_sys(A1, 1)
    rules3 = instantiate_rules(sys1, 3)
    assert [r.origin for r in rules3] == [("section", w("x", A1))]
    rules4 = instantiate_rules(sys1, 4)
    assert [r.origin for r in rules4] == [
        ("section", w("x", A1)),
        ("section", w("D(x)", A1)),
        ("section", w("P(x)", A1)),
    ]
    sys2 = make_sys(A2, 1)
    rules = instantiate_rules(sys2, 4)
    origins = [r.origin for r in rules]
    assert origins.count(("rota-baxter", w("x"), w("y"))) == 1
    sections = [o for o in origins if o[0] == "section"]
    assert len(sections) == 7 and len(origins) == 8
    assert s1_rules(sys2, 4) == rules[:7]


def test_worked_normal_form_example():
    sys_ = make_sys(A2, 1)
    p = commutator(
        apply_operator("P", parse_poly("x", A2)),
        apply_operator("P", parse_poly("y", A2)),
    )
    nf = drbl_nf(p, sys_)
    assert repr(nf) == "P([P(x) y]) - P([P(y) x]) + P([x y])"
    assert nf.as_poly(sys_.config) == drbl_nf(nf, sys_).as_poly(sys_.config)


def test_nf_accepts_bracketed_input():
    sys_ = make_sys(A2, 1)
    t = NaPair(
        NaLeaf(0, NaOp("P", (NaLeaf(0, "x"),))),
        NaLeaf(0, NaOp("P", (NaLeaf(0, "y"),))),
    )
    as_tree = drbl_nf(t, sys_)
    as_poly = drbl_nf(lie_expand(sys_.config, t), sys_)
    assert as_tree == as_poly
    assert drbl_nf(shirshov_bracket(w("x y"), A2), sys_) == drbl_nf(
        parse_poly("[x y]", A2), sys_
    )
    # a one-prime word is itself a Lie element
    assert not drbl_nf(w("P(x)"), sys_).is_zero()


def test_section_identity_normalizes_to_zero():
    rng = random.Random(3)
    for weight in (0, 1, 2):
        sys_ = make_sys(A2, weight)
        basis = enumerate_basis(sys_, 3)
        pool = [t for d in basis for t in basis[d]]
        for _ in range(10):
            a = lie_expand(sys_.config, rng.choice(pool))
            p = apply_D(sys_.config, apply_operator("P", a)) - a
            assert drbl_nf(p, sys_).is_zero()


def test_nf_is_linear_and_idempotent():
    rng = random.Random(17)
    sys_ = make_sys(A2, 1)
    c = sys_.config
    for _ in range(8):
        p = random_lie(rng, c, 4)
        q = random_lie(rng, c, 4)
        nf_sum = drbl_nf(p + q, sys_)
        split = drbl_nf(p, sys_).as_poly(c) + drbl_nf(q, sys_).as_poly(c)
        assert nf_sum.as_poly(c) == drbl_nf(split, sys_).as_poly(c)
        again = drbl_nf(nf_sum, sys_)
        assert again == nf_sum
        # every surviving bracketed word is a basis word
        basis = {t for d in enumerate_basis(sys_, 4) for t in enumerate_basis(sys_, 4)[d]}
        assert all(t in basis for _, t in nf_sum.terms)


@pytest.mark.parametrize("weight", [0, 1, Fraction(1, 2)])
def test_nf_of_a_rational_multiple_is_the_multiple_of_the_nf(weight):
    rng = random.Random(23)
    sys_ = make_sys(A2, weight)
    c = sys_.config
    pool = enumerate_alsw(c, 6)
    steps = 0
    for _ in range(10):
        p = Poly.zero()
        for _ in range(3):
            t = shirshov_bracket(rng.choice(pool), A2)
            k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            p = p + lie_expand(c, t).scale(k)
        nf = drbl_nf(p, sys_)
        for q in (Fraction(3, 2), Fraction(-7, 5)):
            log = []
            got = drbl_nf(p.scale(q), sys_, log=log)
            assert got.terms == tuple((q * k, t) for k, t in nf.terms)
            assert all(type(k) is Fraction for k, _ in got.terms)
            assert all(type(s.coefficient) is Fraction for s in log)
            assert all(
                type(k) is Fraction for s in log for k in s.multiple.terms.values()
            )
            # the input is the output's expansion plus every subtracted multiple
            total = got.as_poly(c)
            for s in log:
                total = total + s.multiple
            assert total == p.scale(q)
            steps += len(log)
    assert steps


def test_fast_path_agrees_with_generic_engine():
    rng = random.Random(41)
    for alphabet in (A1, A2):
        for weight in (0, 1):
            sys_ = make_sys(alphabet, weight)
            engine = sys_.system(5)
            for _ in range(12):
                p = random_lie(rng, sys_.config, 5)
                fast = drbl_nf(p, sys_).as_poly(sys_.config)
                slow = engine.reduce(p, mode="lie")
                assert fast == slow


def test_basis_counts_and_degree_three_elements():
    sys1 = make_sys(A1, 1)
    basis1 = enumerate_basis(sys1, 4)
    assert [len(basis1[d]) for d in (1, 2, 3, 4)] == [1, 2, 5, 12]
    assert [repr(t) for t in basis1[3]] == [
        "D^2(x)",
        "P(D(x))",
        "P(P(x))",
        "[D(x) x]",
        "[P(x) x]",
    ]
    sys2 = make_sys(A2, 1)
    basis2 = enumerate_basis(sys2, 3)
    assert [len(basis2[d]) for d in (1, 2, 3)] == [2, 5, 17]
    # counts do not depend on the weight
    assert [
        len(enumerate_basis(make_sys(A2, 0), 3)[d]) for d in (1, 2, 3)
    ] == [2, 5, 17]


def test_basis_excludes_descending_pairs_and_d_over_p():
    sys_ = make_sys(A2, 1)
    basis = enumerate_basis(sys_, 5)
    reprs = {d: [repr(t) for t in basis[d]] for d in basis}
    # P(x)·P(y) descends (x > y): excluded at top level ...
    assert "[P(x) P(y)]" not in reprs[4]
    # ... and nested inside an operator argument
    assert "P(P(x) P(y))" not in reprs[5]
    # the ascending arrangement is not Lyndon-Shirshov at all
    from shirshov import is_alsw

    assert not is_alsw(w("P(y) P(x)"), A2)
    # no D ever sits over a P in a basis word, at any depth
    from shirshov.words import OpApp

    def no_d_over_op(word):
        for p in word.primes:
            if type(p.head) is OpApp:
                if p.d_power != 0 or not all(
                    no_d_over_op(a) for a in p.head.args
                ):
                    return False
        return True

    for d in basis:
        for t in basis[d]:
            assert no_d_over_op(underlying_word(t))


def test_basis_matches_engine_irreducibles():
    for alphabet in (A1, A2):
        for weight in (0, 1):
            sys_ = make_sys(alphabet, weight)
            basis = enumerate_basis(sys_, 5)
            flat = [t for d in range(1, 6) for t in basis[d]]
            engine = sys_.system(5)
            assert engine.enumerate_irr("lie") == flat
    # one degree higher on the single-generator alphabet
    sys1 = make_sys(A1, 1)
    basis6 = enumerate_basis(sys1, 6)
    flat6 = [t for d in range(1, 7) for t in basis6[d]]
    assert sys1.system(6).enumerate_irr("lie") == flat6


def test_axioms_hold_on_samples():
    for weight in (0, 2):
        sys_ = make_sys(A2, weight)
        report = verify_axioms(sys_, samples=20, max_degree=3, seed=1)
        assert report.passed, report.summary()
        assert report.checked == 60
        assert "pass" in report.summary()


def test_axioms_specific_pairs():
    # generators at weight zero
    sys0 = make_sys(A2, 0)
    x, y = parse_poly("x", A2), parse_poly("y", A2)
    px, py = apply_operator("P", x), apply_operator("P", y)
    rb = (
        commutator(px, py)
        - apply_operator("P", commutator(x, py))
        - apply_operator("P", commutator(px, y))
    )
    assert drbl_nf(rb, sys0).is_zero()
    # derivative against operator image at weight two
    sys2 = make_sys(A2, 2)
    c2 = sys2.config
    a = parse_poly("D(x)", A2)
    b = apply_operator("P", parse_poly("x", A2))
    leib = (
        apply_D(c2, commutator(a, b))
        - commutator(apply_D(c2, a), b)
        - commutator(a, apply_D(c2, b))
        - commutator(apply_D(c2, a), apply_D(c2, b)).scale(2)
    )
    assert drbl_nf(leib, sys2).is_zero()


def test_lie_irreducible_can_expand_to_assoc_reducible():
    sys_ = make_sys(A2, 1)
    engine = sys_.system(5)
    u = w("P(x) y P(y)")
    # irreducible as a Lie leading word ...
    from shirshov.rota_baxter import _find_match

    assert _find_match(sys_, u) is None
    # ... but its bracket expansion contains an associatively reducible
    # monomial, so word-by-word normal forms differ between the modes
    exp = lie_expand(sys_.config, shirshov_bracket(u, A2))
    assert any(engine.is_reducible(v) for v in exp.terms)
    assert w("y P(x) P(y)") in exp.terms


@pytest.mark.parametrize("weight", [0, 1, Fraction(1, 2), -1])
@pytest.mark.parametrize("alphabet, degree", [(A1, 8), (A2, 6)])
def test_find_match_agrees_with_the_scan_of_every_subword_run(
    alphabet, degree, weight
):
    from shirshov.rota_baxter import _find_match
    from shirshov.syntax import format_context
    from shirshov.words import ArgHole, OpApp, Prime, Word, enumerate_words, substitute

    sys_ = make_sys(alphabet, weight)
    seen = Counter()
    for words in enumerate_words(alphabet, degree).values():
        for u in words:
            try:
                want = oracle_find_match(sys_, u)
            except (ValueError, RuntimeError) as e:
                # a completion rule that cannot be built raises in both
                with pytest.raises(type(e)) as again:
                    _find_match(sys_, u)
                assert str(again.value) == str(e)
                seen["raised"] += 1
                continue
            got = _find_match(sys_, u)
            if want is None:
                assert got is None, u
                continue
            assert got[:2] == want[:2], u
            assert format_context(got[2]) == format_context(want[2]), u
            assert got[2] is want[2]
            tag, lift, ctx = got
            seen[tag[0]] += 1
            seen["nested"] += type(ctx.core) is ArgHole
            top = Prime(lift + 1, OpApp("P", (tag[1],)))
            if tag[0] == "section" and substitute(ctx, Word((top,))) != u:
                seen["run"] += 1  # no single prime and no pair matched
    assert seen["section"] and seen["rota-baxter"] and seen["nested"]
    if weight:
        assert seen["run"]
        if alphabet is A1:
            assert seen["completion"] and seen["raised"]


@pytest.mark.parametrize(
    "generators, degree", [(("x",), 9), (("x", "y"), 7)], ids=["1gen", "2gens"]
)
def test_find_match_at_weight_0_agrees_with_the_basis_pair_filter(
    generators, degree
):
    # one rule, two encodings: the matcher's pair test and the basis filter
    from shirshov.lyndon import enumerate_alsw_by_degree
    from shirshov.rota_baxter import (
        _basis_letters,
        _contains_descending_pair,
        _find_match,
    )

    alphabet = Alphabet(generators, (("P", 1),))
    sys0 = make_sys(alphabet, 0)
    by_deg = enumerate_alsw_by_degree(alphabet, degree, _basis_letters(sys0))
    seen = Counter()
    for n in range(1, degree + 1):
        for u in by_deg.get(n, ()):
            descending = _contains_descending_pair(u, alphabet)
            assert (_find_match(sys0, u) is None) is not descending, u
            seen[descending] += 1
    assert seen[True] and seen[False]


def test_modes_agree_after_an_associative_pass():
    rng = random.Random(59)
    for weight in (0, 1):
        sys_ = make_sys(A2, weight)
        engine = sys_.system(5)
        for _ in range(10):
            p = random_lie(rng, sys_.config, 5)
            lie_nf = engine.reduce(p, mode="lie")
            assert engine.reduce(p, mode="assoc") == engine.reduce(
                lie_nf, mode="assoc"
            )


def test_random_ideal_combinations_reduce_to_zero():
    rng = random.Random(67)
    sys_ = make_sys(A1, 1)
    engine = sys_.system(5)
    pool = [u for u in enumerate_alsw(sys_.config, 5) if engine.is_reducible(u)]
    assert pool
    total = Poly.zero()
    for _ in range(12):
        u = rng.choice(pool)
        entry, ctx = engine.match(u)
        multiple = engine.special_multiple(entry.rule_index, entry.lift, ctx)
        total = total + multiple.scale(Fraction(rng.randint(1, 5)))
    assert engine.reduce(total, mode="lie").is_zero()
    # associative variant over the section rules alone
    s1_engine = DrblSystem(sys_.config).system(5, s1_only=True)
    from shirshov import subst_poly
    from shirshov.words import enumerate_words

    words = enumerate_words(A1, 5)
    reducible = [
        u for d in words for u in words[d] if s1_engine.is_reducible(u)
    ]
    total = Poly.zero()
    for _ in range(12):
        u = rng.choice(reducible)
        entry, ctx = s1_engine.match(u)
        multiple = subst_poly(ctx, s1_engine.core(entry.rule_index, entry.lift))
        total = total + multiple.scale(Fraction(rng.randint(-4, 4)))
    assert s1_engine.reduce(total, mode="assoc").is_zero()


def test_nf_degree_guard():
    sys_ = make_sys(A1, 1)
    with pytest.raises(ValueError):
        drbl_nf(parse_poly("P(P(P(x)))", A1), sys_, max_degree=2)


def test_completion_rules_are_the_interreduced_moved_section_lifts():
    from shirshov import RewriteSystem, make_rule
    from shirshov.words import OpApp, Prime, Word

    sys_ = make_sys(A2, 1)
    rules = instantiate_rules(sys_, 7)
    defining = [r for r in rules if r.origin[0] != "completion"]
    completion = rules[len(defining):]
    # appended after every defining rule, four h(u, 2) and eight h(u, 1)
    assert all(r.origin[0] == "completion" for r in completion)
    assert sorted(r.origin[2] for r in completion) == [1] * 8 + [2] * 4
    base = RewriteSystem(sys_.config, defining, 7)
    index = {r.origin: i for i, r in enumerate(base.rules)}
    for rule in completion:
        _, u, lift = rule.origin
        assert any(type(p.head) is OpApp for p in u.primes)
        top = Word((Prime(lift + 1, OpApp("P", (u,))),))
        assert leading(sys_.config, rule.poly) == (top, Fraction(1))
        assert not base.is_reducible(top)
        # the moved lift, reduced modulo the defining rules in the engine
        lifted = base.core(index[("section", u)], lift)
        assert base.match(leading(sys_.config, lifted)[0])[0].rule_index != (
            index[("section", u)]
        )
        reduced = base.reduce(lifted, mode="lie")
        assert make_rule(sys_.config, reduced).poly == rule.poly
    # weight zero and the section-rule subsystem have no such family
    weight_zero = instantiate_rules(make_sys(A2, 0), 7)
    assert all(r.origin[0] != "completion" for r in weight_zero)
    s1 = sys_.system(7, s1_only=True).rules
    assert all(r.origin[0] == "section" for r in s1)


def test_completion_rule_refuses_what_it_cannot_supply():
    sys1 = make_sys(A1, 1)
    # these lifts keep their nominal leading word D^{i+1}(P(u))
    with pytest.raises(ValueError):
        sys1.completion_rule(w("P(x) x", A1), 1)
    with pytest.raises(ValueError):
        make_sys(A1, 0).completion_rule(w("P(x) x", A1), 2)
    # no P-factor: the moved lift leads with an irreducible run of D-powers
    assert sys1.completion_rule(w("D(x) x", A1), 2) is None
    assert sys1.completion_rule(w("P(x) x", A1), 2) is not None
    # degree 8: the interreduced 2-lift of g(P(x) x x) leads with
    # [D^2(x) [D^2(x) P(x)]], not D^3(P(P(x) x x)); building refuses
    with pytest.raises(RuntimeError):
        sys1.completion_rule(w("P(x) x x", A1), 2)
    # the failed build leaves no cached answer behind
    with pytest.raises(RuntimeError):
        sys1.completion_rule(w("P(x) x x", A1), 2)


def test_completed_system_has_the_quotient_dimension_at_degree_seven():
    from shirshov.reference import oracle_quotient_dim

    for weight in (1, 2):
        sys_ = make_sys(A1, weight)
        rules = instantiate_rules(sys_, 7)
        dims = oracle_quotient_dim(sys_.config, rules, 7)
        engine = sys_.system(7)
        irr7 = len(engine.enumerate_irr("lie", 7)) - len(
            engine.enumerate_irr("lie", 6)
        )
        assert irr7 == dims[6] == len(enumerate_basis(sys_, 7)[7]) == 230


def test_fast_path_reduces_every_degree_seven_ideal_row_to_zero():
    from oracles import oracle_ideal_rows

    sys_ = make_sys(A1, 1)
    defining = [
        r for r in instantiate_rules(sys_, 7) if r.origin[0] != "completion"
    ]
    rows = oracle_ideal_rows(sys_.config, defining, 7)
    assert len(rows) == 551
    nonzero = [row for row in rows if not drbl_nf(row, sys_).is_zero()]
    assert not nonzero, "%d of %d ideal rows have a nonzero normal form" % (
        len(nonzero), len(rows),
    )


def test_fast_path_agrees_with_generic_engine_at_degree_seven():
    sys_ = make_sys(A1, 1)
    engine = sys_.system(7)
    for u in (w("D^3(P(P(x) x))", A1), w("D^2(P(P(x) x x))", A1)):
        t = shirshov_bracket(u, A1)
        p = lie_expand(sys_.config, t)
        fast = drbl_nf(p, sys_)
        assert t not in [s for _, s in fast.terms]
        assert fast.as_poly(sys_.config) == engine.reduce(p, mode="lie")
    for u in enumerate_alsw(sys_.config, 7):
        if u.degree == 7:
            p = lie_expand(sys_.config, shirshov_bracket(u, A1))
            fast = drbl_nf(p, sys_).as_poly(sys_.config)
            assert fast == engine.reduce(p, mode="lie")


def test_a_finished_completion_leaves_no_stale_match():
    # system(7) builds h(P(x) x, 2); while its lift is reduced,
    # D^3(P(P(x) x)) counts as irreducible, which must not outlive the build
    p = parse_poly("D^3(P([P(x) x]))", A1)
    shared = make_sys(A1, 1)
    shared.system(7)
    want = drbl_nf(p, make_sys(A1, 1))
    assert len(want.terms) == 4
    assert drbl_nf(p, shared) == want


@pytest.mark.parametrize("weight", [0, 1, Fraction(1, 2)], ids=str)
def test_a_shared_system_normalises_as_a_fresh_one(weight):
    config = AlgebraConfig(A2, Fraction(weight))
    corpus = nf_corpus(DrblSystem(config), 6, 60, seed=7)

    def run(sys_, p):
        log = []
        return drbl_nf(p, sys_, log=log), log

    fresh = [run(DrblSystem(config), p) for p in corpus]
    shared = DrblSystem(config)
    assert [run(shared, p) for p in corpus] == fresh
    assert [run(shared, p) for p in reversed(corpus)] == fresh[::-1]


CONGRUENCE_CASES = [(A1, weight, 7) for weight in (0, 1, Fraction(1, 2), -1, 2)] + [
    (A2, weight, 6) for weight in (0, 1)
]


@pytest.mark.parametrize(
    "alphabet, weight, max_degree",
    CONGRUENCE_CASES,
    ids=["%dgen-%s-%d" % (len(a.generators), w, d) for a, w, d in CONGRUENCE_CASES],
)
def test_normal_forms_respect_the_operations(alphabet, weight, max_degree):
    """N(P(N(x))) = N(P(x)), N(D(N(x))) = N(D(x)) and
    N([N(x), N(y)]) = N([x, N(y)]) for N = ``drbl_nf`` on one shared system
    (``congruence_failures``)."""
    sys_ = make_sys(alphabet, weight)
    # the engine builds completion rules outside drbl_nf; what their builds
    # matched must not leak into later normal forms
    sys_.system(max_degree)
    assert congruence_failures(sys_, max_degree) == {"P": 0, "D": 0, "bracket": 0}


class _UnsharedSystem(DrblSystem):
    """The rule families built from fresh expansions and the old formulas."""

    def section_rule(self, u):
        got = self._section.get(u)
        if got is None:
            poly = oracle_section_rule(self.config, self.operator, u)
            got = self._section[u] = make_rule(self.config, poly, ("section", u))
        return got

    def rota_baxter_rule(self, u, v):
        got = self._rota_baxter.get((u, v))
        if got is None:
            poly = oracle_rota_baxter_rule(self.config, self.operator, u, v)
            got = self._rota_baxter[(u, v)] = make_rule(
                self.config, poly, ("rota-baxter", u, v)
            )
        return got


@pytest.mark.parametrize("weight", [0, 1, 2, -1, Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("alphabet", [A1, A2], ids=["1gen", "2gens"])
def test_rules_from_shared_expansions_equal_the_unshared_formula(alphabet, weight):
    config = AlgebraConfig(alphabet, Fraction(weight))
    rules = instantiate_rules(DrblSystem(config), 7)
    expect = instantiate_rules(_UnsharedSystem(config), 7)
    s1 = s1_rules(DrblSystem(config), 7)
    assert s1 == rules[: len(s1)]
    assert [r.origin for r in rules] == [r.origin for r in expect]
    families = Counter(r.origin[0] for r in rules)
    assert families["section"] and families["rota-baxter"]
    assert bool(families["completion"]) == (weight != 0)
    assert families["rota-baxter"] == (38 if alphabet is A1 else 296)
    for got, want in zip(rules, expect):
        assert got == want, got.origin
        # term order too, so every later pass sees the same iteration order
        assert list(got.poly.terms.items()) == list(want.poly.terms.items())
        assert all(type(c) is Fraction for c in got.poly.terms.values())


def _subtrees(t, out):
    if t in out:
        return
    out.add(t)
    if type(t) is NaPair:
        _subtrees(t.left, out)
        _subtrees(t.right, out)
    elif type(t.head) is NaOp:
        for a in t.head.args:
            _subtrees(a, out)


def _rota_baxter_nodes(alphabet, u, v, weight):
    """The bracketed nodes whose expansions make up f(u,v)."""

    def op(t):
        return NaLeaf(0, NaOp("P", (t,)))

    bu = shirshov_bracket(u, alphabet)
    bv = shirshov_bracket(v, alphabet)
    out = [NaPair(op(bu), op(bv)), op(NaPair(bu, op(bv))), op(NaPair(op(bu), bv))]
    if weight:
        out.append(op(NaPair(bu, bv)))
    return out


def _node_counts(nodes):
    return {
        "_int_commutator": sum(type(t) is NaPair for t in nodes),
        "_int_operator": sum(
            type(t) is NaLeaf and type(t.head) is NaOp for t in nodes
        ),
    }


def test_each_bracketed_subtree_is_expanded_once(monkeypatch):
    import shirshov.algebra as algebra

    calls = Counter()
    for name in ("_int_commutator", "_int_operator"):

        def counted(*args, _name=name, _original=getattr(algebra, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(algebra, name, counted)
    for shape, weight, s1_only in ((A2, 1, True), (A2, 0, False), (A1, 2, True)):
        # a fresh alphabet per case, so its memo starts empty
        alphabet = Alphabet(shape.generators, shape.operators)
        sys_ = make_sys(alphabet, weight)
        calls.clear()
        if s1_only:
            rules = s1_rules(sys_, 7)
        else:
            rules = instantiate_rules(sys_, 7)
        # a section rule expands [u] on the first read of its polynomial
        for r in rules:
            r.poly
        params = enumerate_alsw(sys_.config, 5)
        nodes = set()
        for u in params:
            _subtrees(shirshov_bracket(u, alphabet), nodes)
        # f(u,v) is read from the memo: P([u]) once per parameter, and the
        # pair's three (four at nonzero weight) operated brackets
        pairs = [r.origin[1:] for r in rules if r.origin[0] == "rota-baxter"]
        assert len(pairs) == (0 if s1_only else 296)
        for u, v in pairs:
            for t in _rota_baxter_nodes(alphabet, u, v, weight):
                _subtrees(t, nodes)
        assert calls == _node_counts(nodes)
        assert set(alphabet._expansions) == nodes
        # later rules find every expansion in the memo
        calls.clear()
        for u in params:
            lie_expand(sys_.config, shirshov_bracket(u, alphabet))
        again = make_sys(alphabet, weight)
        for r in s1_rules(again, 7):
            r.poly
        for u, v in pairs:
            again.rota_baxter_rule(u, v).poly
        assert not calls
        # a new pair expands only the nodes the memo lacks
        u, v = params[-1], params[0]
        new = set()
        for t in _rota_baxter_nodes(alphabet, u, v, weight):
            _subtrees(t, new)
        new -= nodes
        sys_.rota_baxter_rule(u, v).poly
        assert calls == _node_counts(new)
        assert set(alphabet._expansions) == nodes | new
