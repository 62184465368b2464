"""Rewrite engine: lifted rules, reduction traces, overlap certification."""

import random
from fractions import Fraction

import pytest

import shirshov.rewriting
from shirshov import (
    AlgebraConfig,
    Alphabet,
    DrblSystem,
    Poly,
    RewriteSystem,
    apply_D,
    apply_operator,
    leading,
    lie_expand,
    make_rule,
    parse_poly,
    parse_word,
    shirshov_bracket,
)
from shirshov.cli import make_alphabet
from shirshov.rewriting import reduce as reduce_once
from shirshov.words import enumerate_words


A1 = Alphabet(("x",), (("P", 1),))
A2 = Alphabet(("x", "y"), (("P", 1),))
A3 = Alphabet(("x", "y", "z"), (("P", 1),))


def cfg(alphabet=A2, weight=0):
    return AlgebraConfig(alphabet, Fraction(weight))


def section_rule(config, w):
    """D(P([w])) - [w], the rule that makes D(P(-)) a section of [w]."""
    exp = lie_expand(config, shirshov_bracket(w, config.alphabet))
    poly = apply_D(config, apply_operator("P", exp)) - exp
    return make_rule(config, poly, ("section", w))


def test_make_rule_normalizes_to_monic():
    c = cfg()
    r = make_rule(c, parse_poly("2 x y - 4 y", A2))
    assert leading(c, r.poly) == (parse_word("x y", A2), Fraction(1))
    assert r.poly == parse_poly("x y - 2 y", A2)
    with pytest.raises(ValueError):
        make_rule(c, Poly.zero())


def test_lifted_leadings_switch_at_high_lifts():
    # rule with leading D(P(x y)): its lifts lead with the single-prime
    # word until the derivative of the breadth-two tail overtakes it
    c = cfg(A2, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x y", A2))], 8)
    got = [(e.lift, repr(e.leading_word), e.leading_coeff) for e in sys_.lifted]
    assert got == [
        (0, "D(P(x y))", Fraction(1)),
        (1, "D^2(P(x y))", Fraction(1)),
        (2, "D^2(x) * D^2(y)", Fraction(-1)),
        (3, "D^3(x) * D^3(y)", Fraction(-1)),
    ]
    c2 = cfg(A2, 2)
    sys2 = RewriteSystem(c2, [section_rule(c2, parse_word("x y", A2))], 8)
    assert [(e.lift, e.leading_coeff) for e in sys2.lifted] == [
        (0, Fraction(1)),
        (1, Fraction(1)),
        (2, Fraction(-4)),
        (3, Fraction(-8)),
    ]
    # unweighted, the single-prime word leads at every lift
    c0 = cfg(A2, 0)
    sys0 = RewriteSystem(c0, [section_rule(c0, parse_word("x y", A2))], 8)
    assert [repr(e.leading_word) for e in sys0.lifted] == [
        "D(P(x y))",
        "D^2(P(x y))",
        "D^3(P(x y))",
        "D^4(P(x y))",
        "D^5(P(x y))",
    ]


@pytest.mark.parametrize("gens", (1, 2))
@pytest.mark.parametrize("weight", (0, 1, 2, -1, Fraction(1, 2)))
def test_closed_form_lift_leadings_match_full_expansion(gens, weight):
    # every listed lift leads as its full expansion does, and the first
    # lift not listed leads above the bound
    c = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    drbl = DrblSystem(c)
    for n in range(3, 7):
        for s1_only in (False, True):
            sys_ = drbl.system(n, s1_only=s1_only)
            lifts = {}
            for e in sys_.lifted:
                lifts.setdefault(e.rule_index, []).append(e)
            for idx, rule in enumerate(sys_.rules):
                entries = lifts.get(idx, [])
                assert [e.lift for e in entries] == list(range(len(entries)))
                for e in entries:
                    full = apply_D(c, rule.poly, e.lift)
                    assert (e.leading_word, e.leading_coeff) == leading(c, full)
                beyond = apply_D(c, rule.poly, len(entries))
                assert leading(c, beyond)[0].degree > n


def test_cores_are_expanded_on_first_use_one_lift_at_a_time(monkeypatch):
    c = cfg(A2, 1)
    rules = DrblSystem(c).system(5).rules
    steps = []

    def counting_apply_D(config, p, times=1):
        steps.append(times)
        return apply_D(config, p, times)

    monkeypatch.setattr(shirshov.rewriting, "apply_D", counting_apply_D)
    sys_ = RewriteSystem(c, rules, 5)
    assert steps == []
    top = max(sys_.lifted, key=lambda e: e.lift)
    assert top.lift >= 2
    assert sys_.core(top.rule_index, top.lift) == apply_D(
        c, sys_.rules[top.rule_index].poly, top.lift
    )
    # one D step per lift, each from the cached lift below
    assert steps == [1] * top.lift
    for e in sys_.lifted:
        assert sys_.core(e.rule_index, e.lift) == apply_D(
            c, sys_.rules[e.rule_index].poly, e.lift
        )


def test_find_ambiguities_is_memoised_as_fresh_lists():
    c = cfg(A1, 1)
    sys_ = DrblSystem(c).system(5)
    first = sys_.find_ambiguities()
    second = sys_.find_ambiguities()
    assert first and first == second and first is not second
    first.clear()
    assert sys_.find_ambiguities() == second


def test_high_derivative_of_operator_word_is_irreducible_when_weighted():
    w = parse_word("D^3(P(x y))", A2)
    c1 = cfg(A2, 1)
    sys1 = RewriteSystem(c1, [section_rule(c1, parse_word("x y", A2))], 8)
    assert not sys1.is_reducible(w)
    c0 = cfg(A2, 0)
    sys0 = RewriteSystem(c0, [section_rule(c0, parse_word("x y", A2))], 8)
    assert sys0.is_reducible(w)


def test_match_prefers_smallest_rule_index():
    c = cfg(A3)
    r0 = make_rule(c, parse_poly("P(x) P(y) - x", A3))
    r1 = make_rule(c, parse_poly("P(x) P(y) - y", A3))
    sys_ = RewriteSystem(c, [r0, r1], 6)
    entry, ctx = sys_.match(parse_word("P(x) P(y)", A3))
    assert entry.rule_index == 0 and ctx.is_identity
    assert sys_.reduce(parse_poly("P(x) P(y)", A3)) == parse_poly("x", A3)


def test_reduction_trace_accounts_for_the_input():
    rng = random.Random(31)
    c = cfg(A1, 1)
    rules = [
        section_rule(c, w)
        for w in (
            parse_word("x", A1),
            parse_word("D(x)", A1),
            parse_word("P(x)", A1),
        )
    ]
    sys_ = RewriteSystem(c, rules, 5)
    by_deg = enumerate_words(A1, 5)
    pool = [w for d in by_deg for w in by_deg[d]]
    for _ in range(10):
        p = Poly.zero()
        for _ in range(4):
            p = p + Poly.word(rng.choice(pool), Fraction(rng.randint(-3, 3)))
        for strategy in ("leading", "random"):
            log = []
            got = sys_.reduce(p, strategy=strategy, log=log, rng=rng)
            total = got
            for step in log:
                total = total + step.multiple
            assert total == p
            # nothing reducible survives
            assert all(not sys_.is_reducible(w) for w in got.terms)


def test_lie_trace_accounts_for_the_input():
    c = cfg(A1, 1)
    rules = [section_rule(c, parse_word("x", A1))]
    sys_ = RewriteSystem(c, rules, 5)
    p = lie_expand(c, shirshov_bracket(parse_word("D(P(x)) P(x)", A1), A1))
    log = []
    comb = sys_.lie_normal_form(p, log=log)
    total = comb.as_poly(c)
    for step in log:
        total = total + step.multiple
    assert total == p
    assert log, "expected at least one elimination"


def test_lie_mode_rejects_non_lie_input():
    c = cfg(A2, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A2))], 4)
    with pytest.raises(ValueError):
        sys_.reduce(parse_poly("y x", A2), mode="lie")


def test_section_rules_certify_up_to_degree_five():
    for weight in (0, 1):
        c = cfg(A1, weight)
        params = [
            parse_word(s, A1)
            for s in ("x", "D(x)", "P(x)", "D^2(x)", "D(P(x))", "P(D(x))", "P(P(x))")
        ]
        sys_ = RewriteSystem(c, [section_rule(c, w) for w in params], 5)
        ambs = sys_.find_ambiguities()
        assert ambs, "expected overlaps between section rules"
        kinds = {a.kind for a in ambs}
        assert "inclusion" in kinds
        # one expected shape: D(P(x)) occurring inside D(P(D(P(x))))
        target = parse_word("D(P(D(P(x))))", A1)
        assert any(a.word == target for a in ambs)
        for mode in ("assoc", "lie"):
            report = sys_.is_gsb(mode)
            assert report.passed, report.summary()
            assert "pass" in report.summary()


def test_broken_pair_fails_certification():
    c = cfg(A3)
    rules = [
        make_rule(c, parse_poly("P(x) P(y) - x", A3)),
        make_rule(c, parse_poly("P(y) P(z) - x", A3)),
    ]
    sys_ = RewriteSystem(c, rules, 6)
    ambs = sys_.find_ambiguities()
    inter = [a for a in ambs if a.kind == "intersection"]
    assert len(inter) == 1
    assert inter[0].word == parse_word("P(x) P(y) P(z)", A3)
    comp = sys_.composition(inter[0])
    assert comp == parse_poly("P(x) x - x P(z)", A3)
    report = sys_.is_gsb("assoc")
    assert not report.passed
    assert "not certified" in report.summary()


def test_disjoint_rules_certify_vacuously():
    c = cfg(A2)
    sys_ = RewriteSystem(c, [make_rule(c, parse_poly("P(x) - x", A2))], 3)
    report = sys_.is_gsb("assoc")
    assert report.passed and report.total == 0


def test_enumerate_irr_examples():
    c = cfg(A1, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A1))], 3)
    irr = sys_.enumerate_irr("lie")
    assert len(irr) == 8
    reprs = {repr(t) for t in irr}
    assert "D(P(x))" not in reprs
    assert {"x", "D(x)", "P(x)", "D^2(x)"} <= reprs
    # an empty system leaves every bracketed word irreducible
    empty = RewriteSystem(c, [], 3)
    assert len(empty.enumerate_irr("lie")) == 9
    assert empty.reduce(parse_poly("P(x) x + D(x)", A1)) == parse_poly(
        "P(x) x + D(x)", A1
    )


def test_reduce_guards_the_degree_bound():
    c = cfg(A1, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A1))], 3)
    with pytest.raises(ValueError):
        sys_.reduce(parse_poly("P(P(P(x)))", A1))
    with pytest.raises(ValueError):
        sys_.enumerate_irr("assoc", 9)


def test_module_level_reduce_matches_system():
    c = cfg(A1, 1)
    rules = [section_rule(c, parse_word("x", A1))]
    p = parse_poly("D(P(x)) + P(x)", A1)
    assert reduce_once(c, p, rules) == RewriteSystem(c, rules, 3).reduce(p)
