"""Rewrite engine: lifted rules, reduction traces, overlap certification."""

import dataclasses
import gc
import pickle
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import shirshov.rewriting
import shirshov.words
from shirshov import (
    AlgebraConfig,
    Alphabet,
    DrblSystem,
    LiftedRule,
    Poly,
    RewriteSystem,
    apply_D,
    apply_operator,
    drbl_nf,
    enumerate_alsw,
    enumerate_alsw_by_degree,
    enumerate_basis,
    instantiate_rules,
    leading,
    lie_expand,
    make_rule,
    multiply,
    parse_poly,
    parse_word,
    s1_rules,
    shirshov_bracket,
    special_expand,
    subst_poly,
)
from shirshov.cli import make_alphabet
from shirshov.reference import oracle_quotient_dim
from shirshov.rewriting import collector_paused, lift_leadings
from shirshov.words import ArgHole, Context, Hole, Word, enumerate_words, occurrences
from oracles import oracle_ambiguities, oracle_random_reduce


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


def test_make_rule_divides_exactly_into_fractions():
    # a leading coefficient of 3 is divided out exactly, not through a
    # float, and a leading coefficient of 1 still gives Fraction terms
    c = cfg()
    xy, y = parse_word("x y", A2), parse_word("y", A2)
    r = make_rule(c, Poly({xy: 3, y: 1}))
    assert r.poly.terms == {xy: Fraction(1), y: Fraction(1, 3)}
    assert r.tops == {xy: Fraction(1), y: Fraction(1, 3)}
    r1 = make_rule(c, Poly({xy: 1, y: 2}))
    for rule in (r, r1):
        assert {type(k) for k in rule.poly.terms.values()} == {Fraction}
    lifted = RewriteSystem(c, [r, r1], 4).lifted
    assert lifted and all(type(e.leading_coeff) is Fraction for e in lifted)
    assert all(e.leading_coeff == 1 for e in lifted)


# non-monic, with several (degree, breadth) groups of several words each
GENERIC_RULES = (
    "2 P(x y) - 3 x y + 5 y x - 7 x",
    "-3 P(P(x) y) + 4 x y x - y x y + 1/2 D(x) y - 6 P(y) + y",
    "1/3 D(x) y + 2 x x y - 5 P(y) + y D(x)",
    "-4 D^2(P(x)) + 3/2 y x - 2 x y + P(x) y x",
)


@pytest.mark.parametrize("weight", (0, 1, 2, -1, Fraction(1, 2)), ids=str)
def test_generic_rule_lift_leadings_match_full_expansion(weight):
    # make_rule's tops give each listed lift the leading term of its full
    # expansion, and the first lift not listed leads above the bound; a
    # fresh alphabet, so that its key memo keeps no word alive past the test
    alphabet = Alphabet(("x", "y"), (("P", 1),))
    c = cfg(alphabet, weight)
    bound = 9
    polys = [parse_poly(t, alphabet) for t in GENERIC_RULES]
    sys_ = RewriteSystem(c, polys, bound)
    for idx, rule in enumerate(sys_.rules):
        assert leading(c, rule.poly) == (rule.lead, Fraction(1))
        entries = [e for e in sys_.lifted if e.rule_index == idx]
        assert [e.lift for e in entries] == list(range(len(entries)))
        assert len(entries) >= 2
        for e in entries:
            full = apply_D(c, rule.poly, e.lift)
            assert (e.leading_word, e.leading_coeff) == leading(c, full)
        beyond = apply_D(c, rule.poly, len(entries))
        assert leading(c, beyond)[0].degree > bound


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


def test_lifted_rules_compare_hash_print_and_pickle_by_value():
    c = cfg(A2, 1)
    e = RewriteSystem(c, [section_rule(c, parse_word("x y", A2))], 8).lifted[2]
    twin = LiftedRule(0, 2, parse_word("D^2(x) D^2(y)", A2), Fraction(-1))
    assert twin == e and hash(twin) == hash(e)
    assert twin != LiftedRule(0, 3, e.leading_word, e.leading_coeff)
    assert repr(e) == (
        "LiftedRule(rule_index=0, lift=2, leading_word=D^2(x) * D^2(y), "
        "leading_coeff=Fraction(-1, 1))"
    )
    assert pickle.loads(pickle.dumps(e)) == e
    # two engines over the same rules hold equal, not shared, lifted rules
    rules = DrblSystem(c).system(6).rules
    one, two = RewriteSystem(c, rules, 6), RewriteSystem(c, rules, 6)
    assert one.lifted[0] is not two.lifted[0]
    ambiguities = one.find_ambiguities()
    assert ambiguities and ambiguities == two.find_ambiguities()


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


@pytest.mark.parametrize("gens", (1, 2))
@pytest.mark.parametrize("weight", (0, 1, 2, -1, Fraction(1, 2)))
def test_every_rule_family_stores_its_monic_leading_word(gens, weight):
    c = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    sys_ = DrblSystem(c).system(7)
    families = Counter(r.origin[0] for r in sys_.rules)
    assert families["section"] and families["rota-baxter"]
    assert bool(families["completion"]) == (weight != 0)
    for rule in sys_.rules:
        assert leading(c, rule.poly) == (rule.lead, Fraction(1)), rule.origin
    # tops taken from every term give the same lifts
    bare = [make_rule(c, rule.poly, rule.origin) for rule in sys_.rules]
    assert bare == list(sys_.rules)
    got = RewriteSystem(c, bare, 7).lifted
    assert got == sys_.lifted
    assert [type(e.leading_coeff) for e in got] == [Fraction] * len(got)


@pytest.mark.parametrize("gens, degree", ((1, 9), (2, 7), (3, 6)))
@pytest.mark.parametrize("weight", (0, 1, 2, Fraction(1, 2), -1), ids=str)
def test_section_rule_tops_give_the_lift_leadings_of_the_built_polynomial(
    gens, degree, weight
):
    # a section rule's lifts lead as the generic grouping of its terms says,
    # coefficient types included, also past the bound its engine would use
    c = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    rules = s1_rules(DrblSystem(c), degree)
    assert rules and all(r.tops is not None for r in rules)
    for rule in rules:
        from_tops = list(lift_leadings(c, rule, degree + 2))
        from_poly = list(
            lift_leadings(c, make_rule(c, rule.poly, rule.origin), degree + 2)
        )
        assert from_tops == from_poly, rule.origin
        assert [type(lc) for _, _, lc in from_tops] == [Fraction] * len(from_tops)


def test_the_section_rule_engine_expands_no_bracket():
    alphabet = make_alphabet(2)
    drbl = DrblSystem(AlgebraConfig(alphabet, Fraction(1)))
    engine = drbl.system(9, s1_only=True)
    assert (len(engine.rules), len(engine.lifted)) == (7220, 8970)
    assert not alphabet._expansions
    # the first read of a rule's polynomial expands its bracket
    rule = engine.rules[-1]
    assert leading(drbl.config, rule.poly) == (rule.lead, Fraction(1))
    assert alphabet._expansions
    # an unread rule compares, hashes and prints as the eager one
    eager = make_rule(drbl.config, rule.poly, rule.origin)

    def unread():
        return DrblSystem(drbl.config).section_rule(rule.origin[1])

    assert unread() == eager and eager == unread()
    assert hash(unread()) == hash(eager)
    assert repr(unread()) == repr(eager)


def test_rota_baxter_rules_are_built_on_first_read():
    c = AlgebraConfig(make_alphabet(2), Fraction(0))
    engine = DrblSystem(c).system(7)
    pairs = [r for r in engine.rules if r.origin[0] == "rota-baxter"]
    assert len(pairs) == 296
    assert all(r._poly is None for r in pairs)
    # the check reads only the pair rules its compositions and reductions use
    assert engine.is_gsb("lie").summary() == "pass: all 245 compositions reduce to 0"
    assert sum(r._poly is not None for r in pairs) == 127
    # an unread rule compares, hashes and prints as the eager one
    rule = pairs[-1]
    eager = make_rule(c, rule.poly, rule.origin)

    def unread():
        return DrblSystem(c).rota_baxter_rule(*rule.origin[1:])

    assert unread() == eager and eager == unread()
    assert hash(unread()) == hash(eager)
    assert repr(unread()) == repr(eager)


@pytest.mark.parametrize("gens, degree", ((1, 9), (2, 7)))
@pytest.mark.parametrize("weight", (0, 1, 2, Fraction(1, 2), -1), ids=str)
def test_rota_baxter_rule_top_gives_the_lift_leadings_of_the_built_polynomial(
    gens, degree, weight
):
    # P(u)·P(v) leads every lift of f(u,v) at every weight, past the bound
    # its engine would use too
    c = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    drbl = DrblSystem(c)
    key = c.alphabet.key
    params = enumerate_alsw(c, degree - 3)
    rules = [
        drbl.rota_baxter_rule(u, v)
        for u in params
        for v in params
        if u.degree + v.degree <= degree - 2 and key(u) > key(v)
    ]
    assert rules
    for rule in rules:
        assert len(rule.tops) == 1
        from_tops = list(lift_leadings(c, rule, degree + 2))
        from_poly = list(
            lift_leadings(c, make_rule(c, rule.poly, rule.origin), degree + 2)
        )
        assert from_tops == from_poly, rule.origin
        assert [type(lc) for _, _, lc in from_tops] == [Fraction] * len(from_tops)


@pytest.mark.parametrize("weight", (0, 1))
def test_engines_hold_no_reference_cycles(weight):
    # dropping the system frees everything by reference counting, read
    # rules and unread ones alike, so pausing the collector loses nothing
    gc.collect()
    drbl = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(weight)))
    for s1_only in (True, False):
        engine = drbl.system(7, s1_only=s1_only)
        for rule in engine.rules[::3]:
            rule.poly
        engine.core(0, 1)
    nf = drbl_nf(parse_poly("D^2(P([x1 x2]))", engine.config.alphabet), drbl)
    assert not nf.is_zero()
    probe = weakref.ref(drbl)
    del drbl, engine, rule, nf
    assert probe() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("weight", (0, 1))
def test_section_rules_are_built_without_ranking_their_terms(weight):
    # the keys computed are those of the parameters (degree <= 5), none of
    # a rule term D(P(m)) of degree 7
    alphabet = make_alphabet(2)
    sys_ = DrblSystem(AlgebraConfig(alphabet, Fraction(weight))).system(
        7, s1_only=True
    )
    assert len(sys_.lifted) > len(sys_.rules) > 0
    assert max(w.degree for w in alphabet._word_keys) == 5


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
    # drbl_nf shares the cache: D^3(P(x)) reduces by the 2-lift of g(x)
    steps.clear()
    log = []
    nf = drbl_nf(parse_poly("D^3(P(x))", A1), DrblSystem(cfg(A1, 1)), log=log)
    assert [(s.rule_index, s.lift) for s in log] == [
        (("section", parse_word("x", A1)), 2)
    ]
    assert repr(nf) == "D^2(x)"
    assert steps == [1, 1]


@pytest.mark.parametrize("weight", (0, 1, Fraction(1, 2)), ids=str)
def test_cached_cores_and_multiples_equal_fresh_ones_after_a_check(weight):
    # a reduction or composition that subtracted from a cached dict would
    # leave an entry that differs from a fresh expansion
    config = AlgebraConfig(make_alphabet(2), Fraction(weight))
    engine = DrblSystem(config).system(6)
    assert engine.is_gsb("lie")
    fresh = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(weight))).system(6)
    lifts = engine._lifts
    assert len(lifts._cores) >= len(lifts._leads) > 10 and len(lifts._specials) > 10
    for (i, lift), core in lifts._cores.items():
        want = apply_D(config, fresh.rules[i].poly, lift)
        assert list(core.terms.items()) == list(want.terms.items())
    for (i, lift), (v, lc) in lifts._leads.items():
        assert (v, lc) == leading(config, lifts._cores[(i, lift)])
    for (i, lift, ctx), (terms, lc) in lifts._specials.items():
        core = apply_D(config, fresh.rules[i].poly, lift)
        want = special_expand(config, ctx, leading(config, core)[0], core)
        assert list(terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("weight", (0, Fraction(1, 2)), ids=str)
def test_checks_in_both_modes_leave_rules_and_cached_cores_as_built(weight):
    # lift 0 of the cache is the rule's own polynomial, so a composition or
    # reduction in either mode that subtracted from a cached core in place
    # would change the rule too
    config = AlgebraConfig(make_alphabet(2), Fraction(weight))
    engine = DrblSystem(config).system(6)
    engine.is_gsb("assoc")
    engine.is_gsb("lie")
    fresh = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(weight))).system(6)
    for rule, want in zip(engine.rules, fresh.rules):
        assert list(rule.poly.terms.items()) == list(want.poly.terms.items())
    cores = engine._lifts._cores
    assert sum(lift == 0 for _, lift in cores) > 10 and len(cores) > 20
    for (i, lift), core in cores.items():
        if lift == 0:
            assert core is engine.rules[i].narrowed
        want = apply_D(config, fresh.rules[i].poly, lift)
        assert list(core.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("weight", (0, 1))
def test_lifts_above_the_bound_are_certified_by_the_closed_form(weight):
    # the engine's table ends at the bound; past it the cache asks
    # lift_leadings, so one index past a rule's last lift is not the next
    # rule's first
    config = AlgebraConfig(make_alphabet(2), Fraction(weight))
    engine = DrblSystem(config).system(5)
    last = {}
    for e in engine.lifted:
        last[e.rule_index] = e.lift
    for i, lift in list(last.items())[:20]:
        for above in (lift + 1, lift + 2):
            core = engine.core(i, above)
            assert engine._lifts.lead(i, above) == leading(config, core)


@pytest.mark.parametrize("mode", ("lie", "assoc"))
@pytest.mark.parametrize("weight", (0, 1))
def test_composing_an_inclusion_twice_gives_one_answer(mode, weight):
    # an inclusion multiplies the left lift in the identity context, where
    # the special bracketing returns the (narrowed) core's terms as they are;
    # the composition then subtracts from them in place
    engine = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(weight))).system(6)
    inclusions = [a for a in engine.find_ambiguities() if a.kind == "inclusion"]
    assert len(inclusions) > 10
    for amb in inclusions:
        core = engine.core(amb.left.rule_index, amb.left.lift)
        before = list(core.terms.items())
        first = engine.composition(amb, mode)
        assert engine.composition(amb, mode) == first
        assert list(core.terms.items()) == before


@pytest.mark.parametrize("fault", ("word", "coefficient"))
def test_a_planted_core_with_a_wrong_leading_term_fails_its_first_use(fault):
    def plant(lifts, key, lift):
        config = lifts.config
        core = lifts.core(key, lift)
        if fault == "word":
            lifts._cores[(key, lift)] = apply_D(config, core)
        else:
            lifts._cores[(key, lift)] = core.scale(2)

    config = AlgebraConfig(make_alphabet(2), Fraction(0))
    amb = next(
        a
        for a in DrblSystem(config).system(6).find_ambiguities()
        if a.kind == "inclusion" and a.right.lift
    )
    right = amb.right
    engine = DrblSystem(config).system(6)
    plant(engine._lifts, right.rule_index, right.lift)
    with pytest.raises(ValueError, match="core leading term"):
        engine.composition(amb, "lie")
    engine = DrblSystem(config).system(6)
    plant(engine._lifts, right.rule_index, right.lift)
    with pytest.raises(ValueError, match="core leading term"):
        engine.special_multiple(right.rule_index, right.lift, amb.context)
    # drbl_nf's lifts go through the same cache
    drbl = DrblSystem(config)
    x1 = parse_word("x1", config.alphabet)
    plant(drbl._lifts, ("section", x1), 1)
    with pytest.raises(ValueError, match="core leading term"):
        drbl_nf(parse_poly("D^2(P(x1))", config.alphabet), drbl)


def test_a_rule_led_by_a_word_that_is_not_lyndon_shirshov_fails_its_first_lie_use():
    # x x leads the rule's lift 0 in closed form and in its core alike, but
    # it is not Lyndon-Shirshov, so it has no special bracketing in x x y
    c = cfg()
    engine = RewriteSystem(c, [parse_poly("x x - y", A2)], 3)
    with pytest.raises(ValueError, match="lifted leading word is not Lyndon-Shirshov"):
        engine.lie_normal_form(parse_poly("[x [x y]]", A2))


class BoundedLog(list):
    """A reduction log that fails a reduction running past ``limit`` steps."""

    limit = 20

    def append(self, step):
        assert len(self) < self.limit, "reduction did not stop"
        super().append(step)


def test_a_planted_core_whose_multiple_does_not_cancel_fails_assoc_reduction():
    # assoc mode reads the core without certifying it, so a doubled core
    # reaches the cancellation check; the log stops the loop it would start
    config = AlgebraConfig(make_alphabet(2), Fraction(0))
    engine = DrblSystem(config).system(6)
    p = parse_poly("D^2(P(x1)) * x2", config.alphabet)
    entry, _ = engine.match(next(iter(p.terms)))
    assert entry.lift == 1
    core = engine.core(entry.rule_index, entry.lift)
    engine._lifts._cores[(entry.rule_index, entry.lift)] = core.scale(2)
    with pytest.raises(RuntimeError, match="rule multiple does not cancel"):
        engine.reduce(p, log=BoundedLog())


def test_a_planted_ambiguity_word_that_is_not_lyndon_shirshov_fails_its_lie_composition():
    # a square is never Lyndon-Shirshov (its second half is a proper prefix,
    # so greater), and it outranks the true word, so no later check fires
    config = AlgebraConfig(make_alphabet(2), Fraction(0))
    engine = DrblSystem(config).system(6)
    amb = engine.find_ambiguities()[0]
    planted = dataclasses.replace(amb, word=Word(amb.word.primes * 2))
    assert engine.composition(planted, "assoc") == engine.composition(amb, "assoc")
    with pytest.raises(ValueError, match="ambiguity word .* is not Lyndon-Shirshov"):
        engine.composition(planted, "lie")


def test_a_planted_core_that_keeps_the_ambiguity_word_fails_its_composition():
    # assoc mode reads the cores without certifying them: a doubled left
    # core leaves the ambiguity word in the difference
    config = AlgebraConfig(make_alphabet(2), Fraction(0))
    engine = DrblSystem(config).system(6)
    amb = next(
        a for a in engine.find_ambiguities() if a.left[:2] != a.right[:2]
    )
    left = amb.left
    core = engine.core(left.rule_index, left.lift)
    engine._lifts._cores[(left.rule_index, left.lift)] = core.scale(2)
    with pytest.raises(
        RuntimeError, match="composition leading .* not below ambiguity word"
    ):
        engine.composition(amb, "assoc")


def test_a_planted_lead_coefficient_fails_the_special_multiple_certificate():
    # the cache trusts its certified leads; a wrong coefficient there is
    # caught by the multiple's own certificate
    config = AlgebraConfig(make_alphabet(2), Fraction(0))
    engine = DrblSystem(config).system(6)
    amb = next(a for a in engine.find_ambiguities() if a.kind == "inclusion")
    right = amb.right
    v, lc = engine._lifts.lead(right.rule_index, right.lift)
    engine._lifts._leads[(right.rule_index, right.lift)] = v, 2 * lc
    with pytest.raises(RuntimeError, match="special multiple certificate failed"):
        engine.special_multiple(right.rule_index, right.lift, amb.context)


def test_find_ambiguities_returns_equal_fresh_lists():
    c = cfg(A1, 1)
    sys_ = DrblSystem(c).system(5)
    first = sys_.find_ambiguities()
    second = sys_.find_ambiguities()
    assert first and first == second and first is not second
    first.clear()
    assert sys_.find_ambiguities() == second


def assert_same_ambiguities(sys_):
    got = sys_.find_ambiguities()
    want = oracle_ambiguities(sys_)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("gens", (1, 2))
@pytest.mark.parametrize("weight", (0, 1, 2, -1, Fraction(1, 2)))
def test_indexed_ambiguity_search_matches_all_pairs_oracle(gens, weight):
    c = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    drbl = DrblSystem(c)
    # the all-pairs oracle takes seconds on the two-generator degree-7
    # systems, so only the weights 0 and 1 run there
    top = 7 if gens == 1 or weight in (0, 1) else 6
    for n in range(4, top + 1):
        for s1_only in (False, True):
            assert_same_ambiguities(drbl.system(n, s1_only=s1_only))


@pytest.mark.parametrize(
    "weight, total", ((0, 76), (Fraction(1, 2), 49))
)
def test_assoc_compositions_match_the_product_formula(weight, total):
    # both sides are context multiples; this is the same composition
    # spelled as products of rule lifts with words, and as the lift itself
    sys_ = DrblSystem(AlgebraConfig(make_alphabet(3), weight)).system(6)
    ambs = sys_.find_ambiguities()
    kinds = Counter(
        "nested"
        if a.kind == "inclusion" and type(a.context.core) is ArgHole
        else a.kind
        for a in ambs
    )
    assert len(ambs) == total
    assert kinds["intersection"] == 1 and kinds["nested"] == 42
    assert any(a.left.lift or a.right.lift for a in ambs)
    for amb in ambs:
        left, right = amb.left, amb.right
        core_l = sys_.core(left.rule_index, left.lift)
        core_r = sys_.core(right.rule_index, right.lift)
        if amb.kind == "intersection":
            lp = left.leading_word.primes
            a = Word(right.leading_word.primes[amb.overlap :])
            b = Word(lp[: len(lp) - amb.overlap])
            side_l = multiply(core_l, Poly.word(a))
            side_r = multiply(Poly.word(b), core_r)
        else:
            side_l = core_l
            side_r = subst_poly(amb.context, core_r)
        want = side_l.scale(1 / left.leading_coeff) - side_r.scale(
            1 / right.leading_coeff
        )
        got = sys_.composition(amb, "assoc")
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())


def test_inclusion_positions_follow_occurrence_order():
    # P(y) occurs in P(P(y)) P(y) at top level after the nested occurrence;
    # top-level occurrences are numbered first
    c = cfg(A3)
    rules = [
        make_rule(c, parse_poly("P(y) - z", A3)),
        make_rule(c, parse_poly("P(P(y)) P(y) - x", A3)),
    ]
    sys_ = RewriteSystem(c, rules, 6)
    assert_same_ambiguities(sys_)
    got = [
        (a.left.lift, a.position, repr(a.context))
        for a in sys_.find_ambiguities()
        if a.left.rule_index == 1 and a.right.rule_index == 0
    ]
    assert got == [
        (0, 0, "P(P(y)) * *"),
        (0, 1, "P(*) * P(y)"),
        (1, 0, "D(P(P(y))) * *"),
        (1, 1, "D(P(*)) * P(y)"),
    ]


def test_find_ambiguities_calls_occurrences_zero_times(monkeypatch):
    calls = []
    original = shirshov.words.occurrences

    def counting_occurrences(w, p):
        calls.append(p)
        return original(w, p)

    # patch every module that holds the name, so a re-added import counts
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("shirshov") and hasattr(module, "occurrences"):
            monkeypatch.setattr(module, "occurrences", counting_occurrences)
    sys_ = DrblSystem(cfg(A2, 1)).system(6)
    assert sys_.find_ambiguities()
    assert calls == []
    # the oracle goes through the patched name, so the counter is live
    oracle_ambiguities(sys_)
    assert calls


def test_degree_nine_section_system_ambiguity_count():
    sys_ = DrblSystem(AlgebraConfig(make_alphabet(2), 1)).system(9, s1_only=True)
    ambs = sys_.find_ambiguities()
    assert len(ambs) == 3764
    kinds = Counter(a.kind for a in ambs)
    assert kinds == {"inclusion": 3755, "intersection": 9}


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
        for reduce in (
            sys_.reduce,
            lambda p, log: oracle_random_reduce(sys_, p, rng, log),
        ):
            log = []
            got = reduce(p, log=log)
            total = got
            for step in log:
                total = total + step.multiple
            assert total == p
            # nothing reducible survives
            assert all(not sys_.is_reducible(w) for w in got.terms)


@pytest.mark.parametrize("weight", (0, Fraction(1, 2), 1))
def test_random_elimination_orders_agree_with_greatest_first(weight):
    # Confluence of the full rule system: sums of ambiguity words, where
    # the random oracle's choice of rule matters.  At degree 5 the only
    # ambiguities are section rules inside section rules, whose
    # compositions vanish by linearity, so the bound is 6.
    engine = DrblSystem(AlgebraConfig(make_alphabet(2), weight)).system(6)
    pool = sorted(
        {a.word for a in engine.find_ambiguities()}, key=engine.config.alphabet.key
    )
    rng = random.Random(43)
    orders = [random.Random(seed) for seed in (1, 2)]
    for _ in range(100):
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            p = p + Poly.word(
                rng.choice(pool), Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            )
        nf = engine.reduce(p)
        for order in orders:
            log = []
            assert oracle_random_reduce(engine, p, order, log) == nf
            total = nf
            for step in log:
                total = total + step.multiple
            assert total == p


def _engine_lie_nf(c, p, log):
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A1))], 5)
    return sys_.lie_normal_form(p, log=log)


def _drbl_lie_nf(c, p, log):
    return drbl_nf(p, DrblSystem(c), log=log)


@pytest.mark.parametrize(
    "normal_form", [_engine_lie_nf, _drbl_lie_nf], ids=["engine", "drbl_nf"]
)
def test_lie_trace_accounts_for_the_input(normal_form):
    c = cfg(A1, 1)
    p = lie_expand(c, shirshov_bracket(parse_word("D(P(x)) P(x)", A1), A1))
    log = []
    comb = normal_form(c, p, log)
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
    p = lie_expand(c, shirshov_bracket(parse_word("x y", A2), A2))
    assert sys_.reduce(p, mode="lie") == p


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
    assert_same_ambiguities(sys_)
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


@pytest.mark.parametrize("weight", (0, 1))
def test_enumerate_irr_assoc_keeps_the_words_no_lifted_leading_occurs_in(weight):
    # the engine's run lookup against the occurrence walker of ``words``
    sys_ = DrblSystem(cfg(A1, weight)).system(5)
    leads = [e.leading_word for e in sys_.lifted]
    by_deg = enumerate_words(A1, 5)
    for bound in (4, 5):
        want = [
            w
            for d in range(1, bound + 1)
            for w in by_deg[d]
            if not any(occurrences(w, v) for v in leads)
        ]
        assert sys_.enumerate_irr("assoc", bound) == want
        assert 0 < len(want) < sum(len(by_deg[d]) for d in range(1, bound + 1))


def test_reduce_guards_the_degree_bound():
    c = cfg(A1, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A1))], 3)
    with pytest.raises(ValueError):
        sys_.reduce(parse_poly("P(P(P(x)))", A1))
    with pytest.raises(ValueError):
        sys_.enumerate_irr("assoc", 9)


BOUNDARY_WEIGHTS = (0, 1, Fraction(1, 2))


def _lie_inputs(c, count=8, seed=47):
    """Random Lie elements of degree ≤ 5 with integral and fractional
    coefficients; their normal forms are nonzero."""
    rng = random.Random(seed)
    by_deg = enumerate_alsw_by_degree(c.alphabet, 5)
    pool = [u for d in by_deg for u in by_deg[d]]
    out = []
    for _ in range(count):
        p = Poly.zero()
        for _ in range(3):
            t = shirshov_bracket(rng.choice(pool), c.alphabet)
            coeff = rng.choice((1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2)))
            p = p + lie_expand(c, t).scale(coeff)
        out.append(p)
    return out


def _only_fractions(values):
    values = list(values)
    assert all(type(v) is Fraction for v in values), values
    return len(values)


def _logged_fractions(log):
    for step in log:
        assert type(step.coefficient) is Fraction
        _only_fractions(step.multiple.terms.values())
    return len(log)


@pytest.mark.parametrize("weight", BOUNDARY_WEIGHTS)
def test_public_coefficients_are_fractions(weight):
    """Integer arithmetic stays inside: every coefficient the engine,
    ``special_expand`` and ``drbl_nf`` hand out is a ``Fraction``."""
    c = cfg(A2, weight)
    drbl = DrblSystem(c)
    engine = drbl.system(6)
    terms = steps = 0
    for amb in engine.find_ambiguities()[::7]:
        for mode in ("assoc", "lie"):
            terms += _only_fractions(engine.composition(amb, mode).terms.values())
    for entry in engine.lifted[::9]:
        core = engine.core(entry.rule_index, entry.lift)
        terms += _only_fractions(core.terms.values())
        ctx = Context((), Hole(0), ())
        terms += _only_fractions(
            special_expand(c, ctx, entry.leading_word, core).terms.values()
        )
        terms += _only_fractions(
            engine.special_multiple(entry.rule_index, entry.lift, ctx).terms.values()
        )
    for p in _lie_inputs(c):
        for mode in ("assoc", "lie"):
            log = []
            terms += _only_fractions(engine.reduce(p, mode=mode, log=log).terms.values())
            steps += _logged_fractions(log)
        for normal_form in (engine.lie_normal_form, lambda q, log: drbl_nf(q, drbl, log=log)):
            log = []
            nf = normal_form(p, log)
            terms += _only_fractions(coeff for coeff, _ in nf.terms)
            steps += _logged_fractions(log)
    assert terms > 100 and steps > 10


@pytest.mark.parametrize("weight", BOUNDARY_WEIGHTS)
def test_lie_normal_forms_do_not_depend_on_logging(weight):
    """``log=None`` and ``log=[]`` give identical results, and the logged
    multiples plus the output's expansion sum back to the input."""
    c = cfg(A2, weight)
    drbl = DrblSystem(c)
    engine = drbl.system(6)

    def typed(items):
        return [(w, type(x), x) for w, x in items]

    logged = 0
    for p in _lie_inputs(c, seed=53):
        log = []
        quiet = engine.reduce(p, mode="lie")
        loud = engine.reduce(p, mode="lie", log=log)
        assert typed(quiet.terms.items()) == typed(loud.terms.items())
        assert sum((s.multiple for s in log), loud) == p
        logged += len(log)
        for normal_form in (
            engine.lie_normal_form,
            lambda q, log=None: drbl_nf(q, drbl, log=log),
        ):
            log = []
            loud = normal_form(p, log)
            quiet = normal_form(p)
            assert typed((t, coeff) for coeff, t in quiet.terms) == typed(
                (t, coeff) for coeff, t in loud.terms
            )
            assert sum((s.multiple for s in log), loud.as_poly(c)) == p
            logged += len(log)
    assert logged > 10


@pytest.fixture
def collector_state():
    """Yields a setter for the collector's state, restored afterwards."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


def test_collector_pause_restores_the_state_it_found(collector_state):
    for enabled in (True, False):
        collector_state(enabled)
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("inside the pause")
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_engine_calls_leave_the_collector_as_they_found_it(
    collector_state, enabled
):
    collector_state(enabled)
    engine = DrblSystem(cfg(A2, 0)).system(5)
    assert gc.isenabled() is enabled
    assert engine.is_gsb("lie")
    assert gc.isenabled() is enabled
    # degree 8 at nonzero weight is refused while the rules are built
    refused = DrblSystem(AlgebraConfig(make_alphabet(1), Fraction(1)))
    with pytest.raises(RuntimeError, match="rule system not completed"):
        refused.system(8)
    assert gc.isenabled() is enabled

    def broken(amb, mode):
        raise ZeroDivisionError("inside is_gsb")

    engine.composition = broken
    with pytest.raises(ZeroDivisionError):
        engine.is_gsb("lie")
    assert gc.isenabled() is enabled


def test_a_dropped_engine_is_freed_without_the_collector(collector_state):
    collector_state(False)
    config = cfg(A1, 1)
    drbl = DrblSystem(config)
    engine = drbl.system(7)
    assert any(r.origin[0] == "completion" for r in engine.rules)
    assert engine.is_gsb("lie")
    expr = parse_poly("D^2(P([P(x) x]))", A1)
    assert drbl_nf(expr, drbl) == drbl_nf(expr, DrblSystem(config))
    refs = [weakref.ref(o) for o in (drbl, drbl._lifts, engine, engine._lifts)]
    del drbl, engine
    assert [r() for r in refs] == [None] * len(refs)


def test_a_pause_leaves_no_young_collection_behind(collector_state):
    # the pause's exit promotes what the build allocated, so no young or
    # middle collection rescans it afterwards
    if gc.get_freeze_count():
        pytest.skip("the interpreter froze objects at startup, so no pause promotes")
    collector_state(True)
    gc.collect()
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        engine = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(1))).system(
            7, s1_only=True
        )
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert gc.get_count()[0] < gc.get_threshold()[0]
    assert engine.rules


def test_basis_and_oracle_builders_leave_the_collector_idle(collector_state):
    # enumerate_basis, instantiate_rules and oracle_quotient_dim run paused:
    # what they allocate is long-lived, so a collection there frees nothing
    collector_state(True)
    config = AlgebraConfig(make_alphabet(2), Fraction(1))
    drbl = DrblSystem(config)

    def collections_during(build, *args):
        gc.collect()
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(count)
        try:
            result = build(*args)
        finally:
            gc.callbacks.remove(count)
        assert gc.isenabled()
        return started, result

    started, basis = collections_during(enumerate_basis, drbl, 6)
    assert started == [] and len(basis[6]) == 785
    started, rules = collections_during(instantiate_rules, drbl, 6)
    assert started == [] and rules
    started, dims = collections_during(oracle_quotient_dim, config, rules, 6)
    assert started == [] and dims[-1] == 785


@pytest.fixture
def frozen_objects():
    """Frozen objects: the interpreter's own if it froze some at startup (as
    CPython 3.12 does), else every tracked object, unfrozen afterwards."""
    if gc.get_freeze_count():
        yield
        return
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def test_a_pause_leaves_frozen_objects_frozen(collector_state, frozen_objects):
    collector_state(True)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    engine = DrblSystem(cfg(A2, 0)).system(5)
    assert gc.get_freeze_count() == frozen
    assert engine.is_gsb("lie")
    assert gc.get_freeze_count() == frozen
