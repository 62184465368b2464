"""Rewrite engine: lifted rules, reduction traces, overlap certification."""

import gc
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
    Poly,
    RewriteSystem,
    Rule,
    apply_D,
    apply_operator,
    drbl_nf,
    enumerate_alsw_by_degree,
    leading,
    lie_expand,
    make_rule,
    parse_poly,
    parse_word,
    shirshov_bracket,
    special_expand,
)
from shirshov.cli import make_alphabet
from shirshov.reference import oracle_ambiguities
from shirshov.rewriting import collector_paused
from shirshov.rewriting import reduce as reduce_once
from shirshov.words import Context, Hole, enumerate_words


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
    # without stored leadings every group is ranked, to the same lifts
    bare = [Rule(rule.poly, rule.origin) for rule in sys_.rules]
    assert all(b.lead is None for b in bare) and bare == list(sys_.rules)
    got = RewriteSystem(c, bare, 7).lifted
    assert got == sys_.lifted
    assert [type(e.leading_coeff) for e in got] == [Fraction] * len(got)


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


def test_find_ambiguities_is_memoised_as_fresh_lists():
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
        for strategy in ("leading", "random"):
            log = []
            got = sys_.reduce(p, strategy=strategy, log=log, rng=rng)
            total = got
            for step in log:
                total = total + step.multiple
            assert total == p
            # nothing reducible survives
            assert all(not sys_.is_reducible(w) for w in got.terms)


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


def test_lie_mode_rejects_other_strategies():
    c = cfg(A2, 1)
    sys_ = RewriteSystem(c, [section_rule(c, parse_word("x", A2))], 4)
    p = lie_expand(c, shirshov_bracket(parse_word("x y", A2), A2))
    assert sys_.reduce(p, mode="lie", strategy="leading") == p
    for strategy in ("random", "bogus"):
        with pytest.raises(ValueError):
            sys_.reduce(p, mode="lie", strategy=strategy, rng=random.Random(0))


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
