"""Reference oracles, cross-checked against an independent construction."""

import sys
from fractions import Fraction

import pytest

import shirshov

from shirshov import (
    AlgebraConfig,
    Alphabet,
    DrblSystem,
    Poly,
    apply_D,
    apply_operator,
    commutator,
    enumerate_alsw_by_degree,
    instantiate_rules,
    leading,
    lie_expand,
    shirshov_bracket,
)
from shirshov.cli import main, make_alphabet
from shirshov.words import Prime, Word
from shirshov.reference import oracle_quotient_dim
from oracles import (
    naive_ideal_rows,
    oracle_all_bracketings,
    oracle_ideal_rows,
    oracle_lyndon_count,
)


A1 = Alphabet(("x",), (("P", 1),))
A2 = Alphabet(("x", "y"), (("P", 1),))
PURE2 = Alphabet(("x", "y"))


def generators_only(alphabet):
    def letters(d, alsw_by_deg):
        return [Prime(0, g) for g in alphabet.generators] if d == 1 else []

    return letters


def test_lyndon_count_anchors():
    assert oracle_lyndon_count(2, 1) == 2
    assert oracle_lyndon_count(2, 5) == 6
    assert oracle_lyndon_count(3, 4) == 18
    assert [oracle_lyndon_count(2, n) for n in range(1, 9)] == [
        2, 1, 2, 3, 6, 9, 18, 30,
    ]
    with pytest.raises(ValueError):
        oracle_lyndon_count(5, 3)
    with pytest.raises(ValueError):
        oracle_lyndon_count(2, 11)


def test_bracketing_oracle_bounds():
    from shirshov import parse_word

    with pytest.raises(ValueError):
        oracle_all_bracketings(parse_word("y x", A2), A2)


def test_quotient_dim_pure_lie():
    config = AlgebraConfig(PURE2)
    dims = oracle_quotient_dim(config, [], 2, letters=generators_only(PURE2))
    assert dims == (2, 1)


def test_quotient_dim_small_weighted_systems():
    config = AlgebraConfig(A1, Fraction(1))
    sys_ = DrblSystem(config)
    assert oracle_quotient_dim(config, instantiate_rules(sys_, 2), 2) == (1, 2)
    assert oracle_quotient_dim(config, instantiate_rules(sys_, 3), 3) == (1, 2, 5)


def test_quotient_dim_empty_rules_counts_words():
    config = AlgebraConfig(A2, Fraction(1))
    by_deg = enumerate_alsw_by_degree(A2, 3)
    dims = oracle_quotient_dim(config, [], 3)
    assert dims == tuple(len(by_deg[d]) for d in (1, 2, 3))


# ---------------------------------------------------------------------------
# An independent second construction of the same quotient dimensions: close
# the rule polynomials under the three ideal-forming operations (the
# differential, the operator, brackets against every bracketed word of the
# language) inside the degree bound, and count surviving leading words.


def closure_quotient_dims(config, rules, max_degree, letters=None, use_d=True):
    alphabet = config.alphabet
    key = alphabet.key
    by_deg = enumerate_alsw_by_degree(alphabet, max_degree, letters)
    alsws = [w for d in range(1, max_degree + 1) for w in by_deg.get(d, ())]
    carriers = [
        lie_expand(config, shirshov_bracket(u, alphabet)) for u in alsws
    ]
    op = alphabet.operators[0][0] if alphabet.operators else None

    pivots = {}

    def insert(row):
        terms = dict(row.terms)
        while terms:
            lead = max(terms, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                coeff = terms[lead]
                pivots[lead] = {w: c / coeff for w, c in terms.items()}
                return Poly(terms)
            coeff = terms[lead]
            for w, c in pivot.items():
                nc = terms.get(w, 0) - coeff * c
                if nc:
                    terms[w] = nc
                else:
                    terms.pop(w, None)
        return None

    work = []
    for rule in rules:
        poly = getattr(rule, "poly", rule)
        if poly.max_degree() <= max_degree:
            reduced = insert(poly)
            if reduced is not None:
                work.append(reduced)
    while work:
        row = work.pop()
        candidates = [apply_D(config, row)] if use_d else []
        if op is not None:
            candidates.append(apply_operator(op, row))
        candidates.extend(commutator(row, m) for m in carriers)
        for cand in candidates:
            if not cand or cand.max_degree() > max_degree:
                continue
            reduced = insert(cand)
            if reduced is not None:
                work.append(reduced)

    counts = {d: 0 for d in range(1, max_degree + 1)}
    for u in alsws:
        counts[u.degree] += 1
    for lead in pivots:
        counts[lead.degree] -= 1
    return tuple(counts[d] for d in range(1, max_degree + 1))


def test_closure_construction_agrees_with_oracle():
    for alphabet, weight, bound in ((A1, 1, 4), (A1, 0, 4), (A2, 1, 3)):
        config = AlgebraConfig(alphabet, Fraction(weight))
        rules = instantiate_rules(DrblSystem(config), bound)
        assert closure_quotient_dims(
            config, rules, bound
        ) == oracle_quotient_dim(config, rules, bound)


def test_closure_construction_pure_lie():
    config = AlgebraConfig(PURE2)
    hook = generators_only(PURE2)
    # free Lie algebra dimensions on two generators
    assert closure_quotient_dims(
        config, [], 4, letters=hook, use_d=False
    ) == (2, 1, 2, 3)
    # a classical nontrivial quotient: killing the generator bracket
    # abelianizes, so nothing of degree two or more survives
    from shirshov import parse_poly

    r = parse_poly("x y - y x", PURE2)
    got = closure_quotient_dims(config, [r], 4, letters=hook, use_d=False)
    assert got == (2, 0, 0, 0)
    assert got == oracle_quotient_dim(config, [r], 4, letters=hook)


def test_quotient_dim_size_guard():
    import shirshov.reference as reference

    config = AlgebraConfig(A2, Fraction(1))
    sys_ = DrblSystem(config)
    saved = reference._MONOMIAL_CAP
    reference._MONOMIAL_CAP = 10
    try:
        with pytest.raises(RuntimeError):
            oracle_quotient_dim(config, instantiate_rules(sys_, 4), 4)
    finally:
        reference._MONOMIAL_CAP = saved


def test_quotient_dim_size_guard_on_the_command_line(monkeypatch, capsys):
    import shirshov.reference as reference

    monkeypatch.setattr(reference, "_MONOMIAL_CAP", 10)
    argv = ["oracle-dim", "--gens", "2", "--lambda", "1", "--max-deg", "4"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: oracle instance too large")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# The indexed ideal-row search against the naive occurrences scan.


def assert_same_rows(got, want):
    assert got == want
    assert [list(r.terms.items()) for r in got] == [
        list(r.terms.items()) for r in want
    ]


ROW_GRID = [
    (gens, weight, bound)
    for gens in (1, 2)
    for weight in ("0", "1", "2", "-1", "1/2")
    for bound in (4, 5, 6)
] + [(1, "0", 7), (1, "1", 7)]


@pytest.mark.parametrize("gens,weight,bound", ROW_GRID)
def test_indexed_rows_equal_the_naive_scan(gens, weight, bound):
    config = AlgebraConfig(make_alphabet(gens), Fraction(weight))
    rules = instantiate_rules(DrblSystem(config), bound)
    rows = oracle_ideal_rows(config, rules, bound)
    assert rows
    assert_same_rows(rows, naive_ideal_rows(config, rules, bound))


def test_every_lift_sharing_a_leading_word_gets_its_rows():
    config = AlgebraConfig(A2, Fraction(1))
    rules = instantiate_rules(DrblSystem(config), 5)
    polys = [r.poly for r in rules]
    # same leading words, different coefficients: each lift must keep its rows
    twice = polys + [p.scale(2) for p in polys]
    rows = oracle_ideal_rows(config, twice, 5)
    assert_same_rows(rows, naive_ideal_rows(config, twice, 5))
    single = oracle_ideal_rows(config, polys, 5)
    assert rows == single + [r.scale(2) for r in single]


@pytest.mark.parametrize("weight,want", [("0", 47), ("1", 46)])
def test_quotient_dim_lifts_a_rule_only_while_the_lift_fits(
    monkeypatch, weight, want
):
    import shirshov.reference as reference

    config = AlgebraConfig(make_alphabet(2), Fraction(weight))
    bound = 6
    seen = []

    def counting_apply_D(config_, core, times=1):
        seen.append(leading(config_, core)[0].degree)
        return apply_D(config_, core, times)

    monkeypatch.setattr(reference, "apply_D", counting_apply_D)
    rules = instantiate_rules(DrblSystem(config), bound)
    assert oracle_quotient_dim(config, rules, bound)[-1] == 785
    # expanding every lift until it overshoots took 203 (λ = 0) and 192 (λ = 1)
    assert len(seen) == want
    assert max(seen) < bound


def test_ideal_rows_refuse_a_rule_not_led_by_a_lyndon_shirshov_word():
    from shirshov import parse_poly

    config = AlgebraConfig(PURE2)
    hook = generators_only(PURE2)
    # "y x" occurs in no ALSW word of degree 2, so only the check can see it
    r = parse_poly("y x", PURE2)
    with pytest.raises(AssertionError):
        oracle_quotient_dim(config, [r], 2, letters=hook)
    with pytest.raises(AssertionError):
        naive_ideal_rows(config, [r], 2, letters=hook)


def test_ideal_rows_certify_each_lift_hereditarily():
    from shirshov import parse_poly

    config = AlgebraConfig(A2)
    # P(y x) is one letter, but its argument is not Lyndon-Shirshov, and no
    # ALSW word contains it, so only the hereditary check can see it
    r = parse_poly("P(y x)", A2)
    with pytest.raises(AssertionError, match="lifted rule leading .* is not"):
        oracle_quotient_dim(config, [r], 3)


def test_a_planted_row_led_by_a_square_fails_the_pivot_check(monkeypatch):
    import shirshov.reference as reference

    original = reference.special_terms_from_lead

    def with_a_square(config_, ctx, v, coeff, core):
        # a square is never Lyndon-Shirshov, and it outranks the row's
        # terms by degree, so the first row's pivot is that square
        row = original(config_, ctx, v, coeff, core)
        lead = max(row, key=config_.alphabet.key)
        row[Word(lead.primes * 2)] = 1
        return row

    monkeypatch.setattr(reference, "special_terms_from_lead", with_a_square)
    config = AlgebraConfig(A1, Fraction(1))
    rules = instantiate_rules(DrblSystem(config), 3)
    with pytest.raises(AssertionError, match="ideal pivot .* is not Lyndon-Shirshov"):
        oracle_quotient_dim(config, rules, 3)


def test_ideal_rows_lead_each_row_once(monkeypatch):
    import shirshov.lyndon as lyndon

    calls = []
    original = lyndon.leading

    def counting_leading(config_, p):
        calls.append(p)
        return original(config_, p)

    monkeypatch.setattr(lyndon, "leading", counting_leading)
    config = AlgebraConfig(A2, Fraction(1))
    rules = instantiate_rules(DrblSystem(config), 5)
    rows = oracle_ideal_rows(config, rules, 5)
    # one certificate per row; each lift's own leading term is not re-led
    assert len(calls) == len(rows) > 0


def test_quotient_dim_calls_occurrences_zero_times(monkeypatch):
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
    config = AlgebraConfig(A2, Fraction(1))
    rules = instantiate_rules(DrblSystem(config), 5)
    assert oracle_quotient_dim(config, rules, 5) == (2, 5, 17, 57, 211)
    assert calls == []
    # the naive scan goes through the patched name, so the counter is live
    naive_ideal_rows(config, rules, 5)
    assert calls
