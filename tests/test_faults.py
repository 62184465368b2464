"""Planted faults: each breaks one step of the rewriting, and the
Groebner-Shirshov check must notice it.

Every fault is planted with ``monkeypatch`` into a fresh system over two
generators at λ = 1, checked through degree 6 (24 compositions) in each
mode.  One generator is not enough: over it, at degree 6 (8 compositions),
the wrong Rota-Baxter sign and the lost Leibniz λ terms both go unnoticed.

The wrong Rota-Baxter sign is also caught without the check, over one
generator at λ = 1 and degree 7: ``drbl_nf`` then breaks the congruence
N(D(N(x))) = N(D(x)) (``oracles.congruence_failures``), which the unfaulted
system keeps on the same draws.  It is caught by reduction order too,
which ``test_acceptance``'s criterion 8 cannot see on its inputs: each of
the 23 distinct ambiguity words of the degree-6 system is reduced in
eight seeded-random orders (``oracles.oracle_random_reduce``, seeds 0-7),
and with the sign flipped some order misses ``reduce(mode="assoc")``'s
normal form on 1 of them.  Unfaulted, random orders reach the engine's
normal form on sums of the same ambiguity words
(``test_rewriting.test_random_elimination_orders_agree_with_greatest_first``).
"""

import random
from fractions import Fraction

import pytest

import shirshov.algebra
import shirshov.rewriting
import shirshov.rota_baxter
from shirshov import AlgebraConfig, DrblSystem, Poly
from shirshov.cli import make_alphabet
from shirshov.words import Word, substitute
from oracles import congruence_failures, oracle_random_reduce

MODES = ("assoc", "lie")


def check(mode, weight=1):
    config = AlgebraConfig(make_alphabet(2), Fraction(weight))
    return DrblSystem(config).system(6).is_gsb(mode)


def random_order_disagreements():
    """(ambiguity words some seeded-random elimination order leaves with
    another normal form than ``reduce(mode="assoc")``, number of distinct
    ambiguity words), over the system ``check`` builds at λ = 1."""
    engine = DrblSystem(AlgebraConfig(make_alphabet(2), Fraction(1))).system(6)
    words = list(dict.fromkeys(a.word for a in engine.find_ambiguities()))
    bad = []
    for u in words:
        p = Poly.word(u)
        want = engine.reduce(p, mode="assoc")
        if any(
            oracle_random_reduce(engine, p, random.Random(seed)) != want
            for seed in range(8)
        ):
            bad.append(u)
    return bad, len(words)


def negated_weight(monkeypatch):
    """f(u, v) with the sign of λ·P([u, v]) flipped."""
    real = shirshov.rota_baxter._rota_baxter_poly

    def fault(alphabet, op, weight, u, v):
        return real(alphabet, op, -weight, u, v)

    monkeypatch.setattr(shirshov.rota_baxter, "_rota_baxter_poly", fault)


def single_hits_only(monkeypatch):
    """D by the weight-0 Leibniz rule, dropping every λ term."""

    def fault(terms, lam):
        for u, c in terms.items():
            primes = u.primes
            for i in range(len(primes)):
                yield Word(primes[:i] + (primes[i].shifted(1),) + primes[i + 1 :]), c

    monkeypatch.setattr(shirshov.algebra, "_d_terms", fault)


def doubled_coefficient(monkeypatch):
    """Special multiples with one non-leading coefficient doubled."""
    real = shirshov.rewriting.special_terms_from_lead

    def fault(config, ctx, v, coeff, core):
        out = real(config, ctx, v, coeff, core)
        lead = substitute(ctx, v)
        for w in out:
            if w is not lead:
                out[w] *= 2
                break
        return out

    monkeypatch.setattr(shirshov.rewriting, "special_terms_from_lead", fault)


@pytest.mark.parametrize("mode", MODES)
def test_the_unfaulted_system_passes(mode):
    assert check(mode).summary() == "pass: all 24 compositions reduce to 0"


@pytest.mark.parametrize("mode", MODES)
def test_a_negated_weight_leaves_compositions_uncertified(monkeypatch, mode):
    negated_weight(monkeypatch)
    report = check(mode)
    assert report.summary() == "fail: 2 of 24 compositions not certified (nonzero residue)"


def test_a_negated_weight_makes_some_elimination_order_disagree(monkeypatch):
    negated_weight(monkeypatch)
    bad, total = random_order_disagreements()
    assert (len(bad), total) == (1, 23)


def test_a_negated_weight_breaks_the_congruence_of_normal_forms_under_d(monkeypatch):
    negated_weight(monkeypatch)
    drbl = DrblSystem(AlgebraConfig(make_alphabet(1), Fraction(1)))
    assert congruence_failures(drbl, 7)["D"] >= 1


def test_dropped_leibniz_terms_break_the_lie_leading_check(monkeypatch):
    single_hits_only(monkeypatch)
    with pytest.raises(ValueError, match="^core leading term "):
        check("lie")


def test_dropped_leibniz_terms_break_the_assoc_overlap(monkeypatch):
    single_hits_only(monkeypatch)
    with pytest.raises(RuntimeError, match="^composition leading .* not below ambiguity word "):
        check("assoc")


@pytest.mark.parametrize("weight", [0, 1])
def test_a_wrong_special_multiple_is_not_a_lie_element(monkeypatch, weight):
    doubled_coefficient(monkeypatch)
    with pytest.raises(ValueError, match="^not a Lie element: "):
        check("lie", weight)


def test_assoc_mode_never_reads_special_multiples(monkeypatch):
    # associative compositions and reductions multiply cores in plain
    # contexts, so a fault in the special bracketing cannot reach them
    doubled_coefficient(monkeypatch)
    assert check("assoc").summary() == "pass: all 24 compositions reduce to 0"
