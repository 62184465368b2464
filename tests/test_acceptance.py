"""Acceptance gate: ten end-to-end checks with pinned runtime budgets.

Every check is exact — rational arithmetic, zero tolerance.  Each test
prints one "ACCEPTANCE n: PASS — ..." line on success; a failing check
raises with the measured evidence instead.

Check 5 certifies the full rule system at ambiguity degree 7 for weights
0, 1 and 2.  For nonzero weights the defining section and Rota-Baxter
rules alone leave 12 of 203 compositions uncertified; the completion rules
(interreduced moved section lifts, see ``shirshov.rota_baxter``) close
them.  Should that branch fail again, its message carries the exact-rank
evidence for the missing ideal members.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from shirshov import (
    AlgebraConfig,
    DrblSystem,
    Poly,
    apply_D,
    commutator,
    d_power_leading,
    enumerate_alsw,
    enumerate_alsw_by_degree,
    enumerate_basis,
    enumerate_words,
    format_poly,
    format_term,
    instantiate_rules,
    leading,
    lie_expand,
    parse_poly,
    parse_term,
    shirshov_bracket,
)
from shirshov.cli import make_alphabet
from shirshov.reference import oracle_quotient_dim
from shirshov.words import ArgHole, OpApp, Prime, Word
from oracles import oracle_lyndon_count, oracle_random_reduce, verify_axioms

X1 = make_alphabet(1)
X2 = make_alphabet(2)
WEIGHTS = (Fraction(0), Fraction(1), Fraction(2))


def generators_only(alphabet):
    """Letter maker admitting bare generators only (no D, no operators)."""

    def letters(d, alsw_by_deg):
        return [Prime(0, g) for g in alphabet.generators] if d == 1 else []

    return letters


def _done(n, t0, limit, detail):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, (
        "check %d exceeded its %ds budget: %.1fs" % (n, limit, elapsed)
    )
    print("ACCEPTANCE %d: PASS - %s (%.1fs)" % (n, detail, elapsed))


def test_criterion_01_pure_generator_lyndon_counts():
    t0 = time.monotonic()
    for q in (2, 3):
        alphabet = make_alphabet(q)
        by_deg = enumerate_alsw_by_degree(
            alphabet, 8, letters=generators_only(alphabet)
        )
        got = [len(by_deg.get(n, ())) for n in range(1, 9)]
        want = [oracle_lyndon_count(q, n) for n in range(1, 9)]
        assert got == want, "q=%d: %r != %r" % (q, got, want)
    assert oracle_lyndon_count(2, 5) == 6
    _done(1, t0, 5, "pure-generator counts match the rotation oracle, q=2,3 n<=8")


def test_criterion_02_bracketing_leads_with_its_own_word():
    t0 = time.monotonic()
    config = AlgebraConfig(X2, Fraction(1))
    alsws = enumerate_alsw(config, 6)
    assert len(alsws) == 1649
    for u in alsws:
        expansion = lie_expand(config, shirshov_bracket(u, X2))
        assert leading(config, expansion) == (u, Fraction(1)), format_term(u)
    _done(2, t0, 30, "leading(expansion) == (u, 1) for all 1649 words of degree <= 6")


def test_criterion_03_d_expansion_coherence():
    t0 = time.monotonic()
    from oracles import derivation_recursive

    by_deg = enumerate_words(X2, 5)
    pool = [w for d in sorted(by_deg) for w in by_deg[d]]
    assert len(pool) == 1134
    weights = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1))
    for lam in weights:
        config = AlgebraConfig(X2, lam)
        for u in pool:
            assert apply_D(config, Poly.word(u)) == derivation_recursive(config, u)
    rng = random.Random(20260816)
    cases = [(rng.choice(pool), rng.randint(1, 3)) for _ in range(200)]
    for lam in weights:
        config = AlgebraConfig(X2, lam)
        for u, i in cases:
            got = d_power_leading(config, u, i)
            assert got == leading(config, apply_D(config, Poly.word(u), i))
    _done(
        3, t0, 10,
        "closed form == recursion on 1134 monomials x 4 weights; "
        "200 random leading predictions x 4 weights",
    )


def test_criterion_04_section_rules_certify_both_modes():
    t0 = time.monotonic()
    for lam in (Fraction(0), Fraction(1)):
        engine = DrblSystem(AlgebraConfig(X2, lam)).system(6, s1_only=True)
        for mode in ("assoc", "lie"):
            report = engine.is_gsb(mode)
            assert report.passed, "lambda=%s %s: %s" % (lam, mode, report.summary())
            assert report.total == 17
    _done(4, t0, 60, "all 17 compositions reduce to 0, lambda in {0,1}, both modes")


def _coverage(engine, ambs):
    classes = Counter(
        (
            engine.rules[a.left.rule_index].origin[0],
            engine.rules[a.right.rule_index].origin[0],
            a.kind,
        )
        for a in ambs
    )
    lifted = sum(1 for a in ambs if a.left.lift > 0 or a.right.lift > 0)
    nested = sum(
        1 for a in ambs if a.context is not None and type(a.context.core) is ArgHole
    )
    return classes, lifted, nested


def test_criterion_05_full_system_certification_weight_zero():
    t0 = time.monotonic()
    engine = DrblSystem(AlgebraConfig(X2, Fraction(0))).system(7)
    ambs = engine.find_ambiguities()
    classes, lifted, nested = _coverage(engine, ambs)
    assert classes == {
        ("section", "section", "inclusion"): 107,
        ("rota-baxter", "section", "inclusion"): 115,
        ("section", "rota-baxter", "inclusion"): 16,
        ("rota-baxter", "rota-baxter", "inclusion"): 2,
        ("rota-baxter", "rota-baxter", "intersection"): 5,
    }
    assert lifted == 113 and nested == 169
    report = engine.is_gsb("lie")
    assert report.passed, report.summary()
    assert report.total == 245
    _done(
        5, t0, 600,
        "weight 0: all 245 compositions (every origin/kind class, 113 lifted, "
        "169 nested-in-operator-argument) reduce to 0",
    )


def test_criterion_05_full_system_certification_nonzero_weights():
    t0 = time.monotonic()
    reports = {}
    for lam in (Fraction(1), Fraction(2)):
        engine = DrblSystem(AlgebraConfig(X2, lam)).system(7)
        ambs = engine.find_ambiguities()
        classes, lifted, nested = _coverage(engine, ambs)
        # The ambiguity inventory itself covers every origin/kind class.
        assert classes == {
            ("section", "section", "inclusion"): 119,
            ("rota-baxter", "section", "inclusion"): 62,
            ("section", "rota-baxter", "inclusion"): 15,
            ("rota-baxter", "rota-baxter", "inclusion"): 2,
            ("rota-baxter", "rota-baxter", "intersection"): 5,
        }
        assert lifted == 71 and nested == 164
        reports[lam] = engine.is_gsb("lie")
    if all(r.passed for r in reports.values()):
        _done(5, t0, 600, "nonzero weights: all compositions reduce to 0")
        return
    counts = {
        str(lam): "%d of %d" % (len(r.failures), r.total)
        for lam, r in reports.items()
    }
    samples = sorted(
        {format_term(amb.word) for amb, _ in reports[Fraction(1)].failures}
    )[:4]
    # Exact-rank evidence that this is a property of the rule system, not a
    # reduction bug: over one generator at weight 1 the degree-7 quotient has
    # dimension 230 and the structural basis also counts 230 words, yet 232
    # bracketed words of degree 7 are irreducible under the instantiated
    # rules, so rewriting alone cannot certify confluence there.
    config1 = AlgebraConfig(X1, Fraction(1))
    drbl1 = DrblSystem(config1)
    dims = oracle_quotient_dim(config1, instantiate_rules(drbl1, 7), 7)
    engine1 = drbl1.system(7)
    irr7 = len(engine1.enumerate_irr("lie", 7)) - len(engine1.enumerate_irr("lie", 6))
    basis7 = set(enumerate_basis(drbl1, 7)[7])
    irr7_set = set(engine1.enumerate_irr("lie", 7)) - set(
        engine1.enumerate_irr("lie", 6)
    )
    missing = sorted(format_term(t) for t in basis7 - irr7_set)
    extra = sorted(format_term(t) for t in irr7_set - basis7)
    raise AssertionError(
        "full-system certification fails for nonzero weights: uncertified "
        "compositions at ambiguity degree <= 7 over two generators: %s "
        "(weight 0 passes all 245).  Sample uncertified ambiguity words: %s.  "
        "This is a genuine property of the rule system under the engine's "
        "deg-lex order, not a reduction bug: over one generator at weight 1 "
        "the exact degree-7 quotient dimension is %d with per-degree "
        "dimensions %s, and the structural basis also counts %d words at "
        "degree 7, yet %d bracketed degree-7 words are irreducible under the "
        "instantiated rules.  The irreducible set swaps out %s and swaps in "
        "%s relative to the structural basis, so some ideal members of "
        "degree 7 admit no leading-word rewrite and composition residues "
        "cannot reach 0.  Extending the rule set to restore confluence at "
        "bounded degree is deliberately out of scope."
        % (counts, samples, dims[6], dims, dims[6], irr7, missing, extra)
    )


def test_criterion_06_basis_counts_match_exact_quotient_ranks():
    t0 = time.monotonic()
    for alphabet, bound, want in ((X1, 4, (1, 2, 5, 12)), (X2, 3, (2, 5, 17))):
        for lam in WEIGHTS:
            config = AlgebraConfig(alphabet, lam)
            drbl = DrblSystem(config)
            basis = enumerate_basis(drbl, bound)
            counts = tuple(len(basis[d]) for d in range(1, bound + 1))
            dims = oracle_quotient_dim(config, instantiate_rules(drbl, bound), bound)
            assert counts == dims == want, (
                "gens=%d lambda=%s: counts %r, ranks %r, expected %r"
                % (len(alphabet.generators), lam, counts, dims, want)
            )
    _done(
        6, t0, 600,
        "structural counts == exact ideal-quotient ranks: (1,2,5,12) over one "
        "generator, (2,5,17) over two, each at weights 0,1,2",
    )


def test_criterion_07_axiom_suite_on_random_samples():
    t0 = time.monotonic()
    for lam in WEIGHTS:
        drbl = DrblSystem(AlgebraConfig(X2, lam))
        report = verify_axioms(drbl, samples=100, max_degree=3, seed=20260816)
        assert report.passed, "lambda=%s: %s" % (lam, report.summary())
        assert report.samples == 100 and report.checked == 300
    _done(
        7, t0, 120,
        "300 identity instances (100 sample pairs x 3 identities) all reduce "
        "to 0 at weights 0,1,2",
    )


def test_criterion_08_reduction_strategies_agree():
    t0 = time.monotonic()
    config = AlgebraConfig(X2, Fraction(1))
    engine = DrblSystem(config).system(4)
    by_deg = enumerate_words(X2, 4)
    pool = [w for d in sorted(by_deg) for w in by_deg[d]]
    rng = random.Random(20260816)
    for _ in range(100):
        p = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            p = p + Poly.word(
                rng.choice(pool), Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            )
        nf = engine.reduce(p, mode="assoc")
        for seed in (1, 2):
            alt = oracle_random_reduce(engine, p, random.Random(seed))
            assert alt == nf, format_poly(p, config)
    _done(
        8, t0, 120,
        "100 random polynomials of degree <= 4: greatest-first and two "
        "seeded-random elimination orders give identical normal forms",
    )


def test_criterion_09_lifted_pair_rule_residue_identity():
    t0 = time.monotonic()
    x = Word((Prime(0, "x1"),))
    y = Word((Prime(0, "x2"),))
    dx = Word((Prime(1, "x1"),))
    pairs = ((x, y), (dx, x), (dx, y))

    def djp(u, j):
        return Word((Prime(j, OpApp("P", (u,))),))

    for lam in WEIGHTS:
        config = AlgebraConfig(X2, lam)
        drbl = DrblSystem(config)
        engine = drbl.system(7 if lam == 0 else 9, s1_only=True)
        for u, v in pairs:
            ub = lie_expand(config, shirshov_bracket(u, X2))
            vb = lie_expand(config, shirshov_bracket(v, X2))
            for j in (1, 2):
                lifted = apply_D(config, drbl.rota_baxter_rule(u, v).poly, j)
                if lam:
                    top = Word(djp(u, j).primes + djp(v, j).primes)
                else:
                    top = Word(djp(u, j).primes + djp(v, 0).primes)
                # Exact true-leading claim: the all-shifted pair word with
                # coefficient lambda^j (the unshifted right factor with
                # coefficient 1 when the weight is 0).
                assert leading(config, lifted) == (top, lam**j if lam else Fraction(1))
                residue = (
                    commutator(Poly.word(djp(u, j)), Poly.word(djp(v, j)))
                    - commutator(
                        apply_D(config, ub, j - 1), apply_D(config, vb, j - 1)
                    )
                ).scale(lam**j)
                diff = lifted - residue
                if lam:
                    # The residue formula reproduces the lifted rule's top
                    # term exactly, and the rest is a section-ideal member.
                    assert leading(config, residue) == (top, lam**j)
                    assert X2.key(leading(config, diff)[0]) < X2.key(top)
                assert engine.reduce(diff, mode="lie").is_zero()
    _done(
        9, t0, 60,
        "D-lifted pair rules match lambda^j x (top-word bracketing minus "
        "shifted-argument bracket) modulo the section rules, j in {1,2}, "
        "weights 0,1,2",
    )


def test_criterion_10_syntax_round_trip_corpus():
    t0 = time.monotonic()
    corpus = []  # (alphabet, value, string)
    config1 = AlgebraConfig(X1, Fraction(1))
    config2 = AlgebraConfig(X2, Fraction(1))
    for alphabet, bound in ((X1, 4), (X2, 3)):
        drbl = DrblSystem(AlgebraConfig(alphabet, Fraction(1)))
        basis = enumerate_basis(drbl, bound)
        for d in sorted(basis):
            for t in basis[d]:
                corpus.append((alphabet, t, format_term(t)))
    by_deg = enumerate_words(X2, 3)
    for d in sorted(by_deg):
        for w in by_deg[d]:
            corpus.append((X2, w, format_term(w)))
    rng = random.Random(20260816)
    pool = [w for d in sorted(by_deg) for w in by_deg[d]]
    while len(corpus) < 200:
        p = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            p = p + Poly.word(
                rng.choice(pool), Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            )
        if p.is_zero():
            continue
        corpus.append((X2, p, format_poly(p, config2)))
    assert len(corpus) >= 200

    def render(alphabet, value):
        if isinstance(value, Poly):
            return format_poly(value, config1 if alphabet is X1 else config2)
        return format_term(value)

    lam1 = Fraction(1)
    for alphabet, value, text in corpus:
        back = parse_term(text, alphabet)
        if isinstance(value, Poly):
            back = parse_poly(text, alphabet)
        if back != value:
            # Bracket-free leaves print exactly like the word they carry, so
            # compare through the expansion.
            config = AlgebraConfig(alphabet, lam1)

            def expand(t, config=config):
                if isinstance(t, Poly):
                    return t
                if isinstance(t, Word):
                    return Poly.word(t)
                return lie_expand(config, t)

            assert expand(back) == expand(value), text
        assert render(alphabet, back) == text, text
    first = "\n".join(text for _, _, text in corpus)
    second = "\n".join(
        render(alphabet, parse_poly(text, alphabet))
        if isinstance(value, Poly)
        else render(alphabet, parse_term(text, alphabet))
        for alphabet, value, text in corpus
    )
    assert first == second
    _done(
        10, t0, 5,
        "%d expressions (every structural basis element from check 6 "
        "included) survive parse/format byte-identically, twice" % len(corpus),
    )
