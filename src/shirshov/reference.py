"""Naive reference computations, and the exact quotient-dimension oracle.

Most of this module is used only by the test suite.  Each oracle recomputes
a testable consequence by brute force, independent of the code path it
validates: word counts by exhaustive rotation filtering, standard
bracketings by trying every binary tree, the differential by the recursive
two-factor rule, bracket expansions over ``Fraction`` polynomials without
a memo, section and Rota-Baxter rules by expanding each bracketing from
scratch, and ambiguities by comparing every pair of lifted leading words.

``oracle_quotient_dim`` (behind the ``oracle-dim`` command) computes
quotient dimensions by exact-rational rank over explicitly generated
spanning and ideal rows.  It finds ideal rows by an index: each ALSW word's
subword runs are walked once and looked up among the rule lifts' leading
words, which it expands itself with ``apply_D`` and ``leading``, not through
the rewriting engine it checks.  ``naive_ideal_rows`` keeps the old scan,
one ``occurrences`` call per ALSW word and lift, as the tests' cross-check.
"""

from __future__ import annotations

from itertools import product

from .algebra import (
    AlgebraConfig,
    Poly,
    _subtract,
    apply_D,
    apply_operator,
    as_fractions,
    commutator,
    divide,
    leading,
    multiply,
)
from .lyndon import (
    enumerate_alsw_by_degree,
    is_alsw,
    shirshov_bracket,
    special_expand,
    special_terms,
)
from .rewriting import Ambiguity
from .words import (
    Alphabet,
    NaLeaf,
    NaOp,
    NaPair,
    Prime,
    Word,
    iter_subword_runs,
    occurrences,
    underlying_word,
)


def oracle_lyndon_count(q: int, n: int) -> int:
    """Length-n words over q letters strictly greater than all rotations.

    Pure integer-tuple filter; the count is invariant under relabeling, so
    the tuple order stands in for any total order on q letters.
    """
    if q > 4 or n > 10:
        raise ValueError("oracle bound exceeded: q <= 4, n <= 10")
    count = 0
    for w in product(range(q), repeat=n):
        if all(w > w[k:] + w[:k] for k in range(1, n)):
            count += 1
    return count


def derivation_recursive(config: AlgebraConfig, u: Word) -> Poly:
    """The differential by the two-factor rule, splitting off the first prime.

    D(p·v) = D(p)·v + p·D(v) + weight·D(p)·D(v); a single prime just gains
    one D application.  Independent of the closed-form subset expansion.
    """
    primes = u.primes
    head = Poly.word(Word((primes[0].shifted(1),)))
    if len(primes) == 1:
        return head
    rest = Word(primes[1:])
    d_rest = derivation_recursive(config, rest)
    out = multiply(head, Poly.word(rest))
    out = out + multiply(Poly.word(Word(primes[:1])), d_rest)
    if config.weight:
        out = out + multiply(head, d_rest).scale(config.weight)
    return out


# ---------------------------------------------------------------------------
# Exhaustive bracketing search.


def _oracle_lex_greater(ps, qs, alphabet: Alphabet) -> bool:
    """ps > qs in the lex order with proper prefixes greater."""
    for p, q in zip(ps, qs):
        if p == q:
            continue
        return alphabet.prime_key(p) > alphabet.prime_key(q)
    return len(ps) < len(qs)


def _oracle_is_alsw(u: Word, alphabet: Alphabet) -> bool:
    primes = u.primes
    return all(
        _oracle_lex_greater(primes, primes[k:] + primes[:k], alphabet)
        for k in range(1, len(primes))
    )


def _all_trees(items):
    """Every full binary tree over the given ordered leaves."""
    if len(items) == 1:
        yield items[0]
        return
    for k in range(1, len(items)):
        for left in _all_trees(items[:k]):
            for right in _all_trees(items[k:]):
                yield NaPair(left, right)


def _tree_ok(t, alphabet: Alphabet) -> bool:
    """NLSW conditions: underlying words ALSW at every node, and for a node
    (v, w) whose left child is (v1, v2), v2 is lex-no-greater than w."""
    if type(t) is NaLeaf:
        head = t.head
        if type(head) is NaOp:
            return all(_tree_ok(a, alphabet) for a in head.args)
        return True
    if not _oracle_is_alsw(underlying_word(t), alphabet):
        return False
    if not (_tree_ok(t.left, alphabet) and _tree_ok(t.right, alphabet)):
        return False
    if type(t.left) is NaPair:
        v2 = underlying_word(t.left.right).primes
        w = underlying_word(t.right).primes
        if _oracle_lex_greater(v2, w, alphabet):
            return False
    return True


def oracle_all_bracketings(u: Word, alphabet: Alphabet):
    """The unique binary bracketing of an ALSW passing the NLSW conditions.

    Tries every bracketing; raises if none or more than one passes, either
    of which falsifies the uniqueness claim under test.
    """
    if len(u.primes) > 8:
        raise ValueError("oracle bound exceeded: length <= 8")
    if not _oracle_is_alsw(u, alphabet):
        raise ValueError("not a Lyndon-Shirshov word: %r" % (u,))
    leaves = []
    for p in u.primes:
        head = p.head
        if type(head) is str:
            leaves.append(NaLeaf(p.d_power, head))
        else:
            leaves.append(
                NaLeaf(
                    p.d_power,
                    NaOp(
                        head.name,
                        tuple(
                            oracle_all_bracketings(a, alphabet)
                            for a in head.args
                        ),
                    ),
                )
            )
    found = [t for t in _all_trees(leaves) if _tree_ok(t, alphabet)]
    if len(found) != 1:
        raise AssertionError(
            "expected exactly one standard bracketing of %r, found %d"
            % (u, len(found))
        )
    return found[0]


# ---------------------------------------------------------------------------
# Bracket expansions and section rules without shared expansions.


def oracle_lie_expand(config: AlgebraConfig, t) -> Poly:
    """``algebra.lie_expand`` from scratch, over ``Fraction`` polynomials.

    Bracket nodes become commutators; operator heads apply the operator to
    the expansions of their arguments; the D power on a leaf lifts through
    the whole expansion via the weighted differential.  Nothing is memoised.
    """
    if type(t) is NaPair:
        return commutator(
            oracle_lie_expand(config, t.left), oracle_lie_expand(config, t.right)
        )
    if type(t.head) is str:
        return Poly.word(Word((Prime(t.d_power, t.head),)))
    head = t.head
    inner = apply_operator(
        head.name, *(oracle_lie_expand(config, a) for a in head.args)
    )
    return apply_D(config, inner, t.d_power)


def oracle_section_rule(config: AlgebraConfig, operator: str, u: Word) -> Poly:
    """g(u) = D(P([u])) − [u], expanding [u] afresh and applying P, then D."""
    bu = oracle_lie_expand(config, shirshov_bracket(u, config.alphabet))
    return apply_D(config, apply_operator(operator, bu)) - bu


def oracle_rota_baxter_rule(
    config: AlgebraConfig, operator: str, u: Word, v: Word
) -> Poly:
    """f(u,v) = [P[u], P[v]] − P([u, P[v]]) − P([P[u], v]) − λP([u, v]).

    [u] and [v] are expanded afresh, and every operator and commutator is
    applied to ``Fraction`` polynomials.
    """
    bu = oracle_lie_expand(config, shirshov_bracket(u, config.alphabet))
    bv = oracle_lie_expand(config, shirshov_bracket(v, config.alphabet))
    pu = apply_operator(operator, bu)
    pv = apply_operator(operator, bv)
    return (
        commutator(pu, pv)
        - apply_operator(operator, commutator(bu, pv))
        - apply_operator(operator, commutator(pu, bv))
        - apply_operator(operator, commutator(bu, bv)).scale(config.weight)
    )


# ---------------------------------------------------------------------------
# Ambiguities by an all-pairs scan.


def oracle_ambiguities(system) -> list[Ambiguity]:
    """``RewriteSystem.find_ambiguities`` by comparing every pair of lifts.

    For each ordered pair of lifted leading words: every proper suffix of
    the left one that equals a proper prefix of the right one, kept when
    the glued word fits the bound, and every ``occurrences`` of the right
    one inside the left one, skipping a lift in itself at the identity
    context.  Sorted by the same total order as the engine.
    """
    out = []
    max_degree = system.max_degree
    for left in system.lifted:
        vl = left.leading_word
        lp = vl.primes
        for right in system.lifted:
            vr = right.leading_word
            rp = vr.primes
            for k in range(1, min(len(lp), len(rp))):
                if lp[-k:] != rp[:k]:
                    continue
                w = Word(lp + rp[k:])
                if w.degree <= max_degree:
                    out.append(
                        Ambiguity(
                            "intersection", left, right, w,
                            overlap=k, position=k,
                        )
                    )
            if vr.degree <= vl.degree:
                for pos, ctx in enumerate(occurrences(vl, vr)):
                    if (
                        ctx.is_identity
                        and left.rule_index == right.rule_index
                        and left.lift == right.lift
                    ):
                        continue
                    out.append(
                        Ambiguity(
                            "inclusion", left, right, vl,
                            context=ctx, position=pos,
                        )
                    )
    key = system.config.alphabet.key
    out.sort(
        key=lambda a: (
            key(a.word),
            a.kind,
            a.left.rule_index,
            a.left.lift,
            a.right.rule_index,
            a.right.lift,
            a.position,
        )
    )
    return out


# ---------------------------------------------------------------------------
# Quotient dimensions by rank computation.

_MONOMIAL_CAP = 200_000


def oracle_ideal_rows(config: AlgebraConfig, rules, max_degree: int, letters=None):
    """The ideal rows that ``oracle_quotient_dim`` eliminates, as a list.

    One row per rule, D-lift whose leading fits the bound, and occurrence
    of that leading inside an ALSW word: the isolating bracketing filled
    with the lifted rule.  Rows come lift by lift (rules in order, lifts
    upward), then by ALSW word, then by occurrence in ``occurrences``
    order.  ``letters`` is as for ``oracle_quotient_dim``.
    """
    alsws = _alsws(config, max_degree, letters)
    return [
        Poly(as_fractions(row))
        for row in _ideal_rows(config, rules, max_degree, alsws)
    ]


def naive_ideal_rows(config: AlgebraConfig, rules, max_degree: int, letters=None):
    """``oracle_ideal_rows`` by one ``occurrences`` scan per ALSW word and lift.

    Each lift is expanded from the rule afresh.  Kept as the test suite's
    cross-check of the indexed search.
    """
    alphabet = config.alphabet
    alsws = _alsws(config, max_degree, letters)
    out = []
    for rule in rules:
        poly = getattr(rule, "poly", rule)
        lift = 0
        while True:
            core = apply_D(config, poly, lift)
            v, _ = leading(config, core)
            if v.degree > max_degree:
                break
            if not is_alsw(v, alphabet):
                raise AssertionError(
                    "lifted rule leading %r is not Lyndon-Shirshov" % (v,)
                )
            for w in alsws:
                if w.degree < v.degree:
                    continue
                for ctx in occurrences(w, v):
                    out.append(special_expand(config, ctx, v, core))
            lift += 1
    return out


def _alsws(config: AlgebraConfig, max_degree: int, letters):
    by_deg = enumerate_alsw_by_degree(config.alphabet, max_degree, letters)
    return [w for d in range(1, max_degree + 1) for w in by_deg.get(d, ())]


def _ideal_rows(config: AlgebraConfig, rules, max_degree: int, alsws):
    """Walk each ALSW word's subword runs once, look each run up among the
    lift leadings, and build a context only on a hit.  Hits are held back
    so rows go out lift by lift, then by ALSW word and walk order (for one
    leading word, the order of ``occurrences``), as the naive scan gives
    them.  A row is a fresh term dict from ``special_terms``."""
    alphabet = config.alphabet
    lifts = []  # (leading word, lifted rule), rule by rule, lift by lift
    by_leading: dict[tuple, list[int]] = {}
    for rule in rules:
        core = getattr(rule, "poly", rule)
        while True:
            v, _ = leading(config, core)
            if v.degree > max_degree:
                break
            if not is_alsw(v, alphabet):
                raise AssertionError(
                    "lifted rule leading %r is not Lyndon-Shirshov" % (v,)
                )
            by_leading.setdefault(v.primes, []).append(len(lifts))
            lifts.append((v, core))
            core = apply_D(config, core)  # the next lift, one D step on
    hits: list[list] = [[] for _ in lifts]
    for w in alsws:
        for run, build in iter_subword_runs(w):
            found = by_leading.get(run)
            if found is None:
                continue
            ctx = build()
            for n in found:
                hits[n].append(ctx)
    monomials = 0
    for (v, core), contexts in zip(lifts, hits):
        for ctx in contexts:
            row = special_terms(config, ctx, v, core.terms)
            monomials += len(row)
            if monomials > _MONOMIAL_CAP:
                raise RuntimeError(
                    "oracle instance too large: more than %d monomials"
                    % _MONOMIAL_CAP
                )
            yield row


def oracle_quotient_dim(config: AlgebraConfig, rules, max_degree: int, letters=None):
    """Per-degree dimensions of the Lie quotient modulo the given rules.

    The Lie span in each degree is triangular over ALSW leading words, so
    its dimension is the ALSW count.  Ideal rows are the bracketed rule
    multiples: for every rule, every D-lift whose leading fits the bound,
    and every occurrence of that leading inside an ALSW word, the isolating
    bracketing filled with the lifted rule.  Exact Gaussian elimination with
    deg-lex-descending pivots then counts, per degree, how many ALSW leading
    words the ideal consumes; its entries stay ``int``s while the divisions
    are exact (``algebra.divide``).

    ``letters`` optionally restricts the letter alphabet of the enumeration
    (for example, to bare generators with no differential).  Returns a tuple
    of dimensions for degrees 1..max_degree.
    """
    alphabet = config.alphabet
    alsws = _alsws(config, max_degree, letters)
    alsw_count = {d: 0 for d in range(1, max_degree + 1)}
    for w in alsws:
        alsw_count[w.degree] += 1

    rows = list(_ideal_rows(config, rules, max_degree, alsws))

    key = alphabet.key
    pivots: dict[Word, dict] = {}
    for terms in rows:
        while terms:
            lead = max(terms, key=key)
            pivot = pivots.get(lead)
            coeff = terms[lead]
            if pivot is None:
                pivots[lead] = {w: divide(c, coeff) for w, c in terms.items()}
                break
            _subtract(terms, ((w, coeff * c) for w, c in pivot.items()))

    consumed = {d: 0 for d in range(1, max_degree + 1)}
    for lead in pivots:
        if not is_alsw(lead, alphabet):
            raise AssertionError(
                "ideal pivot %r is not Lyndon-Shirshov" % (lead,)
            )
        consumed[lead.degree] += 1
    return tuple(
        alsw_count[d] - consumed[d] for d in range(1, max_degree + 1)
    )
