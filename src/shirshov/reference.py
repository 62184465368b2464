"""The quotient-dimension oracle behind the ``oracle-dim`` command.

``oracle_quotient_dim`` computes quotient dimensions by exact-rational rank
over explicitly generated spanning and ideal rows.  At weight 0 they are
the quotient's dimensions.  At λ ≠ 0 they are only below degree 7 over two
generators and below degree 8 over one: past that, ideal members of a
degree come from rows whose top lies above the bound.  It finds ideal rows by
an index: each ALSW word's subword runs are walked once and looked up among
the rule lifts' leading words, which it expands itself with ``apply_D`` and
``leading``, not through the rewriting engine it checks.  A lift is
expanded only while it fits: once a lift's leading word has degree
``max_degree``, the next is not built.  The leading word of ``D(f)`` is the
greatest top word of the ``D(m)`` over the monomials ``m`` of ``f``, none
of which cancels (see the ``rewriting`` docstring), and each has degree at
least ``deg(m) + 1``, so that lift could not fit.  The naive oracles of
the test suite live in ``tests/oracles.py``; among them,
``naive_ideal_rows`` keeps the old scan, one ``occurrences`` call per ALSW
word and lift, each lift expanded until it overshoots, as the
cross-check of the index and of the stop.
"""

from __future__ import annotations

from .algebra import AlgebraConfig, _subtract, apply_D, divide, leading
from .lyndon import (
    enumerate_alsw,
    is_alsw,
    is_alsw_hereditary,
    special_terms_from_lead,
)
from .rewriting import collector_paused
from .words import Word, context_at, subword_runs


_MONOMIAL_CAP = 200_000


def _ideal_rows(config: AlgebraConfig, rules, max_degree: int, alsws):
    """Walk each ALSW word's subword runs once, look each run up among the
    lift leadings, and build a context only on a hit.  Hits are held back
    so rows go out lift by lift, then by ALSW word and walk order (for one
    leading word, the order of ``occurrences``), as the naive scan gives
    them.  A rule is read as it holds itself (``Rule.narrowed``), and each
    lift's leading word certified hereditarily Lyndon-Shirshov once, so a
    row is a fresh term dict from ``special_terms_from_lead`` with the
    coefficient ``leading`` gave."""
    alphabet = config.alphabet
    lifts = []  # (leading word, coefficient, lifted rule), lift by lift
    by_leading: dict[tuple, list[int]] = {}
    for rule in rules:
        core = getattr(rule, "narrowed", rule)
        while True:
            v, lc = leading(config, core)
            if v.degree > max_degree:
                break
            if not is_alsw_hereditary(v, alphabet):
                raise AssertionError(
                    "lifted rule leading %r is not Lyndon-Shirshov" % (v,)
                )
            by_leading.setdefault(v.primes, []).append(len(lifts))
            lifts.append((v, lc, core))
            if v.degree >= max_degree:
                break  # the next lift's leading would overshoot the bound
            core = apply_D(config, core)  # the next lift, one D step on
    hits: list[list] = [[] for _ in lifts]
    for w in alsws:
        for run, where in subword_runs(w):
            found = by_leading.get(run)
            if found is None:
                continue
            ctx = context_at(w.primes, where)
            for n in found:
                hits[n].append(ctx)
    monomials = 0
    for (v, lc, core), contexts in zip(lifts, hits):
        for ctx in contexts:
            row = special_terms_from_lead(config, ctx, v, lc, core.terms)
            monomials += len(row)
            if monomials > _MONOMIAL_CAP:
                raise RuntimeError(
                    "oracle instance too large: more than %d monomials"
                    % _MONOMIAL_CAP
                )
            yield row


@collector_paused()
def oracle_quotient_dim(config: AlgebraConfig, rules, max_degree: int, letters=None):
    """Per-degree dimensions of the Lie quotient modulo the given rules.

    The Lie span in each degree is triangular over ALSW leading words, so
    its dimension is the ALSW count.  Ideal rows are the bracketed rule
    multiples: for every rule, every D-lift whose leading fits the bound,
    and every occurrence of that leading inside an ALSW word, the isolating
    bracketing filled with the lifted rule.  Lifts stop at the first whose
    leading has degree ``max_degree``: D raises the degree of every
    monomial, and no top word cancels, so the next lift's leading could
    not fit.  Exact Gaussian elimination with
    deg-lex-descending pivots then counts, per degree, how many ALSW leading
    words the ideal consumes; its entries stay ``int``s while the divisions
    are exact (``algebra.divide``).

    ``letters`` optionally restricts the letter alphabet of the enumeration
    (for example, to bare generators with no differential).  Returns a tuple
    of dimensions for degrees 1..max_degree.
    """
    alphabet = config.alphabet
    alsws = enumerate_alsw(config, max_degree, letters)
    alsw_count = {d: 0 for d in range(1, max_degree + 1)}
    for w in alsws:
        alsw_count[w.degree] += 1

    key = alphabet.key
    pivots: dict[Word, dict] = {}
    for terms in _ideal_rows(config, rules, max_degree, alsws):
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
