"""Composition-Diamond machinery over differential operated words.

A rule is a monic polynomial; its D-lifts give the lifted leading words
that drive matching.  The leading word of a lifted rule is the true
leading word of the lifted polynomial — not the lift of the rule's own
leading word — because with nonzero weight a trailing monomial of higher
breadth can overtake the nominal leading under enough D applications (its
degree grows by breadth per lift).  It is found in closed form, without
expanding the lift: the leading word of ``D^i(f)`` is the deg-lex greatest
of the leading words ``d_power_leading(m, i)`` over the monomials ``m`` of
``f``; its coefficient is that monomial's coefficient in ``f`` times the
one ``d_power_leading`` gives.  No two terms can cancel there.  The top
word of ``D^i(m)`` is an injective shift of ``m``, so two monomials never
share it; and if the greatest top word equalled a lower word of another
monomial's lift, that monomial's top word would be greater still.  The lifted polynomials themselves (cores)
are expanded only when a reduction or composition uses them.  All
matching, ambiguity enumeration and reduction work from these true lifted
leadings.

Ambiguities are the classical two kinds: intersections (proper two-sided
overlap of two lifted leading words) and inclusions (one lifted leading
word occurring inside another, at top level or nested in an operator
argument).  They are found by lookup, not by comparing every pair of
lifts: inclusions by looking up every subword run of a lifted leading word
(top level and nested) in the table ``by_leading`` that matching uses, and
intersections by looking up every proper suffix of a lifted leading word
in a table of the proper prefixes of all of them.  A composition is the
difference of the two lifted rules' normalized multiples in bare contexts
(D around a rule is one of its lifts): substitutions in associative mode,
isolating special bracketings in Lie mode, so that there the subtracted
elements stay in the Lie subspace.

Reduction in associative mode eliminates the deg-lex-greatest reducible
monomial by subtracting the context multiple of the matched lifted rule.
Lie-mode reduction (``lie_reduce``, shared with ``rota_baxter.drbl_nf``)
works on the associative expansion: while the leading word is reducible,
subtract the special-bracketed multiple; once it is irreducible, move its
standard-bracketed expansion to the output and continue.  The output is a
combination of bracketed irreducible words.

Lie-mode arithmetic runs on Python ``int``s while the coefficients are
integral, as they are at weight 0 and ±1, where every rule, lift, special
multiple and composition is integral with leading coefficient ±1.  Special
multiples come from ``lyndon.special_terms``, and a division yields a
``Fraction`` only when it is not exact (``algebra.divide``), so no
coefficient is ever a float.  What crosses the public boundary
(``composition``, ``reduce``, ``lie_normal_form``, ``ReductionStep``,
``special_multiple``) has ``Fraction`` coefficients, with the values and
the term order the all-``Fraction`` computation gives.

A basis check reduces every composition and reports nonzero residues.
Reduction to zero certifies triviality; a nonzero residue means the
composition is not certified by naive reduction, which is weaker than a
disproof, and the report wording preserves that distinction.

Building an engine (``rota_baxter.DrblSystem.system``) and checking it
(``RewriteSystem.is_gsb``) run with Python's cyclic garbage collector
paused (``collector_paused``).  They allocate hundreds of thousands of
long-lived dicts, tuples and words, and the collector keeps rescanning
them: building the degree-9 section-rule engine set off about 600
collections, four of them full, which took over a quarter of the time
and freed nothing.  The pause is safe because the engine's data holds no
reference cycles (the lift caches reach their rules without a reference
back to their owner), so reference counting frees all of it; a cycle
made elsewhere meanwhile is collected once the collector runs again.
The pause is process-wide: like the intern tables of ``words``, it
assumes one thread.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraConfig,
    Poly,
    _add,
    _subtract,
    apply_D,
    as_fractions,
    d_power_leading,
    divide,
    expansion,
    leading,
    narrow,
    subst_poly,
)
from .lyndon import (
    enumerate_alsw,
    is_alsw_hereditary,
    shirshov_bracket,
    special_terms,
)
from .words import (
    IDENTITY_CONTEXT,
    Context,
    Hole,
    Word,
    enumerate_words,
    iter_subword_runs,
)


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector disabled.

    The collector is enabled again on exit only if it was enabled on
    entry, so pauses nest and a caller's own ``gc.disable()`` holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Rule:
    """A monic rewriting rule with a provenance tag for its family.

    ``lead`` is the rule's deg-lex leading word when its builder knows it
    (``make_rule`` and the ``rota_baxter`` families do), else None.  It is
    not compared: it only saves ``lift_leadings`` one ranking.
    """

    poly: Poly
    origin: tuple = ("rule",)
    lead: Word | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.poly:
            raise ValueError("rules must be nonzero")


def make_rule(config: AlgebraConfig, poly: Poly, origin: tuple = ("rule",)) -> Rule:
    """Normalize a polynomial to a monic rule."""
    if not poly:
        raise ValueError("rules must be nonzero")
    lead, lc = leading(config, poly)
    if lc != 1:
        poly = poly.scale(1 / lc)
    return Rule(poly, origin, lead)


@dataclass(frozen=True)
class LiftedRule:
    """One D-lift of a rule, keyed by its true leading word."""

    rule_index: int
    lift: int
    leading_word: Word
    leading_coeff: Fraction


@dataclass(frozen=True)
class Ambiguity:
    """An overlap of two lifted leading words.

    ``kind`` is "intersection" (w = left-leading glued to right-leading
    over ``overlap`` shared primes) or "inclusion" (right-leading occurs
    inside left-leading at ``context``).  ``position`` disambiguates
    multiple occurrences deterministically.
    """

    kind: str
    left: LiftedRule
    right: LiftedRule
    word: Word
    overlap: int | None = None
    context: Context | None = None
    position: int = 0


@dataclass(frozen=True)
class ReductionStep:
    """One elimination: which lifted rule, where, and the full multiple.

    ``rule_index`` is the engine's rule index, or the ``DrblSystem`` rule
    tag such as ``("section", u)`` when the step comes from ``drbl_nf``.
    """

    rule_index: int | tuple
    lift: int
    context: Context
    coefficient: Fraction
    multiple: Poly


@dataclass(frozen=True)
class LieCombination:
    """A rational combination of standard-bracketed words."""

    terms: tuple

    def is_zero(self) -> bool:
        return not self.terms

    def as_poly(self, config: AlgebraConfig) -> Poly:
        alphabet = config.alphabet
        out: dict[Word, Fraction] = {}
        for c, t in self.terms:
            c = Fraction(c)
            _add(out, ((w, c * k) for w, k in expansion(alphabet, t).items()))
        return Poly(out)

    def __repr__(self):
        from .syntax import format_combination

        return format_combination(self.terms)


@dataclass
class GsbReport:
    """Outcome of reducing every composition of a rule system."""

    mode: str
    total: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.passed

    def summary(self) -> str:
        if self.passed:
            return "pass: all %d compositions reduce to 0" % self.total
        return "fail: %d of %d compositions not certified (nonzero residue)" % (
            len(self.failures),
            self.total,
        )


def lift_leadings(config: AlgebraConfig, rule: Rule, max_degree: int):
    """Yield (i, leading word, coefficient) of ``D^i(rule.poly)`` for i = 0, 1, ...

    Stops at the first lift whose leading word has degree above
    ``max_degree``.  Nothing is expanded: the leading word of ``D^i(poly)``
    is the greatest ``d_power_leading(m, i)`` over the monomials ``m``, and
    no other term cancels it (see the module docstring).  That word has
    degree ``d + i·b`` and breadth ``b`` for a monomial of degree ``d`` and
    breadth ``b`` at nonzero weight, and ``d + i`` and ``b`` at weight 0.
    So the monomials fall into groups by (degree, breadth), and deg-lex
    first picks the group with the greatest (shifted degree, breadth).
    Inside one group the shift preserves the deg-lex order: it shifts the
    same positions of words of one degree and breadth, shifting a prime by
    D is strictly monotone in the prime order, and deg-lex compares such
    words prime by prime.  So the leading word is the shift of the
    deg-lex greatest monomial of the winning group, and only a group that
    wins is ranked.  The group of ``rule.lead`` needs no ranking at all:
    the greatest word of the polynomial is the greatest of its group.
    """
    key = config.alphabet.key
    weighted = config.weight != 0
    terms = rule.poly.terms
    groups: dict[tuple[int, int], list[Word]] = {}
    for u in terms:
        groups.setdefault((u.degree, len(u.primes)), []).append(u)
    tops = {}
    if rule.lead is not None:
        tops[rule.lead.degree, len(rule.lead.primes)] = rule.lead

    def shifted_degree(group):
        d, b = group
        return d + lift * (b if weighted else 1)

    lift = 0
    while True:
        top = max(groups, key=lambda g: (shifted_degree(g), g[1]))
        if shifted_degree(top) > max_degree:
            return
        u = tops.get(top)
        if u is None:
            u = tops[top] = max(groups[top], key=key)
        lead, lc = d_power_leading(config, u, lift)
        yield lift, lead, terms[u] * lc
        lift += 1


class LiftCache:
    """Lifted rule polynomials (cores) and special multiples by rule key.

    ``rule_poly(key)`` gives a rule's polynomial; it must not hold the
    cache's owner, so that the two make no reference cycle (see the module
    docstring).  A core is expanded on
    first use, one D step from the cached lift below it; a special multiple
    is cached as ``lyndon.special_terms`` gives it (``int`` coefficients
    while integral), with the leading coefficient of its core, narrowed to
    an ``int`` when it is integral.
    """

    def __init__(self, config: AlgebraConfig, rule_poly):
        self.config = config
        self.rule_poly = rule_poly
        self._cores: dict[tuple, Poly] = {}
        self._specials: dict[tuple, tuple[dict, int | Fraction]] = {}

    def core(self, key, lift: int) -> Poly:
        """``D^lift`` of the rule under ``key``."""
        got = self._cores.get((key, lift))
        if got is None:
            if lift == 0:
                got = self.rule_poly(key)
            else:
                got = apply_D(self.config, self.core(key, lift - 1))
            self._cores[(key, lift)] = got
        return got

    def special(self, key, lift: int, ctx: Context) -> tuple[dict, int | Fraction]:
        """(terms of the isolating-bracketed multiple in ``ctx``, leading
        coeff of core); callers must not mutate the terms."""
        got = self._specials.get((key, lift, ctx))
        if got is None:
            core = self.core(key, lift)
            v, lc = leading(self.config, core)
            got = special_terms(self.config, ctx, v, core.terms), narrow(lc)
            self._specials[(key, lift, ctx)] = got
        return got


def lie_reduce(config, p: Poly, match, lifts: LiftCache, log=None) -> LieCombination:
    """Bracketed normal form of the Lie element ``p``, steps appended to ``log``.

    ``match(u)`` gives ``(key, lift, context)`` of a lifted rule reducing
    the word ``u``, or None; ``lifts`` holds the rules by key.  The working
    terms are ``int``s while integral (see the module docstring); the
    output and the logged steps carry ``Fraction``s.
    """
    alphabet = config.alphabet
    working = {w: narrow(c) for w, c in p.terms.items()}
    out = []
    while working:
        u, c = leading(config, Poly(working))
        if not is_alsw_hereditary(u, alphabet):
            raise ValueError(
                "not a Lie element: leading word %r is not Lyndon-Shirshov" % (u,)
            )
        m = match(u)
        if m is None:
            nb = shirshov_bracket(u, alphabet)
            out.append((Fraction(c), nb))
            _subtract(working, ((w, c * k) for w, k in expansion(alphabet, nb).items()))
            continue
        key, lift, ctx = m
        special, lc = lifts.special(key, lift, ctx)
        factor = divide(c, lc)
        multiple = {w: factor * t for w, t in special.items()}
        _subtract(working, multiple.items())
        if log is not None:
            log.append(
                ReductionStep(
                    key, lift, ctx, Fraction(factor), Poly(as_fractions(multiple))
                )
            )
    return LieCombination(tuple(out))


class RewriteSystem:
    """A rule set instantiated and lift-bounded up to a fixed degree.

    Lifts i of each rule are enumerated while the true leading word of the
    lifted polynomial has degree at most ``max_degree``; the leading degree
    strictly grows with each lift, so the enumeration terminates.  Each
    lift's leading term comes in closed form from the rule's monomials (see
    ``lift_leadings``); the lifted polynomials are expanded on first use by
    ``core``.  Given ``Rule``s are kept as they are, bare polynomials made
    monic; every use divides by the lift's own leading coefficient.
    """

    def __init__(self, config: AlgebraConfig, rules, max_degree: int):
        self.config = config
        self.max_degree = max_degree
        self.rules = tuple(
            r if isinstance(r, Rule) else make_rule(config, r) for r in rules
        )
        rules = self.rules  # not self: the cache would hold its owner
        self._lifts = LiftCache(config, lambda i: rules[i].poly)
        self._ambiguities: tuple[Ambiguity, ...] | None = None
        self.lifted: list[LiftedRule] = []
        self.by_leading: dict[Word, list[LiftedRule]] = {}
        for idx, rule in enumerate(self.rules):
            for lift, lead, lc in lift_leadings(config, rule, max_degree):
                entry = LiftedRule(idx, lift, lead, lc)
                self.lifted.append(entry)
                self.by_leading.setdefault(lead, []).append(entry)
        for entries in self.by_leading.values():
            entries.sort(key=lambda e: (e.rule_index, e.lift))

    # -- matching ----------------------------------------------------------

    def core(self, rule_index: int, lift: int) -> Poly:
        """``D^lift`` of a rule, expanded from the cached lift below it."""
        return self._lifts.core(rule_index, lift)

    def match(self, u: Word):
        """First match in a monomial: min (rule index, lift, scan order).

        Returns (LiftedRule, bare Context) or None.
        """
        best = None
        by_leading = self.by_leading
        for run, build in iter_subword_runs(u):
            entries = by_leading.get(Word(run))
            if not entries:
                continue
            e = entries[0]
            if best is None or (e.rule_index, e.lift) < (
                best[0].rule_index,
                best[0].lift,
            ):
                best = (e, build)
        if best is None:
            return None
        return best[0], best[1]()

    def is_reducible(self, u: Word) -> bool:
        by_leading = self.by_leading
        for run, _ in iter_subword_runs(u):
            if Word(run) in by_leading:
                return True
        return False

    def special_multiple(self, rule_index: int, lift: int, ctx: Context) -> Poly:
        """Isolating-bracketed multiple of a lifted rule, leading certified."""
        return Poly(as_fractions(self._lifts.special(rule_index, lift, ctx)[0]))

    # -- reduction ----------------------------------------------------------

    def _guard_degree(self, p: Poly):
        d = p.max_degree()
        if d > self.max_degree:
            raise ValueError(
                "polynomial degree %d exceeds the instantiation bound %d"
                % (d, self.max_degree)
            )

    def reduce(
        self,
        p: Poly,
        mode: str = "assoc",
        strategy: str = "leading",
        log: list | None = None,
        rng=None,
    ) -> Poly:
        """Normal form of ``p`` modulo the system.

        Associative mode eliminates reducible monomials greatest-first (or
        at a seeded-random reducible monomial under strategy="random");
        the result contains no lifted leading word.  Lie mode requires a
        Lie element and strategy="leading", and returns the expansion of
        its bracketed normal form.
        """
        if mode == "lie":
            if strategy != "leading":
                raise ValueError("Lie mode supports only strategy='leading'")
            return self.lie_normal_form(p, log).as_poly(self.config)
        if mode != "assoc":
            raise ValueError("mode must be 'assoc' or 'lie'")
        self._guard_degree(p)
        if strategy == "leading":
            return self._reduce_leading(p, log)
        if strategy == "random":
            if rng is None:
                raise ValueError("strategy='random' needs an rng")
            return self._reduce_random(p, log, rng)
        raise ValueError("strategy must be 'leading' or 'random'")

    def _eliminate(self, working, u, entry, ctx, log):
        c = working[u]
        multiple = subst_poly(ctx, self.core(entry.rule_index, entry.lift))
        factor = c / entry.leading_coeff
        multiple = multiple.scale(factor)
        if multiple.terms.get(u) != c:
            raise RuntimeError("rule multiple does not cancel %r" % (u,))
        _subtract(working, multiple.terms.items())
        if log is not None:
            log.append(
                ReductionStep(entry.rule_index, entry.lift, ctx, factor, multiple)
            )

    def _reduce_leading(self, p: Poly, log) -> Poly:
        key = self.config.alphabet.key
        working = dict(p.terms)
        out: dict[Word, Fraction] = {}
        while working:
            u = max(working, key=key)
            m = self.match(u)
            if m is None:
                out[u] = working.pop(u)
                continue
            entry, ctx = m
            self._eliminate(working, u, entry, ctx, log)
        return Poly(out)

    def _reduce_random(self, p: Poly, log, rng) -> Poly:
        key = self.config.alphabet.key
        working = dict(p.terms)
        while True:
            reducible = sorted(
                (w for w in working if self.is_reducible(w)), key=key
            )
            if not reducible:
                return Poly(working)
            u = rng.choice(reducible)
            entry, ctx = self.match(u)
            self._eliminate(working, u, entry, ctx, log)

    def lie_normal_form(self, p: Poly, log: list | None = None) -> LieCombination:
        """Normal form of a Lie element as bracketed basis words."""
        self._guard_degree(p)
        return lie_reduce(self.config, p, self._lie_match, self._lifts, log)

    def _lie_match(self, u: Word):
        m = self.match(u)
        return None if m is None else (m[0].rule_index, m[0].lift, m[1])

    # -- compositions --------------------------------------------------------

    def find_ambiguities(self) -> list[Ambiguity]:
        """All intersection and inclusion ambiguities within the bound.

        Intersections glue a proper suffix of one lifted leading to an equal
        proper prefix of another, when the glued word fits the bound; each
        left lift looks its suffixes up in a table from every proper prefix
        to the lifts that start with it.  Inclusions are occurrences of one
        lifted leading inside another, skipping only the identity-context
        occurrence of a lifted rule in itself; each left lift walks its
        subword runs (``iter_subword_runs``) and looks each up in
        ``by_leading``, building the context only on a hit.  ``position``
        counts the occurrences of one leading word in walk order, which is
        the order of ``words.occurrences``: top-level runs by start, then
        nested runs by (prime, argument), outside in.  The result is sorted
        by a total order on (word, kind, left, right, position), so it does
        not depend on the order of discovery.  The search runs once per
        system; each call returns a fresh list.  The test suite's
        ``oracle_ambiguities`` finds the same list by comparing every pair
        of lifts.
        """
        if self._ambiguities is None:
            self._ambiguities = tuple(self._search_ambiguities())
        return list(self._ambiguities)

    def _search_ambiguities(self) -> list[Ambiguity]:
        out = []
        max_degree = self.max_degree
        by_leading = self.by_leading
        by_prefix: dict[tuple, list[LiftedRule]] = {}
        for right in self.lifted:
            rp = right.leading_word.primes
            for k in range(1, len(rp)):
                by_prefix.setdefault(rp[:k], []).append(right)
        for left in self.lifted:
            vl = left.leading_word
            lp = vl.primes
            for k in range(1, len(lp)):
                for right in by_prefix.get(lp[-k:], ()):
                    w = Word(lp + right.leading_word.primes[k:])
                    if w.degree <= max_degree:
                        out.append(
                            Ambiguity(
                                "intersection", left, right, w,
                                overlap=k, position=k,
                            )
                        )
            # Occurrences of one leading word inside vl, counted in walk order.
            seen: dict[Word, int] = {}
            for run, build in iter_subword_runs(vl):
                vr = Word(run)
                rights = by_leading.get(vr)
                if rights is None:
                    continue
                pos = seen.get(vr, 0)
                seen[vr] = pos + 1
                ctx = build()
                for right in rights:
                    if ctx.is_identity and right is left:
                        continue
                    out.append(
                        Ambiguity(
                            "inclusion", left, right, vl,
                            context=ctx, position=pos,
                        )
                    )
        key = self.config.alphabet.key
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

    def composition(self, amb: Ambiguity, mode: str = "assoc") -> Poly:
        """The overlap polynomial; leading strictly below the ambiguity word.

        In Lie mode both rule multiples are special-bracketed, so the result
        is the expansion of a Lie element; the ambiguity word must be a
        Lyndon-Shirshov word for the bracketings to exist.
        """
        config = self.config
        left, right = amb.left, amb.right
        core_l = self.core(left.rule_index, left.lift)
        core_r = self.core(right.rule_index, right.lift)
        if mode == "lie" and not is_alsw_hereditary(amb.word, config.alphabet):
            raise ValueError(
                "ambiguity word %r is not Lyndon-Shirshov" % (amb.word,)
            )
        if amb.kind == "intersection":
            ctx_l = Context((), Hole(0), right.leading_word.primes[amb.overlap :])
            ctx_r = Context(left.leading_word.primes[: -amb.overlap], Hole(0), ())
        else:
            ctx_l, ctx_r = IDENTITY_CONTEXT, amb.context
        if mode == "assoc":
            side_l = subst_poly(ctx_l, core_l).terms
            side_r = subst_poly(ctx_r, core_r).terms
        else:
            side_l = special_terms(config, ctx_l, left.leading_word, core_l.terms)
            side_r = special_terms(config, ctx_r, right.leading_word, core_r.terms)
        # side_l is a fresh dict: scale it only off 1, then subtract in place.
        lc = narrow(left.leading_coeff)
        result = side_l if lc == 1 else {w: divide(c, lc) for w, c in side_l.items()}
        lc = narrow(right.leading_coeff)
        _subtract(
            result,
            side_r.items() if lc == 1 else ((w, divide(c, lc)) for w, c in side_r.items()),
        )
        if result:
            lead, _ = leading(config, Poly(result))
            if config.alphabet.key(lead) >= config.alphabet.key(amb.word):
                raise RuntimeError(
                    "composition leading %r not below ambiguity word %r"
                    % (lead, amb.word)
                )
        return Poly(as_fractions(result))

    def is_gsb(self, mode: str = "assoc") -> GsbReport:
        """Reduce every composition; nonzero residues are 'not certified'."""
        with collector_paused():
            ambs = self.find_ambiguities()
            failures = []
            for amb in ambs:
                comp = self.composition(amb, mode)
                if not comp:
                    continue
                residue = self.reduce(comp, mode=mode)
                if residue:
                    failures.append((amb, residue))
        return GsbReport(mode, len(ambs), failures)

    # -- irreducible words ----------------------------------------------------

    def enumerate_irr(self, mode: str = "assoc", max_degree: int | None = None):
        """Words (assoc) or bracketed words (lie) free of lifted leadings."""
        n = self.max_degree if max_degree is None else max_degree
        if n > self.max_degree:
            raise ValueError("bound exceeds the instantiation degree")
        if mode == "assoc":
            by_deg = enumerate_words(self.config.alphabet, n)
            return [
                w
                for d in range(1, n + 1)
                for w in by_deg.get(d, ())
                if not self.is_reducible(w)
            ]
        if mode != "lie":
            raise ValueError("mode must be 'assoc' or 'lie'")
        return [
            shirshov_bracket(w, self.config.alphabet)
            for w in enumerate_alsw(self.config, n)
            if not self.is_reducible(w)
        ]


def reduce(
    config: AlgebraConfig,
    p: Poly,
    rules,
    mode: str = "assoc",
    max_degree: int | None = None,
    **kwargs,
) -> Poly:
    """One-shot reduction of ``p`` modulo ``rules``; see RewriteSystem.reduce."""
    if max_degree is None:
        max_degree = p.max_degree()
    return RewriteSystem(config, rules, max_degree).reduce(p, mode=mode, **kwargs)
