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
argument).  Compositions subtract the two normalized rule multiples; in
Lie mode each side is the isolating special bracketing, so the subtracted
elements stay in the Lie subspace.

Reduction in associative mode eliminates the deg-lex-greatest reducible
monomial by subtracting the context multiple of the matched lifted rule.
Lie-mode reduction works on the associative expansion: while the leading
word is reducible, subtract the special-bracketed multiple; once it is
irreducible, move its standard-bracketed expansion to the output and
continue.  The output is a combination of bracketed irreducible words.

A basis check reduces every composition and reports nonzero residues.
Reduction to zero certifies triviality; a nonzero residue means the
composition is not certified by naive reduction, which is weaker than a
disproof, and the report wording preserves that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraConfig,
    Poly,
    apply_D,
    d_power_leading,
    leading,
    lie_expand,
    multiply,
    subst_poly,
)
from .lyndon import (
    enumerate_alsw,
    is_alsw_hereditary,
    shirshov_bracket,
    special_expand,
)
from .words import (
    IDENTITY_CONTEXT,
    Context,
    Hole,
    Word,
    enumerate_words,
    iter_subword_runs,
    occurrences,
)


@dataclass(frozen=True)
class Rule:
    """A monic rewriting rule with a provenance tag for its family."""

    poly: Poly
    origin: tuple = ("rule",)

    def __post_init__(self):
        if not self.poly:
            raise ValueError("rules must be nonzero")


def make_rule(config: AlgebraConfig, poly: Poly, origin: tuple = ("rule",)) -> Rule:
    """Normalize a polynomial to a monic rule."""
    if not poly:
        raise ValueError("rules must be nonzero")
    _, lc = leading(config, poly)
    if lc != 1:
        poly = poly.scale(1 / lc)
    return Rule(poly, origin)


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
    """One elimination: which lifted rule, where, and the full multiple."""

    rule_index: int
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
        out = Poly.zero()
        for c, t in self.terms:
            out = out + lie_expand(config, t).scale(c)
        return out

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


def lift_leadings(config: AlgebraConfig, poly: Poly, max_degree: int):
    """Yield (i, leading word, coefficient) of ``D^i(poly)`` for i = 0, 1, ...

    Stops at the first lift whose leading word has degree above
    ``max_degree``.  Nothing is expanded: the leading word of ``D^i(poly)``
    is the greatest ``d_power_leading(m, i)`` over the monomials ``m``, and
    no other term cancels it (see the module docstring).  That word has
    degree ``deg m + i·breadth m`` (``deg m + i`` at weight 0), so only the
    monomials that tie on the top degree compete.  Among them the greater
    breadth wins.  At equal breadth they also share their own degree, and
    the shift preserves their deg-lex order: it shifts the same positions
    of both words, shifting a prime by D is strictly monotone in the prime
    order, and deg-lex compares such words prime by prime.  So ranking the
    monomials once by (breadth, deg-lex) and taking the first that reaches
    the top degree gives the leading word without a key for any shifted
    word.
    """
    key = config.alphabet.key
    weighted = config.weight != 0
    ranked = sorted(
        (
            (u.degree, u.breadth if weighted else 1, u, c)
            for u, c in poly.terms.items()
        ),
        key=lambda t: (t[2].breadth, key(t[2])),
        reverse=True,
    )
    lift = 0
    while True:
        # max keeps the first maximal monomial, the greatest by rank.
        d, b, u, c = max(ranked, key=lambda t: t[0] + lift * t[1])
        if d + lift * b > max_degree:
            return
        lead, lc = d_power_leading(config, u, lift)
        yield lift, lead, c * lc
        lift += 1


class RewriteSystem:
    """A rule set instantiated and lift-bounded up to a fixed degree.

    Lifts i of each rule are enumerated while the true leading word of the
    lifted polynomial has degree at most ``max_degree``; the leading degree
    strictly grows with each lift, so the enumeration terminates.  Each
    lift's leading term comes in closed form from the rule's monomials (see
    ``lift_leadings``); the lifted polynomials are expanded on first use by
    ``core``.
    """

    def __init__(self, config: AlgebraConfig, rules, max_degree: int):
        self.config = config
        self.max_degree = max_degree
        normalized = []
        for r in rules:
            if isinstance(r, Rule):
                r = make_rule(config, r.poly, r.origin)
            else:
                r = make_rule(config, r)
            normalized.append(r)
        self.rules = tuple(normalized)
        self._cores: dict[tuple[int, int], Poly] = {}
        self._specials: dict[tuple[int, int, Context], Poly] = {}
        self._ambiguities: tuple[Ambiguity, ...] | None = None
        self.lifted: list[LiftedRule] = []
        self.by_leading: dict[Word, list[LiftedRule]] = {}
        for idx, rule in enumerate(self.rules):
            for lift, lead, lc in lift_leadings(config, rule.poly, max_degree):
                entry = LiftedRule(idx, lift, lead, lc)
                self.lifted.append(entry)
                self.by_leading.setdefault(lead, []).append(entry)
        for entries in self.by_leading.values():
            entries.sort(key=lambda e: (e.rule_index, e.lift))

    # -- matching ----------------------------------------------------------

    def core(self, rule_index: int, lift: int) -> Poly:
        """``D^lift`` of a rule, expanded from the cached lift below it."""
        got = self._cores.get((rule_index, lift))
        if got is None:
            if lift == 0:
                got = self.rules[rule_index].poly
            else:
                got = apply_D(self.config, self.core(rule_index, lift - 1))
            self._cores[(rule_index, lift)] = got
        return got

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
        key = (rule_index, lift, ctx)
        got = self._specials.get(key)
        if got is None:
            core = self.core(rule_index, lift)
            v, _ = leading(self.config, core)
            got = special_expand(self.config, ctx, v, core)
            self._specials[key] = got
        return got

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
        Lie element and returns the expansion of its bracketed normal form.
        """
        if mode == "lie":
            _, out = self._reduce_lie(p, log)
            return out
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

    def _eliminate(self, working, u, c, entry, ctx, log):
        multiple = subst_poly(self.config, ctx, self.core(entry.rule_index, entry.lift))
        factor = c / entry.leading_coeff
        multiple = multiple.scale(factor)
        if multiple.terms.get(u) != c:
            raise RuntimeError("rule multiple does not cancel %r" % (u,))
        for w, cc in multiple.terms.items():
            if w == u:
                continue
            nc = working.get(w, 0) - cc
            if nc:
                working[w] = nc
            else:
                working.pop(w, None)
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
            c = working.pop(u)
            m = self.match(u)
            if m is None:
                out[u] = c
                continue
            entry, ctx = m
            self._eliminate(working, u, c, entry, ctx, log)
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
            c = working.pop(u)
            entry, ctx = self.match(u)
            self._eliminate(working, u, c, entry, ctx, log)

    def _reduce_lie(self, p: Poly, log=None):
        """Shared loop: returns (bracketed combination, its expansion)."""
        self._guard_degree(p)
        config = self.config
        alphabet = config.alphabet
        working = p
        out_terms = []
        out_poly = Poly.zero()
        while working:
            u, c = leading(config, working)
            if not is_alsw_hereditary(u, alphabet):
                raise ValueError(
                    "not a Lie element: leading word %r is not Lyndon-Shirshov"
                    % (u,)
                )
            m = self.match(u)
            if m is not None:
                entry, ctx = m
                factor = c / entry.leading_coeff
                multiple = self.special_multiple(
                    entry.rule_index, entry.lift, ctx
                ).scale(factor)
                working = working - multiple
                if log is not None:
                    log.append(
                        ReductionStep(
                            entry.rule_index, entry.lift, ctx, factor, multiple
                        )
                    )
            else:
                nb = shirshov_bracket(u, alphabet)
                exp = lie_expand(config, nb).scale(c)
                out_terms.append((c, nb))
                out_poly = out_poly + exp
                working = working - exp
        return LieCombination(tuple(out_terms)), out_poly

    def lie_normal_form(self, p: Poly, log: list | None = None) -> LieCombination:
        """Normal form of a Lie element as bracketed basis words."""
        comb, _ = self._reduce_lie(p, log)
        return comb

    # -- compositions --------------------------------------------------------

    def find_ambiguities(self) -> list[Ambiguity]:
        """All intersection and inclusion ambiguities within the bound.

        Intersections glue a proper suffix of one lifted leading to an equal
        proper prefix of another; inclusions are occurrences of one lifted
        leading inside another, skipping only the identity-context occurrence
        of a lifted rule in itself.  Deterministically ordered.  The search
        runs once per system; each call returns a fresh list.
        """
        if self._ambiguities is None:
            self._ambiguities = tuple(self._search_ambiguities())
        return list(self._ambiguities)

    def _search_ambiguities(self) -> list[Ambiguity]:
        out = []
        max_degree = self.max_degree
        for left in self.lifted:
            vl = left.leading_word
            lp = vl.primes
            for right in self.lifted:
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
            a = amb.right.leading_word.primes[amb.overlap :]
            b = amb.left.leading_word.primes[: len(amb.left.leading_word.primes) - amb.overlap]
            if mode == "assoc":
                side_l = multiply(core_l, Poly.word(Word(a)))
                side_r = multiply(Poly.word(Word(b)), core_r)
            else:
                side_l = special_expand(
                    config, Context((), Hole(0), a), left.leading_word, core_l
                )
                side_r = special_expand(
                    config, Context(b, Hole(0), ()), right.leading_word, core_r
                )
        else:
            if mode == "assoc":
                side_l = core_l
                side_r = subst_poly(config, amb.context, core_r)
            else:
                side_l = special_expand(
                    config, IDENTITY_CONTEXT, left.leading_word, core_l
                )
                side_r = special_expand(
                    config, amb.context, right.leading_word, core_r
                )
        result = side_l.scale(1 / left.leading_coeff) - side_r.scale(
            1 / right.leading_coeff
        )
        if result:
            lead, _ = leading(config, result)
            if self.config.alphabet.key(lead) >= self.config.alphabet.key(amb.word):
                raise RuntimeError(
                    "composition leading %r not below ambiguity word %r"
                    % (lead, amb.word)
                )
        return result

    def is_gsb(self, mode: str = "assoc") -> GsbReport:
        """Reduce every composition; nonzero residues are 'not certified'."""
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
