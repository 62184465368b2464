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
monomial's lift, that monomial's top word would be greater still.  Every
rule carries the top term of each of its (degree, breadth) groups
(``Rule.tops``), and ``lift_leadings`` reads only those.  The lifted
polynomials themselves (cores) are expanded only when a reduction or
composition uses them, and the rule keeps them (``Rule.core``): every
engine over the rule and ``rota_baxter.drbl_nf`` share one expansion of
each.  A rule builds its own polynomial only then too, and its family
gives its tops from its origin tag on each read.  All matching, ambiguity
enumeration and reduction work from these true lifted leadings.

Ambiguities are the classical two kinds: intersections (proper two-sided
overlap of two lifted leading words) and inclusions (one lifted leading
word occurring inside another, at top level or nested in an operator
argument).  They are found by lookup, not by comparing every pair of
lifts: inclusions by looking up every subword run of a lifted leading word
(top level and nested) in the table ``by_leading`` that matching uses, and
intersections by looking up every proper suffix of a lifted leading word
in a table of the proper prefixes of all of them.  Both tables are keyed
by tuples of primes, so a run, which ``words.subword_runs`` yields as such
a tuple with its position, is looked up as it is, without building a
``Word``; the context is built from the position (``words.context_at``)
only when a lookup hits.  Matching works the same way.  A composition is the
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
multiple and composition is integral with leading coefficient ±1.
``lie_reduce`` clears denominators once: it multiplies the input by the
lcm L of its coefficients' denominators, reduces in ``int``s, and divides
each output and logged coefficient by L.  The normal form is linear and
the scaled input has the same support, so it takes the same steps and
the result is exact.  Each rule's polynomial is built and held once,
``int``s where integral (``Rule.narrowed``), and is its lift 0
(``Rule.core``); ``apply_D`` keeps the lifts ``int``s at an integral weight.
Special multiples come from ``lyndon.special_terms_from_lead`` over those
cores: ``Rule.lift_lead`` certifies each core's leading term once, on
first use, and every multiple is still certified to lead with its filled
word.  A division yields a ``Fraction`` only when it is not exact
(``algebra.divide``, as at weight 1/2), so no coefficient is ever a float.
What crosses the public boundary (``Rule.poly``, ``core``,
``composition``, ``reduce``, ``lie_normal_form``, ``ReductionStep``,
``special_multiple``) is a fresh copy in ``Fraction``s, with the values
and the term order the all-``Fraction`` computation gives.

A basis check reduces every composition and reports nonzero residues.
Reduction to zero certifies triviality; a nonzero residue means the
composition is not certified by naive reduction, which is weaker than a
disproof, and the report wording preserves that distinction.

Building an engine (``rota_baxter.DrblSystem.system``), checking it
(``RewriteSystem.is_gsb``) and the basis and oracle builders
(``rota_baxter.enumerate_basis`` and ``instantiate_rules``,
``reference.oracle_quotient_dim``) run with Python's cyclic garbage
collector paused (``collector_paused``).  They allocate hundreds of
thousands of long-lived dicts, tuples and words, and the collector keeps
rescanning them: building the degree-9 section-rule engine set off about
600 collections, four of them full, which took over a quarter of the time
and freed nothing, and a basis and oracle run at degree 6 over two
generators set off 40.  The pause is safe because the engine's data holds no
reference cycles (rules hold their lifts and their families, and no
family holds a reference back to the rules' owner), so reference
counting frees all of it; a cycle made elsewhere meanwhile is collected
once the collector runs again.  When the outermost pause ends, every
tracked object is promoted to the oldest generation, unscanned
(``gc.freeze()`` then ``gc.unfreeze()``), so the young collections that
follow do not rescan the engine: after a degree-9 section-rule build,
the young collection that came next took about 12 ms and freed nothing.
The promotion is skipped while objects are frozen (a nonzero
``gc.get_freeze_count()``), so a caller's frozen objects stay frozen;
CPython 3.12 freezes a few hundred of its own tuples at startup, so
there it never runs.  The trade-off: a caller's own young objects are
promoted too, and their cyclic garbage waits for the next full
collection.  The pause is process-wide: like the intern tables of
``words``, it assumes one thread.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

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
    special_terms_from_lead,
)
from .words import (
    IDENTITY_CONTEXT,
    Context,
    Hole,
    Word,
    context_at,
    enumerate_words,
    subword_runs,
    term_repr,
)


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector disabled.

    The collector is enabled again on exit only if it was enabled on
    entry, so pauses nest and a caller's own ``gc.disable()`` holds.
    Before it is enabled, ``gc.freeze()`` and ``gc.unfreeze()`` promote
    every tracked object to the oldest generation without scanning it and
    reset the young count, so the next young collections do not rescan
    what the block allocated; full collections still scan everything.
    The pair is skipped while the freeze count is nonzero, so objects a
    caller froze stay frozen.  A caller's own young objects are promoted
    too, so their cyclic garbage waits for the next full collection.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class Rule:
    """A monic rewriting rule with a provenance tag for its family.

    ``Rule(family, origin)`` holds its family and origin tag.  The family
    gives ``config``, ``poly(origin)``, the polynomial, ``int``s where
    integral, built on the first read of ``narrowed``, and
    ``tops(origin)``, given on each read.  A family must not hold the
    rule's owner (see the module docstring).  ``narrowed`` is the held
    polynomial; the ``poly`` property is a fresh ``Fraction`` copy.
    ``tops`` maps the deg-lex greatest word of each (degree, breadth)
    group to its ``Fraction`` coefficient; a group that another beats on
    both degree and breadth may be left out, since it never leads a lift.
    They are all that ``lift_leadings`` reads, so an engine indexes a rule
    without building it.

    A rule keeps its lifts, so ``rota_baxter.drbl_nf`` and every engine
    over it share them.  ``core(lift)`` is expanded on first use, one D
    step from the lift below it; lift 0 is ``narrowed``, so callers must
    not mutate a core.  ``lift_lead(lift)`` certifies a core's leading
    term once: it must be the one ``lift_leadings`` gives in closed form,
    with a hereditarily Lyndon-Shirshov word.  ``special(lift, ctx)`` holds
    a special multiple as ``lyndon.special_terms_from_lead`` gives it, with
    its core's leading coefficient.  The store, ``_lifts``, is made on the
    first lift read, so a rule never reduced with holds none.  Rules
    compare, hash and print by (poly, origin).
    """

    __slots__ = ("_family", "origin", "_poly", "_lifts")

    def __init__(self, family, origin: tuple):
        self._family = family
        self.origin = origin
        self._poly = self._lifts = None

    @property
    def config(self) -> AlgebraConfig:
        return self._family.config

    @property
    def tops(self) -> dict:
        return self._family.tops(self.origin)

    @property
    def narrowed(self) -> Poly:
        """The held polynomial, ``int``s where integral; do not mutate it."""
        if self._poly is None:
            self._poly = self._family.poly(self.origin)
        return self._poly

    @property
    def poly(self) -> Poly:
        """The polynomial as a fresh ``Poly`` of ``Fraction``s."""
        return Poly(as_fractions(self.narrowed.terms))

    @property
    def lead(self) -> Word:
        """The deg-lex leading word: the top of the greatest group."""
        return max(self.tops, key=lambda w: (w.degree, w.breadth))

    def core(self, lift: int) -> Poly:
        """``D^lift`` of the rule; lift 0 is ``narrowed``."""
        if self._lifts is None:
            # cores by lift, certified leads by lift, multiples by (lift, ctx)
            self._lifts = [self.narrowed], {}, {}
        cores = self._lifts[0]
        while len(cores) <= lift:
            cores.append(apply_D(self.config, cores[-1]))
        return cores[lift]

    def lift_lead(self, lift: int) -> tuple[Word, int | Fraction]:
        """Certified leading word and coefficient of a core."""
        core = self.core(lift)
        got = self._lifts[1].get(lift)
        if got is None:
            config = self.config
            v, c = leading(config, core)
            _, want, want_c = next(lift_leadings(config, self, math.inf, lift))
            if v != want or c != want_c:
                raise ValueError(
                    "core leading term %s %r is not %s %r" % (c, v, want_c, want)
                )
            if not is_alsw_hereditary(v, config.alphabet):
                raise ValueError(
                    "lifted leading word is not Lyndon-Shirshov: %r" % (v,)
                )
            got = self._lifts[1][lift] = v, c
        return got

    def special(self, lift: int, ctx: Context) -> tuple[dict, int | Fraction]:
        """(terms of the isolating-bracketed multiple in ``ctx``, leading
        coeff of core); callers must not mutate the terms."""
        core = self.core(lift)
        got = self._lifts[2].get((lift, ctx))
        if got is None:
            v, lc = self.lift_lead(lift)
            got = special_terms_from_lead(self.config, ctx, v, lc, core.terms), lc
            self._lifts[2][(lift, ctx)] = got
        return got

    def __eq__(self, other):
        if type(other) is not Rule:
            return NotImplemented
        return self.origin == other.origin and self.narrowed == other.narrowed

    def __hash__(self):
        return hash((self.narrowed, self.origin))

    def __repr__(self):
        return "Rule(poly=%r, origin=%r)" % (self.narrowed, self.origin)


class _OneRule:
    """The family of one ``make_rule`` rule: its polynomial and its tops."""

    __slots__ = ("config", "_poly", "_tops")

    def __init__(self, config: AlgebraConfig, poly: Poly, tops: dict):
        self.config, self._poly, self._tops = config, poly, tops

    def poly(self, origin: tuple) -> Poly:
        return self._poly

    def tops(self, origin: tuple) -> dict:
        return self._tops


def make_rule(config: AlgebraConfig, poly: Poly, origin: tuple = ("rule",)) -> Rule:
    """Normalize a polynomial to a monic rule, ``int``s where integral."""
    if not poly:
        raise ValueError("rules must be nonzero")
    key = config.alphabet.key
    tops: dict[tuple[int, int], Word] = {}
    for w in poly.terms:
        group = w.degree, w.breadth
        top = tops.get(group)
        if top is None or key(w) > key(top):
            tops[group] = w
    lc = Fraction(poly.terms[tops[max(tops)]])
    narrowed = Poly({w: narrow(c / lc) for w, c in poly.terms.items()})
    tops = {w: poly.terms[w] / lc for w in tops.values()}
    return Rule(_OneRule(config, narrowed, tops), origin)


class LiftedRule(NamedTuple):
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

    __repr__ = term_repr


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


def lift_leadings(config: AlgebraConfig, rule: Rule, max_degree: int, lift: int = 0):
    """Yield (i, leading word, coefficient) of ``D^i(rule.poly)`` for i ≥ ``lift``.

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
    deg-lex greatest monomial of the winning group, which is one of the
    rule's ``tops``; the polynomial itself is not read.  The tops make one
    list of (degree, step, breadth, word, coefficient), step being the
    degree a lift adds, and a plain loop picks each lift's group from it.
    """
    weighted = config.weight != 0
    groups = []
    for u, c in rule.tops.items():
        b = len(u.primes)
        groups.append((u.degree, b if weighted else 1, b, u, c))
    while True:
        best = None
        for group in groups:
            d = group[0] + lift * group[1]
            if best is None or d > best_d or (d == best_d and group[2] > best[2]):
                best, best_d = group, d
        if best_d > max_degree:
            return
        u, c = best[3], best[4]
        if lift:
            u, lc = d_power_leading(config, u, lift)
            if lc != 1:  # c is a Fraction; skipping a product by 1 keeps it one
                c *= lc
        yield lift, u, c
        lift += 1


def lie_reduce(config, p: Poly, match, log=None) -> LieCombination:
    """Bracketed normal form of the Lie element ``p``, steps appended to ``log``.

    ``match(u)`` gives ``(key, rule, lift, context)`` of a lifted rule
    reducing the word ``u``, or None; ``key`` names the rule in the logged
    steps (``ReductionStep.rule_index``).  The working terms are ``p``
    times the lcm of its denominators, ``int``s while integral (see the
    module docstring); the output and the logged steps are divided back
    and carry ``Fraction``s.
    """
    alphabet = config.alphabet
    scale = lcm(*{c.denominator for c in p.terms.values()})
    working = {w: c.numerator * (scale // c.denominator) for w, c in p.terms.items()}
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
            out.append((Fraction(c, scale), nb))
            _subtract(working, ((w, c * k) for w, k in expansion(alphabet, nb).items()))
            continue
        key, rule, lift, ctx = m
        special, lc = rule.special(lift, ctx)
        factor = divide(c, lc)
        multiple = {w: factor * t for w, t in special.items()}
        _subtract(working, multiple.items())
        if log is not None:
            if scale == 1:
                multiple = as_fractions(multiple)
            else:
                multiple = {w: Fraction(t, scale) for w, t in multiple.items()}
            log.append(
                ReductionStep(key, lift, ctx, Fraction(factor, scale), Poly(multiple))
            )
    return LieCombination(tuple(out))


def _check_mode(mode: str) -> None:
    if mode != "assoc" and mode != "lie":
        raise ValueError("mode must be 'assoc' or 'lie'")


class RewriteSystem:
    """A rule set instantiated and lift-bounded up to a fixed degree.

    Lifts i of each rule are enumerated while the true leading word of the
    lifted polynomial has degree at most ``max_degree``; the leading degree
    strictly grows with each lift, so the enumeration terminates.  Each
    lift's leading term comes in closed form from the rule's monomials (see
    ``lift_leadings``); the lifted polynomials are expanded on first use by
    the rules themselves (``Rule.core``), so engines over one rule share
    them.  Given ``Rule``s are kept as they are, bare polynomials made
    monic; every use divides by the lift's own leading coefficient.  A
    rule's lifts depend on the weight, so a ``Rule`` made under another
    configuration is refused.
    """

    def __init__(self, config: AlgebraConfig, rules, max_degree: int):
        self.config = config
        self.max_degree = max_degree
        self.rules = tuple(
            r if isinstance(r, Rule) else make_rule(config, r) for r in rules
        )
        # once per family: every rule of one reads its configuration
        if any(f.config != config for f in {r._family for r in self.rules}):
            raise ValueError("a rule was made under another configuration")
        self.lifted: list[LiftedRule] = []
        # by the primes of the leading word, so a run looks itself up as is
        self.by_leading: dict[tuple, tuple[LiftedRule, ...]] = {}
        by_leading = self.by_leading
        for idx, rule in enumerate(self.rules):
            for lift, lead, lc in lift_leadings(config, rule, max_degree):
                entry = LiftedRule(idx, lift, lead, lc)
                self.lifted.append(entry)
                # in (rule index, lift) order, the order match prefers
                run = lead.primes
                got = by_leading.get(run)
                by_leading[run] = (entry,) if got is None else got + (entry,)

    # -- matching ----------------------------------------------------------

    def core(self, rule_index: int, lift: int) -> Poly:
        """``D^lift`` of a rule, as a fresh ``Poly`` of ``Fraction``s."""
        return Poly(as_fractions(self.rules[rule_index].core(lift).terms))

    def match(self, u: Word):
        """First match in a monomial: min (rule index, lift, scan order).

        Returns (LiftedRule, bare Context) or None.
        """
        best = None
        by_leading = self.by_leading
        for run, where in subword_runs(u):
            entries = by_leading.get(run)
            if entries is None:
                continue
            e = entries[0]
            # (rule index, lift) names one lift, so the order never reads on
            if best is None or e < best:
                best, best_where = e, where
        if best is None:
            return None
        return best, context_at(u.primes, best_where)

    def is_reducible(self, u: Word) -> bool:
        return self.match(u) is not None

    def special_multiple(self, rule_index: int, lift: int, ctx: Context) -> Poly:
        """Isolating-bracketed multiple of a lifted rule, leading certified."""
        return Poly(as_fractions(self.rules[rule_index].special(lift, ctx)[0]))

    # -- reduction ----------------------------------------------------------

    def _guard_degree(self, p: Poly):
        d = p.max_degree()
        if d > self.max_degree:
            raise ValueError(
                "polynomial degree %d exceeds the instantiation bound %d"
                % (d, self.max_degree)
            )

    def reduce(self, p: Poly, mode: str = "assoc", *, log: list | None = None) -> Poly:
        """Normal form of ``p`` modulo the system.

        Associative mode eliminates reducible monomials greatest-first; the
        result contains no lifted leading word.  Lie mode requires a Lie
        element and returns the expansion of its bracketed normal form.
        """
        _check_mode(mode)
        if mode == "lie":
            return self.lie_normal_form(p, log).as_poly(self.config)
        self._guard_degree(p)
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
            c = working[u]
            multiple = subst_poly(ctx, self.rules[entry.rule_index].core(entry.lift))
            factor = c / entry.leading_coeff
            multiple = multiple.scale(factor)
            if multiple.terms.get(u) != c:
                raise RuntimeError("rule multiple does not cancel %r" % (u,))
            _subtract(working, multiple.terms.items())
            if log is not None:
                log.append(
                    ReductionStep(entry.rule_index, entry.lift, ctx, factor, multiple)
                )
        return Poly(out)

    def lie_normal_form(self, p: Poly, log: list | None = None) -> LieCombination:
        """Normal form of a Lie element as bracketed basis words."""
        self._guard_degree(p)
        return lie_reduce(self.config, p, self._lie_match, log)

    def _lie_match(self, u: Word):
        m = self.match(u)
        return m and (m[0].rule_index, self.rules[m[0].rule_index], m[0].lift, m[1])

    # -- compositions --------------------------------------------------------

    def find_ambiguities(self) -> list[Ambiguity]:
        """All intersection and inclusion ambiguities within the bound.

        Intersections glue a proper suffix of one lifted leading to an equal
        proper prefix of another, when the glued word fits the bound; each
        left lift looks its suffixes up in a table from every proper prefix
        to the lifts that start with it.  Inclusions are occurrences of one
        lifted leading inside another, skipping only the identity-context
        occurrence of a lifted rule in itself; each left lift walks its
        subword runs (``words.subword_runs``) and looks each run, a tuple
        of primes, up in ``by_leading``, which is keyed by the primes of
        the leading words; only on a hit is the context built from the
        run's position (``words.context_at``).  ``position``
        counts the occurrences of one leading word in walk order, which is
        the order of ``words.occurrences``: top-level runs by start, then
        nested runs by (prime, argument), outside in.  The result is sorted
        by a total order on (word, kind, left, right, position), so it does
        not depend on the order of discovery.  Each call searches afresh
        and returns a fresh list.  The test suite's ``oracle_ambiguities``
        finds the same list by comparing every pair of lifts.
        """
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
            room = max_degree - vl.degree  # for the primes glued on
            shared = 0
            for k in range(1, len(lp)):
                shared += lp[-k].degree
                for right in by_prefix.get(lp[-k:], ()):
                    vr = right.leading_word
                    if vr.degree - shared <= room:
                        w = Word(lp + vr.primes[k:])
                        out.append(
                            Ambiguity(
                                "intersection", left, right, w,
                                overlap=k, position=k,
                            )
                        )
            # Occurrences of one leading word inside vl, counted in walk order.
            seen: dict[tuple, int] = {}
            for run, where in subword_runs(vl):
                rights = by_leading.get(run)
                if rights is None:
                    continue
                pos = seen.get(run, 0)
                seen[run] = pos + 1
                ctx = context_at(lp, where)
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
        _check_mode(mode)
        config = self.config
        left, right = amb.left, amb.right
        rule_l, rule_r = self.rules[left.rule_index], self.rules[right.rule_index]
        core_l = rule_l.core(left.lift)
        core_r = rule_r.core(right.lift)
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
            v, lc = rule_l.lift_lead(left.lift)
            side_l = special_terms_from_lead(config, ctx_l, v, lc, core_l.terms)
            v, lc = rule_r.lift_lead(right.lift)
            side_r = special_terms_from_lead(config, ctx_r, v, lc, core_r.terms)
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
        _check_mode(mode)
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
        _check_mode(mode)
        return [
            shirshov_bracket(w, self.config.alphabet)
            for w in enumerate_alsw(self.config, n)
            if not self.is_reducible(w)
        ]
