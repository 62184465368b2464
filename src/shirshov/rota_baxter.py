"""Free differential Lie Rota-Baxter algebras of weight λ.

The defining rule system over the operator alphabet {P} has two families,
parameterized by Lyndon-Shirshov words:

* section rules  g(u) = expansion of D(P([u])) − [u], leading D(P(u));
* Rota-Baxter rules  f(u,v) = expansion of
  [P([u])P([v])] − P([u, P([v])]) − P([P([u]), v]) − λ P([u,v])
  for u deg-lex-greater than v, leading P(u)·P(v).

For λ ≠ 0 a third family completes them (a bounded Shirshov completion):

* completion rules  h(u,i) = the i-lift of g(u) reduced modulo the other
  rules, leading D^{i+1}(P(u)), for those lifts whose overtaking leading
  run (below) holds a D-over-P prime that another rule reduces.  Without
  h, the composition of that lift with the rule for its D-over-P prime
  leaves a residue led by D^{i+1}(P(u)), which no other rule matches.

Normal forms have a closed reducibility description, which ``drbl_nf``
exploits instead of scanning a rule table.  A monomial is reducible iff it
contains (at any nesting depth):

* a prime D^k(P(w)) with k ≥ 1 — reduced by the (k−1)-lift of g(w); for
  λ ≠ 0 this requires (k−1)(breadth(w)−1) < 2, because past that point the
  lift's true leading word is no longer D^k(P(w)): the D of a breadth-n
  word gains degree n per application through its all-positions term, so a
  trailing monomial of g(w) overtakes the nominal leading;
* (λ ≠ 0) past that point, a prime D^k(P(w)) for which h(w, k−1) exists —
  reduced by it;
* once those are gone, adjacent primes P(a)·P(b) with a deg-lex-greater
  than b — reduced by f(a,b); or
* (λ ≠ 0) a contiguous run of n ≥ 2 primes, each with D-power at least i,
  where i(n−1) ≥ 2 and removing i D's from every prime leaves a
  Lyndon-Shirshov word w — that run is exactly the overtaking leading word
  of the i-lift of g(w), with leading coefficient −λ^{(n−1)i}.

Through degree 7 these rules certify every composition at any weight.  From
degree 8 on an interreduced lift can lead with another word (the 2-lift of
g(P(x)·x·x) leads with D^2(x)·D^2(x)·P(x)); building that h raises, so
full systems and normal forms that need it are refused, not guessed.

Rules are built lazily per parameter; the same rules back the fast path
and the eagerly instantiated systems handed to the generic engine, and
each rule keeps its lifts (``rewriting.Rule.core``), so ``drbl_nf`` and
every engine built over the rule share them.  The fast path ``drbl_nf``
is the engine's Lie loop ``rewriting.lie_reduce`` with ``_find_match`` as
matcher; the matcher walks the engine's subword runs
(``words.subword_runs``) and tests each against the patterns above where
``RewriteSystem.match`` looks it up.  Each system memoises the matcher's
answer with the rule it names, (rule tag, rule, lift, context) or None,
by the word it was asked about, for as long as the system lives;
``drbl_nf`` and ``completion_rule``'s own lookups read it, so a word met
again, in one normal form or the next, is not walked again.  Like the
intern tables of ``words``, the memo takes no lock.  A completion build
clears it when it ends: while h(u, i) is being built, D^{i+1}(P(u)) counts
as irreducible, so an answer found then can be wrong afterwards.  The
standard bracketing [u] is made of the bracketings of u's sub-parameters
(its standard factors and the arguments of its P-letters), which are
interned nodes, so the alphabet's memo of bracket expansions
(``algebra.lie_expand``, shared with the parser and with ``drbl_nf``'s
peel) expands every subtree once, a pair as the commutator of its
children's expansions and a leaf as P of its argument's expansion
followed by D^k.  Section and Rota-Baxter rules read [u]
through it, and completion rules through the section rules.  g(u) is
built in one pass, on the first read of its polynomial: each term c·m of
[u] gives c·D(P(m)), and after all of those come the terms −c·m.  Nothing
cancels, since the first kind has degree deg(u)+2 and the second degree
deg(u), and D(P(m)) only raises the D-power of the single prime P(m).
Its leading term is D(P(u)) with coefficient 1, known without ranking a
term: by Shirshov's lemma [u] = u + (terms deg-lex below u), the D(P(m))
terms outrank every −c·m on degree, and among them D(P(u)) is greatest
because the prime order is monotone in the argument.  The same lemma
gives the top of the −c·m terms, u with coefficient −1, and the terms of
each kind share one degree and one breadth (1, and breadth(u)).  So
these two terms are the rule's ``tops``, all that
``rewriting.lift_leadings`` reads: an engine indexes every section rule's
lifts without building one, and expands [u] only for the rules a
reduction or composition reads.  f(u,v) is read from the same memo:
each of its four terms is the expansion of a bracketed node,
[P([u]) P([v])], P([[u] P([v])]), P([P([u]) [v]]) and P([[u] [v]]), so
P([u]) is expanded once per parameter and the pair nodes once per pair,
in integers.  Its leading term is P(u)·P(v) with
coefficient 1: the terms of breadth 2 are P(a)·P(b) and P(b)·P(a) for a
in [u] and b in [v], and u, which is greater than v, is not a word of
[v].  That term is the rule's one top: the other terms have breadth 1
and no greater degree, so its group leads every lift at every weight.
So f(u,v) too is built on the first read of its polynomial.  Each such
rule holds its origin tag, the system's one ``_Families``, which
builds the polynomial and gives the tops from the tag, and, once read,
its lifts; the family holds the configuration, never the ``DrblSystem``,
so no reference cycle forms.  Completion rules take their polynomial and
tops from ``rewriting.make_rule`` and are built eagerly.

The linear basis of the quotient is enumerated directly: the letter
alphabet is D^i(generator) together with P(w) (never D over P) for w a
Lyndon-Shirshov word of the same restricted language, and bracketed words
containing adjacent P(a)·P(b) with a deg-lex-greater than b anywhere are
excluded.
"""

from __future__ import annotations

from .algebra import (
    MINUS_ONE,
    ONE,
    AlgebraConfig,
    Poly,
    _subtract,
    expansion,
    lie_expand,
    narrow,
)
from .lyndon import (
    enumerate_alsw,
    enumerate_alsw_by_degree,
    is_alsw_hereditary,
    shirshov_bracket,
)
from .rewriting import (
    LieCombination,
    RewriteSystem,
    Rule,
    collector_paused,
    lie_reduce,
    make_rule,
)
from .words import (
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Prime,
    Word,
    context_at,
    subword_runs,
)


_UNSEEN = object()  # a word not yet in a system's match memo


def _overtaken(lift: int, breadth: int) -> bool:
    """Whether, at λ ≠ 0, the ``lift``-lift of g(w), w of this breadth,
    leads with w's primes each shifted by ``lift`` instead of D^{lift+1}(P(w)):
    degree deg(w) + lift·breadth against deg(w) + lift + 2, broader on a tie."""
    return lift * (breadth - 1) >= 2


def _check_parameter(u: Word, alphabet) -> None:
    if not is_alsw_hereditary(u, alphabet):
        raise ValueError("parameter %r is not a Lyndon-Shirshov word" % (u,))


def _section_poly(alphabet, op: str, u: Word) -> Poly:
    """g(u) in one pass over [u]: c·D(P(m)) for each term c·m, then −c·m."""
    bu = expansion(alphabet, shirshov_bracket(u, alphabet))
    terms = {Word((Prime(1, OpApp(op, (m,))),)): c for m, c in bu.items()}
    terms.update((m, -c) for m, c in bu.items())
    return Poly(terms)


def _rota_baxter_poly(alphabet, op: str, weight, u: Word, v: Word) -> Poly:
    """f(u,v) from the memo's expansions of its four bracketed nodes, with
    ``int``s where integral: at λ = 1/2, λ·2 is narrowed to 1."""

    def operated(t):
        return NaLeaf(0, NaOp(op, (t,)))

    bu = shirshov_bracket(u, alphabet)
    bv = shirshov_bracket(v, alphabet)
    pu = operated(bu)
    pv = operated(bv)
    terms = dict(expansion(alphabet, NaPair(pu, pv)))
    for c, t in (
        (1, NaPair(bu, pv)),
        (1, NaPair(pu, bv)),
        (weight, NaPair(bu, bv)),
    ):
        if c:
            e = expansion(alphabet, operated(t))
            _subtract(terms, ((w, narrow(c * k)) for w, k in e.items()))
    return Poly(terms)


class _Families:
    """The section and Rota-Baxter rules of one ``DrblSystem``, each read
    from its origin tag, ``("section", u)`` or ``("rota-baxter", u, v)``.

    Holds the configuration, the operator and the narrowed weight, never
    the system, so no reference cycle forms.
    """

    __slots__ = ("config", "operator", "weight")

    def __init__(self, config: AlgebraConfig, operator: str):
        self.config = config
        self.operator = operator
        self.weight = narrow(config.weight)

    def poly(self, origin: tuple) -> Poly:
        alphabet = self.config.alphabet
        if origin[0] == "section":
            return _section_poly(alphabet, self.operator, origin[1])
        _, u, v = origin
        return _rota_baxter_poly(alphabet, self.operator, self.weight, u, v)

    def tops(self, origin: tuple) -> dict:
        """g(u): D(P(u)) and u; f(u,v): P(u)·P(v), whose breadth-2 group
        has the greatest degree, so it leads every lift."""
        op = self.operator
        if origin[0] == "section":
            u = origin[1]
            return {Word((Prime(1, OpApp(op, (u,))),)): ONE, u: MINUS_ONE}
        _, u, v = origin
        return {Word((Prime(0, OpApp(op, (u,))), Prime(0, OpApp(op, (v,))))): ONE}


class DrblSystem:
    """Rule families of a free differential Lie Rota-Baxter algebra.

    Holds the algebra configuration (one unary operator) plus lazy caches:
    rules keyed by their Lyndon-Shirshov parameters, each rule named by
    its tag (``("section", u)``, ``("rota-baxter", u, v)``,
    ``("completion", u, i)``) and keeping its own lifts and bracketed
    multiples, and the match memo: each word the matcher was asked about,
    mapped to ``_find_match``'s answer with the rule its tag names.  The
    memo lives as long as the system, takes no lock (one thread, like the
    intern tables), and is cleared whenever a completion build ends, since
    answers found during one can go stale.  Bracket expansions live on the
    alphabet, not here.
    """

    def __init__(self, config: AlgebraConfig):
        ops = tuple(config.alphabet.operators)
        if len(ops) != 1 or ops[0][1] != 1:
            raise ValueError(
                "a Rota-Baxter system needs exactly one unary operator"
            )
        self.config = config
        self.operator = ops[0][0]
        self._families = _Families(config, self.operator)
        self._section: dict[Word, Rule] = {}
        self._rota_baxter: dict[tuple[Word, Word], Rule] = {}
        self._completion: dict[tuple[Word, int], Rule | None] = {}
        self._matches: dict[Word, tuple | None] = {}

    # -- rule families -------------------------------------------------------

    def section_rule(self, u: Word) -> Rule:
        """g(u): applying D undoes P, modulo lower terms.

        Its polynomial is built on first read; its lift leadings come
        from its two group tops, D(P(u)) and u.
        """
        got = self._section.get(u)
        if got is None:
            _check_parameter(u, self.config.alphabet)
            got = self._section[u] = Rule(self._families, ("section", u))
        return got

    def rota_baxter_rule(self, u: Word, v: Word) -> Rule:
        """f(u,v): the bracket of two P-images re-expressed under P.

        Its polynomial is built on first read; its lift leadings come
        from its one top, P(u)·P(v).
        """
        got = self._rota_baxter.get((u, v))
        if got is None:
            alphabet = self.config.alphabet
            if alphabet.key(u) <= alphabet.key(v):
                raise ValueError("parameters must satisfy u > v in deg-lex")
            _check_parameter(u, alphabet)
            _check_parameter(v, alphabet)
            rule = Rule(self._families, ("rota-baxter", u, v))
            got = self._rota_baxter[(u, v)] = rule
        return got

    def completion_rule(self, u: Word, lift: int) -> Rule | None:
        """h(u, i): the moved i-lift of g(u), interreduced.

        For λ ≠ 0 and i(breadth(u)−1) ≥ 2 the i-lift of g(u) leads with the
        run of u's primes each shifted by i.  When u has a P-factor, that
        run holds a D-over-P prime which another rule already reduces, and
        reducing the lift modulo the other rules leaves an ideal member led
        by the nominal word D^{i+1}(P(u)), which no other rule matches; this
        is that member.  Returns None when u has no P-factor, when nothing
        else reduces the run, or when another rule already reduces
        D^{i+1}(P(u)) (inside u).  While the lift is being reduced,
        D^{i+1}(P(u)) counts as irreducible.  Raises RuntimeError when the
        reduced lift leads with another word: the family does not close
        the system there.
        """
        if self.config.weight == 0 or not _overtaken(lift, u.breadth):
            raise ValueError(
                "the %d-lift of g(%r) keeps its leading word" % (lift, u)
            )
        key = (u, lift)
        if key in self._completion:
            return self._completion[key]
        tag = ("section", u)
        m = None
        if any(type(p.head) is OpApp for p in u.primes):
            run = Word(tuple(p.shifted(lift) for p in u.primes))
            m = self._match(run)
        # Any match in D^{i+1}(P(u)) other than h itself lies inside u.
        if m is None or (m[0] == tag and m[2] == lift) or self._match(u):
            self._completion[key] = None
            return None
        self._completion[key] = None
        try:
            poly = drbl_nf(self.section_rule(u).core(lift), self).as_poly(self.config)
        finally:
            del self._completion[key]
            # matches found while D^{i+1}(P(u)) counted as irreducible
            self._matches.clear()
        top = Word((Prime(lift + 1, OpApp(self.operator, (u,))),))
        got = make_rule(self.config, poly, ("completion", u, lift)) if poly else None
        if got is None or got.lead != top:
            raise RuntimeError(
                "rule system not completed: the interreduced %d-lift of "
                "g(%r) leads with %r, not %r"
                % (lift, u, got and got.lead, top)
            )
        self._completion[key] = got
        return got

    def _match(self, u: Word):
        """``_find_match(self, u)`` with the rule its tag names, (tag, rule,
        lift, context) or None, memoised by the word ``u``."""
        got = self._matches.get(u, _UNSEEN)
        if got is _UNSEEN:
            got = _find_match(self, u)
            if got is not None:
                got = (got[0], self._rule(got[0])) + got[1:]
            self._matches[u] = got
        return got

    def _rule(self, tag: tuple) -> Rule:
        if tag[0] == "section":
            return self.section_rule(tag[1])
        if tag[0] == "completion":
            return self.completion_rule(tag[1], tag[2])
        return self.rota_baxter_rule(tag[1], tag[2])

    # -- instantiated engines --------------------------------------------------

    def system(self, max_degree: int, s1_only: bool = False) -> RewriteSystem:
        """The generic rewrite engine over the eagerly instantiated rules.

        Built afresh on each call, from the rules cached here, with the
        cyclic garbage collector paused (``rewriting.collector_paused``).
        """
        with collector_paused():
            build = s1_rules if s1_only else instantiate_rules
            return RewriteSystem(self.config, build(self, max_degree), max_degree)


def s1_rules(sys: DrblSystem, max_degree: int) -> list[Rule]:
    """All section rules whose leading word fits the bound, deg-lex order."""
    return [
        sys.section_rule(u)
        for u in enumerate_alsw(sys.config, max_degree - 2)
    ]


@collector_paused()
def instantiate_rules(sys: DrblSystem, max_degree: int) -> list[Rule]:
    """Every rule whose leading word has degree at most ``max_degree``.

    Section rules come first (deg-lex by parameter), then Rota-Baxter
    rules sorted by their leading word P(u)·P(v), then (λ ≠ 0) completion
    rules sorted by their leading word D^{i+1}(P(u)).
    """
    params = enumerate_alsw(sys.config, max_degree - 2)
    out = [sys.section_rule(u) for u in params]
    # pair and completion parameters: the prefix of degree <= max_degree - 3
    params = [u for u in params if u.degree <= max_degree - 3]
    key = sys.config.alphabet.key
    rota_baxter = [
        sys.rota_baxter_rule(u, v)
        for u in params
        for v in params
        if u.degree + v.degree <= max_degree - 2 and key(u) > key(v)
    ]
    rota_baxter.sort(key=lambda r: key(r.lead))
    out.extend(rota_baxter)
    if sys.config.weight != 0:
        completion = []
        for u in params:
            for i in range(1, max_degree - u.degree - 1):
                if _overtaken(i, u.breadth):
                    rule = sys.completion_rule(u, i)
                    if rule is not None:
                        completion.append(rule)
        completion.sort(key=lambda r: key(r.lead))
        out.extend(completion)
    return out


# ---------------------------------------------------------------------------
# Fast-path normal form.


def _find_match(sys: DrblSystem, u: Word):
    """Locate the first reducible pattern in a monomial.

    Returns (rule tag, lift, context) or None.  One loop over
    ``words.subword_runs(u)`` tests each run against the one closed form
    its first prime allows:

    * a single prime D^k(P(w)), k ≥ 1: the (k−1)-lift of g(w), or at
      nonzero weight past the overtaking point h(w, k−1) when it exists;
      such a hit returns at once;
    * two primes P(a)·P(b) without D: f(a, b) when a is deg-lex-greater;
    * at nonzero weight, n ≥ 2 primes, the first with a D: the least lift
      i, at most every prime's D-power, with i(n−1) ≥ 2 and removing i D's
      from each prime leaving a Lyndon-Shirshov word w (the i-lift of g(w)).

    Else the first pair hit wins, else the first run hit.  The context is
    built for the returned hit alone.
    """
    config = sys.config
    weighted = config.weight != 0
    alphabet = config.alphabet
    key = alphabet.key
    primes = u.primes
    pair = stretch = None  # the first hits: (tag, lift, where)
    for run, where in subword_runs(u):
        p = run[0]
        k = p.d_power
        n = len(run)
        if n == 1:
            if k and type(p.head) is OpApp:
                w = p.head.args[0]
                if not weighted or not _overtaken(k - 1, w.breadth):
                    return ("section", w), k - 1, context_at(primes, where)
                if sys.completion_rule(w, k - 1) is not None:
                    return ("completion", w, k - 1), 0, context_at(primes, where)
        elif not k:
            if pair is None and n == 2 and _descending_pair(p, run[1], key):
                pair = ("rota-baxter", p.head.args[0], run[1].head.args[0]), 0, where
        elif weighted and stretch is None:
            for lift in range(1, min(q.d_power for q in run) + 1):
                if _overtaken(lift, n):
                    w = Word(tuple(q.shifted(-lift) for q in run))
                    if is_alsw_hereditary(w, alphabet):
                        stretch = ("section", w), lift, where
                        break
    got = pair or stretch
    return got and (got[0], got[1], context_at(primes, got[2]))


def _as_poly(config: AlgebraConfig, p) -> Poly:
    if isinstance(p, Poly):
        return p
    if isinstance(p, (NaLeaf, NaPair)):
        return lie_expand(config, p)
    if isinstance(p, LieCombination):
        return p.as_poly(config)
    if isinstance(p, Word):
        return Poly.word(p)
    raise TypeError("cannot interpret %r as a Lie element" % (p,))


def drbl_nf(
    p,
    sys: DrblSystem,
    max_degree: int | None = None,
    log: list | None = None,
) -> LieCombination:
    """Normal form of a Lie element in the free weighted system.

    Accepts a polynomial, a bracketed word, or a prior normal form, and
    reduces it by ``rewriting.lie_reduce`` with the matcher ``_find_match``,
    read through ``sys``'s match memo: a word any earlier call on ``sys``
    matched is looked up, not walked, and a finished completion build
    clears the memo (see ``DrblSystem``).
    At weight 0 the result is the unique basis combination equal to ``p``.
    At weight λ ≠ 0 it is a combination of irreducible words, which can
    include words that are not basis words, such as ``D^4(P([x1 x2]))``.
    """
    working = _as_poly(sys.config, p)
    if max_degree is not None and working.max_degree() > max_degree:
        raise ValueError(
            "degree %d exceeds the requested bound %d"
            % (working.max_degree(), max_degree)
        )
    return lie_reduce(sys.config, working, sys._match, log)


# ---------------------------------------------------------------------------
# The linear basis.


def _basis_letters(sys: DrblSystem):
    alphabet = sys.config.alphabet
    op = sys.operator

    def letters(d: int, alsw_by_deg):
        out = [Prime(d - 1, g) for g in alphabet.generators]
        for w in alsw_by_deg.get(d - 1, ()):
            out.append(Prime(0, OpApp(op, (w,))))
        return out

    return letters


def _descending_pair(p: Prime, q: Prime, key) -> bool:
    """p·q is P(a)·P(b), neither under D, with a deg-lex-greater than b."""
    return (
        type(p.head) is type(q.head) is OpApp
        and p.d_power == q.d_power == 0
        and key(p.head.args[0]) > key(q.head.args[0])
    )


def _contains_descending_pair(w: Word, alphabet) -> bool:
    """Adjacent P(a)·P(b) with a deg-lex-greater, at any nesting depth."""
    primes = w.primes
    for t, p in enumerate(primes):
        if type(p.head) is OpApp:
            if any(_contains_descending_pair(a, alphabet) for a in p.head.args):
                return True
            if t + 1 < len(primes) and _descending_pair(p, primes[t + 1], alphabet.key):
                return True
    return False


@collector_paused()
def enumerate_basis(sys: DrblSystem, max_degree: int) -> dict[int, list]:
    """Bracketed basis words by degree.

    The carrier words are Lyndon-Shirshov words over the restricted letters
    D^i(generator) and P(w) with w a smaller word of the same language; the
    descending adjacent P-pair pattern is then excluded.  Values are
    standard-bracketed words, deg-lex sorted within each degree.
    """
    alphabet = sys.config.alphabet
    by_deg = enumerate_alsw_by_degree(alphabet, max_degree, _basis_letters(sys))
    out: dict[int, list] = {}
    for d in range(1, max_degree + 1):
        out[d] = [
            shirshov_bracket(w, alphabet)
            for w in by_deg.get(d, ())
            if not _contains_descending_pair(w, alphabet)
        ]
    return out
