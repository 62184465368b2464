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

Rules are built lazily per parameter; the same cache backs the fast path
and the eagerly instantiated systems handed to the generic engine.  The
fast path ``drbl_nf`` is the engine's Lie loop ``rewriting.lie_reduce``
with ``_find_match`` as matcher and lifts cached by rule tag.  The
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
So f(u,v) too is built on the first read of its polynomial.  A rule's
builder holds the alphabet, never the ``DrblSystem``, so no reference
cycle forms.  Completion rules take their tops from
``rewriting.make_rule`` and are built eagerly.

The linear basis of the quotient is enumerated directly: the letter
alphabet is D^i(generator) together with P(w) (never D over P) for w a
Lyndon-Shirshov word of the same restricted language, and bracketed words
containing adjacent P(a)·P(b) with a deg-lex-greater than b anywhere are
excluded.
"""

from __future__ import annotations

import weakref
from functools import partial

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
    LiftCache,
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
)


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


class DrblSystem:
    """Rule families of a free differential Lie Rota-Baxter algebra.

    Holds the algebra configuration (one unary operator) plus lazy caches:
    rules keyed by their Lyndon-Shirshov parameters, a ``LiftCache`` of
    lifted rules and their bracketed multiples keyed by tag
    (``("section", u)``, ``("rota-baxter", u, v)``, ``("completion", u, i)``).
    Bracket expansions live on the alphabet, not here.
    """

    def __init__(self, config: AlgebraConfig):
        ops = tuple(config.alphabet.operators)
        if len(ops) != 1 or ops[0][1] != 1:
            raise ValueError(
                "a Rota-Baxter system needs exactly one unary operator"
            )
        self.config = config
        self.operator = ops[0][0]
        self._section: dict[Word, Rule] = {}
        self._rota_baxter: dict[tuple[Word, Word], Rule] = {}
        self._completion: dict[tuple[Word, int], Rule | None] = {}
        # A weak back-reference, so the cache does not keep its owner in a
        # reference cycle; the cache is reached only through its owner.
        owner = weakref.ref(self)
        self._lifts = LiftCache(config, lambda tag: owner()._rule(tag))

    # -- rule families -------------------------------------------------------

    def section_rule(self, u: Word) -> Rule:
        """g(u): applying D undoes P, modulo lower terms.

        Its polynomial is built on first read; its lift leadings come
        from its two group tops, D(P(u)) and u.
        """
        got = self._section.get(u)
        if got is None:
            alphabet = self.config.alphabet
            _check_parameter(u, alphabet)
            lead = Word((Prime(1, OpApp(self.operator, (u,))),))
            got = Rule(
                partial(_section_poly, alphabet, self.operator, u),
                ("section", u),
                {lead: ONE, u: MINUS_ONE},
            )
            self._section[u] = got
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
            op, weight = self.operator, narrow(self.config.weight)
            lead = Word((Prime(0, OpApp(op, (u,))), Prime(0, OpApp(op, (v,)))))
            # its breadth-2 group has the greatest degree: it leads every lift
            got = Rule(
                partial(_rota_baxter_poly, alphabet, op, weight, u, v),
                ("rota-baxter", u, v),
                {lead: ONE},
            )
            self._rota_baxter[(u, v)] = got
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
            m = _find_match(self, run)
        # Any match in D^{i+1}(P(u)) other than h itself lies inside u.
        if m is None or m[:2] == (tag, lift) or _find_match(self, u):
            self._completion[key] = None
            return None
        self._completion[key] = None
        try:
            poly = drbl_nf(self._lifts.core(tag, lift), self).as_poly(self.config)
        finally:
            del self._completion[key]
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

    Returns (rule tag, lift, context) or None.  Section and completion
    patterns are tried before Rota-Baxter pairs, so D-over-P primes never
    survive into the pair scan; completion and run patterns only exist for
    nonzero weight.  The first single-prime hit wins, else the first pair,
    else the first run, each first in ``words.subword_runs`` order:
    the runs of the top level by start and then by length, then those
    inside each operator argument, prime by prime, outside in.  Only runs
    a pattern can match are visited: single primes, adjacent pairs, and at
    nonzero weight the stretches of two or more primes that each carry a
    D; a stretch stops growing at the first prime without one.  The
    context is built for the returned hit alone.
    """
    hits = [None, None]  # the first pair and the first run: (tag, lift, where)
    got = _walk(sys, u.primes, (), hits) or hits[0] or hits[1]
    if got is None:
        return None
    tag, lift, (path, i, j) = got
    where = (i, j)
    for t, a in reversed(path):
        where = (t, a, where)
    return tag, lift, context_at(u.primes, where)


def _walk(sys: DrblSystem, primes: tuple, path: tuple, hits: list):
    """``_find_match``'s walk over one level and the arguments under it.

    Returns the first single-prime hit, and records the first pair and run
    hits in ``hits``.  A hit is (tag, lift, (path, i, j)): the primes i to
    j (exclusive) of this level, reached through ``path``, the (prime
    index, argument index) of each level above.
    """
    config = sys.config
    weighted = config.weight != 0
    key = config.alphabet.key
    n = len(primes)
    for i, p in enumerate(primes):
        head = p.head
        k = p.d_power
        if type(head) is OpApp:
            w = head.args[0]
            if k:
                if not weighted or not _overtaken(k - 1, w.breadth):
                    return ("section", w), k - 1, (path, i, i + 1)
                if sys.completion_rule(w, k - 1) is not None:
                    return ("completion", w, k - 1), 0, (path, i, i + 1)
            elif hits[0] is None and i + 1 < n:
                q = primes[i + 1]
                if q.d_power == 0 and type(q.head) is OpApp:
                    v = q.head.args[0]
                    if key(w) > key(v):
                        hits[0] = ("rota-baxter", w, v), 0, (path, i, i + 2)
        if weighted and k and hits[1] is None:
            bound = k
            for j in range(i + 1, n):
                bound = min(bound, primes[j].d_power)
                if not bound:
                    break
                size = j + 1 - i
                for lift in range(1, bound + 1):
                    if not _overtaken(lift, size):
                        continue
                    w = Word(tuple(q.shifted(-lift) for q in primes[i : j + 1]))
                    if is_alsw_hereditary(w, config.alphabet):
                        hits[1] = ("section", w), lift, (path, i, j + 1)
                        break
                if hits[1] is not None:
                    break
    for t, p in enumerate(primes):
        head = p.head
        if type(head) is OpApp:
            for a, arg in enumerate(head.args):
                got = _walk(sys, arg.primes, path + ((t, a),), hits)
                if got is not None:
                    return got
    return None


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
    reduces it by ``rewriting.lie_reduce`` with the matcher ``_find_match``.
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
    return lie_reduce(
        sys.config, working, lambda u: _find_match(sys, u), sys._lifts, log
    )


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


def _contains_descending_pair(w: Word, alphabet) -> bool:
    """Adjacent P(a)·P(b) with a deg-lex-greater, at any nesting depth."""
    key = alphabet.key
    primes = w.primes
    for t, p in enumerate(primes):
        head = p.head
        if type(head) is not OpApp:
            continue
        if any(_contains_descending_pair(a, alphabet) for a in head.args):
            return True
        if t + 1 < len(primes) and p.d_power == 0:
            q = primes[t + 1]
            if q.d_power == 0 and type(q.head) is OpApp:
                if key(head.args[0]) > key(q.head.args[0]):
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
