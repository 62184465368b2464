"""Oracles and checkers that serve only the test suite.

Most recompute, the slow and obvious way, a value the package computes
another way.  The package never imports this module.  Word counts come by
exhaustive rotation filtering, ALSWs by degree by comparing every pair of
smaller ones (``oracle_enumerate_alsw_by_degree``, against the package's
bisection), the differential by the recursive two-factor rule, standard
bracketings by trying every binary tree (over ``underlying_word``, which
forgets a bracketing), section and Rota-Baxter
rules by expanding each bracketing afresh, ambiguities by comparing every
pair of lifted leading words, ``drbl_nf``'s matcher by visiting every
subword run (``oracle_find_match``), and the ideal rows of
``reference.oracle_quotient_dim`` by one ``occurrences`` scan per ALSW word
and lift (``naive_ideal_rows``).  ``congruence_failures`` counts the
draws on which ``drbl_nf`` breaks a congruence of the quotient's
operations, and ``concat``, the concatenation product of words, serves
the tests alone.  ``oracle_parse_term`` is the parser with a token list
of (kind, text, position) triples, a method per token test and
``Fraction`` sums, against ``syntax.parse_term``'s string tokens and
integer sums.  ``oracle_random_reduce`` reduces with a
seeded-random order and choice of rule, against the engine's greatest-first
``reduce``, and ``verify_axioms`` checks the defining identities on random
basis elements by ``drbl_nf`` (``AxiomReport`` holds its result).

``special_template`` builds the isolating bracketing that
``tests/test_lyndon.py`` grafts over the package's spine
(``special_bracket``) by plain recursion over the word, with a mark
at the isolated subword.  It finds each standard split itself, as the
longest proper suffix that passes the rotation test of ``_oracle_is_alsw``,
and shares no code with the package's spine (``lyndon._spine``,
``_descend``, ``_standard_split``); only the subtrees off the
path to the mark are the package's ``shirshov_bracket`` and
``ls_factorization``, which have oracle tests of their own.
``expand_template`` expands a bracketing over ``Fraction`` polynomials:
every node, on the path or off it, with ``commutator``, ``apply_operator``
and ``apply_D``, and no memo.  With a core at the mark it is
``oracle_special_expand``; with no mark it is the unmemoised
``lie_expand`` behind the rule oracles.  The package computes the spine
alone, in ``int``s while integral, and reads the other subtrees from the
alphabet's memo.
"""

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from shirshov.algebra import (
    AlgebraConfig,
    Poly,
    _add,
    _int_multiply,
    _int_operator,
    apply_D,
    apply_operator,
    as_fractions,
    commutator,
    expansion,
    leading,
    lie_expand,
    multiply,
    subst_poly,
)
from shirshov.lyndon import (
    enumerate_alsw,
    is_alsw,
    is_alsw_hereditary,
    ls_factorization,
    shirshov_bracket,
    special_expand,
)
from shirshov.reference import _ideal_rows
from shirshov.rewriting import Ambiguity, ReductionStep
from shirshov.rota_baxter import _overtaken, drbl_nf, enumerate_basis
from shirshov.syntax import TermSyntaxError
from shirshov.words import (
    Alphabet,
    ArgHole,
    Context,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Prime,
    Word,
    context_at,
    default_letters,
    lex_cmp,
    occurrences,
    subword_runs,
    substitute,
)


def concat(*words: Word) -> Word:
    """Concatenation product of words."""
    return Word(tuple(p for w in words for p in w.primes))


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


def oracle_enumerate_alsw_by_degree(alphabet: Alphabet, max_degree: int, letters=None):
    """``lyndon.enumerate_alsw_by_degree`` by comparing every pair: each
    product v·w of smaller ALSWs is kept when ``lex_cmp`` puts v above w.
    It fills the alphabet's ALSW, split and hereditary caches as the
    package does."""
    hereditary_cache = None
    if letters is None:
        letters = default_letters(alphabet)
        hereditary_cache = alphabet._hereditary_cache
    alsw_cache = alphabet._alsw_cache
    split_cache = alphabet._split_cache
    alsw_by_deg: dict[int, list[Word]] = {}
    for d in range(1, max_degree + 1):
        found = dict.fromkeys(Word((p,)) for p in letters(d, alsw_by_deg))
        for k in range(1, d):
            for v in alsw_by_deg.get(k, ()):
                b = len(v.primes)
                for w in alsw_by_deg.get(d - k, ()):
                    if lex_cmp(v, w, alphabet) > 0:
                        vw = concat(v, w)
                        found[vw] = None
                        if split_cache.get(vw, b) >= b:
                            split_cache[vw] = b
        alsw_by_deg[d] = sorted(found, key=alphabet.key)
        for w in found:
            alsw_cache[w] = True
        if hereditary_cache is not None:
            hereditary_cache.update(dict.fromkeys(found, True))
    return alsw_by_deg


def underlying_word(t) -> Word:
    """Forget all bracketing, keeping operator arguments bracket-free too."""
    return Word(tuple(_underlying_primes(t)))


def _underlying_primes(t):
    if type(t) is NaPair:
        yield from _underlying_primes(t.left)
        yield from _underlying_primes(t.right)
        return
    head = t.head
    if type(head) is str:
        yield Prime(t.d_power, head)
    else:
        yield Prime(
            t.d_power,
            OpApp(head.name, tuple(underlying_word(a) for a in head.args)),
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
# Bracketings expanded afresh: isolating templates, section and Rota-Baxter rules.


class _Mark:
    """The slot of the isolated subword in a bracketing template."""

    def __repr__(self):
        return "<mark>"


MARK = _Mark()


def special_template(config: AlgebraConfig, ctx: Context, v: Word):
    """The isolating bracketing of ``ctx`` filled with ``v``, ``MARK`` at ``v``."""
    return _template(substitute(ctx, v), ctx, config.alphabet)


def _template(w: Word, ctx: Context, alphabet):
    core = ctx.core
    if type(core) is Hole:
        i = len(ctx.before)
        j = len(w.primes) - len(ctx.after)
        return _around(w.primes, i, j, alphabet, lambda: MARK)
    t = len(ctx.before)
    prime = w.primes[t]

    def letter():
        head = prime.head
        a = len(core.args_before)
        args = tuple(
            _template(arg, core.inner, alphabet)
            if idx == a
            else shirshov_bracket(arg, alphabet)
            for idx, arg in enumerate(head.args)
        )
        return NaLeaf(prime.d_power, NaOp(head.name, args))

    return _around(w.primes, t, t + 1, alphabet, letter)


def _around(primes, i, j, alphabet, inner):
    """Standard bracketing of ``primes`` with ``inner()`` at ``primes[i:j]``.

    Descend the standard splits while one side holds the slot; where a
    split falls inside the slot, the slot must start the node, and the
    rest of the node is bracketed onto it left-normed over its LS factors.
    """
    if i == 0 and j == len(primes):
        return inner()
    k = _split(primes, alphabet)
    if j <= k:
        return NaPair(
            _around(primes[:k], i, j, alphabet, inner),
            shirshov_bracket(Word(primes[k:]), alphabet),
        )
    if i >= k:
        return NaPair(
            shirshov_bracket(Word(primes[:k]), alphabet),
            _around(primes[k:], i - k, j - k, alphabet, inner),
        )
    assert i == 0, "isolated subword straddles a split away from its start"
    node = inner()
    for f in ls_factorization(Word(primes[j:]), alphabet):
        node = NaPair(node, shirshov_bracket(f, alphabet))
    return node


def _split(primes, alphabet) -> int:
    """Start of the longest proper suffix that is an ALSW, by rotations."""
    return next(
        k
        for k in range(1, len(primes))
        if _oracle_is_alsw(Word(primes[k:]), alphabet)
    )


def fill_mark(template, node):
    """``template`` with ``node`` in place of ``MARK``."""
    if template is MARK:
        return node
    if type(template) is NaPair:
        return NaPair(fill_mark(template.left, node), fill_mark(template.right, node))
    head = template.head
    if type(head) is str:
        return template
    return NaLeaf(
        template.d_power,
        NaOp(head.name, tuple(fill_mark(a, node) for a in head.args)),
    )


def expand_template(config: AlgebraConfig, template, core: Poly | None = None) -> Poly:
    """Expansion of ``template`` with ``core`` at ``MARK``, node by node.

    Without a mark this is ``algebra.lie_expand`` from scratch: bracket
    nodes become commutators, operator heads apply the operator to the
    expansions of their arguments, and the D power on a leaf lifts through
    the whole expansion via the weighted differential.  Nothing is memoised.
    """
    if template is MARK:
        return core
    if type(template) is NaPair:
        return commutator(
            expand_template(config, template.left, core),
            expand_template(config, template.right, core),
        )
    head = template.head
    if type(head) is str:
        return Poly.word(Word((Prime(template.d_power, head),)))
    inner = apply_operator(
        head.name, *(expand_template(config, a, core) for a in head.args)
    )
    return apply_D(config, inner, template.d_power)


def oracle_special_expand(config: AlgebraConfig, ctx: Context, v: Word, core: Poly) -> Poly:
    """``special_expand`` without its certificate, by ``expand_template``."""
    return expand_template(config, special_template(config, ctx, v), core)


def oracle_section_rule(config: AlgebraConfig, operator: str, u: Word) -> Poly:
    """g(u) = D(P([u])) − [u], expanding [u] afresh and applying P, then D."""
    bu = expand_template(config, shirshov_bracket(u, config.alphabet))
    return apply_D(config, apply_operator(operator, bu)) - bu


def oracle_rota_baxter_rule(
    config: AlgebraConfig, operator: str, u: Word, v: Word
) -> Poly:
    """f(u,v) = [P[u], P[v]] − P([u, P[v]]) − P([P[u], v]) − λP([u, v]).

    [u] and [v] are expanded afresh, and every operator and commutator is
    applied to ``Fraction`` polynomials.
    """
    bu = expand_template(config, shirshov_bracket(u, config.alphabet))
    bv = expand_template(config, shirshov_bracket(v, config.alphabet))
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
# Subword runs with a context builder per run.


def oracle_subword_runs(w: Word):
    """``words.subword_runs`` with a closure in place of each position.

    Yields (prime run, builder) in the same order; calling the builder
    makes the bare-hole context of that occurrence, one nesting level per
    closure.
    """
    primes = w.primes
    n = len(primes)
    for i in range(n):
        for j in range(i + 1, n + 1):

            def build(i=i, j=j):
                return Context(primes[:i], Hole(), primes[j:])

            yield primes[i:j], build
    for t, prime in enumerate(primes):
        head = prime.head
        if type(head) is OpApp:
            for a, arg in enumerate(head.args):
                for run, inner_build in oracle_subword_runs(arg):

                    def build(t=t, a=a, prime=prime, head=head, inner_build=inner_build):
                        return Context(
                            primes[:t],
                            ArgHole(
                                prime.d_power,
                                head.name,
                                head.args[:a],
                                inner_build(),
                                head.args[a + 1 :],
                            ),
                            primes[t + 1 :],
                        )

                    yield run, build


# ---------------------------------------------------------------------------
# The fast path's matcher by a scan of every subword run.


def oracle_find_match(sys, u: Word):
    """``rota_baxter._find_match`` by visiting every subword run.

    Walks all of ``oracle_subword_runs(u)`` and builds a context per hit
    through the run's own builder: the first single-prime section or
    completion hit returns at once, else the first descending P-pair, else
    (nonzero weight) the first run of primes that is the overtaking
    leading word of a lift of a section rule.

    ``_find_match`` now loops over ``words.subword_runs`` too, so this
    oracle's independence rests on its own closure walk
    (``oracle_subword_runs``, with a builder per run instead of a
    position and ``context_at``) and on testing every pattern on every
    run, where ``_find_match`` tests only the one its first prime allows.
    """
    alphabet = sys.config.alphabet
    key = alphabet.key
    weighted = sys.config.weight != 0
    pair_hit = None
    run_hit = None
    for run, build in oracle_subword_runs(u):
        n = len(run)
        if n == 1:
            p = run[0]
            if p.d_power >= 1 and type(p.head) is OpApp:
                w = p.head.args[0]
                k = p.d_power
                if not weighted or not _overtaken(k - 1, w.breadth):
                    return ("section", w), k - 1, build()
                if sys.completion_rule(w, k - 1) is not None:
                    return ("completion", w, k - 1), 0, build()
        elif pair_hit is None and n == 2:
            p, q = run
            if (
                p.d_power == 0
                and q.d_power == 0
                and type(p.head) is OpApp
                and type(q.head) is OpApp
            ):
                a, b = p.head.args[0], q.head.args[0]
                if key(a) > key(b):
                    pair_hit = (("rota-baxter", a, b), 0, build)
        if weighted and n >= 2 and run_hit is None:
            bound = min(p.d_power for p in run)
            for i in range(1, bound + 1):
                if not _overtaken(i, n):
                    continue
                w = Word(tuple(p.shifted(-i) for p in run))
                if is_alsw_hereditary(w, alphabet):
                    run_hit = (("section", w), i, build)
                    break
    if pair_hit is not None:
        return pair_hit[0], pair_hit[1], pair_hit[2]()
    if run_hit is not None:
        return run_hit[0], run_hit[1], run_hit[2]()
    return None


# ---------------------------------------------------------------------------
# Reduction in a seeded-random order.


def oracle_random_reduce(engine, p: Poly, rng, log=None) -> Poly:
    """``engine.reduce(p)`` in a seeded-random order of eliminations.

    Each step picks, with ``rng``, one of the reducible monomials in
    deg-lex order, and one of the lifted rules and contexts whose leading
    word occurs in it (not the one ``engine.match`` prefers), and
    subtracts the multiple ``subst_poly(ctx, core)``, scaled to cancel
    the monomial; ``ReductionStep``s are appended to ``log``.  A fixed
    choice of rule per word would give every order the same result by
    linearity, confluent or not; the random choice of rule is what makes
    agreement with ``reduce`` a confluence check.
    """
    engine._guard_degree(p)
    key = engine.config.alphabet.key
    working = p
    while True:
        reducible = sorted(
            (w for w in working.terms if engine.is_reducible(w)), key=key
        )
        if not reducible:
            return working
        u = rng.choice(reducible)
        entry, ctx = rng.choice(
            [
                (entry, context_at(u.primes, where))
                for run, where in subword_runs(u)
                for entry in engine.by_leading.get(run, ())
            ]
        )
        factor = working.terms[u] / entry.leading_coeff
        multiple = subst_poly(ctx, engine.core(entry.rule_index, entry.lift))
        multiple = multiple.scale(factor)
        assert multiple.terms[u] == working.terms[u], u
        working = working - multiple
        if log is not None:
            log.append(
                ReductionStep(entry.rule_index, entry.lift, ctx, factor, multiple)
            )


# ---------------------------------------------------------------------------
# Axioms on random basis elements.


@dataclass
class AxiomReport:
    """Result of random-sample axiom checking."""

    samples: int
    checked: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.passed

    def summary(self) -> str:
        if self.passed:
            return "pass: %d identity instances over %d sample pairs" % (
                self.checked,
                self.samples,
            )
        return "fail: %d of %d identity instances have nonzero residue" % (
            len(self.failures),
            self.checked,
        )


def verify_axioms(
    sys, samples: int = 100, max_degree: int = 3, seed: int = 0
) -> AxiomReport:
    """Check the defining identities on random pairs of basis elements.

    For each sampled pair (a, b) of ``enumerate_basis`` elements of the
    ``DrblSystem`` ``sys``: the Rota-Baxter identity
    [P(a)P(b)] − P([a P(b)]) − P([P(a) b]) − λP([a b]), the weighted
    Leibniz rule D([a b]) − [D(a) b] − [a D(b)] − λ[D(a) D(b)], and the
    section identity D(P(a)) − a must all normalize to zero by
    ``drbl_nf``.  Failures are reported with their inputs.
    """
    rng = random.Random(seed)
    config = sys.config
    lam = config.weight
    basis = enumerate_basis(sys, max_degree)
    pool = [t for d in sorted(basis) for t in basis[d]]
    if not pool:
        raise ValueError("empty basis pool")
    failures = []
    checked = 0
    for _ in range(samples):
        ta = rng.choice(pool)
        tb = rng.choice(pool)
        a = lie_expand(config, ta)
        b = lie_expand(config, tb)
        pa = apply_operator(sys.operator, a)
        pb = apply_operator(sys.operator, b)
        instances = (
            (
                "rota-baxter",
                commutator(pa, pb)
                - apply_operator(sys.operator, commutator(a, pb))
                - apply_operator(sys.operator, commutator(pa, b))
                - apply_operator(sys.operator, commutator(a, b)).scale(lam),
            ),
            (
                "leibniz",
                apply_D(config, commutator(a, b))
                - commutator(apply_D(config, a), b)
                - commutator(a, apply_D(config, b))
                - commutator(apply_D(config, a), apply_D(config, b)).scale(lam),
            ),
            ("section", apply_D(config, pa) - a),
        )
        for name, poly in instances:
            checked += 1
            if not poly:
                continue
            nf = drbl_nf(poly, sys)
            if not nf.is_zero():
                failures.append((name, ta, tb, nf))
    return AxiomReport(samples, checked, failures)


# ---------------------------------------------------------------------------
# Seeded Lie elements.


def random_combination(rng, config: AlgebraConfig, words, terms: int = 3) -> Poly:
    """A rational combination of the standard bracketings of one to
    ``terms`` distinct words drawn from ``words``, expanded."""
    alphabet = config.alphabet
    out = Poly.zero()
    for u in rng.sample(words, rng.randint(1, min(terms, len(words)))):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        out = out + lie_expand(config, shirshov_bracket(u, alphabet)).scale(c)
    return out


def congruence_failures(
    sys, max_degree: int, samples: int = 120, seed: int = 3
) -> dict:
    """Failures of N(P(N(x))) = N(P(x)), N(D(N(x))) = N(D(x)) and
    N([N(x), N(y)]) = N([x, N(y)]) for N = ``drbl_nf`` on the one system
    ``sys``, each over ``samples`` seeded ``random_combination`` draws of
    degree at most ``max_degree``: a normal form of the quotient must
    respect its operations, and the check reads no rule.  Returns the
    failure counts by operation, keyed "P", "D" and "bracket"."""
    config = sys.config
    rng = random.Random(seed)
    words = enumerate_alsw(config, max_degree)

    def nf(p):
        return drbl_nf(p, sys)

    def reduced(p):
        return nf(p).as_poly(config)

    # D raises a word's degree by at most one per top-level prime
    under_p = [u for u in words if u.degree < max_degree]
    under_d = [
        u
        for u in words
        if u.degree + (u.breadth if config.weight else 1) <= max_degree
    ]
    failures = {"P": 0, "D": 0, "bracket": 0}
    for _ in range(samples):
        x = random_combination(rng, config, under_p)
        if nf(apply_operator("P", reduced(x))) != nf(apply_operator("P", x)):
            failures["P"] += 1
        x = random_combination(rng, config, under_d)
        if nf(apply_D(config, reduced(x))) != nf(apply_D(config, x)):
            failures["D"] += 1
        x = random_combination(rng, config, under_p)
        room = max_degree - x.max_degree()
        y = random_combination(rng, config, [u for u in words if u.degree <= room])
        y = reduced(y)
        if nf(commutator(reduced(x), y)) != nf(commutator(x, y)):
            failures["bracket"] += 1
    return failures


def nf_corpus(sys, max_degree: int, count: int, seed: int) -> list[Poly]:
    """The benchmark's nf corpus recipe, as polynomials of degree at most
    ``max_degree`` over the ``DrblSystem`` ``sys``.

    15% are instances of the Rota-Baxter identity
    [P(a) P(b)] − P([a P(b)]) − P([P(a) b]) − λP([a b]) and 15% of the
    section identity D(P(a)) − a, over random basis elements a, b; the
    rest are ``random_combination``s of up to four ALSW words.  The shares
    are exact and only the order is drawn.
    """
    rng = random.Random(seed)
    config = sys.config
    op = sys.operator
    basis = enumerate_basis(sys, max_degree - 2)
    small = [(d, lie_expand(config, t)) for d in sorted(basis) for t in basis[d]]
    words = enumerate_alsw(config, max_degree)
    kinds = ["rota-baxter"] * (count * 15 // 100) + ["section"] * (count * 15 // 100)
    kinds += ["combination"] * (count - len(kinds))
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "rota-baxter":
            da, a = rng.choice([e for e in small if e[0] <= max_degree - 3])
            _, b = rng.choice([e for e in small if e[0] <= max_degree - 2 - da])
            pa = apply_operator(op, a)
            pb = apply_operator(op, b)
            out.append(
                commutator(pa, pb)
                - apply_operator(op, commutator(a, pb))
                - apply_operator(op, commutator(pa, b))
                - apply_operator(op, commutator(a, b)).scale(config.weight)
            )
        elif kind == "section":
            _, a = rng.choice(small)
            out.append(apply_D(config, apply_operator(op, a)) - a)
        else:
            out.append(random_combination(rng, config, words, 4))
    return out


# ---------------------------------------------------------------------------
# The ideal rows of the quotient oracle.


def oracle_ideal_rows(config: AlgebraConfig, rules, max_degree: int, letters=None):
    """The ideal rows that ``oracle_quotient_dim`` eliminates, as a list.

    One row per rule, D-lift whose leading fits the bound, and occurrence
    of that leading inside an ALSW word: the isolating bracketing filled
    with the lifted rule.  Rows come lift by lift (rules in order, lifts
    upward), then by ALSW word, then by occurrence in ``occurrences``
    order.  ``letters`` is as for
    ``reference.oracle_quotient_dim``.
    """
    alsws = enumerate_alsw(config, max_degree, letters)
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
    alsws = enumerate_alsw(config, max_degree, letters)
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


# ---------------------------------------------------------------------------
# The term parser with token triples and Fraction sums.


_ORACLE_TOKEN = re.compile(
    r"""
    \s*
    (?:
        (?P<number>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[\^()\[\]*+,/-])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def oracle_tokenize(s: str):
    """Tokens as (kind, text, position); kinds: number, ident, sym.

    The last token is the sentinel ``(None, "", len(s))``.
    """
    out = []
    for m in _ORACLE_TOKEN.finditer(s):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise TermSyntaxError("unexpected character %r" % s[pos], pos)
        out.append((kind, m.group(kind), pos))
    out.append((None, "", len(s)))
    return out


class _OracleParser:
    def __init__(self, tokens, alphabet: Alphabet):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0

    # -- token plumbing ----------------------------------------------------
    # No ident or number text equals a symbol, so symbols compare by text.

    def expect_sym(self, text):
        _, value, pos = self.tokens[self.i]
        if value != text:
            raise TermSyntaxError(
                "expected %r, found %r" % (text, value or "end of input"), pos
            )
        self.i += 1

    def expect_end(self):
        kind, value, pos = self.tokens[self.i]
        if kind is not None:
            raise TermSyntaxError("unexpected trailing input %r" % value, pos)

    def at_sym(self, text) -> bool:
        return self.tokens[self.i][1] == text

    def _terms(self, t) -> dict:
        """``t``'s term dict; a bracketed word's is the memo's own, which
        must not be mutated."""
        return t if type(t) is dict else expansion(self.alphabet, t)

    # -- grammar -------------------------------------------------------------
    # Each production returns the bracketed word itself when its text is
    # exactly one, else a fresh term dict with int or Fraction coefficients.

    def _sign(self):
        """Read the sign before a monomial: 1, -1, or None when there is none."""
        value = self.tokens[self.i][1]
        if value != "+" and value != "-":
            return None
        self.i += 1
        return 1 if value == "+" else -1

    def parse_poly(self):
        coeff, t = self.parse_mono(self._sign())
        if coeff is None and self.tokens[self.i][1] not in ("+", "-"):
            return t
        total: dict = {}
        while True:
            if coeff is None or coeff == 1:
                _add(total, self._terms(t).items())
            elif coeff:
                _add(total, ((w, coeff * c) for w, c in self._terms(t).items()))
            sign = self._sign()
            if sign is None:
                return total
            coeff, t = self.parse_mono(sign)

    def parse_mono(self, sign):
        """(coefficient, value) of a monomial; the coefficient is None when
        the text has neither sign nor number, and 0 makes the value {}."""
        coeff = sign
        if self.tokens[self.i][0] == "number":
            rat = self.parse_rat()
            coeff = rat if sign is None else sign * rat
        if not self._at_factor():
            if coeff == 0:  # a bare rational must be zero
                return 0, {}
            _, value, pos = self.tokens[self.i]
            raise TermSyntaxError(
                "expected a factor, found %r" % (value or "end of input"), pos
            )
        t = self.parse_factor()
        while True:
            if self.at_sym("*"):
                self.i += 1
                if not self._at_factor():
                    _, value, pos = self.tokens[self.i]
                    raise TermSyntaxError(
                        "expected a factor after '*', found %r"
                        % (value or "end of input"),
                        pos,
                    )
            elif not self._at_factor():
                break
            t = _int_multiply(self._terms(t), self._terms(self.parse_factor()))
        return coeff, t

    def parse_rat(self):
        """An ``int``, or a ``Fraction`` when a denominator is given."""
        kind, value, pos = self.tokens[self.i]
        if kind != "number":
            raise TermSyntaxError("expected a number", pos)
        self.i += 1
        num = int(value)
        if self.at_sym("/"):
            self.i += 1
            kind, value, pos = self.tokens[self.i]
            if kind != "number":
                raise TermSyntaxError("expected a denominator", pos)
            self.i += 1
            den = int(value)
            if den == 0:
                raise TermSyntaxError("zero denominator", pos)
            return Fraction(num, den)
        return num

    def _at_factor(self) -> bool:
        kind, value, _ = self.tokens[self.i]
        return kind == "ident" or value == "["

    def parse_factor(self):
        if self.at_sym("["):
            return self.parse_naword()
        return self.parse_prime(self.parse_poly)

    def parse_naword(self):
        if self.at_sym("["):
            self.i += 1
            left = self.parse_naword()
            right = self.parse_naword()
            self.expect_sym("]")
            return NaPair(left, right)
        return self.parse_prime(self.parse_naword)

    def parse_prime(self, parse_arg):
        """A (possibly D-wrapped) generator or operator application.

        ``parse_arg`` reads the operator arguments: ``parse_naword`` inside
        brackets, ``parse_poly`` outside.
        """
        kind, value, pos = self.tokens[self.i]
        if kind != "ident":
            raise TermSyntaxError(
                "expected a symbol, found %r" % (value or "end of input"), pos
            )
        if value == "D" and self.tokens[self.i + 1][1] in ("^", "("):
            self.i += 1
            power = 1
            if self.at_sym("^"):
                self.i += 1
                nk, nv, npos = self.tokens[self.i]
                if nk != "number":
                    raise TermSyntaxError("expected a power", npos)
                self.i += 1
                power = int(nv)
            self.expect_sym("(")
            inner = self.parse_prime(parse_arg)
            self.expect_sym(")")
            if type(inner) is not dict:
                return NaLeaf(inner.d_power + power, inner.head)
            # an operator application is a sum of one-prime words
            return {Word((w.primes[0].shifted(power),)): c for w, c in inner.items()}
        self.i += 1
        alphabet = self.alphabet
        if alphabet.is_generator(value):
            return NaLeaf(0, value)
        try:
            arity = alphabet.arity(value)
        except KeyError:
            raise TermSyntaxError("unknown symbol %r" % value, pos) from None
        self.expect_sym("(")
        args = [parse_arg()]
        while self.at_sym(","):
            self.i += 1
            args.append(parse_arg())
        self.expect_sym(")")
        if len(args) != arity:
            raise TermSyntaxError(
                "operator %r expects %d argument(s), got %d"
                % (value, arity, len(args)),
                pos,
            )
        if any(type(a) is dict for a in args):
            return _int_operator(value, [self._terms(a) for a in args], 0)
        return NaLeaf(0, NaOp(value, tuple(args)))


def oracle_parse_term(s: str, alphabet: Alphabet):
    """``syntax.parse_term`` by the token-triple parser: a bracketed word
    when ``s`` is exactly one, else a Poly; the same errors and positions."""
    parser = _OracleParser(oracle_tokenize(s), alphabet)
    t = parser.parse_poly()
    parser.expect_end()
    return Poly(as_fractions(t)) if type(t) is dict else t
