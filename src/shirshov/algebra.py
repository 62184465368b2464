"""Exact-arithmetic polynomials over words, with product, differential and
Lie-bracket expansion.

A polynomial is a mapping from ``Word`` to nonzero coefficient; the zero
polynomial has no terms.  ``Poly`` wraps such a term dict with
``fractions.Fraction`` coefficients.  All polynomial arithmetic is one
term-dict kernel: ``_add`` and ``_subtract`` sum (word, coefficient) pairs
into a dict in place, dropping zeros, and ``_int_multiply``,
``_int_commutator`` and ``_int_operator`` are the concatenation product,
the commutator and operator application.  The kernel touches coefficients
only with ``*``, ``+`` and ``-``, so ``Fraction``s stay ``Fraction``s and
``int``s stay ``int``s.  ``Poly``'s ``+`` and ``-``, ``multiply``,
``commutator`` and ``apply_operator`` run it on ``Fraction``s; the
alphabet's expansion memo, special bracketings and Lie reduction run it on
``int``s while the coefficients are integral.  ``narrow``, ``divide`` and
``as_fractions`` move between the two and never make a float.

The differential satisfies the weighted Leibniz law

    D(uv) = D(u) v + u D(v) + weight * D(u) D(v)

It is *not* assumed to distribute into operator arguments: ``D`` applied
to a one-prime word just increments that prime's D counter.  On a word of
breadth n the law expands in closed form: summing over nonempty subsets T
of positions, the term bumps the D power at each position in T and carries
coefficient weight^(|T|-1).  ``apply_D`` uses that closed form, with no
product at |T| = 1; the test suite checks it against the recursive rule.

``d_power_leading`` predicts the deg-lex leading word and coefficient of
``D^i(u)`` without expanding: with weight zero only the first prime gets
hit (coefficient 1); otherwise every prime gets hit simultaneously and the
coefficient is weight^((n-1)*i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .words import (
    Alphabet,
    Context,
    NaPair,
    OpApp,
    Prime,
    Word,
    substitute,
)

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

# ``Fraction(c)``, one shared object per value.  Expansion coefficients
# take few distinct values, so polynomials built from the memo share them.
as_fraction = lru_cache(maxsize=1024)(Fraction)


@dataclass(frozen=True)
class AlgebraConfig:
    """Alphabet plus the weight constant of the differential."""

    alphabet: Alphabet
    weight: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))


class Poly:
    """Sparse polynomial: dict from Word to nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = terms

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def word(cls, w: Word, c=ONE) -> "Poly":
        c = Fraction(c)
        return cls({w: c}) if c else cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is Poly and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _add(terms, other.terms.items())
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _subtract(terms, other.terms.items())
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly({})
        return Poly({w: c * t for w, t in self.terms.items()})

    def __mul__(self, other):
        if type(other) is Poly:
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def max_degree(self) -> int:
        """Largest monomial degree present; -1 for the zero polynomial."""
        return max((w.degree for w in self.terms), default=-1)

    def __repr__(self):
        from .syntax import format_poly

        return format_poly(self)


def multiply(p: Poly, q: Poly) -> Poly:
    """Concatenation product, extended bilinearly."""
    return Poly(_int_multiply(p.terms, q.terms))


def commutator(p: Poly, q: Poly) -> Poly:
    """[p, q] = pq - qp."""
    return Poly(_int_commutator(p.terms, q.terms))


def apply_operator(name: str, *args: Poly) -> Poly:
    """Apply an operator to one or more polynomial arguments, multilinearly."""
    return Poly(_int_operator(name, [a.terms for a in args], 0))


def apply_D(config: AlgebraConfig, p: Poly, times: int = 1) -> Poly:
    """The weighted differential applied ``times`` times, with the weight
    narrowed, so ``int`` coefficients stay ``int``s at an integral weight."""
    for _ in range(times):
        out: dict[Word, Fraction] = {}
        _add(out, _d_terms(p.terms, narrow(config.weight)))
        p = Poly(out)
    return p


def _d_terms(terms: dict, lam):
    """(word, coefficient) pairs of D on each term, by the closed form."""
    for u, c in terms.items():
        primes = u.primes
        n = len(primes)
        if n == 1:
            yield Word((primes[0].shifted(1),)), c
        elif lam == 0:
            for i in range(n):
                yield Word(primes[:i] + (primes[i].shifted(1),) + primes[i + 1 :]), c
        else:
            coeff = c  # c·λ^(size−1), so a single hit keeps c as it is
            for size in range(1, n + 1):
                for hit in combinations(range(n), size):
                    w = tuple(q.shifted(1) if i in hit else q for i, q in enumerate(primes))
                    yield Word(w), coeff
                coeff *= lam


def narrow(c):
    """An integral ``Fraction`` as an ``int``; anything else unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def divide(a, b):
    """``a / b`` exactly and never a float: an ``int`` when ``b`` divides
    the int ``a``, else a ``Fraction``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def as_fractions(terms: dict) -> dict:
    """``terms`` with every coefficient a ``Fraction``, ints via ``as_fraction``."""
    return {
        w: c if type(c) is Fraction else as_fraction(c) for w, c in terms.items()
    }


def leading(config: AlgebraConfig, p: Poly) -> tuple[Word, Fraction]:
    """Deg-lex greatest monomial and its coefficient; p must be nonzero."""
    if not p.terms:
        raise ValueError("the zero polynomial has no leading term")
    key = config.alphabet.key
    w = max(p.terms, key=key)
    return w, p.terms[w]


def d_power_leading(config: AlgebraConfig, u: Word, i: int) -> tuple[Word, Fraction]:
    """Leading term of ``D^i(u)`` without expanding the polynomial."""
    if i == 0:
        return u, ONE
    primes = u.primes
    n = len(primes)
    if config.weight == 0:
        w = Word((primes[0].shifted(i),) + primes[1:])
        return w, ONE
    w = Word(tuple(p.shifted(i) for p in primes))
    e = (n - 1) * i
    return w, config.weight**e if e else ONE


def lie_expand(config: AlgebraConfig, t) -> Poly:
    """Expand a bracketed word into the associative algebra.

    Bracket nodes become commutators; operator heads apply the operator to
    the expansions of their arguments; the D power on a leaf shifts the
    one-prime words that result.  The expansion does not depend on the
    weight (D only ever meets one-prime words here), so each node is
    expanded once per alphabet: ``Alphabet`` keeps the memo from bracketed
    node to integer-coefficient expansion.  Integers, not ``Fraction``s,
    keep the memo small.  The result is a fresh ``Poly`` with ``Fraction``
    coefficients over the memo's own ``Word`` keys, so a caller may mutate
    it freely.
    """
    return Poly({w: as_fraction(c) for w, c in expansion(config.alphabet, t).items()})


def expansion(alphabet: Alphabet, t) -> dict[Word, int]:
    """The memoised integer expansion of ``t``; callers must not mutate it.

    Bracketed words are interned, so equal trees are one node and the memo
    holds each bracketing once, keyed by the node itself.
    """
    memo = alphabet._expansions
    got = memo.get(t)
    if got is None:
        if type(t) is NaPair:
            left, right = expansion(alphabet, t.left), expansion(alphabet, t.right)
            got = _int_commutator(left, right)
        elif type(t.head) is str:
            got = {Word((Prime(t.d_power, t.head),)): 1}
        else:
            args = [expansion(alphabet, a) for a in t.head.args]
            got = _int_operator(t.head.name, args, t.d_power)
        memo[t] = got
    return got


def _add(terms: dict, items) -> None:
    """Add (word, coefficient) pairs into ``terms`` in place, dropping zeros."""
    for w, c in items:
        nc = terms.get(w, 0) + c
        if nc:
            terms[w] = nc
        else:
            terms.pop(w, None)


def _subtract(terms: dict, items) -> None:
    """Subtract (word, coefficient) pairs from ``terms`` in place, dropping zeros."""
    for w, c in items:
        nc = terms.get(w, 0) - c
        if nc:
            terms[w] = nc
        else:
            terms.pop(w, None)


def _int_commutator(p: dict, q: dict) -> dict:
    """The commutator ``pq - qp`` of two term dicts, as a fresh dict.

    Its terms are those of ``pq`` in product order, then the new words of
    ``qp``.  Coefficients may be ``int``s or ``Fraction``s.
    """
    out = _int_multiply(p, q)
    _subtract(out, _int_multiply(q, p).items())
    return out


def _int_multiply(p: dict, q: dict) -> dict:
    """The concatenation product of two term dicts, as a fresh dict."""
    out: dict[Word, int] = {}
    for u, a in p.items():
        up = u.primes
        for v, b in q.items():
            w = Word(up + v.primes)
            nc = out.get(w, 0) + a * b
            if nc:
                out[w] = nc
            else:
                del out[w]
    return out


def _int_operator(name: str, args: list, d_power: int) -> dict:
    """``D^d_power`` of the operator applied to term dicts, multilinearly.

    Terms come in the order of the argument tuples (the product of the
    arguments' terms).  Distinct tuples give distinct one-prime words, so
    nothing accumulates and D only shifts each word.  Coefficients may be
    ``int``s or ``Fraction``s.
    """
    out: dict[Word, int] = {}
    for chosen in product(*(a.items() for a in args)):
        c = 1
        for _, k in chosen:
            c *= k
        out[Word((Prime(d_power, OpApp(name, tuple(w for w, _ in chosen))),))] = c
    return out


def subst_poly(ctx: Context, p: Poly) -> Poly:
    """Substitute a polynomial into a context, linearly.

    The hole is bare, so filling it is one-to-one on words and no terms
    merge.  To put ``D^k`` around ``p``, substitute its lift:
    ``subst_poly(ctx, apply_D(config, p, k))``.
    """
    return Poly({substitute(ctx, w): c for w, c in p.terms.items()})
