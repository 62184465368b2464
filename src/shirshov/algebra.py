"""Exact-arithmetic polynomials over words, with product, differential and
Lie-bracket expansion.

Coefficients are ``fractions.Fraction``.  A polynomial is a mapping from
``Word`` to nonzero coefficient; the zero polynomial has no terms.

The differential satisfies the weighted Leibniz law

    D(uv) = D(u) v + u D(v) + weight * D(u) D(v)

and distributes into operator arguments is *not* assumed: ``D`` applied to
a one-prime word just increments that prime's D counter.  On a word of
breadth n the law expands in closed form: summing over nonempty subsets T
of positions, the term bumps the D power at each position in T and carries
coefficient weight^(|T|-1).  ``apply_D`` uses that closed form; the
recursive two-factor rule is kept in :mod:`shirshov.reference` as an
independent oracle.

``d_power_leading`` predicts the deg-lex leading word and coefficient of
``D^i(u)`` without expanding: with weight zero only the first prime gets
hit (coefficient 1); otherwise every prime gets hit simultaneously and the
coefficient is weight^((n-1)*i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .words import (
    Alphabet,
    Context,
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Prime,
    Word,
    substitute,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
        for w, c in other.terms.items():
            nc = terms.get(w, ZERO) + c
            if nc:
                terms[w] = nc
            else:
                terms.pop(w, None)
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            nc = terms.get(w, ZERO) - c
            if nc:
                terms[w] = nc
            else:
                terms.pop(w, None)
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
    terms: dict[Word, Fraction] = {}
    for u, a in p.terms.items():
        for v, b in q.terms.items():
            w = Word(u.primes + v.primes)
            nc = terms.get(w, ZERO) + a * b
            if nc:
                terms[w] = nc
            else:
                del terms[w]
    return Poly(terms)


def commutator(p: Poly, q: Poly) -> Poly:
    """[p, q] = pq - qp."""
    return multiply(p, q) - multiply(q, p)


def apply_operator(name: str, *args: Poly) -> Poly:
    """Apply an operator to polynomial arguments, multilinearly."""
    out: dict[Word, Fraction] = {}
    _op_expand(name, args, 0, (), ONE, out)
    return Poly(out)


def _op_expand(name, args, i, chosen, coeff, out):
    if i == len(args):
        w = Word((Prime(0, OpApp(name, chosen)),))
        nc = out.get(w, ZERO) + coeff
        if nc:
            out[w] = nc
        else:
            del out[w]
        return
    for w, c in args[i].terms.items():
        _op_expand(name, args, i + 1, chosen + (w,), coeff * c, out)


def apply_D(config: AlgebraConfig, p: Poly, times: int = 1) -> Poly:
    """The weighted differential applied ``times`` times."""
    for _ in range(times):
        p = _apply_D_once(config, p)
    return p


def _apply_D_once(config: AlgebraConfig, p: Poly) -> Poly:
    lam = config.weight
    out: dict[Word, Fraction] = {}
    for u, c in p.terms.items():
        primes = u.primes
        n = len(primes)
        if n == 1:
            _accumulate(out, Word((primes[0].shifted(1),)), c)
        elif lam == 0:
            for i in range(n):
                w = Word(primes[:i] + (primes[i].shifted(1),) + primes[i + 1 :])
                _accumulate(out, w, c)
        else:
            positions = range(n)
            for size in range(1, n + 1):
                coeff = c * lam ** (size - 1)
                for subset in combinations(positions, size):
                    marked = set(subset)
                    w = Word(
                        tuple(
                            q.shifted(1) if i in marked else q
                            for i, q in enumerate(primes)
                        )
                    )
                    _accumulate(out, w, coeff)
    return Poly(out)


def _accumulate(out, w, c):
    nc = out.get(w, ZERO) + c
    if nc:
        out[w] = nc
    else:
        del out[w]


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
    return w, config.weight ** ((n - 1) * i)


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
    return Poly({w: Fraction(c) for w, c in expansion(config.alphabet, t).items()})


def expansion(alphabet: Alphabet, t) -> dict[Word, int]:
    """The memoised integer expansion of ``t``; callers must not mutate it."""
    return _memo_entry(alphabet._expansions, t)[1]


def _memo_entry(memo: dict, t) -> tuple:
    """(stored node, expansion) of ``t``, filling the memo on a miss.

    A node is stored with its children replaced by their stored nodes, so
    the memo holds each bracketing once however many equal trees callers
    pass (every parsed expression is a new tree).
    """
    got = memo.get(t)
    if got is None:
        if type(t) is NaPair:
            left, lp = _memo_entry(memo, t.left)
            right, rp = _memo_entry(memo, t.right)
            if left is not t.left or right is not t.right:
                t = NaPair(left, right)
            got = (t, _int_commutator(lp, rp))
        elif type(t.head) is str:
            got = (t, {Word((Prime(t.d_power, t.head),)): 1})
        else:
            head = t.head
            args = [_memo_entry(memo, a) for a in head.args]
            nodes = tuple(a for a, _ in args)
            if any(a is not b for a, b in zip(nodes, head.args)):
                t = NaLeaf(t.d_power, NaOp(head.name, nodes))
            got = (t, _int_operator(head.name, [e for _, e in args], t.d_power))
        memo[t] = got
    return got


def _int_commutator(p: dict, q: dict) -> dict:
    """``commutator`` over integer dicts, with the same term order."""
    out = _int_multiply(p, q)
    for w, c in _int_multiply(q, p).items():
        nc = out.get(w, 0) - c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def _int_multiply(p: dict, q: dict) -> dict:
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
    """``D^d_power`` of ``apply_operator`` over integer dicts, same order.

    Distinct argument tuples give distinct one-prime words, so nothing
    accumulates and D only shifts each word.
    """
    out: dict[Word, int] = {}
    for chosen in product(*(a.items() for a in args)):
        c = 1
        for _, k in chosen:
            c *= k
        out[Word((Prime(d_power, OpApp(name, tuple(w for w, _ in chosen))),))] = c
    return out


def subst_poly(config: AlgebraConfig, ctx: Context, p: Poly) -> Poly:
    """Substitute a polynomial into a context, linearly.

    A D-wrapped hole means the substituted element is differentiated that
    many times before splicing, so the wrapping is applied via ``apply_D``
    on the bare context.
    """
    k = ctx.hole_d_power
    if k:
        ctx = ctx.bare()
        p = apply_D(config, p, k)
    out: dict[Word, Fraction] = {}
    for w, c in p.terms.items():
        _accumulate(out, substitute(ctx, w), c)
    return Poly(out)
