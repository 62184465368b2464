"""Lyndon-Shirshov words over graded prime alphabets.

A word is an associative Lyndon-Shirshov word (ALSW) when it is lex-greater
than every proper rotation (with the convention that a proper prefix is
greater than its extensions).  The hereditary variant additionally demands
that every operator argument, at any depth, is again an ALSW; hereditary
words are exactly the enumerated language, since letters are built from
previously enumerated words.

``shirshov_bracket`` produces the unique standard bracketing: split off the
longest proper ALSW suffix and recurse; letters bracket their operator
arguments in place.  ``ls_factorization`` is the unique factorization of an
arbitrary word into a lex-non-decreasing sequence of ALSW factors, computed
greedily by longest ALSW prefix.

``special_bracket`` isolates a designated ALSW subword ``v`` of an ALSW
``w``: descending the standard bracketing of ``w``, the minimal subtree
containing ``v`` has ``v`` as a prefix; that subtree is rebracketed as a
left-normed chain over the LS factors of the tail.  The expansion of the
result is ``w`` plus deg-lex smaller monomials — asserted on construction,
so a returned value always carries a verified certificate.  The same
template expands with an arbitrary polynomial in place of ``v``, which is
how bracketed rule multiples are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraConfig,
    Poly,
    apply_D,
    apply_operator,
    commutator,
    leading,
)
from .words import (
    Alphabet,
    Context,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Prime,
    Word,
    concat,
    lex_cmp,
    lex_cmp_primes,
    substitute,
)


def is_alsw(u: Word, alphabet: Alphabet) -> bool:
    """True iff every proper split u = ab satisfies ab > ba in lex order."""
    cache = alphabet._alsw_cache
    hit = cache.get(u)
    if hit is not None:
        return hit
    primes = u.primes
    n = len(primes)
    result = True
    for k in range(1, n):
        if lex_cmp_primes(primes, primes[k:] + primes[:k], alphabet) <= 0:
            result = False
            break
    cache[u] = result
    return result


def is_alsw_hereditary(u: Word, alphabet: Alphabet) -> bool:
    """ALSW at top level with every operator argument hereditarily ALSW."""
    if not is_alsw(u, alphabet):
        return False
    for p in u.primes:
        head = p.head
        if type(head) is OpApp:
            for a in head.args:
                if not is_alsw_hereditary(a, alphabet):
                    return False
    return True


def _standard_split(primes, alphabet: Alphabet) -> int:
    """Split index of the longest proper ALSW suffix (smallest k ≥ 1)."""
    n = len(primes)
    for k in range(1, n):
        if is_alsw(Word(primes[k:]), alphabet):
            return k
    raise ValueError("no proper ALSW suffix; input is a single letter")


def shirshov_bracket(u: Word, alphabet: Alphabet):
    """The standard bracketing of an ALSW.

    Letters become leaves with their operator arguments bracketed in turn;
    longer words split off their longest proper ALSW suffix.
    """
    cache = alphabet._bracket_cache
    hit = cache.get(u)
    if hit is not None:
        return hit
    primes = u.primes
    if len(primes) == 1:
        p = primes[0]
        head = p.head
        if type(head) is str:
            out = NaLeaf(p.d_power, head)
        else:
            out = NaLeaf(
                p.d_power,
                NaOp(
                    head.name,
                    tuple(shirshov_bracket(a, alphabet) for a in head.args),
                ),
            )
    else:
        if not is_alsw(u, alphabet):
            raise ValueError("not a Lyndon-Shirshov word: %r" % (u,))
        k = _standard_split(primes, alphabet)
        out = NaPair(
            shirshov_bracket(Word(primes[:k]), alphabet),
            shirshov_bracket(Word(primes[k:]), alphabet),
        )
    cache[u] = out
    return out


def ls_factorization(u: Word, alphabet: Alphabet) -> list[Word]:
    """Unique factorization into lex-non-decreasing ALSW factors.

    Greedy: each factor is the longest ALSW prefix of what remains.
    """
    primes = u.primes
    n = len(primes)
    out = []
    i = 0
    while i < n:
        j = n
        while j > i + 1 and not is_alsw(Word(primes[i:j]), alphabet):
            j -= 1
        out.append(Word(primes[i:j]))
        i = j
    for a, b in zip(out, out[1:]):
        if lex_cmp(a, b, alphabet) > 0:
            raise AssertionError("factorization not non-decreasing: %r" % (u,))
    return out


# ---------------------------------------------------------------------------
# Enumeration.


def default_letters(alphabet: Alphabet):
    """Letter maker for the full differential operated language."""

    def letters(d: int, alsw_by_deg):
        out = [Prime(d - 1, g) for g in alphabet.generators]
        for name, arity in alphabet.operators:
            for dp in range(0, d - 1):
                budget = d - 1 - dp
                for args in _alsw_arg_tuples(alsw_by_deg, arity, budget):
                    out.append(Prime(dp, OpApp(name, args)))
        return out

    return letters


def _alsw_arg_tuples(alsw_by_deg, arity, budget):
    if arity == 1:
        return [(w,) for w in alsw_by_deg.get(budget, ())]
    out = []
    for first_deg in range(1, budget - arity + 2):
        for w in alsw_by_deg.get(first_deg, ()):
            for rest in _alsw_arg_tuples(alsw_by_deg, arity - 1, budget - first_deg):
                out.append((w,) + rest)
    return out


def enumerate_alsw_by_degree(
    alphabet: Alphabet, max_degree: int, letters=None
) -> dict[int, list[Word]]:
    """ALSWs grouped by degree, deg-lex sorted within each degree.

    Letters of degree d are generated from words of smaller degree, so a
    single pass by degree reaches the full stratified language.  Words of
    breadth ≥ 2 arise as products u·v of smaller ALSWs with u > v in lex
    order; every such product is an ALSW and every ALSW of breadth ≥ 2 is
    one, via its standard split.
    """
    if letters is None:
        letters = default_letters(alphabet)
    alsw_by_deg: dict[int, list[Word]] = {}
    for d in range(1, max_degree + 1):
        found = {Word((p,)) for p in letters(d, alsw_by_deg)}
        for k in range(1, d):
            for v in alsw_by_deg.get(k, ()):
                for w in alsw_by_deg.get(d - k, ()):
                    if lex_cmp(v, w, alphabet) > 0:
                        found.add(concat(v, w))
        alsw_by_deg[d] = sorted(found, key=alphabet.key)
    return alsw_by_deg


def enumerate_alsw(config: AlgebraConfig, max_degree: int) -> list[Word]:
    """All ALSWs of the language up to ``max_degree``, deg-lex sorted."""
    by_deg = enumerate_alsw_by_degree(config.alphabet, max_degree)
    out: list[Word] = []
    for d in range(1, max_degree + 1):
        out.extend(by_deg.get(d, ()))
    return out


# ---------------------------------------------------------------------------
# Special bracketing.


class _MarkType:
    __slots__ = ()

    def __repr__(self):
        return "<mark>"


_MARK = _MarkType()


@dataclass(frozen=True)
class SpecialBracket:
    """A bracketing of ``word`` isolating a designated subword.

    ``bracketing`` carries the standard bracketing of the subword at the
    marked slot; ``expansion`` is its Lie expansion, certified to have
    leading term (``word``, 1).
    """

    word: Word
    bracketing: object
    expansion: Poly


def _build_template(w: Word, ctx: Context, alphabet: Alphabet):
    """Bracketing of ``w`` with a mark at the subword the context isolates."""
    core = ctx.core
    if type(core) is Hole:
        if core.d_power != 0:
            raise ValueError("special bracketing needs a bare context")
        i = len(ctx.before)
        j = len(w.primes) - len(ctx.after)
        return _descend(w.primes, i, j, alphabet, lambda: _MARK)
    t = len(ctx.before)
    prime = w.primes[t]

    def build_letter():
        head = prime.head
        a = len(core.args_before)
        arg_word = head.args[a]
        inner = _build_template(arg_word, core.inner, alphabet)
        args = tuple(
            inner
            if idx == a
            else shirshov_bracket(arg, alphabet)
            for idx, arg in enumerate(head.args)
        )
        return NaLeaf(prime.d_power, NaOp(head.name, args))

    return _descend(w.primes, t, t + 1, alphabet, build_letter)


def _descend(primes, i, j, alphabet: Alphabet, core_builder):
    n = len(primes)
    if i == 0 and j == n:
        return core_builder()
    k = _standard_split(primes, alphabet)
    if j <= k:
        return NaPair(
            _descend(primes[:k], i, j, alphabet, core_builder),
            shirshov_bracket(Word(primes[k:]), alphabet),
        )
    if i >= k:
        return NaPair(
            shirshov_bracket(Word(primes[:k]), alphabet),
            _descend(primes[k:], i - k, j - k, alphabet, core_builder),
        )
    if i == 0:
        node = core_builder()
        for f in ls_factorization(Word(primes[j:]), alphabet):
            node = NaPair(node, shirshov_bracket(f, alphabet))
        return node
    raise RuntimeError(
        "isolated subword straddles a standard split away from its start"
    )


def _fill_mark(template, value):
    if template is _MARK:
        return value
    if type(template) is NaPair:
        left = _fill_mark(template.left, value)
        right = _fill_mark(template.right, value)
        if left is template.left and right is template.right:
            return template
        return NaPair(left, right)
    head = template.head
    if type(head) is NaOp:
        args = tuple(_fill_mark(a, value) for a in head.args)
        if args != head.args:
            return NaLeaf(template.d_power, NaOp(head.name, args))
    return template


def _expand_template(config: AlgebraConfig, template, core: Poly) -> Poly:
    if template is _MARK:
        return core
    if type(template) is NaPair:
        return commutator(
            _expand_template(config, template.left, core),
            _expand_template(config, template.right, core),
        )
    head = template.head
    if type(head) is str:
        return Poly.word(Word((Prime(template.d_power, head),)))
    inner = apply_operator(
        head.name, *(_expand_template(config, a, core) for a in head.args)
    )
    return apply_D(config, inner, template.d_power)


def special_bracket(config: AlgebraConfig, ctx: Context, v: Word) -> SpecialBracket:
    """Bracket ``ctx`` filled with ``v`` so the bracketing isolates ``v``.

    Both ``v`` and the filled word must be (hereditarily) Lyndon-Shirshov.
    The expansion is certified: leading term exactly (filled word, 1).
    """
    alphabet = config.alphabet
    if not is_alsw_hereditary(v, alphabet):
        raise ValueError("isolated subword is not Lyndon-Shirshov: %r" % (v,))
    w = substitute(ctx, v)
    if not is_alsw_hereditary(w, alphabet):
        raise ValueError("filled word is not Lyndon-Shirshov: %r" % (w,))
    template = _build_template(w, ctx, alphabet)
    bracketing = _fill_mark(template, shirshov_bracket(v, alphabet))
    expansion = _expand_template(config, template, Poly.word(v))
    lead, coeff = leading(config, expansion)
    if lead != w or coeff != 1:
        raise RuntimeError(
            "special bracketing certificate failed at %r" % (w,)
        )
    return SpecialBracket(w, bracketing, expansion)


def special_expand(config: AlgebraConfig, ctx: Context, v: Word, core: Poly) -> Poly:
    """Expansion of the isolating bracketing with ``core`` in place of ``v``.

    ``core`` must have leading word ``v``; the result is certified to have
    leading word ``ctx`` filled with ``v`` and core's leading coefficient.
    """
    alphabet = config.alphabet
    if not is_alsw_hereditary(v, alphabet):
        raise ValueError("isolated subword is not Lyndon-Shirshov: %r" % (v,))
    w = substitute(ctx, v)
    if not is_alsw_hereditary(w, alphabet):
        raise ValueError("filled word is not Lyndon-Shirshov: %r" % (w,))
    core_lead, core_coeff = leading(config, core)
    if core_lead != v:
        raise ValueError("core leading word %r is not %r" % (core_lead, v))
    template = _build_template(w, ctx, alphabet)
    out = _expand_template(config, template, core)
    lead, coeff = leading(config, out)
    if lead != w or coeff != core_coeff:
        raise RuntimeError(
            "special multiple certificate failed at %r" % (w,)
        )
    return out
