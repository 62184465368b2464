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
bracketing expands with an arbitrary polynomial in place of ``v``, which is
how bracketed rule multiples are formed.

That expansion is linear in the core and touches only the spine, the
path from the marked slot to the root.  Every subtree off the spine is a
standard bracketing, read from the alphabet's integer memo of bracket
expansions (``algebra.expansion``), which the rules and ``drbl_nf``'s peel
share; the spine is computed with the memo's own integer commutator and
operator steps.  Integral coefficients of the core are narrowed to
``int``s, so ``special_terms`` runs in ``int``s wherever the core is
integral and in ``Fraction``s where it is not; ``special_expand`` returns
``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraConfig,
    Poly,
    _int_commutator,
    _int_operator,
    as_fractions,
    expansion,
    leading,
    narrow,
)
from .words import (
    Alphabet,
    Context,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Word,
    concat,
    default_letters,
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
    """ALSW at top level with every operator argument hereditarily ALSW.

    The answer is memoised per word on the alphabet.
    """
    cache = alphabet._hereditary_cache
    hit = cache.get(u)
    if hit is not None:
        return hit
    result = is_alsw(u, alphabet) and all(
        is_alsw_hereditary(a, alphabet)
        for p in u.primes
        if type(p.head) is OpApp
        for a in p.head.args
    )
    cache[u] = result
    return result


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
        k = alphabet._split_cache.get(u) or _standard_split(primes, alphabet)
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


def enumerate_alsw_by_degree(
    alphabet: Alphabet, max_degree: int, letters=None
) -> dict[int, list[Word]]:
    """ALSWs grouped by degree, deg-lex sorted within each degree.

    Letters of degree d are generated from words of smaller degree, so a
    single pass by degree reaches the full stratified language.  Words of
    breadth ≥ 2 arise as products u·v of smaller ALSWs with u > v in lex
    order; every such product is an ALSW and every ALSW of breadth ≥ 2 is
    one, via its standard split.

    The alphabet's caches learn what enumeration already knows: every
    returned word is recorded as an ALSW, and each product as split at its
    shortest left factor, which is the standard split (the right factor
    of the standard split is the longest proper ALSW suffix).  So
    ``is_alsw`` and ``shirshov_bracket`` decide nothing again for them.
    """
    if letters is None:
        letters = default_letters(alphabet)
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


# Spine steps, from the marked slot up to the root.  ("left", t): the
# node so far is the left child of a pair whose right child is t;
# ("right", t): it is the right child, t the left; ("op", k, name, before,
# after): it is an operator argument between the bracketed arguments
# ``before`` and ``after``, under D^k.  Every t is a standard bracketing.
_LEFT = "left"
_RIGHT = "right"
_OP = "op"


def _spine(w: Word, ctx: Context, alphabet: Alphabet) -> list:
    """Spine of the bracketing of ``w`` isolating the subword ``ctx`` holds."""
    core = ctx.core
    if type(core) is Hole:
        if core.d_power != 0:
            raise ValueError("special bracketing needs a bare context")
        i = len(ctx.before)
        return _descend(w.primes, i, len(w.primes) - len(ctx.after), alphabet)
    t = len(ctx.before)
    prime = w.primes[t]
    head = prime.head
    a = len(core.args_before)
    steps = _spine(head.args[a], core.inner, alphabet)
    args = tuple(shirshov_bracket(arg, alphabet) for arg in head.args)
    steps.append((_OP, prime.d_power, head.name, args[:a], args[a + 1 :]))
    steps.extend(_descend(w.primes, t, t + 1, alphabet))
    return steps


def _descend(primes, i, j, alphabet: Alphabet) -> list:
    """Spine from the node of ``primes[i:j]`` up to the root of ``primes``."""
    n = len(primes)
    if i == 0 and j == n:
        return []
    k = _standard_split(primes, alphabet)
    if j <= k:
        steps = _descend(primes[:k], i, j, alphabet)
        steps.append((_LEFT, shirshov_bracket(Word(primes[k:]), alphabet)))
        return steps
    if i >= k:
        steps = _descend(primes[k:], i - k, j - k, alphabet)
        steps.append((_RIGHT, shirshov_bracket(Word(primes[:k]), alphabet)))
        return steps
    if i == 0:
        return [
            (_LEFT, shirshov_bracket(f, alphabet))
            for f in ls_factorization(Word(primes[j:]), alphabet)
        ]
    raise RuntimeError(
        "isolated subword straddles a standard split away from its start"
    )


def _graft(steps, node):
    """The bracketing the spine ``steps`` builds over ``node``."""
    for step in steps:
        kind = step[0]
        if kind is _LEFT:
            node = NaPair(node, step[1])
        elif kind is _RIGHT:
            node = NaPair(step[1], node)
        else:
            _, d_power, name, before, after = step
            node = NaLeaf(d_power, NaOp(name, before + (node,) + after))
    return node


def _expand_spine(alphabet: Alphabet, steps, core: dict) -> dict:
    """Expansion of the spine over ``core``, off-spine subtrees from the memo.

    ``_int_commutator`` and ``_int_operator`` are the kernel behind
    ``commutator`` and ``apply_operator``, so this equals the ``Poly``
    recursion over the grafted bracketing term for term and in order.
    """
    out = core
    for step in steps:
        kind = step[0]
        if kind is _LEFT:
            out = _int_commutator(out, expansion(alphabet, step[1]))
        elif kind is _RIGHT:
            out = _int_commutator(expansion(alphabet, step[1]), out)
        else:
            _, d_power, name, before, after = step
            args = [expansion(alphabet, t) for t in before]
            args.append(out)
            args.extend(expansion(alphabet, t) for t in after)
            out = _int_operator(name, args, d_power)
    return out


def special_bracket(config: AlgebraConfig, ctx: Context, v: Word) -> SpecialBracket:
    """Bracket ``ctx`` filled with ``v`` so the bracketing isolates ``v``.

    Both ``v`` and the filled word must be (hereditarily) Lyndon-Shirshov.
    The expansion is ``special_expand`` with ``v`` itself as the core, so
    it is certified: leading term exactly (filled word, 1).
    """
    expanded = special_expand(config, ctx, v, Poly.word(v))
    w = substitute(ctx, v)
    alphabet = config.alphabet
    bracketing = _graft(_spine(w, ctx, alphabet), shirshov_bracket(v, alphabet))
    return SpecialBracket(w, bracketing, expanded)


def special_expand(config: AlgebraConfig, ctx: Context, v: Word, core: Poly) -> Poly:
    """Expansion of the isolating bracketing with ``core`` in place of ``v``.

    ``core`` must have leading word ``v``; the result is certified to have
    leading word ``ctx`` filled with ``v`` and core's leading coefficient.
    Coefficients are ``Fraction``s; ``special_terms`` computes them.
    """
    return Poly(as_fractions(special_terms(config, ctx, v, core.terms)))


def special_terms(config: AlgebraConfig, ctx: Context, v: Word, core: dict) -> dict:
    """``special_expand`` over term dicts, in integers where they suffice.

    Only the spine is computed; every subtree off it is a standard
    bracketing, read from the alphabet's integer memo.  The core's
    integral coefficients are narrowed to ``int``s, so an integral core
    gives ``int`` coefficients throughout.
    """
    alphabet = config.alphabet
    if not is_alsw_hereditary(v, alphabet):
        raise ValueError("isolated subword is not Lyndon-Shirshov: %r" % (v,))
    w = substitute(ctx, v)
    if not is_alsw_hereditary(w, alphabet):
        raise ValueError("filled word is not Lyndon-Shirshov: %r" % (w,))
    core_lead, core_coeff = leading(config, Poly(core))
    if core_lead != v:
        raise ValueError("core leading word %r is not %r" % (core_lead, v))
    narrowed = {u: narrow(c) for u, c in core.items()}
    out = _expand_spine(alphabet, _spine(w, ctx, alphabet), narrowed)
    lead, coeff = leading(config, Poly(out))
    if lead != w or coeff != core_coeff:
        raise RuntimeError(
            "special multiple certificate failed at %r" % (w,)
        )
    return out
