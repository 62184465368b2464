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

``special_expand`` expands the bracketing of an ALSW ``w`` that isolates a
designated ALSW subword ``v``: descending the standard bracketing of ``w``,
the minimal subtree containing ``v`` has ``v`` as a prefix; that subtree is
rebracketed as a left-normed chain over the LS factors of the tail.  The
bracketing expands with an arbitrary polynomial in place of ``v``, which is
how bracketed rule multiples are formed; with ``v`` itself in place the
expansion is ``w`` plus deg-lex smaller monomials, and every expansion's
leading term is asserted, so a returned value carries a verified
certificate.

That expansion is linear in the core and touches only the spine, the
path from the marked slot to the root.  Every subtree off the spine is a
standard bracketing, read from the alphabet's integer memo of bracket
expansions (``algebra.expansion``), which the rules and ``drbl_nf``'s peel
share; the spine is computed with the memo's own integer commutator and
operator steps, so it runs in ``int``s wherever the core is integral and
in ``Fraction``s where it is not.  ``special_terms_from_lead`` expands the
core it is given, as given: the rewriting engine and the oracle narrow
each lifted core once, where they make it, and ``special_expand`` narrows
its core once per call and returns ``Fraction``s.

``special_expand`` checks that the core leads with ``v``, a hereditarily
Lyndon-Shirshov word.  The rewriting engine expands many multiples of one
lifted core, so it certifies each core's leading term once
(``rewriting.Rule.lift_lead``) and calls ``special_terms_from_lead``,
which skips that check; the filled word is still checked, and each
multiple still certified, on every call.
"""

from __future__ import annotations

from bisect import bisect_left

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

    The pairs u > v are found by bisection, with no comparison of two
    words.  Each degree's words are also kept sorted by a lex key: the
    primes' keys (``key(u)[2:]``) followed by a sentinel ``(n + 1,)``, n
    being ``max_degree``.  A prime's key starts with its degree, at most
    n, so the sentinel ranks above every prime key, and a proper prefix
    ranks above its extensions, as in ``lex_cmp``; the keys of distinct
    primes differ, so comparing lex keys is ``lex_cmp``.  The partners of
    a word u among the words of a given degree, those below u, are then a
    prefix of that degree's list, and one ``bisect_left`` of u's lex key
    finds its end.

    The alphabet's caches learn what enumeration already knows: every
    returned word is recorded as an ALSW, and each product as split at its
    shortest left factor, which is the standard split (the right factor
    of the standard split is the longest proper ALSW suffix).  So
    ``is_alsw`` and ``shirshov_bracket`` decide nothing again for them.
    With the default letters every returned word is recorded as hereditary
    too, since those letters take their operator arguments only from the
    words enumerated before them; a custom letter maker promises no such
    thing, so its words are left to ``is_alsw_hereditary``.
    """
    hereditary_cache = None
    if letters is None:
        letters = default_letters(alphabet)
        hereditary_cache = alphabet._hereditary_cache
    key = alphabet.key
    alsw_cache = alphabet._alsw_cache
    split_cache = alphabet._split_cache
    alsw_by_deg: dict[int, list[Word]] = {}
    # Per degree, the words in lex order and their lex keys, in step.
    by_lex: dict[int, tuple[list[Word], list[tuple]]] = {}
    top = ((max_degree + 1,),)
    for d in range(1, max_degree + 1):
        found = dict.fromkeys(Word((p,)) for p in letters(d, alsw_by_deg))
        for k in range(1, d):
            ws, wkeys = by_lex[d - k]
            for v, vkey in zip(*by_lex[k]):
                b = len(v.primes)
                vp = v.primes
                for w in ws[: bisect_left(wkeys, vkey)]:
                    vw = Word(vp + w.primes)
                    found[vw] = None
                    if split_cache.get(vw, b) >= b:
                        split_cache[vw] = b
        alsw_by_deg[d] = sorted(found, key=key)
        if d < max_degree:
            lex = {w: key(w)[2:] + top for w in found}
            ws = sorted(lex, key=lex.__getitem__)
            by_lex[d] = ws, [lex[w] for w in ws]
        for w in found:
            alsw_cache[w] = True
        if hereditary_cache is not None:
            hereditary_cache.update(dict.fromkeys(found, True))
    return alsw_by_deg


def enumerate_alsw(
    config: AlgebraConfig, max_degree: int, letters=None
) -> list[Word]:
    """All ALSWs of the language up to ``max_degree``, deg-lex sorted.

    ``letters`` is as for ``enumerate_alsw_by_degree``.
    """
    by_deg = enumerate_alsw_by_degree(config.alphabet, max_degree, letters)
    out: list[Word] = []
    for d in range(1, max_degree + 1):
        out.extend(by_deg.get(d, ()))
    return out


# ---------------------------------------------------------------------------
# Special bracketing.


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


def special_expand(config: AlgebraConfig, ctx: Context, v: Word, core: Poly) -> Poly:
    """Expansion of the isolating bracketing with ``core`` in place of ``v``.

    ``v`` must be hereditarily Lyndon-Shirshov and lead ``core``; the
    result is certified to have leading word ``ctx`` filled with ``v`` and
    core's leading coefficient.  The core is narrowed once, so the
    expansion runs in ``int``s where it is integral; the coefficients
    returned are ``Fraction``s.
    """
    if not is_alsw_hereditary(v, config.alphabet):
        raise ValueError("isolated subword is not Lyndon-Shirshov: %r" % (v,))
    terms = {u: narrow(c) for u, c in core.terms.items()}
    core_lead, core_coeff = leading(config, Poly(terms))
    if core_lead != v:
        raise ValueError("core leading word %r is not %r" % (core_lead, v))
    out = special_terms_from_lead(config, ctx, v, core_coeff, terms)
    return Poly(as_fractions(out))


def special_terms_from_lead(
    config: AlgebraConfig, ctx: Context, v: Word, coeff, core: dict
) -> dict:
    """``special_expand`` over term dicts, for a core the caller certified.

    ``v`` must be hereditarily Lyndon-Shirshov and lead ``core`` with
    coefficient ``coeff``; that is not checked again.  The filled word is
    checked, and the result certified, as in ``special_expand``.  Only the
    spine is computed; every subtree off it is a standard bracketing, read
    from the alphabet's integer memo.  The core's coefficients are used as
    they are: ``int``s give ``int``s wherever the expansion is integral.
    The result is a fresh dict, a copy of ``core`` in the identity context,
    so a caller may subtract from it in place.
    """
    alphabet = config.alphabet
    w = substitute(ctx, v)
    if not is_alsw_hereditary(w, alphabet):
        raise ValueError("filled word is not Lyndon-Shirshov: %r" % (w,))
    steps = _spine(w, ctx, alphabet)
    out = _expand_spine(alphabet, steps, core) if steps else dict(core)
    lead, lc = leading(config, Poly(out))
    if lead != w or lc != coeff:
        raise RuntimeError(
            "special multiple certificate failed at %r" % (w,)
        )
    return out
