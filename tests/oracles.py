"""Oracles that serve only the test suite.

Each recomputes, the slow and obvious way, a value the package computes
another way.  The package never imports this module.

``special_template`` builds the isolating bracketing of
``lyndon.special_bracket`` by plain recursion over the word, with a mark
at the isolated subword.  It finds each standard split itself, as the
longest proper suffix that passes the rotation test of
``reference._oracle_is_alsw``, and shares no code with the package's
spine (``lyndon._spine``, ``_descend``, ``_graft``, ``_standard_split``);
only the subtrees off the path to the mark are the package's
``shirshov_bracket`` and ``ls_factorization``, which have oracle tests of
their own.  ``oracle_special_expand`` expands that template over
``Fraction`` polynomials: every node, on the path or off it, with
``commutator``, ``apply_operator`` and ``apply_D``, and no memo.  The
package computes the spine alone, in ``int``s while integral, and reads
the other subtrees from the alphabet's memo.
"""

from shirshov.algebra import (
    AlgebraConfig,
    Poly,
    apply_D,
    apply_operator,
    commutator,
)
from shirshov.lyndon import ls_factorization, shirshov_bracket
from shirshov.reference import _oracle_is_alsw
from shirshov.words import (
    Context,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    Prime,
    Word,
    substitute,
)


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


def expand_template(config: AlgebraConfig, template, core: Poly) -> Poly:
    """Expansion of ``template`` with ``core`` at ``MARK``, node by node."""
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
