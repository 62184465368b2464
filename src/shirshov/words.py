"""Flattened term language for differential operated words.

A word is a nonempty sequence of prime factors.  A prime is ``D^i`` applied
to a head, which is either a generator or an operator applied to argument
words.  ``D^0(x)`` is identified with ``x``: the differential power lives as
a counter on the prime, never as a nested unary node, so concatenation stays
strictly flat and subword matching stays structural.

Degree counts every generator occurrence, every operator occurrence and
every ``D`` application.  The deg-lex order compares the weight tuple
(degree, breadth, primes...) lexicographically; primes of equal degree
compare as (symbol, arguments...) tuples with every declared operator
ranked above ``D`` and with ``D^i(u)`` unwrapping to ``(D, D^(i-1)(u))``
one level per step.  ``Alphabet.key`` encodes the order as a nested tuple
so Python's tuple comparison realizes it directly; keys are memoized per
alphabet, which keeps leading-term extraction and sorting cheap.

The lex order on words ranks the empty word above every nonempty word, so
a proper prefix is greater than its extensions; it is the order underlying
Lyndon-Shirshov theory here.

A ``Context`` is a word with exactly one hole.  Holes carry their own
``D`` wrapping; a context whose hole is unwrapped is called bare, and only
bare holes admit substitution of arbitrary words.  Contexts reach inside
operator arguments at arbitrary depth as well as contiguous top-level runs.

Nonassociative words (``NaLeaf``/``NaPair``) are fully bracketed binary
trees over primes whose operator arguments are again bracketed; they are
the carrier for Lie-side computations.

``OpApp``, ``Prime`` and ``Word`` are hash-consed (Filliâtre-Conchon,
*Type-safe modular hash-consing*, 2006): constructing one is a lookup in
a weak intern table, keyed by its parts, that returns the existing object
when there is one.  So two equal words are one object, and equality and
hashing are identity, done in C.  The tables hold their objects weakly, so
a word lives only as long as something else refers to it, and nothing
carries over from one computation to the next.  Identity hashes differ
from run to run, so no output may depend on hash order: no set of words
is ever iterated, and dicts iterate in insertion order.  Copying or
unpickling an interned object constructs it again, so it yields the same
object.  The tables take no lock: construct words from one thread only.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Union


class _Ref(weakref.ref):
    """Intern-table entry: a weak reference that knows where it is filed."""

    __slots__ = ("table", "key")


def _forget(ref: _Ref) -> None:
    """Drop a dead object's entry, unless the key was filed again since."""
    table = ref.table
    if table.get(ref.key) is ref:
        del table[ref.key]


def _file(table: dict, key, obj) -> None:
    ref = _Ref(obj, _forget)
    ref.table = table
    ref.key = key
    table[key] = ref


# Intern tables, keyed by parts the object holds anyway, so a lookup builds
# no key tuple; those parts hash by identity or by a cached string hash.
_WORDS: dict[tuple, _Ref] = {}  # primes tuple -> Word
_PRIMES: dict[int, dict] = {}  # d_power -> {head: Prime}
_OPAPPS: dict[str, dict] = {}  # name -> {args tuple: OpApp}


class OpApp:
    """Operator head applied to a nonempty tuple of argument words.

    Interned: constructing an ``OpApp`` looks it up by (name, args) in a
    weak table and returns the existing object on a hit, so equality and
    hashing are identity.
    """

    __slots__ = ("name", "args", "degree", "__weakref__")

    def __new__(cls, name: str, args):
        args = tuple(args)
        if not args:
            raise ValueError("operator %r needs at least one argument" % name)
        table = _OPAPPS.get(name)
        if table is None:
            table = _OPAPPS[name] = {}
        else:
            ref = table.get(args)
            if ref is not None:
                self = ref()
                if self is not None:
                    return self
        self = object.__new__(cls)
        self.name = name
        self.args = args
        self.degree = 1 + sum(a.degree for a in args)
        _file(table, args, self)
        return self

    def __reduce__(self):
        return OpApp, (self.name, self.args)

    def __repr__(self):
        return "OpApp(%r, %r)" % (self.name, list(self.args))


Head = Union[str, OpApp]


class Prime:
    """``D^d_power`` applied to a generator or operator head.

    Interned like ``OpApp``: one object per (d_power, head).
    """

    __slots__ = ("d_power", "head", "degree", "__weakref__")

    def __new__(cls, d_power: int, head: Head):
        if d_power < 0:
            raise ValueError("negative D power")
        table = _PRIMES.get(d_power)
        if table is None:
            table = _PRIMES[d_power] = {}
        else:
            ref = table.get(head)
            if ref is not None:
                self = ref()
                if self is not None:
                    return self
        self = object.__new__(cls)
        self.d_power = d_power
        self.head = head
        self.degree = d_power + (1 if type(head) is str else head.degree)
        _file(table, head, self)
        return self

    def __reduce__(self):
        return Prime, (self.d_power, self.head)

    def shifted(self, k: int) -> "Prime":
        """The same prime with ``k`` more D applications."""
        return Prime(self.d_power + k, self.head) if k else self

    def __repr__(self):
        from .syntax import format_prime

        return format_prime(self)


class Word:
    """Nonempty flat sequence of primes; the monomial carrier.

    Interned: constructing a ``Word`` looks its primes tuple up in a weak
    table, so two equal words are one object, ``==`` is ``is`` and the
    hash is the identity hash.
    """

    __slots__ = ("primes", "degree", "__weakref__")

    def __new__(cls, primes):
        primes = tuple(primes)
        if not primes:
            raise ValueError("words are nonempty")
        ref = _WORDS.get(primes)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.primes = primes
        self.degree = sum(p.degree for p in primes)
        _file(_WORDS, primes, self)
        return self

    def __reduce__(self):
        return Word, (self.primes,)

    @property
    def breadth(self) -> int:
        return len(self.primes)

    def __repr__(self):
        from .syntax import format_word

        return format_word(self)


def concat(*words: Word) -> Word:
    """Concatenation product of words."""
    return Word(tuple(p for w in words for p in w.primes))


class Alphabet:
    """Ordered generators and operators; earlier in each sequence is greater.

    ``operators`` is a sequence of (name, arity) pairs.  ``D`` is reserved
    for the differential and ranks below every declared operator.
    """

    def __init__(self, generators, operators=()):
        self.generators = tuple(generators)
        self.operators = tuple((str(n), int(a)) for n, a in operators)
        names = list(self.generators) + [n for n, _ in self.operators]
        if len(set(names)) != len(names):
            raise ValueError("generator/operator names must be distinct")
        if "D" in names:
            raise ValueError("the name D is reserved for the differential")
        for n, a in self.operators:
            if a < 1:
                raise ValueError("operator %r must take at least one argument" % n)
        ng = len(self.generators)
        self._gen_rank = {g: ng - i for i, g in enumerate(self.generators)}
        no = len(self.operators)
        self._op_rank = {n: no - i for i, (n, _) in enumerate(self.operators)}
        self._arity = {n: a for n, a in self.operators}
        self._word_keys: dict[Word, tuple] = {}
        self._prime_keys: dict[Prime, tuple] = {}
        # Filled by ``lyndon``: ALSW tests (top level, and hereditary),
        # standard split indices and standard bracketings per word.
        self._alsw_cache: dict[Word, bool] = {}
        self._hereditary_cache: dict[Word, bool] = {}
        self._split_cache: dict[Word, int] = {}
        self._bracket_cache: dict[Word, object] = {}
        # Filled by ``algebra.expansion``: per bracketed node, the stored
        # node and its integer expansion.
        self._expansions: dict[object, tuple] = {}

    def arity(self, name: str) -> int:
        return self._arity[name]

    def is_generator(self, name: str) -> bool:
        return name in self._gen_rank

    def key(self, u: Word) -> tuple:
        """Deg-lex sort key: ``key(u) < key(v)`` iff ``u`` precedes ``v``."""
        k = self._word_keys.get(u)
        if k is None:
            k = (u.degree, len(u.primes)) + tuple(
                self.prime_key(p) for p in u.primes
            )
            self._word_keys[u] = k
        return k

    def prime_key(self, p: Prime) -> tuple:
        k = self._prime_keys.get(p)
        if k is None:
            head = p.head
            if p.d_power == 0:
                if type(head) is str:
                    try:
                        k = (1, self._gen_rank[head])
                    except KeyError:
                        raise ValueError("unknown generator %r" % head) from None
                else:
                    try:
                        rank = self._op_rank[head.name]
                    except KeyError:
                        raise ValueError("unknown operator %r" % head.name) from None
                    if len(head.args) != self._arity[head.name]:
                        raise ValueError(
                            "operator %r expects %d argument(s), got %d"
                            % (head.name, self._arity[head.name], len(head.args))
                        )
                    k = (p.degree, rank) + tuple(self.key(a) for a in head.args)
            else:
                # D^i(u) compares as (D, D^(i-1)(u)); D ranks below operators.
                inner = Word((Prime(p.d_power - 1, head),))
                k = (p.degree, 0, self.key(inner))
            self._prime_keys[p] = k
        return k


def lex_cmp_primes(ps, qs, alphabet: Alphabet) -> int:
    """Lex comparison of prime sequences; a proper prefix is greater."""
    for p, q in zip(ps, qs):
        if p is q:
            continue
        return 1 if alphabet.prime_key(p) > alphabet.prime_key(q) else -1
    if len(ps) == len(qs):
        return 0
    return 1 if len(ps) < len(qs) else -1


def lex_cmp(u, v, alphabet: Alphabet) -> int:
    """Lex order with the empty word (None) above every nonempty word."""
    if u is None:
        return 0 if v is None else 1
    if v is None:
        return -1
    return lex_cmp_primes(u.primes, v.primes, alphabet)


# ---------------------------------------------------------------------------
# Contexts: words with one hole.


class Hole:
    """The hole itself, wrapped in ``d_power`` applications of D."""

    __slots__ = ("d_power", "_hash")

    def __init__(self, d_power: int = 0):
        if d_power < 0:
            raise ValueError("negative D power")
        self.d_power = d_power
        self._hash = hash(("hole", d_power))

    def __eq__(self, other):
        return type(other) is Hole and self.d_power == other.d_power

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "D^%d(*)" % self.d_power if self.d_power else "*"


class ArgHole:
    """A prime whose operator has the hole inside one argument."""

    __slots__ = ("d_power", "name", "args_before", "inner", "args_after", "_hash")

    def __init__(self, d_power, name, args_before, inner, args_after):
        self.d_power = d_power
        self.name = name
        self.args_before = tuple(args_before)
        self.inner = inner
        self.args_after = tuple(args_after)
        self._hash = hash(
            (d_power, name, self.args_before, inner, self.args_after)
        )

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is ArgHole
            and self._hash == other._hash
            and self.d_power == other.d_power
            and self.name == other.name
            and self.args_before == other.args_before
            and self.inner == other.inner
            and self.args_after == other.args_after
        )

    def __hash__(self):
        return self._hash


class Context:
    """A word shape with exactly one hole; substitution fills the hole."""

    __slots__ = ("before", "core", "after", "_hash")

    def __init__(self, before, core, after):
        self.before = tuple(before)
        self.core = core
        self.after = tuple(after)
        self._hash = hash((self.before, core, self.after))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Context
            and self._hash == other._hash
            and self.before == other.before
            and self.core == other.core
            and self.after == other.after
        )

    def __hash__(self):
        return self._hash

    @property
    def hole_d_power(self) -> int:
        """D power sitting directly on the innermost hole."""
        core = self.core
        while type(core) is ArgHole:
            core = core.inner.core
        return core.d_power

    @property
    def is_bare(self) -> bool:
        return self.hole_d_power == 0

    @property
    def is_identity(self) -> bool:
        return (
            not self.before
            and not self.after
            and type(self.core) is Hole
            and self.core.d_power == 0
        )

    @property
    def degree(self) -> int:
        """Degree with the hole counting zero."""
        d = sum(p.degree for p in self.before) + sum(p.degree for p in self.after)
        core = self.core
        if type(core) is Hole:
            return d + core.d_power
        return (
            d
            + core.d_power
            + 1
            + sum(a.degree for a in core.args_before)
            + sum(a.degree for a in core.args_after)
            + core.inner.degree
        )

    def bare(self) -> "Context":
        """The same context with the innermost hole's D power stripped."""
        core = self.core
        if type(core) is Hole:
            if core.d_power == 0:
                return self
            return Context(self.before, Hole(0), self.after)
        return Context(
            self.before,
            ArgHole(
                core.d_power,
                core.name,
                core.args_before,
                core.inner.bare(),
                core.args_after,
            ),
            self.after,
        )

    def __repr__(self):
        from .syntax import format_context

        return format_context(self)


IDENTITY_CONTEXT = Context((), Hole(0), ())


def substitute(ctx: Context, u: Word) -> Word:
    """Fill the hole of ``ctx`` with ``u``.

    A D-wrapped hole absorbs into the substituted prime, so it only accepts
    one-prime words; a bare hole splices any word into the sequence.
    """
    core = ctx.core
    if type(core) is Hole:
        if core.d_power == 0:
            mid = u.primes
        else:
            if u.breadth != 1:
                raise ValueError(
                    "a D-wrapped hole only accepts a one-prime word"
                )
            mid = (u.primes[0].shifted(core.d_power),)
    else:
        inner = substitute(core.inner, u)
        mid = (
            Prime(
                core.d_power,
                OpApp(core.name, core.args_before + (inner,) + core.args_after),
            ),
        )
    return Word(ctx.before + mid + ctx.after)


def occurrences(w: Word, p: Word):
    """Every bare-hole context at which ``p`` occurs inside ``w``.

    ``p`` may match a contiguous run of primes at top level or inside any
    operator argument at any nesting depth.  Order: top-level runs left to
    right, then nested positions left to right and outside in.
    """
    out = []
    primes = w.primes
    target = p.primes
    m = len(target)
    for i in range(len(primes) - m + 1):
        if primes[i : i + m] == target:
            out.append(Context(primes[:i], Hole(0), primes[i + m :]))
    for t, prime in enumerate(primes):
        head = prime.head
        if type(head) is OpApp:
            for a, arg in enumerate(head.args):
                for inner in occurrences(arg, p):
                    out.append(
                        Context(
                            primes[:t],
                            ArgHole(
                                prime.d_power,
                                head.name,
                                head.args[:a],
                                inner,
                                head.args[a + 1 :],
                            ),
                            primes[t + 1 :],
                        )
                    )
    return out


def iter_subword_runs(w: Word) -> Iterator[tuple[tuple, "object"]]:
    """Yield (prime run, context builder) for every contiguous subword.

    The run is a tuple of primes; calling the builder materializes the
    bare-hole context for that occurrence.  Top-level runs come first.
    """
    primes = w.primes
    n = len(primes)
    for i in range(n):
        for j in range(i + 1, n + 1):
            run = primes[i:j]

            def build(i=i, j=j):
                return Context(primes[:i], Hole(0), primes[j:])

            yield run, build
    for t, prime in enumerate(primes):
        head = prime.head
        if type(head) is OpApp:
            for a, arg in enumerate(head.args):
                for run, inner_build in iter_subword_runs(arg):

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


def default_letters(alphabet: Alphabet):
    """Letter maker for the full differential operated language:
    ``letters(d, words_by_deg)`` lists the primes of degree ``d`` whose
    operator arguments come from ``words_by_deg``."""

    def letters(d: int, words_by_deg):
        out = [Prime(d - 1, g) for g in alphabet.generators]
        for name, arity in alphabet.operators:
            for dp in range(0, d - 1):
                budget = d - 1 - dp
                for args in _arg_tuples(words_by_deg, arity, budget):
                    out.append(Prime(dp, OpApp(name, args)))
        return out

    return letters


def enumerate_words(alphabet: Alphabet, max_degree: int):
    """All words of degree at most ``max_degree``, grouped by degree.

    Returns a dict mapping degree to the deg-lex sorted list of words.
    Exponential in ``max_degree``; intended for small bounds.
    """
    letters = default_letters(alphabet)
    primes_by_deg: dict[int, list[Prime]] = {}
    words_by_deg: dict[int, list[Word]] = {}
    for d in range(1, max_degree + 1):
        primes_by_deg[d] = letters(d, words_by_deg)
        words: list[Word] = [Word((p,)) for p in primes_by_deg[d]]
        for k in range(1, d):
            for p in primes_by_deg[k]:
                for w in words_by_deg[d - k]:
                    words.append(Word((p,) + w.primes))
        words.sort(key=alphabet.key)
        words_by_deg[d] = words
    return words_by_deg


def _arg_tuples(words_by_deg, arity, budget):
    """Argument tuples with the given total degree."""
    if arity == 1:
        return [(w,) for w in words_by_deg.get(budget, ())]
    out = []
    for first_deg in range(1, budget - arity + 2):
        for w in words_by_deg.get(first_deg, ()):
            for rest in _arg_tuples(words_by_deg, arity - 1, budget - first_deg):
                out.append((w,) + rest)
    return out


# ---------------------------------------------------------------------------
# Nonassociative (fully bracketed) words.


class NaOp:
    """Operator head whose arguments are bracketed words."""

    __slots__ = ("name", "args", "_hash")

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)
        self._hash = hash((name,) + self.args)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is NaOp
            and self._hash == other._hash
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash


class NaLeaf:
    """Bracketed-word leaf: ``D^d_power`` over a generator or NaOp head."""

    __slots__ = ("d_power", "head", "_hash")

    def __init__(self, d_power, head):
        self.d_power = d_power
        self.head = head
        self._hash = hash((d_power, head))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is NaLeaf
            and self._hash == other._hash
            and self.d_power == other.d_power
            and self.head == other.head
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .syntax import format_naword

        return format_naword(self)


class NaPair:
    """Bracket node of two bracketed words."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((left, right))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is NaPair
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .syntax import format_naword

        return format_naword(self)


NAWord = Union[NaLeaf, NaPair]


def underlying_word(t: NAWord) -> Word:
    """Forget all bracketing, keeping operator arguments bracket-free too."""
    return Word(tuple(_underlying_primes(t)))


def _underlying_primes(t: NAWord):
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
