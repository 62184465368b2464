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

A ``Context`` is a word with one bare hole, into which any word splices;
D around a substituted rule is the rule's D-lift, never a wrapped hole.
Contexts reach inside operator arguments at arbitrary depth as well as
contiguous top-level runs.

Nonassociative words (``NaLeaf``/``NaPair``) are fully bracketed binary
trees over primes whose operator arguments are again bracketed; they are
the carrier for Lie-side computations.

Every term object is hash-consed (Filliâtre-Conchon, *Type-safe modular
hash-consing*, 2006): ``OpApp``, ``Prime`` and ``Word``, the contexts
``Context`` and ``ArgHole``, and the bracketed ``NaOp``, ``NaLeaf`` and
``NaPair``; ``Hole`` is one shared object.  Constructing one is a lookup in
a weak intern table, keyed by its parts, that returns the existing object
when there is one.  So two equal terms are one object, and equality and
hashing are identity, done in C.  The tables hold their objects weakly, so
a term lives only as long as something else refers to it, and nothing
carries over from one computation to the next.  Identity hashes differ
from run to run, so no output may depend on hash order: no set of terms
is ever iterated, and dicts iterate in insertion order.  Copying or
unpickling an interned object constructs it again, so it yields the same
object.  The tables take no lock: construct terms from one thread only.
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


def _lookup(table: dict, key):
    """The live object filed under ``key``, or None."""
    ref = table.get(key)
    return None if ref is None else ref()


def term_repr(t) -> str:
    """The ``__repr__`` of every term type: its text from ``syntax``."""
    from .syntax import format_term

    return format_term(t)


# Intern tables.  The hottest, for words, primes and operator applications,
# are keyed by parts the object holds anyway, so a lookup builds no key
# tuple; the rest are keyed by the tuple of the object's slots.
_WORDS: dict[tuple, _Ref] = {}  # primes tuple -> Word
_PRIMES: dict[int, dict] = {}  # d_power -> {head: Prime}
_OPAPPS: dict[str, dict] = {}  # name -> {args tuple: OpApp}
_ARGHOLES: dict[tuple, _Ref] = {}
_CONTEXTS: dict[tuple, _Ref] = {}
_NAOPS: dict[tuple, _Ref] = {}
_NALEAVES: dict[tuple, _Ref] = {}
_NAPAIRS: dict[tuple, _Ref] = {}


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

    __repr__ = term_repr


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

    __repr__ = term_repr


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
        # Filled by ``algebra.expansion``: bracketed node -> integer expansion.
        self._expansions: dict[object, dict] = {}

    def arity(self, name: str) -> int:
        return self._arity[name]

    def is_generator(self, name: str) -> bool:
        return name in self._gen_rank

    def key(self, u: Word) -> tuple:
        """Deg-lex sort key: ``key(u) < key(v)`` iff ``u`` precedes ``v``."""
        k = self._word_keys.get(u)
        if k is None:
            k = (u.degree, len(u.primes), *map(self.prime_key, u.primes))
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
                # The one-prime word D^(i-1)(u) keys as (degree, 1, its prime).
                inner = Prime(p.d_power - 1, head)
                k = (p.degree, 0, (inner.degree, 1, self.prime_key(inner)))
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
    """The hole of a context: one object, ``Hole(0)``, equal only to itself."""

    __slots__ = ()

    def __new__(cls, d_power: int = 0):
        if d_power:
            raise ValueError(
                "holes are bare: apply D^%d to the rule instead, that is, "
                "substitute its D-lift" % d_power
            )
        return _HOLE

    def __repr__(self):
        return "*"


_HOLE = object.__new__(Hole)


class ArgHole:
    """A prime whose operator has the hole inside one argument."""

    __slots__ = ("d_power", "name", "args_before", "inner", "args_after", "__weakref__")

    def __new__(cls, d_power, name, args_before, inner, args_after):
        key = (d_power, name, tuple(args_before), inner, tuple(args_after))
        self = _lookup(_ARGHOLES, key)
        if self is None:
            self = object.__new__(cls)
            self.d_power, self.name, self.args_before, self.inner, self.args_after = key
            _file(_ARGHOLES, key, self)
        return self

    def __reduce__(self):
        return ArgHole, (
            self.d_power, self.name, self.args_before, self.inner, self.args_after
        )


class Context:
    """A word shape with exactly one hole; substitution fills the hole."""

    __slots__ = ("before", "core", "after", "__weakref__")

    def __new__(cls, before, core, after):
        key = (tuple(before), core, tuple(after))
        self = _lookup(_CONTEXTS, key)
        if self is None:
            self = object.__new__(cls)
            self.before, self.core, self.after = key
            _file(_CONTEXTS, key, self)
        return self

    def __reduce__(self):
        return Context, (self.before, self.core, self.after)

    @property
    def is_identity(self) -> bool:
        return self is IDENTITY_CONTEXT

    __repr__ = term_repr


IDENTITY_CONTEXT = Context((), _HOLE, ())


def substitute(ctx: Context, u: Word) -> Word:
    """Fill the hole of ``ctx`` with ``u``, splicing its primes in."""
    core = ctx.core
    if core is _HOLE:
        mid = u.primes
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
            out.append(Context(primes[:i], _HOLE, primes[i + m :]))
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


_SPANS: dict[int, tuple] = {}  # breadth -> its top-level (i, j) spans


def subword_runs(w: Word) -> Iterator[tuple[tuple, tuple]]:
    """Yield (prime run, where) for every contiguous subword.

    The run is a tuple of primes and ``where`` its position, from which
    ``context_at`` builds the bare-hole context of that occurrence:
    ``(i, j)`` for the top-level run ``primes[i:j]``, and ``(t, a, inner)``
    for a run at ``inner`` inside argument ``a`` of prime ``t``.  Top-level
    runs come first, by start and then by length; then the runs inside
    each operator argument, prime by prime, outside in.  For one run, this
    is the order of ``occurrences``.

    Its readers are ``RewriteSystem.match``, ``find_ambiguities``, the
    row search of ``reference.oracle_quotient_dim`` and ``drbl_nf``'s
    matcher ``rota_baxter._find_match``.  The top-level spans of each
    breadth are made once and kept in a process-wide memo, which takes
    no lock: like the intern tables, it assumes one thread.
    """
    primes = w.primes
    n = len(primes)
    spans = _SPANS.get(n)
    if spans is None:
        spans = _SPANS[n] = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n + 1)
        )
    for where in spans:
        yield primes[where[0] : where[1]], where
    for t, prime in enumerate(primes):
        head = prime.head
        if type(head) is OpApp:
            for a, arg in enumerate(head.args):
                for run, inner in subword_runs(arg):
                    yield run, (t, a, inner)


def context_at(primes: tuple, where: tuple) -> Context:
    """The context of the run at ``where`` (see ``subword_runs``) in ``primes``."""
    if len(where) == 2:
        i, j = where
        return Context(primes[:i], _HOLE, primes[j:])
    t, a, inner = where
    prime = primes[t]
    head = prime.head
    args = head.args
    return Context(
        primes[:t],
        ArgHole(
            prime.d_power,
            head.name,
            args[:a],
            context_at(args[a].primes, inner),
            args[a + 1 :],
        ),
        primes[t + 1 :],
    )


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

    __slots__ = ("name", "args", "__weakref__")

    def __new__(cls, name, args):
        key = (name, tuple(args))
        self = _lookup(_NAOPS, key)
        if self is None:
            self = object.__new__(cls)
            self.name, self.args = key
            _file(_NAOPS, key, self)
        return self

    def __reduce__(self):
        return NaOp, (self.name, self.args)


class NaLeaf:
    """Bracketed-word leaf: ``D^d_power`` over a generator or NaOp head."""

    __slots__ = ("d_power", "head", "__weakref__")

    def __new__(cls, d_power, head):
        key = (d_power, head)
        self = _lookup(_NALEAVES, key)
        if self is None:
            self = object.__new__(cls)
            self.d_power, self.head = key
            _file(_NALEAVES, key, self)
        return self

    def __reduce__(self):
        return NaLeaf, (self.d_power, self.head)

    __repr__ = term_repr


class NaPair:
    """Bracket node of two bracketed words."""

    __slots__ = ("left", "right", "__weakref__")

    def __new__(cls, left, right):
        key = (left, right)
        self = _lookup(_NAPAIRS, key)
        if self is None:
            self = object.__new__(cls)
            self.left, self.right = key
            _file(_NAPAIRS, key, self)
        return self

    def __reduce__(self):
        return NaPair, (self.left, self.right)

    __repr__ = term_repr
