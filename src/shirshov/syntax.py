"""Text syntax for terms: a tokenizer, a recursive-descent parser and
canonical printers.

Grammar (whitespace between factors is an implicit product)::

    poly   := ["+"|"-"] mono (("+" | "-") mono)*
    mono   := [rat] factor (["*"] factor)* | rat
    factor := prime | "[" naword naword "]"
    prime  := "D" ["^" nat] "(" prime ")" | ident
            | opname "(" poly ("," poly)* ")"
    naword := naleaf | "[" naword naword "]"
    naleaf := "D" ["^" nat] "(" naleaf ")" | ident
            | opname "(" naword ("," naword)* ")"
    rat    := int ["/" nat]

A bare ``rat`` must be zero.  ``D^0`` wrappers are stripped; nested
wrappers such as ``D(D(x1))`` accumulate into a single power.

One ``search`` for a character outside the token classes comes first
and raises ``TermSyntaxError`` at it, so a stray character is reported
before any grammar error.  Tokens are then plain strings from one
``findall`` (optional whitespace, then a number, an identifier or a
symbol), ended by the sentinel ``""``; a number is all digits, an
identifier a Python identifier and a symbol neither, so tokens are told
apart by their text and looking ahead is one index.  Only an error needs a
token's position, and it finds it by one re-scan of the input.  Each
production yields the bracketed word itself when its text is exactly one
(no sign, coefficient or product, operator arguments each a single
bracketed word), else a term dict, reading a bracketed word's integer
expansion from the alphabet's memo (``algebra.expansion``) only when it is
combined into a polynomial.  A sum keeps ``int`` numerators over one
common denominator, rescaling them when a coefficient's denominator does
not divide it, and makes one ``Fraction`` per term when it ends with a
denominator other than 1; ``parse_term`` makes any ``int`` coefficients
left ``Fraction``s (``algebra.as_fractions``), and returns such a sum's
dict without that copy.

Printing conventions: top-level prime factors are joined with `` * ``,
words inside operator arguments with single spaces, rationals as ``p/q``
with magnitude-one coefficients elided, and ``D`` powers of one written
``D(h)``.  The zero polynomial prints as ``0``.  Given a configuration,
``format_poly`` prints terms deg-lex descending by its alphabet's key;
without one (as ``Poly.__repr__`` does) it prints them in the
polynomial's own order, which is deterministic, since no set of terms is
ever iterated (see ``words``).  A context prints as the word it makes
with its hole filled by a prime named ``*``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .algebra import (
    AlgebraConfig,
    Poly,
    _int_multiply,
    _int_operator,
    as_fractions,
    expansion,
    lie_expand,
)
from .words import (
    Alphabet,
    Context,
    NaLeaf,
    NaOp,
    NaPair,
    Prime,
    Word,
    substitute,
)


class TermSyntaxError(ValueError):
    """Parse failure carrying the character position of the offense."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[\^()\[\]*+,/-]|\S)")
_BAD = re.compile(r"[^\s\dA-Za-z_\^()\[\]*+,/-]")


class _Parser:
    """Recursive descent over string tokens; ``tokens[i]`` is the next one."""

    __slots__ = ("text", "tokens", "alphabet", "i", "fraction_sum")

    def __init__(self, text: str, alphabet: Alphabet):
        bad = _BAD.search(text)
        if bad is not None:
            raise TermSyntaxError("unexpected character %r" % bad.group(), bad.start())
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.alphabet = alphabet
        self.i = 0
        # The last term dict a sum made with every coefficient a Fraction.
        self.fraction_sum = None

    def error(self, message: str, at: int) -> TermSyntaxError:
        """A ``TermSyntaxError`` at token ``at``'s position, found by re-scanning."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        return TermSyntaxError(message, starts[at])

    def found(self, message: str) -> TermSyntaxError:
        """``error`` at the next token, naming it."""
        return self.error(
            "%s, found %r" % (message, self.tokens[self.i] or "end of input"), self.i
        )

    # -- grammar -------------------------------------------------------------
    # Each production returns the bracketed word itself when its text is
    # exactly one, else a fresh term dict with int or Fraction coefficients.

    def parse_poly(self):
        tokens = self.tokens
        sign = tokens[self.i]
        if sign == "+" or sign == "-":
            self.i += 1
        num, den, t = self.parse_mono(sign)
        if num is None:
            if tokens[self.i] != "+" and tokens[self.i] != "-":
                return t
            num = 1
        alphabet = self.alphabet
        total: dict = {}  # numerators over the common denominator ``common``
        common = 1
        while True:
            if num:
                if type(t) is not dict:
                    t = expansion(alphabet, t)
                for w, c in t.items():
                    if type(c) is int:
                        n, d = num * c, den
                    else:  # an operator argument's sum kept a denominator
                        n, d = num * c.numerator, den * c.denominator
                    if common % d:
                        scale = d // gcd(common, d)
                        common *= scale
                        for u in total:
                            total[u] *= scale
                    n = total.get(w, 0) + n * (common // d)
                    if n:
                        total[w] = n
                    else:
                        del total[w]
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                break
            self.i += 1
            num, den, t = self.parse_mono(sign)
        if common == 1:
            return total
        self.fraction_sum = {w: Fraction(n, common) for w, n in total.items()}
        return self.fraction_sum

    def parse_mono(self, sign):
        """(numerator, denominator, value) of a monomial; ``sign`` is the
        token before it, a sign only when it was read as one.  The numerator
        is None when the text has neither sign nor number."""
        tokens = self.tokens
        num = 1 if sign == "+" else -1 if sign == "-" else None
        den = 1
        tok = tokens[self.i]
        if tok.isdigit():
            self.i += 1
            n = int(tok)
            num = n if num is None else num * n
            if tokens[self.i] == "/":
                self.i += 1
                tok = tokens[self.i]
                if not tok.isdigit():
                    raise self.error("expected a denominator", self.i)
                den = int(tok)
                if den == 0:
                    raise self.error("zero denominator", self.i)
                self.i += 1
            tok = tokens[self.i]
        if tok == "[":
            t = self.parse_naword()
        elif tok.isidentifier():
            t = self.parse_prime(False)
        elif num == 0:  # a bare rational must be zero
            return 0, 1, {}
        else:
            raise self.found("expected a factor")
        while True:
            tok = tokens[self.i]
            if tok == "*":
                self.i += 1
                tok = tokens[self.i]
                if tok != "[" and not tok.isidentifier():
                    raise self.found("expected a factor after '*'")
            elif tok != "[" and not tok.isidentifier():
                return num, den, t
            u = self.parse_naword() if tok == "[" else self.parse_prime(False)
            t = _int_multiply(
                t if type(t) is dict else expansion(self.alphabet, t),
                u if type(u) is dict else expansion(self.alphabet, u),
            )

    def parse_naword(self):
        tokens = self.tokens
        if tokens[self.i] != "[":
            return self.parse_prime(True)
        self.i += 1
        left = self.parse_naword()
        right = self.parse_naword()
        if tokens[self.i] != "]":
            raise self.found("expected ']'")
        self.i += 1
        return NaPair(left, right)

    def parse_prime(self, in_brackets: bool):
        """A (possibly D-wrapped) generator or operator application.

        Operator arguments are bracketed words ``in_brackets``, else
        polynomials.
        """
        tokens = self.tokens
        at = self.i
        name = tokens[at]
        if not name.isidentifier():
            raise self.found("expected a symbol")
        after = tokens[at + 1]
        if name == "D" and (after == "(" or after == "^"):
            power = 1
            if after == "^":
                at += 2
                if not tokens[at].isdigit():
                    raise self.error("expected a power", at)
                power = int(tokens[at])
            self.i = at + 1
            if tokens[self.i] != "(":
                raise self.found("expected '('")
            self.i += 1
            inner = self.parse_prime(in_brackets)
            if tokens[self.i] != ")":
                raise self.found("expected ')'")
            self.i += 1
            if type(inner) is not dict:
                return NaLeaf(inner.d_power + power, inner.head)
            # an operator application is a sum of one-prime words
            return {Word((w.primes[0].shifted(power),)): c for w, c in inner.items()}
        self.i = at + 1
        alphabet = self.alphabet
        if alphabet.is_generator(name):
            return NaLeaf(0, name)
        try:
            arity = alphabet.arity(name)
        except KeyError:
            raise self.error("unknown symbol %r" % name, at) from None
        if after != "(":
            raise self.found("expected '('")
        self.i += 1
        parse_arg = self.parse_naword if in_brackets else self.parse_poly
        args = [parse_arg()]
        while tokens[self.i] == ",":
            self.i += 1
            args.append(parse_arg())
        if tokens[self.i] != ")":
            raise self.found("expected ')'")
        self.i += 1
        if len(args) != arity:
            raise self.error(
                "operator %r expects %d argument(s), got %d"
                % (name, arity, len(args)),
                at,
            )
        if any(type(a) is dict for a in args):
            terms = [a if type(a) is dict else expansion(alphabet, a) for a in args]
            return _int_operator(name, terms, 0)
        return NaLeaf(0, NaOp(name, tuple(args)))


def parse_term(s: str, alphabet: Alphabet):
    """Parse ``s`` to a bracketed word when it is exactly one, else a Poly."""
    parser = _Parser(s, alphabet)
    t = parser.parse_poly()
    trailing = parser.tokens[parser.i]
    if trailing:
        raise parser.error("unexpected trailing input %r" % trailing, parser.i)
    if type(t) is not dict:
        return t
    return Poly(t if t is parser.fraction_sum else as_fractions(t))


def parse_poly(s: str, alphabet: Alphabet) -> Poly:
    """Parse ``s`` as a polynomial, expanding any bracketed factors."""
    t = parse_term(s, alphabet)
    if isinstance(t, Poly):
        return t
    return lie_expand(AlgebraConfig(alphabet), t)


def parse_word(s: str, alphabet: Alphabet) -> Word:
    """Parse ``s`` as a single monic monomial and return its word."""
    p = parse_poly(s, alphabet)
    if len(p.terms) != 1:
        raise TermSyntaxError(
            "expected a single word, got %d terms" % len(p.terms), 0
        )
    ((w, c),) = p.terms.items()
    if c != 1:
        raise TermSyntaxError("expected coefficient 1, got %s" % c, 0)
    return w


# ---------------------------------------------------------------------------
# Printing.


def _d_wrap(k: int, text: str) -> str:
    if k == 0:
        return text
    if k == 1:
        return "D(%s)" % text
    return "D^%d(%s)" % (k, text)


def format_prime(p: Prime) -> str:
    head = p.head
    if type(head) is not str:
        head = "%s(%s)" % (head.name, ", ".join(map(_format_arg_word, head.args)))
    return _d_wrap(p.d_power, head)


def _format_arg_word(w: Word) -> str:
    return " ".join(format_prime(p) for p in w.primes)


def format_word(w: Word) -> str:
    return " * ".join(format_prime(p) for p in w.primes)


def format_naword(t) -> str:
    if type(t) is NaPair:
        return "[%s %s]" % (format_naword(t.left), format_naword(t.right))
    head = t.head
    if type(head) is not str:
        head = "%s(%s)" % (head.name, ", ".join(map(format_naword, head.args)))
    return _d_wrap(t.d_power, head)


def format_context(ctx: Context) -> str:
    return format_word(substitute(ctx, Word((Prime(0, "*"),))))


def _coeff_prefix(c: Fraction, first: bool) -> str:
    if first:
        if c == 1:
            return ""
        if c == -1:
            return "-"
        return "%s " % c
    if c == 1:
        return " + "
    if c == -1:
        return " - "
    if c > 0:
        return " + %s " % c
    return " - %s " % -c


def _signed_sum(pairs, fmt) -> str:
    """Join (coefficient, term) pairs as a signed sum; ``0`` when empty."""
    pieces = []
    for c, t in pairs:
        pieces.append(_coeff_prefix(c, not pieces))
        pieces.append(fmt(t))
    return "".join(pieces) or "0"


def format_poly(p: Poly, config: AlgebraConfig | None = None) -> str:
    """Terms deg-lex descending under ``config``, else in ``p``'s own order."""
    items = p.terms.items()
    if config is not None:
        key = config.alphabet.key
        items = sorted(items, key=lambda t: key(t[0]), reverse=True)
    return _signed_sum(((c, w) for w, c in items), format_word)


def format_combination(terms) -> str:
    """Format a sequence of (coefficient, bracketed word) pairs."""
    return _signed_sum(terms, format_naword)


def format_term(t, config: AlgebraConfig | None = None) -> str:
    """Canonical text for any value the engine emits."""
    if isinstance(t, Poly):
        return format_poly(t, config)
    if isinstance(t, (NaLeaf, NaPair)):
        return format_naword(t)
    if isinstance(t, Word):
        return format_word(t)
    if isinstance(t, Prime):
        return format_prime(t)
    if isinstance(t, Context):
        return format_context(t)
    terms = getattr(t, "terms", None)
    if isinstance(terms, tuple):
        return format_combination(terms)
    raise TypeError("cannot format %r" % type(t).__name__)
