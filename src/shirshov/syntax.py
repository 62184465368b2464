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
wrappers such as ``D(D(x1))`` accumulate into a single power.  The input is
read in one pass, and each production yields the bracketed word itself
when its text is exactly one (no sign, coefficient or product, operator
arguments each a single bracketed word), else a polynomial.  A bracketed
word is expanded to commutators, through the alphabet's memo, only when it
is combined into a polynomial.

Printing conventions: top-level prime factors are joined with `` * ``,
words inside operator arguments with single spaces, rationals as ``p/q``
with magnitude-one coefficients elided, and ``D`` powers of one written
``D(h)``.  The zero polynomial prints as ``0``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import ONE, AlgebraConfig, Poly, apply_operator, lie_expand
from .words import (
    Alphabet,
    ArgHole,
    Context,
    Hole,
    NaLeaf,
    NaOp,
    NaPair,
    Prime,
    Word,
)


class TermSyntaxError(ValueError):
    """Parse failure carrying the character position of the offense."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[\^()\[\]*+,/-])
    """,
    re.VERBOSE,
)


def tokenize(s: str):
    """Tokens as (kind, text, position); kinds: number, ident, sym."""
    out = []
    pos = 0
    n = len(s)
    while pos < n:
        m = _TOKEN.match(s, pos)
        if m is None:
            raise TermSyntaxError("unexpected character %r" % s[pos], pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, alphabet: Alphabet, length: int):
        self.tokens = tokens
        self.alphabet = alphabet
        self.config = AlgebraConfig(alphabet)
        self.i = 0
        self.length = length

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, "", self.length)

    def peek2(self):
        if self.i + 1 < len(self.tokens):
            return self.tokens[self.i + 1]
        return (None, "", self.length)

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_sym(self, text):
        kind, value, pos = self.peek()
        if kind != "sym" or value != text:
            raise TermSyntaxError(
                "expected %r, found %r" % (text, value or "end of input"), pos
            )
        self.i += 1

    def expect_end(self):
        kind, value, pos = self.peek()
        if kind is not None:
            raise TermSyntaxError("unexpected trailing input %r" % value, pos)

    def at_sym(self, text) -> bool:
        kind, value, _ = self.peek()
        return kind == "sym" and value == text

    def _poly(self, t) -> Poly:
        """``t`` as a polynomial, expanding a bracketed word via the memo."""
        return t if type(t) is Poly else lie_expand(self.config, t)

    # -- grammar -------------------------------------------------------------
    # Each production returns the bracketed word itself when its text is
    # exactly one, else a Poly.

    def parse_poly(self):
        sign = None
        if self.at_sym("+") or self.at_sym("-"):
            sign = -ONE if self.advance()[1] == "-" else ONE
        total = self.parse_mono(sign)
        while self.at_sym("+") or self.at_sym("-"):
            sign = ONE if self.advance()[1] == "+" else -ONE
            total = self._poly(total) + self._poly(self.parse_mono(sign))
        return total

    def parse_mono(self, sign: Fraction | None):
        coeff = ONE if sign is None else sign
        had_rat = self.peek()[0] == "number"
        if had_rat:
            coeff = coeff * self.parse_rat()
        if not self._at_factor():
            if had_rat and coeff == 0:
                return Poly.zero()
            _, value, pos = self.peek()
            raise TermSyntaxError(
                "expected a factor, found %r" % (value or "end of input"), pos
            )
        t = self.parse_factor()
        while True:
            if self.at_sym("*"):
                self.advance()
                if not self._at_factor():
                    _, value, pos = self.peek()
                    raise TermSyntaxError(
                        "expected a factor after '*', found %r"
                        % (value or "end of input"),
                        pos,
                    )
            elif not self._at_factor():
                break
            t = self._poly(t) * self._poly(self.parse_factor())
        if sign is None and not had_rat and type(t) is not Poly:
            return t
        return self._poly(t).scale(coeff)

    def parse_rat(self) -> Fraction:
        kind, value, pos = self.peek()
        if kind != "number":
            raise TermSyntaxError("expected a number", pos)
        self.advance()
        num = int(value)
        if self.at_sym("/"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "number":
                raise TermSyntaxError("expected a denominator", pos)
            self.advance()
            den = int(value)
            if den == 0:
                raise TermSyntaxError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def _at_factor(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "ident" or (kind == "sym" and value == "[")

    def parse_factor(self):
        if self.at_sym("["):
            return self.parse_naword()
        return self.parse_prime(self.parse_poly)

    def parse_naword(self):
        if self.at_sym("["):
            self.advance()
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
        kind, value, pos = self.peek()
        if kind != "ident":
            raise TermSyntaxError(
                "expected a symbol, found %r" % (value or "end of input"), pos
            )
        if value == "D":
            k2, v2, _ = self.peek2()
            if k2 == "sym" and v2 in ("^", "("):
                self.advance()
                power = 1
                if self.at_sym("^"):
                    self.advance()
                    nk, nv, npos = self.peek()
                    if nk != "number":
                        raise TermSyntaxError("expected a power", npos)
                    self.advance()
                    power = int(nv)
                self.expect_sym("(")
                inner = self.parse_prime(parse_arg)
                self.expect_sym(")")
                if type(inner) is not Poly:
                    return NaLeaf(inner.d_power + power, inner.head)
                # an operator application is a sum of one-prime words
                return Poly(
                    {
                        Word((w.primes[0].shifted(power),)): c
                        for w, c in inner.terms.items()
                    }
                )
        self.advance()
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
            self.advance()
            args.append(parse_arg())
        self.expect_sym(")")
        if len(args) != arity:
            raise TermSyntaxError(
                "operator %r expects %d argument(s), got %d"
                % (value, arity, len(args)),
                pos,
            )
        if any(type(a) is Poly for a in args):
            return apply_operator(value, *map(self._poly, args))
        return NaLeaf(0, NaOp(value, tuple(args)))


def parse_term(s: str, alphabet: Alphabet):
    """Parse ``s`` to a bracketed word when it is exactly one, else a Poly."""
    parser = _Parser(tokenize(s), alphabet, len(s))
    t = parser.parse_poly()
    parser.expect_end()
    return t


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


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


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
    return " * ".join(_context_pieces(ctx))


def _context_pieces(ctx: Context):
    pieces = [format_prime(p) for p in ctx.before]
    core = ctx.core
    pieces.append("*" if type(core) is Hole else _format_arghole(core))
    pieces.extend(format_prime(p) for p in ctx.after)
    return pieces


def _format_arghole(core: ArgHole) -> str:
    args = [_format_arg_word(a) for a in core.args_before]
    args.append(" ".join(_context_pieces(core.inner)))
    args.extend(_format_arg_word(a) for a in core.args_after)
    return _d_wrap(core.d_power, "%s(%s)" % (core.name, ", ".join(args)))


def _structural_gen_rank(name: str):
    m = re.fullmatch(r"([A-Za-z_]+?)(\d+)", name)
    if m:
        return (0, m.group(1), -int(m.group(2)))
    return (1, tuple(-ord(c) for c in name))


def structural_key(w: Word):
    """Alphabet-free stand-in for the deg-lex key.

    Generators with a numeric suffix rank descending by index (x1 above x2);
    other names rank by reversed character order (x above y).  Used by plain
    reprs and as the fallback printer order when no configuration is given:
    those always print in the deg-lex order, whatever the alphabet's order.
    """
    return (w.degree, w.breadth) + tuple(
        _structural_prime_key(p) for p in w.primes
    )


def _structural_prime_key(p: Prime):
    head = p.head
    if p.d_power > 0:
        return (p.degree, (0,), structural_key(Word((Prime(p.d_power - 1, head),))))
    if type(head) is str:
        return (1, (1,), _structural_gen_rank(head))
    return (
        p.degree,
        (2, head.name),
        tuple(structural_key(a) for a in head.args),
    )


def _coeff_prefix(c: Fraction, first: bool) -> str:
    if first:
        if c == 1:
            return ""
        if c == -1:
            return "-"
        return format_rational(c) + " "
    if c == 1:
        return " + "
    if c == -1:
        return " - "
    if c > 0:
        return " + %s " % format_rational(c)
    return " - %s " % format_rational(-c)


def format_poly(p: Poly, config: AlgebraConfig | None = None) -> str:
    if not p.terms:
        return "0"
    key = config.alphabet.key if config is not None else structural_key
    items = sorted(p.terms.items(), key=lambda t: key(t[0]), reverse=True)
    pieces = []
    for idx, (w, c) in enumerate(items):
        pieces.append(_coeff_prefix(c, idx == 0))
        pieces.append(format_word(w))
    return "".join(pieces)


def format_combination(terms) -> str:
    """Format a sequence of (coefficient, bracketed word) pairs."""
    terms = list(terms)
    if not terms:
        return "0"
    pieces = []
    for idx, (c, t) in enumerate(terms):
        pieces.append(_coeff_prefix(c, idx == 0))
        pieces.append(format_naword(t))
    return "".join(pieces)


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
