"""Expression syntax and the command-line front end."""

import gc
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from shirshov import (
    AlgebraConfig,
    Alphabet,
    DrblSystem,
    NaLeaf,
    NaPair,
    Poly,
    TermSyntaxError,
    apply_D,
    apply_operator,
    commutator,
    drbl_nf,
    enumerate_alsw,
    enumerate_basis,
    format_poly,
    format_term,
    multiply,
    parse_poly,
    parse_term,
    parse_word,
    shirshov_bracket,
)
import shirshov.cli
from shirshov.cli import MAX_GENS, main, make_alphabet
from shirshov.words import ArgHole, Context, Hole, enumerate_words
from oracles import expand_template as oracle_lie_expand
from oracles import oracle_parse_term


X1 = make_alphabet(1)
X2 = make_alphabet(2)


def test_canonical_strings_survive_a_round_trip():
    canonical = [
        "x1",
        "D(x1)",
        "D^2(x1)",
        "P(x1 x2) * D(x1)",
        "P(P(x1))",
        "x1 * x2 - x2 * x1",
        "-3/2 D(x1)",
        "1/3 P(x1) + 2 x2",
        "[x1 [x1 x2]]",
        "[P(x1) x2]",
    ]
    for s in canonical:
        value = parse_term(s, X2)
        assert format_term(value) == s


def test_values_survive_a_round_trip():
    rng = random.Random(13)
    config = AlgebraConfig(X2, Fraction(1))
    by_deg = enumerate_words(X2, 4)
    pool = [w for d in by_deg for w in by_deg[d]]
    for u in pool:
        assert parse_word(format_term(u), X2) == u
    for _ in range(30):
        p = Poly.zero()
        for _ in range(4):
            p = p + Poly.word(
                rng.choice(pool), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            )
        s = format_poly(p, config)
        assert parse_poly(s, X2) == p
        assert format_poly(parse_poly(s, X2), config) == s


def test_d_zero_parses_to_the_bare_head():
    assert parse_word("D^0(x1)", X1) == parse_word("x1", X1)
    assert format_term(parse_word("D^0(x1)", X1)) == "x1"


def test_bracketed_expressions_expand():
    got = parse_poly("[x1 x2] + x2 x1", X2)
    assert got == parse_poly("x1 x2", X2)
    t = parse_term("[x1 x2]", X2)
    assert isinstance(t, NaPair)


def test_parse_errors_carry_positions():
    with pytest.raises(TermSyntaxError) as e:
        parse_poly("q(x1)", X1)
    assert e.value.position == 0
    assert "unknown symbol" in str(e.value)
    with pytest.raises(TermSyntaxError) as e:
        parse_poly("x1 + q", X1)
    assert e.value.position == 5
    with pytest.raises(TermSyntaxError) as e:
        parse_poly("P(x1, x1)", X1)
    assert "argument" in str(e.value)
    with pytest.raises(TermSyntaxError):
        parse_poly("1/0 x1", X1)
    with pytest.raises(TermSyntaxError):
        parse_poly("x1 @", X1)
    with pytest.raises(TermSyntaxError):
        parse_poly("P(x1", X1)
    with pytest.raises(TermSyntaxError):
        parse_word("x1 + x2", X2)
    with pytest.raises(TermSyntaxError):
        parse_word("2 x1", X1)


@pytest.mark.parametrize(
    "text, message, position",
    [
        # inside brackets operator arguments are single bracketed words
        ("[P(x1 x2) x1]", "expected ')', found 'x2'", 6),
        ("[x1 P(+x1)]", "expected a symbol, found '+'", 6),
        ("[D(x1 x2) x1]", "expected ')', found 'x2'", 6),
        ("[x1 x2", "expected ']', found 'end of input'", 6),
        ("[x1 x2 x1]", "expected ']', found 'x1'", 7),
        ("[x1 q]", "unknown symbol 'q'", 4),
        ("[P(x1, x2) x1]", "operator 'P' expects 1 argument(s), got 2", 1),
        ("[x1]", "expected a symbol, found ']'", 3),
        ("[D([x1 x2]) x1]", "expected a symbol, found '['", 3),
        # outside brackets they are polynomials
        ("P(x1 +)", "expected a factor, found ')'", 6),
        ("P(x1,)", "expected a factor, found ')'", 5),
        ("P(x1 * )", "expected a factor after '*', found ')'", 7),
        ("P(q)", "unknown symbol 'q'", 2),
        ("P()", "expected a factor, found ')'", 2),
        ("P([x1 x2)", "expected ']', found ')'", 8),
        ("P([x1 x2] x1", "expected ')', found 'end of input'", 12),
        ("P(1/0 x1)", "zero denominator", 4),
        # D wraps one generator or operator application
        ("D([x1 x2])", "expected a symbol, found '['", 2),
        ("D(x1 x2)", "expected ')', found 'x2'", 5),
        ("D^(x1)", "expected a power", 2),
        ("D^2 x1", "expected '(', found 'x1'", 4),
        ("[D^2 x1 x2]", "expected '(', found 'x1'", 5),
        ("D(q)", "unknown symbol 'q'", 2),
        ("D()", "expected a symbol, found ')'", 2),
        ("D^2(P(x1 +))", "expected a factor, found ')'", 10),
        ("D(P([x1 P(x1 x2)]))", "expected ')', found 'x2'", 13),
        # positions count leading and inner whitespace
        ("  @x1", "unexpected character '@'", 2),
        ("x1 @ x2", "unexpected character '@'", 3),
        ("x1\t@", "unexpected character '@'", 3),
        ("x1 \u00e9", "unexpected character '\u00e9'", 3),
        ("P(x1", "expected ')', found 'end of input'", 4),
        ("  P(x1  ", "expected ')', found 'end of input'", 8),
        ("1/0 x1", "zero denominator", 2),
        ("1/ x1", "expected a denominator", 3),
        ("P(x1, x1)", "operator 'P' expects 1 argument(s), got 2", 0),
        ("x1 + q", "unknown symbol 'q'", 5),
        ("  x1 +  q", "unknown symbol 'q'", 8),
        ("x1 x3", "unknown symbol 'x3'", 3),
        ("x1 + ", "expected a factor, found 'end of input'", 5),
        ("", "expected a factor, found 'end of input'", 0),
        ("   ", "expected a factor, found 'end of input'", 3),
        ("- 2/3", "expected a factor, found 'end of input'", 5),
        ("x1 * * x2", "expected a factor after '*', found '*'", 5),
        # trailing input
        ("x1 x2)", "unexpected trailing input ')'", 5),
        ("[x1 x2] ,", "unexpected trailing input ','", 8),
        ("x1 ^ 2", "unexpected trailing input '^'", 3),
        # a stray character is reported before any grammar error
        ("x1 ) @", "unexpected character '@'", 5),
    ],
)
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(TermSyntaxError) as e:
        parse_term(text, X2)
    assert str(e.value) == "%s (at position %d)" % (message, position)
    assert e.value.position == position


@pytest.mark.parametrize(
    "text, node",
    [
        ("x1", "x1"),
        ("D^0(x1)", "x1"),
        ("D(D^2(x1))", "D^3(x1)"),
        ("P(P(x1))", "P(P(x1))"),
        ("D(P([x1 x2]))", "D(P([x1 x2]))"),
        ("[x1 x2]", "[x1 x2]"),
        ("[P(x1) D(x2)]", "[P(x1) D(x2)]"),
        ("+x1", None),
        ("-x1", None),
        ("+[x1 x2]", None),
        ("1 x1", None),
        ("P(-x1)", None),
        ("P(1 x1)", None),
        ("P(x1 x2)", None),
        ("D(P(x1 x2))", None),
        ("x1 x2", None),
        ("[x1 x2] x1", None),
        ("x1 + x2", None),
    ],
)
def test_exactly_one_bracketed_word_parses_to_a_node(text, node):
    t = parse_term(text, X2)
    if node is None:
        assert type(t) is Poly
    else:
        assert type(t) in (NaLeaf, NaPair)
        assert format_term(t) == node


def test_one_polynomial_argument_makes_the_application_a_polynomial():
    alphabet = Alphabet(("x", "y"), (("P", 1), ("Q", 2)))
    config = AlgebraConfig(alphabet)
    t = parse_term("Q(x, [x y])", alphabet)
    assert type(t) is NaLeaf and format_term(t) == "Q(x, [x y])"
    xy = oracle_lie_expand(config, parse_term("[x y]", alphabet))
    got = parse_term("Q(x x, [x y])", alphabet)
    want = apply_operator("Q", parse_poly("x x", alphabet), xy)
    assert type(got) is Poly and got.terms == want.terms
    got = parse_term("D(Q([x y], -y))", alphabet)
    want = apply_D(config, apply_operator("Q", xy, parse_poly("-y", alphabet)))
    assert type(got) is Poly and got.terms == want.terms


def test_identity_shapes_parse_to_the_oracle_expansion():
    # the nf-corpus shapes: P and D applied to bracketed words inside sums
    config = AlgebraConfig(X2, Fraction(1))
    brackets = [
        shirshov_bracket(u, X2) for u in enumerate_alsw(config, 3) if u.breadth > 1
    ]
    brackets.append(NaLeaf(0, "x1"))
    assert len(brackets) >= 4

    def P(p):
        return apply_operator("P", p)

    for a in brackets:
        A = oracle_lie_expand(config, a)
        ta = format_term(a)
        got = parse_poly("D(P(%s)) - %s" % (ta, ta), X2)
        assert got.terms == (apply_D(config, P(A)) - A).terms
        got = parse_poly("D^2(P(%s)) + 3/2 P(%s) x2" % (ta, ta), X2)
        want = apply_D(config, P(A), 2) + multiply(P(A), parse_poly("x2", X2)).scale(
            Fraction(3, 2)
        )
        assert got.terms == want.terms
        for b in brackets:
            B = oracle_lie_expand(config, b)
            tb = format_term(b)
            text = "[P(%s) P(%s)] - P([%s P(%s)]) - P([P(%s) %s]) - P([%s %s])" % (
                ta, tb, ta, tb, ta, tb, ta, tb,
            )
            want = (
                commutator(P(A), P(B))
                - P(commutator(A, P(B)))
                - P(commutator(P(A), B))
                - P(commutator(A, B))
            )
            got = parse_term(text, X2)
            assert type(got) is Poly
            assert got.terms == want.terms
            assert all(type(c) is Fraction for c in got.terms.values())


def test_rational_combinations_parse_to_the_oracle_sum():
    rng = random.Random(29)
    config = AlgebraConfig(X2, Fraction(1))
    brackets = [shirshov_bracket(u, X2) for u in enumerate_alsw(config, 5)]
    for _ in range(60):
        text = ""
        want = Poly.zero()
        for k in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            t = rng.choice(brackets)
            a = oracle_lie_expand(config, t)
            body = format_term(t)
            if rng.random() < 0.3:
                a = apply_operator("P", a)
                body = "P(%s)" % body
            text += "%s %s %s " % ("-" if c < 0 else "+", abs(c), body)
            want = want + a.scale(c)
        got = parse_poly(text, X2)
        assert got == want, text
        assert all(type(c) is Fraction for c in got.terms.values())


def _nf_corpus_shapes(seed, n):
    """``n`` seeded expressions of the nf-corpus kinds at degree 5: Rota-Baxter
    and section identities over basis elements, and rational combinations
    of standard-bracketed ALSW words."""
    rng = random.Random(seed)
    config = AlgebraConfig(X2, Fraction(1))
    basis = enumerate_basis(DrblSystem(config), 3)
    small = [(d, format_term(t)) for d in sorted(basis) for t in basis[d]]
    brackets = [
        format_term(shirshov_bracket(u, X2)) for u in enumerate_alsw(config, 5)
    ]
    out = []
    for k in range(n):
        if k % 3 == 0:
            da, a = rng.choice([e for e in small if e[0] <= 2])
            _, b = rng.choice([e for e in small if e[0] <= 3 - da])
            out.append(
                "[P(%s) P(%s)] - P([%s P(%s)]) - P([P(%s) %s]) - P([%s %s])"
                % (a, b, a, b, a, b, a, b)
            )
        elif k % 3 == 1:
            _, a = rng.choice(small)
            out.append("D(P(%s)) - %s" % (a, a))
        else:
            text = ""
            for w in rng.sample(brackets, rng.randint(1, 4)):
                c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                text += " %s %s %s" % (rng.choice("+-"), c, w)
            out.append(text.lstrip(" +"))
    return out


def _outcome(parse, text):
    try:
        return parse(text, X2), None
    except TermSyntaxError as e:
        return None, (str(e), e.position)


def test_parser_agrees_with_the_token_triple_oracle():
    inserts = ["[", "]", "(", ")", ",", "*", "+", "-", "/", "^", "D", "7", "x1", "@"]
    parsed = failed = 0
    for text in _nf_corpus_shapes(17, 30):
        inputs = [text]
        inputs += [text[:i] + text[i + 1 :] for i in range(len(text))]
        inputs += [
            text[:i] + piece + text[i:]
            for i in range(len(text) + 1)
            for piece in inserts
        ]
        for s in inputs:
            got, got_error = _outcome(parse_term, s)
            want, want_error = _outcome(oracle_parse_term, s)
            assert got_error == want_error, s
            if want_error is not None:
                failed += 1
            elif type(want) is Poly:
                parsed += 1
                assert type(got) is Poly and got == want, s
                assert all(type(c) is Fraction for c in got.terms.values()), s
            else:
                parsed += 1
                assert got is want, s
    assert parsed > 1000 and failed > 10000


def test_sums_over_one_denominator_reduce_at_the_end():
    assert parse_poly("1/2 x1 + 1/3 x1 - 5/6 x1", X1).terms == {}
    x1 = parse_word("x1", X1)
    for text in ("2/4 x1", "1/6 x1 + 1/3 x1"):
        ((w, c),) = parse_poly(text, X1).terms.items()
        assert w == x1 and c == Fraction(1, 2) and type(c) is Fraction
    ((w, c),) = parse_poly("P(1/2 x1) * P(1/3 x2)", X2).terms.items()
    assert w == parse_word("P(x1) * P(x2)", X2) and c == Fraction(1, 6)
    # an operator argument's sum keeps its denominator into the outer sum
    text = "3/4 P(1/2 x1 - 2/3 [x1 x2]) - 1/6 P(x1 x2) + 5 x2"
    assert parse_poly(text, X2) == oracle_parse_term(text, X2)


def test_parsing_leaves_no_reference_cycles():
    gc.collect()
    t = parse_term("1/2 P(1/3 x1 - [x1 x2]) * D(P(2/5 x2 + x1)) - 3/4 [P(x1) x2]", X2)
    assert type(t) is Poly
    with pytest.raises(TermSyntaxError):
        parse_term("1/2 P(1/3 x1 - [x1 x2 x1]) + x1", X2)
    del t
    assert gc.collect() == 0


def test_whitespace_is_insignificant():
    a = parse_poly("P( x1   x2 ) * D( x1 )", X2)
    b = parse_poly("P(x1 x2)*D(x1)", X2)
    assert a == b


def test_zero_polynomial_formats_as_zero():
    assert format_poly(Poly.zero()) == "0"
    assert parse_poly("0 x1", X1) == Poly.zero()


def test_primes_and_contexts_format_as_the_trace_prints_them():
    w = parse_word("P(x1 x2) D(x1) x2", X2)
    assert [format_term(p) for p in w.primes] == ["P(x1 x2)", "D(x1)", "x2"]
    top = Context(w.primes[:1], Hole(0), w.primes[2:])
    assert format_term(top) == "P(x1 x2) * * * x2"
    inner = Context((), Hole(0), w.primes[0].head.args[0].primes[1:])
    nested = Context((), ArgHole(0, "P", (), inner, ()), w.primes[1:])
    assert format_term(nested) == "P(* x2) * D(x1) * x2"


def test_polys_print_in_their_own_order_unless_a_configuration_sorts_them():
    x1, x2, x1x2 = (parse_word(s, X2) for s in ("x1", "x2", "x1 x2"))
    p = Poly({x2: Fraction(1), x1x2: Fraction(-1), x1: Fraction(3, 2)})
    assert format_poly(p) == repr(p) == "x2 - x1 * x2 + 3/2 x1"
    assert format_poly(p, AlgebraConfig(X2)) == "-x1 * x2 + 3/2 x1 + x2"


# ---------------------------------------------------------------------------
# CLI subcommands, byte-exact.


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_nf_lie_example(capsys):
    rc, out, err = run_cli(
        capsys, "nf", "--lambda", "1", "--mode", "lie", "--max-deg", "4",
        "[P(x1) P(x2)]",
    )
    assert rc == 0 and err == ""
    assert out == "P([P(x1) x2]) - P([P(x2) x1]) + P([x1 x2])\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--max-deg", "1", "0"],
        ["nf", "--lambda", "1", "--max-deg", "4",
         "[P(x1) P(x2)] - P([P(x1) x2]) + P([P(x2) x1]) - P([x1 x2])"],
    ],
    ids=["bare-zero", "rota-baxter-identity"],
)
def test_cli_nf_prints_a_zero_normal_form_as_0(capsys, argv):
    # a bare rational must be zero; f(x2, x1) at weight 1 is in the ideal
    assert run_cli(capsys, *argv) == (0, "0\n", "")


def test_cli_nf_assoc_matches_library(capsys):
    from shirshov import DrblSystem

    rc, out, err = run_cli(
        capsys, "nf", "--lambda", "1", "--mode", "assoc", "--max-deg", "4",
        "P(x1) P(x2)",
    )
    assert rc == 0 and err == ""
    config = AlgebraConfig(X2, Fraction(1))
    engine = DrblSystem(config).system(4)
    expect = engine.reduce(parse_poly("P(x1) P(x2)", X2), mode="assoc")
    assert out == format_poly(expect, config) + "\n"


def test_cli_nf_rejects_oversized_input(capsys):
    rc, out, err = run_cli(
        capsys, "nf", "--mode", "lie", "--max-deg", "2", "P(P(x1))"
    )
    assert rc == 2 and out == ""
    assert err.startswith("error:")
    rc, _, err = run_cli(
        capsys, "nf", "--mode", "assoc", "--max-deg", "2", "P(P(x1))"
    )
    assert rc == 2 and "exceeds" in err


def test_cli_nf_parse_failure_exits_2(capsys):
    rc, out, err = run_cli(capsys, "nf", "--max-deg", "3", "P(")
    assert rc == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [("nf", "--max-deg", "4", "x0"), ("bracket", "x0")],
    ids=["nf", "bracket"],
)
def test_cli_x0_is_an_unknown_symbol(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: unknown symbol 'x0' (at position 0)\n"


OVER_CAP = str(MAX_GENS + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--gens", OVER_CAP, "--max-deg", "2"),
        ("lyndon", "--gens", OVER_CAP, "--max-deg", "2"),
        ("check-gsb", "--system", "drbl", "--gens", OVER_CAP, "--max-deg", "3"),
        ("oracle-dim", "--gens", OVER_CAP, "--max-deg", "2"),
        ("nf", "--max-deg", "2", "x" + OVER_CAP),
        ("bracket", "x1 x" + OVER_CAP),
    ],
    ids=["basis", "lyndon", "check-gsb", "oracle-dim", "nf", "bracket"],
)
def test_cli_refuses_generators_over_the_cap_before_building_them(
    capsys, monkeypatch, argv
):
    def no_alphabet(*args, **kwargs):
        raise AssertionError("an alphabet was built")

    monkeypatch.setattr(shirshov.cli, "Alphabet", no_alphabet)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == (
        "error: %s generators (x1 to x%s) requested; at most %d are supported\n"
        % (OVER_CAP, OVER_CAP, MAX_GENS)
    )


HUGE_INDEX = "x" + "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "argv",
    [("nf", "--max-deg", "2", HUGE_INDEX), ("bracket", "x1 " + HUGE_INDEX)],
    ids=["nf", "bracket"],
)
def test_cli_refuses_an_index_of_thousands_of_digits_by_the_cap(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("at most %d are supported" % MAX_GENS)
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("index", ["0001", "0" * 5000 + "1"])
def test_cli_index_with_leading_zeros_is_an_unknown_symbol(capsys, index):
    rc, out, err = run_cli(capsys, "nf", "--max-deg", "2", "x" + index)
    assert rc == 2 and out == ""
    assert err == "error: unknown symbol 'x%s' (at position 0)\n" % index


def test_cli_accepts_generators_up_to_the_cap(capsys):
    rc, out, err = run_cli(capsys, "lyndon", "--gens", str(MAX_GENS), "--max-deg", "1")
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == "degree 1: %d" % MAX_GENS
    rc, out, err = run_cli(capsys, "nf", "--max-deg", "1", "x%d" % MAX_GENS)
    assert (rc, out, err) == (0, "x%d\n" % MAX_GENS, "")


def test_cli_basis_text(capsys):
    rc, out, err = run_cli(
        capsys, "basis", "--gens", "1", "--lambda", "1", "--max-deg", "3"
    )
    assert rc == 0 and err == ""
    assert out == (
        "degree 1: 1\n"
        "  x1\n"
        "degree 2: 2\n"
        "  D(x1)\n"
        "  P(x1)\n"
        "degree 3: 5\n"
        "  D^2(x1)\n"
        "  P(D(x1))\n"
        "  P(P(x1))\n"
        "  [D(x1) x1]\n"
        "  [P(x1) x1]\n"
    )


def test_cli_basis_json(capsys):
    rc, out, err = run_cli(
        capsys, "basis", "--gens", "1", "--lambda", "1/2", "--max-deg", "2",
        "--json",
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["lambda"] == "1/2"
    assert [d["degree"] for d in payload["degrees"]] == [1, 2]
    assert [d["count"] for d in payload["degrees"]] == [1, 2]
    assert payload["degrees"][1]["elements"] == ["D(x1)", "P(x1)"]


def test_cli_lyndon(capsys):
    rc, out, err = run_cli(capsys, "lyndon", "--gens", "2", "--max-deg", "2")
    assert rc == 0 and err == ""
    assert out == (
        "degree 1: 2\n"
        "  x2\n"
        "  x1\n"
        "degree 2: 3\n"
        "  D(x2)\n"
        "  D(x1)\n"
        "  x1 * x2\n"
    )


def test_cli_bracket(capsys):
    rc, out, err = run_cli(capsys, "bracket", "x1 x1 x2")
    assert rc == 0 and err == ""
    assert out == "[x1 [x1 x2]]\n"
    # a word, or an operator argument at any depth, that is not
    # Lyndon-Shirshov is refused with status 1 and named
    for word in ("x2 x1", "P(x2 x1)", "P(x2 x1) x1"):
        rc, out, err = run_cli(capsys, "bracket", word)
        assert rc == 1 and out == ""
        assert err == "error: not a Lyndon-Shirshov word: x2 * x1\n"


def test_cli_check_gsb_sections_pass(capsys):
    rc, out, err = run_cli(
        capsys, "check-gsb", "--system", "s1", "--lambda", "0", "--max-deg", "5"
    )
    assert rc == 0 and err == ""
    assert out == (
        "system=s1 gens=2 lambda=0 max-deg=5 mode=assoc\n"
        "pass: all 2 compositions reduce to 0\n"
    )


def test_cli_check_gsb_full_system_small_degree(capsys):
    rc, out, err = run_cli(
        capsys, "check-gsb", "--system", "drbl", "--lambda", "1",
        "--max-deg", "5",
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "system=drbl gens=2 lambda=1 max-deg=5 mode=lie"
    assert lines[1].startswith("pass: all ")


def test_cli_check_gsb_full_system_degree_seven_weight_one(capsys):
    rc, out, err = run_cli(
        capsys, "check-gsb", "--system", "drbl", "--gens", "1", "--lambda", "1",
        "--max-deg", "7",
    )
    assert rc == 0 and err == ""
    assert out.splitlines()[1].startswith("pass: all ")


@pytest.mark.parametrize(
    "weight,golden",
    [
        ("1", "check_gsb_s1_lambda_1_deg7.txt"),
        ("1/2", "check_gsb_s1_lambda_1_2_deg7.txt"),
    ],
)
def test_cli_check_gsb_prints_the_known_s1_residues_in_full(capsys, weight, golden):
    # the 12 compositions the s1 rules leave uncertified at degree 7, each
    # with its residue; completing the s1 subsystem changes these files
    rc, out, err = run_cli(
        capsys, "check-gsb", "--system", "s1", "--gens", "2", "--lambda", weight,
        "--max-deg", "7",
    )
    assert rc == 1 and err == ""
    assert out == (Path(__file__).resolve().parent / "golden" / golden).read_text()


def test_cli_check_gsb_refuses_an_incomplete_rule_system(capsys):
    # From degree 8 the completion family does not close the system for
    # nonzero weight; the CLI reports that instead of a traceback.
    rc, out, err = run_cli(
        capsys, "check-gsb", "--system", "drbl", "--gens", "1", "--lambda", "1",
        "--max-deg", "8",
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "D^3(P(P(x1) x1 x1))" in err


def test_cli_oracle_dim(capsys):
    rc, out, err = run_cli(
        capsys, "oracle-dim", "--gens", "1", "--lambda", "1", "--max-deg", "3"
    )
    assert rc == 0 and err == ""
    assert out == "degree 1: 1\ndegree 2: 2\ndegree 3: 5\n"


def test_cli_a_failed_certificate_exits_2_with_one_error_line(capsys, monkeypatch):
    # the oracle's pivot certificate raises AssertionError; main reports it
    # as an error line, not a traceback
    import shirshov.reference as reference

    monkeypatch.setattr(reference, "is_alsw", lambda u, alphabet: False)
    rc, out, err = run_cli(capsys, "oracle-dim", "--gens", "1", "--max-deg", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error: ideal pivot") and err.count("\n") == 1


def test_cli_repeated_runs_are_byte_identical(capsys):
    args = ("basis", "--gens", "2", "--lambda", "2", "--max-deg", "3", "--json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    args = ("nf", "--lambda", "1", "--mode", "lie", "--max-deg", "4",
            "[P(x1) P(x2)]")
    _, nf1, _ = run_cli(capsys, *args)
    _, nf2, _ = run_cli(capsys, *args)
    assert nf1 == nf2


def test_cli_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["basis", "--gens", "1"])  # missing --max-deg
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["nf", "--lambda", "x", "--max-deg", "3", "x1"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["check-gsb", "--system", "bogus", "--max-deg", "3"])
    capsys.readouterr()
    # a degree bound below 1 is refused on every subcommand that takes one
    for argv in (
        ["check-gsb", "--system", "drbl", "--max-deg", "0"],
        ["check-gsb", "--system", "drbl", "--max-deg", "-1"],
        ["basis", "--gens", "2", "--max-deg", "-2"],
        ["lyndon", "--gens", "2", "--max-deg", "0"],
        ["nf", "--max-deg", "0", "x1"],
        ["oracle-dim", "--gens", "1", "--max-deg", "0"],
        ["lyndon", "--gens", "2", "--max-deg", "two"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert out == "" and "error:" in err and "--max-deg" in err, argv
    # so is a generator count below 1 or not an integer, as a usage error
    for command in (
        ["basis", "--max-deg", "2"],
        ["lyndon", "--max-deg", "2"],
        ["check-gsb", "--system", "drbl", "--max-deg", "3"],
        ["oracle-dim", "--max-deg", "2"],
    ):
        for gens in ("0", "-1", "x"):
            argv = command + ["--gens", gens]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert out == "" and "error:" in err and "--gens" in err, argv
    # ``python -m shirshov`` is the same command line
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["lyndon", "--gens", "2", "--max-deg", "3"]
    run = subprocess.run(
        [sys.executable, "-m", "shirshov"] + argv,
        capture_output=True, text=True, env=env,
    )
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")
    run = subprocess.run(
        [sys.executable, "-m", "shirshov", "basis", "--gens", "0", "--max-deg", "2"],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "error:" in run.stderr and "Traceback" not in run.stderr


def test_cli_lambda_refuses_an_exponent(capsys):
    # Fraction("1e10000000") would build 10**10000000 before any work
    for weight in ("1e10000000", "1E5", "2.5e-1"):
        argv = ["nf", "--lambda", weight, "--max-deg", "3", "x1"]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert out == "" and "--lambda: not a rational: %r" % weight in err, err
        assert elapsed < 5, elapsed
    # integers, p/q and decimals are still read
    for weight, want in (("1", "1"), ("3/2", "3/2"), ("0.5", "1/2")):
        rc = main(["check-gsb", "--system", "s1", "--lambda", weight, "--max-deg", "3"])
        out, _ = capsys.readouterr()
        assert rc == 0 and "lambda=%s " % want in out, out


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--lambda", "-1/2", "--max-deg", "4", "[D(x1) P(x1)]"],
        ["basis", "--gens", "1", "--lambda", "-1/2", "--max-deg", "3", "--json"],
        ["check-gsb", "--system", "s1", "--gens", "1", "--lambda", "-1/2",
         "--max-deg", "4"],
        ["oracle-dim", "--gens", "1", "--lambda", "-1/2", "--max-deg", "4"],
    ],
    ids=["nf", "basis", "check-gsb", "oracle-dim"],
)
def test_cli_lambda_reads_a_negative_fraction_after_a_space(capsys, argv):
    # argparse alone takes -1/2 for an option: its negative numbers have no /;
    # it also takes any unambiguous prefix of --lambda for the option
    i = argv.index("--lambda")
    joined = argv[:i] + ["--lambda=-1/2"] + argv[i + 2 :]
    want = run_cli(capsys, *joined)
    assert want[0] == 0 and want[1] and not want[2]
    for flag in ("--lambda", "--lam", "--l"):
        spelled = argv[:i] + [flag] + argv[i + 1 :]
        assert run_cli(capsys, *spelled) == want, flag
        # the exponent form is still refused
        exponent = spelled[: i + 1] + ["-5e-1"] + spelled[i + 2 :]
        with pytest.raises(SystemExit) as exc:
            main(exponent)
        assert exc.value.code == 2 and "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("max_deg", ["3", "9"], ids=["at-exit", "in-print"])
def test_cli_closed_stdout_exits_2_without_a_traceback(max_deg):
    # 174 bytes fit the stdout buffer, so the pipe breaks on the final flush;
    # over 100 kB overflow it, so the pipe breaks inside a print
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "shirshov",
             "lyndon", "--gens", "2", "--max-deg", max_deg],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert len(run.stderr.splitlines()) == 1, run.stderr


def test_cli_stdout_closed_after_one_line_exits_2_with_the_error_line():
    # 383 kB is far more than a pipe holds, so the command is still
    # printing when the reader goes away
    src = str(Path(__file__).resolve().parent.parent / "src")
    with subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "shirshov",
         "lyndon", "--gens", "3", "--max-deg", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
    assert first == b"degree 1: 3\n"
    assert (rc, err) == (2, b"error: standard output closed early\n")


@pytest.mark.parametrize("mode", ["lie", "assoc"])
def test_nf_trace_prints_the_reduction_log_to_stderr(capsys, mode):
    expr = "[D(P([x1 x2])) x1] + [P(x1) P(x2)] + D^2(P(x1))"
    argv = ["nf", "--lambda", "1", "--mode", mode, "--max-deg", "5", expr]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv[:-1] + ["--trace", expr]) == 0
    traced = capsys.readouterr()
    assert plain.err == "" and traced.out == plain.out
    lines = traced.err.splitlines()
    if mode == "assoc":
        assert lines == [
            "step 1: section(x1 * x2); lift 0; context * * x1; coefficient 1",
            "step 2: section(x1 * x2); lift 0; context x1 * *; coefficient -1",
            "step 3: rota-baxter(x1, x2); lift 0; context *; coefficient 1",
            "step 4: section(x1); lift 1; context *; coefficient 1",
        ]
        return
    log = []
    drbl_nf(parse_term(expr, X2), DrblSystem(AlgebraConfig(X2, 1)), log=log)
    assert len(lines) == len(log)
    assert lines == [
        "step 1: section(x1 * x2); lift 0; context * * x1; coefficient 1",
        "step 2: rota-baxter(x1, x2); lift 0; context *; coefficient 1",
        "step 3: section(x1); lift 1; context *; coefficient 1",
    ]


def test_nf_trace_names_completion_rules(capsys):
    # at nonzero weight a completion tag carries its lift as an integer
    expr = "[D^2(x1) D^2(x2)] + D^3(P([P(x1) x1]))"
    for mode in ("lie", "assoc"):
        argv = ["nf", "--lambda", "1", "--mode", mode, "--max-deg", "7"]
        assert main(argv + ["--trace", expr]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == (
            "step 1: completion(P(x1) * x1, 2); lift 0; context *; coefficient 1"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--lambda", "1", "--max-deg", "7", "--trace",
         "[D^2(x1) D^2(x2)] + D^3(P([P(x1) x1])) + [D^2(P(x1)) P(x2)]"],
        ["nf", "--lambda", "1", "--mode", "assoc", "--max-deg", "7", "--trace",
         "[D^2(x1) D^2(x2)] + D^3(P([P(x1) x1])) + [D^2(P(x1)) P(x2)]"],
        ["check-gsb", "--system", "s1", "--lambda", "1", "--max-deg", "7"],
        ["check-gsb", "--system", "drbl", "--gens", "2", "--lambda", "0",
         "--max-deg", "7"],
        ["basis", "--gens", "2", "--lambda", "1", "--max-deg", "5"],
        ["oracle-dim", "--gens", "2", "--lambda", "1", "--max-deg", "5"],
    ],
    ids=["nf-lie", "nf-assoc", "check-gsb-s1", "check-gsb-drbl",
         "basis", "oracle-dim"],
)
def test_cli_output_does_not_depend_on_the_hash_seed(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "shirshov"] + argv,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert runs[0].stdout
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)
