"""Command-line front end.

Subcommands:

* ``nf``         — normal form of an expression (lie or assoc mode)
* ``basis``      — linear basis of the free system, by degree
* ``lyndon``     — Lyndon-Shirshov words over the generators and their
  D-powers, without P
* ``bracket``    — standard bracketing of a Lyndon-Shirshov word
* ``check-gsb``  — reduce all compositions of a rule system
* ``oracle-dim`` — quotient dimensions per degree by exact ideal rank;
  exact at weight 0, and at λ ≠ 0 only below degree 7 over two generators
  and below degree 8 over one (past that they depend on ``--max-deg``)

Generators are named x1, x2, … and ordered descending by index (x1 is the
greatest).  Rationals are read as p, p/q or a decimal without an exponent,
and printed as p or p/q.  Output is deterministic: identical invocations
produce byte-identical text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import AlgebraConfig
from .lyndon import enumerate_alsw_by_degree, shirshov_bracket
from .reference import oracle_quotient_dim
from .rota_baxter import DrblSystem, drbl_nf, enumerate_basis, instantiate_rules
from .syntax import format_context, format_poly, format_term, parse_term, parse_word
from .words import Alphabet, NaLeaf, NaPair


# The most generators a command accepts.  The name of every generator is
# built up front, so a count in the millions would run for minutes before
# any output; the tests, the CI steps and the benchmark use at most 3.
MAX_GENS = 100
_OVER_CAP = "%s generators (x1 to x%s) requested; at most %d are supported"


def make_alphabet(gens: int, with_operator: bool = True) -> Alphabet:
    """x1 > x2 > … > xN, optionally with the unary operator P."""
    if gens < 1:
        raise ValueError("need at least one generator")
    if gens > MAX_GENS:
        raise ValueError(_OVER_CAP % (gens, gens, MAX_GENS))
    names = tuple("x%d" % (i + 1) for i in range(gens))
    return Alphabet(names, (("P", 1),) if with_operator else ())


def _infer_gens(text: str) -> int:
    """Number of generators mentioned in an expression (at least 1).

    Indices compare as digit strings: one too long for ``int`` meets the cap.
    """
    found = (m.lstrip("0") for m in re.findall(r"\bx(\d+)\b", text))
    digits = max(found, key=lambda d: (len(d), d), default="")
    if len(digits) > len(str(MAX_GENS)):
        raise ValueError(_OVER_CAP % (digits, digits, MAX_GENS))
    # x0 names no generator; the parser reports it as an unknown symbol
    return max(int(digits or "0"), 1)


def _fraction(text: str) -> Fraction:
    # no exponent: Fraction("1e10000000") builds its power of ten in full
    if "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError("not a rational: %r" % text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1: %r" % text)
    return value


def _system(gens: int, args) -> DrblSystem:
    """The system over ``gens`` generators at the requested weight."""
    return DrblSystem(AlgebraConfig(make_alphabet(gens), args.weight))


def _cmd_nf(args) -> int:
    sys_ = _system(_infer_gens(args.expr), args)
    config = sys_.config
    value = parse_term(args.expr, config.alphabet)
    log = [] if args.trace else None
    if args.mode == "lie":
        nf = drbl_nf(value, sys_, max_degree=args.max_deg, log=log)
        _print_trace(log, lambda step: step.rule_index)
        print(format_term(nf, config))
        return 0
    if isinstance(value, (NaLeaf, NaPair)):
        from .algebra import lie_expand

        value = lie_expand(config, value)
    if value.max_degree() > args.max_deg:
        raise ValueError(
            "degree %d exceeds --max-deg %d" % (value.max_degree(), args.max_deg)
        )
    engine = sys_.system(args.max_deg)
    nf = engine.reduce(value, mode="assoc", log=log)
    _print_trace(log, lambda step: engine.rules[step.rule_index].origin)
    print(format_poly(nf, config))
    return 0


def _print_trace(log, tag_of) -> None:
    """One stderr line per reduction step: rule, lift, context, coefficient."""
    if log is None:
        return
    for n, step in enumerate(log, start=1):
        name, *params = tag_of(step)
        rule = "%s(%s)" % (
            name,
            ", ".join(str(p) if type(p) is int else format_term(p) for p in params),
        )
        print(
            "step %d: %s; lift %d; context %s; coefficient %s"
            % (n, rule, step.lift, format_context(step.context), step.coefficient),
            file=sys.stderr,
        )


def _print_by_degree(by_deg: dict, config: AlgebraConfig | None = None) -> None:
    """``degree d: n`` and then the terms of that degree, indented."""
    for d in sorted(by_deg):
        print("degree %d: %d" % (d, len(by_deg[d])))
        for t in by_deg[d]:
            print("  %s" % format_term(t, config))


def _cmd_basis(args) -> int:
    sys_ = _system(args.gens, args)
    config = sys_.config
    basis = enumerate_basis(sys_, args.max_deg)
    if args.json:
        payload = {
            "lambda": str(args.weight),
            "degrees": [
                {
                    "degree": d,
                    "count": len(basis[d]),
                    "elements": [format_term(t, config) for t in basis[d]],
                }
                for d in sorted(basis)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    _print_by_degree(basis, config)
    return 0


def _cmd_lyndon(args) -> int:
    alphabet = make_alphabet(args.gens, with_operator=False)
    _print_by_degree(enumerate_alsw_by_degree(alphabet, args.max_deg))
    return 0


def _cmd_bracket(args) -> int:
    alphabet = make_alphabet(_infer_gens(args.word))
    w = parse_word(args.word, alphabet)
    try:
        t = shirshov_bracket(w, alphabet)
    except ValueError as e:
        # the input, or an operator argument, is not Lyndon-Shirshov
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(format_term(t))
    return 0


def _cmd_check_gsb(args) -> int:
    sys_ = _system(args.gens, args)
    config = sys_.config
    s1_only = args.system == "s1"
    engine = sys_.system(args.max_deg, s1_only=s1_only)
    mode = "assoc" if s1_only else "lie"
    report = engine.is_gsb(mode=mode)
    print(
        "system=%s gens=%d lambda=%s max-deg=%d mode=%s"
        % (args.system, args.gens, args.weight, args.max_deg, mode)
    )
    print(report.summary())
    if not report.passed:
        for amb, residue in report.failures:
            left = engine.rules[amb.left.rule_index]
            right = engine.rules[amb.right.rule_index]
            print(
                "  %s at %s: %s[%d] over %s[%d], residue %s"
                % (
                    amb.kind,
                    format_term(amb.word),
                    left.origin[0],
                    amb.left.lift,
                    right.origin[0],
                    amb.right.lift,
                    format_poly(residue, config),
                )
            )
        return 1
    return 0


def _cmd_oracle_dim(args) -> int:
    sys_ = _system(args.gens, args)
    rules = instantiate_rules(sys_, args.max_deg)
    dims = oracle_quotient_dim(sys_.config, rules, args.max_deg)
    for d, dim in enumerate(dims, start=1):
        print("degree %d: %d" % (d, dim))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shirshov",
        description="Exact normal forms and basis checks for free "
        "differential Lie Rota-Baxter algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument(
        "--lambda",
        dest="weight",
        type=_fraction,
        default=Fraction(0),
        help="weight λ as p, p/q or a decimal",
    )
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--gens", type=_positive_int, required=True)
    sized.add_argument("--max-deg", type=_positive_int, required=True)

    p = sub.add_parser("nf", parents=[weight], help="normal form of an expression")
    p.add_argument("--mode", choices=("lie", "assoc"), default="lie")
    p.add_argument("--max-deg", type=_positive_int, required=True)
    p.add_argument(
        "--trace",
        action="store_true",
        help="print each reduction step to stderr",
    )
    p.add_argument("expr")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("basis", parents=[weight, sized], help="linear basis by degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser(
        "lyndon", parents=[sized], help="Lyndon-Shirshov words over generators"
    )
    p.set_defaults(func=_cmd_lyndon)

    p = sub.add_parser("bracket", help="standard bracketing of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("check-gsb", parents=[weight], help="reduce all compositions")
    p.add_argument("--system", choices=("drbl", "s1"), required=True)
    p.add_argument("--gens", type=_positive_int, default=2)
    p.add_argument("--max-deg", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_check_gsb)

    p = sub.add_parser(
        "oracle-dim",
        parents=[weight, sized],
        help="quotient dimensions by ideal rank (exact at weight 0)",
    )
    p.set_defaults(func=_cmd_oracle_dim)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-p/q" for an option, its negative numbers having no "/";
    # no other option starts with "--l", so any such prefix means --lambda
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if (
            len(flag) > 2
            and "--lambda".startswith(flag)
            and re.fullmatch(r"-\d+/\d+", argv[i])
        ):
            argv[i - 1 : i + 1] = [flag + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # a closed pipe shows up here when the output fits the buffer
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed early", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, AssertionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
