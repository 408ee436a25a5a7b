"""Command-line front end.

Subcommands::

    nf SHIFT -e EXPR [--ring z|q|zmod:N]     canonical normal form, one
                                             component per line; '0' for zero
    iszero SHIFT -e EXPR [--ring ...]        exit 0 if zero, 1 if nonzero
    reduce SHIFT -e EXPR [--ring ...]        reduction witness and form
           [--verify] [--trace] [--check-square]
    grade SHIFT -e EXPR -n K [--ring ...]    the degree-K component
    cycles SHIFT                             minimal cycles without exit
    check-exits SHIFT                        exit 0 iff every cycle has one
    corner SHIFT --set SETEXPR --word C -e EXPR [--ring ...]
                                             Laurent polynomial of p_A x p_A
    selftest SHIFT --max-len K               defining-relation suite

Exit codes: 0 success (and 'zero' for iszero / clean for selftest), 1 for the
documented negative answers, 2 usage or input-syntax errors, 3 computational
contract violations.  Diagnostics go to stderr; results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .algebra import SubshiftAlgebra
from .errors import ContractViolation, ShiftParseError, SubshiftAlgebraError
from .parsing import evaluate, evaluate_set, parse_shift
from .reduction import ProjectionMultiple, reduce as reduce_element
from .rings import ring_from_name
from .shift import build_follower_graph
from .structure import (corner_project, corner_to_laurent,
                        find_cycles_without_exit, relations_selftest,
                        square_nonzero_check)

USAGE_ERROR = 2
CONTRACT_ERROR = 3


def _load_algebra(shift_path: str, ring_name: str) -> SubshiftAlgebra:
    try:
        text = Path(shift_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ShiftParseError(f"{shift_path} is not UTF-8 text", line, column) from None
    spec = parse_shift(text)
    graph = build_follower_graph(spec)
    return SubshiftAlgebra(graph, ring_from_name(ring_name))


def _element_line(x) -> str:
    return "0" if x.is_zero() else " ;; ".join(x.format().splitlines())


def _cmd_nf(args) -> int:
    algebra = _load_algebra(args.shift, args.ring)
    x = evaluate(args.expr, algebra)
    print(x.format())
    return 0


def _cmd_iszero(args) -> int:
    algebra = _load_algebra(args.shift, args.ring)
    x = evaluate(args.expr, algebra)
    if x.is_zero():
        print("zero")
        return 0
    print("nonzero")
    return 1


def _cmd_reduce(args) -> int:
    algebra = _load_algebra(args.shift, args.ring)
    x = evaluate(args.expr, algebra)
    witness = reduce_element(x, record_trace=args.trace)
    form = witness.form
    ring = algebra.ring
    # The lines are formatted, and the square checked, before any is printed,
    # so that a coefficient too long to print or a refused check leaves no
    # partial output; ``reduce`` has verified the witness.
    if isinstance(form, ProjectionMultiple):
        form_line = f"PROJ {ring.format(form.gamma)} {form.proj_set.format()}"
    else:
        spec = algebra.graph.spec
        gammas = " ".join(ring.format(g) for g in form.gammas)
        exps = " ".join(str(q) for q in form.exps)
        form_line = (f"CYCLE {form.cycle_set.format()} {spec.word_to_str(form.beta)} "
                     f"[{gammas}] [{exps}]")
    square_ok = args.check_square and square_nonzero_check(witness)
    print(f"mu: {_element_line(witness.mu)}\nnu: {_element_line(witness.nu)}\n{form_line}")
    if args.trace:
        for step in witness.trace:
            print(f"trace: {step}")
    if args.verify:
        print("verified")
    if args.check_square:
        print(f"square nonzero: {'true' if square_ok else 'false'}")
        if not square_ok:
            return CONTRACT_ERROR
    return 0


def _cmd_grade(args) -> int:
    algebra = _load_algebra(args.shift, args.ring)
    x = evaluate(args.expr, algebra)
    print(x.z_grade_component(args.n).format())
    return 0


def _cmd_cycles(args, none: str = "none", prefix: str = "", found: int = 0) -> int:
    """Print the minimal cycles without exit, each after ``prefix``, or
    ``none`` if there are none; exit 0 then, and ``found`` otherwise.
    ``check-exits`` is this command with its own texts and exit code 1."""
    algebra = _load_algebra(args.shift, "z")
    pairs = find_cycles_without_exit(algebra.graph)
    if not pairs:
        print(none)
        return 0
    spec = algebra.graph.spec
    for a_set, alpha in pairs:
        print(f"{prefix}{a_set.format()} {spec.word_to_str(alpha)}")
    return found


def _cmd_corner(args) -> int:
    algebra = _load_algebra(args.shift, args.ring)
    spec = algebra.graph.spec
    a_set = evaluate_set(args.set, algebra)
    word = spec.str_to_word(args.word)
    x = evaluate(args.expr, algebra)
    projected = corner_project(x, a_set)
    poly = corner_to_laurent(projected, a_set, word)
    print(poly.format())
    return 0


def _cmd_selftest(args) -> int:
    algebra = _load_algebra(args.shift, "z")
    report = relations_selftest(algebra.graph, args.max_len)
    print(report.format())
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subshift-algebra",
        description="exact normal forms and reductions for subshift algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring(p):
        p.add_argument("--ring", default="z",
                       help="coefficient ring: z, q, or zmod:N (default z)")

    p = sub.add_parser("nf", help="canonical normal form of an expression")
    p.add_argument("shift")
    p.add_argument("-e", "--expr", required=True)
    add_ring(p)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("iszero", help="exact zero test")
    p.add_argument("shift")
    p.add_argument("-e", "--expr", required=True)
    add_ring(p)
    p.set_defaults(func=_cmd_iszero)

    p = sub.add_parser("reduce", help="reduction witness of a nonzero element")
    p.add_argument("shift")
    p.add_argument("-e", "--expr", required=True)
    add_ring(p)
    p.add_argument("--verify", action="store_true",
                   help="print 'verified' for the check reduce runs on every "
                        "witness (re-multiply, compare with the reduced form)")
    p.add_argument("--trace", action="store_true",
                   help="print the factor trace")
    p.add_argument("--check-square", action="store_true",
                   help="also test that the reduced element squares to nonzero "
                        "(requires a domain)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("grade", help="integer-degree component")
    p.add_argument("shift")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-n", type=int, required=True)
    add_ring(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("cycles", help="list minimal cycles without exit")
    p.add_argument("shift")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("check-exits", help="verify every cycle has an exit")
    p.add_argument("shift")
    p.set_defaults(func=partial(_cmd_cycles, none="all cycles have exits",
                                prefix="cycle without exit: ", found=1))

    p = sub.add_parser("corner", help="corner element as a Laurent polynomial")
    p.add_argument("shift")
    p.add_argument("--set", required=True, help="set expression for A")
    p.add_argument("--word", required=True, help="cycle word c")
    p.add_argument("-e", "--expr", required=True)
    add_ring(p)
    p.set_defaults(func=_cmd_corner)

    p = sub.add_parser("selftest", help="defining-relation suite")
    p.add_argument("shift")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_selftest)

    return parser


def _attach_expr_values(argv: list[str]) -> list[str]:
    """``-e VALUE`` and ``--expr VALUE`` (or an abbreviation such as
    ``--ex``, which argparse accepts) as ``--expr=VALUE``: the value is the
    next argument whatever it starts with, so that argparse does not take an
    expression such as ``-3.p(X)`` for an option.  A last ``-e`` stays as it
    is, for argparse to refuse."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg == "-e" or len(arg) > 2 and "--expr".startswith(arg):
            value = next(rest, None)
            if value is not None:
                arg = f"--expr={value}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_expr_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except SubshiftAlgebraError as exc:
        # Errors in input content (files, expressions, ring names) are usage
        # errors; violated computational contracts exit with code 3.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ContractViolation):
            return CONTRACT_ERROR
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
