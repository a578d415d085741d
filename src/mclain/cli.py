"""Command line interface.

Commands operate on a group built from a relation file and a ring
spec. Exit status is 0 for success, 1 for a domain failure such as
an invalid relation or a non-normal subset, 2 for usage or parse
errors, and 3 when one of the library's self-checks fails (an internal
fault, reported as one ``error: self-check failed:`` line). All output
is deterministic: pairs are sorted and ring literals are canonical.
"""

from __future__ import annotations

import argparse
import sys

from .elements import GroupElement, McLainGroup, format_word
from .factorization import (
    demonstrate_ngon_obstruction,
    ordered_factorization,
    word_factorization,
)
from .parsing import parse_element_expression, parse_order_file
from .relations import ParseError, check_axioms, parse_relation_file
from .rings import RingError, parse_ring_spec
from .series import (
    _lift,
    format_chain_lines,
    lower_central_series,
    quotient_project,
    upper_central_series,
)


def _load_element(args: argparse.Namespace) -> GroupElement:
    """The element that the expression evaluates to in the group built from
    the relation file and the ring spec."""
    group = McLainGroup(parse_relation_file(args.relation), parse_ring_spec(args.ring))
    return group.eval_word(parse_element_expression(args.expression, group.ring))


def _cmd_check(args: argparse.Namespace) -> int:
    relation = parse_relation_file(args.file)
    report = check_axioms(relation)
    if report.valid:
        print("valid")
        return 0
    for violation in report.violations:
        print(str(violation))
    return 1


def _cmd_series(args: argparse.Namespace) -> int:
    relation = parse_relation_file(args.file)
    ring = parse_ring_spec(args.ring)
    if args.lower:
        chain, reports = lower_central_series(relation, ring)
        lines = format_chain_lines(chain, reports)
    else:
        chain = upper_central_series(relation)
        lines = format_chain_lines(chain)
    for line in lines:
        print(line)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    print(str(_load_element(args)))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    element = _load_element(args)
    if args.order:
        order = parse_order_file(args.order)
        form = ordered_factorization(element, order)
        for line in form.lines():
            print(line)
    else:
        print(format_word(word_factorization(element)))
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    element = _load_element(args)
    gamma_input = parse_relation_file(args.gamma)
    gamma = element.group.relation.subset(gamma_input.pairs)
    projected = quotient_project(element, gamma)
    representative = _lift(element, projected)
    print(f"projection: {projected}")
    print(f"representative: {representative}")
    return 0


def _cmd_demo_ngon(args: argparse.Namespace) -> int:
    if not 4 <= args.n <= 6:
        print(
            "error: demo-ngon enumerates n! orderings; n must be 4, 5, or 6",
            file=sys.stderr,
        )
        return 2
    ring = parse_ring_spec(args.ring)
    report = demonstrate_ngon_obstruction(args.n, ring)
    sound = (
        report.successes == 0
        and report.every_failure_has_step_two_term
        and report.unit_coefficients_forced
        and report.mixed_word_matches
        and report.mixed_word_uses_step_two
    )
    if not sound:
        print("error: obstruction demonstration failed", file=sys.stderr)
        return 1
    print(report.summary())
    print(f"mixed factorization: {format_word(report.mixed_word)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclain",
        description="Exact computations in groups built from finite relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a relation file")
    p_check.add_argument("file", help="relation file")
    p_check.set_defaults(handler=_cmd_check)

    p_series = sub.add_parser("series", help="print a central series")
    p_series.add_argument("file", help="relation file")
    which = p_series.add_mutually_exclusive_group(required=True)
    which.add_argument("--lower", action="store_true", help="descending series")
    which.add_argument("--upper", action="store_true", help="ascending series")
    p_series.add_argument("--ring", default="Z", help="ring spec (default Z)")
    p_series.set_defaults(handler=_cmd_series)

    def add_group_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--relation", required=True, help="relation file")
        p.add_argument("--ring", default="Z", help="ring spec (default Z)")

    p_eval = sub.add_parser("eval", help="evaluate an expression to normal form")
    add_group_flags(p_eval)
    p_eval.add_argument("expression", help="element expression")
    p_eval.set_defaults(handler=_cmd_eval)

    p_factor = sub.add_parser("factor", help="factor an element into generators")
    add_group_flags(p_factor)
    p_factor.add_argument(
        "--order", help="file of pairs fixing the factor order", default=None
    )
    p_factor.add_argument("expression", help="element expression")
    p_factor.set_defaults(handler=_cmd_factor)

    p_quotient = sub.add_parser(
        "quotient", help="project modulo a normal subset and lift a representative"
    )
    add_group_flags(p_quotient)
    p_quotient.add_argument("--gamma", required=True, help="normal subset file")
    p_quotient.add_argument("expression", help="element expression")
    p_quotient.set_defaults(handler=_cmd_quotient)

    p_demo = sub.add_parser(
        "demo-ngon", help="exhaust single-step factorizations around an n-cycle"
    )
    p_demo.add_argument("n", type=int, help="cycle length, 4 to 6")
    p_demo.add_argument("--ring", default="Z/2", help="ring spec (default Z/2)")
    p_demo.set_defaults(handler=_cmd_demo_ngon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ParseError, OSError, RingError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # src/ holds no assert statements, so this is a failed self-check.
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
