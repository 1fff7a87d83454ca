"""Command-line interface.

Subcommands:

* ``solve EQUATION``   — closed-form particular + homogeneous basis
                         (``--initial`` fits constants, ``--verify N`` checks,
                         ``--trace`` shows the derivation, ``--format json``)
* ``apply OP EXPR``    — apply an operator polynomial to an expression
* ``verify EQ SOL``    — check a candidate solution independently

Exit codes: 0 success, 1 parse/semantic error, 2 unsupported right-hand side,
3 verification mismatch, 4 internal error.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Any

from .expr import SequenceExpr, UnsupportedRhsError, apply_operator
from .oracle import VerifyReport, verify_solution
from .parser import ParseError, parse_equation, parse_expression, parse_initial, parse_operator
from .solver import Equation, Solution, solve

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _build_cli() -> _ArgumentParser:
    ap = _ArgumentParser(
        prog="fdsolve",
        description="Closed-form solutions of linear constant-coefficient "
                    "difference equations.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve an equation like 'y(t+2) - 5y(t+1) + 4y(t) = 3^t'")
    s.add_argument("equation")
    s.add_argument("--initial", metavar="CONDS",
                   help="comma-separated conditions, e.g. 'y(0)=1, y(1)=2'")
    s.add_argument("--verify", metavar="N", nargs="?", type=int, const=50, default=None,
                   help="verify the result out to horizon N (default 50)")
    s.add_argument("--trace", action="store_true", help="show the derivation steps")
    s.add_argument("--format", choices=("text", "json"), default="text")

    a = sub.add_parser("apply", help="apply an operator polynomial to an expression")
    a.add_argument("operator", help="e.g. 'T^2 - 5*T + 4'")
    a.add_argument("expression", help="e.g. '3^t + t^2'")
    a.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="check a candidate solution against an equation")
    v.add_argument("equation")
    v.add_argument("solution", help="candidate closed form for y(t)")
    v.add_argument("--initial", metavar="CONDS")
    v.add_argument("--horizon", type=int, default=50)
    v.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _fraction_str(v: Fraction | float) -> Any:
    return str(v) if isinstance(v, Fraction) else v


def _report_doc(report: VerifyReport) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "method": report.method,
        "range": list(report.t_range),
        "status": report.status,
    }
    if report.mismatch_t is not None:
        doc["mismatch_t"] = report.mismatch_t
        doc["expected"] = _fraction_str(report.expected)
        doc["got"] = _fraction_str(report.got)
    return doc


def _solution_doc(eq: Equation, sol: Solution, report: VerifyReport | None,
                  trace: bool) -> dict[str, Any]:
    modes, constants = sol.view()
    homog = []
    for mode in modes:
        if isinstance(mode, SequenceExpr):
            homog.append({"type": "exact", "expr": mode.render(pretty=True)})
        else:
            homog.append({"type": "numeric", "modulus": mode.modulus,
                          "angle": mode.angle, "power": mode.power,
                          "kind": mode.kind})
    doc: dict[str, Any] = {
        "input": {
            "equation": str(eq),
            "initial": [[t, str(v)] for t, v in eq.initial] if eq.initial else None,
        },
        "operator": [str(c) for c in reversed(eq.operator.coeffs)],
        "particular": sol.particular.render(pretty=True),
        "homogeneous": homog,
        "constants": [_fraction_str(c) for c in constants] if constants is not None else None,
    }
    general = sol.general_expr()
    if general is not None:
        doc["general"] = general.render(pretty=True)
    if trace:
        doc["trace"] = [{"rule": s.rule, "detail": s.detail,
                         "before": s.before, "after": s.after}
                        for s in sol.trace.steps]
    doc["verification"] = _report_doc(report) if report else None
    return doc


def _solution_text(eq: Equation, sol: Solution, report: VerifyReport | None,
                   trace: bool) -> str:
    modes, constants = sol.view()
    lines = [f"equation:    {eq}"]
    if eq.initial:
        conds = ", ".join(f"y({t}) = {v}" for t, v in eq.initial)
        lines.append(f"initial:     {conds}")
    lines.append(f"particular:  {sol.particular.render(pretty=True)}")
    rendered = ", ".join(m.render(pretty=True) for m in modes)
    lines.append(f"homogeneous: {rendered or '(empty basis)'}")
    if constants is not None:
        pretty = ", ".join(
            f"c{i+1} = {c if isinstance(c, Fraction) else format(c, '.10g')}"
            for i, c in enumerate(constants))
        lines.append(f"constants:   {pretty or '(none)'}")
    general = sol.general_expr()
    if general is not None:
        lines.append(f"general:     {general.render(pretty=True)}")
    if trace:
        lines.append("trace:")
        lines.extend(f"  {line}" for line in sol.trace.render().splitlines())
    if report is not None:
        lines.append(f"verification: {report.describe()}")
    return "\n".join(lines)


def _json(doc: dict[str, Any]) -> str:
    import json  # only JSON output reads it; a text run starts without it
    return json.dumps(doc, indent=2)


def _equation(args: argparse.Namespace) -> Equation:
    """The equation argument, with the --initial values when given."""
    eq = parse_equation(args.equation)
    if args.initial:
        eq = Equation(eq.operator, eq.rhs, parse_initial(args.initial))
    return eq


def _cmd_solve(args: argparse.Namespace) -> int:
    eq = _equation(args)
    sol = solve(eq)
    report = None
    if args.verify is not None:
        report = verify_solution(eq, sol._factored(), horizon=args.verify)
    if args.format == "json":
        print(_json(_solution_doc(eq, sol, report, args.trace)))
    else:
        print(_solution_text(eq, sol, report, args.trace))
    if report is not None and not report.ok:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    op = parse_operator(args.operator)
    e = parse_expression(args.expression)
    result = apply_operator(op, e).render(pretty=True)
    if args.format == "json":
        doc = {"input": {"operator": str(op), "expression": str(e)}, "result": result}
        result = _json(doc)
    print(result)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    eq = _equation(args)
    candidate = parse_expression(args.solution)
    report = verify_solution(eq, candidate, horizon=args.horizon)
    if args.format == "json":
        doc = {"input": {"equation": str(eq), "solution": str(candidate)},
               "verification": _report_doc(report)}
        print(_json(doc))
    else:
        print(report.describe())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _print_parse_error(err: ParseError) -> None:
    print(f"error: {err}", file=sys.stderr)
    if err.snippet:
        print(f"  {err.snippet}", file=sys.stderr)
        print(f"  {' ' * err.caret}^", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # the parser admits numbers up to 2^20 bits, past Python's 4300-digit cap on
    # int-to-str conversion (absent before 3.10.7): lifted for the run, and the
    # caller's cap restored however the run ends
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is None:
        return _run(argv)
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(cap)


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_cli().parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "apply":
            return _cmd_apply(args)
        return _cmd_verify(args)
    except UnsupportedRhsError as err:
        print(f"unsupported right-hand side: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParseError as err:
        _print_parse_error(err)
        return EXIT_PARSE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
