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
from .solver import Equation, solve

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

    a = sub.add_parser("apply", help="apply an operator polynomial to an expression")
    a.add_argument("operator", help="e.g. 'T^2 - 5*T + 4'")
    a.add_argument("expression", help="e.g. '3^t + t^2'")

    v = sub.add_parser("verify", help="check a candidate solution against an equation")
    v.add_argument("equation")
    v.add_argument("solution", help="candidate closed form for y(t)")
    v.add_argument("--initial", metavar="CONDS")
    v.add_argument("--horizon", type=int, default=50)
    for command in (s, a, v):   # last, so that each help text lists it last
        command.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _report_doc(report: VerifyReport) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "method": report.method,
        "range": list(report.t_range),
        "status": report.status,
    }
    if report.mismatch_t is not None:
        doc["mismatch_t"] = report.mismatch_t
        doc["expected"] = str(report.expected)
        doc["got"] = str(report.got)
    return doc


def _equation(args: argparse.Namespace) -> Equation:
    """The equation argument, with the --initial values when given."""
    eq = parse_equation(args.equation)
    if args.initial:
        eq = Equation(eq.operator, eq.rhs, parse_initial(args.initial))
    return eq


# Each command returns its exit code and its output: the text, or for --format json
# the document, that `_run` prints.

def _cmd_solve(args: argparse.Namespace) -> tuple[int, Any]:
    eq = _equation(args)
    sol = solve(eq)
    report = None
    if args.verify is not None:
        report = verify_solution(eq, sol._factored(), horizon=args.verify)
    code = EXIT_VERIFY if report is not None and not report.ok else EXIT_OK
    modes, constants = sol.view()
    particular = sol.particular.render(pretty=True)
    general = sol.general_expr()
    general = None if general is None else general.render(pretty=True)
    if args.format == "json":
        doc: dict[str, Any] = {
            "input": {"equation": str(eq), "initial":
                      [[t, str(v)] for t, v in eq.initial] if eq.initial else None},
            "operator": [str(c) for c in reversed(eq.operator.coeffs)],
            "particular": particular,
            "homogeneous": [{"type": "exact", "expr": m.render(pretty=True)}
                            if isinstance(m, SequenceExpr) else
                            {"type": "numeric", "modulus": m.modulus, "angle": m.angle,
                             "power": m.power, "kind": m.kind} for m in modes],
            "constants": None if constants is None else [
                str(c) if isinstance(c, Fraction) else c for c in constants],
        }
        if general is not None:
            doc["general"] = general
        if args.trace:
            doc["trace"] = [{"rule": s.rule, "detail": s.detail, "before": s.before,
                             "after": s.after} for s in sol.trace.steps]
        doc["verification"] = _report_doc(report) if report else None
        return code, doc
    lines = [f"equation:    {eq}"]
    if eq.initial:
        lines.append(f"initial:     {', '.join(f'y({t}) = {v}' for t, v in eq.initial)}")
    rendered = ", ".join(m.render(pretty=True) for m in modes) or "(empty basis)"
    lines += [f"particular:  {particular}", f"homogeneous: {rendered}"]
    if constants is not None:
        pretty = ", ".join(f"c{i} = {c if isinstance(c, Fraction) else format(c, '.10g')}"
                           for i, c in enumerate(constants, 1))
        lines.append(f"constants:   {pretty or '(none)'}")
    if general is not None:
        lines.append(f"general:     {general}")
    if args.trace:
        lines += ["trace:", *(f"  {line}" for line in sol.trace.render().splitlines())]
    if report is not None:
        lines.append(f"verification: {report.describe()}")
    return code, "\n".join(lines)


def _cmd_apply(args: argparse.Namespace) -> tuple[int, Any]:
    op = parse_operator(args.operator)
    e = parse_expression(args.expression)
    result = apply_operator(op, e).render(pretty=True)
    if args.format == "text":
        return EXIT_OK, result
    return EXIT_OK, {"input": {"operator": str(op), "expression": str(e)}, "result": result}


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Any]:
    eq = _equation(args)
    candidate = parse_expression(args.solution)
    report = verify_solution(eq, candidate, horizon=args.horizon)
    code = EXIT_OK if report.ok else EXIT_VERIFY
    if args.format == "text":
        return code, report.describe()
    return code, {"input": {"equation": str(eq), "solution": str(candidate)},
                  "verification": _report_doc(report)}


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
        # looked up at call time, so that a command replaced on the module is the one run
        code, out = globals()[f"_cmd_{args.command}"](args)
        if args.format == "json":
            import json  # only JSON output reads it; a text run starts without it
            out = json.dumps(out, indent=2)
        print(out)   # inside the try: an error while printing gets its exit code too
        return code
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
