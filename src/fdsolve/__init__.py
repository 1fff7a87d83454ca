"""Closed-form solutions of linear constant-coefficient difference equations.

The solver inverts the translation operator T (where (T y)(t) = y(t+1))
symbolically: geometric, polynomial, and cos/sin(n*pi*t) right-hand sides in
any product combination, with exact rational arithmetic throughout and
independent verification by forward application and iteration.
"""
from .algebra import (OperatorPoly, Poly, Root, RootSet, ZeroConstantTermError, ZeroOperatorError,
                      ZeroScaleError, find_roots, series_inverse)
from .expr import SequenceExpr, Term, Trig, UnsupportedRhsError, apply_operator
from .oracle import (MissingInitialConditionsError, VerifyReport,
                     iterate_recurrence, verify_solution)
from .parser import (NonConsecutiveConditionsError, ParseError, SemanticError,
                     parse_equation, parse_expression, parse_initial, parse_operator)
from .solver import (Equation, NumericMode, SingularSystemError,
                     Solution, SolveTrace, TraceStep, antidifference,
                     fit_constants, solve, solve_homogeneous, solve_particular)

__version__ = "0.1.0"

__all__ = [
    "Poly", "Root", "RootSet", "find_roots", "series_inverse",
    "SequenceExpr", "Term", "Trig", "apply_operator",
    "OperatorPoly",
    "Equation", "Solution", "NumericMode", "SolveTrace", "TraceStep",
    "antidifference", "fit_constants", "solve", "solve_homogeneous", "solve_particular",
    "VerifyReport", "iterate_recurrence", "verify_solution",
    "parse_equation", "parse_expression", "parse_initial", "parse_operator",
    "ParseError", "SemanticError", "NonConsecutiveConditionsError",
    "UnsupportedRhsError", "ZeroConstantTermError", "ZeroOperatorError",
    "ZeroScaleError", "SingularSystemError", "MissingInitialConditionsError",
    "__version__",
]
