import doctest

import pytest

import fdsolve
import fdsolve.algebra
import fdsolve.solver


@pytest.mark.parametrize("module", [fdsolve.algebra, fdsolve.solver])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_public_names_resolve():
    missing = [name for name in fdsolve.__all__ if not hasattr(fdsolve, name)]
    assert missing == []


@pytest.mark.parametrize("owner,name", [
    (fdsolve, "Solution"), (fdsolve, "fit_constants"),
    (fdsolve.OperatorPoly, "as_poly"),
    (fdsolve.Solution, "general_value_at"), (fdsolve.Solution, "general_expr"),
    (fdsolve.Solution, "is_exact"),
    (fdsolve.SequenceExpr, "eval_at"), (fdsolve.SequenceExpr, "integer_form"),
    (fdsolve.NumericMode, "eval_at"),
])
def test_names_the_benchmark_calls_exist(owner, name):
    # bench/run.py calls these; a rename breaks the benchmark, not the library tests
    assert hasattr(owner, name)
