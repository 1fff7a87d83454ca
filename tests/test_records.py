"""The package's records: reprs, equality, hashing, immutability and copying,
and a command-line start that loads none of `dataclasses`, `inspect`, `json`
or numpy."""
import copy
import pickle
import textwrap
from fractions import Fraction as F

import pytest

from fdsolve.algebra import OperatorPoly, Poly, Root, RootSet
from fdsolve.expr import SequenceExpr, Term, Trig
from fdsolve.oracle import VerifyReport
from fdsolve.parser import parse_equation
from fdsolve.solver import (Equation, NumericMode, RecurrenceMode, Solution, SolveTrace,
                            TraceStep, solve)

from test_algebra import run_bounded


def records():
    """One instance of each record class, built twice so that each pair is equal
    but not identical."""
    eq = Equation(OperatorPoly(4, -5, 1), SequenceExpr.of(Term(1, 3)), [(1, 2), (0, 1)])
    return [
        Poly(1, F(1, 2)),
        OperatorPoly(1, 2),
        Root(F(1), 1, True),
        RootSet((Root(F(1), 1, True), Root(2j, 2, False))),
        Trig("cos", 1),
        Term(2, 3, Poly(0, 1), Trig("sin", 2)),
        SequenceExpr.of(Term(2, 3, Poly(0, 1))),
        TraceStep("rule", "detail", "before", "after"),
        SolveTrace((TraceStep("rule", "detail", "before", "after"),)),
        NumericMode(1.5, 0.25, 1, "sin"),
        eq,
        solve(eq),
        VerifyReport("iterate", (0, 5), "mismatch", mismatch_t=3, expected=F(1), got=F(2)),
        RecurrenceMode((-1, -1, 1), 1, 0, 0),
    ]


def test_reprs_are_unchanged():
    assert repr(RootSet((Root(F(1), 1, True),))) == \
        "RootSet(roots=(Root(value=Fraction(1, 1), multiplicity=1, exact=True),))"
    assert repr(Trig("cos", 1)) == "Trig(kind='cos', n=1)"
    assert repr(VerifyReport("forward", (0, 5), "exact-match")) == (
        "VerifyReport(method='forward', t_range=(0, 5), status='exact-match', "
        "mismatch_t=None, expected=None, got=None)")
    assert repr(OperatorPoly(1, 2)) == "OperatorPoly(coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert repr(Term(1)) == ("Term(coeff=Fraction(1, 1), base=Fraction(1, 1), "
                             "poly=Poly(coeffs=(Fraction(1, 1),)), trig=None)")
    assert repr(parse_equation("y(t+1) - y(t) = 2^t")) == (
        "Equation(operator=OperatorPoly(coeffs=(Fraction(-1, 1), Fraction(1, 1))), "
        "rhs=SequenceExpr(buckets=(((Fraction(2, 1), None, 0), "
        "Poly(coeffs=(Fraction(1, 1),))),)), initial=None)")


def test_equality_needs_the_same_class_and_fields():
    assert Poly(1, 2) != OperatorPoly(1, 2)
    assert OperatorPoly(1, 2) != Poly(1, 2)
    # a subclass that hid its base class's fields would compare no fields at all
    assert OperatorPoly(1, 2) != OperatorPoly(1, 3)
    assert Trig("cos", 1) != Trig("sin", 1)
    assert Trig("cos", 1) != ("cos", 1)
    assert VerifyReport("forward", (0, 5), "exact-match") != \
        VerifyReport("forward", (0, 5), "exact-match", mismatch_t=0)


@pytest.mark.parametrize("a,b", zip(records(), records()))
def test_equal_values_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("record,name", zip(records(), [
    "nums", "den", "value", "roots", "n", "trig", "buckets", "after", "steps", "kind",
    "initial", "trace", "got", "factor"]))
def test_fields_are_read_only(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("record", records())
def test_copy_and_pickle_round_trip(record):
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record)
        assert other == record


# The fewest values each record class takes; `_Record` builds the first six, which take
# exactly one value per field.  `Poly` and `OperatorPoly` take any number of coefficients.
FEWEST_VALUES = [(Root, 3), (RootSet, 1), (TraceStep, 4), (SolveTrace, 1), (NumericMode, 4),
                 (RecurrenceMode, 3), (Solution, 4), (Trig, 2), (Term, 1), (SequenceExpr, 0),
                 (Equation, 2), (VerifyReport, 3)]


@pytest.mark.parametrize("cls,fewest", FEWEST_VALUES, ids=[c.__name__ for c, _ in FEWEST_VALUES])
def test_one_value_too_few_or_too_many_is_a_type_error(cls, fewest):
    values = [None] * (len(cls._fields) + 1)
    if fewest:
        with pytest.raises(TypeError, match="takes|missing"):
            cls(*values[:fewest - 1])
    with pytest.raises(TypeError, match="takes"):
        cls(*values)


def test_record_arity_error_names_the_fields():
    with pytest.raises(TypeError, match=r"^Root takes one value per field "
                                        r"\(value, multiplicity, exact\), got 2$"):
        Root(F(1), 1)
    with pytest.raises(TypeError, match=r"^SolveTrace takes one value per field "
                                        r"\(steps\), got 2$"):
        SolveTrace((), ())


def test_constructors_keep_their_checks():
    assert Equation(OperatorPoly(4, -5, 1), SequenceExpr.zero(), [(1, 2), (0, 1)]).initial == \
        ((0, F(1)), (1, F(2)))
    with pytest.raises(ValueError, match="consecutive"):
        Equation(OperatorPoly(4, -5, 1), SequenceExpr.zero(), [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="exactly 2"):
        Equation(OperatorPoly(4, -5, 1), SequenceExpr.zero(), [(0, 1)])
    with pytest.raises(ValueError, match="degree >= 1"):
        Equation(OperatorPoly(4), SequenceExpr.zero())
    with pytest.raises(ValueError, match="unknown trig kind"):
        Trig("tan", 1)
    with pytest.raises(ValueError, match="nonnegative"):
        Trig("cos", -1)
    assert Solution(SequenceExpr.zero(), (), None, SolveTrace(())).constants is None


def test_cli_import_loads_no_dataclasses_inspect_json_or_numpy():
    out = run_bounded(textwrap.dedent("""
        import sys
        import fdsolve.cli
        print(sorted({"dataclasses", "inspect", "json", "numpy"} & sys.modules.keys()))
        """))
    assert out == "[]\n"
