"""Self-tests of the benchmark itself: `python3 -m pytest -q bench`."""
import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

import inputs
import run

sys.path.insert(0, str(run.SRC))
import fdsolve as fd  # noqa: E402
import fdsolve.cli  # noqa: E402,F401

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [inputs.cycle(workload, 7, i) for i in range(2)]
    again = [inputs.cycle(workload, 7, i) for i in range(2)]
    assert first == again
    assert first != [inputs.cycle(workload, 8, i) for i in range(2)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generated_inputs_parse_to_the_generated_operator(workload):
    for inst in inputs.cycle(workload, 1, 0):
        eq = fd.parse_equation(inst.equation)
        assert eq.operator.degree == inst.op_degree
        if inst.initial:
            assert len(fd.parse_initial(inst.initial)) == inst.op_degree


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_the_spec(trace, key):
    code, result = _result(["--workload", "mix", "--seed", "1", "--seconds", "0.1",
                            "--trace", trace])
    assert code == 0 and result["correct"]
    names = list(result["metrics"])
    assert all(NAME.fullmatch(n) for n in names)
    assert names == [m["name"] for m in SPEC[key]]
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def _corrupt(particular):
    (tm,) = particular.terms
    return fd.SequenceExpr.of(fd.Term(tm.coeff + 1, tm.base, tm.poly, tm.trig))


@pytest.mark.parametrize("k", range(4))
def test_gate_trips_on_a_corrupted_golden(k):
    src, golden, _, _ = inputs.GOLDENS[k]
    eq = fd.parse_equation(src)
    particular, _ = fd.solve_particular(eq.operator, eq.rhs)
    assert run.gate(fd, eq, particular, golden)  # positive control
    bad = _corrupt(particular)
    assert not run.gate(fd, eq, bad, golden)
    trig = particular.terms[0].trig
    if trig is None or trig.kind != "sin":
        # sin(n*pi*t) vanishes on the integers, so only the golden render
        # catches a corrupted sin coefficient; the others fail the identity too
        assert not run.gate(fd, eq, bad)
    inst = inputs.golden_instance(random.Random(0), k)
    out = f"particular:  {bad.render(pretty=True)}\n"
    assert run.cli_outcome(fd, inst, 0, out) == "wrong"
    assert run.cli_outcome(fd, inst, 0, f"particular:  {golden}\n") == "verified"


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mix", "--seed", "1"]) == 2


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert Path(run.BENCH.parent / SPEC["command"][1]).is_file()
