"""Byte-exact snapshots of CLI runs: stdout, stderr and exit code.

The cases pin every trace rule and detail wording, the numeric-mode and
constants lines, the verification line and both fit errors, in text and in
JSON.  The expected values live in cli_snapshots.json; after a deliberate
output change, record them again with

    PYTHONPATH=src python tests/test_cli_snapshots.py

and review the diff of the JSON file.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from fdsolve import cli

from corpus import GOLDEN_EQUATIONS

SNAPSHOTS = Path(__file__).with_name("cli_snapshots.json")

# (label, equation, initial values or None)
SOLVE_CASES = [
    *((f"golden-{i}", eq, None) for i, eq in enumerate(GOLDEN_EQUATIONS)),
    ("power-rule-fitted", GOLDEN_EQUATIONS[0], "y(0)=1, y(1)=2"),
    ("sin-rule", "y(t+1) - 3y(t) = sin(pi*t)", None),
    ("sin-rule-even", "y(t+1) - 3y(t) = sin(2*pi*t)", None),
    ("scale-then-cos", "y(t+2) - 5y(t+1) + 4y(t) = 2^t * cos(pi*t)", None),
    ("scale-then-shift", "y(t+1) - 3y(t) = t * 2^t * cos(pi*t)", None),
    ("trig-shift", "y(t+1) - 3y(t) = t*cos(pi*t)", None),
    ("resonant-cos", "y(t+1) + y(t) = cos(pi*t)", None),
    ("resonant-cos-scaled", "y(t+1) + 2y(t) = 2^t * cos(pi*t)", None),
    ("resonant-sin", "y(t+1) + y(t) = sin(pi*t)", None),
    ("resonant-sin-scaled", "y(t+1) + 2y(t) = t * 2^t * sin(pi*t)", None),
    ("delta-basis-constant", "y(t+1) - 3y(t) = 5", None),
    ("delta-basis-signs", "-2y(t+1) + 1/2y(t) = t^2 - 3*t", None),
    ("delta-basis-resonant", "y(t+3) - 3y(t+2) + 3y(t+1) - y(t) = 2*t - 1", None),
    ("linearity", "y(t+2) - 5y(t+1) + 6y(t) = 3^t + t + cos(pi*t) + 2^t",
     "y(0)=0, y(1)=1"),
    ("linearity-trig", "y(t+1) + y(t) = t * sin(2*pi*t) + t*cos(3*pi*t)", None),
    ("inverse-translation", "y(t+2) - 2y(t+1) = 2^t", None),
    ("linearity-inverse-translation", "y(t+3) - 2y(t+2) = 2^t + t", None),
    ("numeric-real", "y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1"),
    ("numeric-complex", "y(t+2) - y(t+1) + 2y(t) = 1", "y(0)=1, y(1)=3/2"),
    ("numeric-repeated", "y(t+4) - 4y(t+2) + 4y(t) = 1",
     "y(0)=1, y(1)=0, y(2)=2, y(3)=-1"),
    ("iterate-mismatch", "y(t+2) - 2y(t) = 0", "y(0)=1, y(1)=1"),
    ("singular-exact", "y(t+2) = 0", "y(0)=1, y(1)=0"),
    ("singular-float", "y(t+3) - 2y(t+1) = 0", "y(0)=1, y(1)=0, y(2)=5"),
    ("singular-float-pivot", "y(t+2) - y(t+1) - y(t) = 0", "y(60)=1, y(61)=2"),
]


def _solve_argv(eq, initial, *extra, horizon=None):
    argv = ["solve", eq, "--trace", "--verify"] + ([horizon] if horizon else [])
    if initial is not None:
        argv += ["--initial", initial]
    return argv + list(extra)


CASES = [
    *((f"solve-text-{label}", _solve_argv(eq, initial))
      for label, eq, initial in SOLVE_CASES),
    *((f"solve-json-{label}", _solve_argv(eq, initial, "--format", "json"))
      for label, eq, initial in SOLVE_CASES),
    ("solve-text-numeric-deviation",
     _solve_argv("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1", horizon="20")),
    ("solve-json-numeric-deviation",
     _solve_argv("y(t+2) - y(t+1) - y(t) = 0", "y(0)=0, y(1)=1", "--format", "json",
                 horizon="20")),
    ("verify-text-ok", ["verify", GOLDEN_EQUATIONS[0], "-1/2 * 3^t"]),
    ("verify-text-mismatch", ["verify", GOLDEN_EQUATIONS[0], "-1/3 * 3^t"]),
    ("verify-text-initial", ["verify", "y(t+1) - 2y(t) = 0", "3 * 2^t",
                             "--initial", "y(0)=3", "--horizon", "7"]),
    ("verify-text-iterate-mismatch", ["verify", "y(t+1) - 2y(t) = 0", "3 * 2^t",
                                      "--initial", "y(0)=2"]),
    ("verify-json-mismatch", ["verify", GOLDEN_EQUATIONS[0], "-1/3 * 3^t",
                              "--format", "json"]),
]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("label,argv", CASES, ids=[label for label, _ in CASES])
def test_cli_output_matches_snapshot(label, argv):
    expected = json.loads(SNAPSHOTS.read_text(encoding="utf-8"))[label]
    assert expected["argv"] == argv, "snapshot recorded for other arguments"
    assert capture(argv) == expected


if __name__ == "__main__":
    recorded = {label: capture(argv) for label, argv in CASES}
    SNAPSHOTS.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n",
                         encoding="utf-8")
    print(f"recorded {len(recorded)} snapshots in {SNAPSHOTS}")
