#!/usr/bin/env python3
"""fdsolve benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload mix --seed 1 --seconds 16 --trace 0

Run it from the root of an fdsolve checkout: the program is imported from
./src, and the CLI is started as `python -m fdsolve` with ./src on the path.
`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object, and the lines before it are for people.  The exit status is 1 when
the correctness gate fails and 2 when the program's sources are missing.
See bench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
HORIZON = 50
# Per workload: one cycle's op time in seconds when this benchmark was
# written, and how many passes a run makes over its inputs.  A run's input
# set is a whole number of cycles, sized so that its passes took about
# --seconds then; the set depends only on the workload, the seed and
# --seconds, so two commits always time the same inputs the same number of
# times.
PLAN = {"cli-cold": (1.7, 2), "mix": (0.4, 3), "payload": (2.9, 2), "roots": (0.5, 3)}
# The traced run takes this share of the end-to-end run's cycles (at least one).
TRACE_SHARE = 0.5
LIBRARY_STARTUP_PROBES = 3
OUTCOMES = ("verified", "rejected", "mismatch", "error", "wrong")
FAILED = ("mismatch", "error", "wrong")
LAYERS = ["parser.parse", "solver.particular", "solver.homogeneous", "solver.fit",
          "oracle.verify", "expr.render", "cli.main", "startup.interpreter",
          "startup.import", "algebra.find_roots", "oracle.forward", "oracle.iterate"]
COUNTS = ["solver.particular.trace_steps", "solver.particular.resonant_terms",
          "algebra.find_roots.exact_roots", "algebra.find_roots.numeric_roots",
          "oracle.verify.mismatches", "expr.render.chars"]


# ---- child processes ----

def run_child(cmd: list[str]) -> tuple[float, int, str, float]:
    """Run cmd to its end: (wall seconds, exit code, stdout+stderr, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps it and gives its peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, out.decode(), usage.ru_maxrss / 1024


def cli_args(inst: inputs.Instance) -> list[str]:
    args = ["solve", inst.equation]
    if inst.initial:
        args += ["--initial", inst.initial]
    return args + ["--verify"]


# ---- spans ----

@dataclass
class Span:
    name: str
    parent: str | None = None
    seconds: float = 0.0
    failed: bool = False


class Tracer:
    """Spans kept in memory and summed per layer when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self._open)
        self._open = name
        t0 = time.perf_counter()
        try:
            yield s
        except Exception:
            s.failed = True
            raise
        finally:
            s.seconds = time.perf_counter() - t0
            self._open = s.parent
            self.spans.append(s)

    def record(self, name: str, seconds: float, failed: bool) -> None:
        self.spans.append(Span(name, None, seconds, failed))

    def layer(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _nospan(name: str):
    return contextlib.nullcontext(Span(name))


# ---- one operation ----

def render(sol) -> str:
    general = sol.general_expr()
    modes = general.render(pretty=True) if general is not None else \
        ", ".join(m.render(pretty=True) for m in sol.homogeneous)
    return "\n".join([sol.particular.render(pretty=True), modes, sol.trace.render()])


def library_op(fd, inst: inputs.Instance, tracer: Tracer | None = None):
    """parse -> solve -> verify -> render.  Traced, `solve` is split into its
    three public stages so each gets a span; untraced it is one call."""
    span = tracer.span if tracer else _nospan
    with span("parser.parse"):
        eq = fd.parse_equation(inst.equation)
        if inst.initial:
            eq = fd.Equation(eq.operator, eq.rhs, fd.parse_initial(inst.initial))
    if tracer is None:
        sol = fd.solve(eq)
    else:
        with span("solver.particular"):
            particular, trace = fd.solve_particular(eq.operator, eq.rhs)
        with span("solver.homogeneous"):
            basis = fd.solve_homogeneous(eq.operator)
        constants = None
        if eq.initial is not None:
            with span("solver.fit"):
                constants = fd.fit_constants(eq.operator, particular, basis, eq.initial)
        sol = fd.Solution(particular, basis, constants, trace)
    with span("oracle.verify") as s:
        report = fd.verify_solution(eq, sol, horizon=HORIZON)
        s.failed = not report.ok
    with span("expr.render"):
        text = render(sol)
    return eq, sol, report, text


def gate(fd, eq, particular, golden: str | None = None) -> bool:
    """Independent check of a verified particular; False makes the op `wrong`."""
    if golden is not None and particular.render(pretty=True) != golden:
        return False
    return (fd.apply_operator(eq.operator, particular).integer_form()
            == eq.rhs.integer_form())


def library_outcome(fd, inst: inputs.Instance, result) -> str:
    if isinstance(result, Exception):
        # the CLI maps ValueError (ParseError, UnsupportedRhsError,
        # SingularSystemError, ...) to its documented exits 1 and 2, the rest to 4
        return "rejected" if isinstance(result, ValueError) else "error"
    eq, sol, report, _ = result
    if not report.ok:
        return "mismatch"
    return "verified" if gate(fd, eq, sol.particular, inst.golden) else "wrong"


def cli_outcome(fd, inst: inputs.Instance, code: int, out: str) -> str:
    if code in (1, 2):
        return "rejected"
    if code == 3:
        return "mismatch"
    if code != 0:
        return "error"
    lines = [ln for ln in out.splitlines() if ln.startswith("particular:")]
    if len(lines) != 1:
        return "wrong"
    text = lines[0].split(":", 1)[1].strip()
    if inst.golden is not None and text != inst.golden:
        return "wrong"
    try:
        particular = fd.parse_expression(text)
    except fd.ParseError:
        return "wrong"
    return "verified" if gate(fd, fd.parse_equation(inst.equation), particular) else "wrong"


@dataclass
class Op:
    seconds: float
    outcome: str
    numeric: bool          # the homogeneous basis has float modes
    result: object = None  # library form: (eq, sol, report, text) or the exception
    rss_mb: float = 0.0    # CLI form: the child's peak RSS


def run_op(fd, workload: str, inst: inputs.Instance, tracer: Tracer | None = None) -> Op:
    """One op in the workload's form.  Its outcome, and the correctness gate,
    are worked out after the clock stops."""
    span = tracer.span if tracer else _nospan
    t0 = time.perf_counter()
    with span("op") as s:
        if workload == "cli-cold":
            _, code, out, rss = run_child([sys.executable, "-m", "fdsolve"] + cli_args(inst))
        else:
            try:
                result = library_op(fd, inst, tracer)
            except Exception as err:  # classified as rejected or error, never dropped
                result = err
    seconds = time.perf_counter() - t0
    if workload == "cli-cold":
        homog = "".join(ln for ln in out.splitlines() if ln.startswith("homogeneous:"))
        op = Op(seconds, cli_outcome(fd, inst, code, out), "." in homog, rss_mb=rss)
    else:
        numeric = not isinstance(result, Exception) and not result[1].is_exact
        op = Op(seconds, library_outcome(fd, inst, result), numeric, result)
    s.failed = op.outcome in FAILED
    return op


def input_set(workload: str, seed: int, seconds: float, share: float = 1.0):
    cycle_s, passes = PLAN[workload]
    cycles = max(1, round(share * seconds / (cycle_s * passes)))
    return [inst for c in range(cycles) for inst in inputs.cycle(workload, seed, c)]


class Run:
    """Outcomes and op times of one run over its input set."""

    def __init__(self, instances: list[inputs.Instance]) -> None:
        self.instances = instances
        self.ops: list[Op] = []

    @property
    def outcomes(self) -> Counter[str]:
        return Counter(op.outcome for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.outcome in FAILED for op in self.ops)

    def properties(self) -> dict:
        """Input shares that a later speed claim may depend on."""
        insts = self.instances
        return {
            "resonant_term_share": sum(i.resonant_terms for i in insts)
            / sum(i.terms for i in insts),
            "numeric_root_share": sum(op.numeric for op in self.ops) / max(1, len(self.ops)),
            "operator_degree_hist": dict(sorted(Counter(i.op_degree for i in insts).items())),
            "payload_degree_hist": dict(sorted(Counter(i.payload_degree for i in insts).items())),
            "input_bytes": sum(i.nbytes for i in insts),
        }


# ---- end-to-end run ----

def goldens_ok(fd) -> bool:
    """The four goldens must render their known particulars bit-exactly."""
    rng = random.Random(0)
    return all(run_op(fd, "mix", inputs.golden_instance(rng, k)).outcome == "verified"
               for k in range(4))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(values: list[float]) -> int:
    """The highest percentile with at least ten samples beyond it (else 50)."""
    for pct in range(99, 50, -1):
        if sum(v > percentile(values, pct) for v in values) >= 10:
            return pct
    return 50


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports fdsolve and builds the first
    cycle of inputs: what a run pays before its first timed op."""
    wall, code, out, _ = run_child([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                                    "--workload", workload, "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}:\n{out}")
    return wall


# Other tenants of a shared host slow its CPUs, by up to 2x for stretches of
# seconds to minutes.  A fixed workload that uses only the standard library
# (Horner's rule on Fractions, the arithmetic fdsolve spends its time in) is
# timed before and after every op; end-to-end timings are scaled to the CPU
# speed at which it takes REFERENCE_S, its time on an idle 2-vCPU VM.
_REFERENCE_POLY = [Fraction(3 * k + 1, 7 + k) for k in range(12)]
REFERENCE_S = 0.00125


def reference_seconds() -> float:
    """Best of three timings of the reference workload."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for x in range(-20, 21):
            acc = Fraction(0)
            for c in _REFERENCE_POLY:
                acc = acc * x + c
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Scales a wall time to the reference CPU speed, using the reference
    timed just before and just after it."""

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        now = reference_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return seconds * factor


def end_to_end(fd, workload: str, seed: int, seconds: float) -> tuple[dict, Run, bool]:
    """Every input runs once per pass.  An input's latency is its fastest
    pass, scaled to the reference CPU speed: the passes lie seconds apart, so
    together with the scaling this filters out interference from other
    tenants of the host.  Set-up probes run before each pass and after the
    last, for the same reason."""
    run = Run(input_set(workload, seed, seconds))
    best = [math.inf] * len(run.instances)
    raw = [math.inf] * len(run.instances)
    setups = []
    correct = goldens_ok(fd)
    speed = Speed()
    for _ in range(PLAN[workload][1]):
        setups += [speed.scale(setup_probe(workload, seed)) for _ in range(2)]
        for k, inst in enumerate(run.instances):
            op = run_op(fd, workload, inst)
            run.ops.append(op)
            best[k] = min(best[k], speed.scale(op.seconds))
            raw[k] = min(raw[k], op.seconds)
    setups += [speed.scale(setup_probe(workload, seed)) for _ in range(2)]
    pct = tail_percentile(best)
    tail = percentile(best, pct)
    rss = max(op.rss_mb for op in run.ops) if workload == "cli-cold" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "throughput_eq_per_s": (len(best) / sum(best), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"workload {workload}  seed {seed}  {len(best)} inputs x {PLAN[workload][1]} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22}{value:12.4f} {unit}")
    outcomes = run.outcomes
    print(f"  {'fail_rate':<22}{run.failed / len(run.ops):12.4f} ratio  ("
          + ", ".join(f"{o} {outcomes[o]}" for o in OUTCOMES) + ")")
    print(f"  latency_tail_ms is p{pct}: {sum(t > tail for t in best)} of {len(best)} "
          "inputs lie beyond it")
    print(f"  timings are scaled by the CPU speed factor, median "
          f"{statistics.median(speed.factors):.3f}; unscaled latency_p50_ms "
          f"{statistics.median(raw) * 1000:.4f} ms")
    return metrics, run, correct and outcomes["wrong"] == 0


# ---- traced run ----

def startup_probe(tracer: Tracer) -> None:
    bare, code, _, _ = run_child([sys.executable, "-c", "pass"])
    tracer.record("startup.interpreter", bare, code != 0)
    full, code, _, _ = run_child([sys.executable, "-c", "import fdsolve.cli"])
    tracer.record("startup.import", full - bare, code != 0)


def probes(fd, workload: str, inst: inputs.Instance, result, tracer: Tracer) -> None:
    """Layers that sit inside a public call, timed by calling again outside the op."""
    if workload == "cli-cold":
        # the op is a child process: time its start-up, then its stages in-process
        startup_probe(tracer)
        try:
            result = library_op(fd, inst, tracer)
        except Exception:  # the op has already counted its outcome
            return
        count(result, tracer)
    if isinstance(result, Exception):
        return
    eq, sol, report, _ = result
    with tracer.span("algebra.find_roots"):
        roots = fd.find_roots(eq.operator.as_poly())
    tracer.counts["algebra.find_roots.exact_roots"] += sum(r.exact for r in roots.roots)
    tracer.counts["algebra.find_roots.numeric_roots"] += sum(not r.exact for r in roots.roots)
    with tracer.span("oracle.forward") as s:
        forward_ok = fd.verify_solution(fd.Equation(eq.operator, eq.rhs), sol,
                                        horizon=HORIZON).ok
        s.failed = not forward_ok
    if eq.initial is None:
        # no initial values (`payload`): probe the fit and the iteration with
        # the particular's own values, for which every fitted constant is 0
        initial = tuple((t, sol.particular.eval_at(t)) for t in range(eq.operator.degree))
        eq = fd.Equation(eq.operator, eq.rhs, initial)
        try:
            with tracer.span("solver.fit"):
                constants = fd.fit_constants(eq.operator, sol.particular, sol.homogeneous,
                                             initial)
        except ValueError:  # the span has recorded the failed call
            constants = None
        sol = fd.Solution(sol.particular, sol.homogeneous, constants, sol.trace)
    if eq.initial is not None and sol.constants is not None:
        t0 = eq.initial[0][0]
        with tracer.span("oracle.iterate") as s:
            fd.iterate_recurrence(eq, t0 + HORIZON)
            for t in range(t0, t0 + HORIZON + 1):
                sol.general_value_at(t)
            s.failed = forward_ok and not report.ok  # the op's mismatch came from here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span("cli.main") as s:
            s.failed = fd.cli.main(cli_args(inst)) not in (0, 1, 2)


def count(result, tracer: Tracer) -> None:
    if result is None or isinstance(result, Exception):
        return
    _, sol, report, text = result
    steps = sol.trace.steps
    tracer.counts["solver.particular.trace_steps"] += len(steps)
    tracer.counts["solver.particular.resonant_terms"] += sum(s.rule == "propagation"
                                                             for s in steps)
    tracer.counts["oracle.verify.mismatches"] += not report.ok
    tracer.counts["expr.render.chars"] += len(text)


def per_layer(fd, workload: str, seed: int, seconds: float) -> tuple[dict, Run, bool]:
    """Traced run over the first cycles of the end-to-end input set.  Each op
    also runs untraced, alternating which goes first, for the tracing overhead."""
    tracer = Tracer()
    run = Run(input_set(workload, seed, seconds, TRACE_SHARE))
    untraced = 0.0
    for k, inst in enumerate(run.instances):
        for traced in ((True, False) if k % 2 else (False, True)):
            if traced:
                op = run_op(fd, workload, inst, tracer)
                run.ops.append(op)
            else:
                untraced += run_op(fd, workload, inst).seconds
        count(op.result, tracer)
        probes(fd, workload, inst, op.result, tracer)
    if workload != "cli-cold":
        for _ in range(LIBRARY_STARTUP_PROBES):
            startup_probe(tracer)
    op_total = sum(s.seconds for s in tracer.layer("op"))
    metrics = {}
    for name in LAYERS:
        spans = tracer.layer(name)
        busy = sum(s.seconds for s in spans)
        metrics[f"{name}.calls"] = (len(spans), "count")
        metrics[f"{name}.busy_ms"] = (busy * 1000, "ms")
        metrics[f"{name}.share"] = (busy / op_total, "ratio")
        metrics[f"{name}.failed"] = (sum(s.failed for s in spans), "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    calls = metrics["oracle.verify.calls"][0]
    metrics["oracle.verify.ok_ratio"] = (
        (calls - tracer.counts["oracle.verify.mismatches"]) / max(1, calls), "ratio")
    metrics["trace.overhead_ratio"] = (op_total / untraced, "ratio")
    print(f"workload {workload}  seed {seed}  traced {len(run.ops)} ops, "
          f"{op_total:.3f} s of op time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40}{value:14.4f} {unit}")
    return metrics, run, run.outcomes["wrong"] == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fdsolve" / "__init__.py").is_file():
        print(f"error: no fdsolve sources under {SRC}; run from an fdsolve checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdsolve as fd
    import fdsolve.cli  # noqa: F401  (loaded by every CLI run, so part of set-up)
    if args.setup_probe:
        inputs.cycle(args.workload, args.seed, 0)
        return 0
    measure = per_layer if args.trace else end_to_end
    metrics, run, correct = measure(fd, args.workload, args.seed, args.seconds)
    print("inputs " + json.dumps(run.properties()))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
