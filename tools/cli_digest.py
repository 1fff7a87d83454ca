"""A digest of the CLI's output on every benchmark input, to check that a change
keeps that output byte for byte.

Run from the root of a checkout, with no options:

    python3 tools/cli_digest.py

It imports fdsolve from ./src and `input_set` from bench/run.py, takes the
distinct (equation, initial values) pairs of all four workloads at seeds 1-3
in first-seen order, and runs `fdsolve solve EQ [--initial ...] --trace
--verify` on each in text and in JSON, in-process through `cli.main`.  It
prints the number of inputs, the number of runs, one sha256 over each run's
argv, exit code, stdout and stderr, one such sha256 over the runs of each
format alone, so that a change to JSON float digits alone leaves the text
digest as it was, and one over the runs of each workload, each input counted
under the first workload that draws it, so that a change to one workload's
output shows which.  The printed float modes and constants depend on the
platform's math library, so compare digests taken on one machine only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from fdsolve import cli  # noqa: E402
from run import input_set  # noqa: E402  (bench/run.py)

SEEDS = (1, 2, 3)
SECONDS = 16  # the benchmark's default run length, which sizes each input set


def main() -> int:
    pairs: dict[tuple[str, str], str] = {}
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            for inst in input_set(workload, seed, SECONDS):
                pairs.setdefault((inst.equation, inst.initial), workload)
    digest = hashlib.sha256()
    by_format = {fmt: hashlib.sha256() for fmt in ("text", "json")}
    by_workload = {workload: hashlib.sha256() for workload in inputs.WORKLOADS}
    runs = 0
    for (equation, initial), workload in pairs.items():
        for fmt, part in by_format.items():
            argv = ["solve", equation] + (["--initial", initial] if initial else []) \
                + ["--trace", "--verify", "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            line = json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n"
            digest.update(line)
            part.update(line)
            by_workload[workload].update(line)
            runs += 1
    print(f"inputs {len(pairs)}")
    print(f"runs {runs}")
    print(f"sha256 {digest.hexdigest()}")
    for name, part in [*by_format.items(), *by_workload.items()]:
        print(f"sha256 {name} {part.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
