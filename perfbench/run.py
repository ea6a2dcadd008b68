"""hurwitzlab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Rounds of the workload (see
workloads.py) run one after another, each in a fresh child process
(round.py), until S seconds have passed; every round is whole.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (child spawn to first
timed call) and wall_s (all of a round's calls), as medians over the
rounds of their values at the reference speed (see workloads.speed_probe),
and peak_rss_mib (the largest child).  --trace 1 alternates untraced and
traced rounds and reports the medians of the traced rounds' per-layer
metrics, with the tracing overhead.  Results and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("braid-orbits", "schur-covers", "randgrp-mc", "class-groups")
ROUND_TIMEOUT_S = 120

PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [("groups.build_s", "s"), ("homology.build_u_s", "s"),
       ("homology.h2_s", "s"), ("homology.schur_cover_s", "s"),
       ("homology.reduce_cover_s", "s"), ("intmat.entries", "count"),
       ("hurwitz.enumerate_s", "s"), ("hurwitz.orbits_s", "s"),
       ("hurwitz.tuples", "count"), ("hurwitz.orbits", "count"),
       ("hurwitz.tuples_per_s", "1/s"), ("frob.fixed_counts_s", "s"),
       ("randgrp.free_s", "s"), ("randgrp.monte_carlo_s", "s"),
       ("randgrp.mu_n_s", "s"), ("randgrp.trials_per_s", "1/s"),
       ("arith.ff_moment_s", "s"), ("arith.nf_class_groups_s", "s"),
       ("arith.curves", "count"), ("arith.nf_fields", "count"),
       ("arith.curves_per_s", "1/s"), ("process.cpu_s", "s"),
       ("trace.overhead_s", "s")])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "round.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hurwitzlab" / "__init__.py").is_file():
        print(f"no hurwitzlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"

    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_round(args.workload, args.seed, None))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, trace_path))
        if time.monotonic() - start >= args.seconds:
            break
    rounds = plain + traced

    # Times are at the reference speed (see workloads.speed_probe): the
    # machine's own speed drifts, up to twice as slow, over minutes.
    med = statistics.median
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "process.cpu_s":
                value = med(r["cpu_s"] * r["scale"] for r in plain)
            elif name == "trace.overhead_s":
                value = med(r["scaled_wall_s"] for r in traced) - \
                    med(r["scaled_wall_s"] for r in plain)
            else:
                value = med(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": med(r["scaled_setup_s"] for r in plain),
                        "unit": "s"},
            "wall_s": {"value": med(r["scaled_wall_s"] for r in plain),
                       "unit": "s"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in plain),
                             "unit": "MiB"},
        }
    problems = [msg for r in rounds for msg in r["check_failures"]]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=rounds)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))
    for msg in problems + [m for r in rounds for m in r["op_failures"]]:
        print(msg, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
