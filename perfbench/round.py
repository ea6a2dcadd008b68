"""One round of one workload, in a fresh process.

    python3 perfbench/round.py --workload NAME --seed N --spawned-at T
                               [--trace-out PATH]

run.py starts this script once per round, so every round begins with a
fresh interpreter and cold module caches, as a CLI user's process does.
It prints one JSON object: set-up time (from `--spawned-at`, the parent's
time.monotonic() just before the spawn, to the first timed call), the wall
and CPU time of the round's calls, the same times at the reference speed
(see workloads.speed_probe), the operation counts, the check failures and
the peak RSS.  With --trace-out the calls run under the tracer, the spans
go to that path and the per-layer figures are added.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import hurwitzlab
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(hurwitzlab.__file__).resolve().parents:
        print(f"hurwitzlab imported from {hurwitzlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import checks
    import workloads
    make_inputs, run, probe_kind = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer(namespaces=[workloads])
        tracer.install()
    ops = workloads.Ops(probe_kind, probe_during_calls=tracer is None)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    summary = run(inputs, ops)
    round_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    ops.close()
    # seconds at the reference speed per second measured in this round
    scale = ops.reference_probe_s / statistics.median(ops.probes)

    failures = checks.CHECKS[args.workload](summary)
    out = {
        "setup_s": setup_s, "wall_s": sum(ops.seconds), "cpu_s": cpu_s,
        "scaled_setup_s": setup_s * scale,
        "scaled_wall_s": sum(ops.scaled_seconds()),
        "scale": scale,
        "attempted": ops.attempted, "failed": len(ops.failures),
        "op_failures": ops.failures, "check_failures": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, summary, scale)
        own = round_s - tracer.top_level_time()
        total_self = sum(tracer.layer_self().values())
        if abs(total_self + own - round_s) > 1e-6 * round_s:
            failures.append(f"self times {total_self} plus benchmark time "
                            f"{own} differ from traced wall time {round_s}")
        tracer.write(args.trace_out, origin=t0)
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, summary: dict, scale: float) -> dict:
    """Per-layer figures of a traced round; times at the reference speed."""
    from tracing import LAYERS
    m = {}
    for layer, s in tracer.layer_self().items():
        m[f"{layer}.self_s"] = s * scale
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.calls[layer]

    def inc(name):
        return tracer.inclusive(name) * scale

    m["groups.build_s"] = tracer.layer_top_level("groups") * scale
    m["homology.build_u_s"] = inc("homology.build_u")
    m["homology.h2_s"] = inc("homology.h2")
    m["homology.schur_cover_s"] = inc("homology.schur_cover")
    m["homology.reduce_cover_s"] = inc("homology.reduce_cover")
    m["intmat.entries"] = tracer.intmat_entries
    m["hurwitz.enumerate_s"] = inc("hurwitz.enumerate_tuples")
    m["hurwitz.orbits_s"] = inc("hurwitz.orbits")
    m["hurwitz.tuples"] = summary.get("tuples", 0)
    m["hurwitz.orbits"] = summary.get("orbits", 0)
    m["hurwitz.tuples_per_s"] = rate(m["hurwitz.tuples"], m["hurwitz.orbits_s"])
    m["frob.fixed_counts_s"] = inc("frob.fixed_counts")
    m["randgrp.free_s"] = inc("randgrp.FreeAdmissible.__init__")
    m["randgrp.monte_carlo_s"] = inc("randgrp.monte_carlo")
    m["randgrp.mu_n_s"] = inc("randgrp.mu_n")
    m["randgrp.trials_per_s"] = rate(summary.get("trials", 0),
                                     m["randgrp.monte_carlo_s"])
    m["arith.ff_moment_s"] = inc("arith.empirical_moment")
    m["arith.nf_class_groups_s"] = inc("arith.nf_class_group")
    m["arith.curves"] = summary.get("curves", 0)
    m["arith.nf_fields"] = summary.get("nf_fields", 0)
    m["arith.curves_per_s"] = rate(m["arith.curves"], m["arith.ff_moment_s"])
    m["trace.spans"] = len(tracer.span_name)
    return m


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


if __name__ == "__main__":
    sys.exit(main())
