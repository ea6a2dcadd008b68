"""Before/after benchmark of a change: perfbench on a base revision and on
the working tree, in alternating pairs, for every workload.

    python3 tools/bench_pair.py --out BENCH_<n>.json
    python3 tools/bench_pair.py --base HEAD~1 --out B.json

Run from the root of a git checkout.  The base revision is exported with
`git archive` into a temporary directory (a plain copy: nothing is added
to the repository's worktree list and nothing is left behind).  For each
workload and each of the PAIRS seeds, `perfbench/run.py --workload W
--seed S --seconds 20 --trace 0` runs on the base and on the working tree
with the same seed, the base first in even pairs and the working tree
first in odd ones, so slow phases of the machine hit both sides alike.
The output JSON holds the machine, the Python and numpy versions, both
revisions, every run's metrics and failed-operation count, and per
workload and metric each side's median and quartiles and the number of
pairs where the change read lower.  Each side also records the git tree
ids of the directories the benchmark runs (`src`, `perfbench`), so the
measured working tree can be matched to a later commit with
`git rev-parse <commit>:src`, and the line count of the Python files
under `src/`.

After the workloads, CRITERION2_PAIRS alternating pairs of fresh processes
time the whole of criterion 2, `verify.suite_homology_oracle()` at full
range with the oracle included, and record each run's wall time, peak RSS
and number of failed checks under `criterion2`.  Then CYCLIC_SYLOW_PAIRS
alternating pairs of fresh processes time `h2` followed by `schur_cover`
for each group of CYCLIC_SYLOW_GROUPS, from a cold start, and record each
run's wall time, peak RSS, multiplier and cover order under
`cyclic_sylow`.  Then H2_PAIRS alternating pairs of fresh processes time
`h2` alone, from a cold start, for each group of H2_GROUPS, and record
each run's wall time, peak RSS and multiplier under `h2`; a side that
refuses a group records "CapacityError" as its multiplier.  Then
COVERS_PAIRS alternating pairs of fresh processes time `schur_cover`
alone, after a warm `h2`, for each group of COVERS_GROUPS, and record
each run's wall time, peak RSS, cover order and the sha256 of the cover
table under `covers`.  Then BUILD_U_PAIRS alternating pairs of fresh
processes time a cold `build_u(G, c)`, c the involutions, for each group
of BUILD_U_GROUPS, and record each run's wall time, peak RSS, reduced
multiplier and the sha256 of the reduced cover table under `build_u`.
Then TABLES_PAIRS alternating pairs of fresh processes time each case of
TABLES: `dihedral(250)`, whose table the constructor validates, and
`FiniteGroup(t)` on the tables of Z/1009 and (Z/7)^4, valid and with one
wrong entry; each run records its wall time, peak RSS and result (the
order, or the error that refused the table) under `tables`.  Then
MONTE_CARLO_PAIRS alternating pairs of fresh
processes time one `monte_carlo` call of MONTE_CARLO_TRIALS trials for
each modulus of MONTE_CARLO_MODULI, and record each run's wall time, peak
RSS and the sha256 of its counts under `monte_carlo`; `counts_equal` says
whether every run of both sides gave the same counts.  Then
LARGE_GROUPS_PAIRS alternating pairs of fresh processes time each case of
LARGE_GROUPS on groups of order 2,401, and record each run's wall time,
peak RSS and result under `large_groups`.  Then FF_MOMENT_PAIRS
alternating pairs of fresh processes time
`empirical_moment(7, 5, [3, 3], seed=1)`, the 29,400 models of genus 1
and 2 over F_7, and record each run's wall time, peak RSS, rows
(degree, fields, excluded, sur_sum) and the sha256 of the rows under
`ff_moment`.

Last, tier-1 (`python -m pytest -q --durations=15` over `tests/`) runs
once per side, the base first; `tier1` records each side's pass, fail and
error counts, its wall time and its slowest test phases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("braid-orbits", "schur-covers", "randgrp-mc", "class-groups")
PAIRS = 10
SECONDS = 20
SEEDS = range(701, 701 + PAIRS)
MEASURED = ("src", "perfbench")
CRITERION2_PAIRS = 5
# criterion 2 as tier-1 runs it: every check of the suite, oracle included,
# with its pass/fail lines kept off the JSON line
CRITERION2_SCRIPT = """
import contextlib, io, json, resource, time
from hurwitzlab.verify import suite_homology_oracle
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    results = suite_homology_oracle()
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"checks": len(results),
                  "failed": sum(not r.passed for r in results),
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

CYCLIC_SYLOW_PAIRS = 3
# C273 and D33 have only cyclic Sylow subgroups; C5xC5:C2 has a cyclic
# Sylow 2-subgroup beside a non-cyclic Sylow 5-subgroup
CYCLIC_SYLOW_GROUPS = ("C273", "D33", "C5xC5:C2")
CYCLIC_SYLOW_SCRIPT = """
import json, resource, sys, time
from hurwitzlab.groups import (abelian, cyclic, dihedral, inversion_action,
                               semidirect)
from hurwitzlab.homology import h2, schur_cover
group = {"C273": lambda: cyclic(273), "D33": lambda: dihedral(33),
         "C5xC5:C2": lambda: semidirect(
             inversion_action(abelian([5, 5]))).group}[sys.argv[1]]()
t0 = time.perf_counter()
mult = h2(group)
cover = schur_cover(group)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"h2": list(mult.chain), "cover_order": cover.total.order,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

H2_PAIRS = 3
# up to C2^7 the bar complex's reach; C5^3:C2 of order 250 is past it
H2_GROUPS = ("C5xC5:C2", "S5", "D100", "C2^7", "C5^3:C2")
H2_SCRIPT = """
import json, resource, sys, time
from hurwitzlab.errors import CapacityError
from hurwitzlab.groups import (abelian, dihedral, inversion_action,
                               semidirect, symmetric)
from hurwitzlab.homology import h2
group = {"C5xC5:C2": lambda: semidirect(
             inversion_action(abelian([5, 5]))).group,
         "S5": lambda: symmetric(5), "D100": lambda: dihedral(100),
         "C2^7": lambda: abelian([2] * 7),
         "C5^3:C2": lambda: semidirect(
             inversion_action(abelian([5, 5, 5]))).group}[sys.argv[1]]()
t0 = time.perf_counter()
try:
    mult = list(h2(group).chain)
except CapacityError:
    mult = "CapacityError"
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"h2": mult,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

COVERS_PAIRS = 3
# D100 (order 200): an (n, n, (n - 1) k) cochain array would be 121 MiB
# there, so its peak RSS shows whether a cover factor stays O(|G|^2);
# D250 and C11xC11:C2 are the covers whose Howell forms are largest;
# C22:C4 (order 16) is the one group whose table moved, to an isomorphic
# one, when the cocycle space moved to h2's generating set: a change of
# that set shows there as base != change
COVERS_GROUPS = ("C5xC5:C2", "C7xC7:C2", "C3^3:C2", "S4", "C2^4", "D100",
                 "D250", "C11xC11:C2", "C22:C4")
# the table is hashed as nested lists, whatever its dtype
COVERS_SCRIPT = """
import hashlib, json, resource, sys, time
from hurwitzlab.groups import (abelian, dihedral, groups_up_to_16,
                               inversion_action, semidirect, symmetric)
from hurwitzlab.homology import h2, schur_cover
def inversion(orders):
    return semidirect(inversion_action(abelian(orders))).group
group = {"C5xC5:C2": lambda: inversion([5, 5]),
         "C7xC7:C2": lambda: inversion([7, 7]),
         "C3^3:C2": lambda: inversion([3, 3, 3]),
         "S4": lambda: symmetric(4),
         "C2^4": lambda: abelian([2] * 4),
         "D100": lambda: dihedral(100),
         "D250": lambda: dihedral(250),
         "C11xC11:C2": lambda: inversion([11, 11]),
         "C22:C4": lambda: next(g for g in groups_up_to_16()
                                if g.name == "C22:C4")}[sys.argv[1]]()
h2(group)
t0 = time.perf_counter()
cover = schur_cover(group)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
table = repr(cover.total.array.tolist()).encode()
print(json.dumps({"cover_order": cover.total.order,
                  "cover_sha256": hashlib.sha256(table).hexdigest(),
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

BUILD_U_PAIRS = 5
BUILD_U_GROUPS = ("C7xC7:C2", "C3^3:C2", "C11xC11:C2")
# build_u(G, c) with c the involutions, in a fresh process
BUILD_U_SCRIPT = """
import hashlib, json, resource, sys, time
from hurwitzlab.groups import abelian, inversion_action, semidirect
from hurwitzlab.homology import build_u
orders = {"C7xC7:C2": [7, 7], "C3^3:C2": [3, 3, 3],
          "C11xC11:C2": [11, 11]}[sys.argv[1]]
group = semidirect(inversion_action(abelian(orders))).group
c = [x for x in range(1, group.order) if group.element_order(x) == 2]
t0 = time.perf_counter()
ctx = build_u(group, c)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
table = repr(ctx.sc.total.array.tolist()).encode()
print(json.dumps({"h2c": list(ctx.h2c.chain),
                  "sc_sha256": hashlib.sha256(table).hexdigest(),
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

TABLES_PAIRS = 5
TABLES = ("dihedral(250)", "Z/1009", "(Z/7)^4", "Z/1009 one wrong entry",
          "(Z/7)^4 one wrong entry")
# the tables are built before the clock starts; a wrong entry moves
# (5, 7) to the next element, which keeps the identity and an inverse
# for every element, so only associativity fails
TABLES_SCRIPT = """
import json, resource, sys, time
from hurwitzlab.errors import ValidationError
from hurwitzlab.groups import FiniteGroup, abelian, cyclic, dihedral
case = sys.argv[1]
if case != "dihedral(250)":
    g = cyclic(1009) if case.startswith("Z/1009") else abelian([7] * 4)
    table = g.array.copy()
    if case.endswith("wrong entry"):
        table[5, 7] = (table[5, 7] + 1) % g.order
t0 = time.perf_counter()
try:
    result = (dihedral(250) if case == "dihedral(250)"
              else FiniteGroup(table)).order
except ValidationError as err:
    result = f"rejected: {err}"
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"result": result,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

MONTE_CARLO_PAIRS = 3
MONTE_CARLO_MODULI = (3, 9, 25)
MONTE_CARLO_TRIALS = 10_000
# the free object on 8 generators of the variety of (Z/m)[C2]-modules,
# Gamma_inf = Gamma; the counts are hashed in their order of first
# appearance, which monte_carlo also fixes
MONTE_CARLO_SCRIPT = """
import hashlib, json, resource, sys, time
from hurwitzlab.groups import cyclic
from hurwitzlab.randgrp import (FreeAdmissible, abelian_exponent_variety,
                                monte_carlo)
m, trials = int(sys.argv[1]), int(sys.argv[2])
free = FreeAdmissible(8, abelian_exponent_variety(cyclic(2), m))
t0 = time.perf_counter()
report = monte_carlo(free, [0, 1], trials, seed=1)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
counts = repr(list(report.counts.items())).encode()
print(json.dumps({"counts_sha256": hashlib.sha256(counts).hexdigest(),
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

LARGE_GROUPS_PAIRS = 5
# (Z/7)^4 built from nothing; the regular (Z/7)[C4]-module and the free
# object on one generator of its variety; the greedy generating set of
# (Z/7)^4, the group built before the clock starts
LARGE_GROUPS = ("(Z/7)^4", "FreeAdmissible(1, (Z/7)[C4])",
                "_small_generating_set((Z/7)^4)")
LARGE_GROUPS_SCRIPT = """
import json, resource, sys, time
from hurwitzlab.groups import _small_generating_set, abelian, cyclic
from hurwitzlab.randgrp import FreeAdmissible, abelian_exponent_variety
case = sys.argv[1]
group = abelian([7] * 4) if case.startswith("_small") else None
t0 = time.perf_counter()
if case == "(Z/7)^4":
    result = abelian([7] * 4).order
elif case.startswith("FreeAdmissible"):
    result = FreeAdmissible(1, abelian_exponent_variety(cyclic(4), 7)).order
else:
    result = _small_generating_set(group)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"result": result,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

FF_MOMENT_PAIRS = 3
FF_MOMENT_SCRIPT = """
import hashlib, json, resource, time
from hurwitzlab.arith import empirical_moment
t0 = time.perf_counter()
report = empirical_moment(7, 5, [3, 3], seed=1)
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
rows = [(r.degree, r.fields, r.excluded, r.sur_sum) for r in report.rows]
digest = hashlib.sha256(repr(rows).encode()).hexdigest()
print(json.dumps({"rows": rows, "rows_sha256": digest,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=15")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` under `dest`, through `git archive`."""
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(tar), rev],
                   cwd=ROOT, check=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(tar) as tf:
        tf.extractall(dest, **safe)
    tar.unlink()


def worktree_trees() -> dict:
    """Git tree ids of MEASURED as they stand in the working tree
    (untracked files included, ignored ones not), built in a scratch
    index so the repository's own index is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        subprocess.run(["git", "add", "-A", "--", *MEASURED], cwd=ROOT,
                       env=env, check=True)
        return {d: subprocess.run(
            ["git", "write-tree", f"--prefix={d}/"], cwd=ROOT, env=env,
            check=True, capture_output=True, text=True).stdout.strip()
            for d in MEASURED}


def src_lines(checkout: Path) -> int:
    """Lines in the Python files under `checkout/src`."""
    return sum(len(f.read_bytes().splitlines())
               for f in sorted((checkout / "src").rglob("*.py")))


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def script_run(checkout: Path, script: str, *args: str) -> dict:
    """The JSON last line of `python -c script args` in a fresh process
    on the checkout's `src`, single-threaded."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"script run {args} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alternating(base_dir: Path, count: int, run, label: str) -> list:
    """`count` pairs of run(checkout, i) on the base and on the working
    tree, the base first in even pairs and the working tree first in odd
    ones."""
    runs = []
    for i in range(count):
        pair = {}
        sides = [("base", base_dir), ("change", ROOT)]
        for side, checkout in sides[::-1] if i % 2 else sides:
            pair[side] = run(checkout, i)
        print(label, {s: pair[s]["metrics"]["wall_s"]["value"]
                      for s in ("base", "change")}, file=sys.stderr)
        runs.append(pair)
    return runs


def tier1_run(checkout: Path) -> dict:
    """One tier-1 run: outcome counts, wall time and the slowest phases."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = dict.fromkeys(("passed", "failed", "error"), 0)
    for n, what in re.findall(r"(\d+) (passed|failed|error)",
                              lines[-1] if lines else ""):
        counts[what] = int(n)
    slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (\w+) +(\S+)$").match,
                            lines) if m]
    return {**counts, "exit": proc.returncode, "wall_s": wall_s,
            "slowest": slowest}


def script_section(base_dir: Path, script: str, pairs: int, names,
                   keys) -> dict:
    """Per name, `pairs` alternating pairs of fresh-process runs of
    `script name`: each side's `keys` from the first pair, the summary
    and every run."""
    out = {}
    for name in names:
        runs = alternating(base_dir, pairs,
                           lambda c, i: script_run(c, script, name), name)
        out[name] = {key: {s: runs[0][s][key] for s in ("base", "change")}
                     for key in keys}
        out[name].update(metrics=summarize(runs), runs=runs)
    return out


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"platform": platform.platform(), "cpu": model,
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["base"]["metrics"]:
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        out[name] = {
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "ratio": statistics.median(change) / statistics.median(base),
            "pairs_change_lower": sum(c < b for b, c in zip(base, change)),
            "base_quartiles": quartiles(base),
            "change_quartiles": quartiles(change),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    report = {
        "machine": machine(),
        "base": {"rev": args.base, "sha": git("rev-parse", args.base),
                 "trees": {d: git("rev-parse", f"{args.base}:{d}")
                           for d in MEASURED}},
        "change": {"rev": "working tree", "head_sha": git("rev-parse", "HEAD"),
                   "trees": worktree_trees(), "src_lines": src_lines(ROOT)},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        export(args.base, base_dir)
        report["base"]["src_lines"] = src_lines(base_dir)
        for workload in WORKLOADS:
            runs = alternating(
                base_dir, PAIRS,
                lambda c, i: perfbench(c, workload, SEEDS[i]), workload)
            for seed, pair in zip(SEEDS, runs):
                pair["seed"] = seed
            report["workloads"][workload] = {
                "failed": {s: sum(r[s]["failed"] for r in runs)
                           for s in ("base", "change")},
                "correct": {s: all(r[s]["correct"] for r in runs)
                            for s in ("base", "change")},
                "metrics": summarize(runs),
                "runs": runs,
            }
        runs = alternating(
            base_dir, CRITERION2_PAIRS,
            lambda c, i: script_run(c, CRITERION2_SCRIPT), "criterion2")
        report["criterion2"] = {
            "command": "python3 -c CRITERION2_SCRIPT (tools/bench_pair.py)",
            "checks": {s: runs[0][s]["checks"] for s in ("base", "change")},
            "failed": {s: sum(r[s]["failed"] for r in runs)
                       for s in ("base", "change")},
            "metrics": summarize(runs), "runs": runs}
        report["cyclic_sylow"] = {
            "command": "python3 -c CYCLIC_SYLOW_SCRIPT GROUP "
                       "(tools/bench_pair.py)",
            "groups": script_section(base_dir, CYCLIC_SYLOW_SCRIPT,
                                     CYCLIC_SYLOW_PAIRS, CYCLIC_SYLOW_GROUPS,
                                     ("h2", "cover_order"))}
        report["h2"] = {
            "command": "python3 -c H2_SCRIPT GROUP (tools/bench_pair.py)",
            "groups": script_section(base_dir, H2_SCRIPT, H2_PAIRS,
                                     H2_GROUPS, ("h2",))}
        report["covers"] = {
            "command": "python3 -c COVERS_SCRIPT GROUP (tools/bench_pair.py)",
            "groups": script_section(base_dir, COVERS_SCRIPT, COVERS_PAIRS,
                                     COVERS_GROUPS,
                                     ("cover_order", "cover_sha256"))}
        report["build_u"] = {
            "command": "python3 -c BUILD_U_SCRIPT GROUP (tools/bench_pair.py)",
            "groups": script_section(base_dir, BUILD_U_SCRIPT, BUILD_U_PAIRS,
                                     BUILD_U_GROUPS, ("h2c", "sc_sha256"))}
        report["tables"] = {
            "command": "python3 -c TABLES_SCRIPT CASE (tools/bench_pair.py)",
            "cases": script_section(base_dir, TABLES_SCRIPT, TABLES_PAIRS,
                                    TABLES, ("result",))}
        report["monte_carlo"] = {
            "command": "python3 -c MONTE_CARLO_SCRIPT M "
                       f"{MONTE_CARLO_TRIALS} (tools/bench_pair.py)",
            "moduli": {}}
        for m in MONTE_CARLO_MODULI:
            runs = alternating(
                base_dir, MONTE_CARLO_PAIRS,
                lambda c, i: script_run(c, MONTE_CARLO_SCRIPT, str(m),
                                        str(MONTE_CARLO_TRIALS)), f"m={m}")
            hashes = {r[s]["counts_sha256"] for r in runs
                      for s in ("base", "change")}
            report["monte_carlo"]["moduli"][str(m)] = {
                "counts_sha256": {s: runs[0][s]["counts_sha256"]
                                  for s in ("base", "change")},
                "counts_equal": len(hashes) == 1,
                "metrics": summarize(runs), "runs": runs}
        report["large_groups"] = {
            "command": "python3 -c LARGE_GROUPS_SCRIPT CASE "
                       "(tools/bench_pair.py)",
            "cases": script_section(base_dir, LARGE_GROUPS_SCRIPT,
                                    LARGE_GROUPS_PAIRS, LARGE_GROUPS,
                                    ("result",))}
        runs = alternating(
            base_dir, FF_MOMENT_PAIRS,
            lambda c, i: script_run(c, FF_MOMENT_SCRIPT), "ff_moment")
        report["ff_moment"] = {
            "command": "python3 -c FF_MOMENT_SCRIPT (tools/bench_pair.py)",
            **{key: {s: runs[0][s][key] for s in ("base", "change")}
               for key in ("rows", "rows_sha256")},
            "rows_equal": len({r[s]["rows_sha256"] for r in runs
                               for s in ("base", "change")}) == 1,
            "metrics": summarize(runs), "runs": runs}
        report["tier1"] = {
            "command": "python3 " + " ".join(TIER1),
            "base": tier1_run(base_dir), "change": tier1_run(ROOT)}
    if worktree_trees() != report["change"]["trees"]:
        raise RuntimeError("the working tree changed during the run")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
