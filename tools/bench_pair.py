"""Before/after benchmark of a change: perfbench on a base revision and on
the working tree, in alternating pairs, for every workload, then every case
of one case table, then tier-1.

    python3 tools/bench_pair.py --out BENCH_<n>.json
    python3 tools/bench_pair.py --base HEAD~1 --out B.json

Run from the root of a git checkout.  Both sides run from exports in one
temporary directory (plain copies: nothing is added to the repository's
worktree list and nothing is left behind), so nothing about the checkout's
own directory favours either side: the base revision through `git archive`,
the working tree through a scratch index that holds it as it stands
(untracked files included, ignored ones not).  For each
workload and each of the PAIRS seeds, `perfbench/run.py --workload W
--seed S --seconds 20 --trace 0` runs on the base and on the working tree
with the same seed, the base first in even pairs and the working tree
first in odd ones, so slow phases of the machine hit both sides alike.
The output JSON holds the machine, the Python and numpy versions, both
revisions, every run's metrics and failed-operation count, and per
workload and metric each side's median and quartiles and the number of
pairs where the change read lower.  Each side also records the git tree
ids of the directories the benchmark runs (`src`, `perfbench`), read off
the index its export came from, so the measured working tree can be
matched to a later commit with `git rev-parse <commit>:src`, and the line
count of the Python files under `src/`.

After the workloads, one harness measures every case of CASES, a map from
section to (pairs, {case: (set-up, call, result)}).  Each run is a fresh,
single-threaded process of HARNESS on one side's `src`: it runs the set-up
untimed, times the call with stdout discarded, and records the wall time,
the peak RSS and the value of the result expression, which reads the
call's value as `out`.  A HurwitzLabError raised by the call is the result
"<Type>: <message>"; any other exception stops the bench.  The cases go to
the harness as JSON, so the base checkout runs the working tree's cases.
Each case runs in `pairs` alternating pairs and gets one record under
report[section][case]: the three strings (`case`), each side's `result`
from the first pair, `result_equal` (every run of both sides gave the same
result), the summary of its metrics and every run.

Last, tier-1 (`python -m pytest -q --durations=15` over `tests/`) runs
once per side in its export, the base first; `tier1` records each side's
pass, fail and error counts, its wall time and its slowest test phases.
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
SIDES = ("base", "change")

HARNESS = """
import contextlib, io, json, resource, sys, time
from hurwitzlab.errors import HurwitzLabError

def inversion(*orders):
    from hurwitzlab.groups import abelian, inversion_action, semidirect
    return semidirect(inversion_action(abelian(list(orders)))).group

def named(name):
    from hurwitzlab.groups import groups_up_to_16
    return next(g for g in groups_up_to_16() if g.name == name)

def sha(value):
    # hashlib loads here, after the peak RSS is read: imported up front it
    # raised the peak of dihedral(250) by 3.6 MiB
    import hashlib
    return hashlib.sha256(repr(value).encode()).hexdigest()

setup, call, result = json.loads(sys.argv[1])
exec(setup)
error = None
t0 = time.perf_counter()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        out = eval(call)
except HurwitzLabError as err:
    error = f"{type(err).__name__}: {err}"
wall_s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"result": eval(result) if error is None else error,
                  "metrics": {"wall_s": {"value": wall_s},
                              "peak_rss_mib": {"value": rss}}}))
"""

# Each set-up imports the modules its section's calls need and no others,
# since every import counts in the peak RSS of a small case.
GROUPS = ("from hurwitzlab.groups import (FiniteGroup, abelian, cyclic, "
          "dihedral, symmetric)\n")
HOMOLOGY = GROUPS + "from hurwitzlab.homology import build_u, h2, schur_cover\n"


def with_imports(imports: str, cases: dict) -> dict:
    """`cases` with `imports` first in each set-up."""
    return {name: (imports + setup, call, result)
            for name, (setup, call, result) in cases.items()}


def on_groups(setup: str, call: str, result: str, groups: dict) -> dict:
    """One case per group of `groups`, a map from name to the expression
    that builds it as G before `setup` runs."""
    return with_imports(HOMOLOGY, {name: (f"G = {expr}\n{setup}", call, result)
                                   for name, expr in groups.items()})


CASES = {
    # criterion 2 as tier-1 runs it: every check of the suite, oracle
    # included
    "criterion2": (5, {"suite_homology_oracle()": (
        "from hurwitzlab.verify import suite_homology_oracle",
        "suite_homology_oracle()",
        "[len(out), sum(not r.passed for r in out)]")}),
    # up to C2^7 the bar complex's reach; C5^3:C2 of order 250 is past it;
    # C273 and D33 have only cyclic Sylow subgroups, C5xC5:C2 a cyclic
    # Sylow 2-subgroup beside a non-cyclic Sylow 5-subgroup
    "h2": (3, on_groups("", "h2(G)", "list(out.chain)", {
        "C5xC5:C2": "inversion(5, 5)", "S5": "symmetric(5)",
        "D100": "dihedral(100)", "C2^7": "abelian([2] * 7)",
        "C5^3:C2": "inversion(5, 5, 5)", "C273": "cyclic(273)",
        "D33": "dihedral(33)"})),
    # after a warm h2; tables are hashed as nested lists, whatever their
    # dtype.  D100 (order 200): an (n, n, (n - 1) k) cochain array would be
    # 121 MiB there, so its peak RSS shows whether a cover factor stays
    # O(|G|^2); D250 and C11xC11:C2 are the covers whose Howell forms are
    # largest; C22:C4 (order 16) is a group whose two generating sets
    # differ as sets, so a change of the cover's generating set shows there
    # as base != change
    "covers": (3, on_groups(
        "h2(G)", "schur_cover(G)",
        "[out.total.order, sha(out.total.array.tolist())]", {
            "C5xC5:C2": "inversion(5, 5)", "C7xC7:C2": "inversion(7, 7)",
            "C3^3:C2": "inversion(3, 3, 3)", "S4": "symmetric(4)",
            "C2^4": "abelian([2] * 4)", "D100": "dihedral(100)",
            "D250": "dihedral(250)", "C11xC11:C2": "inversion(11, 11)",
            "C22:C4": "named('C22:C4')", "C273": "cyclic(273)",
            "D33": "dihedral(33)"})),
    # c the involutions
    "build_u": (5, on_groups(
        "c = [x for x in range(1, G.order) if G.element_order(x) == 2]",
        "build_u(G, c)",
        "[list(out.h2c.chain), sha(out.sc.total.array.tolist())]", {
            "C7xC7:C2": "inversion(7, 7)", "C3^3:C2": "inversion(3, 3, 3)",
            "C11xC11:C2": "inversion(11, 11)"})),
    # dihedral(250), whose table the constructor validates, and
    # FiniteGroup(t) on the tables of Z/1009 and (Z/7)^4, valid and with
    # one wrong entry: it moves (5, 7) to the next element, which keeps the
    # identity and an inverse for every element, so only associativity
    # fails
    "tables": (5, with_imports(GROUPS, {
        "dihedral(250)": ("", "dihedral(250)", "out.order"),
        **{name + wrong: (f"g = {expr}\ntable = g.array.copy()\n{fix}",
                          "FiniteGroup(table)", "out.order")
           for wrong, fix in (("", ""), (" one wrong entry", (
               "table[5, 7] = (table[5, 7] + 1) % g.order")))
           for name, expr in (("Z/1009", "cyclic(1009)"),
                              ("(Z/7)^4", "abelian([7] * 4)"))}})),
    # the free object on 8 generators of the variety of (Z/m)[C2]-modules,
    # Gamma_inf = Gamma; the counts are hashed in their order of first
    # appearance, which monte_carlo also fixes
    "monte_carlo": (3, with_imports(
        "from hurwitzlab.groups import cyclic\nfrom hurwitzlab.randgrp "
        "import FreeAdmissible, abelian_exponent_variety, monte_carlo\n", {
            f"m={m}": (f"free = FreeAdmissible(8, abelian_exponent_variety("
                       f"cyclic(2), {m}))",
                       "monte_carlo(free, [0, 1], 10_000, seed=1)",
                       "sha(list(out.counts.items()))")
            for m in (3, 9, 25)})),
    # groups of order 2,401: (Z/7)^4 built from nothing; the regular
    # (Z/7)[C4]-module and the free object on one generator of its
    # variety; the greedy generating set of (Z/7)^4, built before the clock
    "large_groups": (5, with_imports(
        "from hurwitzlab.groups import _small_generating_set, abelian, "
        "cyclic\nfrom hurwitzlab.randgrp import FreeAdmissible, "
        "abelian_exponent_variety\n", {
            "(Z/7)^4": ("", "abelian([7] * 4)", "out.order"),
            "FreeAdmissible(1, (Z/7)[C4])": (
                "", "FreeAdmissible(1, abelian_exponent_variety(cyclic(4), 7))",
                "out.order"),
            "_small_generating_set((Z/7)^4)": (
                "G = abelian([7] * 4)", "_small_generating_set(G)", "out")})),
    # the class groups of Q(sqrt(-d)) for the 6,083 squarefree d <= 10,000;
    # criterion 7 as tier-1 runs it (10,000 triples a fixture); Cantor
    # addition alone on 20,000 seeded random pairs of each of criterion 7's
    # fixtures, drawn before the clock
    "arith": (3, {
        "nf_class_group(d), squarefree d <= 10,000": (
            "from hurwitzlab.arith import nf_class_group\n"
            "from hurwitzlab.ntheory import factorize\n"
            "ds = [d for d in range(1, 10_001)\n"
            "      if max(factorize(d).values(), default=1) == 1]",
            "[nf_class_group(d).structure for d in ds]", "sha(out)"),
        "suite_jacobian_groundtruth()": (
            "from hurwitzlab.verify import suite_jacobian_groundtruth",
            "suite_jacobian_groundtruth()",
            "[len(out), sum(not r.passed for r in out)]"),
        **{f"divclass_add, 20,000 pairs, genus {g} over F_{q}": (
            "from hurwitzlab.arith import (HyperellipticModel, divclass_add, "
            "random_divisor)\nfrom hurwitzlab.rng import substream\n"
            f"m = HyperellipticModel({q}, {f})\nrng = substream(32, 0)\n"
            "pairs = [(random_divisor(m, rng), random_divisor(m, rng))\n"
            "         for _ in range(20_000)]",
            "[divclass_add(m, a, b) for a, b in pairs]", "sha(out)")
           for g, q, f in ((1, 3, (1, 2, 0, 1)), (2, 3, (1, 2, 0, 0, 0, 1)),
                           (1, 5, (3, 1, 0, 1)),
                           (3, 3, (1, 0, 2, 0, 0, 0, 0, 1)))}}),
    # the 29,400 models of genus 1 and 2 over F_7
    "ff_moment": (3, {"empirical_moment(7, 5, [3, 3])": (
        "from hurwitzlab.arith import empirical_moment",
        "empirical_moment(7, 5, [3, 3], seed=1)",
        "[(r.degree, r.fields, r.excluded, r.sur_sum) for r in out.rows]")}),
}

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


def export_worktree(dest: Path) -> dict:
    """The working tree as it stands (untracked files included, ignored
    ones not) under `dest`, through a scratch index, so the repository's
    own index is untouched; returns the git tree ids of MEASURED in it."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        subprocess.run(["git", "checkout-index", "-a", f"--prefix={dest}/"],
                       cwd=ROOT, env=env, check=True)
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


def case_run(checkout: Path, case: tuple) -> dict:
    """The result and metrics of one HARNESS run of `case` in a fresh
    process on the checkout's `src`, single-threaded."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", HARNESS, json.dumps(case)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"case {case[1]!r} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alternating(checkouts: dict, count: int, run, label: str) -> list:
    """`count` pairs of run(checkout, i) on the base and on the change, a
    map from side to checkout, the base first in even pairs and the change
    first in odd ones."""
    runs = []
    for i in range(count):
        pair = {}
        for side in SIDES[::-1] if i % 2 else SIDES:
            pair[side] = run(checkouts[side], i)
        print(label, {s: pair[s]["metrics"]["wall_s"]["value"]
                      for s in SIDES}, file=sys.stderr)
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
        "change": {"rev": "working tree",
                   "head_sha": git("rev-parse", "HEAD")},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "workloads": {},
        "harness": "python3 -c HARNESS CASE_JSON:\n" + HARNESS,
    }
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        export(args.base, checkouts["base"])
        report["change"]["trees"] = export_worktree(checkouts["change"])
        for side in SIDES:
            report[side]["src_lines"] = src_lines(checkouts[side])
        for workload in WORKLOADS:
            runs = alternating(
                checkouts, PAIRS,
                lambda c, i: perfbench(c, workload, SEEDS[i]), workload)
            for seed, pair in zip(SEEDS, runs):
                pair["seed"] = seed
            report["workloads"][workload] = {
                "failed": {s: sum(r[s]["failed"] for r in runs)
                           for s in SIDES},
                "correct": {s: all(r[s]["correct"] for r in runs)
                            for s in SIDES},
                "metrics": summarize(runs),
                "runs": runs,
            }
        for section, (pairs, cases) in CASES.items():
            report[section] = {}
            for name, case in cases.items():
                runs = alternating(checkouts, pairs,
                                   lambda c, i: case_run(c, case),
                                   f"{section} {name}")
                results = {json.dumps(r[s]["result"]) for r in runs
                           for s in SIDES}
                report[section][name] = {
                    "case": dict(zip(("setup", "call", "result"), case)),
                    "result": {s: runs[0][s]["result"] for s in SIDES},
                    "result_equal": len(results) == 1,
                    "metrics": summarize(runs), "runs": runs}
        report["tier1"] = {"command": "python3 " + " ".join(TIER1),
                           **{side: tier1_run(checkouts[side])
                              for side in SIDES}}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
