"""The four benchmark workloads.

A workload has `inputs(seed)`, which builds its inputs from the seed before
any timing starts, and `run(inputs, ops)`, one round of calls into the
program made one after another.  `run` returns a plain-data summary of the
outputs, which checks.py judges against references computed apart from the
program.

The program's functions are imported by name into this module; the traced
run wraps exactly these bindings (and the ones the program's modules import
from each other), so every call below is a span boundary.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
import traceback

import numpy as np

from hurwitzlab.abelian import AbelianStructure
from hurwitzlab.arith import empirical_moment, nf_class_group
from hurwitzlab.frob import fixed_counts, predicted_hur_count
from hurwitzlab.groups import cyclic, dihedral, groups_up_to_16, inversion_action
from hurwitzlab.homology import build_u, h2, reduce_cover, schur_cover
from hurwitzlab.hurwitz import enumerate_tuples, orbits
from hurwitzlab.randgrp import (FreeAdmissible, abelian_exponent_variety,
                                moment_n, monte_carlo, mu_n)

from checks import squarefree

# Sizes are chosen so that one round takes a few seconds on a 2-core
# machine: several rounds then fit in one run and the median is steady.

BRAID_N = 7                    # D5, c = all: about 53k Nielsen tuples per g_inf
FROB_Q = (3, 7, 11, 13)        # pairs with q != 1 mod |G_inf| are skipped
FROB_N = range(2, 10)

# Groups of order <= 12 (every one), plus two of order 16 whose bar
# complexes give the large intmat kernels (16 x 256 blocks).
SCHUR_GROUPS = (
    "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8", "C2xC4",
    "C2xC2xC2", "D4", "Dic2", "C9", "C3xC3", "C10", "D5", "C11", "C12",
    "C2xC6", "D6", "A4", "Dic3", "C4xC4", "D8",
)

MC_N = 8                       # X = cokernel of a uniform 8 x 8 matrix over F_3
MC_CALLS = 20                  # monte_carlo calls per round, on seeds
MC_TRIALS = 200                # seed * MC_CALLS + k, k < MC_CALLS

FF_Q = 3
FF_D_MAX = 5                   # 360 curves of genus <= 2
FF_TARGET = (5,)
NF_D_MAX = 1500                # 915 squarefree d


FAILED = object()

# The machine's speed drifts: a fixed pure-Python loop runs up to twice as
# slow in phases lasting from seconds to minutes (presumably other tenants
# of the host; the process's CPU time grows with its wall time, so this is
# slower execution, not waiting).  Each call's time is therefore also given
# at a reference speed, scaled by a probe loop timed while the call runs.
# Code kinds slow down by different factors: numpy row operations on a
# 2 MiB matrix about half as much as interpreted code, and h2 of an
# order-16 group like the former.  So each workload probes with the kind of
# code it spends its time in.
PROBE_EVERY_S = 0.1


def _probe_python() -> None:
    acc, table = 0, {}
    for i in range(30_000):
        acc += i * i % 7
        table[i & 1023] = (acc, i)


_PROBE_MATRIX = (np.arange(1024 * 256, dtype=np.int64).reshape(1024, 256)
                 * 7919) % 16    # 2 MiB, like the bar-complex blocks


def _probe_numpy() -> None:
    a = _PROBE_MATRIX.copy()
    for k in range(2):
        a -= np.outer(a[:, k], a[k])
        a %= 16
        a.nonzero()


# kind: (loop, its wall time on a 2-core Xeon VM, uncontended)
PROBES = {"python": (_probe_python, 0.0037), "numpy": (_probe_numpy, 0.0064)}


def speed_probe(kind: str) -> float:
    """Wall time of the probe loop of the given kind."""
    t0 = time.perf_counter()
    PROBES[kind][0]()
    return time.perf_counter() - t0


class Ops:
    """Runs calls into the program one after another and counts them.

    A call that raises is a failed operation; its result is FAILED, and any
    later call that takes a FAILED argument fails without running, so every
    round attempts the same number of operations.

    The speed probe runs every PROBE_EVERY_S: from a timer signal, inside
    the calls, when `probe_during_calls` (its time is then taken out of the
    call's), and otherwise between calls only, so that a traced round's
    spans hold no probe time."""

    def __init__(self, probe_kind: str, probe_during_calls: bool):
        self.probe_kind = probe_kind
        self.reference_probe_s = PROBES[probe_kind][1]
        self.attempted = 0
        self.failures: list = []
        self.seconds: list = []       # wall time of each call, probes excluded
        self.windows: list = []       # probes around each call: [first, last]
        self.probes: list = []
        self.probe_s = 0.0            # time spent probing so far
        self._timer = probe_during_calls
        self.probe()
        if self._timer:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def probe(self) -> None:
        t = speed_probe(self.probe_kind)
        self.probes.append(t)
        self.probe_s += t
        self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def close(self) -> None:
        """Stop the timer and take the probe that follows the last call."""
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    def __call__(self, label, fn, *args, **kwargs):
        self.attempted += 1
        first, probe_s = len(self.probes) - 1, self.probe_s
        t0 = time.perf_counter()
        try:
            if any(a is FAILED for a in args) or \
                    any(v is FAILED for v in kwargs.values()):
                self.failures.append(f"{label}: skipped, an input failed")
                return FAILED
            return fn(*args, **kwargs)
        except Exception as exc:   # a program fault fails this call only
            self.failures.append(
                f"{label}: {type(exc).__name__}: {exc}\n"
                + traceback.format_exc(limit=-3))
            return FAILED
        finally:
            t1 = time.perf_counter()
            self.seconds.append(t1 - t0 - (self.probe_s - probe_s))
            # the probes during the call and the ones just before and after
            self.windows.append((first, len(self.probes)))
            if not self._timer and t1 >= self._next_probe:
                self.probe()

    def scaled_seconds(self) -> list:
        """Each call's time at the reference speed (after close())."""
        return [dt * self.reference_probe_s / statistics.median(self.probes[lo:hi + 1])
                for dt, (lo, hi) in zip(self.seconds, self.windows)]


def _ok(x):
    return x is not FAILED


def _drain(it):
    return sum(1 for _ in it)


# ---------------------------------------------------------------------------
# braid-orbits
# ---------------------------------------------------------------------------

def braid_inputs(seed: int) -> dict:
    rnd = random.Random(seed)
    # which reflection and which rotation serve as g_inf; all reflections
    # (and all rotations) are conjugate under Aut(D5), so counts agree
    return {"n": BRAID_N, "reflection_pick": rnd.randrange(5),
            "rotation_pick": rnd.randrange(4)}


def braid_run(inp: dict, ops: Ops) -> dict:
    n = inp["n"]
    group = ops("dihedral", dihedral, 5)
    cases = []
    if not _ok(group):
        return {"n": n, "cases": cases, "tuples": 0, "orbits": 0}
    c = list(range(1, group.order))
    refl = [g for g in c if group.element_order(g) == 2]
    rot = [g for g in c if group.element_order(g) == 5]
    ctx = ops("build_u", build_u, group, c)
    for g_inf in (refl[inp["reflection_pick"]], rot[inp["rotation_pick"]]):
        order = group.element_order(g_inf)
        drained = ops("enumerate_tuples", _drain,
                      enumerate_tuples(group, c, g_inf, n))
        orbs = ops("orbits", orbits, group, c, g_inf, n, ctx=ctx,
                   verify_invariants=True)
        members = group.subgroup_closure([g_inf])
        for q in FROB_Q:
            if (q - 1) % order:
                continue
            for m in FROB_N:
                ops("fixed_counts", fixed_counts, ctx, members, q, m)
                ops("predicted_hur_count", predicted_hur_count, ctx, members,
                    q, m)
        cases.append({
            "order": order,
            "drained": drained if _ok(drained) else None,
            "orbit_sizes": [o.size for o in orbs] if _ok(orbs) else None,
            "full_support_vectors": (
                [list(o.invariant.v) for o in orbs if min(o.invariant.v) >= 1]
                if _ok(orbs) else None),
        })
    return {"n": n, "cases": cases,
            "tuples": sum(k["drained"] or 0 for k in cases),
            "orbits": sum(len(k["orbit_sizes"] or ()) for k in cases)}


# ---------------------------------------------------------------------------
# schur-covers
# ---------------------------------------------------------------------------

def schur_inputs(seed: int) -> dict:
    names = list(SCHUR_GROUPS)
    random.Random(seed).shuffle(names)
    return {"names": names}


def schur_run(inp: dict, ops: Ops) -> dict:
    rows = []
    everything = ops("groups_up_to_16", groups_up_to_16)
    by_name = {g.name: g for g in everything} if _ok(everything) else {}
    for name in inp["names"]:
        group = by_name.get(name)
        if group is None:
            continue
        c = list(range(1, group.order))
        mult = ops(f"h2({name})", h2, group)
        ext = ops(f"schur_cover({name})", schur_cover, group)
        red = ops(f"reduce_cover({name})", reduce_cover, ext, group, c)
        rows.append({
            "name": name, "order": group.order,
            "h2": list(mult.chain) if _ok(mult) else None,
            "cover_order": ext.total.order if _ok(ext) else None,
            "reduced": list(red.kernel_structure.chain) if _ok(red) else None,
        })
    return {"groups": rows, "expected_names": list(inp["names"])}


# ---------------------------------------------------------------------------
# randgrp-mc
# ---------------------------------------------------------------------------

def randgrp_inputs(seed: int) -> dict:
    return {"n": MC_N, "trials": MC_TRIALS,
            "seeds": [seed * MC_CALLS + k for k in range(MC_CALLS)]}


def randgrp_run(inp: dict, ops: Ops) -> dict:
    n, trials = inp["n"], inp["trials"]
    gamma = ops("cyclic(2)", cyclic, 2)
    spec = ops("abelian_exponent_variety", abelian_exponent_variety, gamma, 3)
    free = ops("FreeAdmissible", FreeAdmissible, n, spec)
    z3 = AbelianStructure((3,))
    # Gamma_inf = Gamma: the inversion-invariants of (Z/3)^n vanish, so the
    # quotient is the cokernel of the n sampled vectors
    reps = [ops("monte_carlo", monte_carlo, free, [0, 1], trials, seed,
                track=[z3]) for seed in inp["seeds"]]
    h_triv = ops("inversion_action(C1)", inversion_action,
                 ops("cyclic(1)", cyclic, 1))
    h_z3 = ops("inversion_action(C3)", inversion_action,
               ops("cyclic(3)", cyclic, 3))
    mu_triv = ops("mu_n(C1)", mu_n, h_triv, spec, [0, 1], n)
    mu_z3 = ops("mu_n(C3)", mu_n, h_z3, spec, [0, 1], n)
    mom = ops("moment_n(C3)", moment_n, h_z3, [0, 1], n)
    reps = [r for r in reps if _ok(r)]
    counts = {"trivial": sum(r.counts.get(("ab-inv", ()), 0) for r in reps),
              "Z/3": sum(r.counts.get(("ab-inv", (3,)), 0) for r in reps)}
    sur_total = sum(r.sur_totals[z3.chain][0] for r in reps)
    return {
        "n": n, "q": 3, "trials": trials * len(reps),
        "counts": counts if reps else None,
        "sur_total": sur_total,
        "exact": {k: (str(v) if _ok(v) else None) for k, v in
                  (("mu_trivial", mu_triv), ("mu_z3", mu_z3),
                   ("moment_z3", mom))},
    }


# ---------------------------------------------------------------------------
# class-groups
# ---------------------------------------------------------------------------

def class_inputs(seed: int) -> dict:
    ds = [d for d in range(1, NF_D_MAX + 1) if squarefree(d)]
    random.Random(seed).shuffle(ds)
    return {"seed": seed, "ds": ds}


def class_run(inp: dict, ops: Ops) -> dict:
    rep = ops("empirical_moment", empirical_moment, FF_Q, FF_D_MAX,
              list(FF_TARGET), seed=inp["seed"])
    ff = None
    curves = 0
    if _ok(rep):
        ff = {"q": FF_Q,
              "rows": [(r.degree, r.fields, r.excluded, r.sur_sum)
                       for r in rep.rows],
              "average": str(rep.final_average),
              "prediction": str(rep.rows[-1].prediction)}
        curves = sum(r.fields + r.excluded for r in rep.rows)
    rows = []
    for d in inp["ds"]:
        cl = ops(f"nf_class_group({d})", nf_class_group, d)
        if _ok(cl):
            two_rank = sum(1 for f in cl.structure.factors if f % 2 == 0)
            rows.append((d, cl.order, two_rank))
        else:
            rows.append((d, None, None))
    return {"ff": ff, "nf": {"rows": rows}, "nf_d_max": NF_D_MAX,
            "curves": curves, "nf_fields": len(rows)}


# name: (inputs, round, probe kind)
WORKLOADS = {
    "braid-orbits": (braid_inputs, braid_run, "python"),
    "schur-covers": (schur_inputs, schur_run, "numpy"),
    "randgrp-mc": (randgrp_inputs, randgrp_run, "python"),
    "class-groups": (class_inputs, class_run, "python"),
}
