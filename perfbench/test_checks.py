"""Each correctness check accepts a right output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q

The "right" outputs are built from the references in checks.py (they match
what the program returns at this commit); each test then perturbs one
value and expects the check to report it.
"""

from __future__ import annotations

import copy
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _braid_summary() -> dict:
    n = 7
    def case(order, g):
        count = checks.d5_nielsen_count(g, n)
        full = [[a, b, n - a - b] for a in range(1, n) for b in range(1, n)
                if n - a - b >= 1 and (n - a - b) % 2 == 0]
        return {"order": order, "drained": count,
                "orbit_sizes": [count - 100, 60, 40],
                "full_support_vectors": full}
    return {"n": n, "cases": [case(2, checks.D5_REFLECTION),
                              case(5, checks.D5_ROTATION)]}


def _schur_summary() -> dict:
    rows = [{"name": name, "order": order, "h2": list(mult),
             "cover_order": order * math.prod(mult),
             "reduced": []}
            for name, (order, mult) in checks.SCHUR_MULTIPLIERS.items()]
    return {"groups": rows, "expected_names": [r["name"] for r in rows]}


def _randgrp_summary() -> dict:
    n, q, trials = 8, 3, 4000
    dist = checks.corank_distribution(n, q)
    return {"n": n, "q": q, "trials": trials,
            "counts": {"trivial": round(float(dist[0]) * trials),
                       "Z/3": round(float(dist[1]) * trials)},
            "sur_total": round(trials * (1 - 3 ** -n)),
            "exact": {"mu_trivial": str(dist[0]), "mu_z3": str(dist[1]),
                      "moment_z3": str(1 - Fraction(1, q ** n))}}


def _class_summary() -> dict:
    d_max = 500
    rows = []
    for d in range(1, d_max + 1):
        if not checks.squarefree(d):
            continue
        disc = -d if d % 4 == 3 else -4 * d
        two_rank = checks._distinct_primes(disc) - 1
        order = 1 if d in checks.CLASS_NUMBER_ONE else \
            2 if d in checks.CLASS_NUMBER_TWO else 2 ** two_rank * 3
        rows.append((d, order, two_rank))
    return {"ff": {"q": 3,
                   "rows": [(3, 36, 0, 4 * checks.genus1_curves_with_5_torsion()),
                            (5, 324, 0, 288)],
                   "average": "13/15", "prediction": "1"},
            "nf": {"rows": rows}, "nf_d_max": d_max}


SUMMARIES = {
    "braid-orbits": _braid_summary,
    "schur-covers": _schur_summary,
    "randgrp-mc": _randgrp_summary,
    "class-groups": _class_summary,
}


def _set(path):
    def perturb(s):
        *head, last = path
        for key in head:
            s = s[key]
        if callable(last):
            last(s)
        else:
            s[last[0]] = last[1](s[last[0]])
    return perturb


PERTURBATIONS = {
    "braid-orbits": [
        _set(["cases", 0, ("drained", lambda v: v + 1)]),
        _set(["cases", 1, ("orbit_sizes", lambda v: v[:-1])]),
        _set(["cases", 0, ("full_support_vectors", lambda v: v[:-1])]),
        _set(["cases", 1, ("full_support_vectors", lambda v: v[:-1] + v[:1])]),
    ],
    "schur-covers": [
        _set(["groups", 3, ("h2", lambda v: v + [2])]),
        _set(["groups", 30, ("h2", lambda v: [])]),
        _set(["groups", 5, ("order", lambda v: v + 1)]),
        _set(["groups", 7, ("cover_order", lambda v: v * 2)]),
        _set(["groups", 12, ("reduced", lambda v: [2])]),
        _set([lambda s: s["groups"].pop()]),
        _set(["groups", 0, ("name", lambda v: "C17")]),
    ],
    "randgrp-mc": [
        _set(["counts", ("trivial", lambda v: v - 200)]),
        _set(["counts", ("Z/3", lambda v: v + 200)]),
        _set([("sur_total", lambda v: v + 800)]),
        _set(["exact", ("mu_trivial",
                        lambda v: str(Fraction(v) + Fraction(1, 10 ** 30)))]),
        _set(["exact", ("mu_z3", lambda v: "1/2")]),
        _set(["exact", ("moment_z3", lambda v: "1")]),
    ],
    "class-groups": [
        _set(["ff", "rows", lambda r: r.__setitem__(1, (5, 323, 1, 288))]),
        _set(["ff", "rows", lambda r: r.__setitem__(0, (3, 36, 0, 28))]),
        _set(["ff", ("average", lambda v: "8/5")]),
        _set(["ff", ("prediction", lambda v: "2")]),
        _set(["nf", "rows", lambda r: r.__setitem__(
            4, (r[4][0], r[4][1], r[4][2] + 1))]),
        _set(["nf", "rows", lambda r: r.__setitem__(
            [x[0] for x in r].index(163), (163, 3, 0))]),
        _set(["nf", "rows", lambda r: r.__setitem__(
            [x[0] for x in r].index(427), (427, 4, 1))]),
        _set(["nf", "rows", lambda r: r.pop()]),
    ],
}


@pytest.mark.parametrize("workload", sorted(SUMMARIES))
def test_right_output_passes(workload):
    assert checks.CHECKS[workload](SUMMARIES[workload]()) == []


@pytest.mark.parametrize("workload,index", [
    (w, i) for w in sorted(PERTURBATIONS) for i in range(len(PERTURBATIONS[w]))])
def test_perturbed_output_fails(workload, index):
    summary = copy.deepcopy(SUMMARIES[workload]())
    PERTURBATIONS[workload][index](summary)
    assert checks.CHECKS[workload](summary) != []


def test_nielsen_counts_match_published_figures():
    # D5, c = all, n = 8: the reflection and rotation counts quoted for the
    # orbit runs at this size
    assert checks.d5_nielsen_count(checks.D5_REFLECTION, 8) == 478_296
    assert checks.d5_nielsen_count(checks.D5_ROTATION, 8) == 475_020
    assert checks.d5_full_support_vectors(8) == 9
