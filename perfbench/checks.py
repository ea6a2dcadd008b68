"""Correctness checks for the benchmark workloads.

Every expected value here is computed from first principles or taken from
the literature; nothing imports hurwitzlab, so a fault in the program
cannot hide in the reference.  Each check takes the plain-data summary a
workload round produces (see workloads.py) and returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# braid-orbits: Nielsen-tuple counts in D5, from a dynamic programme over
# products and Moebius inversion over the subgroups containing g_inf
# ---------------------------------------------------------------------------

# D5 = <r, s | r^5 = s^2 = 1, s r s = r^-1>; element r^k s^e has index k + 5e.


def d5_mul(x: int, y: int) -> int:
    k1, e1 = x % 5, x // 5
    k2, e2 = y % 5, y // 5
    return (k1 + (k2 if e1 == 0 else -k2)) % 5 + 5 * ((e1 + e2) % 2)


def d5_inv(x: int) -> int:
    return x if x >= 5 else (-x) % 5


D5_REFLECTION = 5   # s, order 2
D5_ROTATION = 1     # r, order 5


def _d5_closure(gens) -> frozenset:
    have = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = d5_mul(x, g)
            if y not in have:
                have.add(y)
                frontier.append(y)
    return frozenset(have)


def _d5_subgroups() -> list:
    # every subgroup of D5 is generated by at most two elements
    subs = {_d5_closure((a, b)) for a in range(10) for b in range(10)}
    return sorted(subs, key=len)


def _tuples_with_product(elems, length: int, target: int) -> int:
    counts = {0: 1}
    for _ in range(length):
        nxt: dict = {}
        for x, k in counts.items():
            for y in elems:
                z = d5_mul(x, y)
                nxt[z] = nxt.get(z, 0) + k
        counts = nxt
    return counts.get(target, 0)


def d5_nielsen_count(g_inf: int, n: int) -> int:
    """#{(g_1..g_{n-1}) in c^{n-1} : g_1...g_{n-1} g_inf = 1 and
    <g_1, ..., g_{n-1}, g_inf> = D5}, with c = all non-identity elements."""
    whole = frozenset(range(10))
    over = [h for h in _d5_subgroups() if g_inf in h]
    mu = {whole: 1}
    for h in sorted(over, key=len, reverse=True):
        if h != whole:
            mu[h] = -sum(mu[k] for k in over if h < k)
    target = d5_inv(g_inf)
    return sum(mu[h] * _tuples_with_product([x for x in h if x], n - 1, target)
               for h in over)


def d5_full_support_vectors(n: int) -> int:
    """Degree-n class-multiplicity vectors over the three classes of D5
    (two rotation classes, one reflection class) with every coordinate >= 1
    and an even reflection count.  H2(D5) = 1, so by the stable-range
    bijection this is the number of orbits with all multiplicities >= 1."""
    return sum(1 for a in range(1, n) for b in range(1, n)
               for refl in range(1, n) if a + b + refl == n and refl % 2 == 0)


def check_braid_orbits(summary: dict) -> list:
    fails = []
    n = summary["n"]
    for case in summary["cases"]:
        tag = f"g_inf order {case['order']}"
        g_ref = D5_REFLECTION if case["order"] == 2 else D5_ROTATION
        want = d5_nielsen_count(g_ref, n)
        if case["drained"] is not None and case["drained"] != want:
            fails.append(f"{tag}: enumerate_tuples gave {case['drained']} "
                         f"tuples, expected {want}")
        if case["orbit_sizes"] is not None:
            if sum(case["orbit_sizes"]) != want:
                fails.append(f"{tag}: orbit sizes sum to "
                             f"{sum(case['orbit_sizes'])}, expected {want}")
            full = case["full_support_vectors"]
            expect = d5_full_support_vectors(n)
            if len(full) != expect:
                fails.append(f"{tag}: {len(full)} orbits have every class "
                             f"multiplicity >= 1, expected {expect}")
            elif len(set(map(tuple, full))) != len(full):
                fails.append(f"{tag}: two full-support orbits share an "
                             f"invariant")
    return fails


# ---------------------------------------------------------------------------
# schur-covers: published Schur multipliers (Karpilovsky, The Schur
# Multiplier, 1987), as invariant factors, keyed by the package's group names
# ---------------------------------------------------------------------------

SCHUR_MULTIPLIERS = {
    # name: (order, invariant factors of H2(G, Z))
    "C2": (2, ()), "C3": (3, ()), "C4": (4, ()), "C2xC2": (4, (2,)),
    "C5": (5, ()), "C6": (6, ()), "S3": (6, ()), "C7": (7, ()),
    "C8": (8, ()), "C2xC4": (8, (2,)), "C2xC2xC2": (8, (2, 2, 2)),
    "D4": (8, (2,)), "Dic2": (8, ()), "C9": (9, ()), "C3xC3": (9, (3,)),
    "C10": (10, ()), "D5": (10, ()), "C11": (11, ()), "C12": (12, ()),
    "C2xC6": (12, (2,)), "D6": (12, (2,)), "A4": (12, (2,)),
    "Dic3": (12, ()), "C13": (13, ()), "C14": (14, ()), "D7": (14, ()),
    "C15": (15, ()), "C16": (16, ()), "C2xC8": (16, (2,)),
    "C4xC4": (16, (4,)), "C2xC2xC4": (16, (2, 2, 2)),
    "C2xC2xC2xC2": (16, (2, 2, 2, 2, 2, 2)), "D8": (16, (2,)),
    "Dic4": (16, ()), "SD16": (16, ()), "M16": (16, ()),
    "D4xC2": (16, (2, 2, 2)), "Dic2xC2": (16, (2, 2)), "C4:C4": (16, (2,)),
    "C22:C4": (16, (2, 2)), "D4*C4": (16, (2, 2)),
}


def check_schur_covers(summary: dict) -> list:
    """Each row: name, order, h2 (invariant factors), cover_order and
    reduced (invariant factors of the reduced multiplier for c = all
    non-identity elements, the Bogomolov multiplier, trivial below 64)."""
    fails = []
    seen = set()
    for row in summary["groups"]:
        name = row["name"]
        seen.add(name)
        if name not in SCHUR_MULTIPLIERS:
            fails.append(f"{name}: no published multiplier on record")
            continue
        order, mult = SCHUR_MULTIPLIERS[name]
        if row["order"] != order:
            fails.append(f"{name}: order {row['order']}, expected {order}")
        if row["h2"] is not None and tuple(row["h2"]) != mult:
            fails.append(f"{name}: h2 {row['h2']}, expected {mult}")
        if row["cover_order"] is not None and \
                row["cover_order"] != order * math.prod(mult):
            fails.append(f"{name}: Schur cover of order {row['cover_order']}, "
                         f"expected {order * math.prod(mult)}")
        if row["reduced"] is not None and tuple(row["reduced"]) != ():
            fails.append(f"{name}: reduced multiplier {row['reduced']} "
                         f"is not trivial")
    missing = set(summary["expected_names"]) - seen
    if missing:
        fails.append(f"groups never reported: {sorted(missing)}")
    return fails


# ---------------------------------------------------------------------------
# randgrp-mc: X is the cokernel of a uniform n x n matrix over F_3
# ---------------------------------------------------------------------------

def corank_distribution(n: int, q: int) -> list:
    """P(corank k) for a uniform n x n matrix over F_q, k = 0..n, from the
    count of rank-r matrices prod_{i<r} (q^n - q^i)^2 / (q^r - q^i)."""
    total = q ** (n * n)
    out = []
    for k in range(n + 1):
        r = n - k
        count = Fraction(1)
        for i in range(r):
            count *= Fraction((q ** n - q ** i) ** 2, q ** r - q ** i)
        out.append(count / total)
    return out


def p_trivial_closed_form(n: int, q: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, q ** i)
    return out


def check_randgrp_mc(summary: dict, sigmas: float = 4.0) -> list:
    fails = []
    n, q, trials = summary["n"], summary["q"], summary["trials"]
    dist = corank_distribution(n, q)
    p0 = p_trivial_closed_form(n, q)
    if dist[0] != p0:
        fails.append("reference corank distribution disagrees with "
                     "prod (1 - q^-i)")
    sur = [q ** k - 1 for k in range(n + 1)]
    mean_sur = sum(p * s for p, s in zip(dist, sur))
    if mean_sur != 1 - Fraction(1, q ** n):
        fails.append("reference mean #Sur disagrees with 1 - q^-n")
    if summary["counts"] is not None:
        for label, k in (("trivial", 0), ("Z/3", 1)):
            p = float(dist[k])
            se = math.sqrt(p * (1 - p) / trials)
            got = summary["counts"][label] / trials
            if abs(got - p) > sigmas * se:
                fails.append(f"P(X = {label}) = {got:.5f}, expected "
                             f"{p:.5f} +- {sigmas} x {se:.5f}")
        var = float(sum(p * s * s for p, s in zip(dist, sur)) - mean_sur ** 2)
        se = math.sqrt(var / trials)
        got = summary["sur_total"] / trials
        if abs(got - float(mean_sur)) > sigmas * se:
            fails.append(f"mean #Sur(X, Z/3) = {got:.5f}, expected "
                         f"{float(mean_sur):.5f} +- {sigmas} x {se:.5f}")
    exact = summary["exact"]
    if exact["mu_trivial"] is not None and \
            Fraction(exact["mu_trivial"]) != dist[0]:
        fails.append(f"mu_n(trivial) = {exact['mu_trivial']}, expected {dist[0]}")
    if exact["mu_z3"] is not None and Fraction(exact["mu_z3"]) != dist[1]:
        fails.append(f"mu_n(Z/3) = {exact['mu_z3']}, expected {dist[1]}")
    if exact["moment_z3"] is not None and \
            Fraction(exact["moment_z3"]) != mean_sur:
        fails.append(f"moment_n(Z/3) = {exact['moment_z3']}, expected {mean_sur}")
    return fails


# ---------------------------------------------------------------------------
# class-groups: function-field counts over F_3 and quadratic class groups
# ---------------------------------------------------------------------------

def _chi3(a: int) -> int:
    """Quadratic character of F_3."""
    return (0, 1, -1)[a % 3]


def _cubic_squarefree_mod3(a: int, b: int, c: int) -> bool:
    # x^3 + a x^2 + b x + c is squarefree iff its discriminant is nonzero
    disc = a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c
    return disc % 3 != 0


def genus1_curves_with_5_torsion() -> int:
    """#{y^2 = u f(x): f monic squarefree cubic over F_3, u in {1, 2}} with
    5 | #E(F_3), where #E(F_3) = 1 + sum_x (1 + chi(u f(x)))."""
    hits = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if not _cubic_squarefree_mod3(a, b, c):
                    continue
                for u in (1, 2):
                    pts = 1 + sum(1 + _chi3(u * (x ** 3 + a * x * x + b * x + c))
                                  for x in range(3))
                    hits += pts % 5 == 0
    return hits


CLASS_NUMBER_ONE = (1, 2, 3, 7, 11, 19, 43, 67, 163)
CLASS_NUMBER_TWO = (5, 6, 10, 13, 15, 22, 35, 37, 51, 58, 91, 115, 123, 187,
                    235, 267, 403, 427)   # Baker, Stark (1971)


def _distinct_primes(n: int) -> int:
    n = abs(n)
    k = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            k += 1
            while n % p == 0:
                n //= p
        p += 1
    return k + (n > 1)


def check_class_groups(summary: dict) -> list:
    """summary["ff"]: q, rows (degree, fields, excluded, sur_sum), average
    and prediction of empirical_moment; summary["nf"]: rows (d, order,
    two_rank) of nf_class_group over the squarefree d up to d_max."""
    fails = []
    ff = summary["ff"]
    if ff is not None:
        q = ff["q"]
        for degree, fields, excluded, sur_sum in ff["rows"]:
            want = 2 * (q ** degree - q ** (degree - 1))
            if fields + excluded != want or excluded:
                fields_msg = f"{fields} fields, {excluded} excluded"
                fails.append(f"degree {degree}: {fields_msg}, expected "
                             f"{want} fields and none excluded")
            if degree == 3 and q == 3:
                expect = 4 * genus1_curves_with_5_torsion()
                if sur_sum != expect:
                    fails.append(f"degree 3: sur_sum {sur_sum}, expected {expect}")
        if Fraction(ff["prediction"]) != 1:
            fails.append(f"prediction {ff['prediction']}, expected 1")
        avg = Fraction(ff["average"])
        if not Fraction(1, 2) <= avg <= Fraction(3, 2):
            fails.append(f"final average {avg} outside [1/2, 3/2]")
    nf = summary["nf"]
    if nf is not None:
        d_max = summary["nf_d_max"]
        seen = set()
        for d, order, two_rank in nf["rows"]:
            seen.add(d)
            if order is None:   # the call failed and is counted as such
                continue
            disc = -d if d % 4 == 3 else -4 * d
            if two_rank != _distinct_primes(disc) - 1:
                fails.append(f"d={d}: 2-rank {two_rank}, genus theory gives "
                             f"{_distinct_primes(disc) - 1}")
            if (order == 1) != (d in CLASS_NUMBER_ONE):
                fails.append(f"d={d}: class number {order} contradicts the "
                             f"class-number-one list")
            if (order == 2) != (d in CLASS_NUMBER_TWO):
                fails.append(f"d={d}: class number {order} contradicts the "
                             f"class-number-two list")
        want = {d for d in range(1, d_max + 1) if squarefree(d)}
        if seen != want:
            fails.append(f"{len(want ^ seen)} squarefree d missing or extra")
    return fails


def squarefree(d: int) -> bool:
    return all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


CHECKS = {
    "braid-orbits": check_braid_orbits,
    "schur-covers": check_schur_covers,
    "randgrp-mc": check_randgrp_mc,
    "class-groups": check_class_groups,
}
