"""Acceptance suites runnable from the CLI (`hurwitzlab verify <suite>`).

Each suite prints one pass/fail line per check and returns structured
results; `--quick` shrinks ranges (documented per suite) without changing
any tolerance.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import AbelianStructure
from .errors import HurwitzLabError
from .groups import (abelian, cyclic, dihedral, groups_up_to_16,
                     inversion_action, semidirect, symmetric, trivial_group)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _emit(results: list, suite: str, name: str, passed: bool, detail: str = ""):
    results.append(CheckResult(suite, name, bool(passed), detail))
    status = "pass" if passed else "FAIL"
    print(f"[{status}] {suite}: {name}" + (f" ({detail})" if detail else ""),
          flush=True)


def _fixtures_orbit():
    """The four orbit/invariant fixtures: (name, group, c, g_inf)."""
    from .frob import sur_hur_bridge
    s3 = symmetric(3)
    transp = [g for g in range(1, 6) if s3.element_order(g) == 2]
    d5 = dihedral(5)
    refl = next(g for g in range(1, 10) if d5.element_order(g) == 2)
    z3 = inversion_action(cyclic(3))
    br = sur_hur_bridge(z3, [0, 1], 5, 4, sur_sum=0)
    sd = semidirect(z3).group
    inv = next(x for x in br.c_g)
    return [
        ("S3-transpositions", s3, transp, transp[0]),
        ("S3-all", s3, list(range(1, 6)), transp[0]),
        ("D5-all", d5, list(range(1, 10)), refl),
        ("S3-bridge-cG", sd, list(br.c_g), inv),
    ]


# ---------------------------------------------------------------------------
# suite 1: orbit/invariant exactness
# ---------------------------------------------------------------------------

def suite_orbit_invariants(quick: bool = False) -> list:
    from .groups import Subgroup
    from .homology import build_u, validate_c
    from .hurwitz import (DEFAULT_TUPLE_BUDGET, _tuple_blocks, orbits,
                          stable_bijection_entry)
    results = []
    n_max = 6 if quick else 9
    for name, group, c, g_inf in _fixtures_orbit():
        ctx = build_u(group, c)
        nclasses = ctx.nclasses
        sub = Subgroup(group, group.subgroup_closure([g_inf]))
        gens = sub.generators_of_cyclic()
        orbs_by = {}
        for n in range(2, n_max + 1):
            # |E| from the enumeration's blocks, not one NielsenTuple each
            total = sum(len(rows) for rows in _tuple_blocks(
                group, validate_c(group, c), g_inf, n, DEFAULT_TUPLE_BUDGET))
            per_gen = {gi: orbits(group, c, gi, n, ctx=ctx,
                                  verify_invariants=True) for gi in gens}
            orbs_by[n] = per_gen
            orbs = per_gen[g_inf] if g_inf in per_gen else \
                next(iter(per_gen.values()))
            _emit(results, "orbit-invariants",
                  f"{name} n={n} invariant constant + partition",
                  sum(o.size for o in orbs) == total,
                  f"|E|={total} orbits={len(orbs)}")
        for m in (1, 2, 3):
            for n in range(2 * nclasses * m + 2, n_max + 1):
                entries = [stable_bijection_entry(ctx, gi, orbs, n, m)
                           for gi, orbs in orbs_by[n].items()]
                if not entries[0].k_set and \
                        not any(e.orbit_invariants for e in entries):
                    continue
                _emit(results, "orbit-invariants",
                      f"{name} stable bijection n={n} M={m}",
                      all(e.bijective for e in entries),
                      "; ".join(f"g_inf={e.g_inf} |orb|="
                                f"{len(e.orbit_invariants)} |K|={len(e.k_set)}"
                                for e in entries))
    return results


# ---------------------------------------------------------------------------
# suite 2: homology oracle agreement
# ---------------------------------------------------------------------------

def _rational_class_unions(group) -> list:
    """Every union of rational classes (the conjugates of the generators
    of a cyclic subgroup) that validate_c accepts, as sorted lists."""
    from .errors import ValidationError
    from .homology import validate_c
    classes, seen = [], {0}
    for x in range(1, group.order):
        if x in seen:
            continue
        o = group.element_order(x)
        cls = {group.conj(group.power(x, k), h) for k in range(1, o)
               if math.gcd(k, o) == 1 for h in range(group.order)}
        seen |= cls
        classes.append(cls)
    out = []
    for r in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            try:
                out.append(list(validate_c(group, set().union(*combo))))
            except ValidationError:
                pass
    return out


def suite_homology_oracle(quick: bool = False) -> list:
    from .groups import alternating4, from_permutations
    from .homology import h2, reduce_cover, schur_cover
    from .homology_oracle import oracle_h2_reduced, oracle_multipliers
    results = []
    groups = [g for g in groups_up_to_16() if g.order <= (12 if quick else 16)]
    extras = [abelian([3, 3]), symmetric(3), dihedral(5)]
    if not quick:
        extras.append(semidirect(inversion_action(abelian([5, 5]))).group)
    # the paper's shape, where H2(G, c) is nontrivial: c the involutions of
    # A:C2 with A odd abelian, or the 3-cycles of A4 and of A5
    a5 = from_permutations([[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]], 5)
    a5.name = "A5"
    cases = [(alternating4(), 3, [2]), (a5, 3, [2])] + [
        (semidirect(inversion_action(abelian([q, q]))).group, 2, [q])
        for q in (3, 5)]
    # the oracle is built once per group: a group of the loop below also
    # answers its case of the paper's shape
    case_c = {g.content_key(): [x for x in range(1, g.order)
                                if g.element_order(x) == k]
              for g, k, _ in cases}
    case_orc = {}
    seen = set()
    for g in groups + extras:
        key = g.content_key()
        if key in seen:
            continue
        seen.add(key)
        a = h2(g)
        cs = _rational_class_unions(g) if 1 < g.order <= 12 else []
        everything = [list(range(1, g.order))] if g.order > 1 else []
        case = [case_c[key]] if key in case_c else []
        b, orcs = oracle_multipliers(g, everything + cs + case)
        if case:
            case_orc[key] = orcs.pop()
        _emit(results, "homology-oracle", f"h2({g.name})", a == b,
              f"primary={a} oracle={b}")
        if g.order == 1:
            continue
        cov = schur_cover(g)
        red = reduce_cover(cov, g, everything[0])
        orc, *orcs = orcs
        _emit(results, "homology-oracle", f"h2({g.name}, all nontrivial)",
              red.kernel_structure == orc,
              f"primary={red.kernel_structure} oracle={orc}")
        if g.order <= 12:
            bad = [c for c, o in zip(cs, orcs)
                   if reduce_cover(cov, g, c).kernel_structure != o]
            _emit(results, "homology-oracle",
                  f"h2({g.name}, c) on {len(cs)} unions of rational classes",
                  not bad, f"disagree on {bad}" if bad else "")
    for g, k, expect in cases:
        key = g.content_key()
        c = case_c[key]
        red = reduce_cover(schur_cover(g), g, c).kernel_structure
        orc = case_orc[key] if key in case_orc else oracle_h2_reduced(g, c)
        _emit(results, "homology-oracle",
              f"h2({g.name}, elements of order {k})",
              red == orc == AbelianStructure.from_cyclic_orders(expect),
              f"primary={red} oracle={orc}")
    return results


# ---------------------------------------------------------------------------
# suite 3: Frobenius count cross-validation
# ---------------------------------------------------------------------------

def suite_frobenius_counts(quick: bool = False) -> list:
    from .frob import (_delta_table, _frobenius_step, fixed_counts,
                       frobenius_order)
    from .homology import build_u
    from .hurwitz import LiftingInvariant, k_set
    results = []
    n_max = 6 if quick else 9
    qs = (5, 7) if quick else (3, 5, 7, 11, 13)
    for name, group, c, g_inf in _fixtures_orbit():
        ctx = build_u(group, c)
        ginf_members = group.subgroup_closure([g_inf])
        og = group.element_order(g_inf)
        for q in qs:
            if math.gcd(q, group.order) != 1 or (q - 1) % og:
                continue
            try:
                for n in range(2, n_max + 1):
                    fixed_counts(ctx, ginf_members, q, n)
                agreed = True
            except HurwitzLabError:
                agreed = False
            _emit(results, "frobenius-counts",
                  f"{name} q={q} closed form == brute force (n <= {n_max})",
                  agreed)
            k = frobenius_order(ctx, q)
            deltas = _delta_table(ctx, q)
            good = True
            for h, v in k_set(ctx, n_max, 0):
                inv = LiftingInvariant(h=h, v=v, g_inf=g_inf)
                cur = inv
                for _ in range(k):
                    cur = _frobenius_step(ctx, deltas, cur, q)
                if cur != inv:
                    good = False
                    break
            _emit(results, "frobenius-counts",
                  f"{name} q={q} frobenius^ord(q)={k} is identity", good)
    return results


# ---------------------------------------------------------------------------
# suite 4: random-group exact identities
# ---------------------------------------------------------------------------

def suite_randgrp_exact(quick: bool = False) -> list:
    import itertools
    from .randgrp import (FreeAdmissible, abelian_exponent_variety,
                          chain_counts, moment_n, mu_n)
    results = []
    gam = cyclic(2)
    spec = abelian_exponent_variety(gam, 3)
    targets = [("trivial", inversion_action(trivial_group())),
               ("Z/3", inversion_action(cyclic(3))),
               ("(Z/3)^2", inversion_action(abelian([3, 3])))]
    n_max = 2 if quick else 3
    for n in range(1, n_max + 1):
        free = FreeAdmissible(n, spec)
        # enumerate all outcomes: (x_1..x_n) over F^n, x_{n+1} over the
        # invariants (trivial for the inversion action), as one stack
        combos = list(itertools.product(range(3), repeat=n * free.dim))
        X = np.zeros((len(combos), n + 1, free.dim), dtype=np.int64)
        X[:, :n] = np.array(combos, dtype=np.int64).reshape(-1, n, free.dim)
        outcomes = chain_counts(free, X)
        total = sum(outcomes.values())
        for tname, hg in targets:
            target = AbelianStructure.from_cyclic_orders(
                [3] * 0 if tname == "trivial" else
                ([3] if tname == "Z/3" else [3, 3]))
            acc = Fraction(0)
            for chain, cnt in outcomes.items():
                xs_struct = AbelianStructure.from_cyclic_orders(chain)
                acc += Fraction(cnt, total) * xs_struct.sur_count(target)
            exact = moment_n(hg, [0, 1], n)
            _emit(results, "randgrp-exact",
                  f"moment_{n}({tname}) == exhaustive expectation",
                  acc == exact, f"enum={acc} closed={exact}")
        census = Fraction(0)
        for k in range(0, n + 1):
            h = inversion_action(abelian([3] * k) if k else trivial_group())
            census += mu_n(h, spec, [0, 1], n)
        _emit(results, "randgrp-exact", f"mu_{n} sums to 1 over census",
              census == 1, f"sum={census}")
    return results


# ---------------------------------------------------------------------------
# suite 5: Monte Carlo vs closed forms
# ---------------------------------------------------------------------------

def suite_randgrp_montecarlo(quick: bool = False) -> list:
    from .randgrp import (FreeAdmissible, abelian_exponent_variety, moment_mu,
                          moment_n, monte_carlo, mu_n)
    results = []
    gam = cyclic(2)
    spec = abelian_exponent_variety(gam, 3)
    n = 8
    trials = 10_000 if quick else 100_000
    free = FreeAdmissible(n, spec)
    z3s = AbelianStructure.from_cyclic_orders([3])
    rep = monte_carlo(free, [0, 1], trials, seed=20260809, track=[z3s])
    triv = inversion_action(trivial_group())
    z3 = inversion_action(cyclic(3))
    p_triv, se_t = rep.probability(())
    mu_triv = mu_n(triv, spec, [0, 1], n)
    _emit(results, "randgrp-montecarlo",
          f"P(X trivial) within 4 SE ({trials} trials)",
          abs(float(p_triv) - float(mu_triv)) <= 4 * max(se_t, 1e-12),
          f"emp={float(p_triv):.5f} exact={float(mu_triv):.5f} se={se_t:.5f}")
    p_z3, se_z = rep.probability((3,))
    mu_z3 = mu_n(z3, spec, [0, 1], n)
    _emit(results, "randgrp-montecarlo", "P(X = Z/3) within 4 SE",
          abs(float(p_z3) - float(mu_z3)) <= 4 * max(se_z, 1e-12),
          f"emp={float(p_z3):.5f} exact={float(mu_z3):.5f} se={se_z:.5f}")
    mean, se_m = rep.mean_surjections((3,))
    mom = moment_n(z3, [0, 1], n)
    _emit(results, "randgrp-montecarlo", "E#Sur(X, Z/3) within 4 SE",
          abs(float(mean) - float(mom)) <= 4 * max(se_m, 1e-12),
          f"emp={float(mean):.5f} exact={float(mom):.5f} se={se_m:.5f}")
    m12 = moment_n(z3, [0, 1], 12)
    target = moment_mu(z3, [0, 1])
    _emit(results, "randgrp-montecarlo",
          "moment_n(Z/3) at n=12 within 1e-3 of the limit 1",
          abs(m12 - target) < Fraction(1, 1000), f"moment_12={float(m12):.6f}")
    return results


# ---------------------------------------------------------------------------
# suite 6: prediction consistency across modules
# ---------------------------------------------------------------------------

def suite_prediction_consistency(quick: bool = False) -> list:
    from .frob import moment_prediction
    from .homology import h2
    from .randgrp import moment_mu
    results = []
    for ell in (3, 5):
        for rank in (1, 2):
            h = inversion_action(abelian([ell] * rank))
            limit_frob = moment_prediction(h, [0, 1], None)
            limit_rand = moment_mu(h, [0, 1])
            _emit(results, "prediction-consistency",
                  f"H=(Z/{ell})^{rank}: fixed-label limit == moment_mu",
                  limit_frob == limit_rand == 1,
                  f"frob={limit_frob} randgrp={limit_rand}")
            sd = semidirect(h).group
            mult = h2(sd).prime_to_part(2)
            for q in ((7, 11) if ell == 3 else (11, 3)):
                if math.gcd(q, sd.order) != 1 or q % 2 == 0:
                    continue
                expect = Fraction(mult.torsion_count(q - 1))
                got = moment_prediction(h, [0, 1], q)
                _emit(results, "prediction-consistency",
                      f"H=(Z/{ell})^{rank} q={q}: factor == |H2[q-1]|",
                      got == expect, f"prediction={got} torsion={expect}")
    return results


# ---------------------------------------------------------------------------
# suite 7: arithmetic ground truth
# ---------------------------------------------------------------------------

def suite_jacobian_groundtruth(quick: bool = False) -> list:
    from .arith import (HyperellipticModel, divclass_add, divclass_mul,
                        divisor_identity,
                        enumerate_divisor_classes, enumerate_imaginary,
                        jacobian_order, random_divisor)
    from .rng import substream
    results = []
    m = HyperellipticModel(3, (1, 2, 0, 1))
    h = jacobian_order(m)
    classes = len(enumerate_divisor_classes(m))
    _emit(results, "jacobian-groundtruth",
          "q=3, t^3 - t + 1: L(1) = 7 = Mumford enumeration",
          h == 7 == classes, f"L(1)={h} classes={classes}")
    bad = 0
    n_curves = 0
    for q in (3, 5):
        for model in enumerate_imaginary(q, 3):
            n_curves += 1
            if jacobian_order(model) != len(enumerate_divisor_classes(model)):
                bad += 1
    _emit(results, "jacobian-groundtruth",
          "all genus-1 curves over F3, F5: L(1) == class enumeration",
          bad == 0, f"{n_curves} curves, {bad} mismatches")
    triples = 1000 if quick else 10_000
    fixtures = [HyperellipticModel(3, (1, 2, 0, 1)),
                HyperellipticModel(3, (1, 2, 0, 0, 0, 1)),
                HyperellipticModel(5, (3, 1, 0, 1)),
                HyperellipticModel(3, (1, 0, 2, 0, 0, 0, 0, 1))]
    for model in fixtures:
        rng = substream(7, model.q * 1000 + len(model.f))
        hm = jacobian_order(model)
        ident = divisor_identity()
        ok = True
        for _ in range(triples):
            a = random_divisor(model, rng)
            b = random_divisor(model, rng)
            c = random_divisor(model, rng)
            if divclass_add(model, divclass_add(model, a, b), c) != \
               divclass_add(model, a, divclass_add(model, b, c)):
                ok = False
                break
            if divclass_mul(model, a, hm) != ident:
                ok = False
                break
        _emit(results, "jacobian-groundtruth",
              f"Cantor associativity + Lagrange on genus-{model.genus} "
              f"fixture over F{model.q} ({triples} triples)", ok)
    return results


# ---------------------------------------------------------------------------
# suite 8: empirical function-field moment
# ---------------------------------------------------------------------------

def suite_ff_moment(quick: bool = False) -> list:
    from .arith import empirical_moment
    results = []
    dmax = 5 if quick else 7
    t0 = time.time()
    rep = empirical_moment(3, dmax, [5], seed=1)
    avg = rep.final_average
    _emit(results, "ff-moment",
          f"q=3 H=Z/5 deg<= {dmax}: cumulative average in [0.5, 1.5]",
          Fraction(1, 2) <= avg <= Fraction(3, 2),
          f"average={float(avg):.4f} prediction=1")
    print(f"# ff-moment: deg <= {dmax} took {time.time() - t0:.0f}s",
          file=sys.stderr)
    cfg = {"kind": "arith-ff-moment", "q": 3, "dmax": 3, "target": "5",
           "seed": 1}
    from .cli import run_config
    r1 = run_config(dict(cfg))
    r2 = run_config(dict(cfg))
    _emit(results, "ff-moment", "report byte-reproducible under fixed seed",
          r1.to_csv() == r2.to_csv() and r1.fingerprint == r2.fingerprint,
          f"fingerprint={r1.fingerprint[:16]}...")
    return results


# ---------------------------------------------------------------------------
# suite 9: bridge formula
# ---------------------------------------------------------------------------

def suite_bridge(quick: bool = False) -> list:
    from .frob import sur_hur_bridge
    from .rng import substream
    results = []
    z3 = inversion_action(cyclic(3))
    br = sur_hur_bridge(z3, [0, 1], 5, 4, sur_sum=1)
    sd = semidirect(z3).group
    invols = [x for x in range(1, 6) if sd.element_order(x) == 2]
    _emit(results, "bridge", "c_G for H=Z/3, Gamma=Z/2 is the 3 involutions",
          sorted(br.c_g) == sorted(invols) and br.factor == Fraction(1, 2),
          f"c_G={br.c_g} factor={br.factor}")
    rng = substream(123, 0)
    fixtures = []
    hs = [cyclic(3), cyclic(5), cyclic(7), cyclic(9), abelian([3, 3]),
          abelian([5, 5]), cyclic(15), abelian([3, 9])]
    while len(fixtures) < 20:
        h = hs[rng.randint(len(hs))]
        hg = inversion_action(h)
        ginf = [0, 1] if rng.randint(2) else [0]
        q = [3, 5, 7, 11][rng.randint(4)]
        if math.gcd(q, 2 * h.order) != 1:
            continue
        fixtures.append((hg, ginf, q))
    ok = True
    for hg, ginf, q in fixtures:
        val = Fraction(rng.randint(1000) + 1, rng.randint(50) + 1)
        there = sur_hur_bridge(hg, ginf, q, 5, sur_sum=val)
        back = sur_hur_bridge(hg, ginf, q, 5, hur_count=there.hur_count)
        if back.sur_sum != val:
            ok = False
            break
        there2 = sur_hur_bridge(hg, ginf, q, 5, hur_count=val)
        back2 = sur_hur_bridge(hg, ginf, q, 5, sur_sum=there2.sur_sum)
        if back2.hur_count != val:
            ok = False
            break
    _emit(results, "bridge", "round trip on 20 randomized fixtures", ok)
    return results


SUITES = {
    "orbit-invariants": suite_orbit_invariants,
    "homology-oracle": suite_homology_oracle,
    "frobenius-counts": suite_frobenius_counts,
    "randgrp-exact": suite_randgrp_exact,
    "randgrp-montecarlo": suite_randgrp_montecarlo,
    "prediction-consistency": suite_prediction_consistency,
    "jacobian-groundtruth": suite_jacobian_groundtruth,
    "ff-moment": suite_ff_moment,
    "bridge": suite_bridge,
}


def run_suite(name: str, quick: bool = False) -> list:
    from .errors import ValidationError
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](quick=quick))
        return out
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {sorted(SUITES)} or 'all'")
    return SUITES[name](quick=quick)
