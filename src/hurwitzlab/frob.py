"""Frobenius action on lifting invariants and the arithmetic predictions:
fixed-component counts, Hurwitz point-count main terms, and moment
predictions with the roots-of-unity torsion factor.

The q^{-1}-star map is implemented on K(G,c)-cosets: conjugacy classes get
permuted by q-th powering, the free coordinate is exactly divisible by q
after the correction product, and the torsion coordinate picks up the
inverse exponent.  The correction is a class function, tabulated once per
class by `_delta_table`; `fixed_counts` builds that table once per call
and steps every (h, v) of its brute-force half through it, each step
still checking divisibility by q and the degree."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalCheckError, ValidationError
from .groups import GammaGroup, Subgroup, semidirect
from .homology import UContext, h2
from .hurwitz import LiftingInvariant, k_set
from .ntheory import is_prime_power


@dataclass(frozen=True)
class FrobeniusParams:
    """Validated Frobenius datum q for a group (and optional inertia order)."""
    q: int
    group_order: int
    ginf_order: Optional[int] = None

    def __post_init__(self):
        if self.q < 2:
            raise ValidationError("q must be at least 2")
        if math.gcd(self.q, self.group_order) != 1:
            raise ValidationError(
                f"gcd(q, |G|) must be 1; got q={self.q}, |G|={self.group_order}")
        if self.ginf_order is not None and (self.q - 1) % self.ginf_order:
            raise ValidationError(
                f"q must be 1 mod |G_inf|={self.ginf_order}: otherwise no "
                "imaginary extensions exist for this congruence class")
        if not is_prime_power(self.q):
            warnings.warn(f"q={self.q} is not a prime power; the congruence "
                          "formulas still apply but no field has this size")


def delta_correction(ctx: UContext, x: int, q: int):
    """The K(G,c) element bracket(x^{q^{-1}})^q * bracket(x)^{-1} in (h, v)
    form; v = q * e_{class(x^{1/q})} - e_{class(x)}."""
    if x not in ctx.lifts:
        raise ValidationError(f"element {x} not in c")
    ox = ctx.group.element_order(x)
    if math.gcd(q, ox) != 1:
        raise ValidationError(f"gcd(q, ord(x)) must be 1; ord({x}) = {ox}")
    qbar = pow(q, -1, ox)
    xr = ctx.group.power(x, qbar)
    u = (ctx.bracket(xr) ** q) * ctx.bracket(x).inverse()
    h, v = ctx.k_decompose(u)
    expect = [0] * ctx.nclasses
    expect[ctx.class_of[xr]] += q
    expect[ctx.class_of[x]] -= 1
    if tuple(expect) != v:
        raise InternalCheckError("delta correction degree vector mismatch")
    return h, v


def _delta_table(ctx: UContext, q: int):
    """(h, v) of delta at each class representative (delta is a class
    function since K is central)."""
    return [delta_correction(ctx, rep, q) for rep in ctx.class_reps]


def frobenius_map(ctx: UContext, inv: LiftingInvariant, q: int) -> LiftingInvariant:
    """One Frobenius step on an invariant: (D * z)^{q^{-1}} with
    D = prod_over_classes delta(x_class)^{multiplicity}."""
    FrobeniusParams(q, ctx.group.order, ctx.group.element_order(inv.g_inf))
    return _frobenius_step(ctx, _delta_table(ctx, q), inv, q)


def _frobenius_step(ctx: UContext, deltas: list, inv: LiftingInvariant,
                    q: int) -> LiftingInvariant:
    """`frobenius_map` with q already validated and `_delta_table(ctx, q)`
    given as `deltas`."""
    horders = ctx.h2c.factors
    hacc = [0] * len(horders)
    vacc = [0] * ctx.nclasses
    for slot, mult in enumerate(inv.v):
        if mult:
            dh, dv = deltas[slot]
            for i in range(len(horders)):
                hacc[i] += mult * dh[i]
            for i in range(ctx.nclasses):
                vacc[i] += mult * dv[i]
    hacc = [a + b for a, b in zip(hacc, inv.h)]
    vacc = [a + b for a, b in zip(vacc, inv.v)]
    if any(x % q for x in vacc):
        raise InternalCheckError(
            "free coordinate not divisible by q; delta correction is wrong")
    vnew = tuple(x // q for x in vacc)
    hnew = []
    for a, d in zip(hacc, horders):
        qinv = pow(q, -1, d)
        hnew.append((a * qinv) % d)
    out = LiftingInvariant(h=tuple(hnew), v=vnew, g_inf=inv.g_inf)
    if out.degree != inv.degree:
        raise InternalCheckError("Frobenius step changed the total degree")
    return out


def frobenius_order(ctx: UContext, q: int) -> int:
    """Multiplicative order of q modulo lcm(exp H2(G,c), exp G)."""
    m = math.lcm(ctx.h2c.exponent, ctx.group.exponent())
    if m == 1:
        return 1
    if math.gcd(q, m) != 1:
        raise ValidationError("q not invertible modulo the relevant exponent")
    k, acc = 1, q % m
    while acc != 1:
        acc = (acc * q) % m
        k += 1
    return k


@dataclass(frozen=True)
class FixedCount:
    """Frobenius-fixed invariant counts at degree n."""
    b: int
    d: int
    n: int
    q: int
    refinement: tuple  # sorted ((h coords), count) pairs; sums to b


def fixed_counts(ctx: UContext, ginf_members: Sequence[int], q: int,
                 n: int) -> FixedCount:
    """b and d for (G, c, q, n), computed two ways and cross-asserted.

    Closed form: the vectors of the degree-n K-set (nonnegative, with
    trivial abelianized image) constant on q-powering orbits, each
    contributing its torsion solutions h of (q-1) h = h_D(v).  Brute
    force: step every (h, v) of the K-set through the Frobenius map and
    count fixed points.  The
    delta table is built once per call and shared by both halves; every
    brute-force step still checks divisibility by q and the degree."""
    sub = Subgroup(ctx.group, tuple(ginf_members))
    if not sub.is_cyclic():
        raise ValidationError("G_inf must be cyclic")
    gens = sub.generators_of_cyclic()
    if not gens:
        raise ValidationError("G_inf must be nontrivial")
    g_inf = min(gens)
    FrobeniusParams(q, ctx.group.order, len(sub))
    perm = ctx.power_perm(q)
    # d: orbits of q-th powering on classes in c
    seen = set()
    d = 0
    for i in range(ctx.nclasses):
        if i not in seen:
            d += 1
            j = i
            while j not in seen:
                seen.add(j)
                j = perm[j]
    deltas = _delta_table(ctx, q)
    horders = ctx.h2c.factors

    def h_d_of(v):
        acc = [0] * len(horders)
        for slot, mult in enumerate(v):
            if mult:
                dh = deltas[slot][0]
                for i in range(len(horders)):
                    acc[i] = (acc[i] + mult * dh[i]) % horders[i]
        return tuple(acc)

    kset = k_set(ctx, n, 0)
    refinement_closed: dict = {}
    b_closed = 0
    for v in dict.fromkeys(v for _, v in kset):
        if any(v[i] != v[perm[i]] for i in range(ctx.nclasses)):
            continue
        # the solutions h themselves refine the count
        for h in _torsion_solution_list(h_d_of(v), horders, q):
            b_closed += 1
            refinement_closed[h] = refinement_closed.get(h, 0) + 1
    # brute force
    b_brute = 0
    refinement_brute: dict = {}
    for h, v in kset:
        inv = LiftingInvariant(h=h, v=v, g_inf=g_inf)
        if _frobenius_step(ctx, deltas, inv, q) == inv:
            b_brute += 1
            refinement_brute[h] = refinement_brute.get(h, 0) + 1
    if b_closed != b_brute or refinement_closed != refinement_brute:
        raise InternalCheckError(
            f"fixed-count cross-validation failed: closed={b_closed} "
            f"brute={b_brute}")
    return FixedCount(b=b_closed, d=d, n=n, q=q,
                      refinement=tuple(sorted(refinement_brute.items())))


def _torsion_solution_list(target, horders, q):
    out = []
    for h in itertools.product(*(range(dd) for dd in horders)):
        if all(((q - 1) * x - t) % dd == 0
               for x, t, dd in zip(h, target, horders)):
            out.append(tuple(h))
    return out


@dataclass(frozen=True)
class PredictedCount:
    main_term: int
    pi: int
    b: int
    generator_count: int
    q: int
    n: int
    error_exponent: Fraction    # the count is main_term + O(q^error_exponent)

    @property
    def error_class(self) -> str:
        return f"O(q^({self.error_exponent}))"


def predicted_hur_count(ctx: UContext, ginf_members: Sequence[int], q: int,
                        n: int) -> PredictedCount:
    """Main term pi * q^{n-1} with pi = b * #generators(G_inf); the error is
    reported symbolically as O(q^{(2n-3)/2}) with unknown constant."""
    return _predicted_from(ctx, ginf_members,
                           fixed_counts(ctx, ginf_members, q, n))


def _predicted_from(ctx: UContext, ginf_members: Sequence[int],
                    fc: FixedCount) -> PredictedCount:
    """The `predicted_hur_count` of fc's (q, n), given its fixed counts."""
    gens = len(Subgroup(ctx.group, tuple(ginf_members)).generators_of_cyclic())
    pi = fc.b * gens
    return PredictedCount(main_term=pi * fc.q ** (fc.n - 1), pi=pi, b=fc.b,
                          generator_count=gens, q=fc.q, n=fc.n,
                          error_exponent=Fraction(2 * fc.n - 3, 2))


# ---------------------------------------------------------------------------
# moments and the bridge
# ---------------------------------------------------------------------------

def invariant_index(h: GammaGroup, gamma_inf_members: Sequence[int]) -> int:
    """[H^{Gamma_inf} : H^Gamma]."""
    full = h.invariants(range(h.gamma.order))
    part = h.invariants(gamma_inf_members)
    if len(part) % len(full):
        raise InternalCheckError("invariant subgroup index not integral")
    return len(part) // len(full)


def moment_prediction(h: GammaGroup, gamma_inf_members: Sequence[int],
                      q: Optional[int] = None) -> Fraction:
    """Predicted average number of equivariant surjections onto H.

    For finite q: #H2(H x| Gamma, Z)_{(|Gamma|)'}[q-1] / [H^{G_inf}:H^G];
    for q None (large-q limit at fixed component label): 1/[H^{G_inf}:H^G].
    """
    if not h.is_admissible():
        raise ValidationError("H must be an admissible Gamma-group")
    sub = Subgroup(h.gamma, tuple(gamma_inf_members))
    denom = invariant_index(h, sub.members)
    if q is None:
        return Fraction(1, denom)
    if math.gcd(q, h.base.order * h.gamma.order) != 1:
        raise ValidationError("need gcd(q, |H||Gamma|) = 1")
    if (q - 1) % len(sub):
        raise ValidationError(
            f"q must be 1 mod |Gamma_inf| = {len(sub)}: otherwise no "
            "imaginary extensions exist for this congruence class")
    sd = semidirect(h)
    multiplier = h2(sd.group)
    numer = multiplier.prime_to_part(h.gamma.order).torsion_count(q - 1)
    return Fraction(numer, denom)


@dataclass(frozen=True)
class BridgeResult:
    """Conversion between Hurwitz point counts and surjection sums."""
    c_g: tuple                 # the computed class set in H x| Gamma
    factor: Fraction           # #Hur = factor * sum #Sur
    hur_count: Optional[Fraction]
    sur_sum: Optional[Fraction]
    ginf_members: tuple


def sur_hur_bridge(h: GammaGroup, gamma_inf_members: Sequence[int], q: int,
                   n: int, hur_count=None, sur_sum=None) -> BridgeResult:
    """The exact factor [H^{Gamma_inf}:H^Gamma] / |G_inf| linking Hurwitz
    counts over F_q with rDisc q^{n-1} to surjection sums, plus the class
    set c_G of elements whose order matches their image in Gamma."""
    sub = Subgroup(h.gamma, tuple(gamma_inf_members))
    if not sub.is_cyclic():
        raise ValidationError("Gamma_inf must be cyclic")
    sd = semidirect(h)
    g = sd.group
    FrobeniusParams(q, g.order)
    ginf = tuple(sorted(sd.embed_gamma[x] for x in sub.members))
    hset = set(sd.embed_base)
    if any(x in hset and x != 0 for x in ginf):
        raise ValidationError("G_inf must intersect H trivially")
    c_g = tuple(x for x in range(1, g.order)
                if g.element_order(x) == h.gamma.element_order(sd.proj_gamma[x]))
    factor = Fraction(invariant_index(h, sub.members), len(ginf))
    out_hur = None
    out_sur = None
    if hur_count is not None:
        out_hur = Fraction(hur_count)
        out_sur = out_hur / factor
    if sur_sum is not None:
        out_sur = Fraction(sur_sum)
        out_hur = factor * out_sur
    return BridgeResult(c_g=c_g, factor=factor, hur_count=out_hur,
                        sur_sum=out_sur, ginf_members=ginf)
