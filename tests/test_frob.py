import math
from fractions import Fraction

import pytest

from hurwitzlab import frob
from hurwitzlab.errors import InternalCheckError, ValidationError
from hurwitzlab.groups import (abelian, cyclic, dihedral, inversion_action,
                               semidirect, symmetric, trivial_action,
                               trivial_group)
from hurwitzlab.homology import build_u
from hurwitzlab.hurwitz import LiftingInvariant, k_set, orbits
from hurwitzlab.frob import (FrobeniusParams, delta_correction, fixed_counts,
                             frobenius_map, frobenius_order,
                             moment_prediction, predicted_hur_count,
                             sur_hur_bridge)


@pytest.fixture(scope="module")
def ctx_z2():
    return build_u(cyclic(2), [1])


@pytest.fixture(scope="module")
def ctx_d5():
    return build_u(dihedral(5), list(range(1, 10)))


def test_frobenius_params():
    FrobeniusParams(5, 6, 2)
    with pytest.raises(ValidationError):
        FrobeniusParams(3, 6)
    with pytest.raises(ValidationError):
        FrobeniusParams(5, 3, 3)  # 5 != 1 mod 3
    with pytest.warns(UserWarning):
        FrobeniusParams(15, 4)    # not a prime power


def test_delta_z2(ctx_z2):
    for q in (3, 5, 7, 11):
        h, v = delta_correction(ctx_z2, 1, q)
        assert h == () and v == (q - 1,)


def test_delta_degree_vector(ctx_d5):
    d5 = ctx_d5.group
    for x in ctx_d5.c:
        for q in (3, 7, 11):
            if math.gcd(q, d5.element_order(x)) != 1:
                continue
            h, v = delta_correction(ctx_d5, x, q)
            qbar = pow(q, -1, d5.element_order(x))
            xr = d5.power(x, qbar)
            expect = [0] * ctx_d5.nclasses
            expect[ctx_d5.class_of[xr]] += q
            expect[ctx_d5.class_of[x]] -= 1
            assert v == tuple(expect)


def test_frobenius_z2_fixed(ctx_z2):
    for n in (2, 4, 6):
        inv = LiftingInvariant(h=(), v=(n,), g_inf=1)
        assert frobenius_map(ctx_z2, inv, 5) == inv


def test_frobenius_preserves_degree(ctx_d5):
    refl = next(g for g in ctx_d5.c if ctx_d5.group.element_order(g) == 2)
    for h, v in k_set(ctx_d5, 6, 0):
        inv = LiftingInvariant(h=h, v=v, g_inf=refl)
        out = frobenius_map(ctx_d5, inv, 7)
        assert out.degree == inv.degree


def test_frobenius_iteration_identity(ctx_d5):
    refl = next(g for g in ctx_d5.c if ctx_d5.group.element_order(g) == 2)
    q = 7
    k = frobenius_order(ctx_d5, q)
    for h, v in k_set(ctx_d5, 6, 0):
        inv = LiftingInvariant(h=h, v=v, g_inf=refl)
        cur = inv
        for _ in range(k):
            cur = frobenius_map(ctx_d5, cur, q)
        assert cur == inv


def test_fixed_counts_z2(ctx_z2):
    for n in range(2, 9):
        fc = fixed_counts(ctx_z2, [0, 1], 5, n)
        assert fc.b == (1 if n % 2 == 0 else 0)
        assert fc.d == 1


def test_fixed_counts_d5(ctx_d5):
    d5 = ctx_d5.group
    refl = next(g for g in ctx_d5.c if d5.element_order(g) == 2)
    ginf = d5.subgroup_closure([refl])
    fc = fixed_counts(ctx_d5, ginf, 7, 6)
    assert fc.d == 2            # rotation classes swap under 7th powers
    fc11 = fixed_counts(ctx_d5, ginf, 11, 6)
    assert fc11.d == 3          # 11th powers fix every class
    assert sum(cnt for _, cnt in fc.refinement) == fc.b


def test_fixed_counts_all_fixed_regime(ctx_z2):
    # q = 1 mod lcm(exp H2c, exp G): every element fixed
    ctx = build_u(symmetric(3), [g for g in range(1, 6)
                                 if symmetric(3).element_order(g) == 2])
    q = 13  # 13 = 1 mod 12 >= lcm(2, exp S3=6)... 13 mod 6 = 1, mod 2 = 1
    n = 6
    fc = fixed_counts(ctx, ctx.group.subgroup_closure([ctx.c[0]]), q, n)
    total = len(k_set(ctx, n, 0))
    assert fc.b == total


def test_fixed_counts_builds_one_delta_table(ctx_d5, monkeypatch):
    calls = []
    real = frob.delta_correction

    def counting(ctx, x, q):
        calls.append(x)
        return real(ctx, x, q)

    monkeypatch.setattr(frob, "delta_correction", counting)
    d5 = ctx_d5.group
    refl = next(g for g in ctx_d5.c if d5.element_order(g) == 2)
    fixed_counts(ctx_d5, d5.subgroup_closure([refl]), 7, 6)
    assert len(calls) == ctx_d5.nclasses


# (b, d) of D5, c = all, for n = 2..9; H2 is trivial, so the refinement is
# the single pair ((), b) when b > 0
_ALTERNATING = [(2, 2), (0, 2), (3, 2), (0, 2), (4, 2), (0, 2), (5, 2), (0, 2)]
_ALL_FIXED = [(4, 3), (6, 3), (9, 3), (12, 3), (16, 3), (20, 3), (25, 3),
              (30, 3)]
FIXED_D5 = {(2, 3): _ALTERNATING, (2, 7): _ALTERNATING, (2, 11): _ALL_FIXED,
            (2, 13): _ALTERNATING, (5, 11): _ALL_FIXED}


def test_fixed_counts_d5_pinned(ctx_d5):
    d5 = ctx_d5.group
    seen = set()
    for order in (2, 5):
        g_inf = next(g for g in ctx_d5.c if d5.element_order(g) == order)
        members = d5.subgroup_closure([g_inf])
        for q in (3, 7, 11, 13):
            if (q - 1) % order:
                continue
            seen.add((order, q))
            got = [fixed_counts(ctx_d5, members, q, n) for n in range(2, 10)]
            assert [(fc.b, fc.d) for fc in got] == FIXED_D5[order, q]
            assert [fc.refinement for fc in got] == \
                [(((), fc.b),) if fc.b else () for fc in got]
    assert seen == set(FIXED_D5)


@pytest.mark.parametrize("shift, match", [(None, "cross-validation"),
                                          (1, "not divisible by q")])
def test_corrupted_delta_table_is_caught(ctx_d5, monkeypatch, shift, match):
    """Moving q units of the first class's delta to another class keeps
    every step divisible by q and degree-preserving, so only the
    closed-form/brute-force cross-assert sees it; moving one unit breaks
    divisibility in the step itself."""
    real = frob._delta_table

    def corrupted(ctx, q):
        table = real(ctx, q)
        h, v = table[0]
        step = q if shift is None else shift
        table[0] = (h, (v[0] - step, v[1] + step) + v[2:])
        return table

    monkeypatch.setattr(frob, "_delta_table", corrupted)
    d5 = ctx_d5.group
    refl = next(g for g in ctx_d5.c if d5.element_order(g) == 2)
    with pytest.raises(InternalCheckError, match=match):
        fixed_counts(ctx_d5, d5.subgroup_closure([refl]), 7, 6)


def test_predicted_hur_count(ctx_z2):
    pc = predicted_hur_count(ctx_z2, [0, 1], 5, 4)
    assert pc.main_term == 125 and pc.pi == 1
    assert pc.error_exponent == Fraction(5, 2)
    pc0 = predicted_hur_count(ctx_z2, [0, 1], 5, 3)
    assert pc0.main_term == 0


def test_fixed_orbit_count_matches_b():
    """In the stable range, Frobenius-fixed orbit invariants are counted by b
    (for a fixed g_inf, i.e. one generator)."""
    s3 = symmetric(3)
    transp = [g for g in range(1, 6) if s3.element_order(g) == 2]
    ctx = build_u(s3, transp)
    g_inf = transp[0]
    ginf_members = s3.subgroup_closure([g_inf])
    q, n = 5, 8
    orbs = orbits(s3, transp, g_inf, n, ctx=ctx)
    fixed_orbits = 0
    for o in orbs:
        if frobenius_map(ctx, o.invariant, q) == o.invariant:
            fixed_orbits += 1
    fc = fixed_counts(ctx, ginf_members, q, n)
    assert fixed_orbits == fc.b


def test_moment_prediction_values():
    z3 = inversion_action(cyclic(3))
    assert moment_prediction(z3, [0, 1], None) == 1
    assert moment_prediction(z3, [0], None) == Fraction(1, 3)
    z5 = inversion_action(cyclic(5))
    assert moment_prediction(z5, [0], None) == Fraction(1, 5)
    z55 = inversion_action(abelian([5, 5]))
    assert moment_prediction(z55, [0, 1], 11) == 5
    assert moment_prediction(z55, [0, 1], 3) == 1
    with pytest.raises(ValidationError):
        moment_prediction(z3, [0, 1], 4)   # q even: not 1 mod |Gamma_inf|? 4=0 mod 2 gcd fails
    with pytest.raises(ValidationError):
        moment_prediction(trivial_action(cyclic(9), cyclic(2)), [0, 1], 5)


def test_bridge_examples():
    z3 = inversion_action(cyclic(3))
    br = sur_hur_bridge(z3, [0, 1], 5, 4, sur_sum=10)
    assert br.factor == Fraction(1, 2)
    assert len(br.c_g) == 3
    sd = semidirect(z3).group
    assert all(sd.element_order(x) == 2 for x in br.c_g)
    assert br.hur_count == 5
    triv = trivial_action(trivial_group(), cyclic(2))
    assert sur_hur_bridge(triv, [0, 1], 5, 4, hur_count=1).factor == \
        Fraction(1, 2)
    assert sur_hur_bridge(z3, [0], 5, 4, sur_sum=1).factor == 3


def test_bridge_roundtrip():
    z9 = inversion_action(cyclic(9))
    for ginf in ([0, 1], [0]):
        val = Fraction(17, 3)
        there = sur_hur_bridge(z9, ginf, 5, 6, sur_sum=val)
        back = sur_hur_bridge(z9, ginf, 5, 6, hur_count=there.hur_count)
        assert back.sur_sum == val
