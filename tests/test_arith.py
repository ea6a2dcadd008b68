import math
import random
from fractions import Fraction

import pytest

from hurwitzlab.abelian import AbelianGroupData, AbelianStructure
from hurwitzlab import arith
from hurwitzlab.arith import (DivisorClass, ExtField, HyperellipticModel,
                              _form_reduce, compose_forms, count_imaginary,
                              curve_point_count, divclass_add, divclass_mul,
                              divclass_neg, divisor_identity,
                              empirical_moment, enumerate_divisor_classes,
                              enumerate_imaginary, fundamental_discriminant,
                              is_squarefree, jacobian_order, l_polynomial,
                              l_polynomials,
                              nf_class_group, nonsquare, pmul, pxgcd,
                              random_divisor, reduced_forms, sylow_structure)
from hurwitzlab.errors import (CapacityError, InternalCheckError,
                               ValidationError)
from hurwitzlab.ntheory import (factorize, is_power_of, pscale, valuation,
                               xgcd)
from hurwitzlab.rng import substream


def AS(orders):
    return AbelianStructure.from_cyclic_orders(orders)


def test_poly_basics():
    p = 5
    a = (1, 2, 3)
    b = (4, 1)
    g, s, t = pxgcd(a, b, p)
    lhs = tuple()
    from hurwitzlab.arith import padd
    assert padd(pmul(s, a, p), pmul(t, b, p), p) == g
    assert is_squarefree((1, 2, 0, 1), 3)
    assert not is_squarefree(pmul((1, 1), (1, 1), 3), 3)


def test_model_validation():
    with pytest.raises(ValidationError):
        HyperellipticModel(4, (1, 0, 0, 1))      # q not prime
    with pytest.raises(ValidationError):
        HyperellipticModel(3, (1, 0, 1))         # even degree
    with pytest.raises(ValidationError):
        HyperellipticModel(3, pmul((1, 1), (1, 1), 3))  # not squarefree


def test_jacobian_order_example():
    m = HyperellipticModel(3, (1, 2, 0, 1))   # y^2 = x^3 - x + 1
    assert m.genus == 1
    assert jacobian_order(m) == 7
    assert len(enumerate_divisor_classes(m)) == 7


def test_genus_zero_control():
    m = HyperellipticModel(3, (1, 1))
    assert m.genus == 0
    assert jacobian_order(m) == 1


def test_genus1_exhaustive():
    for q in (3, 5):
        for model in enumerate_imaginary(q, 3):
            assert jacobian_order(model) == len(enumerate_divisor_classes(model))


def test_enumeration_count():
    models = list(enumerate_imaginary(3, 3))
    assert len(models) == count_imaginary(3, 3) == 36
    assert len(set(m.f for m in models)) == 36
    # the model cap of empirical_moment is checked against these counts
    for q in (3, 5):
        for d in (3, 5):
            assert sum(1 for _ in enumerate_imaginary(q, d)) == \
                count_imaginary(q, d)
    with pytest.raises(ValidationError):
        list(enumerate_imaginary(3, 4))


def test_l_polynomial_functional_equation():
    m = HyperellipticModel(3, (1, 2, 0, 0, 0, 1))
    L = l_polynomial(m)
    g, q = m.genus, m.q
    for k in range(len(L)):
        assert L[2 * g - k] * q ** (k - g) == L[k] or \
            L[2 * g - k] == q ** (g - k) * L[k]


def test_cantor_group_axioms():
    model = HyperellipticModel(3, (1, 2, 0, 0, 0, 1))
    h = jacobian_order(model)
    rng = substream(42, 0)
    ident = divisor_identity()
    for _ in range(400):
        a = random_divisor(model, rng)
        b = random_divisor(model, rng)
        c = random_divisor(model, rng)
        assert divclass_add(model, a, ident) == a
        assert divclass_add(model, a, divclass_neg(model, a)) == ident
        assert divclass_add(model, divclass_add(model, a, b), c) == \
            divclass_add(model, a, divclass_add(model, b, c))
        assert divclass_mul(model, a, h) == ident


def test_cantor_matches_enumeration_order():
    model = HyperellipticModel(5, (3, 1, 0, 1))
    classes = enumerate_divisor_classes(model)
    h = jacobian_order(model)
    assert len(classes) == h
    for d in classes:
        assert divclass_mul(model, d, h) == divisor_identity()


def test_sylow_structure():
    m = HyperellipticModel(3, (1, 2, 0, 1))   # order 7
    res = sylow_structure(m, 7, seed=3)
    assert res.certified and res.structure == AS([7])
    res5 = sylow_structure(m, 5, seed=3)
    assert res5.certified and res5.structure.is_trivial()
    with pytest.raises(ValidationError):
        sylow_structure(m, 3, seed=0)  # ell equals the characteristic


def test_sylow_matches_full_enumeration():
    rng_models = [m for m in enumerate_imaginary(3, 3)]
    checked = 0
    for model in rng_models:
        h = jacobian_order(model)
        if h % 5 == 0:
            res = sylow_structure(model, 5, seed=9)
            assert res.certified
            e = 0
            hh = h
            while hh % 5 == 0:
                hh //= 5
                e += 1
            assert res.structure.order == 5 ** e
            checked += 1
    assert checked > 0


def test_empirical_moment_plain():
    rep = empirical_moment(3, 3, [5], seed=1)
    assert rep.rows[0].fields == 36
    assert rep.rows[0].excluded == 0
    assert rep.rows[0].prediction == 1
    assert rep.rows[0].cumulative_average == Fraction(2, 3)
    with pytest.raises(ValidationError):
        empirical_moment(3, 3, [3], seed=1)    # ell = q
    with pytest.raises(ValidationError):
        empirical_moment(3, 3, [2], seed=1)    # even H in plain mode


def test_empirical_moment_gerth():
    rep = empirical_moment(3, 3, [2], mode="gerth", seed=1)
    # q = 3 = 3 mod 4: v = 1, wedge^2(Z/2) trivial: prediction 1
    assert rep.rows[0].prediction == 1
    assert rep.weighted_total is not None


def test_nonsquare():
    for q in (3, 5, 7, 11):
        ns = nonsquare(q)
        assert pow(ns, (q - 1) // 2, q) == q - 1


def test_nf_class_groups():
    assert nf_class_group(23).structure == AS([3])
    assert nf_class_group(1).order == 1
    assert nf_class_group(3).order == 1
    assert nf_class_group(47).structure == AS([5])
    assert nf_class_group(14).structure == AS([4])
    assert nf_class_group(21).structure == AS([2, 2])
    known = {5: 2, 6: 2, 10: 2, 13: 2, 15: 2, 30: 4, 33: 4, 34: 4, 89: 12}
    for d, h in known.items():
        assert nf_class_group(d).order == h, d
    with pytest.raises(ValidationError):
        nf_class_group(4)


def test_fundamental_discriminant():
    assert fundamental_discriminant(23) == -23
    assert fundamental_discriminant(1) == -4
    assert fundamental_discriminant(3) == -3
    assert fundamental_discriminant(5) == -20


def test_reduced_forms_count():
    assert len(reduced_forms(-23)) == 3
    assert len(reduced_forms(-4)) == 1


def brute_point_count(model, fld):
    """1 + #{(x, y) in F^2 : y^2 = f(x)} in ExtField's tuple arithmetic."""
    roots = {}
    for y in fld.elements():
        sq = fld.mul(y, y)
        roots[sq] = roots.get(sq, 0) + 1
    return 1 + sum(roots.get(fld.eval_poly(model.f, x), 0)
                   for x in fld.elements())


def test_point_counts_match_brute_force():
    for q, d in ((3, 3), (3, 5), (5, 3)):
        for k in (1, 2, 3):
            fld = ExtField(q, k)
            for model in enumerate_imaginary(q, d):
                assert curve_point_count(model, k) == \
                    brute_point_count(model, fld), (model.key(), k)


def squarefree_up_to(n):
    return [d for d in range(1, n + 1)
            if all(e == 1 for e in factorize(d).values())]


def test_nf_class_group_matches_basis_search():
    for d in squarefree_up_to(400):
        D = fundamental_discriminant(d)
        forms = reduced_forms(D)
        ident = _form_reduce(1, D % 2, (D % 2 - D) // 4, D)
        data = AbelianGroupData(forms, lambda x, y: compose_forms(x, y, D),
                                ident)
        assert nf_class_group(d).structure == data.structure, d
    assert nf_class_group(26).structure == AS([6])
    for d in (1, 2, 3, 7, 11, 19, 43, 67, 163):
        assert nf_class_group(d).structure.is_trivial(), d


def test_composition_group_laws():
    rng = random.Random(11)
    for d in rng.sample(squarefree_up_to(3000), 60):
        D = fundamental_discriminant(d)
        forms = reduced_forms(D)
        ident = _form_reduce(1, D % 2, (D % 2 - D) // 4, D)
        for _ in range(20):
            f, g, h = (rng.choice(forms) for _ in range(3))
            assert compose_forms(f, ident, D) == f
            assert compose_forms(f, _form_reduce(f[0], -f[1], f[2], D),
                                 D) == ident
            assert compose_forms(f, g, D) == compose_forms(g, f, D)
            assert compose_forms(compose_forms(f, g, D), h, D) == \
                compose_forms(f, compose_forms(g, h, D), D)


def test_reduced_forms_match_brute_force():
    def brute(D):
        out = []
        for a in range(1, math.isqrt(-D // 3) + 1):
            for b in range(-a + 1, a + 1):
                if (b * b - D) % (4 * a):
                    continue
                c = (b * b - D) // (4 * a)
                if c < a or a == c and b < 0 or math.gcd(a, b, c) != 1:
                    continue
                out.append((a, b, c))
        return sorted(out)

    for D in range(-19999, 0):
        if D % 4 in (0, 1):
            assert reduced_forms(D) == brute(D), D


def test_divclass_mul_call_count(monkeypatch):
    model = HyperellipticModel(3, (1, 2, 0, 0, 0, 1))
    a = random_divisor(model, substream(7, 0))
    ident = divisor_identity()
    multiples = [ident]
    for _ in range(64):
        multiples.append(divclass_add(model, multiples[-1], a))
    calls = []

    def counting_add(m, x, y):
        calls.append(1)
        return divclass_add(m, x, y)

    monkeypatch.setattr(arith, "divclass_add", counting_add)
    for k in range(65):
        calls.clear()
        assert divclass_mul(model, a, k) == multiples[k], k
        expected = bin(k).count("1") + k.bit_length() - 1 if k else 0
        assert len(calls) == expected, k


def test_identity_operand():
    ident = divisor_identity()
    for f in ((1, 2, 0, 1), (1, 2, 0, 0, 0, 1), (1, 2, 0, 0, 0, 0, 0, 1)):
        model = HyperellipticModel(3, f)
        classes = enumerate_divisor_classes(model)
        assert len(classes) == jacobian_order(model)
        for x in classes:
            assert divclass_add(model, ident, x) == x
            assert divclass_add(model, x, ident) == x
            # not in reduced Mumford form: the full path reduces them
            scaled = DivisorClass(u=pscale(x.u, 2, 3), v=x.v)
            padded = DivisorClass(u=x.u, v=x.v + (0,))
            for y in (scaled, padded):
                assert divclass_add(model, ident, y) == x
                assert divclass_add(model, y, ident) == x


def test_l_polynomial_rejects_wrong_point_counts(monkeypatch):
    true_counts = arith._point_counts
    models = [HyperellipticModel(3, (1, 2, 0, 1)),
              HyperellipticModel(3, (1, 2, 0, 0, 0, 1)),
              HyperellipticModel(3, (1, 2, 0, 0, 0, 0, 0, 1))]
    monkeypatch.setattr(arith, "_point_counts",
                        lambda q, fs, i: true_counts(q, fs, i) + 1)
    for model in models:
        with pytest.raises(InternalCheckError):
            l_polynomial(model)


def test_genus_past_the_cap_is_refused(monkeypatch):
    """y^2 = x^9 - x + 1 over F_3 has genus 4, past `GENUS_CAP`: its
    L-polynomial is refused before any point is counted."""
    def forbidden(*args):
        raise AssertionError("points counted past the genus cap")

    model = HyperellipticModel(3, (1, 2, 0, 0, 0, 0, 0, 0, 0, 1))
    assert model.genus == 4 > arith.GENUS_CAP
    monkeypatch.setattr(arith, "_point_counts", forbidden)
    for call in (l_polynomial, lambda m: l_polynomials([m]), jacobian_order):
        with pytest.raises(CapacityError, match="genus 4"):
            call(model)


def test_l_polynomials_match_one_model_at_a_time():
    """A block of one degree gives each model the L-polynomial it gets
    alone, also when the block spans several point-count passes."""
    crossed = 0
    for q, degrees in ((3, (3, 5, 7)), (5, (3, 5)), (7, (3,))):
        for d in degrees:
            models = list(enumerate_imaginary(q, d))
            crossed += len(models) > arith._pass_rows(q, d // 2)
            assert l_polynomials(models) == \
                [l_polynomial(m) for m in models], (q, d)
    assert crossed >= 1
    assert l_polynomials([]) == []
    assert l_polynomials([HyperellipticModel(3, (1, 1))]) == [[1]]
    with pytest.raises(ValidationError):
        l_polynomials([HyperellipticModel(3, (1, 2, 0, 1)),
                       HyperellipticModel(3, (1, 2, 0, 0, 0, 1))])


def test_prime_arguments_are_checked():
    with pytest.raises(ValueError):
        valuation(12, 1)
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        is_power_of(8, 1)
    with pytest.raises(ValueError):
        is_power_of(0, 2)
    assert valuation(12, 2) == 2 and is_power_of(8, 2)
    model = HyperellipticModel(3, (1, 2, 0, 1))
    for ell in (1, 4, 6, -5, 0):
        with pytest.raises(ValidationError):
            sylow_structure(model, ell)
    for ells in ((0,), (1,), (4,), (2, 6)):
        with pytest.raises(ValidationError):
            nf_class_group(5, ells)
    assert nf_class_group(5, (2,)).per_ell[2] == AS([2])


def test_zero_u_operand_is_rejected():
    """A class with u = 0 is no divisor: Cantor addition refuses it rather
    than returning the identity or a made-up class."""
    model = HyperellipticModel(3, (1, 2, 0, 1))
    zero_u = (DivisorClass((), (1,)), DivisorClass((), (2,)),
              DivisorClass((), ()))
    for a in zero_u:
        for b in zero_u + (divisor_identity(),):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValidationError):
                    divclass_add(model, x, y)


def test_xgcd():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, s, t = xgcd(a, b)
            assert g == math.gcd(a, b) and s * a + t * b == g
