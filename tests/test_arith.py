import dis
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from hurwitzlab.abelian import (AbelianGroupData, AbelianStructure,
                                _element_orders)
from hurwitzlab import arith
from hurwitzlab.arith import (DivisorClass, ExtField, HyperellipticModel,
                              _cantor, _explicit, _form_inverse, _form_reduce,
                              compose_forms, count_imaginary,
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
from hurwitzlab.ntheory import (factorize, is_power_of, pdeg, peval, pgcd,
                               pmod, pnorm, prime_divisors, pscale, psub,
                               valuation, xgcd)
from hurwitzlab.rng import substream

from test_abelian import full_walk_orders


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
        data = AbelianGroupData(
            forms, lambda x, y: compose_forms(x, y, D),
            lambda f: _form_reduce(f[0], -f[1], f[2], D), ident)
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


def test_halved_walk_orders_on_form_class_groups():
    for d in squarefree_up_to(3000):
        D = fundamental_discriminant(d)
        forms = reduced_forms(D)
        ident = _form_reduce(1, D % 2, (D % 2 - D) // 4, D)
        for f in forms:
            assert _form_inverse(f) == _form_reduce(f[0], -f[1], f[2], D)

        def law(x, y):
            return compose_forms(x, y, D)
        assert _element_orders(forms, law, _form_inverse, ident) == \
            full_walk_orders(forms, law, ident), d


def _no_enumeration(model):
    pytest.fail(f"y^2 = {model.f} fell back to enumerating its classes")


def test_sampler_certifies_every_sylow_part(monkeypatch):
    """Every Sylow part of every genus-1 and genus-2 Jacobian over F_3 and
    every genus-1 one over F_5 is certified from random draws, and equals
    the one read off the exhaustive class list: its |G[ell^j]| are those
    of the plain-walk orders of all classes."""
    models = [*enumerate_imaginary(3, 3), *enumerate_imaginary(3, 5),
              *enumerate_imaginary(5, 3)]
    orders = {}
    for model in models:
        classes = enumerate_divisor_classes(model)
        assert len(classes) == jacobian_order(model)
        orders[model] = full_walk_orders(
            classes, lambda x, y: divclass_add(model, x, y),
            divisor_identity())
    monkeypatch.setattr(arith, "enumerate_divisor_classes", _no_enumeration)
    checked = 0
    for model in models:
        h = len(orders[model])
        for ell in prime_divisors(h):
            if ell == model.q:
                continue
            res = sylow_structure(model, ell, seed=checked)
            assert res.certified and res.attempts < arith.SYLOW_BATCHES
            e = valuation(h, ell)
            assert res.structure.order == ell ** e
            for j in range(1, e + 1):
                assert res.structure.torsion_count(ell ** j) == sum(
                    ell ** j % o == 0 for o in orders[model].values())
            checked += 1
    assert checked > 500


# the models of the class-groups benchmark workload (q = 3, degree <= 5)
# with 5 | h whose rational points generate a subgroup prime to 5
NO_RATIONAL_5_PART = ((2, 2, 2, 2, 1, 2), (2, 2, 1, 2, 2, 2),
                      (2, 1, 0, 0, 0, 2), (2, 1, 1, 1, 2, 1),
                      (2, 1, 2, 1, 1, 1), (2, 2, 0, 0, 0, 1))


def test_rational_points_miss_the_5_part_of_six_curves(monkeypatch):
    miss = []
    for model in [*enumerate_imaginary(3, 3), *enumerate_imaginary(3, 5)]:
        h = jacobian_order(model)
        if h % 5:
            continue
        points = [DivisorClass(u=((-x) % 3, 1), v=pnorm((y,)))
                  for x in range(3) for y in range(3)
                  if (y * y - peval(model.f, x, 3)) % 3 == 0]
        span, frontier = {divisor_identity()}, [divisor_identity()]
        while frontier:
            x = frontier.pop()
            for pt in points:
                y = divclass_add(model, x, pt)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        if valuation(len(span) * 5, 5) <= valuation(h, 5):
            miss.append(model)
    assert tuple(m.f for m in miss) == NO_RATIONAL_5_PART
    monkeypatch.setattr(arith, "enumerate_divisor_classes", _no_enumeration)
    for model in miss:
        for seed in range(20):
            res = sylow_structure(model, 5, seed=seed)
            assert res.certified and res.structure == AS([5])


def test_prime_divisor_draws_of_every_degree(monkeypatch):
    """On the genus-3 fixture of criterion 7 every summand (u, v) of a
    draw has u monic irreducible of degree k <= 3, deg v < k and
    v^2 = f (mod u), and every k occurs."""
    model = HyperellipticModel(3, (1, 0, 2, 0, 0, 0, 0, 1))
    summands = []

    def recording_add(m, acc, pt):
        summands.append(pt)
        return divclass_add(m, acc, pt)

    monkeypatch.setattr(arith, "divclass_add", recording_add)
    rng = substream(7, 0)
    for _ in range(300):
        random_divisor(model, rng)
    degrees = set()
    for pt in summands:
        k = len(pt.u) - 1
        degrees.add(k)
        assert 1 <= k <= 3 and pt.u[-1] == 1 and len(pt.v) <= k
        assert k == 1 or ExtField._is_irreducible(pt.u, 3), pt
        assert pmod(psub(pmul(pt.v, pt.v, 3), model.f, 3), pt.u, 3) == (), pt
    assert degrees == {1, 2, 3}


def test_model_coefficients_are_reduced_mod_q():
    """f is read mod q before its degree, imaginary and squarefree checks."""
    m = HyperellipticModel(3, (1, 2, 0, 3))  # 2x + 1 over F_3
    assert m.f == (1, 2) and m.genus == 0 and jacobian_order(m) == 1
    a = HyperellipticModel(3, (4, 2, 0, 1))
    b = HyperellipticModel(3, (1, 2, 0, 1))
    assert a == b and a.key() == b.key()
    assert HyperellipticModel(3, (1, -1, 0, 1)).f == (1, 2, 0, 1)
    with pytest.raises(ValidationError):
        HyperellipticModel(3, (1, 0, 1, 3))  # x^2 + 1: even degree


def test_empirical_moment_refuses_genus_past_the_cap_first(monkeypatch):
    """Degree 9 is genus 4, past `GENUS_CAP`: refused before the models of
    degree <= 7 are walked, in both modes."""
    def forbidden(models):
        raise AssertionError("a model was walked")

    monkeypatch.setattr(arith, "l_polynomials", forbidden)
    for target, mode in (([5], "plain"), ([2], "gerth")):
        with pytest.raises(CapacityError, match="genus 4"):
            empirical_moment(3, 9, target, mode=mode)


def _cantor_table(model):
    """The classes of `model` and `_cantor`'s sum of every ordered pair of
    them, as indices: table[i][j] is the index of classes[i] + classes[j].
    `_cantor` runs on every class and each of a few generators, picked
    greedily; every other sum follows by associativity along a
    breadth-first tree over those generators, so the table takes
    |classes| x |generators| calls of `_cantor` instead of |classes|^2."""
    classes = enumerate_divisor_classes(model)
    index = {c: i for i, c in enumerate(classes)}
    tree, order, gens, step = {0: None}, [0], [], {}
    for c in range(1, len(classes)):
        if c in tree:
            continue
        gens.append(c)
        for x in order:  # order grows as the walk reaches new classes
            for g in gens:
                if (x, g) not in step:
                    step[x, g] = y = index[_cantor(model, classes[x],
                                                   classes[g])]
                    if y not in tree:
                        tree[y] = (x, g)
                        order.append(y)
    assert len(order) == len(classes)
    table = []
    for a in range(len(classes)):
        row = [a] * len(classes)
        for b in order[1:]:
            x, g = tree[b]
            row[b] = step[row[x], g]
        table.append(row)
    return classes, table


def test_explicit_formulas_match_cantor_on_every_pair():
    """`divclass_add` equals `_cantor` on every ordered pair of classes
    (a = b included) of every genus-1 model over F_3, F_5 and F_7, every
    genus-2 model over F_3 and 20 seeded genus-2 models over F_5, twists
    (f not monic) included.  The closed forms decline exactly the
    additions whose operands share a point (u1 and u2 have a common root,
    b is neither a nor -a)."""
    fives = list(enumerate_imaginary(5, 5))
    rng = substream(32, 0)
    models = [*enumerate_imaginary(3, 3), *enumerate_imaginary(5, 3),
              *enumerate_imaginary(7, 3), *enumerate_imaginary(3, 5),
              *(fives[rng.randint(len(fives))] for _ in range(20))]
    declined = covered = 0
    for model in models:
        classes, table = _cantor_table(model)
        coprime = {}
        assert divclass_add(model, classes[0], classes[0]) == classes[0]
        for i, a in enumerate(classes[1:], 1):
            assert divclass_add(model, a, classes[0]) == a
            neg = divclass_neg(model, a)
            for j, b in enumerate(classes[1:], 1):
                out = _explicit(model, a, b)
                if out is not None:
                    assert out == classes[table[i][j]], (model, a, b)
                    covered += 1
                    continue
                if (a.u, b.u) not in coprime:
                    coprime[a.u, b.u] = pdeg(pgcd(a.u, b.u, model.q)) == 0
                assert not coprime[a.u, b.u] and b not in (a, neg), \
                    (model, a, b)
                declined += 1
    assert covered > 3 * declined > 0


def _non_divisors(model):
    """Every (u, v) with u monic of degree 1..g, v != 0, deg v < deg u and
    u not dividing v^2 - f."""
    p = model.q
    return [DivisorClass(tail + (1,), pnorm(v))
            for k in range(1, model.genus + 1)
            for tail in itertools.product(range(p), repeat=k)
            for v in itertools.product(range(p), repeat=k)
            if any(v) and pmod(psub(pmul(pnorm(v), pnorm(v), p), model.f, p),
                               tail + (1,), p)]


def test_non_divisor_operands_raise():
    """Every degree-2 operand with v != 0 whose u does not divide v^2 - f
    raises InternalCheckError when doubled, as in `_cantor`, and when
    added to a divisor of degree 2 prime to it, where `_cantor` let a few
    through; twists (f not monic) included."""
    for f in ((1, 2, 0, 0, 0, 1), (2, 1, 0, 0, 0, 2), (1, 1, 0, 1, 0, 1)):
        model = HyperellipticModel(3, f)
        good = [c for c in enumerate_divisor_classes(model) if len(c.u) == 3]
        bad = [x for x in _non_divisors(model) if len(x.u) == 3]
        assert len(bad) >= 50
        for x in bad:
            c = next(c for c in good if pdeg(pgcd(c.u, x.u, 3)) == 0)
            for fn, y in ((divclass_add, x), (_cantor, x),
                          (divclass_add, c)):
                with pytest.raises(InternalCheckError):
                    fn(model, x, y)


def _lines_run(fn, calls):
    """The line numbers of `fn` that run while `calls()` runs."""
    code, seen = fn.__code__, set()

    def local(frame, event, arg):
        seen.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        calls()
    finally:
        sys.settrace(None)
    return seen


def test_every_line_of_the_closed_forms_runs():
    """All pairs of classes of the genus-1 models over F_3 and of ten
    genus-2 models over F_3, with each non-divisor of the closed forms'
    shape doubled and added to the first class, run every line of
    `_explicit`: every branch is taken."""
    models = [*enumerate_imaginary(3, 3),
              *itertools.islice(enumerate_imaginary(3, 5), 10)]

    def calls():
        for model in models:
            classes = enumerate_divisor_classes(model)[1:]
            for a in _non_divisors(model):
                for b in [a] + classes[:1]:
                    try:
                        _explicit(model, a, b)
                    except InternalCheckError:
                        pass
            for a in classes:
                for b in classes:
                    _explicit(model, a, b)

    code = _explicit.__code__
    lines = {line for _, line in dis.findlinestarts(code)} - {
        code.co_firstlineno, None}
    assert lines - _lines_run(_explicit, calls) == set()


def test_operands_off_the_normal_form():
    """Operands of the closed forms' shape (u monic of degree 1..g,
    deg v < deg u) with coefficients shifted by multiples of q, or with v
    padded by zeros up to deg u - 1, give `_cantor`'s sum, in normal form,
    also on a twist (f not monic)."""
    for f in ((1, 2, 0, 1), (1, 2, 0, 0, 0, 1), (2, 1, 0, 0, 0, 2)):
        model = HyperellipticModel(3, f)
        classes = enumerate_divisor_classes(model)[1:]
        for a, b in itertools.product(classes, repeat=2):
            shifted = DivisorClass(tuple(c - 3 for c in a.u[:-1]) + (1,),
                                   tuple(c + 6 for c in a.v))
            padded = DivisorClass(b.u, b.v + (0,) * (len(b.u) - 1 - len(b.v)))
            want = _cantor(model, a, b)
            assert divclass_add(model, shifted, padded) == want, (f, a, b)
            assert divclass_add(model, padded, shifted) == want, (f, a, b)
