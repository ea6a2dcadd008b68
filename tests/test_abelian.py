import itertools
import math
import random

import pytest

from hurwitzlab.abelian import (AbelianGroupData, AbelianStructure,
                                _element_orders, cyclic_walk,
                                structure_from_orders, structure_of_members)
from hurwitzlab.errors import InternalCheckError, ValidationError
from hurwitzlab.groups import (abelian, cyclic, dihedral, groups_up_to_16,
                               symmetric)


def brute_hom_count(src_orders, dst_orders, surjective=False):
    src = abelian(src_orders)
    dst = abelian(dst_orders)
    data = structure_of_members(src, range(src.order))
    gens, gorders = data.basis, data.basis_orders
    cnt = 0
    for imgs in itertools.product(range(dst.order), repeat=len(gens)):
        if not all(dst.power(im, d) == 0 for im, d in zip(imgs, gorders)):
            continue
        if surjective:
            img = set()
            for combo in itertools.product(*(range(d) for d in gorders)):
                y = 0
                for c, im in zip(combo, imgs):
                    y = dst.mul(y, dst.power(im, c))
                img.add(y)
            if len(img) != dst.order:
                continue
        cnt += 1
    return cnt


def test_structure_random():
    rng = random.Random(3)
    for _ in range(40):
        orders = [rng.choice([2, 3, 4, 5, 8, 9]) for _ in range(rng.randint(1, 3))]
        g = abelian(orders)
        data = structure_of_members(g, range(g.order))
        assert data.structure == AbelianStructure.from_cyclic_orders(orders)
        for x in range(g.order):
            y = 0
            for c, b in zip(data.coords[x], data.basis):
                y = g.mul(y, g.power(b, c))
            assert y == x


def test_chain_and_counts():
    s = AbelianStructure.from_cyclic_orders([6, 4])
    assert s.chain == (2, 12)
    assert s.order == 24 and s.exponent == 12
    assert s.torsion_count(2) == 4
    assert AbelianStructure.from_cyclic_orders([12, 10]).prime_to_part(2).chain == (15,)
    assert AbelianStructure(()).is_trivial()


@pytest.mark.parametrize("src,dst", [
    ([4, 2], [2, 2]), ([9, 3], [3, 3]), ([8], [4]), ([6, 4], [2, 4]),
    ([5, 5], [5]), ([3], [9]),
])
def test_hom_sur_counts(src, dst):
    s1 = AbelianStructure.from_cyclic_orders(src)
    s2 = AbelianStructure.from_cyclic_orders(dst)
    assert s1.hom_count(s2) == brute_hom_count(src, dst)
    assert s1.sur_count(s2) == brute_hom_count(src, dst, surjective=True)


def brute_sur_count(src_orders, dst_orders):
    """Surjective homomorphisms from Z/d_1 + ... + Z/d_k onto
    Z/m_1 + ... + Z/m_l, counted as assignments of images x_i to the standard
    generators with d_i x_i = 0 whose span is the whole target."""
    elems = list(itertools.product(*(range(m) for m in dst_orders)))
    zero = elems[0]

    def times(k, x):
        return tuple(k * a % m for a, m in zip(x, dst_orders))

    count = 0
    for imgs in itertools.product(elems, repeat=len(src_orders)):
        if any(times(d, x) != zero for d, x in zip(src_orders, imgs)):
            continue
        span = {zero}
        for d, x in zip(src_orders, imgs):
            span = {tuple((a + b) % m for a, b, m in
                          zip(s, times(k, x), dst_orders))
                    for s in span for k in range(d)}
        count += len(span) == len(elems)
    return count


# every abelian group of order <= 16 as a source, <= 9 as a target
SMALL_SOURCES = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4],
                 [2, 2, 2], [9], [3, 3], [10], [11], [12], [2, 6], [13],
                 [14], [15], [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]]
SMALL_TARGETS = [o for o in SMALL_SOURCES if math.prod(o) <= 9]


def test_sur_count_closed_form_brute_force():
    for src in SMALL_SOURCES:
        s1 = AbelianStructure.from_cyclic_orders(src)
        for dst in SMALL_TARGETS:
            s2 = AbelianStructure.from_cyclic_orders(dst)
            assert s1.sur_count(s2) == brute_sur_count(src, dst), (src, dst)


def test_structure_requires_abelian():
    with pytest.raises(ValidationError):
        structure_of_members(dihedral(4), range(8))


def test_non_prime_power_factor_rejected():
    with pytest.raises(ValidationError):
        AbelianStructure((6,))


def test_structure_from_orders_matches_basis_search():
    rng = random.Random(5)
    for _ in range(60):
        orders = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16, 27])
                  for _ in range(rng.randint(1, 3))]
        g = abelian(orders)
        mul = g.mul
        want = AbelianGroupData(range(g.order), mul, g.inverse, 0).structure
        assert want == AbelianStructure.from_cyclic_orders(orders)
        assert structure_from_orders(range(g.order), mul, g.inverse,
                                     0) == want, orders


def test_structure_from_orders_self_checks():
    s3 = symmetric(3)
    with pytest.raises(InternalCheckError):
        structure_from_orders(range(6), s3.mul, s3.inverse, 0)
    # a rule that is not a group law: 1 + 1 = 1 never returns to 0
    with pytest.raises(InternalCheckError):
        structure_from_orders(range(4), lambda a, b: max(a, b),
                              lambda a: a, 0)
    with pytest.raises(ValidationError):
        structure_from_orders(range(1, 4), lambda a, b: a, lambda a: a, 0)


def full_walk_orders(elems, mul, identity):
    """Reference orders: a plain walk x, x^2, ..., x^k = 1 from every
    element not yet met, each power x^j of it of order k / gcd(j, k)."""
    orders = {identity: 1}
    for x in elems:
        if x in orders:
            continue
        powers = [x]
        while powers[-1] != identity:
            powers.append(mul(powers[-1], x))
        k = len(powers)
        for j, y in enumerate(powers, 1):
            orders[y] = k // math.gcd(j, k)
    return orders


def test_halved_walk_gives_the_full_walk_orders():
    for g in groups_up_to_16():
        assert _element_orders(range(g.order), g.mul, g.inverse, 0) == \
            full_walk_orders(range(g.order), g.mul, 0), g.name


def test_halved_walk_composes_once_past_half_the_order():
    for k in range(2, 40):
        z = cyclic(k)
        calls = []

        def mul(a, b):
            calls.append(1)
            return z.mul(a, b)
        assert cyclic_walk(1, mul, z.inverse, 0, k) == \
            [z.power(1, j) for j in range(k)], k
        assert len(calls) == (k + 1) // 2, k


def test_inverse_that_disagrees_with_the_law_raises():
    z5 = cyclic(5)
    for inv in (lambda x: x, lambda x: z5.inverse(z5.mul(x, 1))):
        with pytest.raises(InternalCheckError):
            structure_from_orders(range(5), z5.mul, inv, 0)
        with pytest.raises(InternalCheckError):
            AbelianGroupData(range(5), z5.mul, inv, 0)
    with pytest.raises(InternalCheckError):
        cyclic_walk(1, z5.mul, z5.inverse, 0, 4)  # order above the bound
