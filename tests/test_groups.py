import hashlib
import itertools
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from hurwitzlab.abelian import structure_of_members
from hurwitzlab.errors import CapacityError, ValidationError
from hurwitzlab.groups import (ConjClassTable, FiniteGroup, GammaGroup,
                               _small_generating_set,
                               Subgroup, abelian, alternating4, cyclic,
                               dicyclic, dihedral, direct_product,
                               format_group_file, from_mult_table,
                               from_permutations, gamma_isomorphic,
                               groups_up_to_16, inversion_action, isomorphic,
                               parse_group_file, semidirect, symmetric,
                               trivial_action, trivial_group)
from hurwitzlab.randgrp import abelian_exponent_variety


def test_from_mult_table_examples():
    assert from_mult_table([[0]]).order == 1
    z3 = from_mult_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert z3.order == 3 and z3.inv[1] == 2


def test_from_mult_table_rejects_bad_tables():
    with pytest.raises(ValidationError):
        from_mult_table([[0, 1], [1, 1]])          # non-invertible / assoc
    with pytest.raises(ValidationError):
        from_mult_table([[1, 0], [0, 1]])          # no identity at 0
    with pytest.raises(ValidationError):
        from_mult_table([[0, 1], [1, 2]])          # out of range


def _one_wrong_entry(g):
    """g's table with the entry at (5, 7) moved to the next element: row
    and column 0 and a 0 in every row stay, so only associativity fails."""
    t = g.array.copy()
    t[5, 7] = (t[5, 7] + 1) % g.order
    return t


def test_associativity_is_checked_at_every_order():
    """Light's test on a generating set proves associativity exactly, also
    above order 1,000, where random triples were sampled before; a loop of
    order 5 (every row and column a permutation, so it has an identity and
    inverses) is refused too, and so is its product with C2, numbered so
    that the first generator is the C2 element, which passes."""
    for g in (cyclic(1009), abelian([7] * 4)):
        assert FiniteGroup(g.array.copy()).order == g.order
        with pytest.raises(ValidationError, match="non-associative"):
            FiniteGroup(_one_wrong_entry(g))
    loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    with pytest.raises(ValidationError, match="non-associative"):
        from_mult_table(loop.tolist())
    c2 = cyclic(2).array
    with pytest.raises(ValidationError,
                       match=r"non-associative: \(\d+\*2\)"):
        FiniteGroup((loop[:, None, :, None] * 2
                     + c2[None, :, None, :]).reshape(10, 10))


def test_from_permutations():
    s3 = from_permutations([(1, 0, 2), (1, 2, 0)], 3)
    assert s3.order == 6
    assert from_permutations([], 4).order == 1
    c5 = from_permutations([(1, 2, 3, 4, 0)], 5)
    assert c5.order == 5
    with pytest.raises(CapacityError):
        from_permutations([(1, 2, 3, 4, 0)], 5, cap=3)
    with pytest.raises(ValidationError):
        from_permutations([(0, 0, 1)], 3)


def test_catalog_pairwise_noniso():
    cat = groups_up_to_16()
    assert len(cat) == 42
    by_order = {}
    for g in cat:
        by_order.setdefault(g.order, []).append(g)
    assert len(by_order[16]) == 14
    for n, gs in by_order.items():
        for a, b in itertools.combinations(gs, 2):
            assert not isomorphic(a, b), (a.name, b.name)


def test_conjugacy_classes():
    s3 = symmetric(3)
    cc = s3.conjugacy_classes()
    assert sorted(len(m) for m in cc.members) == [1, 2, 3]
    z6 = cyclic(6)
    assert all(len(m) == 1 for m in z6.conjugacy_classes().members)
    d5 = dihedral(5)
    cc5 = d5.conjugacy_classes()
    pm = cc5.power_map(7)
    # rotation classes swap under 7th powers, reflections and identity fixed
    rot = [i for i, m in enumerate(cc5.members) if len(m) == 2]
    refl = [i for i, m in enumerate(cc5.members) if len(m) == 5]
    assert pm[rot[0]] == rot[1] and pm[rot[1]] == rot[0]
    assert pm[refl[0]] == refl[0]


def test_semidirect_examples():
    z3 = inversion_action(cyclic(3))
    sd = semidirect(z3)
    assert isomorphic(sd.group, symmetric(3))
    triv = trivial_action(cyclic(3), cyclic(2))
    assert isomorphic(semidirect(triv).group, cyclic(6))
    g55 = semidirect(inversion_action(abelian([5, 5]))).group
    assert sum(1 for g in range(50) if g55.element_order(g) == 2) == 25


def test_semidirect_projection_recovers_action():
    h = inversion_action(abelian([3, 3]))
    sd = semidirect(h)
    g = sd.group
    for ge in range(2):
        t = sd.embed_gamma[ge]
        for x in range(9):
            lhs = g.conj(sd.embed_base[x], t)
            assert lhs == sd.embed_base[h.act[ge][x]]


def test_invariants():
    z9 = inversion_action(cyclic(9))
    assert z9.invariants([0, 1]).members == (0,)
    assert len(z9.invariants([0])) == 9
    c33 = abelian([3, 3])
    swap = [(i % 3) * 3 + i // 3 for i in range(9)]
    gg = GammaGroup(c33, cyclic(2), [list(range(9)), swap])
    assert gg.invariants([0, 1]).members == (0, 4, 8)


def test_invariants_monotone():
    z9 = inversion_action(cyclic(9))
    full = set(z9.invariants([0, 1]).members)
    partial = set(z9.invariants([0]).members)
    assert full <= partial


def test_y_map():
    z3 = inversion_action(cyclic(3))
    assert z3.y_map(0) == (0, 0)
    assert z3.y_map(1) == (0, 1)   # -2*1 = 1 mod 3
    triv = trivial_action(cyclic(5), cyclic(2))
    assert all(y == 0 for g in range(5) for y in triv.y_map(g))


def test_admissible_closure():
    z9 = inversion_action(cyclic(9))
    assert len(z9.admissible_closure([1])) == 9
    assert z9.is_admissible()
    z9t = trivial_action(cyclic(9), cyclic(2))
    assert z9t.admissible_closure([1]).members == (0,)
    assert not z9t.is_admissible()
    g33 = inversion_action(abelian([3, 3]))
    assert len(g33.admissible_closure([3])) == 3
    # closure is idempotent and Gamma-stable
    clo = g33.admissible_closure([3]).members
    assert g33.gamma_stable_closure(clo) == clo


def test_count_sur_dp_vs_moebius_vs_brute():
    g2 = inversion_action(abelian([3, 3]))
    for n in (1, 2, 3):
        fast = g2.count_sur_free_admissible(n)
        moe = g2.count_sur_free_admissible_moebius(n)
        full = tuple(range(9))
        brute = 0
        for tup in itertools.product(range(9), repeat=n):
            ys = set()
            for x in tup:
                ys.update(g2.y_map(x))
            if g2.gamma_stable_closure(ys) == full:
                brute += 1
        assert fast == moe == brute


def test_count_sur_examples():
    z3 = inversion_action(cyclic(3))
    assert z3.count_sur_free_admissible(1) == 2
    assert z3.count_sur_free_admissible(0) == 0
    assert inversion_action(trivial_group()).count_sur_free_admissible(0) == 1
    assert z3.count_aut_gamma() == 2


def test_partition_identity_over_stable_subgroups():
    h = inversion_action(abelian([3, 3]))
    n = 2
    subs = h.gamma_stable_subgroups()
    total = 0
    for s in subs:
        sset = set(s)
        cnt = 0
        for tup in itertools.product(range(9), repeat=n):
            ys = set()
            for x in tup:
                ys.update(h.y_map(x))
            if h.gamma_stable_closure(ys) == s:
                cnt += 1
        total += cnt
    assert total == 9 ** n


def test_gamma_validation():
    with pytest.raises(ValidationError):
        GammaGroup(cyclic(3), cyclic(2), [[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    with pytest.raises(ValidationError):
        GammaGroup(cyclic(4), cyclic(2), [[0, 1, 2, 3], [0, 2, 1, 3]])


def _powers(p):
    """The cyclic group <p> of a permutation, as (order, act) for cyclic(k)."""
    act = [list(range(len(p)))]
    while True:
        nxt = [p[x] for x in act[-1]]
        if nxt == act[0]:
            return len(act), act
        act.append(nxt)


def test_gamma_validation_against_all_pairs():
    """A bijection passes as an automorphism exactly when it is one on all
    |G|^2 pairs, and a failure names a pair (a, s) where it breaks:
    conjugations (automorphisms) and conjugations followed by a seeded swap
    of two elements (mostly not), each acting through the cyclic group it
    generates."""
    rnd = random.Random(5)
    passed = failed = 0
    for g in groups_up_to_16():
        t = g.array
        for _ in range(6):
            h = rnd.randrange(g.order)
            p = [g.conj(x, h) for x in range(g.order)]
            if rnd.random() < 0.7 and g.order > 2:
                i, j = rnd.sample(range(1, g.order), 2)
                p[i], p[j] = p[j], p[i]
            pa = np.array(p)
            ok = bool((pa[t] == t[pa[:, None], pa]).all())
            k, act = _powers(p)
            if ok:
                GammaGroup(g, cyclic(k), act)
                passed += 1
                continue
            with pytest.raises(ValidationError,
                               match="not an automorphism") as err:
                GammaGroup(g, cyclic(k), act)
            gi, a, s = map(int, re.findall(r"\d+", str(err.value)))
            q = act[gi]
            assert q[t[a, s]] != t[q[a], q[s]]
            failed += 1
    assert passed > 20 and failed > 20


def test_existing_actions_validate():
    for g in groups_up_to_16():
        trivial_action(g, cyclic(3))
        if g.is_abelian() and g.exponent() > 2:
            parse_group_file(format_group_file(g, inversion_action(g)))
    for k, m in ((2, 3), (2, 9), (2, 15), (3, 5), (4, 3), (4, 7)):
        abelian_exponent_variety(cyclic(k), m)


def test_group_file_roundtrip(tmp_path):
    s3 = symmetric(3)
    text = format_group_file(s3)
    g = parse_group_file(text)
    assert g == s3
    z3 = inversion_action(cyclic(3))
    gg = parse_group_file(format_group_file(cyclic(3), z3))
    assert isinstance(gg, GammaGroup)
    assert gg.act == z3.act
    perm = parse_group_file("perm degree=3\n(0 1)\n(0 1 2)\n")
    assert perm.order == 6
    with pytest.raises(ValidationError):
        parse_group_file("order 2\n0 1\n1 0\ngamma\n1 0\n0 1\n")


def test_subgroup_validation():
    s3 = symmetric(3)
    with pytest.raises(ValidationError):
        Subgroup(s3, (0, 1, 2))  # not closed
    full = Subgroup(s3, tuple(range(6)))
    assert not full.is_cyclic()
    rot = Subgroup(s3, s3.subgroup_closure([next(
        g for g in range(6) if s3.element_order(g) == 3)]))
    assert rot.is_cyclic() and len(rot.generators_of_cyclic()) == 2


def test_quotient():
    d4 = dihedral(4)
    center = d4.center()
    q, proj = d4.quotient(d4.subgroup_closure([c for c in center if c != 0]))
    assert q.order == 4 and q.is_abelian()
    with pytest.raises(ValidationError):
        s3 = symmetric(3)
        invol = next(g for g in range(6) if s3.element_order(g) == 2)
        s3.quotient(s3.subgroup_closure([invol]))


def test_gamma_isomorphic():
    a = inversion_action(cyclic(9))
    b = inversion_action(cyclic(9))
    assert gamma_isomorphic(a, b)
    c = trivial_action(cyclic(9), cyclic(2))
    assert not gamma_isomorphic(a, c)


def _sha256(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def test_tables_and_abelian_coordinates_pinned():
    """The constructors' multiplication tables and the abelian basis and
    coordinates are pinned: every report is built on this numbering."""
    catalog = groups_up_to_16()
    groups = (catalog + [dihedral(n) for n in range(1, 13)]
              + [dicyclic(n) for n in range(1, 7)])
    assert _sha256((g.name, g.array.tolist()) for g in groups) == \
        "7d6dbfccf29443225665ea0cd03d7a8b7e38c9daff9f7488f912bf2127da31bc"

    def row(g):
        data = structure_of_members(g, range(g.order))
        return (g.name, data.basis, data.basis_orders,
                list(data.coords.items()))

    groups = [g for g in catalog if g.is_abelian()] + [
        abelian(o) for o in ([3, 9], [5, 5], [3, 3, 3, 3], [2, 4, 8])]
    assert _sha256(row(g) for g in groups) == \
        "78c0646d6e9fc0e1ab2cd093fb90bf0757b46d2b3e6938b59f888dcfb1d049d2"


def test_abelian_equals_chained_direct_products():
    """`abelian` builds its mixed-radix table in one pass; it is the table
    and name of the cyclic factors chained through `direct_product`, the
    first factor the most significant."""
    for orders in ([2] * 7, [4, 4, 2], [5, 5, 5], [3, 9], []):
        g = trivial_group()
        for d in orders:
            g = direct_product(g, cyclic(d)) if g.order > 1 else cyclic(d)
        built = abelian(orders)
        assert built == g, orders
        assert built.name == g.name, orders
    with pytest.raises(ValidationError):
        abelian([2, 0])


def test_content_keys_pinned():
    """`content_key` keys `h2`'s memo and `FiniteGroup.__hash__`: its bytes
    (the sha256 of the order and the table's int64 bytes) are pinned for
    every group of order <= 16, and no two of those 42 groups share one."""
    h = hashlib.sha256()
    groups = groups_up_to_16()
    for g in groups:
        h.update(g.content_key())
    assert h.hexdigest() == \
        "352b1b29484da30b4f3d57bd2b92fc001e01011e0bd44f5dbf0775eb9f08a215"
    assert len(groups) == 42
    assert len({g.content_key() for g in groups}) == 42


def test_group_holds_one_table():
    """A group keeps its table once, as the int64 array: building the
    2,401-element (Z/7)^4 from its table stays far below the size of a
    list-of-lists copy (about 200 MiB)."""
    table = abelian([7] * 4).array
    tracemalloc.start()
    try:
        g = FiniteGroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert g.order == 2401 and not hasattr(g, "table")


def _greedy_generators_reference(g):
    """Each generator the least x of the largest <gens, x>, every element
    outside the closure tried."""
    gens, have = [], {0}
    while len(have) < g.order:
        best = None
        for x in range(1, g.order):
            if x not in have:
                new = g.subgroup_closure(gens + [x])
                if best is None or len(new) > best[0]:
                    best = (len(new), x, new)
        gens.append(best[1])
        have = set(best[2])
    return gens


def test_small_generating_set_matches_the_greedy_reference():
    """Trying one element per left coset of the subgroup so far picks the
    same generators as trying every element, and (Z/7)^4 takes well under
    a second."""
    a5 = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
    groups = groups_up_to_16() + [
        symmetric(4), dihedral(12), symmetric(5), a5] + [
        semidirect(inversion_action(abelian(o))).group
        for o in ([3, 3], [5, 5], [3, 3, 3])]
    assert len(groups) == 49 and a5.order == 60
    for g in groups:
        assert _small_generating_set(g) == \
            _greedy_generators_reference(g), g.name
    g = abelian([7] * 4)
    t0 = time.perf_counter()
    assert _small_generating_set(g) == [1, 7, 49, 343]
    assert time.perf_counter() - t0 < 0.5
