import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from hurwitzlab import groups, homology, homology_oracle, intmat
from hurwitzlab.abelian import AbelianStructure
from hurwitzlab.errors import (CapacityError, InternalCheckError,
                               ValidationError)
from hurwitzlab.groups import (GammaGroup, abelian, alternating4, cyclic,
                               dihedral, dicyclic, groups_up_to_16,
                               inversion_action, semidirect, symmetric)
from hurwitzlab.homology import (UContext, build_u, h2, reduce_cover,
                                 schur_cover, validate_c)
from hurwitzlab.homology_oracle import (oracle_h2, oracle_h2_reduced,
                                       oracle_multipliers)
from hurwitzlab.ntheory import factorize


def AS(orders):
    return AbelianStructure.from_cyclic_orders(orders)


KNOWN_H2 = {
    "C6": [], "S3": [], "C2xC2": [2], "C3xC3": [3], "D4": [2], "Dic2": [],
    "D5": [], "A4": [2], "D6": [2], "C4xC4": [4], "C2xC2xC2": [2, 2, 2],
    "S4": [2], "D12": [2],
}


@pytest.mark.parametrize("name", sorted(KNOWN_H2))
def test_h2_known_values(name):
    cat = {g.name: g for g in groups_up_to_16()}
    cat.update(S4=symmetric(4), D12=dihedral(12))
    assert h2(cat[name]) == AS(KNOWN_H2[name])


def test_h2_cyclic_trivial():
    for n in (1, 2, 5, 12):
        assert h2(cyclic(n)).is_trivial()


def test_h2_abelian_wedge():
    for orders in ([2, 8], [4, 4], [2, 2, 4], [3, 9]):
        fs = []
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                fs.append(math.gcd(orders[i], orders[j]))
        assert h2(abelian(orders)) == AS(fs)


def inversion_semidirect(orders):
    return semidirect(inversion_action(abelian(orders))).group


def test_h2_sylow_path():
    """Generalized dihedral groups A:C2 of odd order |A| have H2 equal to
    the wedge square of A, whatever their size or Sylow structure."""
    assert h2(inversion_semidirect([5, 5])) == AS([5])
    assert h2(inversion_semidirect([3, 3])) == AS([3])
    assert h2(inversion_semidirect([7, 7])) == AS([7])
    assert h2(inversion_semidirect([3, 3, 3])) == AS([3, 3, 3])


def test_h2_reach_past_the_bar_complex():
    """Groups whose bar complex was too large for h2 answer in well under
    2 s each: H2 of A:C2 with inversion on A of odd order is the wedge
    square of A, and H2 of C2^7 is (Z/2)^21."""
    for orders, chain in (([5, 5, 5], [5] * 3), ([11, 11], [11]),
                          ([3] * 5, [3] * 10)):
        g = inversion_semidirect(orders)
        t0 = time.perf_counter()
        assert h2(g) == AS(chain), g.name
        assert time.perf_counter() - t0 < 2.0, g.name
    t0 = time.perf_counter()
    assert h2(abelian([2] * 7)) == AS([2] * 21)
    assert time.perf_counter() - t0 < 2.0


def test_h2_chain_cap_raises_before_building(monkeypatch):
    """C2^10 has more Hopf relation rows than the cap (92,170): h2
    refuses it at once, before a single row is built."""
    def forbidden(*args):
        raise AssertionError("Hopf rows built above the cap")

    g = abelian([2] * 10)
    monkeypatch.setattr(homology, "_hopf_rows", forbidden)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        h2(g)
    assert time.perf_counter() - t0 < 1.0


def test_oracle_agreement_sample():
    for g in [abelian([3, 3]), symmetric(3), dihedral(4), dihedral(5),
              dicyclic(2), abelian([2, 2, 4])]:
        assert h2(g) == oracle_h2(g), g.name


def test_h2_coker_d3_matches_oracle():
    """h2, read off Hopf's R/[F, R] on the Cayley graph, equals the
    oracle's cocycle quotient on four groups past order 16, up to the
    oracle's direct cap, which the acceptance suite's comparison over
    groups_up_to_16() does not reach.  Each has a cyclic Sylow subgroup
    beside a non-cyclic one, so h2 works modulo a proper divisor m of |G|:
    C3xC6 gives m = 9, D10 gives 4, S4 and D12 give 8."""
    for g, chain in ((abelian([3, 6]), (3,)), (dihedral(10), (2,)),
                     (symmetric(4), (2,)), (dihedral(12), (2,))):
        assert h2(g) == oracle_h2(g) == AS(chain), g.name


def test_h2_coker_d3_self_check(monkeypatch):
    """Relations that kill the free summand Z^k of R/[F, R] leave fewer
    than k copies of Z/m, and h2 says so."""
    g = dihedral(4)
    rows = homology._hopf_rows
    k = len(homology._generating_set(g))
    killed = [{j: 1} for j in range(g.order * (k - 1) + 1)]
    monkeypatch.setattr(homology, "_hopf_rows",
                        lambda group, gens, tree: rows(group, gens, tree)
                        + killed)
    with pytest.raises(InternalCheckError):
        homology._hopf_divisors(g)


# the 14 groups of the schur-covers workload whose Sylow subgroups are all
# cyclic
CYCLIC_SYLOW = ("C2", "C3", "C4", "C5", "C6", "S3", "C7", "C8", "C9", "C10",
                "D5", "C11", "C12", "Dic3")


def test_cyclic_sylow_groups_skip_the_bar_complex(monkeypatch):
    """H2(G)_p embeds in H2 of a Sylow p-subgroup, which is zero when that
    subgroup is cyclic.  For groups whose Sylow subgroups are all cyclic,
    h2 is trivial and schur_cover returns G itself, without one Hopf
    relation row or cocycle space; C273 takes well under a second from a
    fresh cache."""
    def forbidden(*args):
        raise AssertionError("Hopf rows or cocycle space built")

    monkeypatch.setattr(homology, "_hopf_rows", forbidden)
    monkeypatch.setattr(homology, "_CocycleSpace", forbidden)
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    t0 = time.perf_counter()
    schur_cover(cyclic(273))
    assert time.perf_counter() - t0 < 1.0
    cat = {g.name: g for g in groups_up_to_16()}
    for g in [cat[name] for name in CYCLIC_SYLOW] + [cyclic(273),
                                                      dihedral(33)]:
        assert h2(g).is_trivial(), g.name
        cov = schur_cover(g)
        assert cov.total.order == g.order, g.name
        assert cov.kernel_structure.is_trivial(), g.name
        assert cov.kernel_members == (0,), g.name
        cov.verify(g)


def _forbid_cocycle_space(monkeypatch):
    def forbidden(*args):
        raise AssertionError("cocycle space built")

    monkeypatch.setattr(homology, "_CocycleSpace", forbidden)
    monkeypatch.setattr(homology, "_H2_CACHE", {})


def test_trivial_multiplier_cover_skips_the_cocycle_space(monkeypatch):
    """Dic2 has a non-cyclic Sylow 2-subgroup but H2 = 1: its Schur cover
    is G itself, table for table, built without a cocycle space."""
    g = dicyclic(2)
    _forbid_cocycle_space(monkeypatch)
    cov = schur_cover(g)
    ref = homology._extension_from_factors(g, [])
    assert cov.total == ref.total
    assert (cov.proj, cov.kernel_members, cov.kernel_coords) == \
        (ref.proj, ref.kernel_members, ref.kernel_coords)


def test_build_u_on_a_trivial_multiplier_of_order_147(monkeypatch):
    """(Z/7)^2 : C3, C3 acting by x -> 2x, has H2 = 1 though its Sylow
    7-subgroup is not cyclic; U(G, c) for c the elements of order 3 is
    built in well under 2 s, without a cocycle space."""
    base = abelian([7, 7])
    act = [[base.power(x, 2 ** j) for x in range(base.order)]
           for j in range(3)]
    g = semidirect(GammaGroup(base, cyclic(3), act)).group
    c = [x for x in range(g.order) if g.element_order(x) == 3]
    assert homology._noncyclic_sylow_part(g) == 49
    _forbid_cocycle_space(monkeypatch)
    t0 = time.perf_counter()
    ctx = build_u(g, c)
    assert time.perf_counter() - t0 < 2.0
    assert ctx.h2c.is_trivial() and ctx.sc.total.order == g.order


def test_cover_cap_raises_before_the_cocycle_space(monkeypatch):
    """C2^6 has H2 = C2^15, so its Schur cover would have order 2^21: it
    is refused as soon as h2 returns, without a cocycle space."""
    _forbid_cocycle_space(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="2097152"):
        schur_cover(abelian([2] * 6))
    assert time.perf_counter() - t0 < 1.0


def test_schur_cover_extraspecial():
    cov = schur_cover(abelian([3, 3]))
    assert cov.total.order == 27
    assert cov.total.exponent() == 3
    cov.verify(abelian([3, 3]))


def test_schur_cover_trivial_multiplier():
    g = symmetric(3)
    cov = schur_cover(g)
    assert cov.total.order == 6
    c2 = cyclic(2)
    assert schur_cover(c2).total.order == 2


def test_schur_covers_pinned():
    """Cover tables, projections and kernel coordinates of the Schur cover
    and of the reduced cover with c = all hash to recorded values: every
    lifting invariant and report is read in these coordinates.  The
    reduced covers' value was recorded before the cover path moved to
    arrays, the covers' when the cocycle space moved to the generating set
    of h2 (C22:C4's table moved to an isomorphic one)."""
    groups = groups_up_to_16() + [symmetric(4), dihedral(12),
                                  inversion_semidirect([5, 5])]

    def row(ext):
        return (ext.total.array.tolist(), ext.proj,
                sorted(ext.kernel_coords.items()))

    h_cover, h_reduced = hashlib.sha256(), hashlib.sha256()
    for g in groups:
        ext = schur_cover(g)
        h_cover.update(repr((g.name, row(ext))).encode())
        red = reduce_cover(ext, g, list(range(1, g.order)))
        h_reduced.update(repr((g.name, row(red))).encode())
    assert h_cover.hexdigest() == \
        "f7fd574a95a846ff5d12d1ced0f3f7b322451184a320ca7eb0e1fe53253c1652"
    assert h_reduced.hexdigest() == \
        "1c07d567f7909aeae0f3852b206cbffc60342305b66c98d9043545c06c12c140"


def _shuffled(method, seed):
    """method with the rows it returns in a seeded random order, a new
    order on each call."""
    rng = np.random.default_rng(seed)

    def wrapper(*args):
        rows = method(*args)
        perm = rng.permutation(len(rows))
        return [rows[i] for i in perm] if isinstance(rows, list) \
            else rows[perm]
    return wrapper


def test_schur_covers_ignore_row_order(monkeypatch):
    """The cover is read off reduced Howell forms, which depend on the span
    of their rows only: with the Hopf rows and the coboundary and carry
    rows shuffled, every cover table is byte-identical to the one built
    from them in order."""
    groups = groups_up_to_16() + [symmetric(4), dihedral(12),
                                  inversion_semidirect([5, 5])]
    space = homology._CocycleSpace
    originals = [(homology, "_hopf_rows", homology._hopf_rows),
                 (space, "relation_vectors", space.relation_vectors)]
    expected = [schur_cover(g).total.array.tobytes() for g in groups]
    for seed in (1, 2):
        for i, (owner, name, method) in enumerate(originals):
            monkeypatch.setattr(owner, name, _shuffled(method, 10 * seed + i))
        for g, table in zip(groups, expected):
            assert schur_cover(g).total.array.tobytes() == table, g.name


def _path_groups():
    return [abelian([2] * 4), abelian([3, 3]), symmetric(4),
            inversion_semidirect([5, 5])]


def test_schur_cover_solves_no_cocycle_identity_rows(monkeypatch):
    """The cover is read off the Hopf lattice that h2 already builds: no
    kernel of cocycle identity rows is taken, and `homology` no longer has
    a method that builds such rows."""
    def forbidden(*args):
        raise AssertionError("cocycle identity rows or their kernel built")

    monkeypatch.setattr(intmat, "preimage_mod", forbidden)
    assert not hasattr(homology, "preimage_mod")
    assert not hasattr(homology._CocycleSpace, "constraint_rows")
    for g in _path_groups():
        cov = schur_cover(g)
        assert cov.kernel_structure == h2(g), g.name


def test_covers_use_one_generating_set(monkeypatch):
    """schur_cover and build_u read the Hopf rows, the dual and the
    cocycle space on the one memoised generating set of h2: the greedy
    small generating set is never searched."""
    def forbidden(*args):
        raise AssertionError("_small_generating_set called")

    monkeypatch.setattr(groups, "_small_generating_set", forbidden)
    assert not hasattr(homology, "_small_generating_set")
    for g in _path_groups():
        assert schur_cover(g).kernel_structure == h2(g), g.name
    g = inversion_semidirect([3, 3])
    c = [x for x in range(1, g.order) if g.element_order(x) == 2]
    assert build_u(g, c).h2c == AS([3])


def test_reduce_cover_with_trivial_commutators_keeps_the_cover():
    """For C3xC3:C2 with c its involutions, the commutators of lifted
    commuting pairs are all trivial: S_c is the cover's own group object,
    not a quotient rebuilt from it."""
    g = inversion_semidirect([3, 3])
    c = [x for x in range(1, g.order) if g.element_order(x) == 2]
    cov = schur_cover(g)
    red = reduce_cover(cov, g, c)
    assert red.total is cov.total
    assert red.proj == cov.proj and red.kernel_members == cov.kernel_members
    assert red.kernel_structure == AS([3])


def test_schur_cover_holds_no_cubic_array():
    """A cover factor's table is expanded along the Cayley tree, O(|G|^2):
    the cover of D100 (order 200, H2 = C2) peaks far below the 121 MiB of
    an (n, n, (n - 1) k) array of its cochain space."""
    g = dihedral(100)
    assert h2(g) == AS([2])
    tracemalloc.start()
    try:
        cov = schur_cover(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    assert cov.total.order == 400


def test_schur_cover_certificate_catches_bad_cocycles(monkeypatch):
    """A cocycle off by one in a single value f(g, s), s a generator of
    the cocycle space, fails the cocycle identity; the zero cocycle gives
    the split extension, whose kernel is not in [S, S]."""
    build = homology._hopf_cocycles

    def off_by_one(space, q):
        (d, w), *rest = build(space, q)
        w = w.copy()
        w[0] = (w[0] + 1) % d
        return [(d, w)] + rest

    def zero(space, q):
        return [(d, np.zeros_like(w)) for d, w in build(space, q)]

    for g in _path_groups():
        monkeypatch.setattr(homology, "_hopf_cocycles", off_by_one)
        with pytest.raises(InternalCheckError, match="not a 2-cocycle"):
            schur_cover(g)
        monkeypatch.setattr(homology, "_hopf_cocycles", zero)
        with pytest.raises(InternalCheckError, match="kernel|stem"):
            schur_cover(g)


def test_reduce_cover_examples():
    g = abelian([3, 3])
    cov = schur_cover(g)
    red = reduce_cover(cov, g, list(range(1, 9)))
    assert red.kernel_structure.is_trivial()
    # no commuting pairs beyond forced: c of size 1 classes in S3 keeps S
    s3 = symmetric(3)
    cov3 = schur_cover(s3)
    red3 = reduce_cover(cov3, s3, list(range(1, 6)))
    assert red3.total.order == 6


def test_reduced_oracle_agreement():
    s3 = symmetric(3)
    transp = [g for g in range(1, 6) if s3.element_order(g) == 2]
    cov = schur_cover(s3)
    red = reduce_cover(cov, s3, transp)
    assert red.kernel_structure == oracle_h2_reduced(s3, transp)
    d4 = dihedral(4)
    red4 = reduce_cover(schur_cover(d4), d4, list(range(1, 8)))
    assert red4.kernel_structure == oracle_h2_reduced(d4, list(range(1, 8)))


def test_reduced_oracle_builds_once_per_prime_power(monkeypatch):
    """oracle_multipliers gives what oracle_h2 gives and what
    oracle_h2_reduced gives for each c alone, building the cocycle data
    once per p^e || |G| for H2 and all of the c: for 4 and 3 on D6 (order
    12), for 2 and 25 on C5xC5:C2 (order 50, past the direct cap)."""
    built = []
    cls = homology_oracle.OracleCocycles

    def counting(group, m):
        built.append(m)
        return cls(group, m)

    monkeypatch.setattr(homology_oracle, "OracleCocycles", counting)
    for g in (dihedral(6), inversion_semidirect([5, 5])):
        cs = [list(range(1, g.order))] + [
            [x for x in range(1, g.order) if g.element_order(x) == k]
            for k in (2, 3, 5, 6) if g.order % k == 0]
        single = [oracle_h2_reduced(g, c) for c in cs]
        alone = oracle_h2(g)
        built.clear()
        assert oracle_multipliers(g, cs) == (alone, single), g.name
        assert alone == h2(g), g.name
        assert sorted(built) == sorted(
            p ** e for p, e in factorize(g.order).items()), g.name


def test_reduced_rejects_out_of_range_c():
    """An entry of c outside 1..|G| - 1 is a ValidationError on both
    paths: before, negative entries wrapped around in reduce_cover and
    the identity or a negative entry raised KeyError in the oracle."""
    g = alternating4()
    c3 = [x for x in range(1, 12) if g.element_order(x) == 3]
    cov = schur_cover(g)
    for bad in ([x - 12 for x in c3], [12], [0] + c3, c3 + [-1]):
        with pytest.raises(ValidationError, match=r"in 1\.\.11"):
            reduce_cover(cov, g, bad)
        with pytest.raises(ValidationError, match=r"in 1\.\.11"):
            oracle_h2_reduced(g, bad)


def test_validate_c():
    s3 = symmetric(3)
    transp = [g for g in range(1, 6) if s3.element_order(g) == 2]
    assert validate_c(s3, transp) == tuple(sorted(transp))
    with pytest.raises(ValidationError):
        validate_c(s3, [transp[0]])          # not conjugation closed
    with pytest.raises(ValidationError):
        validate_c(s3, [0] + transp)         # identity forbidden
    rot = [g for g in range(1, 6) if s3.element_order(g) == 3]
    with pytest.raises(ValidationError):
        validate_c(s3, rot)                  # does not generate


def test_ucontext_z2():
    ctx = build_u(cyclic(2), [1])
    b = ctx.bracket(1)
    h, v = ctx.k_decompose(b * b)
    assert h == () and v == (2,)
    with pytest.raises(ValidationError):
        ctx.k_decompose(b)                   # odd vector: not in K


def test_ucontext_braid_compatibility():
    s3 = symmetric(3)
    ctx = build_u(s3, list(range(1, 6)))
    for x in ctx.c:
        for y in ctx.c:
            lhs = ctx.bracket(x) * ctx.bracket(y)
            rhs = ctx.bracket(s3.conj(y, x)) * ctx.bracket(x)
            assert lhs == rhs


def test_k_centrality():
    s3 = symmetric(3)
    ctx = build_u(s3, list(range(1, 6)))
    S = ctx.sc.total
    for k in ctx.sc.kernel_members:
        for u in range(S.order):
            assert S.mul(k, u) == S.mul(u, k)


def test_k_decompose_roundtrip():
    d5 = dihedral(5)
    ctx = build_u(d5, list(range(1, 10)))
    import itertools
    for h in itertools.product(*(range(d) for d in ctx.h2c.factors)):
        v = [0] * ctx.nclasses
        # degree-0 vector with zero abelianization: all zero is simplest
        u = ctx.k_compose(h, v)
        hh, vv = ctx.k_decompose(u)
        assert hh == tuple(h) and vv == tuple(v)


def test_h2c_divides_h2():
    for g, c in [(symmetric(3), list(range(1, 6))),
                 (dihedral(4), list(range(1, 8))),
                 (abelian([3, 3]), list(range(1, 9)))]:
        full = h2(g)
        red = reduce_cover(schur_cover(g), g, c)
        assert full.order % red.kernel_structure.order == 0


def test_validate_lifts_rejects_foreign_lifts():
    """Lifts that lie over the wrong elements of c fail `_validate_lifts`,
    which every build of a UContext runs."""
    ctx = build_u(cyclic(3), [1, 2])
    assert ctx.lifts == {1: 1, 2: 2}
    ctx._validate_lifts()
    ctx.lifts = {1: 2, 2: 1}
    with pytest.raises(InternalCheckError, match="project"):
        ctx._validate_lifts()


def test_center_and_commutator_subgroup_match_all_pairs():
    """`center` and `commutator_subgroup`, read off a generating set, give
    the members that the all-pairs definitions give, on every group of
    order <= 16, S4, and the Schur covers with a nontrivial kernel."""
    groups = groups_up_to_16() + [symmetric(4)]
    groups += [schur_cover(g).total for g in groups if not h2(g).is_trivial()]
    for g in groups:
        t, inv = g.array, np.asarray(g.inv)
        center = np.flatnonzero((t == t.T).all(axis=1)).tolist()
        seen = np.zeros(g.order, dtype=bool)
        seen[t[t[t, inv[:, None]], inv[None, :]]] = True
        derived = g.subgroup_closure(np.flatnonzero(seen).tolist())
        assert g.center() == tuple(center), g.name
        assert g.commutator_subgroup() == derived, g.name


def test_verify_rejects_a_non_homomorphism_and_a_non_central_kernel():
    """The certificate checks the projection on a generating set of the
    cover, which is enough: two swapped projection entries are caught, and
    so is a projection that swaps two left cosets of the first generator
    t, which keeps p(a t) = p(a) p(t) for every a.  The sign map S3 -> C2
    is a homomorphism whose kernel is not central."""
    g = abelian([3, 3])
    cov = schur_cover(g)
    cov.verify(g)
    S, t = cov.total, homology._generating_set(cov.total)[0]
    swapped = list(cov.proj)
    x = next(x for x in range(S.order) if swapped[x] != swapped[1])
    swapped[1], swapped[x] = swapped[x], swapped[1]

    def coset(x):
        return [S.mul(x, S.power(t, k)) for k in range(S.element_order(t))]

    assert len(set(coset(0) + coset(3) + coset(4))) == 3 * len(coset(0))
    phi = list(range(S.order))
    for a, b in zip(coset(3), coset(4)):
        phi[a], phi[b] = b, a
    for proj in (swapped, [cov.proj[y] for y in phi]):
        with pytest.raises(InternalCheckError, match="not a homomorphism"):
            dataclasses.replace(cov, proj=tuple(proj)).verify(g)
    s3 = symmetric(3)
    sign = tuple(int(s3.element_order(x) == 2) for x in range(6))
    a3 = tuple(x for x in range(6) if not sign[x])
    ext = homology.CentralExtension(s3, sign, a3, AS([3]), {}, {})
    with pytest.raises(InternalCheckError, match="kernel not central"):
        ext.verify(cyclic(2))


def test_validate_lifts_rejects_a_lift_shifted_by_the_kernel():
    """The lift of any 3-cycle of A4 outside the class representatives,
    moved by the central element of the kernel, still projects to its
    element and commutes where it did, but conjugation no longer carries
    the representative's lift to it; checking the generators of S_c
    finds that."""
    g = alternating4()
    ctx = build_u(g, [x for x in range(g.order) if g.element_order(x) == 3])
    assert ctx.h2c == AS([2])
    z = next(k for k in ctx.sc.kernel_members if k)
    lifts = dict(ctx.lifts)
    for y in set(ctx.c) - set(ctx.class_reps):
        ctx.lifts = dict(lifts)
        ctx.lifts[y] = ctx.sc.total.mul(lifts[y], z)
        with pytest.raises(InternalCheckError,
                           match="conjugation coherence failed"):
            ctx._validate_lifts()
