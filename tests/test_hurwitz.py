import inspect
import itertools
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import hurwitz
from hurwitzlab.errors import CapacityError, InternalCheckError, ValidationError
from hurwitzlab.groups import (alternating4, cyclic, dihedral, groups_up_to_16,
                               symmetric)
from hurwitzlab.homology import build_u, validate_c
from hurwitzlab.hurwitz import (NielsenTuple, braid_act, braid_inverse,
                                conjugate_tuple, enumerate_tuples, k_set,
                                lifting_invariant, orbits, shape_invariant,
                                stable_bijection_report)

S3 = symmetric(3)
TRANSP = tuple(g for g in range(1, 6) if S3.element_order(g) == 2)


def test_enumerate_s3_example():
    tups = list(enumerate_tuples(S3, TRANSP, TRANSP[0], 4))
    assert len(tups) == 8
    assert tups == sorted(tups, key=lambda t: t.entries)
    for t in tups:
        prod = 0
        for x in t.entries:
            prod = S3.mul(prod, x)
        assert prod == S3.inv[TRANSP[0]]


def test_enumerate_edge_cases():
    # n = 2 with inverse not in c: empty
    rot = [g for g in range(1, 6) if S3.element_order(g) == 3]
    c2 = cyclic(2)
    assert list(enumerate_tuples(c2, [1], 1, 4)) == \
        [NielsenTuple((1, 1, 1), 1)]
    with pytest.raises(ValidationError):
        list(enumerate_tuples(S3, TRANSP, 0, 4))
    with pytest.raises(ValidationError):
        list(enumerate_tuples(S3, TRANSP, TRANSP[0], 1))
    with pytest.raises(CapacityError):
        list(enumerate_tuples(S3, list(range(1, 6)), TRANSP[0], 12, budget=10))


@pytest.mark.parametrize("bad", [-1, 99, 10])
def test_out_of_range_g_inf_and_c(bad):
    d5 = dihedral(5)
    call = list(range(1, 10))
    with pytest.raises(ValidationError):
        list(enumerate_tuples(d5, call, bad, 4))
    with pytest.raises(ValidationError):
        orbits(d5, call, bad, 4)
    with pytest.raises(ValidationError):
        validate_c(d5, call + [bad])
    with pytest.raises(ValidationError):
        validate_c(S3, range(1, 7))


def test_enumerate_tuples_is_lazy(monkeypatch):
    calls = {"validate_c": 0, "_tuple_blocks": 0}

    def counted(name):
        real = getattr(hurwitz, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(hurwitz, name, wrapper)

    counted("validate_c")
    counted("_tuple_blocks")
    it = enumerate_tuples(S3, TRANSP, TRANSP[0], 4)
    assert inspect.isgenerator(it)
    assert calls == {"validate_c": 0, "_tuple_blocks": 0}
    assert next(it).g_inf == TRANSP[0]
    assert calls == {"validate_c": 1, "_tuple_blocks": 1}
    bad = enumerate_tuples(S3, TRANSP, 0, 4)
    with pytest.raises(ValidationError):
        next(bad)


@pytest.mark.parametrize("block", [1, 7])
def test_enumeration_across_blocks(monkeypatch, block):
    """Blocks of 1 and 7 rows: every tuple and every orbit is the same as
    with the default block size, which no other case here exceeds."""
    for group in (S3, dihedral(4)):
        cc = group.conjugacy_classes()
        for c in _c_choices(group):
            ctx = build_u(group, c)
            for g_inf in sorted({cc.reps[cc.class_of[x]] for x in c}):
                for n in range(2, 6):
                    want = orbits(group, c, g_inf, n, ctx=ctx,
                                  verify_invariants=True)
                    with monkeypatch.context() as m:
                        m.setattr(hurwitz, "_BLOCK", block)
                        tups = list(enumerate_tuples(group, c, g_inf, n))
                        got = orbits(group, c, g_inf, n, ctx=ctx,
                                     verify_invariants=True)
                    assert tups == _brute_force_tuples(group, c, g_inf, n)
                    assert all(a.entries < b.entries
                               for a, b in zip(tups, tups[1:]))
                    assert got == want


def test_enumerated_tuple_values_d5():
    """D5, c = all, n = 7: each g_inf spans two default blocks.  Counts and
    end tuples were recorded before the column-wise tuple build."""
    d5 = dihedral(5)
    call = list(range(1, 10))
    for g_inf in call:
        tups = list(enumerate_tuples(d5, call, g_inf, 7))
        assert len(tups) == (53_144 if d5.element_order(g_inf) == 2
                             else 52_325)
        assert all(type(t.entries) is tuple
                   and all(type(x) is int for x in t.entries) for t in tups)
        ends = (tups[0].entries, tups[-1].entries)
        if g_inf == 5:
            assert ends == ((1, 1, 1, 1, 1, 5), (9, 9, 9, 9, 9, 4))
        if g_inf == 1:
            assert ends == ((1, 1, 1, 1, 5, 5), (9, 9, 9, 9, 9, 5))
    back = pickle.loads(pickle.dumps(tups[-1]))
    assert type(back) is NielsenTuple and back == tups[-1]


def test_enumerated_tuples_are_immutable_values():
    tups = list(enumerate_tuples(S3, TRANSP, TRANSP[0], 6))
    assert tups and all(type(t) is NielsenTuple for t in tups)
    t = tups[0]
    with pytest.raises(AttributeError):
        t.entries = (TRANSP[1],) * 5
    twin = NielsenTuple(tuple(t.entries), t.g_inf)
    assert twin == t and hash(twin) == hash(t)
    assert NielsenTuple(t.entries, TRANSP[1]) != t
    assert len(set(tups)) == len(tups)
    assert all(u.n == len(u.entries) + 1 == 6 for u in tups)


def test_braid_act_example():
    a, b, c = TRANSP
    t = NielsenTuple((a, b, c), TRANSP[0])
    moved = braid_act(1, t, S3)
    assert moved.entries == (S3.conj(b, a), a, c)
    assert braid_inverse(1, moved, S3) == t
    with pytest.raises(ValidationError):
        braid_act(3, t, S3)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 7), st.data())
def test_braid_relations(n, data):
    entries = tuple(data.draw(st.sampled_from(TRANSP)) for _ in range(n - 1))
    t = NielsenTuple(entries, TRANSP[0])
    i = data.draw(st.integers(1, n - 3))
    lhs = braid_act(i, braid_act(i + 1, braid_act(i, t, S3), S3), S3)
    rhs = braid_act(i + 1, braid_act(i, braid_act(i + 1, t, S3), S3), S3)
    assert lhs == rhs
    if i + 2 <= n - 2:
        j = i + 2
        ab = braid_act(i, braid_act(j, t, S3), S3)
        ba = braid_act(j, braid_act(i, t, S3), S3)
        assert ab == ba


def test_braid_preserves_structure():
    ctx = build_u(S3, TRANSP)
    t = next(iter(enumerate_tuples(S3, TRANSP, TRANSP[0], 4)))
    inv0 = lifting_invariant(ctx, t)
    for i in (1, 2):
        m = braid_act(i, t, S3)
        prod0 = 0
        for x in m.entries:
            prod0 = S3.mul(prod0, x)
        assert prod0 == S3.inv[t.g_inf]
        assert sorted(ctx.class_of[x] for x in m.entries) == \
            sorted(ctx.class_of[x] for x in t.entries)
        assert lifting_invariant(ctx, m) == inv0
    # conjugation invariance
    cj = conjugate_tuple(t, S3, t.g_inf)
    assert lifting_invariant(ctx, cj) == inv0


def test_orbits_s3_example():
    ctx = build_u(S3, TRANSP)
    orbs = orbits(S3, TRANSP, TRANSP[0], 4, ctx=ctx, verify_invariants=True)
    assert len(orbs) == 1
    assert orbs[0].size == 8
    assert orbs[0].invariant.v == (4,)
    assert orbs[0].shape == (4,)


def test_orbits_partition_deterministic():
    call = list(range(1, 6))
    ctx = build_u(S3, call)
    for n in range(2, 7):
        total = len(list(enumerate_tuples(S3, call, TRANSP[0], n)))
        base = orbits(S3, call, TRANSP[0], n, ctx=ctx, verify_invariants=True)
        assert sum(o.size for o in base) == total
        again = orbits(S3, call, TRANSP[0], n, ctx=ctx)
        assert [(o.representative, o.size, o.invariant, o.shape)
                for o in again] == \
               [(o.representative, o.size, o.invariant, o.shape)
                for o in base]


def test_orbit_memory_budget():
    call = list(range(1, 6))
    with pytest.raises(CapacityError):
        orbits(S3, call, TRANSP[0], 7, memory_budget=1000)


def test_orbit_memory_budget_bounds_rss():
    # D5, c = all, reflection g_inf, n = 8: 478,296 tuples.  The engine's
    # model asks for about 11 MiB of this run; 12 MiB passes and holds the
    # peak RSS growth of a fresh process to the budget plus 8 MiB of slack
    # (allocator and interpreter), and 6 MiB is refused up front.
    script = textwrap.dedent("""
        import json, resource, sys
        from hurwitzlab.errors import CapacityError
        from hurwitzlab.groups import dihedral
        from hurwitzlab.homology import build_u
        from hurwitzlab.hurwitz import orbits
        d5 = dihedral(5)
        c = list(range(1, 10))
        g_inf = next(g for g in c if d5.element_order(g) == 2)
        ctx = build_u(d5, c)
        orbits(d5, c, g_inf, 3, ctx=ctx, verify_invariants=True)
        try:
            orbits(d5, c, g_inf, 8, memory_budget=6 << 20)
            refused = False
        except CapacityError:
            refused = True
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        orbs = orbits(d5, c, g_inf, 8, ctx=ctx, memory_budget=12 << 20,
                      verify_invariants=True)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"refused": refused, "growth_kib": after - before,
                          "tuples": sum(o.size for o in orbs)}))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["refused"]
    assert got["tuples"] == 478_296
    assert got["growth_kib"] <= (12 + 8) * 1024


def test_orbits_and_monte_carlo_leave_numpy_ma_unimported():
    # numpy.ma costs a fresh process about 6 ms to import; the 1-D
    # np.unique without return_index imports it
    script = textwrap.dedent("""
        import sys
        from hurwitzlab.groups import cyclic, dihedral
        from hurwitzlab.hurwitz import orbits
        from hurwitzlab.randgrp import (FreeAdmissible,
                                        abelian_exponent_variety, monte_carlo)
        d5 = dihedral(5)
        c = list(range(1, 10))
        g_inf = next(g for g in c if d5.element_order(g) == 2)
        orbits(d5, c, g_inf, 5)
        free = FreeAdmissible(8, abelian_exponent_variety(cyclic(2), 3))
        monte_carlo(free, [0, 1], 200, seed=1)
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_key_width():
    # one element in c packs into 0 bits per entry, so any n fits
    orbs = orbits(cyclic(2), [1], 1, 70)
    assert [(o.representative.entries, o.size) for o in orbs] == \
        [((1,) * 69, 1)]
    # 65 entries of 1 bit do not fit a 64-bit key; only a raised tuple
    # budget gets this far
    with pytest.raises(CapacityError):
        orbits(cyclic(3), [1, 2], 1, 66, tuple_budget=10 ** 30)


def _brute_force_tuples(group, c, g_inf, n):
    target = group.inv[g_inf]
    out = []
    for entries in itertools.product(sorted(c), repeat=n - 1):
        prod = 0
        for x in entries:
            prod = group.mul(prod, x)
        if prod == target and \
                len(group.subgroup_closure(entries + (g_inf,))) == group.order:
            out.append(NielsenTuple(entries, g_inf))
    return out


def _bfs_orbits(group, tuples):
    """Orbits under braid_act, braid_inverse and conjugation by g_inf,
    found by breadth-first search over the public moves."""
    comp = {}
    parts = []
    for start in tuples:
        if start in comp:
            continue
        part = [start]
        comp[start] = len(parts)
        for t in part:
            moved = [conjugate_tuple(t, group, t.g_inf)]
            for i in range(1, t.n - 1):
                moved += [braid_act(i, t, group), braid_inverse(i, t, group)]
            for m in moved:
                if m not in comp:
                    comp[m] = len(parts)
                    part.append(m)
        parts.append(part)
    return comp, parts


def _c_choices(group):
    rest = range(1, group.order)
    for c in (list(rest), [g for g in rest if group.element_order(g) == 2]):
        try:
            yield validate_c(group, c)
        except ValidationError:
            pass


def test_orbits_match_brute_force_bfs():
    """Every group of order <= 12, c = all non-identity elements and
    c = involutions, one g_inf per conjugacy class in c, n <= 5: the orbit
    partition, the sizes and the invariants equal a brute-force search, and
    each representative lies in its orbit (which member it is, is not
    pinned)."""
    cases = 0
    for group in groups_up_to_16():
        if group.order > 12:
            continue
        cc = group.conjugacy_classes()
        for c in _c_choices(group):
            ctx = build_u(group, c)
            for g_inf in sorted({cc.reps[cc.class_of[x]] for x in c}):
                for n in range(2, 6):
                    tuples = _brute_force_tuples(group, c, g_inf, n)
                    assert list(enumerate_tuples(group, c, g_inf, n)) == tuples
                    comp, parts = _bfs_orbits(group, tuples)
                    assert len(comp) == len(tuples)
                    orbs = orbits(group, c, g_inf, n, ctx=ctx,
                                  verify_invariants=True)
                    assert sorted(comp[o.representative] for o in orbs) == \
                        list(range(len(parts)))
                    for o in orbs:
                        part = parts[comp[o.representative]]
                        assert o.size == len(part)
                        assert {lifting_invariant(ctx, t) for t in part} == \
                            {o.invariant}
                    cases += 1
    assert cases > 100


def test_verify_invariants_catches_a_corrupted_member():
    # A4, c = the 3-cycles: H2(G, c) = Z/2.  Multiplying the lift of one
    # element of c by the central kernel element changes the invariant of
    # the tuples holding it an odd number of times, and orbits mix those
    # with the others.
    a4 = alternating4()
    c = [g for g in range(1, 12) if a4.element_order(g) == 3]
    ctx = build_u(a4, c)
    assert ctx.h2c.factors == (2,)
    orbits(a4, c, c[0], 5, ctx=ctx, verify_invariants=True)
    z = next(s for s, h in ctx.sc.kernel_coords.items() if any(h))
    ctx.lifts[c[1]] = ctx.sc.total.mul(ctx.lifts[c[1]], z)
    with pytest.raises(InternalCheckError):
        orbits(a4, c, c[0], 5, ctx=ctx, verify_invariants=True)
    orbits(a4, c, c[0], 5, ctx=ctx)


def test_lifting_invariant_requires_c():
    ctx = build_u(S3, TRANSP)
    rot = next(g for g in range(1, 6) if S3.element_order(g) == 3)
    with pytest.raises(ValidationError):
        lifting_invariant(ctx, NielsenTuple((TRANSP[0], TRANSP[0]), rot))


def test_shape_invariant():
    d5 = dihedral(5)
    c = list(range(1, 10))
    ctx = build_u(d5, c)
    refl = next(g for g in c if d5.element_order(g) == 2)
    orbs = orbits(d5, c, refl, 5, ctx=ctx)
    # shapes constant on orbits by construction; powering can swap the two
    # rotation classes, so shape is the lex-min under that swap
    for o in orbs:
        assert o.shape == min(
            tuple(o.invariant.v),
            tuple(o.invariant.v[i] for i in (1, 0, 2)))


def test_stable_bijection_z2():
    c2 = cyclic(2)
    for n in (2, 4, 6):
        rep = stable_bijection_report(c2, [0, 1], [1], n, 1)
        e = rep.entries[0]
        assert e.bijective and len(e.k_set) == 1
    # odd degree: both sides empty (vector must be 0 in G^ab)
    rep = stable_bijection_report(c2, [0, 1], [1], 5, 1)
    assert len(rep.entries[0].k_set) == 0


def test_stable_bijection_s3():
    ctx = build_u(S3, TRANSP)
    rep = stable_bijection_report(S3, S3.subgroup_closure([TRANSP[0]]),
                                  TRANSP, 8, 2, ctx=ctx)
    assert rep.all_bijective


def test_k_set_counts():
    ctx = build_u(S3, TRANSP)
    # degree-n vectors on one class with trivial abelianized image: n even
    assert len(k_set(ctx, 4, 1)) == 1
    assert len(k_set(ctx, 5, 1)) == 0
