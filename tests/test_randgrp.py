import itertools
from fractions import Fraction

import numpy as np
import pytest

from hurwitzlab import randgrp, rng
from hurwitzlab.abelian import AbelianStructure
from hurwitzlab.errors import CapacityError, ValidationError
from hurwitzlab.groups import (GammaGroup, abelian, cyclic, dihedral,
                               inversion_action, symmetric, trivial_action,
                               trivial_group)
from hurwitzlab.randgrp import (FreeAdmissible, VarietySpec,
                                abelian_exponent_variety,
                                irreducible_modules_cyclic,
                                kernel_decomposition, m_ad, moment_mu,
                                moment_n, monte_carlo, mu_limit, mu_n,
                                prob_module_formula, quotient_outcome,
                                sample_x)
from hurwitzlab.rng import substream

GAMMA = cyclic(2)
SPEC3 = abelian_exponent_variety(GAMMA, 3)
SPEC9 = abelian_exponent_variety(GAMMA, 9)


def HG(orders):
    return inversion_action(abelian(orders) if orders else trivial_group())


def test_variety_validation():
    with pytest.raises(ValidationError):
        abelian_exponent_variety(GAMMA, 2)  # not coprime to 2|Gamma|
    with pytest.raises(ValidationError):
        abelian_exponent_variety(GAMMA, 6)


def test_free_admissible_orders():
    for n in range(4):
        assert FreeAdmissible(n, SPEC3).order == 3 ** n
    assert FreeAdmissible(1, SPEC9).order == 9
    assert FreeAdmissible(0, SPEC3).order == 1


def test_free_admissible_cap():
    with pytest.raises(CapacityError):
        FreeAdmissible(100, SPEC3)
    big = FreeAdmissible(9, SPEC3)
    with pytest.raises(CapacityError):
        big.elements()


def test_action_array_is_the_augmentation_action():
    """Column b_j of _act[g] against g (e_h - e_1) = e_gh - e_g, written
    out in the basis b_h = e_h - e_1 of each copy of the augmentation
    submodule, for cyclic and non-cyclic Gamma."""
    for gamma in (cyclic(2), cyclic(3), cyclic(4), cyclic(5), symmetric(3),
                  dihedral(4), abelian([2, 2])):
        k, n = gamma.order, 2
        free = FreeAdmissible(
            n, VarietySpec((trivial_action(cyclic(7), gamma),)))
        assert free._act.shape == (k, n * (k - 1), n * (k - 1))
        for g in range(k):
            for blk in range(n):
                off = blk * (k - 1) - 1
                for h in range(1, k):
                    want = [0] * free.dim
                    gh, g1 = gamma.mul(g, h), gamma.mul(g, 0)
                    if gh:
                        want[off + gh] += 1
                    if g1:
                        want[off + g1] -= 1
                    assert free._act[g][:, off + h].tolist() == want
        assert free.is_inversion == (k == 2)


def test_free_universal_property():
    """Every admissible exp-3 Gamma-group of rank <= n is a quotient."""
    free = FreeAdmissible(2, SPEC3)
    # (Z/3)^2 with inversion is reached by quotienting by nothing
    out = quotient_outcome(free, [free.zero()] * 3)
    assert out.divisors == (3, 3)
    # Z/3 is reached: kill one coordinate
    one = free.canonical([1, 0])
    out2 = quotient_outcome(free, [one, free.zero(), free.zero()])
    assert out2.divisors == (3,)


def test_invariant_submodule_trivial_for_inversion():
    free = FreeAdmissible(3, SPEC3)
    assert free.invariant_submodule([0, 1]) == []
    # trivial Gamma_inf: everything is invariant
    reps = free.invariant_submodule([0])
    size = 1
    for d, _ in reps:
        size *= d
    assert size == free.order


def test_mu_n_examples():
    assert mu_n(HG([3]), SPEC3, [0, 1], 1) == Fraction(1, 3)
    for n in (1, 2, 3):
        expect = Fraction(1)
        for k in range(1, n + 1):
            expect *= 1 - Fraction(1, 3 ** k)
        assert mu_n(HG([]), SPEC3, [0, 1], n) == expect
    # non-admissible H: zero
    from hurwitzlab.groups import trivial_action
    bad = trivial_action(cyclic(3), GAMMA)
    assert mu_n(bad, SPEC3, [0, 1], 2) == 0


def test_mu_census_sums_to_one():
    for n in (1, 2, 3):
        total = sum(mu_n(HG([3] * k), SPEC3, [0, 1], n) for k in range(n + 1))
        assert total == 1


def test_mu_exp9_census():
    # exponent-9 variety at n = 1: F = Z/9; quotients: 1, Z/3, Z/9
    total = Fraction(0)
    for orders in ([], [3], [9]):
        total += mu_n(HG(orders), SPEC9, [0, 1], 1)
    assert total == 1


def test_moment_examples():
    z3 = HG([3])
    assert moment_n(z3, [0, 1], 1) == Fraction(2, 3)
    assert moment_mu(z3, [0, 1]) == 1
    assert moment_mu(z3, [0]) == Fraction(1, 3)
    vals = [moment_n(z3, [0, 1], n) for n in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v <= 1 for v in vals)


def test_prob_module_formula():
    assert prob_module_formula(5, 1, 1, 5, 0, 3) == 1
    assert prob_module_formula(3, 1, 1, 3, 1, 2) == Fraction(8, 9)
    assert prob_module_formula(3, 1, 1, 3, 1, 1) == Fraction(2, 3)
    # nonpositive factor clamps to zero
    assert prob_module_formula(3, 3, 3, 3, 2, 1) == 0


def test_irreducible_modules():
    mods = irreducible_modules_cyclic(GAMMA, [0, 1], 3)
    assert len(mods) == 2
    sign = next(m for m in mods if m.inv_gamma == 1)
    triv = next(m for m in mods if m.inv_gamma == 3)
    assert sign.order == triv.order == 3
    assert sign.inv_ginf == 1 and triv.inv_ginf == 3


def _fixed_vectors(f, p, exponents):
    """Brute force: vectors of F_p[x]/(f) (coefficient lists) fixed by
    multiplication by x^j for every j in `exponents`."""
    deg = len(f) - 1

    def times_x(v):
        # x^deg = -(f_0 + ... + f_{deg-1} x^{deg-1}) modulo the monic f
        top = v[-1]
        return [(a - top * c) % p for a, c in zip([0] + v[:-1], f)]

    count = 0
    for v in itertools.product(range(p), repeat=deg):
        v = list(v)
        fixed = True
        for j in exponents:
            w = v
            for _ in range(j):
                w = times_x(w)
            if w != v:
                fixed = False
                break
        count += fixed
    return count


def test_inv_ginf_matches_brute_force():
    """|A^{Gamma_inf}| against a count of fixed vectors, for every cyclic
    Gamma of order <= 8, p in {2, 3, 5, 7} coprime to it and every
    subgroup Gamma_inf, the generator acting as x on A = F_p[x]/(f)."""
    checked = 0
    for k in range(2, 9):
        gamma = cyclic(k)
        gen = next(g for g in range(k) if gamma.element_order(g) == k)
        exponent_of = {gamma.power(gen, j): j for j in range(k)}
        for p in (2, 3, 5, 7):
            if k % p == 0:
                continue
            for d in (d for d in range(1, k + 1) if k % d == 0):
                ginf = gamma.subgroup_closure([gamma.power(gen, k // d)])
                assert len(ginf) == d
                for mod in irreducible_modules_cyclic(gamma, ginf, p):
                    if mod.order > 10 ** 4:
                        continue
                    exps = [exponent_of[g] for g in ginf]
                    assert mod.inv_ginf == _fixed_vectors(mod.poly, p, exps), \
                        (k, p, d, mod.poly)
                    checked += 1
    assert checked > 100
    # x^2 + x + 1 over F_5 for C6 and x^2 + 1 over F_3 for C8, with
    # Gamma_inf of order 2: -1 acts as 1 on both, so every vector is fixed
    for k, p, poly in ((6, 5, (1, 1, 1)), (8, 3, (1, 0, 1))):
        gamma = cyclic(k)
        gen = next(g for g in range(k) if gamma.element_order(g) == k)
        ginf = gamma.subgroup_closure([gamma.power(gen, k // 2)])
        mod = next(m for m in irreducible_modules_cyclic(gamma, ginf, p)
                   if m.poly == poly)
        assert mod.inv_ginf == p ** 2


def test_m_ad_examples():
    z3 = HG([3])
    mods = irreducible_modules_cyclic(GAMMA, [0, 1], 3)
    sign = next(m for m in mods if m.inv_gamma == 1)
    triv = next(m for m in mods if m.inv_gamma == 3)
    for mod in (sign, triv):
        assert m_ad(1, z3, mod, SPEC3) == 0
    assert m_ad(2, z3, sign, SPEC3) == 1
    assert m_ad(2, z3, triv, SPEC3) == 0
    # H trivial: kernel is all of F = sign^n
    dec = kernel_decomposition(3, HG([]), SPEC3)
    assert [(m.inv_gamma, mult) for m, mult in dec] == [(1, 3)]


def _times(q, k, a):
    """Z/q with the generator of C_k acting by x -> a x."""
    return GammaGroup(cyclic(q), cyclic(k),
                      [[x * pow(a, j, q) % q for x in range(q)]
                       for j in range(k)])


# (H, |Gamma|, m) -> per n = 1..3: the kernel decomposition as
# (p, poly, multiplicity) and mu_n for Gamma_inf = 1 and Gamma_inf = Gamma
PINNED = {
    ("Z/7 by 2", 3, 7): [
        ([(7, (3, 1), 1)], ("48/2401", "6/49")),
        ([(7, (3, 1), 2), (7, (5, 1), 1)],
         ("44914176/1977326743", "110592/823543")),
        ([(7, (3, 1), 3), (7, (5, 1), 2)],
         ("1843277783040000/79792266297612001",
          "92163889152/678223072849"))],
    ("Z/5 by 2", 4, 5): [
        ([(5, (1, 1), 1), (5, (2, 1), 1)], ("576/15625", "16/125")),
        ([(5, (1, 1), 2), (5, (2, 1), 2), (5, (3, 1), 1)],
         ("6589292544/152587890625", "1327104/9765625")),
        ([(5, (1, 1), 3), (5, (2, 1), 3), (5, (3, 1), 2)],
         ("8271856692526841856/186264514923095703125",
          "13073156407296/95367431640625"))],
    ("Z/3 inv", 2, 15): [
        ([(5, (1, 1), 1)], ("8/75", "4/15")),
        ([(3, (1, 1), 1), (5, (1, 1), 2)], ("103168/759375", "1024/3375")),
        ([(3, (1, 1), 2), (5, (1, 1), 3)],
         ("1115865088/7688671875", "10729472/34171875"))],
    ("Z/5 inv", 2, 15): [
        ([(3, (1, 1), 1)], ("8/225", "2/15")),
        ([(3, (1, 1), 2), (5, (1, 1), 1)], ("51584/1265625", "256/1875")),
        ([(3, (1, 1), 3), (5, (1, 1), 2)],
         ("2660909056/64072265625", "12792832/94921875"))],
}
PINNED_H = {"Z/7 by 2": _times(7, 3, 2), "Z/5 by 2": _times(5, 4, 2),
            "Z/3 inv": HG([3]), "Z/5 inv": HG([5])}


@pytest.mark.parametrize("name, k, m", list(PINNED))
def test_kernel_decomposition_and_mu_n_pinned(name, k, m):
    h = PINNED_H[name]
    spec = abelian_exponent_variety(cyclic(k), m)
    for n, (decomp, mus) in enumerate(PINNED[name, k, m], start=1):
        got = [(mod.p, mod.poly, mult)
               for mod, mult in kernel_decomposition(n, h, spec)]
        assert got == decomp, n
        for ginf, mu in zip(([0], list(range(k))), mus):
            assert mu_n(h, spec, ginf, n) == Fraction(mu), (n, ginf)


def test_h_outside_the_variety_exponent():
    """A quotient of the free object has exponent dividing m."""
    for orders, spec in (([9], SPEC3), ([5], SPEC9), ([3, 9], SPEC3)):
        assert mu_n(HG(orders), spec, [0, 1], 2) == 0
        with pytest.raises(ValidationError):
            kernel_decomposition(2, HG(orders), spec)
        sign = irreducible_modules_cyclic(GAMMA, [0, 1], 3)[0]
        with pytest.raises(ValidationError):
            m_ad(2, HG(orders), sign, spec)


def test_h_outside_the_variety_module():
    """H of the right exponent lies in the variety only when the map of a
    surjection tuple vanishes on N: inverted Z/3 is not in the variety of
    trivial Z/3 and inverted Z/5, nor inverted Z/5 in that of trivial
    Z/5."""
    def triv(k):
        return trivial_action(cyclic(k), GAMMA)

    for gens, h in (((triv(3), HG([5])), HG([3])), ((triv(5),), HG([5]))):
        spec = VarietySpec(gens)
        assert mu_n(h, spec, [0, 1], 2) == 0
        with pytest.raises(ValidationError, match="not in the variety"):
            kernel_decomposition(2, h, spec)
    # members of those varieties keep their measure
    spec = VarietySpec((triv(3), HG([5])))
    assert mu_n(HG([5]), spec, [0, 1], 2) > 0
    assert kernel_decomposition(2, HG([5]), spec)


def test_variety_without_module_maps_is_trivial():
    """C2 acts by -1 on the augmentation submodule of Z/5[C2], so no
    nonzero module map reaches trivial Z/5.  The joint kernel N of that
    empty family of maps is the whole module, the free object is trivial,
    and H = 1 has measure 1."""
    spec = VarietySpec((trivial_action(cyclic(5), cyclic(2)),))
    for n in (1, 2, 3):
        assert FreeAdmissible(n, spec).order == 1
        for ginf in ([0], [0, 1]):
            assert mu_n(HG([]), spec, ginf, n) == 1


def test_non_cyclic_gamma_is_a_capacity_error():
    klein = abelian([2, 2])
    z3 = GammaGroup(cyclic(3), klein,
                    [[0, 1, 2], [0, 2, 1], [0, 2, 1], [0, 1, 2]])
    spec = abelian_exponent_variety(klein, 3)
    for call in (lambda: mu_n(z3, spec, [0], 2),
                 lambda: kernel_decomposition(2, z3, spec)):
        with pytest.raises(CapacityError, match="cyclic Gamma only"):
            call()


def test_mu_limit():
    res = mu_limit(HG([3]), SPEC3, [0, 1], Fraction(1, 10 ** 6), n_budget=14)
    assert res.converged
    assert abs(res.value - mu_n(HG([3]), SPEC3, [0, 1], res.n_values[-1])) == 0
    res2 = mu_limit(HG([3]), SPEC3, [0, 1], Fraction(0), n_budget=3)
    assert not res2.converged and res2.value is None


def test_sample_x_and_outcome():
    free = FreeAdmissible(2, SPEC3)
    rng = substream(7, 0)
    out = sample_x(free, [0, 1], rng)
    assert out.label[0] == "ab-inv"
    assert len(out.witnesses) == 3
    # all-zero witnesses give the full group
    full = quotient_outcome(free, [free.zero()] * 3)
    assert full.divisors == (3, 3)


def test_friedman_washington_degeneration():
    """For the inversion action, the sampler's quotient equals the cokernel
    of the square matrix of the sampled vectors; exact bijection at n = 2."""
    free = FreeAdmissible(2, SPEC3)
    counts_model: dict = {}
    counts_coker: dict = {}
    for combo in itertools.product(range(3), repeat=4):
        x1, x2 = (combo[0], combo[1]), (combo[2], combo[3])
        out = quotient_outcome(free, [free.canonical(list(x1)),
                                      free.canonical(list(x2)), free.zero()])
        counts_model[out.divisors] = counts_model.get(out.divisors, 0) + 1
        from hurwitzlab.intmat import quotient_divisors_mod, divisor_chain
        divs = tuple(divisor_chain(
            quotient_divisors_mod([list(x1), list(x2)], 2, 3)))
        counts_coker[divs] = counts_coker.get(divs, 0) + 1
    assert counts_model == counts_coker


@pytest.mark.parametrize("k, m, n", [(2, 3, 1), (2, 3, 8), (2, 9, 2),
                                     (2, 15, 2), (4, 3, 1), (1, 3, 2)])
def test_chain_counts_match_unique_rows(k, m, n):
    """chain_counts groups the divisor rows as np.unique(axis=0) does, with
    the same counts in the same order of first appearance, on stacks where
    most outcomes repeat, and on dim = 0 (trivial Gamma)."""
    free = FreeAdmissible(n, abelian_exponent_variety(cyclic(k), m))
    gen = np.random.default_rng(m * 100 + n)
    X = gen.integers(0, m, size=(3000, n + 1, free.dim))
    div = randgrp._quotient_divisors(free, X)
    uniq, first, cnt = np.unique(div, axis=0, return_index=True,
                                 return_counts=True)
    ref = [(randgrp._chain(uniq[i]), int(cnt[i])) for i in np.argsort(first)]
    assert len(ref) < len(X) // 10
    assert list(randgrp.chain_counts(free, X).items()) == ref


def test_monte_carlo_deterministic():
    free = FreeAdmissible(3, SPEC3)
    z3s = AbelianStructure.from_cyclic_orders([3])
    a = monte_carlo(free, [0, 1], 500, seed=11, track=[z3s])
    b = monte_carlo(free, [0, 1], 500, seed=11, track=[z3s])
    assert a.counts == b.counts and a.sur_totals == b.sur_totals
    c = monte_carlo(free, [0, 1], 500, seed=12, track=[z3s])
    assert a.counts != c.counts
    with pytest.raises(ValidationError):
        monte_carlo(free, [0, 1], 0, seed=1)


def test_monte_carlo_probability_reads_every_label_form():
    """A free object whose Gamma is not C2 labels its outcomes
    ("ab", chain, |Gamma|); probability(chain) still counts them."""
    free = FreeAdmissible(2, abelian_exponent_variety(cyclic(3), 7))
    rep = monte_carlo(free, [0], 300, seed=1)
    assert rep.counts[("ab", (), 3)] == 287
    assert rep.probability(())[0] == Fraction(287, 300)
    assert rep.probability((7,))[0] == Fraction(13, 300)
    inv = monte_carlo(FreeAdmissible(2, SPEC3), [0, 1], 300, seed=1)
    assert inv.probability(())[0] == Fraction(inv.counts[("ab-inv", ())], 300)


def _sample_x_loop(free, ginf, trials, seed, track=()):
    """monte_carlo as a plain loop of sample_x, one substream per trial."""
    counts: dict = {}
    sur = {t.chain: [0, 0.0] for t in track}
    for t in range(trials):
        out = sample_x(free, ginf, substream(seed, t))
        counts[out.label] = counts.get(out.label, 0) + 1
        xs = AbelianStructure.from_cyclic_orders(out.divisors)
        for target in track:
            cnt = xs.sur_count(target)
            sur[target.chain][0] += cnt
            sur[target.chain][1] += float(cnt) ** 2
    return counts, {k: tuple(v) for k, v in sur.items()}


def test_monte_carlo_blocks_equal_sample_x_loop():
    free = FreeAdmissible(8, SPEC3)
    z3s = AbelianStructure.from_cyclic_orders([3])
    rep = monte_carlo(free, [0, 1], 10_000, seed=20260809, track=[z3s])
    counts, sur = _sample_x_loop(free, [0, 1], 10_000, 20260809, [z3s])
    assert list(rep.counts.items()) == list(counts.items())
    assert rep.sur_totals == sur


@pytest.mark.parametrize("k, m, n, ginf", [
    (2, 9, 2, [0]), (2, 9, 2, [0, 1]),
    (2, 15, 2, [0]), (2, 15, 2, [0, 1]),
    (4, 3, 2, [0]), (4, 3, 2, [0, 2]), (4, 3, 2, [0, 1, 2, 3]),
    (3, 5, 2, [0]), (3, 5, 2, [0, 1, 2]),
])
def test_monte_carlo_blocks_other_varieties(k, m, n, ginf):
    free = FreeAdmissible(n, abelian_exponent_variety(cyclic(k), m))
    rep = monte_carlo(free, ginf, 300, seed=4)
    counts, _ = _sample_x_loop(free, ginf, 300, 4)
    assert list(rep.counts.items()) == list(counts.items())


def test_monte_carlo_rejection_fallback(monkeypatch):
    """With the rejection limit at 2^63 about half of all words are
    rejected; such trials go through sample_x and the counts still equal
    the plain loop."""
    monkeypatch.setattr(rng, "rejection_limit", lambda n: 1 << 63)
    free = FreeAdmissible(2, SPEC3)
    z3s = AbelianStructure.from_cyclic_orders([3])
    counts, sur = _sample_x_loop(free, [0, 1], 400, 3, [z3s])
    redrawn = []

    def spy(free, ginf, stream):
        redrawn.append(stream)
        return sample_x(free, ginf, stream)

    monkeypatch.setattr(randgrp, "sample_x", spy)
    rep = monte_carlo(free, [0, 1], 400, seed=3, track=[z3s])
    assert list(rep.counts.items()) == list(counts.items())
    assert rep.sur_totals == sur
    # n*dim = 4 words per trial: about 15 trials in 16 are redrawn, and
    # the rest take the batched path
    assert 300 < len(redrawn) < 400


def test_monte_carlo_marginal():
    """P(all Y coordinates of x_i inside N) = |H^G|/|H| per draw: for the
    inversion action on F with N of index 3, that is 1/3."""
    free = FreeAdmissible(1, SPEC3)
    rng = substream(5, 0)
    hits = 0
    trials = 3000
    for t in range(trials):
        r = substream(5, t)
        x = free.sample(r)
        if x == free.zero():
            hits += 1
    assert abs(hits / trials - 1 / 3) < 4 * (2 / 9 / trials) ** 0.5 + 0.03
