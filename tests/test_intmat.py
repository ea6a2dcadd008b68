import hashlib
import itertools
import math
import random

import numpy as np

from hurwitzlab.groups import abelian, dihedral, inversion_action, semidirect
from hurwitzlab.homology import _CocycleSpace, _hopf_rows, h2
from hurwitzlab.homology_oracle import (_kernel_mod, _quotient_divisors,
                                        _span_order)
from hurwitzlab.intmat import (_mod, _smith_mod, divisor_chain,
                               howell_form_mod, howell_residue, preimage_mod,
                               quotient_divisors_mod, quotient_divisors_stack)
from hurwitzlab.ntheory import factorize


def brute_span_mod(gens, dim, m, cap=30000):
    span = {tuple([0] * dim)}
    frontier = [tuple([0] * dim)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b in zip(x, g))
            if y not in span:
                if len(span) >= cap:
                    return None
                span.add(y)
                frontier.append(y)
    return span


def test_divisor_chain():
    assert divisor_chain([2, 4, 3, 9, 2]) == [2, 6, 36]
    assert divisor_chain([1, 1]) == []
    assert divisor_chain([6]) == [6]


def test_quotient_divisors_diag():
    # Z^2 / (rowspan diag(2, 3) + 6 Z^2) is Z/6
    assert quotient_divisors_mod([[2, 0], [0, 3]], 2, 6) == [6]


def test_smith_mod_transforms():
    rng = random.Random(3)
    for _ in range(200):
        nr, nc = rng.randint(0, 5), rng.randint(1, 3)
        m = rng.choice([2, 4, 6, 8, 9, 12, 25, 27])
        A = np.array([[rng.randrange(m) for _ in range(nc)] for _ in range(nr)],
                     dtype=np.int64).reshape(nr, nc)
        diag, V = _smith_mod(A.copy(), m)
        # V is invertible modulo m: its rows span (Z/m)^nc
        assert len(brute_span_mod(V.tolist(), nc, m)) == m ** nc
        # U A V == D with U invertible: A V and D span the same rows
        D = [[d if i == j else 0 for j in range(nc)] for i, d in enumerate(diag)]
        assert brute_span_mod((A @ V % m).tolist(), nc, m) == \
            brute_span_mod(D, nc, m)
        size = math.prod(math.gcd(d, m) for d in diag) * m ** (nc - len(diag))
        assert size * len(brute_span_mod(A.tolist(), nc, m)) == m ** nc


def test_smith_mod_pinned():
    """The engine's pivot sequence is pinned: the diagonal and the column
    transform on seeded tall sparse matrices, zero rows and rows of
    p-multiples among them, hash to the value the engine gave before it
    stopped keeping V^-1 (that engine's (diag, V, V^-1) hash was recorded
    before the row steps were restricted to the rows they change)."""
    rng = np.random.default_rng(23)
    h = hashlib.sha256()
    for m in (4, 8, 9, 16, 25):
        p = min(d for d in range(2, m + 1) if m % d == 0)
        for nr, nc, density in ((40, 6, 0.3), (150, 20, 0.08),
                                (300, 40, 0.05), (30, 30, 0.2)):
            A = rng.integers(0, m, size=(nr, nc))
            A[rng.random(A.shape) >= density] = 0
            A[: nr // 3] = A[: nr // 3] * p % m
            diag, V = _smith_mod(A.copy(), m)
            h.update(repr((m, diag, V.tolist())).encode())
    assert h.hexdigest() == \
        "53a41b94c743217fabc7cc714b9a454ff00746c6194648158f95c86a59e7f2a1"


def test_quotient_divisors_stack_per_slice():
    """Each slice of the stacked elimination gives the invariant factors of
    quotient_divisors_mod, zero slices and low-valuation pivots included."""
    rng = np.random.default_rng(11)
    for m in (3, 4, 9, 12, 15, 25, 27):
        for R, C in ((0, 3), (1, 1), (2, 5), (5, 2), (4, 4), (9, 8)):
            A = rng.integers(0, m, size=(60, R, C))
            A[rng.random(A.shape) < 0.4] = 0
            A[:20] *= rng.integers(0, m, size=(20, 1, 1))  # shared factors
            A[:5] = 0
            D = quotient_divisors_stack(A, m)
            assert D.shape == (60, C)
            for t in range(len(A)):
                assert [int(d) for d in D[t] if d > 1] == \
                    quotient_divisors_mod(A[t].tolist(), C, m)


def test_mod_is_remainder():
    """The floor-division reduction equals % on int32 and int64 arrays,
    negative entries and the ends of the range included, for m up to 2^30,
    and keeps the dtype."""
    rng = np.random.default_rng(7)
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        A = rng.integers(info.min, info.max, size=2000, dtype=dtype,
                         endpoint=True)
        A[:6] = [info.min, info.min + 1, -1, 0, 1, info.max]
        A[6:1000] //= 1 << 20        # small entries of both signs
        for m in [1, 2, 3, 7, 46337, (1 << 30) - 35, 1 << 30,
                  *rng.integers(2, 1 << 30, size=8).tolist()]:
            got = _mod(A, m)
            assert got.dtype == dtype
            assert np.array_equal(got, A % m)


def test_quotient_divisors_stack_int32_switch():
    """Moduli on both sides of the int32 block rule (q^2 < 2^31), with
    entries outside [0, m), negative ones among them, and pivots of every
    valuation: each slice gives the divisors of quotient_divisors_mod."""
    rng = np.random.default_rng(23)
    for m in (19683, 32768, 46337, 46349, 78125):
        p = min(factorize(m))
        for R, C in ((3, 3), (6, 4), (4, 6)):
            A = rng.integers(-3 * m, 3 * m, size=(40, R, C))
            A[:25] *= p ** rng.integers(0, 9, size=(25, R, 1))
            A[:8] *= m // p
            A[:2] = 0
            D = quotient_divisors_stack(A, m)
            for t in range(len(A)):
                assert [int(d) for d in D[t] if d > 1] == \
                    quotient_divisors_mod(A[t].tolist(), C, m)


def test_quotient_divisors_sparse_rows():
    """Sparse dict rows and dense list rows, with rows of p-multiples, zero
    rows and duplicate rows among them, give the divisors of the stacked
    elimination, and the quotient order the brute-force span gives."""
    rng = np.random.default_rng(17)
    for m in (4, 8, 9, 12, 16, 25, 27):
        p = min(d for d in range(2, m + 1) if m % d == 0)
        for R, C in ((0, 2), (1, 1), (3, 3), (6, 4), (12, 9), (30, 20)):
            A = rng.integers(0, m, size=(40, R, C))
            A[rng.random(A.shape) < 0.8] = 0
            if R >= 3:
                A[:, 0] *= p                 # every entry a multiple of p
                A[:, 1] = 0                  # a zero row
                A[:, -1] = A[:, 2]           # a duplicate row
            shift = m * rng.integers(-2, 3, size=A.shape)
            D = quotient_divisors_stack(A, m)
            for t in range(len(A)):
                expect = [int(d) for d in D[t] if d > 1]
                dense = A[t].tolist()
                sparse = [{j: int(a + k) for j, (a, k) in
                           enumerate(zip(row, krow)) if a}
                          for row, krow in zip(A[t], shift[t])]
                assert quotient_divisors_mod(dense, C, m) == expect
                assert quotient_divisors_mod(sparse, C, m) == expect
                if m ** C <= 30000:
                    span = brute_span_mod(dense, C, m)
                    assert math.prod(expect) * len(span) == m ** C


def test_preimage_mod_brute_force():
    """preimage_mod spans {x : A x in span(sub)}, the kernel of A when sub
    is empty, and gives the reduced Howell form of that span."""
    rng = random.Random(7)
    for _ in range(300):
        nun, m = rng.randint(1, 3), rng.randint(2, 12)
        r = rng.randint(0, 3)
        A = [[rng.randrange(m) for _ in range(nun)] for _ in range(r)]
        sub = [[rng.randrange(m) for _ in range(r)]
               for _ in range(rng.randint(0, 2) if r else 0)]
        span = brute_span_mod(sub, r, m)
        pre = {x for x in itertools.product(range(m), repeat=nun)
               if tuple(sum(a * b for a, b in zip(row, x)) % m
                        for row in A) in span}
        K = preimage_mod(A, nun, m, sub)
        assert brute_span_mod(K, nun, m) == pre
        assert K == howell_form_mod(sorted(pre), nun, m)


def brute_quotient_divisors(LA, LB, m, p):
    """Invariant factors of LA / LB (sets of vectors mod m = p^e) from
    element orders: p^k a lies in LB for p^(sum_i min(k, e_i)) |LB| of the
    a in LA, with p^e_i the factors."""
    def log_p(x):
        k = 0
        while x > 1:
            x //= p
            k += 1
        return k
    e = log_p(m)
    logs = [log_p(sum(tuple(p ** k * x % m for x in a) in LB for a in LA)
                  // len(LB)) for k in range(e + 1)]
    at_least = [logs[k] - logs[k - 1] for k in range(1, e + 1)] + [0]
    return [p ** k for k in range(1, e + 1)
            for _ in range(at_least[k - 1] - at_least[k])]


def test_oracle_counts_brute_force():
    """The homology oracle's kernel, span order and quotient divisors, all
    read off its one echelon routine, against enumeration on seeded small
    matrices mod 4, 8, 9 and 25 with zero rows and rows of p-multiples."""
    rng = np.random.default_rng(29)
    seen = set()
    for m, p, dim in ((4, 2, 4), (8, 2, 3), (9, 3, 3), (25, 5, 2)):
        space = np.array(list(itertools.product(range(m), repeat=dim)))
        for _ in range(40):
            A = rng.integers(0, m, size=(rng.integers(0, 5), dim))
            A[rng.random(len(A)) < 0.25] = 0
            A[rng.random(len(A)) < 0.4] *= p
            A %= m
            LA = brute_span_mod(A.tolist(), dim, m)
            assert _span_order(A, m) == len(LA)
            kern = {tuple(x) for x in space[~(space @ A.T % m).any(axis=1)]}
            assert brute_span_mod(_kernel_mod(A, m).tolist(), dim, m) == kern
            B = rng.integers(0, m, size=(rng.integers(0, 3), len(A))) @ A % m
            B[rng.random(len(B)) < 0.5] *= p
            B %= m
            LB = brute_span_mod(B.tolist(), dim, m)
            divisors = _quotient_divisors(A, B, m, p)
            assert divisors == brute_quotient_divisors(LA, LB, m, p)
            seen.add(tuple(divisors))
    # zero, cyclic and non-cyclic quotients, and more than one exponent
    assert {(), (2,), (2, 2), (2, 4), (25,)} <= seen, seen


def test_howell_membership_and_canonical():
    rng = random.Random(11)
    done = 0
    while done < 250:
        dim = rng.randint(1, 4)
        m = rng.choice([2, 3, 4, 8, 9, 12, 25])
        k = rng.randint(0, 3)
        gens = [[rng.randrange(m) for _ in range(dim)] for _ in range(k)]
        span = brute_span_mod(gens, dim, m, cap=20000)
        if span is None:
            continue
        done += 1
        H = howell_form_mod(gens, dim, m)
        for _ in range(20):
            v = [rng.randrange(m) for _ in range(dim)]
            r = howell_residue(H, v, m)
            assert (tuple(x % m for x in v) in span) == (not any(r))
            s = rng.choice(list(span))
            w = [(a + b) % m for a, b in zip(v, s)]
            assert howell_residue(H, w, m) == r


def test_howell_rows_canonical():
    """howell_form_mod gives the reduced Howell form: the same rows for
    shuffled generators and for the generators plus combinations of them,
    every entry above a pivot below that pivot, and rows that span the
    module; seeded modules with zero rows and rows of p-multiples."""
    rng = random.Random(31)
    for m in (4, 8, 9, 12, 18, 25, 27, 36, 60):
        p = min(d for d in range(2, m + 1) if m % d == 0)
        for _ in range(40):
            dim = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(0, 8)):
                g = [rng.randrange(m) for _ in range(dim)]
                kind = rng.random()
                if kind < 0.15:
                    g = [0] * dim
                elif kind < 0.5:
                    g = [x * p % m for x in g]
                gens.append(g)
            H = howell_form_mod(gens, dim, m)
            for c, row in enumerate(H):
                assert m % row[c] == 0 and not any(row[:c])
                assert all(H[r][c] < row[c] for r in range(c))
            shuffled = rng.sample(gens, len(gens))
            assert howell_form_mod(shuffled, dim, m) == H
            combos = []
            for _ in range(rng.randint(1, 3)):
                coef = [rng.randrange(m) for _ in gens]
                combos.append([sum(a * g[j] for a, g in zip(coef, gens)) % m
                               for j in range(dim)])
            assert howell_form_mod(combos + gens, dim, m) == H
            if m ** dim <= 20000:
                rows = [r for c, r in enumerate(H) if r[c] != m]
                assert brute_span_mod(rows, dim, m) == \
                    brute_span_mod(gens, dim, m)


def test_howell_sparse_rows():
    """{column: value} rows, the same rows as dense lists and as an array
    give one reduced Howell form, whose rows span the module the
    brute-force span gives and whose residues test membership in it;
    seeded sparse modules with zero rows, rows of p-multiples and entries
    outside [0, m)."""
    rng = np.random.default_rng(37)
    for m in (4, 6, 8, 9, 12, 27, 36, 121):
        p = min(d for d in range(2, m + 1) if m % d == 0)
        for _ in range(30):
            dim = int(rng.integers(1, 7))
            A = rng.integers(0, m, size=(int(rng.integers(0, 9)), dim))
            A[rng.random(A.shape) < 0.6] = 0
            A[rng.random(len(A)) < 0.3] *= p
            A += m * rng.integers(-2, 3, size=A.shape)
            dense = A.tolist()
            sparse = [{j: a for j, a in enumerate(row) if a} for row in dense]
            H = howell_form_mod(dense, dim, m)
            assert howell_form_mod(sparse, dim, m) == H
            assert howell_form_mod(A, dim, m) == H
            if m ** dim <= 20000:
                span = brute_span_mod(dense, dim, m)
                rows = [r for c, r in enumerate(H) if r[c] != m]
                assert brute_span_mod(rows, dim, m) == span
                for v in itertools.islice(
                        itertools.product(range(m), repeat=dim), 0, None, 7):
                    assert (v in span) == (not any(howell_residue(H, v, m)))


def _inversion(orders):
    return semidirect(inversion_action(abelian(orders))).group


def test_howell_forms_of_covers_pinned():
    """The reduced Howell forms a Schur cover is read off: of the Hopf rows
    modulo p^e || |G| and of the coboundary and carry relations modulo the
    factor d, for D50, C7xC7:C2 and C3^3:C2.  The form is unique, so the
    sha256 of its rows is the one the dense sweep gave.  The relation
    digests of C7xC7:C2 and C3^3:C2 were recorded when the cocycle space
    moved to `_generating_set`, which orders their generators otherwise."""
    pinned = [  # group, p^e, d, then the digests of the two forms
        (dihedral(50), 4, 2,
         "88ba4fb583c7beb4a3b936bce09c8c89f902eceff6bd5ecfe80b4c55aa69bbb1",
         "9cde6c19ad419b593857a847e9fe14816c9f84d84d5204173b7049055ee4b647"),
        (_inversion([7, 7]), 49, 7,
         "73cddafbafe42083b79dfc5b4dbec067fcca9a5cd1a69394f4a94b954e035713",
         "2bb05db1166bf24c40b44d52aff2c2a16b245b90ab6268179242e6cedf2dc483"),
        (_inversion([3, 3, 3]), 27, 3,
         "0fca13a3f3ef495afd0a175b0a925aa889a497d81254785ced01df389982b1bb",
         "6bacc6bd6bb6920a2ab56c36afa2100bb547ca8e412267d2edc2c668422b14d2"),
    ]
    for g, q, d, hopf, rel in pinned:
        assert h2(g).exponent == d and math.gcd(g.order // q, q) == 1
        space = _CocycleSpace(g)
        ncycles = g.order * (len(space.S) - 1) + 1
        H = howell_form_mod(_hopf_rows(g, space.S, space.tree), ncycles, q)
        assert hashlib.sha256(repr(H).encode()).hexdigest() == hopf, g.name
        R = howell_form_mod(space.relation_vectors(d), space.nun, d)
        assert hashlib.sha256(repr(R).encode()).hexdigest() == rel, g.name
