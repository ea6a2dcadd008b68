"""Independent cross-check path for the multiplier computations.

The default h2 runs bar-complex homology; this oracle instead solves the
full two-variable cocycle space mod p^e (one unknown per pair of nontrivial
elements, no generator parametrization), quotients by coboundaries and
carry classes, and reads off the structure.  The reduced multiplier
H2(G, c) is obtained on this side from the commutator pairing: its dual is
the annihilator of the antisymmetrizations over commuting pairs meeting c.

Above a direct cap, p-parts come from Sylow subgroups: for a normal abelian
Sylow the commutator pairing identifies cocycle classes with alternating
forms, and the invariant forms under conjugation give the p-part.

Shared with the main path are the group engine, the integer
factorisation of `ntheory` and, above the direct cap, the
generator-parametrized cocycle space `homology._CocycleSpace` (its rows,
not their elimination).  The Z-exact kernel, the Sylow search, the mod-m
echelon, the solution spaces and the quotient with adapted representatives
(a pure-Python Smith form over Z) are the oracle's own, so criterion 2
shares no elimination with `h2`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .abelian import AbelianGroupData, AbelianStructure, structure_of_members
from .errors import CapacityError, InternalCheckError
from .groups import FiniteGroup, _small_generating_set
from .ntheory import factorize, is_power_of, prime_divisors, valuation

ORACLE_DIRECT_CAP = 25


def _echelon_mod(rows: np.ndarray, m: int):
    """Row space of `rows` in (Z/m)^dim as an echelon list with pivots
    dividing m and annihilator rows propagated (numpy column sweeps)."""
    A = rows % m
    A = A[(A != 0).any(axis=1)]
    dim = rows.shape[1]
    done = []
    extra = []
    since_compact = 0
    for c in range(dim):
        if extra:
            add = np.array(extra, dtype=np.int64)
            A = np.vstack([A, add]) if len(A) else add
            extra = []
        if len(A) == 0:
            continue
        col = A[:, c]
        while True:
            nz = np.nonzero(col)[0]
            if len(nz) <= 1:
                break
            piv = nz[int(np.argmin(col[nz]))]
            q = col // col[piv]
            q[piv] = 0
            mask = q != 0
            if not mask.any():
                break
            A[mask] = (A[mask] - np.outer(q[mask], A[piv])) % m
            col = A[:, c]
        nz = np.nonzero(col)[0]
        if len(nz):
            piv = int(nz[0])
            prow = A[piv].copy()
            g = math.gcd(int(prow[c]), m)
            if int(prow[c]) != g:
                u = _unit_for(int(prow[c]), g, m)
                prow = (prow * u) % m
            done.append(prow)
            ann = m // g
            if ann > 1:
                arow = (prow * ann) % m
                if arow.any():
                    extra.append(arow)
            A[piv] = 0
        since_compact += 1
        if since_compact >= 32:
            A = A[(A != 0).any(axis=1)]
            since_compact = 0
    return done


def _unit_for(a: int, g: int, m: int) -> int:
    a0, m0 = a // g, m // g
    u = pow(a0, -1, m0) if m0 > 1 else 1
    while math.gcd(u, m) != 1:
        u += m0
    return u % m


def _solution_gens(echelon_rows, dim: int, m: int):
    eq = [list(map(int, r)) for r in echelon_rows if any(int(x) % m for x in r)]
    if not eq:
        return [[int(i == j) for j in range(dim)] for i in range(dim)]
    nr = len(eq)
    mat = [r + [m if i == j else 0 for j in range(nr)] for i, r in enumerate(eq)]
    basis, _ = _kernel_basis(mat, dim + nr)
    out = []
    for v in basis:
        x = [a % m for a in v[:dim]]
        if any(x):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# the Z-exact kernel and the Sylow search
# ---------------------------------------------------------------------------

def _kernel_basis(rows, ncols: int):
    """Saturated integer basis of {x : A x = 0} for A given by rows.

    Column-HNF approach: find unimodular V with A V = [H | 0]; the kernel
    lattice basis consists of the trailing columns of V.

    Returns (basis, rank): the kernel vectors as lists and the rank of A.
    """
    A = [list(map(int, r)) for r in rows]
    nr = len(A)
    n = ncols
    V = np.eye(n, dtype=np.int64)
    obj = False
    guard = 1 << 60
    r = 0
    for i in range(nr):
        while r < n:
            row = A[i]
            nz = [j for j in range(r, n) if row[j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(row[j]))
            if jmin != r:
                for rr in A:
                    rr[r], rr[jmin] = rr[jmin], rr[r]
                V[:, [r, jmin]] = V[:, [jmin, r]]
            done = True
            p = A[i][r]
            vmax = int(np.abs(V).max()) if not obj else None
            for j in range(r + 1, n):
                if A[i][j]:
                    q = A[i][j] // p
                    if q:
                        if not obj and (abs(q) + 1) * vmax > guard:
                            V, obj = V.astype(object), True
                        for rr in A:
                            if rr[r]:
                                rr[j] -= q * rr[r]
                        V[:, j] -= q * V[:, r]
                    if A[i][j]:
                        done = False
            if done:
                break
        if r < n and A[i][r]:
            r += 1
    kdim = n - r
    basis = [[int(V[k, r + j]) for k in range(n)] for j in range(kdim)]
    # every basis vector against every row, in one product
    A0 = np.array(rows, dtype=object).reshape(nr, n)
    tail = V[:, r:]
    if A0.size and tail.size and \
            int(np.abs(A0).max()) * int(np.abs(tail).max()) * n < 1 << 63:
        A0, tail = A0.astype(np.int64), tail.astype(np.int64)
    else:
        tail = tail.astype(object)
    if (A0 @ tail).any():
        raise InternalCheckError("kernel basis verification failed")
    return basis, r


def _sylow_subgroup(group: FiniteGroup, p: int) -> tuple:
    """Members of a Sylow p-subgroup (grown through normalizers)."""
    target = p ** valuation(group.order, p)
    members = (0,)
    while len(members) < target:
        mset = set(members)
        grown = None
        for g in range(group.order):
            if g in mset:
                continue
            if not is_power_of(group.element_order(g), p):
                continue
            if not all(group.conj(x, g) in mset for x in members):
                continue
            cand = group.subgroup_closure(list(members) + [g])
            if is_power_of(len(cand), p):
                grown = cand
                break
        if grown is None:
            raise InternalCheckError("Sylow growth stalled")
        members = grown
    return members


# ---------------------------------------------------------------------------
# the quotient reference: exact over Z, pure Python
# ---------------------------------------------------------------------------

def _smith_normal_form(rows, ncols: int):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns (diag, vinv) where diag is the list of diagonal entries
    (nonnegative, divisibility chain d1 | d2 | ...) and vinv = V^{-1} for
    the column transform V in U A V = D.  Row i of vinv generates the i-th
    cyclic factor of Z^ncols / rowspan(A).
    """
    A = [list(map(int, r)) for r in rows]
    nr = len(A)
    vinv = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    r = c = 0
    diag: list[int] = []
    while r < nr and c < ncols:
        best = None
        bv = 0
        for i in range(r, nr):
            row = A[i]
            for j in range(c, ncols):
                v = row[j]
                if v and (best is None or abs(v) < bv):
                    best = (i, j)
                    bv = abs(v)
                    if bv == 1:
                        break
            if bv == 1 and best is not None:
                break
        if best is None:
            break
        bi, bj = best
        A[r], A[bi] = A[bi], A[r]
        if bj != c:
            for row in A:
                row[c], row[bj] = row[bj], row[c]
            vinv[c], vinv[bj] = vinv[bj], vinv[c]
        clean = True
        p = A[r][c]
        for i in range(nr):
            if i != r and A[i][c]:
                q = A[i][c] // p
                if q:
                    ri_, rr_ = A[i], A[r]
                    for j in range(c, ncols):
                        ri_[j] -= q * rr_[j]
                if A[i][c]:
                    clean = False
        for j in range(c + 1, ncols):
            if A[r][j]:
                q = A[r][j] // p
                if q:
                    for i in range(nr):
                        A[i][j] -= q * A[i][c]
                    vc, vj = vinv[c], vinv[j]
                    for k in range(ncols):
                        vc[k] += q * vj[k]
                if A[r][j]:
                    clean = False
        if not clean:
            continue
        bad = None
        for i in range(r + 1, nr):
            row = A[i]
            for j in range(c + 1, ncols):
                if row[j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            rr_, rb_ = A[r], A[bad]
            for j in range(ncols):
                rr_[j] += rb_[j]
            continue
        diag.append(abs(p))
        r += 1
        c += 1
    return diag, vinv


def _hnf_basis(rows, ncols: int):
    """Triangular basis of the (full-rank) lattice spanned by the given rows.

    Row-style Hermite form: basis[c] has its first nonzero entry at column c.
    Raises InternalCheckError if the lattice is not full rank.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    basis = []
    for c in range(ncols):
        while True:
            cand = [r for r in mat if r[c] != 0 and all(r[j] == 0 for j in range(c))]
            if not cand:
                break
            cand.sort(key=lambda r: abs(r[c]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[c] // piv[c]
                if q:
                    for j in range(c, ncols):
                        r[j] -= q * piv[j]
                if r[c]:
                    done = False
            if done:
                mat = [r for r in mat if any(r)]
                break
        pivs = [r for r in mat if r[c] != 0 and all(r[j] == 0 for j in range(c))]
        if not pivs:
            raise InternalCheckError("lattice not full rank at column %d" % c)
        basis.append(pivs[0])
        mat.remove(pivs[0])
    return basis


def _coords_in_basis(basis, v):
    """x with x @ basis = v for triangular basis rows, or None if v is outside."""
    n = len(basis)
    v = list(map(int, v))
    x = [0] * n
    for c in range(n):
        if v[c]:
            if v[c] % basis[c][c]:
                return None
            q = v[c] // basis[c][c]
            x[c] = q
            brow = basis[c]
            for j in range(c, n):
                v[j] -= q * brow[j]
    if any(v):
        return None
    return x


def _quotient_with_reps(sol_gens, sub_gens, dim: int, m: int):
    """Adapted generators of (span(sol)+mZ^dim)/(span(sub)+mZ^dim).

    Requires span(sub) + mZ^dim to be contained in span(sol) + mZ^dim.
    Returns a list of (order, representative_vector) with order > 1 and the
    cyclic subgroups generated by the representatives summing directly.
    """
    L1rows = [list(map(int, g)) for g in sol_gens]
    L1rows += [[m if i == j else 0 for j in range(dim)] for i in range(dim)]
    B1 = _hnf_basis(L1rows, dim)
    sub_rows = [list(map(int, g)) for g in sub_gens]
    sub_rows += [[m if i == j else 0 for j in range(dim)] for i in range(dim)]
    coords = []
    for v in sub_rows:
        x = _coords_in_basis(B1, v)
        if x is None:
            raise InternalCheckError("relation vector outside the ambient lattice")
        coords.append(x)
    diag, vinv = _smith_normal_form(coords, dim)
    out = []
    for i in range(dim):
        d = diag[i] if i < len(diag) else 0
        dd = math.gcd(d, m) if d else m
        if dd == 1:
            continue
        rowv = vinv[i]
        amb = [0] * dim
        for r2 in range(dim):
            cr = rowv[r2]
            if cr:
                brow = B1[r2]
                for j in range(dim):
                    amb[j] += cr * brow[j]
        out.append((dd, [a % m for a in amb]))
    return out


class OracleCocycles:
    """Full-pair cocycle data of G mod m = p^e."""

    def __init__(self, group: FiniteGroup, m: int):
        self.group = group
        self.m = m
        n = group.order
        self.pairs = [(g, h) for g in range(1, n) for h in range(1, n)]
        self.index = {pr: i for i, pr in enumerate(self.pairs)}
        self.dim = len(self.pairs)
        S = _small_generating_set(group) if n > 1 else []
        t = group.table
        rows = []
        for g in range(1, n):
            for h in range(1, n):
                gh = t[g][h]
                for s in S:
                    hs = t[h][s]
                    row = np.zeros(self.dim, dtype=np.int64)
                    row[self.index[(g, h)]] += 1
                    if gh != 0:
                        row[self.index[(gh, s)]] += 1
                    row[self.index[(h, s)]] -= 1
                    if hs != 0:
                        row[self.index[(g, hs)]] -= 1
                    if row.any():
                        rows.append(row % m)
        arr = np.array(rows, dtype=np.int64) if rows else \
            np.zeros((0, self.dim), dtype=np.int64)
        if len(arr):
            arr = np.unique(arr, axis=0)
        ech = _echelon_mod(arr, m)
        self.sol = _solution_gens(ech, self.dim, m)
        self.sub = self._coboundaries() + self._carries()

    def _coboundaries(self):
        n = self.group.order
        t = self.group.table
        out = []
        for g0 in range(1, n):
            v = [0] * self.dim
            for (g, h), j in self.index.items():
                val = (g == g0) + (h == g0) - (t[g][h] == g0)
                v[j] = val % self.m
            if any(v):
                out.append(v)
        return out

    def _carries(self):
        group = self.group
        m = self.m
        ab, proj = group.abelianization()
        data = structure_of_members(ab, range(ab.order))
        out = []
        for i, d in enumerate(data.basis_orders):
            scale = m // math.gcd(d, m)
            chi = [(data.coords[proj[g]][i] * scale) % m
                   for g in range(group.order)]
            v = [0] * self.dim
            for (g, h), j in self.index.items():
                tot = chi[g] + chi[h] - chi[group.table[g][h]]
                if tot % m:
                    raise InternalCheckError("oracle carry: chi not a hom")
                v[j] = (tot // m) % m
            out.append(v)
        return out

    def quotient_divisors(self):
        reps = _quotient_with_reps(self.sol, self.sub, self.dim, self.m)
        return [d for d, _ in reps], [v for _, v in reps]


def oracle_h2(group: FiniteGroup, cap: int = ORACLE_DIRECT_CAP) -> AbelianStructure:
    """H2(G, Z) through the cocycle quotient, one prime power at a time."""
    if group.order <= cap:
        factors = []
        for p, e in factorize(group.order).items():
            m = p ** e
            oc = OracleCocycles(group, m)
            divisors, _ = oc.quotient_divisors()
            factors.extend(divisors)
        return AbelianStructure.from_cyclic_orders(factors)
    factors = []
    for p in prime_divisors(group.order):
        syl = _sylow_subgroup(group, p)
        psub, to_parent = group.subgroup_as_group(syl)
        if psub.order > cap:
            raise CapacityError("oracle: Sylow subgroup exceeds the cap")
        part = oracle_h2(psub, cap)
        if part.is_trivial():
            continue
        sset = set(syl)
        normal = all(group.conj(x, g) in sset
                     for g in range(group.order) for x in syl)
        if not (normal and psub.is_abelian()):
            raise CapacityError(
                "oracle: reduction needs a normal abelian Sylow subgroup")
        factors.extend(_invariant_pairing_factors(group, syl, psub,
                                                  to_parent, p))
    return AbelianStructure.from_cyclic_orders(factors)


def _pairing_tables(psub: FiniteGroup, m: int):
    """Quotient reps of the cocycle space of an abelian p-group together
    with their antisymmetrization tables (a faithful class invariant for
    abelian groups)."""
    oc = OracleCocycles(psub, m)
    divisors, reps = oc.quotient_divisors()
    n = psub.order
    tabs = []
    for v in reps:
        t = {}
        for x in range(1, n):
            for y in range(1, n):
                t[(x, y)] = (v[oc.index[(x, y)]] - v[oc.index[(y, x)]]) % m
        tabs.append(t)
    return divisors, tabs


def _invariant_pairing_factors(group, syl, psub, to_parent, p):
    m = p ** valuation(psub.order, p)
    divisors, tabs = _pairing_tables(psub, m)
    if not divisors:
        return []
    pos = {g: i for i, g in enumerate(to_parent)}
    perms = []
    for g in _small_generating_set(group):
        perms.append([pos[group.conj(to_parent[x], g)]
                      for x in range(psub.order)])
    combos = list(itertools.product(*(range(d) for d in divisors)))
    table_of = {}
    for combo in combos:
        t = {}
        for key in tabs[0]:
            t[key] = sum(a * tab[key] for a, tab in zip(combo, tabs)) % m
        frozen = tuple(sorted(t.items()))
        if frozen in table_of:
            raise InternalCheckError(
                "pairing does not separate classes of the abelian Sylow")
        table_of[frozen] = combo
    fixed = []
    for frozen, combo in sorted(table_of.items()):
        t = dict(frozen)
        ok = True
        for perm in perms:
            moved = {}
            for (x, y), val in t.items():
                moved[(perm[x], perm[y])] = val
            if any(moved[key] != t[key] for key in t):
                ok = False
                break
        if ok:
            fixed.append(combo)
    if len(fixed) <= 1:
        return []
    data = AbelianGroupData(
        fixed,
        lambda a, b: tuple((x + y) % d for x, y, d in zip(a, b, divisors)),
        tuple(0 for _ in divisors))
    return list(data.structure.factors)


def oracle_h2_reduced(group: FiniteGroup, c,
                      cap: int = ORACLE_DIRECT_CAP) -> AbelianStructure:
    """H2(G, c) via the commutator pairing annihilator.

    The annihilator's structure equals H2(G, c) by finite abelian duality.
    Above the direct cap the cocycle classes come from the
    generator-parametrized space instead of the full pair space."""
    cset = sorted(set(int(x) for x in c))
    t = group.table
    pairs = []
    for x in cset:
        for y in range(1, group.order):
            if t[x][y] == t[y][x]:
                pairs.append((x, y))
    if group.order > cap:
        return _reduced_via_parametrized(group, pairs)
    factors = []
    for p, e in factorize(group.order).items():
        m = p ** e
        oc = OracleCocycles(group, m)
        divisors, reps = oc.quotient_divisors()
        if not divisors:
            continue
        rows = []
        for (x, y) in pairs:
            row = []
            for v in reps:
                zxy = v[oc.index[(x, y)]]
                zyx = v[oc.index[(y, x)]]
                row.append((zxy - zyx) % m)
            rows.append(row)
        factors.extend(_pairing_annihilator(rows, divisors, m))
    return AbelianStructure.from_cyclic_orders(factors)


def _pairing_annihilator(rows, divisors, m):
    """Structure of {a in prod Z/d_i : sum_i a_i row_i == 0 mod m, all rows}.

    d_i * row_i vanishes mod m automatically (the pairing kills d_i times
    the i-th generator class), so the solution set is d_i-periodic and the
    plain solution space mod m suffices."""
    k = len(divisors)
    if k == 0:
        return []
    rows2 = np.array([[int(x) % m for x in row] for row in rows],
                     dtype=np.int64) if rows else \
        np.zeros((0, k), dtype=np.int64)
    sols = _solution_gens(_echelon_mod(rows2, m), k, m)
    gens = [list(s) for s in sols]
    for i in range(k):
        v = [0] * k
        v[i] = divisors[i]
        gens.append(v)
    lat = [[divisors[i] if i == j else 0 for j in range(k)] for i in range(k)]
    L = 1
    for d in divisors:
        L = math.lcm(L, d)
    reps = _quotient_with_reps(gens, lat, k, L)
    return [d for d, _ in reps]


def _reduced_via_parametrized(group: FiniteGroup, pairs):
    """Pairing annihilator computed on the generator-parametrized cocycle
    space (used above the full-pair cap)."""
    from .homology import _CocycleSpace
    space = _CocycleSpace(group)
    rows = np.array(space.constraint_rows(), dtype=np.int64).reshape(-1, space.nun)
    factors = []
    for p, e in factorize(group.order).items():
        m = p ** e
        sol = _solution_gens(_echelon_mod(rows, m), space.nun, m)
        sub = space.relation_vectors(m).tolist()
        adapted = _quotient_with_reps(sol, sub, space.nun, m)
        divisors = [d for d, _ in adapted]
        if not divisors:
            continue
        tables = [space.full_table(v, m) for _, v in adapted]
        prows = []
        for (x, y) in pairs:
            prows.append([(tab[x][y] - tab[y][x]) % m for tab in tables])
        factors.extend(_pairing_annihilator(prows, divisors, m))
    return AbelianStructure.from_cyclic_orders(factors)
