"""Exact integer matrix machinery: Smith normal form, lattice kernels,
Hermite-style bases, and quotient structure computations.

Everything here is exact. The mod-m variants exploit that the lattices in
question contain m*Z^d, so entries can be reduced mod m after every
elementary operation without changing the quotient; this keeps coefficients
bounded and lets the hot path run on int64 numpy arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalCheckError
from .ntheory import factorize


# ---------------------------------------------------------------------------
# pure-python exact SNF with optional transform tracking
# ---------------------------------------------------------------------------

def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int,
                      want_vinv: bool = False):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns (diag, vinv) where diag is the list of diagonal entries
    (nonnegative, divisibility chain d1 | d2 | ...) and, when requested,
    vinv = V^{-1} for the column transform V in U A V = D.  Row i of vinv
    generates the i-th cyclic factor of Z^ncols / rowspan(A).
    """
    A = [list(map(int, r)) for r in rows]
    nr = len(A)
    vinv = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_vinv else None
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
            if want_vinv:
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
                    if want_vinv:
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


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int):
    """Saturated integer basis of {x : A x = 0} for A given by rows.

    Column-HNF approach: find unimodular V with A V = [H | 0]; the kernel
    lattice basis consists of the trailing columns of V, and coordinates in
    that basis are read off from the trailing rows of W = V^{-1}.

    Returns (kernel_dim, coord_rows, basis_cols_fn) packaged as
    (rank, W_tail, V_tail_fn); see h2 for usage.  More precisely returns a
    triple (basis, coord, rank) where basis is the list of kernel vectors and
    coord(sparse_dict) gives coordinates of a kernel vector presented as a
    {index: value} dict.
    """
    A = [list(map(int, r)) for r in rows]
    nr = len(A)
    n = ncols
    V = np.eye(n, dtype=np.int64)
    W = np.eye(n, dtype=np.int64)
    obj = False
    guard = 1 << 60

    def promote():
        nonlocal V, W, obj
        if not obj:
            V = V.astype(object)
            W = W.astype(object)
            obj = True

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
                W[[r, jmin], :] = W[[jmin, r], :]
            done = True
            p = A[i][r]
            vmax = int(np.abs(V).max()) if not obj else None
            wmax = int(np.abs(W).max()) if not obj else None
            for j in range(r + 1, n):
                if A[i][j]:
                    q = A[i][j] // p
                    if q:
                        if not obj and (abs(q) + 1) * max(vmax, wmax) > guard:
                            promote()
                        for rr in A:
                            if rr[r]:
                                rr[j] -= q * rr[r]
                        V[:, j] -= q * V[:, r]
                        W[r, :] += q * W[j, :]
                    if A[i][j]:
                        done = False
            if done:
                break
        if r < n and A[i][r]:
            r += 1
    kdim = n - r
    basis = [[int(V[k, r + j]) for k in range(n)] for j in range(kdim)]
    Wtail = [[int(W[r + j, k]) for k in range(n)] for j in range(kdim)]

    def coord(sparse: dict):
        out = []
        for j in range(kdim):
            wrow = Wtail[j]
            s = 0
            for k, a in sparse.items():
                if a:
                    s += wrow[k] * a
            out.append(s)
        return out

    # spot verification: every basis vector really lies in the kernel
    for b in basis[:2] + basis[-2:]:
        for orig in rows[:4]:
            s = sum(int(orig[k]) * b[k] for k in range(n) if b[k])
            if s != 0:
                raise InternalCheckError("kernel basis verification failed")
    return basis, coord, r


# ---------------------------------------------------------------------------
# lattice bases and membership
# ---------------------------------------------------------------------------

def hnf_basis(rows: Iterable[Sequence[int]], ncols: int):
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


def coords_in_basis(basis, v):
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


# ---------------------------------------------------------------------------
# mod-m quotient structure (numpy fast path)
# ---------------------------------------------------------------------------

def quotient_divisors_mod(gens, dim: int, m: int):
    """Elementary divisors (> 1) of Z^dim / (span(gens) + m Z^dim).

    gens: iterable of integer vectors of length dim.  All arithmetic is done
    mod m; this is exact because the lattice contains m Z^dim, so reducing an
    entry mod m is an elementary column operation against that sublattice.
    """
    if dim == 0:
        return []
    if m == 1:
        return []
    rows = [g for g in gens]
    A = np.zeros((len(rows) + dim, dim), dtype=np.int64)
    for i, g in enumerate(rows):
        A[i, :] = [x % m for x in g]
    for i in range(dim):
        A[len(rows) + i, i] = m
    diag = _snf_mod_inplace(A, m)
    divisors = [math.gcd(int(d), m) for d in diag]
    divisors += [m] * (dim - len(diag))
    return sorted(d for d in divisors if d != 1)


def _snf_mod_inplace(A: np.ndarray, m: int):
    """SNF diagonal of A, valid modulo m (A's rowspan must contain m Z^dim).

    Entries are kept in [0, m); quotient correctness relies on the caller
    having included the m*I rows.  Returns the diagonal as a python list.
    """
    if m > (1 << 30):
        raise InternalCheckError("modulus too large for int64 mod-SNF")
    nr, nc = A.shape
    A %= m
    r = c = 0
    diag = []
    while r < nr and c < nc:
        sub = A[r:, c:]
        nzr, nzc = np.nonzero(sub)
        if len(nzr) == 0:
            break
        vals = sub[nzr, nzc]
        k = int(np.argmin(vals))
        bi, bj = int(nzr[k]) + r, int(nzc[k]) + c
        if bi != r:
            A[[r, bi], :] = A[[bi, r], :]
        if bj != c:
            A[:, [c, bj]] = A[:, [bj, c]]
        p = int(A[r, c])
        col = A[:, c].copy()
        col[r] = 0
        if col.any():
            q = col // p
            A -= np.outer(q, A[r, :])
            A %= m
            if (A[:, c] != 0).sum() > (1 if A[r, c] else 0):
                continue
            if A[r, c] == 0:
                continue
        row = A[r, :].copy()
        row[c] = 0
        if row.any():
            q = row // p
            A -= np.outer(A[:, c], q)
            A %= m
            rr = A[r, :]
            if (rr != 0).sum() > (1 if rr[c] else 0):
                continue
            if rr[c] == 0:
                continue
        p = int(A[r, c])
        # divisibility of the remaining block
        rest = A[r + 1:, c + 1:]
        if rest.size:
            badrows = np.nonzero((rest % p).any(axis=1))[0]
            if len(badrows):
                A[r, :] += A[r + 1 + int(badrows[0]), :]
                A %= m
                continue
        diag.append(p)
        r += 1
        c += 1
    return diag


def quotient_with_reps_mod(sol_gens, sub_gens, dim: int, m: int):
    """Adapted generators of (span(sol)+mZ^dim)/(span(sub)+mZ^dim).

    Requires span(sub) + mZ^dim to be contained in span(sol) + mZ^dim.
    Returns a list of (order, representative_vector) with order > 1 and the
    cyclic subgroups generated by the representatives summing directly.
    """
    L1rows = [list(map(int, g)) for g in sol_gens]
    L1rows += [[m if i == j else 0 for j in range(dim)] for i in range(dim)]
    B1 = hnf_basis(L1rows, dim)
    sub_rows = [list(map(int, g)) for g in sub_gens]
    sub_rows += [[m if i == j else 0 for j in range(dim)] for i in range(dim)]
    coords = []
    for v in sub_rows:
        x = coords_in_basis(B1, v)
        if x is None:
            raise InternalCheckError("relation vector outside the ambient lattice")
        coords.append(x)
    diag, vinv = smith_normal_form(coords, dim, want_vinv=True)
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


def solve_linear_mod(rows, rhs, nvars: int, m: int):
    """One solution x of rows @ x = rhs (mod m), or None.

    Solved exactly over Z via the augmented system A x + m y = rhs.
    """
    nr = len(rows)
    if nr == 0:
        return [0] * nvars
    ncols = nvars + nr
    A = [list(map(int, r)) + [m if i == j else 0 for j in range(nr)]
         for i, r in enumerate(rows)]
    D, U, V = _snf_full_transforms(A, nr, ncols)
    ur = [sum(U[i][k] * int(rhs[k]) for k in range(nr)) for i in range(nr)]
    z = [0] * ncols
    for i in range(nr):
        d = D[i][i] if i < ncols else 0
        if d:
            if ur[i] % d:
                return None
            z[i] = ur[i] // d
        elif ur[i]:
            return None
    x = [sum(V[i][k] * z[k] for k in range(ncols) if z[k]) for i in range(ncols)]
    return [xi % m for xi in x[:nvars]]


def _snf_full_transforms(A, nr, nc):
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]
    r = c = 0
    while r < nr and c < nc:
        best = None
        bv = 0
        for i in range(r, nr):
            for j in range(c, nc):
                v = A[i][j]
                if v and (best is None or abs(v) < bv):
                    best = (i, j)
                    bv = abs(v)
        if best is None:
            break
        bi, bj = best
        A[r], A[bi] = A[bi], A[r]
        U[r], U[bi] = U[bi], U[r]
        if bj != c:
            for row in A:
                row[c], row[bj] = row[bj], row[c]
            for row in V:
                row[c], row[bj] = row[bj], row[c]
        clean = True
        p = A[r][c]
        for i in range(nr):
            if i != r and A[i][c]:
                q = A[i][c] // p
                if q:
                    for j in range(nc):
                        A[i][j] -= q * A[r][j]
                    for j in range(nr):
                        U[i][j] -= q * U[r][j]
                if A[i][c]:
                    clean = False
        for j in range(c + 1, nc):
            if A[r][j]:
                q = A[r][j] // p
                if q:
                    for i in range(nr):
                        A[i][j] -= q * A[i][c]
                    for i in range(nc):
                        V[i][j] -= q * V[i][c]
                if A[r][j]:
                    clean = False
        if not clean:
            continue
        r += 1
        c += 1
    return A, U, V


def howell_form_mod(gens, dim: int, m: int):
    """Howell triangular form of the Z/m-module spanned by gens in (Z/m)^dim.

    Returns a dim x dim row matrix H: row c has pivot H[c][c] dividing m at
    column c (m itself when the projection is free there), zeros below-left,
    entries above each pivot reduced modulo it, and the row list closed under
    annihilator multiples.  howell_residue(H, v, m) is then a canonical coset
    representative: v, w are congruent mod the module iff their residues agree.
    """
    pending = []
    for g in gens:
        v = [int(x) % m for x in g]
        if any(v):
            pending.append(v)
    H = []
    for c in range(dim):
        pool = [r for r in pending if r[c]]
        rest = [r for r in pending if not r[c] and any(r)]
        if pool:
            piv = pool[0]
            for r in pool[1:]:
                # integer gcd steps on representatives in [0, m)
                a, b = piv, r
                while b[c]:
                    q = a[c] // b[c]
                    a = [(x - q * y) % m for x, y in zip(a, b)]
                    a, b = b, a
                piv = a
                if any(b):
                    rest.append(b)
            g0 = math.gcd(piv[c], m)
            if piv[c] != g0:
                u = _unit_scale(piv[c], g0, m)
                piv = [(u * x) % m for x in piv]
            ann = m // g0
            if ann > 1:
                extra = [(ann * x) % m for x in piv]
                if any(extra):
                    rest.append(extra)
            H.append(piv)
        else:
            row = [0] * dim
            row[c] = m
            H.append(row)
        pending = rest
    # normalize: represent free pivots as m (reduction by them is a no-op)
    for c in range(dim):
        if H[c][c] == 0:
            H[c] = [0] * dim
            H[c][c] = m
    # reduce entries above each pivot
    for c in range(dim - 1, -1, -1):
        piv = H[c][c]
        for r in range(c):
            q = H[r][c] // piv
            if q:
                H[r] = [(a - q * b) % m for a, b in zip(H[r], H[c])]
    return H


def _unit_scale(a: int, g: int, m: int) -> int:
    """A unit u mod m with u*a == g (mod m), where g = gcd(a, m)."""
    a0, m0 = a // g, m // g
    u = pow(a0, -1, m0) if m0 > 1 else 1
    for t in range(m // m0 + 1):
        cand = u + t * m0
        if math.gcd(cand, m) == 1:
            return cand % m
    raise InternalCheckError("no unit lift found")


def howell_residue(H, v, m: int):
    """Canonical representative of v modulo the module described by H."""
    v = [int(x) % m for x in v]
    for c in range(len(H)):
        piv = H[c][c]
        if v[c] % m:
            q = (v[c] % m) // piv
            if q:
                row = H[c]
                for j in range(c, len(v)):
                    v[j] = (v[j] - q * row[j]) % m
    return tuple(v)


def divisor_chain(factors: Iterable[int]):
    """Canonical divisor chain d1 | d2 | ... from arbitrary cyclic factor orders.

    Merges prime-power pieces so the output is the invariant-factor form.
    """
    ppow: dict[int, list[int]] = {}
    for f in factors:
        for p, e in factorize(int(f)).items():
            ppow.setdefault(p, []).append(p ** e)
    if not ppow:
        return []
    k = max(len(v) for v in ppow.values())
    chain = [1] * k
    for p, lst in ppow.items():
        lst.sort(reverse=True)
        for i, q in enumerate(lst):
            chain[k - 1 - i] *= q
    return [d for d in chain if d > 1]
