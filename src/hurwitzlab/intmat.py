"""Exact integer matrix machinery for lattices that contain m*Z^d.

Every lattice on the main path contains m*Z^d for a known m: Cayley graph
cycles modulo Hopf relations (m = the non-cyclic Sylow part of |G|),
cocycles modulo coboundaries (m = p^e) and free Gamma-modules modulo
relations (m = the exponent).  Such a lattice is worked as a submodule of
(Z/m)^d: reducing an entry modulo m is an elementary operation against
m*Z^d, so it leaves the quotient alone, keeps the entries bounded, and
lets the work run on int64 numpy arrays.

Each job has one route, and the Howell and divisor routes run the
local-ring pivot: over each p^e dividing m, pivot on an entry of least
p-valuation, which divides its column, so no gcd step is needed.

* Submodules are reduced Howell forms (`howell_form_mod`, swept by
  `_howell_local` on sparse {column: value} rows).  The form is unique,
  so its residues are canonical coset labels (`howell_residue`).  A step
  touches only the rows that hold its column, so the Howell form of the
  Hopf rows of D250 (1,002 rows over 501 columns, a handful of nonzeros
  each) costs their fill-in, not rows x columns^2.  Kernels and preimages
  are read off one such form (`preimage_mod`): the Howell rows of the
  span of (A[:, j], e_j) and (s, 0) that are zero on A's side
  (Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
  ESA 1998).
* Divisors of a quotient come from the local-ring stack
  (`quotient_divisors_stack`, `_local_exponents`): on a whole stack of
  small matrices a pivot step is the same few array operations however
  the entries fall.  `quotient_divisors_mod` first eliminates the unit
  pivots of sparse rows (`_unit_pivots`), which cost no gcd step, and
  sends the dense block left as one slice (Dumas, Saunders and Villard,
  "On efficient sparse integer matrix Smith normal form computations",
  J. Symbolic Comput. 2001).  The stack's reductions modulo p^j are
  `_mod`, A - m * (A // m): numpy 2.4 divides an integer array by a
  scalar through libdivide but takes a slow path for the remainder, so
  on a (200, 9, 8) int64 block A % 3 takes 78 us and the floor-division
  form 15 us (2-core Xeon, numpy 2.4.6).  The stack runs in int32, where
  that step takes 7 us, whenever q^2 < 2^31 for q = p^e, since every
  entry of a pivot step is then below 2^31 in magnitude.
* `_smith_mod`, Smith form modulo m with the column transform V, gives
  the dual basis of the Hopf quotient that Schur covers are read off.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

import numpy as np

from .errors import InternalCheckError
from .ntheory import factorize


# ---------------------------------------------------------------------------
# divisors: unit pivots, then the local-ring stack
# ---------------------------------------------------------------------------

def quotient_divisors_mod(gens, dim: int, m: int):
    """Elementary divisors (> 1) of Z^dim / (span(gens) + m Z^dim).

    A generator is a sequence of dim integers or a sparse {column: value}
    dict.  Unit pivots are eliminated on the sparse rows first; the rows
    left, none of which holds a unit, go to `quotient_divisors_stack` as
    one dense slice over the columns they touch, and every other column
    left over gives a Z/m.
    """
    rest, pivots = _unit_pivots(_sparse_rows(gens, m), m)
    cols = sorted({j for r in rest for j in r})
    at = {j: k for k, j in enumerate(cols)}
    A = np.zeros((1, len(rest), len(cols)), dtype=np.int64)
    for i, r in enumerate(rest):
        for j, a in r.items():
            A[0, i, at[j]] = a
    divisors = quotient_divisors_stack(A, m)[0].tolist() + \
        [m] * (dim - pivots - len(cols))
    return sorted(d for d in divisors if d != 1)


def _sparse_rows(gens, m: int) -> list:
    """The generators, each a sequence of integers or a sparse {column:
    value} dict (or the rows of a 2-d array), as {column: value} dicts of
    their entries reduced into [1, m)."""
    if isinstance(gens, np.ndarray):
        A = gens % m
        return [dict(zip(nz.tolist(), row[nz].tolist()))
                for row in A for nz in [row.nonzero()[0]]]
    return [{j: a % m for j, a in (g.items() if isinstance(g, dict)
                                   else enumerate(g)) if a % m}
            for g in gens]


def _unit_pivots(rows: list, m: int):
    """Eliminate unit pivots from sparse rows over Z/m, in place.

    Each step takes the shortest row holding a unit entry, and in it the
    unit whose column holds the fewest rows (Markowitz's choice, to keep
    fill-in low), and clears that column from every other row.  The pivot
    row and its column then split off a Z/1.  Returns the rows left, none
    of them zero or holding a unit, and the number of pivots.
    """
    live = {i: r for i, r in enumerate(rows) if r}
    holders: dict = {}
    for i, r in live.items():
        for j in r:
            holders.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in live.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, i = heapq.heappop(heap)
        row = live.get(i)
        if row is None or len(row) != size:
            continue            # stale: the row was pivoted or has changed
        units = [j for j, a in row.items() if math.gcd(a, m) == 1]
        if not units:
            continue            # pushed again if a later step changes it
        c = min(units, key=lambda j: (len(holders[j]), j))
        inv = pow(row[c], -1, m)
        del live[i]
        for j in row:
            holders[j].discard(i)
        for k in sorted(holders.pop(c)):
            other = live[k]
            f = other.pop(c) * inv % m
            for j, a in row.items():
                if j == c:
                    continue
                v = (other.get(j, 0) - f * a) % m
                if v:
                    if j not in other:
                        holders[j].add(k)
                    other[j] = v
                elif j in other:
                    del other[j]
                    holders[j].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
            else:
                del live[k]
        pivots += 1
    return list(live.values()), pivots


def quotient_divisors_stack(A: np.ndarray, m: int) -> np.ndarray:
    """Invariant factors of Z^C / (span(A[t]) + m Z^C) for every slice of a
    (T, R, C) integer array, as a (T, C) int64 array whose rows divide
    upwards, ones first; the entries > 1 of row t are
    quotient_divisors_mod(A[t], C, m).

    By CRT the quotient is the sum of its parts over Z/p^e, each brought
    to Smith form by `_local_exponents`; row t multiplies the parts' p^a,
    each part's exponents sorted ascending.
    """
    if m > (1 << 30):
        raise InternalCheckError("modulus too large for int64 mod-SNF")
    A = np.asarray(A, dtype=np.int64)
    T, _, C = A.shape
    out = np.ones((T, C), dtype=np.int64)
    for p, e in factorize(m).items():
        exps = np.sort(_local_exponents(_mod(A, p ** e), p, e), axis=1)
        out *= np.power(p, exps)
    return out


def _local_exponents(A: np.ndarray, p: int, e: int) -> np.ndarray:
    """Exponents a_1..a_C with Z^C / (span(A[t]) + p^e Z^C) = (+) Z/p^a_i,
    for each slice of a (T, R, C) array with entries in [0, p^e).

    Over the local ring Z/p^e an entry p^v u (u a unit) of least valuation
    divides every entry of its matrix, so it is a Smith pivot: each other
    row, scaled by the unit u, clears its entry in the pivot column with
    the exact quotient by p^v, and the pivot row then clears by column
    operations that touch nothing else.  No gcd steps are needed, so each
    pivot step is one set of array operations across the whole stack; a
    zero slice has v = e and stays zero.  The work runs on a copy in int32
    when q^2 < 2^31 (q = p^e): every entry of unit * A - factor * piv is
    below q^2 in magnitude.
    """
    q = p ** e
    T, R, C = A.shape
    A = A.astype(np.int32 if q * q < 1 << 31 else np.int64)
    out = np.full((T, C), e, dtype=np.int64)
    at = np.arange(T)
    for s in range(min(R, C)):
        r, c = A.shape[1:]
        flat = _valuation(A, p, e).reshape(T, r * c)
        k = flat.argmin(axis=1)
        v = flat[at, k]
        out[:, s] = v
        if (v == e).all():
            break
        i, j = np.divmod(k, c)
        pv = np.power(p, v).astype(A.dtype)
        piv = A[at, i]
        unit = piv[at, j] // pv
        # the pivot row leaves; row 0 takes its slot
        A[at, i] = A[:, 0]
        A = A[:, 1:]
        factor = A[at, :, j] // pv[:, None]
        A = _mod(unit[:, None, None] * A - factor[:, :, None] * piv[:, None, :],
                 q)
        # the cleared pivot column leaves; column 0 takes its slot
        A[at, :, j] = A[:, :, 0]
        A = A[:, :, 1:]
    return out


def _mod(A: np.ndarray, m: int) -> np.ndarray:
    """A % m for m >= 1, through floor division: numpy divides an integer
    array by a scalar with libdivide, but takes a slow path for %."""
    return A - m * (A // m)


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


# ---------------------------------------------------------------------------
# Howell forms: canonical residues, kernels and preimages
# ---------------------------------------------------------------------------

def howell_form_mod(gens, dim: int, m: int):
    """The reduced Howell form of the Z/m-module spanned by gens in (Z/m)^dim.

    A generator is a sequence of dim integers or a sparse {column: value}
    dict, as in `quotient_divisors_mod`.  Returns a dim x dim row matrix
    H: row c has pivot H[c][c] dividing m at column c (m itself when the
    projection is free there), zeros below-left, entries above each pivot
    reduced into [0, pivot), and the rows from c on span every element of
    the module that is zero before column c.  Such a form is unique
    (Howell 1986; Storjohann and Mulders, ESA 1998), so H depends on the
    module only, and howell_residue(H, v, m) is a canonical coset
    representative: v, w are congruent mod the module iff their residues
    agree.

    By CRT the module is the sum of its parts over Z/p^e for the prime
    powers of m; each part is brought to Howell form by `_howell_local`.
    Row c joins the parts' rows, each scaled by the unit that turns its
    pivot p^v into d = prod p^v, so the joined pivot is d; the entries
    above the pivots are then reduced from left to right, each step
    touching only the rows whose entry in its column is at least that
    pivot (the others have quotient 0) and leaving alone the columns
    before it.
    """
    if m > (1 << 30):
        raise InternalCheckError("modulus too large for int64 Howell form")
    rows = _sparse_rows(gens, m)
    parts = []
    for p, e in factorize(m).items():
        q = p ** e
        local = [{j: a % q for j, a in r.items() if a % q} for r in rows]
        parts.append((q, *_howell_local(local, dim, p, e)))
    d = np.ones(dim, dtype=np.int64)
    for q, _, pv in parts:
        d *= pv
    H = np.zeros((dim, dim), dtype=np.int64)
    for q, Hq, pv in parts:
        crt = m // q * pow(m // q, -1, q)
        H = (H + Hq * (d // pv % q)[:, None] % q * crt) % m
    for c in range(dim):
        above = np.flatnonzero(H[:c, c] >= d[c])
        if len(above):
            B = H[above, c:]
            B -= B[:, :1] // d[c] * H[c, c:]
            H[above, c:] = B % m
    np.fill_diagonal(H, d)
    return H.tolist()


def _howell_local(rows: list, dim: int, p: int, e: int):
    """Howell form over Z/p^e of the span of sparse {column: value} rows
    (values in [1, p^e)): the (dim, dim) rows and each row's pivot p^v
    (p^e where it is zero).  The rows are consumed.

    Column by column, of the rows holding the column, the first whose
    entry p^v u (u a unit) has least valuation, scaled by u^-1, is the
    pivot row.  p^v divides the column, so subtracting multiples of the
    pivot row clears it from every row that holds it, the pivot row
    included, and that row's slot takes the annihilator multiple
    p^(e-v) times the pivot row, zero in the column.  A row without the
    column is left as it is, so each step costs the rows holding the
    column times the length of the pivot row, not the whole array.  The
    rows stay zero before the next column, and they and the rows of H
    from the column on span the elements of the module that are zero
    before it.
    """
    q = p ** e
    holders: dict = {}          # column -> the rows holding it
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    H = np.zeros((dim, dim), dtype=np.int64)
    pv = np.full(dim, q, dtype=np.int64)
    for c in range(dim):
        at = sorted(holders.pop(c, ()))
        if not at:
            continue
        i, v = at[0], e
        for k in at:
            a, w = rows[k][c], 0
            while a % p == 0:
                a //= p
                w += 1
            if w < v:
                i, v = k, w
                if not v:
                    break
        pc = p ** v
        piv = rows[i]
        u = pow(piv[c] // pc, -1, q)
        h = {j: a * u % q for j, a in piv.items()}
        H[c, list(h)] = list(h.values())
        pv[c] = pc
        for k in at:
            r = rows[k]
            f = r.pop(c) // pc
            for j, a in h.items():
                if j == c:
                    continue
                x = (r.get(j, 0) - f * a) % q
                if x:
                    if j not in r:
                        holders.setdefault(j, set()).add(k)
                    r[j] = x
                elif j in r:
                    del r[j]
                    holders[j].discard(k)
        # the pivot row is now zero: its slot takes p^(e-v) times H[c]
        for j, a in h.items():
            x = a * (q // pc) % q
            if x:
                piv[j] = x
                holders[j].add(i)
    return H, pv


def _valuation(A: np.ndarray, p: int, e: int) -> np.ndarray:
    """The p-adic valuation of each entry of A, entries in [0, p^e), capped
    at e: of those entries only 0 is divisible by p^e."""
    val = (A == 0).astype(np.int64)
    for j in range(1, e):
        val += _mod(A, p ** j) == 0
    return val


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


def _mulmod(A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """A @ B mod m for arrays with entries in [0, m), free of int64 overflow."""
    if (m - 1) ** 2 * A.shape[1] >= 1 << 63:
        A, B = A.astype(object), B.astype(object)
    return (A @ B) % m


def preimage_mod(rows, nun: int, m: int, sub=()):
    """The reduced Howell form, as `howell_form_mod` gives it, of
    {x in (Z/m)^nun : A x in span(sub)}, A the r x nun integer rows and
    sub a sequence of vectors of length r: with no sub, the kernel of A.

    The module spanned by (A[:, j], e_j), j < nun, and (s, 0), s in sub,
    in (Z/m)^(r + nun) holds (A x - t, x) for every x and every t in
    span(sub), so its elements that are zero in the first r coordinates
    are the (0, x) with x in the preimage.  Its reduced Howell form spans
    those with its rows from column r on, which are zero before it and
    reduced among themselves: that block is the reduced Howell form of
    the preimage (Storjohann and Mulders, ESA 1998).  Checked: A x == 0
    (mod m) for each row x of the form or, given sub, A x has Howell
    residue 0 against it.
    """
    r = len(rows)
    A = np.asarray(rows, dtype=np.int64).reshape(r, nun) % m
    S = np.asarray(sub, dtype=np.int64).reshape(len(sub), r) % m
    gens = np.block([[A.T, np.eye(nun, dtype=np.int64)],
                     [S, np.zeros((len(S), nun), dtype=np.int64)]])
    K = np.array(howell_form_mod(gens, r + nun, m),
                 dtype=np.int64).reshape(r + nun, r + nun)[r:, r:]
    AK = _mulmod(A, K.T % m, m)
    if len(S):
        H = howell_form_mod(S, r, m)
        bad = any(any(howell_residue(H, v, m)) for v in AK.T.tolist())
    else:
        bad = AK.any()
    if bad:
        raise InternalCheckError("preimage_mod: A K not in span(sub)")
    return K.tolist()


# ---------------------------------------------------------------------------
# Smith form: the dual basis of the Hopf quotient
# ---------------------------------------------------------------------------

def _smith_mod(A: np.ndarray, m: int):
    """(diag, V) with U A V == D (mod m), U and V invertible modulo m.

    Its one job is the dual basis of the Hopf quotient (`homology.
    _hopf_cocycles`): A is the reduced Howell form of the Hopf rows, an
    int64 array, and is overwritten.  The diagonal entries are nonzero
    residues in [1, m), at most min(A.shape) of them; Z^d over the row
    span of A plus m Z^d is the sum of Z/gcd(d_i, m), plus Z/m once for
    each column past the diagonal.  V is reduced modulo m; U is not kept.

    Each round pivots on the first least nonzero entry of the active block
    in row-major order: the first row whose least nonzero entry is least
    (kept per row, and updated for the rows a step changes), and in it the
    first column holding that entry.  Rows and columns before the active
    block are zero off the diagonal, and entries stay in [0, m), so a row
    whose pivot column entry is 0 has quotient 0 and is left as it is: a
    row step touches only the rows with a nonzero in the pivot column.  The
    column step runs only once that column is clear below the pivot, so of
    A it changes the pivot row alone, and of V the columns from the pivot
    on.  U A V and the pivot sequence are those of the steps applied to
    every row and column, so the covers read off V do not move.
    """
    if m > (1 << 30):
        raise InternalCheckError("modulus too large for int64 mod-SNF")
    nr, nc = A.shape
    A %= m
    V = np.eye(nc, dtype=np.int64)
    # rows from r on are zero before column c, so the least nonzero entry of
    # a whole row is that of its part of the active block
    least = _least_nonzero(A, m)
    r = c = 0
    diag = []
    while r < nr and c < nc:
        least[r] = _least_nonzero(A[r], m)
        bi = r + int(least[r:].argmin())
        v = least[bi]
        if v == m:
            break
        bj = c + int((A[bi, c:] == v).argmax())
        if bi != r:
            A[[r, bi]] = A[[bi, r]]
            least[[r, bi]] = least[[bi, r]]
        if bj != c:
            A[:, [c, bj]] = A[:, [bj, c]]
            V[:, [c, bj]] = V[:, [bj, c]]
        p = int(A[r, c])
        rows = A[r + 1:, c].nonzero()[0]
        if len(rows):
            rows += r + 1
            B = A[rows, c:]
            B -= B[:, :1] // p * A[r, c:]
            B %= m
            A[rows, c:] = B
            least[rows] = _least_nonzero(B, m)
            if B[:, 0].any():
                continue
        q = A[r] // p
        q[c] = 0
        if q.any():
            A[r] -= p * q
            # column j -= q_j column c
            V[:, c:] -= V[:, c:c + 1] * q[c:]
            V[:, c:] %= m
            if np.count_nonzero(A[r]) > 1:
                continue
        # divisibility of the remaining block
        if p > 1:
            badrows = np.flatnonzero((A[r + 1:, c + 1:] % p).any(axis=1))
            if len(badrows):
                A[r] = (A[r] + A[r + 1 + int(badrows[0])]) % m
                continue
        diag.append(p)
        r += 1
        c += 1
    return diag, V


def _least_nonzero(A: np.ndarray, m: int):
    """The least nonzero entry along the last axis, m where all are 0."""
    return A.min(axis=-1, where=A != 0, initial=m)
