"""Independent cross-check path for the multiplier computations.

The default h2 runs Hopf's formula on the Cayley graph; this oracle
instead solves a cocycle space mod m = p^e directly: up to the direct cap
the full two-variable one (one unknown per pair of nontrivial elements),
above it the values on G x S for a small generating set S, extended to
every pair by the cocycle identity (`OracleCocycles`).  Every answer is
read off a quotient A/B of two spans in (Z/m)^dim, with B the
coboundaries and the carry classes:

- the p-part of H2(G) is dual to A/B, A the cocycles;
- the p-part of H2(G, c) is dual to A'/B, A' the cocycles whose
  antisymmetrization z(x, y) - z(y, x) vanishes on every commuting pair
  meeting c (the annihilator of those pairs under the commutator pairing).

`oracle_multipliers` builds the cocycle data once per p^e || |G| and reads
H2 and every H2(G, c) asked for off it; `oracle_h2` and
`oracle_h2_reduced` are its single cases.

Every quotient is counted through one echelon routine, `_echelon_mod`, a
Howell form (Howell 1986; Storjohann and Mulders, ESA 1998): the order of
a span is the product of m / pivot over its echelon rows, a kernel is read
off the echelon form of [E^T | I], and the invariant factors of A/B follow
from the orders |p^j A + B|, j = 0..e.

Shared with the main path are only the group engine (with its small
generating set) and the integer factorisation of `ntheory`.  The cochain
space, the echelon, the kernels and the quotient counts are the oracle's
own, so criterion 2 shares no elimination and no cocycle code with `h2`.
"""

from __future__ import annotations

import math

import numpy as np

from .abelian import AbelianStructure, structure_of_members
from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, _small_generating_set
from .ntheory import factorize, valuation

ORACLE_DIRECT_CAP = 25


def _echelon_mod(rows: np.ndarray, m: int) -> np.ndarray:
    """Row space of `rows` in (Z/m)^dim, m a prime power, as echelon rows
    with pivots dividing m and annihilator rows propagated, so that the
    rows pivoting at or after any column span every element of the row
    space that is zero before it.  In each column the entry with the
    fewest factors p is the pivot, so it divides every other entry there
    and one numpy sweep clears the column; the pivot row's place is taken
    by its annihilator multiple (m / pivot) * row, zero in that column."""
    A = rows % m
    dim = A.shape[1]
    done = []
    for c in range(dim):
        if c % 32 == 0:
            A = A[(A != 0).any(axis=1)]
        nz = np.flatnonzero(A[:, c])
        if not len(nz):
            continue
        gs = np.gcd(A[nz, c], m)
        i = int(np.argmin(gs))
        piv, g = nz[i], int(gs[i])
        prow = A[piv] * _unit_for(int(A[piv, c]), g, m) % m
        # every row left is zero before column c
        A[nz, c:] = (A[nz, c:] - np.outer(A[nz, c] // g, prow[c:])) % m
        A[piv] = prow * (m // g) % m
        done.append(prow)
    return np.array(done, dtype=np.int64).reshape(len(done), dim)


def _unit_for(a: int, g: int, m: int) -> int:
    a0, m0 = a // g, m // g
    u = pow(a0, -1, m0) if m0 > 1 else 1
    while math.gcd(u, m) != 1:
        u += m0
    return u % m


def _order(echelon: np.ndarray, m: int) -> int:
    """Order of the span of echelon rows: the product of m / pivot."""
    if not len(echelon):
        return 1
    pivots = echelon[np.arange(len(echelon)), (echelon != 0).argmax(axis=1)]
    return math.prod(m // int(d) for d in pivots)


def _span_order(rows: np.ndarray, m: int) -> int:
    return _order(_echelon_mod(rows, m), m)


def _kernel_mod(rows: np.ndarray, m: int) -> np.ndarray:
    """Generators of {x in (Z/m)^dim : rows @ x == 0 mod m}: with E the
    echelon of `rows`, the rows of the echelon form of [E^T | I] whose
    first block is zero (they span every combination of the rows of
    [E^T | I] that is zero there, that is every (0, x) with E x == 0)."""
    dim = rows.shape[1]
    E = _echelon_mod(rows, m)
    k = len(E)
    H = _echelon_mod(np.hstack([E.T, np.eye(dim, dtype=np.int64)]), m)
    ker = H[~H[:, :k].any(axis=1), k:]
    # every generator solves every equation, and |ker| |span(rows)| = m^dim
    # (the kernel rows are echelon rows themselves)
    if (rows % m @ ker.T % m).any():
        raise InternalCheckError("kernel generator fails an equation")
    if _order(ker, m) * _order(E, m) != m ** dim:
        raise InternalCheckError("kernel order times span order != m^dim")
    return ker


def _subspace(gens: np.ndarray, conditions: np.ndarray, m: int) -> np.ndarray:
    """Generators of {z in span(gens) : conditions @ z == 0 mod m}."""
    coeffs = _kernel_mod(conditions % m @ gens.T % m, m)
    return coeffs @ gens % m


def _quotient_divisors(A: np.ndarray, B: np.ndarray, m: int, p: int) -> list:
    """Invariant factors of span(A) / span(B) in (Z/m)^dim, m a power of
    p: the quotient has log_p(|p^(j-1) A + B| / |p^j A + B|) cyclic
    factors of order at least p^j."""
    sizes = [_span_order(np.vstack([A, B]), m)]
    if sizes[0] != _span_order(A, m):
        raise InternalCheckError("relation vector outside the ambient span")
    low = _span_order(B, m)
    while sizes[-1] > low:
        sizes.append(_span_order(np.vstack([A * p ** len(sizes) % m, B]), m))
    at_least = [valuation(a // b, p) for a, b in zip(sizes, sizes[1:])] + [0]
    return [p ** j for j in range(1, len(at_least))
            for _ in range(at_least[j - 1] - at_least[j])]


class OracleCocycles:
    """Cocycle data of G mod m = p^e on the normalized 2-cochains whose
    unknowns are z(g, t), g != 1 and t in T: T every nontrivial element up
    to the direct cap (the full pair space), a small generating set of G
    above it.  Unknown (g - 1)|T| + i is z(g, T[i]); `expr[x, y]` holds
    z(x, y) as an integer combination of the unknowns (zero when x or y is
    the identity).  Generator rows of the cocycles (`sol`) and of the
    coboundaries and carry classes (`sub`)."""

    def __init__(self, group: FiniteGroup, m: int):
        self.group = group
        self.m = m
        n = group.order
        T = (list(range(1, n)) if n <= ORACLE_DIRECT_CAP
             else _small_generating_set(group))
        self.dim = (n - 1) * len(T)
        self._g = np.repeat(np.arange(1, n), len(T))
        self._t = np.tile(np.array(T, dtype=np.int64), n - 1)
        self.expr = self._expressions(T)
        t = group.array
        S = np.array(_small_generating_set(group), dtype=np.int64)
        g = np.arange(1, n)[:, None, None]
        h = g.reshape(1, -1, 1)
        # the cocycle identity z(g, h) + z(gh, s) = z(h, s) + z(g, hs) over
        # G x G x S implies it over all triples
        rows = self._rows((g, h, 1), (t[g, h], S, 1), (h, S, -1),
                          (g, t[h, S], -1))
        self.sol = _kernel_mod(rows, m)
        self.sub = np.vstack([self._coboundaries(), self._carries()])

    def _expressions(self, T) -> np.ndarray:
        """The (n, n, dim) array of z(x, y) in the unknowns, filled in
        breadth-first order of y in the Cayley graph of T: for y = u T[i]
        first reached from u, z(x, u T[i]) = z(x, u) + z(x u, T[i])
        - z(u, T[i]), the cocycle identity."""
        n, t, k = self.group.order, self.group.array, len(T)
        expr = np.zeros((n, n, self.dim), dtype=np.int64)
        x = np.arange(1, n)
        seen, queue = {0}, [0]
        for u in queue:
            for i, y in enumerate(t[u, T].tolist()):
                if y in seen:
                    continue
                seen.add(y)
                queue.append(y)
                xu = t[x, u]
                live = xu != 0
                expr[x, y] = expr[x, u]
                expr[x[live], y, (xu[live] - 1) * k + i] += 1
                if u:
                    expr[x, y, (u - 1) * k + i] -= 1
        return expr

    def _rows(self, *terms) -> np.ndarray:
        """One row per entry of the broadcast (x, y, sign) terms: the sum of
        sign * z(x, y) with sign = +-1, modulo m, accumulated in place."""
        xy = np.broadcast_arrays(*(a for x, y, _ in terms for a in (x, y)))
        rows = np.zeros(xy[0].shape + (self.dim,), dtype=np.int64)
        for x, y, (_, _, sign) in zip(xy[::2], xy[1::2], terms):
            (np.add if sign > 0 else np.subtract)(rows, self.expr[x, y],
                                                  out=rows)
        rows %= self.m
        return rows.reshape(-1, self.dim)

    def alt_rows(self, x, y) -> np.ndarray:
        """Rows of z(x, y) - z(y, x), one per pair (x[i], y[i])."""
        return self._rows((x, y, 1), (y, x, -1))

    def _pairs(self):
        """g, t and g t for every unknown z(g, t)."""
        return self._g, self._t, self.group.array[self._g, self._t]

    def _coboundaries(self) -> np.ndarray:
        g, h, gh = self._pairs()
        j = np.arange(self.dim)
        cob = np.zeros((self.group.order, self.dim), dtype=np.int64)
        np.add.at(cob, (g, j), 1)
        np.add.at(cob, (h, j), 1)
        np.add.at(cob, (gh, j), -1)
        return cob[1:] % self.m

    def _carries(self) -> np.ndarray:
        group, m = self.group, self.m
        ab, proj = group.abelianization()
        data = structure_of_members(ab, range(ab.order))
        coords = np.array([data.coords[x] for x in proj],
                          dtype=np.int64).reshape(group.order, -1)
        orders = np.array(data.basis_orders, dtype=np.int64)
        chi = coords * (m // np.gcd(orders, m)) % m
        g, h, gh = self._pairs()
        tot = chi[g] + chi[h] - chi[gh]
        if (tot % m).any():
            raise InternalCheckError("oracle carry: chi not a hom")
        return (tot // m % m).T


def oracle_h2(group: FiniteGroup) -> AbelianStructure:
    """H2(G, Z) through the cocycle quotient, one prime power at a time."""
    return oracle_multipliers(group, [])[0]


def oracle_h2_reduced(group: FiniteGroup, c) -> AbelianStructure:
    """H2(G, c) as the quotient A'/B of the module docstring: dual to it
    by finite abelian duality.  Above the direct cap the cocycles come
    from the generator-parametrized space instead of the full pair space.
    Raises ValidationError for an entry of c outside 1..|G| - 1."""
    return oracle_multipliers(group, [c])[1][0]


def oracle_multipliers(group: FiniteGroup, cs) -> tuple:
    """(H2(G, Z), [H2(G, c) for c in cs]): A/B and each A'/B of the module
    docstring, with the cocycle data of each p^e || |G| built once for all
    of them.  Every c is checked before any is computed."""
    n, t = group.order, group.array
    x, y = np.nonzero((t == t.T) & (np.arange(n) != 0))
    pairs = []
    for c in cs:
        cset = sorted(set(int(v) for v in c))
        if cset and (cset[0] < 1 or cset[-1] >= n):
            raise ValidationError("c must hold non-identity element indices "
                                  f"in 1..{n - 1}")
        meets = np.isin(x, cset)
        pairs.append((x[meets], y[meets]))
    full: list = []
    factors: list = [[] for _ in pairs]
    for p, e in factorize(n).items():
        m = p ** e
        oc = OracleCocycles(group, m)
        full.extend(_quotient_divisors(oc.sol, oc.sub, m, p))
        for out, (cx, cy) in zip(factors, pairs):
            out.extend(_quotient_divisors(
                _subspace(oc.sol, oc.alt_rows(cx, cy), m), oc.sub, m, p))
    return (AbelianStructure.from_cyclic_orders(full),
            [AbelianStructure.from_cyclic_orders(f) for f in factors])
