"""Second homology, Schur covers, reduced covers, and the group U(G,c).

Two computation paths live here:

* Hopf's formula on the Cayley graph: `h2` reads H2 off R/[F, R], the
  cycle space of the Cayley graph of a generating set of k elements
  modulo left translation, for every group.  H2(G)_p embeds in H2(P) for
  a Sylow P (restriction then corestriction is [G:P]), which is 0 for a
  cyclic P; m is the product of the p^e || |G| with P not cyclic
  (`_noncyclic_sylow_part`).  R/[F, R] is H2 + Z^k, so modulo m it is H2
  plus k copies of Z/m, which are dropped (see `_hopf_divisors`), and
  m = 1 answers at once.  Groups whose k (|G|(k - 1) + 1) relation rows
  exceed `H2_CHAIN_CAP` raise CapacityError before any row is built,
  whatever m is.  The same lattice, modulo each p^e in turn, gives the
  cocycles of a Schur cover (`_hopf_cocycles`): the dual of H2_p, read
  off the reduced Howell form of the sparse Hopf rows (a sweep whose
  steps touch only the rows holding their column), as their values on
  G x S;
* a cocycle space (generator-parametrized 2-cochains, coboundaries and
  carry classes) that puts each cover cocycle into a canonical form: the
  Howell residue of its values on G x S, expanded to the (n, n) table
  along the Cayley tree.  S is the generating set of `h2`, and one tree
  of `_cayley_tree` on it serves the Hopf rows, the dual and the table.
  A cover factor holds one such O(|G|^2) table.  The cover of G by
  prod Z/d_i puts (a, g) at index enc(a) n + g and is built with one
  broadcast per factor d_i.

The cover construction runs at the primes of `h2`'s multiplier and is
certified: each factor table satisfies the cocycle identity, the
projection is a homomorphism (checked on a generating set of the cover),
and the kernel must be central, lie in the commutator subgroup (both read
off that generating set too), and equal that multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abelian import AbelianStructure, structure_of_members
from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import FiniteGroup, _generating_set
from .intmat import (_smith_mod, howell_form_mod, howell_residue,
                     quotient_divisors_mod)
from .ntheory import factorize

# k (|G|(k - 1) + 1) Hopf relation rows for k generators: C2^9 (36,873)
# runs in 0.6 s and 96 MiB, C3^5:C2 (14,586) in 0.23 s; C2^10 (92,170)
# would take 1.8 s and 230 MiB (2-core Xeon, numpy 2.4.6)
H2_CHAIN_CAP = 50_000
COVER_CAP = 5000

_H2_CACHE: dict = {}


# ---------------------------------------------------------------------------
# H2 from Hopf's formula
# ---------------------------------------------------------------------------

def _noncyclic_sylow_part(group: FiniteGroup) -> int:
    """The product m of the p^e || |G| with no element of order p^e (a
    non-cyclic Sylow p-subgroup): H2(G, Z) is zero at every other prime."""
    orders = {group.element_order(g) for g in range(group.order)}
    return math.prod(p ** e for p, e in factorize(group.order).items()
                     if p ** e not in orders)


def _hopf_divisors(group: FiniteGroup) -> list[int]:
    """Elementary divisors (> 1) of H2(G, Z), from Hopf's formula.

    With F free on a generating set S of k elements and R = ker(F -> G),
    H2 is the intersection of R and [F, F] modulo [F, R] (Hopf, Comment.
    Math. Helv. 1942), and R / [F, R] is H2 + Z^k (Brown, Cohomology of
    Groups, II.5).  R / [F, R] is the coinvariants
    of R^ab, the cycle space of the Cayley graph with G acting by left
    translation: Z^N over the k N rows of `_hopf_rows`.  H2 is zero at the
    primes of cyclic Sylow subgroups, and its p-part is killed by the p^e
    dividing |G|, so with m = `_noncyclic_sylow_part` the quotient modulo
    m is H2 + (Z/m)^k: its divisors are those of H2 and k copies of m.
    Fewer than k copies of m means the computation is wrong.  The row cap
    is checked first, and m = 1 returns at once.
    """
    n = group.order
    if n == 1:
        return []
    gens = _generating_set(group)
    k = len(gens)
    ncycles = n * (k - 1) + 1
    if k * ncycles > H2_CHAIN_CAP:
        raise CapacityError(
            f"h2: {group.name} of order {n} needs {k * ncycles} Hopf "
            f"relation rows, above the cap of {H2_CHAIN_CAP}")
    m = _noncyclic_sylow_part(group)
    if m == 1:
        return []
    divisors = quotient_divisors_mod(
        _hopf_rows(group, gens, _cayley_tree(group, gens)), ncycles, m)
    if divisors[len(divisors) - k:] != [m] * k:
        raise InternalCheckError(
            f"R/[F,R] holds fewer than {k} copies of Z/{m}")
    return divisors[:len(divisors) - k]


def _cayley_tree(group: FiniteGroup, gens: list[int]):
    """A breadth-first spanning tree of the Cayley graph (edges g -> g t,
    t in gens): right[g][i] = g gens[i], the vertices in breadth-first
    order, parent[g] = (u, i) for the tree edge u -> u gens[i] = g, and
    col[g][i] the index of the non-tree edge (g, gens[i]), -1 for a tree
    edge.  The N = |G|(k - 1) + 1 non-tree edges are numbered by (g, i)."""
    n = group.order
    right = group.array[:, gens].tolist()
    parent: list = [None] * n
    order = [0]
    for u in order:
        for i, g in enumerate(right[u]):
            if g and parent[g] is None:
                parent[g] = (u, i)
                order.append(g)
    col = [[-1] * len(gens) for _ in range(n)]
    ncol = 0
    for g in range(n):
        for i, gt in enumerate(right[g]):
            if parent[gt] != (g, i):
                col[g][i] = ncol
                ncol += 1
    return right, order, parent, col


def _hopf_rows(group: FiniteGroup, gens: list[int], tree) -> list[dict]:
    """The rows (s - 1) z_e of R/[F, R], sparse, for s in gens and z_e the
    fundamental cycles of the Cayley graph (edges g -> g t, t in gens).

    The spanning tree, `tree` = `_cayley_tree(group, gens)`, leaves
    N = |G|(k - 1) + 1 non-tree edges; z_e is the tree path to g, then
    e = (g, t), then back along the tree path to g t, and a cycle is its
    coefficients on the non-tree edges.  s z_e is the translate s path(g) + (s g, t) - s path(g t), and
    the non-tree edges of s path(g) fill in breadth-first order: those of
    s path(u), for g = u t' a tree edge, and (s u, t') if it is not one.
    """
    n = group.order
    right, order, parent, col = tree
    # left[i][g] = gens[i] g
    left = group.array[gens].tolist()
    rows = []
    for sleft in left:
        path: list = [()] * n
        for g in order[1:]:
            u, i = parent[g]
            c = col[sleft[u]][i]
            path[g] = path[u] if c < 0 else path[u] + (c,)
        for g in range(n):
            sg = sleft[g]
            for i, gt in enumerate(right[g]):
                c = col[g][i]
                if c < 0:
                    continue
                row = dict.fromkeys(path[g], 1)
                for j in path[gt] + (c,):
                    row[j] = row.get(j, 0) - 1
                j = col[sg][i]
                if j >= 0:
                    row[j] = row.get(j, 0) + 1
                rows.append(row)
    return rows


def h2(group: FiniteGroup) -> AbelianStructure:
    """The Schur multiplier H2(G, Z) in divisor-chain form.

    Read off R/[F, R] = H2 + Z^k (Hopf's formula, on the cycle space of
    the Cayley graph) modulo the non-cyclic Sylow part m of |G|, with the
    free part (Z/m)^k dropped (`_hopf_divisors`); a group whose Sylow
    subgroups are all cyclic is trivial at once.  Raises CapacityError at
    once when the k (|G|(k - 1) + 1) relation rows of the fast generating
    set (k elements) exceed `H2_CHAIN_CAP`, whatever m is.  H2 does not
    depend on the generating set, so this one need not be small.
    """
    key = (group.content_key(), "h2")
    if key not in _H2_CACHE:
        _H2_CACHE[key] = AbelianStructure.from_cyclic_orders(
            _hopf_divisors(group))
    return _H2_CACHE[key]


# ---------------------------------------------------------------------------
# cocycle pipeline
# ---------------------------------------------------------------------------

class _CocycleSpace:
    """Generator-parametrized normalized 2-cochains of a finite group.

    A normalized 2-cocycle is determined by its values on G x S for a
    generating set S, here `_generating_set(G)`, the set `h2` reads the
    Hopf rows on.  Unknown j = (g - 1)|S| + i is f(g, S[i]), g != 1.
    `tree` is the breadth-first tree of `_cayley_tree` on S, which serves
    the Hopf rows and the dual read off them too; `full_table` expands the
    unknowns to every pair along it: for a tree edge u -> h = u s the
    cocycle identity gives f(g, u s) = f(g, u) + f(g u, s) - f(u, s), one
    column of the (n, n) table per vertex."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        n = group.order
        self.S = _generating_set(group)
        k = len(self.S)
        self.nun = (n - 1) * k
        # unknown j is f(g_j, s_j)
        self._g = np.repeat(np.arange(1, n), k)
        self._s = np.tile(np.array(self.S, dtype=np.int64), n - 1)
        self.tree = _cayley_tree(group, self.S)
        # Hom(G, Z/m) for every m: the coordinates of each element in G^ab
        ab, proj = group.abelianization()
        data = structure_of_members(ab, range(ab.order))
        self._ab_coords = np.array([data.coords[x] for x in proj],
                                   dtype=np.int64).reshape(n, -1)
        self._ab_orders = np.array(data.basis_orders, dtype=np.int64)

    def relation_vectors(self, m: int) -> np.ndarray:
        """The coboundaries delta(e_x), x != 1, then the carry cocycles
        delta(chi) / m of a generating set of Hom(G, Z/m), modulo m."""
        n, t = self.group.order, self.group.array
        gs = t[self._g, self._s]
        cob = np.zeros((n, self.nun), dtype=np.int64)
        j = np.arange(self.nun)
        np.add.at(cob, (self._g, j), 1)
        np.add.at(cob, (self._s, j), 1)
        np.add.at(cob, (gs, j), -1)
        scale = m // np.gcd(self._ab_orders, m)
        chi = self._ab_coords * scale % m
        tot = chi[self._g] + chi[self._s] - chi[gs]
        if (tot % m).any():
            raise InternalCheckError("carry cocycle: chi not a hom")
        return np.vstack([cob[1:] % m, (tot // m % m).T])

    def full_table(self, unknowns, m: int) -> np.ndarray:
        """The (n, n) table of f(g, h) mod m for the given unknowns: a
        linear map of them, whether or not they make a cocycle."""
        n, t = self.group.order, self.group.array
        # W[x, i] = f(x, S[i]); row 0, x = 1, is zero
        W = np.zeros((n, len(self.S)), dtype=np.int64)
        W[1:] = np.asarray(unknowns, dtype=np.int64).reshape(n - 1, -1)
        _, order, parent, _ = self.tree
        f = np.zeros((n, n), dtype=np.int64)
        for h in order[1:]:
            u, i = parent[h]
            f[:, h] = f[:, u] + W[t[:, u], i] - W[u, i]
        return f % m

    def check_cocycle(self, table: np.ndarray, m: int) -> None:
        """Raise InternalCheckError unless the (n, n) table satisfies
        f(g, h) + f(g h, s) == f(h, s) + f(g, h s) mod m over G x G x S.
        That gives every triple: by delta delta f = 0, delta f(g, h, x s)
        is delta f(g, h, x), and h = 1 makes f(g, 1) constant."""
        t, S = self.group.array, np.array(self.S, dtype=np.int64)
        g = np.arange(self.group.order)[:, None, None]
        h = g.reshape(1, -1, 1)
        if ((table[g, h] + table[t[g, h], S] - table[h, S]
             - table[g, t[h, S]]) % m).any():
            raise InternalCheckError("cover factor table is not a 2-cocycle")


@dataclass
class CentralExtension:
    """A central extension S -> G with identified abelian kernel."""
    total: FiniteGroup
    proj: tuple
    kernel_members: tuple
    kernel_structure: AbelianStructure
    kernel_coords: dict      # kernel member -> coordinate tuple
    kernel_from_coords: dict  # coordinate tuple -> kernel member

    def verify(self, group: FiniteGroup):
        """Check that proj is a surjective homomorphism (p(a t) = p(a) p(t)
        for every a and every generator t of S gives every pair, by
        induction on words) whose kernel is kernel_members, central and
        inside [S, S]: a stem extension."""
        S = self.total
        if len(self.proj) != S.order or \
                sorted(set(self.proj)) != list(range(group.order)):
            raise InternalCheckError("projection not surjective")
        P, gens = np.asarray(self.proj), _generating_set(S)
        if (P[S.array[:, gens]] != group.array[P[:, None], P[gens]]).any():
            raise InternalCheckError("projection not a homomorphism")
        ker = set(np.flatnonzero(P == 0).tolist())
        if sorted(ker) != sorted(self.kernel_members):
            raise InternalCheckError("kernel mismatch")
        if not ker <= set(S.center()):
            raise InternalCheckError("kernel not central")
        if not ker <= set(S.commutator_subgroup()):
            raise InternalCheckError("stem condition failed: kernel outside [S,S]")


def _extension_from_factors(group: FiniteGroup, factors):
    """Central extension of `group` by prod Z/d_i with cocycle tables.

    Element (a, g) is at index enc(a) n + g, where enc reads the kernel
    coordinates a as mixed-radix digits, the first the most significant.
    The product of (a, g) and (b, h) is (a + b + f(g, h), g h), so each
    factor adds its digit to the (k, n, k, n) table in one broadcast."""
    n = group.order
    ds = [d for d, _ in factors]
    ksize = math.prod(ds)
    size = ksize * n
    a = np.arange(ksize)
    table = np.broadcast_to(group.array[None, :, None, :],
                            (ksize, n, ksize, n)).copy()
    weight = ksize
    for d, tab in factors:
        weight //= d
        digit = a // weight % d
        part = digit[:, None, None, None] + (digit[None, None, :, None]
                                             + tab[None, :, None, :])
        part %= d
        part *= weight * n
        table += part
    total = FiniteGroup(table.reshape(size, size),
                        name=f"cover({group.name})", _validated=True)
    coords = {}
    for x in range(ksize):
        avec, rem = [], x
        for d in reversed(ds):
            rem, r = divmod(rem, d)
            avec.append(r)
        coords[x * n] = tuple(reversed(avec))
    return CentralExtension(
        total=total, proj=tuple(x % n for x in range(size)),
        kernel_members=tuple(x * n for x in range(ksize)),
        kernel_structure=AbelianStructure.from_cyclic_orders(ds),
        kernel_coords=coords,
        kernel_from_coords={v: k for k, v in coords.items()})


def _hopf_cocycles(space: _CocycleSpace, q: int) -> list:
    """Cocycles (d, w) of a Schur cover's p-part, w the values f(g, S[i])
    in Z/d of the unknowns of `space`, for q = p^e || |G| with
    H2(G)_p != 0.

    `_smith_mod` of the reduced Howell form of the Hopf rows modulo q,
    which depends on their span only and is swept on the sparse rows as
    `_hopf_rows` gives them, gives U H V = D: R/[F, R] modulo q
    is the sum of the Z/g_i, g_i = gcd(d_i, q), in the coordinates v V.
    It is H2_p + (Z/q)^k, and the exponent of H2_p is below q (its square
    divides |G|), so exactly k of the g_i are q; column i of V modulo each
    other g_i > 1 is a G-invariant phi_i: R -> Z/g_i, and together they
    map H2_p isomorphically onto the sum.  With sigma(g) the tree path to
    g, f(g, h) = phi_i(g sigma(h)), the loop sigma(g) sigma(h)
    sigma(g h)^-1 having the non-tree edges of g sigma(h) only.  Each S[i]
    hangs off the identity by its own tree edge, so f(g, S[i]) is phi_i
    on the edge (g, S[i]), 0 where that is a tree edge: one gather.
    """
    group, S, (_, _, _, col) = space.group, space.S, space.tree
    n, k = group.order, len(S)
    ncycles = n * (k - 1) + 1
    H = howell_form_mod(_hopf_rows(group, S, space.tree), ncycles, q)
    diag, V = _smith_mod(np.array(H), q)
    g = [math.gcd(d, q) for d in diag] + [q] * (ncycles - len(diag))
    if g.count(q) != k:
        raise InternalCheckError(
            f"R/[F,R] holds {g.count(q)} copies of Z/{q}, not {k}")
    keep = [i for i, d in enumerate(g) if 1 < d < q]
    # phi[c] on non-tree edge c; the last row, read for col -1, is zero
    phi = np.zeros((ncycles + 1, len(keep)), dtype=np.int64)
    phi[:-1] = V[:, keep]
    w = phi[np.array(col[1:], dtype=np.int64)].reshape(space.nun, len(keep))
    return [(g[i], w[:, j] % g[i]) for j, i in enumerate(keep)]


def schur_cover(group: FiniteGroup) -> CentralExtension:
    """A Schur covering group: stem central extension by H2(G, Z).

    For each prime p of H2 (computed by `h2`) and p^e || |G|, the cocycles
    of `_hopf_cocycles` read off the Hopf lattice give the factors Z/d of
    H2_p as their values on G x S; each is replaced by its Howell residue
    modulo the coboundaries and carries, and expanded to the table the
    cover is built from.  A trivial H2 gives G itself, with no cocycle
    space; a cover above `COVER_CAP` raises CapacityError before any.  The
    cover is certified: each factor table satisfies the cocycle identity,
    so the cover is a group; its kernel has the order of H2, which `h2`
    reads off the Hopf lattice modulo the non-cyclic Sylow part of |G|;
    and `verify` checks that the kernel is central and lies in [S, S].  A
    stem extension whose kernel has the order of H2 is a Schur cover.
    """
    expected = h2(group)
    if group.order * expected.order > COVER_CAP:
        raise CapacityError(f"cover of order {group.order * expected.order}"
                            f" exceeds the construction cap of {COVER_CAP}")
    if not expected.is_trivial():
        space = _CocycleSpace(group)
    factors = []
    howell: dict = {}
    for p in factorize(expected.order):
        for d, w in _hopf_cocycles(space, p ** factorize(group.order)[p]):
            # the Howell residue modulo coboundaries and carries: one fixed
            # member of the coset, not the lattice's (for C3xC3 that is the
            # exponent-3 Heisenberg cover, not the exponent-9 one); the
            # form depends on d alone
            if d not in howell:
                howell[d] = howell_form_mod(space.relation_vectors(d),
                                            space.nun, d)
            table = space.full_table(howell_residue(howell[d], w, d), d)
            space.check_cocycle(table, d)
            factors.append((d, table))
    ext = _extension_from_factors(group, factors)
    if ext.kernel_structure != expected:
        raise InternalCheckError(
            f"cover kernel {ext.kernel_structure} != H2 {expected}")
    ext.verify(group)
    return ext


def reduce_cover(ext: CentralExtension, group: FiniteGroup, c: Sequence[int]):
    """The reduced cover S_c: quotient of S by commutators of lifts of
    commuting pairs whose first member projects into c.  Raises
    ValidationError for an entry of c outside 1..|G| - 1."""
    S, t = ext.total, group.array
    cset = np.array(_c_in_range(group, c), dtype=np.int64)
    # a lift of each element: the commutator of two lifts does not depend
    # on the choice, as the fibers are central
    lift = np.zeros(group.order, dtype=np.int64)
    lift[np.asarray(ext.proj)] = np.arange(S.order)
    gx, gy = np.nonzero(t[cset] == t[:, cset].T)
    xh, yh = lift[cset[gx]], lift[gy]
    st, sinv = S.array, np.asarray(S.inv)
    comm = st[st[st[xh, yh], sinv[xh]], sinv[yh]]
    # they lie in the kernel, which `verify` certifies central: the
    # subgroup they generate is normal; when it is trivial S_c is S
    M = S.subgroup_closure(comm.tolist())
    q, coset_of = (S, range(S.order)) if len(M) == 1 else S.quotient(M)
    proj = [None] * q.order
    for x in range(S.order):
        proj[coset_of[x]] = ext.proj[x]
    kernel_members = tuple(sorted({coset_of[x] for x in range(S.order)
                                   if ext.proj[x] == 0}))
    data = structure_of_members(q, kernel_members)
    return CentralExtension(
        total=q, proj=tuple(proj), kernel_members=kernel_members,
        kernel_structure=data.structure,
        kernel_coords=dict(data.coords),
        kernel_from_coords={v: k for k, v in data.coords.items()})


# ---------------------------------------------------------------------------
# U(G, c)
# ---------------------------------------------------------------------------

def _c_in_range(group: FiniteGroup, c: Sequence[int]) -> list:
    """The distinct entries of c, ascending, each a non-identity index."""
    cset = sorted(set(int(x) for x in c))
    if cset and (cset[0] < 1 or cset[-1] >= group.order):
        raise ValidationError("c must hold non-identity element indices "
                              f"in 1..{group.order - 1}")
    return cset


def validate_c(group: FiniteGroup, c: Sequence[int]) -> tuple:
    cset = _c_in_range(group, c)
    if not cset:
        raise ValidationError("c must be nonempty")
    s = np.zeros(group.order, dtype=bool)
    s[cset] = True
    # the h with h c h^-1 in c are closed under products: check generators
    t, h = group.array, np.array(_generating_set(group))[:, None]
    bad = np.argwhere(~s[t[t[h, cset], np.asarray(group.inv)[h]]])
    if len(bad):
        g, x = int(h[bad[0, 0], 0]), cset[bad[0, 1]]
        raise ValidationError(
            f"c not closed under conjugation: {g}*{x}*{g}^-1 missing")
    for x in cset:
        ox = group.element_order(x)
        for k in range(1, ox):
            if math.gcd(k, ox) == 1 and not s[group.power(x, k)]:
                raise ValidationError(
                    f"c not closed under invertible powers: {x}^{k} missing")
    if group.subgroup_closure(cset) != tuple(range(group.order)):
        raise ValidationError("c does not generate the group")
    return tuple(cset)


class UContext:
    """The group U(G,c) = S_c x_{G^ab} Z^{c/G} with chosen bracket lifts.

    Immutable and shareable; build once per (G, c) pair (see build_u)."""

    def __init__(self, group: FiniteGroup, c: Sequence[int]):
        self.group = group
        self.c = validate_c(group, c)
        cc = group.conjugacy_classes()
        class_ids = sorted({cc.class_of[x] for x in self.c},
                           key=lambda cid: cc.reps[cid])
        self.nclasses = len(class_ids)
        slot = {cid: i for i, cid in enumerate(class_ids)}
        self.class_of = {x: slot[cc.class_of[x]] for x in self.c}
        self.class_reps = [cc.reps[cid] for cid in class_ids]
        self.sc = reduce_cover(schur_cover(group), group, self.c)
        self.h2c = self.sc.kernel_structure
        self._build_lifts()
        ab, ab_proj = group.abelianization()
        ab_data = structure_of_members(ab, range(ab.order))
        self._ab_orders = tuple(ab_data.basis_orders)
        self._ab_of_elem = [ab_data.coords[ab_proj[g]] for g in range(group.order)]
        self._validate_lifts()
        # powering permutations of the c-class slots (for shape invariants)
        e = group.exponent()
        self.power_perms = sorted({self.power_perm(k) for k in range(1, e + 1)
                                   if math.gcd(k, e) == 1})

    # -- construction helpers ------------------------------------------------

    def _build_lifts(self):
        """A class representative lifts to its least preimage in S_c, and
        h rep h^-1 to the conjugate of that by the least preimage of the
        first such h: another preimage differs by a central element, and
        another h by one commuting with rep, whose lifts commute with
        rep's in S_c (`_validate_lifts` checks it)."""
        S, t, inv = self.sc.total, self.group.array, self.group.inv
        least: dict = {}
        for x, g in enumerate(self.sc.proj):
            least.setdefault(g, x)
        lifts = {}
        for rep in self.class_reps:
            lifts[rep] = least[rep]
            for h, y in enumerate(t[t[:, rep], inv].tolist()):
                lifts.setdefault(y, S.conj(lifts[rep], least[h]))
        self.lifts = lifts

    def _validate_lifts(self):
        """Each lift lies over its element of c, and for every (u, x) in
        S_c x c, u lift(x) u^-1 = lift(proj(u) x proj(u)^-1); where proj(u)
        commutes with x, that says the lifts of the pair commute, as they
        must in S_c.  The u for which it holds at every x are closed under
        products, so it is checked for the generators of S_c."""
        S, G = self.sc.total, self.group
        c = np.array(self.c)
        if sorted(self.lifts) != list(self.c) or not all(
                0 <= y < S.order for y in self.lifts.values()):
            raise InternalCheckError("lifts are not elements of S_c keyed by c")
        L = np.array([self.lifts[x] for x in self.c])
        P = np.asarray(self.sc.proj)
        if (P[L] != c).any():
            raise InternalCheckError("lift does not project to its element")
        u = np.array(_generating_set(S))[:, None]
        conj = S.array[S.array[u, L], np.asarray(S.inv)[u]]
        g = P[u]
        lift_of = np.zeros(G.order, dtype=np.int64)
        lift_of[c] = L
        if (conj != lift_of[G.array[G.array[g, c], np.asarray(G.inv)[g]]]).any():
            raise InternalCheckError("conjugation coherence failed")

    def power_perm(self, k: int) -> tuple:
        """Slot permutation induced by k-th powering on the classes in c."""
        out = []
        for rep in self.class_reps:
            y = self.group.power(rep, k)
            if y not in self.class_of:
                raise InternalCheckError("c not closed under this powering")
            out.append(self.class_of[y])
        return tuple(out)

    # -- the fiber product ----------------------------------------------------

    def ab_image_of_element(self, g: int) -> tuple:
        return tuple(self._ab_of_elem[g])

    def ab_image_of_vector(self, v: Sequence[int]) -> tuple:
        acc = [0] * len(self._ab_orders)
        for slot, mult in enumerate(v):
            if mult:
                co = self._ab_of_elem[self.class_reps[slot]]
                for i, d in enumerate(self._ab_orders):
                    acc[i] = (acc[i] + mult * co[i]) % d
        return tuple(acc)

    def bracket(self, x: int) -> "UElement":
        if x not in self.lifts:
            raise ValidationError(f"element {x} is not in c")
        v = [0] * self.nclasses
        v[self.class_of[x]] = 1
        return UElement(self, self.lifts[x], tuple(v), _checked=True)

    def identity(self) -> "UElement":
        return UElement(self, 0, tuple([0] * self.nclasses), _checked=True)

    def k_compose(self, h_coords: Sequence[int], v: Sequence[int]) -> "UElement":
        s = self.sc.kernel_from_coords[tuple(int(x) % d for x, d in
                                             zip(h_coords, self.h2c.factors))] \
            if self.h2c.factors else 0
        u = UElement(self, s, tuple(int(x) for x in v))
        if any(self.ab_image_of_vector(u.v)):
            raise ValidationError("vector does not vanish in G^ab")
        return u

    def k_decompose(self, u: "UElement"):
        if self.sc.proj[u.s] != 0:
            raise ValidationError("element does not project to the identity")
        if any(self.ab_image_of_vector(u.v)):
            raise ValidationError("vector part nonzero in G^ab")
        h = self.sc.kernel_coords[u.s] if self.h2c.factors else ()
        return tuple(h), u.v


class UElement:
    """Element of U(G,c): a pair (s in S_c, v in Z^{c/G}) with matching
    images in G^ab."""

    __slots__ = ("ctx", "s", "v")

    def __init__(self, ctx: UContext, s: int, v: tuple, _checked: bool = False):
        self.ctx = ctx
        self.s = int(s)
        self.v = tuple(int(x) for x in v)
        if not _checked:
            a = ctx.ab_image_of_element(ctx.sc.proj[self.s])
            b = ctx.ab_image_of_vector(self.v)
            if a != b:
                raise ValidationError("fiber-product compatibility violated")

    def __mul__(self, other: "UElement") -> "UElement":
        s = self.ctx.sc.total.array.item(self.s, other.s)
        return UElement(self.ctx, s,
                        tuple(a + b for a, b in zip(self.v, other.v)),
                        _checked=True)

    def inverse(self) -> "UElement":
        S = self.ctx.sc.total
        return UElement(self.ctx, S.inv[self.s],
                        tuple(-a for a in self.v), _checked=True)

    def __pow__(self, k: int) -> "UElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def project(self) -> int:
        return self.ctx.sc.proj[self.s]

    def degree(self) -> int:
        return sum(self.v)

    def __eq__(self, other):
        return (isinstance(other, UElement) and self.s == other.s
                and self.v == other.v and self.ctx is other.ctx)

    def __hash__(self):
        return hash((id(self.ctx), self.s, self.v))

    def __repr__(self):
        return f"UElement(s={self.s}, v={self.v})"


def build_u(group: FiniteGroup, c: Sequence[int]) -> UContext:
    """The UContext for (G, c): the reduced Schur cover and its lifts."""
    return UContext(group, c)
