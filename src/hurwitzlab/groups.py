"""Finite group engine: multiplication-table groups, Gamma-actions,
conjugacy machinery, subgroup closures, semidirect products, and the
admissibility layer (Y-map, admissible closures, equivariant counting).

Elements are dense integer indices with the identity fixed at index 0.
All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, InternalCheckError, ValidationError

DEFAULT_CLOSURE_CAP = 100_000
DEFAULT_TABLE_CAP = 4_000_000  # max order**2 entries for a materialized table
ASSOC_FULL_CHECK_CAP = 1000    # exhaustive associativity below this order


class FiniteGroup:
    """A finite group as a validated multiplication table.

    Identity is element 0.  `table[a][b]` is the product a*b.
    """

    __slots__ = ("order", "table", "inv", "_orders", "_hash", "name")

    def __init__(self, table: Sequence[Sequence[int]], name: str = "",
                 _validated: bool = False):
        n = len(table)
        rows = [list(map(int, r)) for r in table]
        if not _validated:
            _validate_table(rows, n)
        self.order = n
        self.table = rows
        self.name = name or f"group{n}"
        inv = [None] * n
        for g in range(n):
            row = rows[g]
            for h in range(n):
                if row[h] == 0:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise ValidationError(f"element {g} has no inverse")
        self.inv = inv
        self._orders = None
        self._hash = None

    # -- basics ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, h: int) -> int:
        """h g h^{-1}."""
        t = self.table
        return t[t[h][g]][self.inv[h]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        r = 0
        t = self.table
        while k:
            if k & 1:
                r = t[r][g]
            g = t[g][g]
            k >>= 1
        return r

    def element_order(self, g: int) -> int:
        if self._orders is None:
            orders = [1] * self.order
            t = self.table
            for x in range(1, self.order):
                y, k = x, 1
                while y != 0:
                    y = t[y][x]
                    k += 1
                orders[x] = k
            self._orders = orders
        return self._orders[g]

    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            e = e * self.element_order(g) // math.gcd(e, self.element_order(g))
        return e

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def commutator(self, a: int, b: int) -> int:
        t = self.table
        return t[t[t[a][b]][self.inv[a]]][self.inv[b]]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(tuple(r) for r in self.table))
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def content_key(self) -> bytes:
        """Stable bytes identifying the table (used for cache keys)."""
        import hashlib
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        for row in self.table:
            h.update(b",".join(str(x).encode() for x in row))
        return h.digest()

    # -- subgroup machinery --------------------------------------------------

    def subgroup_closure(self, gens: Iterable[int]) -> tuple:
        t = self.table
        seen = {0}
        frontier = [0]
        gens = [g for g in set(gens)]
        while frontier:
            x = frontier.pop()
            for s in gens:
                for y in (t[x][s], t[s][x]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(sorted(seen))

    def normal_closure(self, gens: Iterable[int]) -> tuple:
        base = set(gens)
        while True:
            extra = set()
            for g in base:
                for h in range(self.order):
                    c = self.conj(g, h)
                    if c not in base:
                        extra.add(c)
            if not extra:
                break
            base |= extra
        return self.subgroup_closure(base)

    def commutator_subgroup(self) -> tuple:
        gens = set()
        for a in range(self.order):
            for b in range(a):
                gens.add(self.commutator(a, b))
        return self.normal_closure(gens)

    def center(self) -> tuple:
        t = self.table
        return tuple(g for g in range(self.order)
                     if all(t[g][h] == t[h][g] for h in range(self.order)))

    def quotient(self, normal_members: Sequence[int]):
        """Quotient by a normal subgroup; returns (FiniteGroup, projection list).

        Coset labels are assigned by smallest member, then renumbered so the
        identity coset is 0 and labels follow smallest-representative order.
        """
        nset = set(normal_members)
        if 0 not in nset:
            raise ValidationError("normal subgroup must contain the identity")
        for g in nset:
            for h in range(self.order):
                if self.conj(g, h) not in nset:
                    raise ValidationError("subgroup is not normal")
        t = self.table
        coset_of = [-1] * self.order
        reps = []
        for g in range(self.order):
            if coset_of[g] == -1:
                idx = len(reps)
                reps.append(g)
                for x in nset:
                    coset_of[t[g][x]] = idx
        k = len(reps)
        qt = [[coset_of[t[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
        q = FiniteGroup(qt, name=f"{self.name}/N", _validated=True)
        return q, coset_of

    def subgroup_as_group(self, members: Sequence[int]):
        """The subgroup on `members` as a standalone group.

        Returns (FiniteGroup, to_parent) with to_parent[i] the parent index
        of subgroup element i; element 0 stays the identity.
        """
        mem = sorted(set(members))
        if mem[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        pos = {g: i for i, g in enumerate(mem)}
        t = self.table
        try:
            sub = [[pos[t[a][b]] for b in mem] for a in mem]
        except KeyError:
            raise ValidationError("member set is not closed under multiplication")
        return FiniteGroup(sub, name=f"{self.name}|sub{len(mem)}", _validated=True), mem

    def all_subgroups(self, cap: int = 20000) -> list:
        """All subgroups as sorted member tuples (BFS over generated closures)."""
        found = {(0,)}
        frontier = [(0,)]
        while frontier:
            nxt = []
            for sub in frontier:
                have = set(sub)
                for g in range(1, self.order):
                    if g in have:
                        continue
                    new = self.subgroup_closure(list(sub) + [g])
                    if new not in found:
                        found.add(new)
                        nxt.append(new)
                        if len(found) > cap:
                            raise CapacityError("subgroup lattice exceeds cap")
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), s))

    def conjugacy_classes(self) -> "ConjClassTable":
        return ConjClassTable(self)

    def abelianization(self):
        """(quotient FiniteGroup, projection list) onto G/[G,G]."""
        return self.quotient(self.commutator_subgroup())


def _validate_table(rows, n):
    if n == 0:
        raise ValidationError("empty multiplication table")
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValidationError(f"row {i} has length {len(r)}, expected {n}")
        for x in r:
            if not (0 <= x < n):
                raise ValidationError(f"entry {x} out of range in row {i}")
    for g in range(n):
        if rows[0][g] != g or rows[g][0] != g:
            raise ValidationError("no identity: element 0 must satisfy 0*g = g*0 = g")
    arr = np.asarray(rows, dtype=np.int64)
    if n <= ASSOC_FULL_CHECK_CAP:
        for a in range(n):
            left = arr[arr[a], :]
            right = arr[a][arr]
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise ValidationError(
                    f"non-associative: ({a}*{b})*{c} != {a}*({b}*{c})")
    else:
        rng = np.random.default_rng(0)
        for _ in range(2000):
            a, b, c = (int(x) for x in rng.integers(0, n, 3))
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise ValidationError(
                    f"non-associative: ({a}*{b})*{c} != {a}*({b}*{c})")
    for g in range(n):
        if 0 not in rows[g]:
            raise ValidationError(f"element {g} is non-invertible")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_mult_table(table) -> FiniteGroup:
    return FiniteGroup(table)


def from_permutations(gens: Sequence[Sequence[int]], degree: int,
                      cap: int = DEFAULT_CLOSURE_CAP,
                      table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """Group generated by permutations of {0..degree-1}, as a Cayley table.

    Element ordering is deterministic: BFS by word length over the given
    generator order, ties broken by image tuple.
    """
    ident = tuple(range(degree))
    gen_tuples = []
    for p in gens:
        t = tuple(int(x) for x in p)
        if sorted(t) != list(range(degree)):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {p}")
        gen_tuples.append(t)
    elems = {ident: 0}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gen_tuples:
                prod = tuple(w[g[i]] for i in range(degree))
                if prod not in elems:
                    if len(elems) >= cap:
                        raise CapacityError(
                            f"closure exceeds configured order cap {cap}")
                    elems[prod] = len(order_list)
                    order_list.append(prod)
                    nxt.append(prod)
        # deterministic frontier order
        nxt.sort()
        frontier = nxt
    n = len(order_list)
    if n * n > table_cap:
        raise CapacityError(
            f"order {n} exceeds table budget ({n * n} > {table_cap} entries)")
    idx = elems
    table = [[0] * n for _ in range(n)]
    for a, pa in enumerate(order_list):
        for b, pb in enumerate(order_list):
            table[a][b] = idx[tuple(pa[pb[i]] for i in range(degree))]
    return FiniteGroup(table, name=f"perm{n}", _validated=True)


def from_rule(elements: Sequence, mul: Callable, name: str = "") -> FiniteGroup:
    """Group from an abstract element list and multiplication callable.

    The identity must be elements[0]."""
    idx = {e: i for i, e in enumerate(elements)}
    table = [[idx[mul(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, name=name)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="C1", _validated=True)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       name=f"C{n}", _validated=True)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    ta, tb = a.table, b.table
    n = na * nb
    table = [[0] * n for _ in range(n)]
    for xa in range(na):
        for xb in range(nb):
            x = xa * nb + xb
            rowa, rowb = ta[xa], tb[xb]
            row = table[x]
            for ya in range(na):
                ra = rowa[ya] * nb
                base = ya * nb
                for yb in range(nb):
                    row[base + yb] = ra + rowb[yb]
    return FiniteGroup(table, name=f"{a.name}x{b.name}", _validated=True)


def abelian(orders: Sequence[int]) -> FiniteGroup:
    g = trivial_group()
    for d in orders:
        g = direct_product(g, cyclic(d)) if g.order > 1 else cyclic(d)
    g.name = "x".join(f"C{d}" for d in orders) or "C1"
    return g


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    elems = [(i, r) for r in range(2) for i in range(n)]
    elems.sort(key=lambda e: (e != (0, 0),))
    elems = [(0, 0)] + [e for e in elems if e != (0, 0)]

    def mul(x, y):
        i1, r1 = x
        i2, r2 = y
        return ((i1 + (i2 if r1 == 0 else -i2)) % n, (r1 + r2) % 2)
    return from_rule(elems, mul, name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n (n=2: quaternion Q8, n=4: Q16)."""
    elems = [(0, 0)] + [(i, j) for j in range(2) for i in range(2 * n)
                        if (i, j) != (0, 0)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        i = i1 + (i2 if j1 == 0 else -i2)
        if j1 and j2:
            i += n
        return (i % (2 * n), (j1 + j2) % 2)
    return from_rule(elems, mul, name=f"Dic{n}")


def symmetric(n: int) -> FiniteGroup:
    if n > 7:
        raise CapacityError("symmetric group table only supported for n <= 7")
    if n <= 1:
        return trivial_group()
    gens = []
    t = list(range(n))
    t[0], t[1] = t[1], t[0]
    gens.append(tuple(t))
    gens.append(tuple(list(range(1, n)) + [0]))
    g = from_permutations(gens, n)
    g.name = f"S{n}"
    return g


def alternating4() -> FiniteGroup:
    g = from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], 4)
    g.name = "A4"
    return g


def _two_gen_order16(k: int, aord: int, name: str) -> FiniteGroup:
    """<a, b | a^aord = b^2 = 1, b a b^{-1} = a^k> of order 2*aord."""
    elems = [(0, 0)] + [(i, j) for j in range(2) for i in range(aord)
                        if (i, j) != (0, 0)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        return ((i1 + i2 * (k ** j1)) % aord, (j1 + j2) % 2)
    return from_rule(elems, mul, name=name)


def semidihedral16() -> FiniteGroup:
    return _two_gen_order16(3, 8, "SD16")


def modular16() -> FiniteGroup:
    return _two_gen_order16(5, 8, "M16")


def c4_semidirect_c4() -> FiniteGroup:
    elems = [(0, 0)] + [(i, j) for j in range(4) for i in range(4)
                        if (i, j) != (0, 0)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        return ((i1 + i2 * pow(-1, j1, 4)) % 4, (j1 + j2) % 4)
    return from_rule(elems, mul, name="C4:C4")


def c22_semidirect_c4() -> FiniteGroup:
    """(C2 x C2) : C4 with the C4 swapping the two C2 coordinates."""
    elems = [(0, 0, 0)] + [(a, b, c) for c in range(4) for a in range(2)
                           for b in range(2) if (a, b, c) != (0, 0, 0)]

    def mul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        if c1 % 2:
            a2, b2 = b2, a2
        return ((a1 + a2) % 2, (b1 + b2) % 2, (c1 + c2) % 4)
    return from_rule(elems, mul, name="C22:C4")


def central_product_d4_c4() -> FiniteGroup:
    """D4 * C4: the central product identifying the central involutions."""
    d4 = dihedral(4)
    c4 = cyclic(4)
    big = direct_product(d4, c4)
    # central involution of D4 is the rotation by 2; find its index in d4
    rot2 = next(g for g in range(d4.order)
                if d4.element_order(g) == 2 and g in set(d4.center()))
    z = rot2 * 4 + 2  # (rot2, 2) in the product indexing
    q, _ = big.quotient(big.subgroup_closure([z]))
    q.name = "D4*C4"
    return q


def groups_up_to_16() -> list[FiniteGroup]:
    """All 42 isomorphism classes of groups of order <= 16."""
    out = [trivial_group()]
    named = {
        2: [cyclic(2)], 3: [cyclic(3)],
        4: [cyclic(4), abelian([2, 2])],
        5: [cyclic(5)],
        6: [cyclic(6), symmetric(3)],
        7: [cyclic(7)],
        8: [cyclic(8), abelian([2, 4]), abelian([2, 2, 2]), dihedral(4), dicyclic(2)],
        9: [cyclic(9), abelian([3, 3])],
        10: [cyclic(10), dihedral(5)],
        11: [cyclic(11)],
        12: [cyclic(12), abelian([2, 6]), dihedral(6), alternating4(), dicyclic(3)],
        13: [cyclic(13)],
        14: [cyclic(14), dihedral(7)],
        15: [cyclic(15)],
        16: [cyclic(16), abelian([2, 8]), abelian([4, 4]), abelian([2, 2, 4]),
             abelian([2, 2, 2, 2]), dihedral(8), dicyclic(4), semidihedral16(),
             modular16(), direct_product(dihedral(4), cyclic(2)),
             direct_product(dicyclic(2), cyclic(2)), c4_semidirect_c4(),
             c22_semidirect_c4(), central_product_d4_c4()],
    }
    for n in sorted(named):
        out.extend(named[n])
    return out


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

class ConjClassTable:
    """Partition of a group into conjugacy classes with powering maps."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        n = group.order
        class_of = [-1] * n
        reps = []
        members = []
        for g in range(n):
            if class_of[g] == -1:
                cid = len(reps)
                orbit = sorted({group.conj(g, h) for h in range(n)})
                for x in orbit:
                    class_of[x] = cid
                reps.append(min(orbit))
                members.append(tuple(orbit))
        self.class_of = class_of
        self.reps = reps
        self.members = members

    def __len__(self):
        return len(self.reps)

    def power_map(self, k: int) -> list[int]:
        """class id -> class id of the k-th powers (well defined for any k)."""
        g = self.group
        out = []
        for r in self.reps:
            out.append(self.class_of[g.power(r, k)])
        return out


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    """Validated subgroup of a parent group (sorted member indices)."""
    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        if 0 not in mem:
            raise ValidationError("subgroup must contain the identity")
        s = set(mem)
        for a in mem:
            if self.parent.inv[a] not in s:
                raise ValidationError("subgroup not closed under inverse")
            for b in mem:
                if self.parent.table[a][b] not in s:
                    raise ValidationError("subgroup not closed under product")

    def __len__(self):
        return len(self.members)

    def __contains__(self, g: int):
        return g in set(self.members)

    def is_cyclic(self) -> bool:
        return any(self.parent.element_order(g) == len(self.members)
                   for g in self.members)

    def generators_of_cyclic(self) -> list[int]:
        n = len(self.members)
        return [g for g in self.members if self.parent.element_order(g) == n]


# ---------------------------------------------------------------------------
# Gamma-groups
# ---------------------------------------------------------------------------

class GammaGroup:
    """A finite group with an action of a finite group Gamma by automorphisms.

    `act[gamma]` is a permutation list of base elements; act must be a
    homomorphism Gamma -> Aut(base) with act[0] the identity.
    """

    __slots__ = ("base", "gamma", "act", "name")

    def __init__(self, base: FiniteGroup, gamma: FiniteGroup,
                 act: Sequence[Sequence[int]], name: str = "",
                 _validated: bool = False):
        self.base = base
        self.gamma = gamma
        self.act = [list(map(int, p)) for p in act]
        self.name = name or f"{base.name}:{gamma.name}"
        if not _validated:
            self._validate()

    def _validate(self):
        n, k = self.base.order, self.gamma.order
        if len(self.act) != k:
            raise ValidationError("need one permutation per Gamma element")
        for gi, p in enumerate(self.act):
            if sorted(p) != list(range(n)):
                raise ValidationError(f"act[{gi}] is not a permutation")
            t = self.base.table
            for a in range(n):
                for b in range(n):
                    if p[t[a][b]] != t[p[a]][p[b]]:
                        raise ValidationError(
                            f"act[{gi}] is not an automorphism at ({a},{b})")
        if self.act[0] != list(range(n)):
            raise ValidationError("act[identity] must be the identity map")
        for g1 in range(k):
            for g2 in range(k):
                g12 = self.gamma.table[g1][g2]
                p = self.act[g2]
                comp = [self.act[g1][p[x]] for x in range(n)]
                if comp != self.act[g12]:
                    raise ValidationError(
                        f"act is not a homomorphism at ({g1},{g2})")

    def apply(self, gamma_elt: int, g: int) -> int:
        return self.act[gamma_elt][g]

    def y_map(self, g: int) -> tuple:
        """The Gamma-indexed tuple of g^{-1} * gamma(g)."""
        b = self.base
        gi = b.inv[g]
        return tuple(b.table[gi][self.act[ge][g]] for ge in range(self.gamma.order))

    def invariants(self, d_members: Sequence[int]) -> Subgroup:
        """Fixed-point subgroup of the action of a subgroup D <= Gamma."""
        dset = set(d_members)
        if 0 not in dset:
            raise ValidationError("D must contain the identity of Gamma")
        fixed = [g for g in range(self.base.order)
                 if all(self.act[ge][g] == g for ge in dset)]
        return Subgroup(self.base, tuple(fixed))

    def gamma_stable_closure(self, elements: Iterable[int]) -> tuple:
        """Smallest Gamma-stable subgroup containing the given elements."""
        t = self.base.table
        inv = self.base.inv
        seen = {0}
        frontier = list({e for e in elements if e != 0})
        for e in frontier:
            seen.add(e)
        while frontier:
            x = frontier.pop()
            cands = [inv[x]]
            cands.extend(self.act[ge][x] for ge in range(1, self.gamma.order))
            for y in list(seen):
                cands.append(t[x][y])
                cands.append(t[y][x])
            for c in cands:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        # re-closure until stable (product closure over the grown set)
        while True:
            extra = set()
            for a in seen:
                for b in seen:
                    p = t[a][b]
                    if p not in seen:
                        extra.add(p)
            if not extra:
                break
            for e in extra:
                seen.add(e)
                for ge in range(1, self.gamma.order):
                    seen.add(self.act[ge][e])
        return tuple(sorted(seen))

    def admissible_closure(self, elements: Iterable[int]) -> Subgroup:
        """Smallest Gamma-stable subgroup containing all Y-coordinates of the
        given elements."""
        ys = set()
        for g in elements:
            ys.update(self.y_map(g))
        return Subgroup(self.base, self.gamma_stable_closure(ys))

    def is_admissible(self) -> bool:
        if math.gcd(self.base.order, self.gamma.order) != 1:
            return False
        clo = self.admissible_closure(range(self.base.order))
        return len(clo) == self.base.order

    # -- equivariant counting ----------------------------------------------

    def _y_preimage_count(self, members: tuple) -> int:
        """#{h in base : all Y(h) coordinates lie in the given subgroup}."""
        s = set(members)
        cnt = 0
        for h in range(self.base.order):
            if all(y in s for y in self.y_map(h)):
                cnt += 1
        return cnt

    def gamma_stable_subgroups(self) -> list[tuple]:
        subs = self.base.all_subgroups()
        out = []
        for s in subs:
            sset = set(s)
            if all(self.act[ge][x] in sset for ge in range(self.gamma.order)
                   for x in s):
                out.append(s)
        return out

    def maximal_proper_stable_subgroups(self) -> list[tuple]:
        subs = [s for s in self.gamma_stable_subgroups()
                if len(s) < self.base.order]
        out = []
        for s in subs:
            sset = set(s)
            if not any(sset < set(t) for t in subs if t != s):
                out.append(s)
        return out

    def count_sur_free_admissible(self, n: int) -> int:
        """Number of n-tuples in base^n whose admissible closure is the whole
        group.

        A tuple fails exactly when all its Y-coordinates lie in some maximal
        proper Gamma-stable subgroup; counted by dynamic programming over the
        set of maximal subgroups still containing the accumulated Y-set.
        """
        if n < 0:
            raise ValidationError("n must be nonnegative")
        order = self.base.order
        if n == 0:
            return 1 if order == 1 else 0
        maxima = self.maximal_proper_stable_subgroups()
        if not maxima:
            return order ** n
        msets = [set(s) for s in maxima]
        full = frozenset(range(len(maxima)))
        contain = []
        for g in range(order):
            ys = self.y_map(g)
            contain.append(frozenset(i for i, s in enumerate(msets)
                                     if all(y in s for y in ys)))
        states = {full: 1}
        for _ in range(n):
            nxt: dict = {}
            for st, cnt in states.items():
                for cg in contain:
                    key = st & cg
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
        return sum(cnt for st, cnt in states.items() if not st)

    def count_sur_free_admissible_moebius(self, n: int) -> int:
        """Same count via Moebius inversion over the Gamma-stable subgroup
        lattice; kept as an independent cross-check path."""
        subs = self.gamma_stable_subgroups()
        order = self.base.order
        sets = [set(s) for s in subs]
        top = subs.index(tuple(range(order)))
        mu: dict[int, int] = {}

        def moebius(i):
            if i in mu:
                return mu[i]
            if i == top:
                mu[i] = 1
                return 1
            tot = 0
            for j in range(len(subs)):
                if j != i and sets[i] <= sets[j]:
                    tot += moebius(j)
            mu[i] = -tot
            return mu[i]

        total = 0
        for i, s in enumerate(subs):
            m = moebius(i)
            if m:
                total += m * self._y_preimage_count(s) ** n
        return total

    def count_sur_gamma_free(self, n: int) -> int:
        """|Sur_Gamma(F_n, base)|: surjection count at the hom level."""
        e = self.count_sur_free_admissible(n)
        inv = len(self.invariants(range(self.gamma.order)))
        if e % (inv ** n):
            raise InternalCheckError("surjection count not integral")
        return e // (inv ** n)

    def count_aut_gamma(self) -> int:
        """Automorphisms of base commuting with the whole Gamma-action."""
        return sum(1 for _ in _gamma_isomorphisms(self, self))


def _small_generating_set(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    have = {0}
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


def _hom_from_generators(src: FiniteGroup, dst: FiniteGroup,
                         gens: Sequence[int], images: Sequence[int]):
    """Extend generator images to a homomorphism by closure, or None.

    Walks the closure of `gens` in src, assigning images; returns the full
    image list if consistent."""
    phi = {0: 0}
    frontier = [0]
    gi = dict(zip(gens, images))
    while frontier:
        x = frontier.pop()
        for g, im in gi.items():
            y = src.table[x][g]
            img = dst.table[phi[x]][im]
            if y in phi:
                if phi[y] != img:
                    return None
            else:
                phi[y] = img
                frontier.append(y)
    if len(phi) != src.order:
        return None  # gens do not generate
    # every (x, gen) edge was checked during the walk, which forces
    # multiplicativity on all pairs by induction over generator words
    return [phi[x] for x in range(src.order)]


def _gamma_isomorphisms(h1: GammaGroup, h2: GammaGroup):
    """Every Gamma-equivariant isomorphism h1 -> h2 (bases of equal order),
    as an image list: generator images by element order, extended by
    closure, kept when bijective and equivariant."""
    a, b = h1.base, h2.base
    gens = _small_generating_set(a)
    cands = [[y for y in range(b.order)
              if b.element_order(y) == a.element_order(g)] for g in gens]
    for combo in itertools.product(*cands):
        phi = _hom_from_generators(a, b, gens, list(combo))
        if phi is None or len(set(phi)) != a.order:
            continue
        if all(phi[h1.act[ge][x]] == h2.act[ge][phi[x]]
               for ge in range(h1.gamma.order) for x in range(a.order)):
            yield phi


def gamma_isomorphic(h1: GammaGroup, h2: GammaGroup) -> bool:
    """Gamma-equivariant isomorphism test (same gamma group required)."""
    if h1.gamma.table != h2.gamma.table:
        raise ValidationError("Gamma groups differ")
    a, b = h1.base, h2.base
    if a.order != b.order:
        return False
    if sorted(a.element_order(g) for g in range(a.order)) != \
       sorted(b.element_order(g) for g in range(b.order)):
        return False
    return next(_gamma_isomorphisms(h1, h2), None) is not None


def isomorphic(a: FiniteGroup, b: FiniteGroup, cap: int = 1000) -> bool:
    """Brute-force isomorphism test for |G| <= cap."""
    if a.order != b.order:
        return False
    if a.order > cap:
        raise CapacityError(f"isomorphism testing capped at order {cap}")
    triv = trivial_group()
    ga = GammaGroup(a, triv, [list(range(a.order))], _validated=True)
    gb = GammaGroup(b, triv, [list(range(b.order))], _validated=True)
    return gamma_isomorphic(ga, gb)


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemidirectProduct:
    """H x| Gamma with multiplication (h1,g1)(h2,g2) = (h1*g1(h2), g1 g2)."""
    group: FiniteGroup
    embed_base: tuple      # h -> index of (h, 1)
    embed_gamma: tuple     # gamma -> index of (1, gamma)
    proj_gamma: tuple      # index -> gamma element
    proj_base: tuple       # index -> base element (coset representative part)


def semidirect(h: GammaGroup) -> SemidirectProduct:
    nb, ng = h.base.order, h.gamma.order
    n = nb * ng
    tb, tg = h.base.table, h.gamma.table
    table = [[0] * n for _ in range(n)]
    for h1 in range(nb):
        for g1 in range(ng):
            x = h1 * ng + g1
            row = table[x]
            act1 = h.act[g1]
            for h2 in range(nb):
                hh = tb[h1][act1[h2]] * ng
                base = h2 * ng
                for g2 in range(ng):
                    row[base + g2] = hh + tg[g1][g2]
    grp = FiniteGroup(table, name=f"{h.base.name}:{h.gamma.name}",
                      _validated=True)
    return SemidirectProduct(
        group=grp,
        embed_base=tuple(hh * ng for hh in range(nb)),
        embed_gamma=tuple(range(ng)),
        proj_gamma=tuple(x % ng for x in range(n)),
        proj_base=tuple(x // ng for x in range(n)),
    )


def inversion_action(base: FiniteGroup) -> GammaGroup:
    """The order-2 action by inversion (base must be abelian)."""
    if not base.is_abelian():
        raise ValidationError("inversion is only an automorphism of abelian groups")
    return GammaGroup(base, cyclic(2),
                      [list(range(base.order)), list(base.inv)],
                      name=f"{base.name}-inv")


def trivial_action(base: FiniteGroup, gamma: FiniteGroup) -> GammaGroup:
    return GammaGroup(base, gamma,
                      [list(range(base.order)) for _ in range(gamma.order)],
                      name=f"{base.name}-triv")


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------

def parse_group_file(text: str):
    """Parse the plain-text group format.

    Table format: line 1 `order N`, then N rows of the table, then an
    optional `gamma` stanza with one permutation per Gamma element.
    Permutation format: first line `perm degree=N`, then one generator per
    line in cycle notation.

    Returns a FiniteGroup or a GammaGroup (when a gamma stanza is present).
    """
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValidationError("empty group file")
    head = lines[0].split()
    if head[0] == "perm":
        m = re.match(r"degree=(\d+)", head[1] if len(head) > 1 else "")
        if not m:
            raise ValidationError("perm header must be 'perm degree=N'")
        degree = int(m.group(1))
        gens = [_parse_cycles(ln, degree) for ln in lines[1:]]
        return from_permutations(gens, degree)
    if head[0] != "order":
        raise ValidationError("group file must start with 'order N' or 'perm degree=N'")
    n = int(head[1])
    if len(lines) < 1 + n:
        raise ValidationError(f"expected {n} table rows")
    table = [[int(x) for x in lines[1 + i].split()] for i in range(n)]
    group = FiniteGroup(table)
    rest = lines[1 + n:]
    if not rest:
        return group
    if rest[0] != "gamma":
        raise ValidationError(f"unexpected line after table: {rest[0]!r}")
    perms = [[int(x) for x in ln.split()] for ln in rest[1:]]
    gamma = _gamma_from_perm_list(perms)
    return GammaGroup(group, gamma, perms)


def _gamma_from_perm_list(perms: list[list[int]]) -> FiniteGroup:
    """Build Gamma's multiplication from its faithful permutation list."""
    keyed = {tuple(p): i for i, p in enumerate(perms)}
    if len(keyed) != len(perms):
        raise ValidationError("duplicate permutations in gamma stanza")
    n = len(perms[0])
    ident = tuple(range(n))
    if tuple(perms[0]) != ident:
        raise ValidationError("first gamma permutation must be the identity")
    k = len(perms)
    table = [[0] * k for _ in range(k)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[x]] for x in range(n))
            if comp not in keyed:
                raise ValidationError("gamma permutations are not closed under composition")
            table[i][j] = keyed[comp]
    return FiniteGroup(table, name="gamma")


def _parse_cycles(line: str, degree: int) -> list[int]:
    perm = list(range(degree))
    for cyc in re.findall(r"\(([^()]*)\)", line):
        pts = [int(x) for x in cyc.replace(",", " ").split()]
        if len(pts) < 2:
            continue
        for i, p in enumerate(pts):
            perm[p] = pts[(i + 1) % len(pts)]
    if line.strip() and not re.search(r"\(", line):
        pts = [int(x) for x in line.split()]
        if sorted(pts) == list(range(degree)):
            perm = pts
        else:
            raise ValidationError(f"cannot parse permutation line: {line!r}")
    return perm


def format_group_file(group: FiniteGroup, gamma: Optional[GammaGroup] = None) -> str:
    lines = [f"order {group.order}"]
    for row in group.table:
        lines.append(" ".join(str(x) for x in row))
    if gamma is not None:
        lines.append("gamma")
        for p in gamma.act:
            lines.append(" ".join(str(x) for x in p))
    return "\n".join(lines) + "\n"
