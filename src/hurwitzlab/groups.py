"""Finite group engine: multiplication-table groups, Gamma-actions,
conjugacy machinery, subgroup closures, semidirect products, and the
admissibility layer (Y-map, admissible closures, equivariant counting).

Elements are dense integer indices with the identity fixed at index 0.
All objects are immutable after construction and safe to share.  Laws of
the whole group are read off one generating set (`_generating_set`): a
given table is proved associative by Light's test on it, at every order,
and the centre and the derived subgroup are read from it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .abelian import _element_orders
from .errors import CapacityError, InternalCheckError, ValidationError

DEFAULT_CLOSURE_CAP = 100_000
DEFAULT_TABLE_CAP = 4_000_000  # max order**2 entries for a materialized table


class FiniteGroup:
    """A finite group as a validated multiplication table.

    Identity is element 0.  `array` is the table, one read-only int64 array
    built once: `array[a, b]` is the product a*b.  The scalar methods read
    it and return Python ints; a walk over many products reads the columns
    or rows it needs, and no whole-table list is kept.
    """

    __slots__ = ("order", "array", "inv", "_orders", "_key", "_gens", "name")

    def __init__(self, table, name: str = "", _validated: bool = False):
        arr = _table_array(table)
        if not _validated:
            _validate_table(arr)
        arr.flags.writeable = False
        n = len(arr)
        self.order = n
        self.array = arr
        self.name = name or f"group{n}"
        inv = (arr == 0).argmax(axis=1)
        missing = np.flatnonzero(arr[np.arange(n), inv])
        if len(missing):
            raise ValidationError(f"element {missing[0]} has no inverse")
        self.inv = inv.tolist()
        self._orders = self._key = self._gens = None
        if _validated:
            return
        # Light's test, in the least index dtype: the s with (a s) b =
        # a (s b) for all a, b hold 0 and are closed under products, as
        # (a s t) b = (a s)(t b) = a (s t b), so it is enough that the
        # generators pass.  Each passes before the next is sought, so the
        # closures so far are subgroups (x -> x w is injective when w b = 0)
        # and there are at most log2 n of them.
        t = arr.astype(np.min_scalar_type(n))
        for s in _generators(self):
            bad = t.take(t[:, s], axis=0) != t.take(t[s], axis=1)
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                raise ValidationError(
                    f"non-associative: ({a}*{s})*{b} != {a}*({s}*{b})")

    # -- basics ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.array.item(a, b)

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, h: int) -> int:
        """h g h^{-1}."""
        t = self.array
        return t.item(t.item(h, g), self.inv[h])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        r = 0
        t = self.array
        while k:
            if k & 1:
                r = t.item(r, g)
            g = t.item(g, g)
            k >>= 1
        return r

    def element_order(self, g: int) -> int:
        if self._orders is None:
            self._orders = _element_orders(range(self.order), self.mul, 0)
        return self._orders[g]

    def exponent(self) -> int:
        return math.lcm(*map(self.element_order, range(self.order)))

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool((self.array == self.array.T).all())

    def commutator(self, a: int, b: int) -> int:
        t, inv = self.array, self.inv
        return t.item(t.item(t.item(a, b), inv[a]), inv[b])

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return int.from_bytes(self.content_key()[:8], "big")

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def content_key(self) -> bytes:
        """Bytes identifying the table (the key of `h2`'s memo and of
        `__hash__`): the sha256 of the order, then of the int64 table's
        bytes in little-endian row-major order."""
        if self._key is None:
            import hashlib
            h = hashlib.sha256(str(self.order).encode())
            h.update(self.array.astype("<i8", copy=False).tobytes())
            self._key = h.digest()
        return self._key

    # -- subgroup machinery --------------------------------------------------

    def subgroup_closure(self, gens: Iterable[int]) -> tuple:
        # right multiplication alone reaches every word: in a finite group
        # each inverse is a positive power; a generator outside the closure
        # so far adds its column x -> x s and extends the walk
        seen = {0}
        cols = []
        for s in sorted(set(gens)):
            if s in seen:
                continue
            cols.append(self.array[:, s].tolist())
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for col in cols:
                    y = col[x]
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(sorted(seen))

    def normal_closure(self, gens: Iterable[int]) -> tuple:
        """Subgroup generated by the conjugates h s h^-1 of the given
        elements: a conjugation-stable set generates a normal subgroup."""
        t = self.array
        seen = np.zeros(self.order, dtype=bool)
        seen[t[t[:, sorted(set(gens))], np.asarray(self.inv)[:, None]]] = True
        return self.subgroup_closure(np.flatnonzero(seen).tolist())

    def commutator_subgroup(self) -> tuple:
        """[G, G] as the normal closure of the commutators of generators:
        modulo it the generators commute, so the quotient is abelian."""
        gens = _generating_set(self)
        return self.normal_closure(
            [self.commutator(a, b) for a in gens for b in gens])

    def center(self) -> tuple:
        """The elements commuting with every generator, hence with every
        word in them."""
        t, gens = self.array, _generating_set(self)
        return tuple(np.flatnonzero(
            (t[:, gens] == t[gens].T).all(axis=1)).tolist())

    def quotient(self, normal_members: Sequence[int]):
        """Quotient by a normal subgroup; returns (FiniteGroup, projection list).

        Coset labels are assigned by smallest member, then renumbered so the
        identity coset is 0 and labels follow smallest-representative order.
        """
        nset = set(normal_members)
        if 0 not in nset:
            raise ValidationError("normal subgroup must contain the identity")
        mem = sorted(nset)
        member = np.zeros(self.order, dtype=bool)
        member[mem] = True
        t = self.array
        gn = t[:, mem]
        if not member[t[gn, np.asarray(self.inv)[:, None]]].all():
            raise ValidationError("subgroup is not normal")
        # the least member of each coset gN, and the cosets numbered in
        # the order of their least members
        least = gn.min(axis=1)
        is_rep = least == np.arange(self.order)
        coset_of = (np.cumsum(is_rep) - 1)[least]
        reps = np.flatnonzero(is_rep)
        qt = coset_of[t[np.ix_(reps, reps)]]
        q = FiniteGroup(qt, name=f"{self.name}/N", _validated=True)
        return q, coset_of.tolist()

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


def _table_array(table) -> np.ndarray:
    """The table as a square int64 array (an int64 array is taken over, not
    copied); a ragged or non-integer table raises ValidationError."""
    n = len(table)
    if n == 0:
        raise ValidationError("empty multiplication table")
    try:
        arr = np.asarray(table, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is None or arr.shape != (n, n):
        for i, r in enumerate(table):
            if len(r) != n:
                raise ValidationError(
                    f"row {i} has length {len(r)}, expected {n}")
        raise ValidationError("table entries must be integers")
    return arr


def _validate_table(arr: np.ndarray):
    n = len(arr)
    bad = np.argwhere((arr < 0) | (arr >= n))
    if len(bad):
        i, j = map(int, bad[0])
        raise ValidationError(f"entry {arr[i, j]} out of range in row {i}")
    ident = np.arange(n)
    if (arr[0] != ident).any() or (arr[:, 0] != ident).any():
        raise ValidationError("no identity: element 0 must satisfy 0*g = g*0 = g")


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
    r = np.arange(n)
    return FiniteGroup(np.add.outer(r, r) % n, name=f"C{n}", _validated=True)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """a x b with (xa, xb) at index xa * |b| + xb."""
    nb = b.order
    table = a.array[:, None, :, None] * nb + b.array[None, :, None, :]
    return FiniteGroup(table.reshape(a.order * nb, -1),
                       name=f"{a.name}x{b.name}", _validated=True)


def abelian(orders: Sequence[int]) -> FiniteGroup:
    """prod Z/d_i with the digits of an index in mixed radix, the first
    factor the most significant: the table of chained `direct_product`s
    of cyclic groups, built on arrays with one broadcast per factor and
    made a group once."""
    if any(d < 1 for d in orders):
        raise ValidationError("cyclic group order must be positive")
    table = np.zeros((1, 1), dtype=np.int64)
    for d in orders:
        r = np.arange(d)
        table = (table[:, None, :, None] * d
                 + (np.add.outer(r, r) % d)[None, :, None, :]).reshape(
                     len(table) * d, -1)
    return FiniteGroup(table, name="x".join(f"C{d}" for d in orders) or "C1",
                       _validated=True)


def _metacyclic(m: int, s: int, k: int, t: int, name: str) -> FiniteGroup:
    """<a, b | a^m = 1, b^s = a^t, b a b^-1 = a^k>, with a^i b^j at index
    i + m*j."""
    i, j = np.divmod(np.arange(m * s), m)[::-1]
    kj = np.array([pow(k, e, m) for e in range(s)])
    jj = j[:, None] + j[None, :]
    return FiniteGroup((i[:, None] + i[None, :] * kj[j][:, None]
                        + t * (jj >= s)) % m + m * (jj % s), name=name)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    return _metacyclic(n, 2, -1, 0, f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n (n=2: quaternion Q8, n=4: Q16)."""
    return _metacyclic(2 * n, 2, -1, n, f"Dic{n}")


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


def semidihedral16() -> FiniteGroup:
    return _metacyclic(8, 2, 3, 0, "SD16")


def modular16() -> FiniteGroup:
    return _metacyclic(8, 2, 5, 0, "M16")


def c4_semidirect_c4() -> FiniteGroup:
    return _metacyclic(4, 4, -1, 0, "C4:C4")


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
        t, inv = group.array, np.asarray(group.inv)
        class_of = np.full(n, -1)
        members = []
        for g in range(n):
            if class_of[g] == -1:
                # the conjugates h g h^-1 of g, one gather over every h
                orbit = np.zeros(n, dtype=bool)
                orbit[t[t[:, g], inv]] = True
                class_of[orbit] = len(members)
                members.append(tuple(np.flatnonzero(orbit).tolist()))
        self.class_of = class_of.tolist()
        self.reps = [m[0] for m in members]
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
        # a finite set closed under products holds the inverses too, and
        # is the subgroup it generates
        if self.parent.subgroup_closure(mem) != mem:
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
        t = self.base.array
        # a bijection p with p(a s) = p(a) p(s) for every a and every s of a
        # generating set is an automorphism: every element is a positive
        # word in the generators, so p(a b) = p(a) p(b) by induction on b
        gens = _generating_set(self.base)
        for gi, p in enumerate(self.act):
            if sorted(p) != list(range(n)):
                raise ValidationError(f"act[{gi}] is not a permutation")
            p = np.array(p)
            bad = p[t[:, gens]] != t[p[:, None], p[gens]]
            if bad.any():
                a, k = np.argwhere(bad)[0]
                raise ValidationError(
                    f"act[{gi}] is not an automorphism at ({a},{gens[k]})")
        if self.act[0] != list(range(n)):
            raise ValidationError("act[identity] must be the identity map")
        # act[g1] o act[g2] against act[g1 g2], for every pair at once
        act = np.array(self.act)
        bad = np.argwhere((act[np.arange(k)[:, None, None], act[None]]
                           != act[self.gamma.array]).any(axis=2))
        if len(bad):
            g1, g2 = bad[0]
            raise ValidationError(
                f"act is not a homomorphism at ({g1},{g2})")

    def apply(self, gamma_elt: int, g: int) -> int:
        return self.act[gamma_elt][g]

    def y_map(self, g: int) -> tuple:
        """The Gamma-indexed tuple of g^{-1} * gamma(g)."""
        return tuple(self.base.array[self.base.inv[g],
                                     [p[g] for p in self.act]].tolist())

    def invariants(self, d_members: Sequence[int]) -> Subgroup:
        """Fixed-point subgroup of the action of a subgroup D <= Gamma."""
        dset = set(d_members)
        if 0 not in dset:
            raise ValidationError("D must contain the identity of Gamma")
        fixed = [g for g in range(self.base.order)
                 if all(self.act[ge][g] == g for ge in dset)]
        return Subgroup(self.base, tuple(fixed))

    def gamma_stable_closure(self, elements: Iterable[int]) -> tuple:
        """Smallest Gamma-stable subgroup containing the given elements: the
        subgroup generated by their Gamma-orbits, as Gamma acts by
        automorphisms."""
        return self.base.subgroup_closure(
            {p[e] for e in set(elements) for p in self.act})

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


def _generators(g: FiniteGroup):
    """Yields generators of g, each the least element outside the subgroup
    the ones before it generate: each at least doubles that subgroup, so
    there are at most log2 |g| of them, found with as many closures."""
    gens: list[int] = []
    have = np.zeros(g.order, dtype=bool)
    have[0] = True
    while not have.all():
        gens.append(int(have.argmin()))
        yield gens[-1]
        have[list(g.subgroup_closure(gens))] = True


def _generating_set(g: FiniteGroup) -> list[int]:
    """The generators of `_generators`, memoised on g."""
    if g._gens is None:
        g._gens = list(_generators(g))
    return g._gens


def _small_generating_set(g: FiniteGroup) -> list[int]:
    """Greedy generators: each the least x giving the largest <H, x>, H the
    subgroup the ones before it generate.  <H, x h> = <H, x> for h in H,
    so only the least element of each left coset x H is tried.  <H, x> is
    the union of the left cosets z H reached from H by right
    multiplication by x: it is closed under H and under x, so it is a
    subgroup, and each member costs one entry of x's column."""
    gens: list[int] = []
    have = np.zeros(1, dtype=np.int64)
    while len(have) < g.order:
        seen = np.zeros(g.order, dtype=bool)
        seen[have] = True
        members = have.tolist()
        best = None
        for x in range(1, g.order):
            if seen[x]:
                continue
            seen[g.array[x, have]] = True
            join = set(members)
            frontier = list(members)
            while frontier:
                z = g.array.item(frontier.pop(), x)
                if z not in join:
                    coset = g.array[z, have].tolist()
                    join.update(coset)
                    frontier += coset
            if best is None or len(join) > len(best[1]):
                best = (x, join)
        gens.append(best[0])
        have = np.array(sorted(best[1]), dtype=np.int64)
    return gens


def _hom_from_generators(src: FiniteGroup, dst: FiniteGroup,
                         gens: Sequence[int], images: Sequence[int]):
    """Extend generator images to a homomorphism by closure, or None.

    Walks the closure of `gens` in src, assigning images; returns the full
    image list if consistent."""
    phi = {0: 0}
    frontier = [0]
    gi = dict(zip(gens, images))
    edges = list(zip(src.array[:, list(gi)].T.tolist(),
                     dst.array[:, list(gi.values())].T.tolist()))
    while frontier:
        x = frontier.pop()
        for scol, dcol in edges:
            y = scol[x]
            img = dcol[phi[x]]
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
    if h1.gamma != h2.gamma:
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
    # (h1, g1)(h2, g2) = (h1 g1(h2), g1 g2), with (h, g) at index h * ng + g
    left = h.base.array[np.arange(nb)[:, None, None], np.array(h.act)[None]]
    table = left[:, :, :, None] * ng + h.gamma.array[None, :, None, :]
    grp = FiniteGroup(table.reshape(n, n),
                      name=f"{h.base.name}:{h.gamma.name}", _validated=True)
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
    if head[0] != "order" or len(head) < 2:
        raise ValidationError("group file must start with 'order N' or 'perm degree=N'")
    n, = _file_ints(head[1], "order")
    if len(lines) < 1 + n:
        raise ValidationError(f"expected {n} table rows")
    table = [_file_ints(lines[1 + i], "table row") for i in range(n)]
    group = FiniteGroup(table)
    rest = lines[1 + n:]
    if not rest:
        return group
    if rest[0] != "gamma":
        raise ValidationError(f"unexpected line after table: {rest[0]!r}")
    perms = [_file_ints(ln, "gamma permutation") for ln in rest[1:]]
    if not perms or any(sorted(p) != list(range(n)) for p in perms):
        raise ValidationError(
            f"each gamma line must be a permutation of 0..{n - 1}")
    gamma = _gamma_from_perm_list(perms)
    return GammaGroup(group, gamma, perms)


def _file_ints(line: str, what: str) -> list[int]:
    """The integers of one line of a group file."""
    try:
        return [int(x) for x in line.split()]
    except ValueError:
        raise ValidationError(f"{what}: {line!r} holds a non-integer") from None


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
        pts = _file_ints(cyc.replace(",", " "), "cycle")
        if not all(0 <= p < degree for p in pts):
            raise ValidationError(f"cycle ({cyc}) has a point outside "
                                  f"0..{degree - 1}")
        if len(pts) < 2:
            continue
        for i, p in enumerate(pts):
            perm[p] = pts[(i + 1) % len(pts)]
    if line.strip() and not re.search(r"\(", line):
        pts = _file_ints(line, "permutation line")
        if sorted(pts) == list(range(degree)):
            perm = pts
        else:
            raise ValidationError(f"cannot parse permutation line: {line!r}")
    return perm


def format_group_file(group: FiniteGroup, gamma: Optional[GammaGroup] = None) -> str:
    lines = [f"order {group.order}"]
    for row in group.array.tolist():
        lines.append(" ".join(map(str, row)))
    if gamma is not None:
        lines.append("gamma")
        for p in gamma.act:
            lines.append(" ".join(str(x) for x in p))
    return "\n".join(lines) + "\n"
