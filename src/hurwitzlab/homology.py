"""Second homology, Schur covers, reduced covers, and the group U(G,c).

Two computation paths live here:

* homology of the (unnormalized) bar complex: `h2` reads H2 off the
  cokernel of the sparse degree-3 boundary, for every group.  C2 / im d3
  is H2 + Z^|G|, so modulo |G| it is H2 plus |G| copies of Z/|G|, which
  are dropped (see `_coker_d3_divisors`).  Groups whose |G|^2 (|S| + 1)
  d3 chains exceed `H2_CHAIN_CAP` raise CapacityError before any chain is
  built;
* a cocycle-space pipeline (generator-parametrized 2-cocycles, coboundaries
  and carry classes quotiented out) that produces explicit cocycles and is
  used to construct stem covers.

The cover construction is verified: the kernel must be central, lie in the
commutator subgroup, and have the full multiplier size.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .abelian import AbelianStructure, structure_of_members
from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import FiniteGroup, _small_generating_set
from .intmat import (howell_form_mod, howell_residue, kernel_mod,
                     quotient_divisors_mod, quotient_with_reps_mod,
                     solve_linear_mod)
from .ntheory import factorize, is_power_of

# |G|^2 (|S| + 1) d3 chains: C2^7 (131,072) and D100 (120,000) run in at
# most 11 s and 650 MiB; C5^3:C2 (312,500) would take about 42 s and 2 GiB
H2_CHAIN_CAP = 150_000

_H2_CACHE: dict = {}


# ---------------------------------------------------------------------------
# bar-complex homology
# ---------------------------------------------------------------------------

def _coker_d3_divisors(group: FiniteGroup) -> list[int]:
    """Elementary divisors (> 1) of H2(G, Z), from the cokernel of d3.

    With n = |G|, C1 = Z^n and d1 = 0, so H1 = C1 / im d2 and im d2 is a
    subgroup of full rank n (H1 is finite); it is free, so the sequence
    0 -> H2 -> C2 / im d3 -> im d2 -> 0 splits and C2 / im d3 is
    H2 + Z^n.  N = n kills H2, so Z^(n^2) / (im d3 + N Z^(n^2)) is
    H2 + (Z/N)^n: its divisors are those of H2 and n copies of N, and
    they are read off the sparse d3 chains with no kernel basis of d2.
    Fewer than n copies of N means the computation is wrong.
    """
    n = group.order
    if n == 1:
        return []
    chains = n * n * (len(_small_generating_set(group)) + 1)
    if chains > H2_CHAIN_CAP:
        raise CapacityError(
            f"h2: {group.name} of order {n} needs {chains} d3 "
            f"chains, above the cap of {H2_CHAIN_CAP}")
    divisors = quotient_divisors_mod(_d3_generator_chains(group), n * n, n)
    if divisors[len(divisors) - n:] != [n] * n:
        raise InternalCheckError(
            f"coker d3 holds fewer than {n} copies of Z/{n}")
    return divisors[:len(divisors) - n]


def _d3_generator_chains(group: FiniteGroup):
    """Sparse spanning chains of the image of the degree-3 bar boundary.

    Columns with third slot restricted to a generating set (plus the
    identity) span the full boundary image: expanding the third slot of
    d3[g|h|kl] via the vanishing coboundary-of-coboundary identity rewrites
    any column as an integer combination of restricted ones.
    """
    n = group.order
    t = group.table
    S = _small_generating_set(group) if n > 1 else []
    chains = []
    for g in range(n):
        row_g = t[g]
        for h in range(n):
            gh = row_g[h]
            row_h = t[h]
            for k in S + [0]:
                ch: dict[int, int] = {}
                for key, val in ((h * n + k, 1), (gh * n + k, -1),
                                 (g * n + row_h[k], 1), (g * n + h, -1)):
                    ch[key] = ch.get(key, 0) + val
                ch = {kk: vv for kk, vv in ch.items() if vv}
                if ch:
                    chains.append(ch)
    return chains


def h2(group: FiniteGroup) -> AbelianStructure:
    """The Schur multiplier H2(G, Z) in divisor-chain form.

    Read off the cokernel of d3 with the free part Z^|G| of C2 / im d3
    dropped (`_coker_d3_divisors`).  Raises CapacityError at once when the
    d3 chain count |G|^2 (|S| + 1) exceeds `H2_CHAIN_CAP`.
    """
    key = (group.content_key(), "h2")
    if key not in _H2_CACHE:
        _H2_CACHE[key] = AbelianStructure.from_cyclic_orders(
            _coker_d3_divisors(group))
    return _H2_CACHE[key]


# ---------------------------------------------------------------------------
# cocycle pipeline
# ---------------------------------------------------------------------------

class _CocycleSpace:
    """Generator-parametrized normalized 2-cochains of a finite group.

    A normalized 2-cocycle is determined by its values on G x S for a
    generating set S; `expr[(g, h)]` expresses f(g, h) as an integer
    combination of the unknowns f(g', s)."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        n = group.order
        self.S = _small_generating_set(group) if n > 1 else []
        t = group.table
        word: dict[int, list[int]] = {0: []}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for si, s in enumerate(self.S):
                    y = t[x][s]
                    if y not in word:
                        word[y] = word[x] + [si]
                        nxt.append(y)
            frontier = nxt
        self.word = word
        self.idx = {}
        for g in range(1, n):
            for si in range(len(self.S)):
                self.idx[(g, si)] = len(self.idx)
        self.nun = len(self.idx)
        expr: dict[tuple, dict] = {}
        for g in range(n):
            expr[(g, 0)] = {}
            expr[(0, g)] = {}
        order = sorted(range(n), key=lambda g: len(word[g]))
        for g in range(1, n):
            for h in order:
                if h == 0:
                    continue
                w = word[h]
                if len(w) == 1:
                    expr[(g, h)] = {(g, w[0]): 1}
                    continue
                si = w[-1]
                u = 0
                for ti in w[:-1]:
                    u = t[u][self.S[ti]]
                e = dict(expr[(g, u)])
                gu = t[g][u]
                if gu != 0:
                    e[(gu, si)] = e.get((gu, si), 0) + 1
                e[(u, si)] = e.get((u, si), 0) - 1
                expr[(g, h)] = {k: v for k, v in e.items() if v}
        self.expr = expr

    def vec(self, e: dict) -> list[int]:
        v = [0] * self.nun
        for k, c in e.items():
            v[self.idx[k]] += c
        return v

    def constraint_rows(self):
        """Cocycle identity rows over G x G x S (they imply all triples)."""
        t = self.group.table
        n = self.group.order
        rows = []
        for g in range(1, n):
            for h in range(1, n):
                eg = self.expr[(g, h)]
                gh = t[g][h]
                for s in self.S:
                    e = dict(eg)
                    for pair, sign in (((gh, s), 1), ((h, s), -1),
                                       ((g, t[h][s]), -1)):
                        for k, v in self.expr[pair].items():
                            e[k] = e.get(k, 0) + sign * v
                    rows.append(self.vec(e))
        return rows

    def coboundary_vectors(self, m: int):
        n = self.group.order
        t = self.group.table
        out = []
        for g0 in range(1, n):
            v = [0] * self.nun
            for (g, si), j in self.idx.items():
                s = self.S[si]
                val = (g == g0) + (s == g0) - (t[g][s] == g0)
                v[j] = val % m
            out.append(v)
        return out

    def carry_vectors(self, m: int):
        """delta of a generating set of Hom(G, Z/m) (carry cocycles)."""
        group = self.group
        ab, proj = group.abelianization()
        data = structure_of_members(ab, range(ab.order))
        out = []
        for i, (b, d) in enumerate(zip(data.basis, data.basis_orders)):
            scale = m // math.gcd(d, m)
            chi = [(data.coords[proj[g]][i] * scale) % m for g in range(group.order)]
            v = [0] * self.nun
            for (g, si), j in self.idx.items():
                s = self.S[si]
                tot = chi[g] + chi[s] - chi[group.table[g][s]]
                if tot % m:
                    raise InternalCheckError("carry cocycle: chi not a hom")
                v[j] = (tot // m) % m
            out.append(v)
        return out

    def full_table(self, unknowns: Sequence[int], m: int):
        n = self.group.order
        tab = [[0] * n for _ in range(n)]
        for (g, h), e in self.expr.items():
            val = 0
            for k, c in e.items():
                val += c * unknowns[self.idx[k]]
            tab[g][h] = val % m
        return tab


@dataclass
class CentralExtension:
    """A central extension S -> G with identified abelian kernel."""
    total: FiniteGroup
    proj: tuple
    kernel_members: tuple
    kernel_structure: AbelianStructure
    kernel_coords: dict      # kernel member -> coordinate tuple
    kernel_from_coords: dict  # coordinate tuple -> kernel member

    def verify(self, group: FiniteGroup, stem: bool = True):
        S = self.total
        if sorted(set(self.proj)) != list(range(group.order)):
            raise InternalCheckError("projection not surjective")
        for a in range(S.order):
            for b in range(S.order):
                if self.proj[S.table[a][b]] != group.table[self.proj[a]][self.proj[b]]:
                    raise InternalCheckError("projection not a homomorphism")
        ker = [x for x in range(S.order) if self.proj[x] == 0]
        if sorted(ker) != sorted(self.kernel_members):
            raise InternalCheckError("kernel mismatch")
        cent = set(S.center())
        if not set(ker) <= cent:
            raise InternalCheckError("kernel not central")
        if stem:
            comm = set(S.commutator_subgroup())
            if not set(ker) <= comm:
                raise InternalCheckError("stem condition failed: kernel outside [S,S]")


def _extension_from_factors(group: FiniteGroup, factors):
    """Central extension of `group` by prod Z/d_i with cocycle tables."""
    n = group.order
    ds = [d for d, _ in factors]
    tabs = [t for _, t in factors]
    ksize = math.prod(ds) if ds else 1
    size = ksize * n
    if size > 5000:
        raise CapacityError(f"cover of order {size} exceeds construction cap")

    def enc(avec, g):
        x = 0
        for a, d in zip(avec, ds):
            x = x * d + a
        return x * n + g

    table = [[0] * size for _ in range(size)]
    for x in range(size):
        xa, gx = divmod(x, n)
        avec_x = []
        rem = xa
        for d in reversed(ds):
            rem, a = divmod(rem, d)
            avec_x.append(a)
        avec_x.reverse()
        rowx = table[x]
        for y in range(size):
            ya, gy = divmod(y, n)
            avec_y = []
            rem = ya
            for d in reversed(ds):
                rem, a = divmod(rem, d)
                avec_y.append(a)
            avec_y.reverse()
            az = [(a + b + t[gx][gy]) % d
                  for a, b, t, d in zip(avec_x, avec_y, tabs, ds)]
            rowx[y] = enc(az, group.table[gx][gy])
    total = FiniteGroup(table, name=f"cover({group.name})", _validated=True)
    proj = tuple(x % n for x in range(size))
    kernel_members = tuple(x * n for x in range(ksize))
    coords = {}
    from_coords = {}
    for x in range(ksize):
        rem = x
        avec = []
        for d in reversed(ds):
            rem, a = divmod(rem, d)
            avec.append(a)
        avec.reverse()
        coords[x * n] = tuple(avec)
        from_coords[tuple(avec)] = x * n
    return CentralExtension(
        total=total, proj=proj, kernel_members=kernel_members,
        kernel_structure=AbelianStructure.from_cyclic_orders(ds),
        kernel_coords=coords, kernel_from_coords=from_coords)


def schur_cover(group: FiniteGroup) -> CentralExtension:
    """A Schur covering group: stem central extension by H2(G, Z).

    Built from adapted cocycle classes; the transgression is certified by
    checking the kernel is central, lies in [S, S], and has the full
    multiplier order.
    """
    space = _CocycleSpace(group)
    rows = space.constraint_rows()
    factors = []
    for p, e in factorize(group.order).items():
        m = p ** e
        if not space.nun:
            continue
        sol = kernel_mod(rows, space.nun, m)
        sub = space.coboundary_vectors(m) + space.carry_vectors(m)
        adapted = quotient_with_reps_mod(sol, sub, space.nun, m)
        for d, repv in adapted:
            if not is_power_of(d, p):
                raise InternalCheckError("non-p-power divisor in p-part")
            scale = m // d
            if scale > 1:
                eq_rows = [[bas[j] % scale for bas in sub]
                           for j in range(space.nun)]
                rhs = [(-repv[j]) % scale for j in range(space.nun)]
                x = solve_linear_mod(eq_rows, rhs, len(sub), scale)
                if x is None:
                    raise InternalCheckError("cocycle scaling solve failed")
                vfull = list(repv)
                for coef, bas in zip(x, sub):
                    if coef:
                        for j in range(space.nun):
                            vfull[j] += coef * bas[j]
                vfull = [v % m for v in vfull]
            else:
                vfull = list(repv)
            if any(v % scale for v in vfull):
                raise InternalCheckError("representative not divisible for scaling")
            w = [(v // scale) % d for v in vfull]
            # the Howell residue of w modulo coboundaries and carries: one
            # fixed member of the coset, not the engine's (for C3xC3 that
            # is the exponent-3 Heisenberg cover, not the exponent-9 one)
            H = howell_form_mod(space.coboundary_vectors(d)
                                + space.carry_vectors(d), space.nun, d)
            factors.append((d, space.full_table(howell_residue(H, w, d), d)))
    expected = h2(group)
    ext = _extension_from_factors(group, factors)
    if ext.kernel_structure != expected:
        raise InternalCheckError(
            f"cover kernel {ext.kernel_structure} != H2 {expected}")
    ext.verify(group, stem=True)
    comm = set(ext.total.commutator_subgroup())
    if len(set(ext.kernel_members) & comm) != expected.order:
        raise InternalCheckError("transgression certificate failed")
    return ext


def reduce_cover(ext: CentralExtension, group: FiniteGroup, c: Sequence[int]):
    """The reduced cover S_c: quotient of S by commutators of lifts of
    commuting pairs whose first member projects into c."""
    S = ext.total
    t = group.table
    cset = set(c)
    lifts_of = [[] for _ in range(group.order)]
    for x in range(S.order):
        lifts_of[ext.proj[x]].append(x)
    comm_gens = set()
    for gx in cset:
        xh = lifts_of[gx][0]  # commutator independent of lift choice (central fibers)
        for gy in range(group.order):
            if t[gx][gy] == t[gy][gx]:
                yh = lifts_of[gy][0]
                cc = S.commutator(xh, yh)
                if cc:
                    comm_gens.add(cc)
    M = S.normal_closure(comm_gens) if comm_gens else (0,)
    q, coset_of = S.quotient(M)
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

def validate_c(group: FiniteGroup, c: Sequence[int]) -> tuple:
    cset = sorted(set(int(x) for x in c))
    if not cset:
        raise ValidationError("c must be nonempty")
    if cset[0] < 1 or cset[-1] >= group.order:
        raise ValidationError("c must hold non-identity element indices "
                              f"in 1..{group.order - 1}")
    s = set(cset)
    for x in cset:
        for g in range(group.order):
            if group.conj(x, g) not in s:
                raise ValidationError(
                    f"c not closed under conjugation: {g}*{x}*{g}^-1 missing")
        ox = group.element_order(x)
        for k in range(1, ox):
            if math.gcd(k, ox) == 1 and group.power(x, k) not in s:
                raise ValidationError(
                    f"c not closed under invertible powers: {x}^{k} missing")
    if group.subgroup_closure(cset) != tuple(range(group.order)):
        raise ValidationError("c does not generate the group")
    return tuple(cset)


class UContext:
    """The group U(G,c) = S_c x_{G^ab} Z^{c/G} with chosen bracket lifts.

    Immutable and shareable; build once per (G, c) pair (see build_u)."""

    def __init__(self, group: FiniteGroup, c: Sequence[int],
                 coherence_cap: int = 20000):
        self._init_common(group, c)
        cover = schur_cover(group)
        self.sc = reduce_cover(cover, group, self.c)
        self.h2c = self.sc.kernel_structure
        self._build_lifts()
        self._finish(coherence_cap)

    @classmethod
    def _from_parts(cls, group, c, sc: CentralExtension, lifts: dict):
        self = cls.__new__(cls)
        self._init_common(group, c)
        self.sc = sc
        self.h2c = sc.kernel_structure
        self.lifts = lifts
        self._finish(coherence_cap=20000)
        return self

    def _init_common(self, group: FiniteGroup, c: Sequence[int]):
        self.group = group
        self.c = validate_c(group, c)
        cc = group.conjugacy_classes()
        class_ids = sorted({cc.class_of[x] for x in self.c},
                           key=lambda cid: cc.reps[cid])
        self.class_list = class_ids           # global class id per c-class slot
        self.nclasses = len(class_ids)
        self.class_slot = {cid: i for i, cid in enumerate(class_ids)}
        self.class_of = {x: self.class_slot[cc.class_of[x]] for x in self.c}
        self.class_reps = [cc.reps[cid] for cid in class_ids]
        self.class_members = [tuple(m for m in cc.members[cid])
                              for cid in class_ids]
        self._conj_table = cc

    def _finish(self, coherence_cap: int):
        group = self.group
        ab, ab_proj = group.abelianization()
        ab_data = structure_of_members(ab, range(ab.order))
        self._ab_orders = tuple(ab_data.basis_orders)
        self._ab_of_elem = [ab_data.coords[ab_proj[g]] for g in range(group.order)]
        self._validate_lifts(coherence_cap)
        # powering permutations of the c-class slots (for shape invariants)
        self.power_perms = self._power_perms()

    # -- construction helpers ------------------------------------------------

    def _build_lifts(self):
        S = self.sc.total
        proj = self.sc.proj
        g_of = [[] for _ in range(self.group.order)]
        for x in range(S.order):
            g_of[proj[x]].append(x)
        lifts = {}
        t = self.group.table
        for slot, rep in enumerate(self.class_reps):
            lifts[rep] = min(g_of[rep])
            # BFS across the class recording a conjugator for each member
            conj_by = {rep: 0}
            frontier = [rep]
            while frontier:
                x = frontier.pop()
                for g in range(self.group.order):
                    y = self.group.conj(x, g)
                    if y not in conj_by:
                        conj_by[y] = t[g][conj_by[x]]
                        frontier.append(y)
            for y, g in conj_by.items():
                if y == rep:
                    continue
                ghat = min(g_of[g])
                lifts[y] = S.table[S.table[ghat][lifts[rep]]][S.inv[ghat]]
        self.lifts = lifts

    def _validate_lifts(self, coherence_cap: int):
        S = self.sc.total
        proj = self.sc.proj
        t = self.group.table
        # defining relation: lifts of commuting pairs (first in c) commute
        for x in self.c:
            xh = self.lifts[x]
            for y in range(self.group.order):
                if t[x][y] == t[y][x]:
                    yh = next(z for z in range(S.order) if proj[z] == y)
                    if S.commutator(xh, yh) != 0:
                        raise InternalCheckError(
                            "reduced cover defect: commuting pair with "
                            "non-commuting lifts")
        if S.order * len(self.c) <= coherence_cap:
            rng = range(S.order)
        else:
            rng = range(0, S.order, max(1, S.order // 200))
        for u in rng:
            pu = proj[u]
            for x in self.c:
                img = self.group.conj(x, pu)
                lhs = S.table[S.table[u][self.lifts[x]]][S.inv[u]]
                if lhs != self.lifts[img]:
                    raise InternalCheckError("conjugation coherence failed")

    def _power_perms(self):
        e = self.group.exponent()
        perms = set()
        for k in range(1, e + 1):
            if math.gcd(k, e) == 1:
                img = []
                for rep in self.class_reps:
                    y = self.group.power(rep, k)
                    img.append(self.class_of[y])
                perms.add(tuple(img))
        return sorted(perms)

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

    def content_key(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.group.content_key())
        h.update(b"|c:" + b",".join(str(x).encode() for x in self.c))
        return h.digest()


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
        S = self.ctx.sc.total
        return UElement(self.ctx, S.table[self.s][other.s],
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


def build_u(group: FiniteGroup, c: Sequence[int],
            cache_dir: Optional[str] = None) -> UContext:
    """Build (or load from the JSON cache) the UContext for (G, c).

    A cache file that cannot be decoded, does not validate, or holds
    another (G, c) is rebuilt and overwritten, never trusted."""
    if cache_dir is None:
        return UContext(group, c)
    cdir = Path(cache_dir)
    cdir.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    h.update(group.content_key())
    h.update(b"|c:" + b",".join(str(x).encode() for x in sorted(set(int(x) for x in c))))
    path = cdir / (h.hexdigest()[:32] + ".ucontext")
    if path.exists():
        try:
            ctx = load_ucontext(path)
            if ctx.group.table == group.table and ctx.c == tuple(sorted(set(c))):
                return ctx
        except (ValidationError, InternalCheckError):
            pass
    ctx = UContext(group, c)
    save_ucontext(ctx, path)
    return ctx


_CACHE_VERSION = 3


def save_ucontext(ctx: UContext, path) -> None:
    """Write the cover and lifts as JSON, atomically (write, then rename)."""
    payload = {
        "version": _CACHE_VERSION,
        "group_table": ctx.group.table,
        "group_name": ctx.group.name,
        "c": list(ctx.c),
        "sc_table": ctx.sc.total.table,
        "sc_proj": list(ctx.sc.proj),
        "sc_kernel": list(ctx.sc.kernel_members),
        "lifts": sorted(ctx.lifts.items()),
    }
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def load_ucontext(path) -> UContext:
    """Rebuild a UContext from the serialized cover, skipping cover
    construction.  Both tables are validated as groups, the cover is
    verified as a stem central extension and the lifts by UContext; a
    file that fails to decode or to validate raises ValidationError or
    InternalCheckError."""
    try:
        payload = json.loads(Path(path).read_bytes())
        if payload["version"] != _CACHE_VERSION:
            raise ValidationError("unsupported ucontext cache version")
        group = FiniteGroup(payload["group_table"], name=str(payload["group_name"]))
        total = FiniteGroup(payload["sc_table"], name="cached-cover")
        kernel_members = tuple(int(x) for x in payload["sc_kernel"])
        data = structure_of_members(total, kernel_members)
        sc = CentralExtension(
            total=total, proj=tuple(int(x) for x in payload["sc_proj"]),
            kernel_members=kernel_members, kernel_structure=data.structure,
            kernel_coords=dict(data.coords),
            kernel_from_coords={v: k for k, v in data.coords.items()})
        sc.verify(group, stem=True)
        lifts = {int(x): int(y) for x, y in payload["lifts"]}
        return UContext._from_parts(group, payload["c"], sc, lifts)
    except (ValueError, TypeError, KeyError, IndexError) as e:
        raise ValidationError(f"unusable ucontext cache: {e!r}") from e
