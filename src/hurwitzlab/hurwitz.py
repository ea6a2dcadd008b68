"""Nielsen tuples, braid moves, orbit enumeration, and lifting invariants.

A Nielsen tuple is (g_1, ..., g_{n-1}; g_inf) with entries in a
conjugation- and power-closed subset c, product g_1 ... g_{n-1} = g_inf^{-1},
and <entries, g_inf> = G.  Orbits are taken under the braid moves
sigma_i: (g_i, g_{i+1}) -> (g_i g_{i+1} g_i^{-1}, g_i) together with
simultaneous conjugation by g_inf.

The orbit engine works on packed tuples of c-indices: canonical form is the
lexicographic minimum over <g_inf>-conjugates, and orbits are connected
components of the braid-move graph on canonical forms (union-find).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import FiniteGroup
from .homology import UContext, UElement, validate_c

DEFAULT_TUPLE_BUDGET = 60_000_000
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes; orbit state is never truncated silently
_STATE_BYTES = 120  # conservative per-canonical-state estimate


@dataclass(frozen=True)
class NielsenTuple:
    """Entries (element indices, all in c) with distinguished g_inf."""
    entries: tuple
    g_inf: int

    @property
    def n(self) -> int:
        return len(self.entries) + 1


@dataclass(frozen=True)
class LiftingInvariant:
    """Component label: K(G,c) element in (torsion, degree-vector) form,
    together with the distinguished inertia generator.

    The stored element is the full product [g_1]...[g_{n-1}][g_inf], which
    lies in K(G,c); its degree vector is the class-multiplicity vector of
    the tuple including the g_inf slot."""
    h: tuple
    v: tuple
    g_inf: int

    @property
    def degree(self) -> int:
        return sum(self.v)


@dataclass(frozen=True)
class BraidOrbit:
    representative: NielsenTuple   # lexicographically minimal member
    size: int                      # number of distinct tuples in the orbit
    invariant: Optional[LiftingInvariant]
    shape: Optional[tuple]


class _TupleCodec:
    """Packs tuples of c-indices into ints and implements the moves."""

    def __init__(self, group: FiniteGroup, c: tuple, g_inf: int, n: int):
        self.group = group
        self.c = c
        self.g_inf = g_inf
        self.n = n
        self.k = len(c)
        self.pos = {x: i for i, x in enumerate(c)}
        self.bits = max(1, (self.k - 1).bit_length())
        self.mask = (1 << self.bits) - 1
        self.length = n - 1
        # conj_pair[a][b] = index of c[a] c[b] c[a]^{-1}
        t = group.table
        inv = group.inv
        self.conj_pair = [[self.pos[t[t[ca][cb]][inv[ca]]] for cb in c] for ca in c]
        # inv_conj_pair[b][a] = index of c[b]^{-1} c[a] c[b]
        self.inv_conj_pair = [[self.pos[t[t[inv[cb]][ca]][cb]] for ca in c] for cb in c]
        og = group.element_order(g_inf)
        self.ord_ginf = og
        conj_elt = [[self.pos[group.conj(x, group.power(g_inf, kk))] for x in c]
                    for kk in range(og)]
        self.conj_elt = conj_elt

    def pack(self, idx_tuple) -> int:
        p = 0
        for i, a in enumerate(idx_tuple):
            p |= a << (self.bits * i)
        return p

    def unpack(self, p: int) -> list:
        out = []
        for _ in range(self.length):
            out.append(p & self.mask)
            p >>= self.bits
        return out

    def canonical(self, p: int) -> int:
        best = p
        lst = self.unpack(p)
        for kk in range(1, self.ord_ginf):
            cm = self.conj_elt[kk]
            q = self.pack([cm[a] for a in lst])
            if q < best:
                best = q
        return best

    def conj_class_size(self, p: int) -> int:
        lst = self.unpack(p)
        seen = {p}
        for kk in range(1, self.ord_ginf):
            cm = self.conj_elt[kk]
            seen.add(self.pack([cm[a] for a in lst]))
        return len(seen)

    def neighbors(self, p: int) -> list:
        """Canonical forms reached by one braid move sigma_i^{+-1}."""
        lst = self.unpack(p)
        out = []
        for i in range(self.length - 1):
            a, b = lst[i], lst[i + 1]
            # sigma_i
            lst[i], lst[i + 1] = self.conj_pair[a][b], a
            out.append(self.canonical(self.pack(lst)))
            # sigma_i^{-1}
            lst[i], lst[i + 1] = b, self.inv_conj_pair[b][a]
            out.append(self.canonical(self.pack(lst)))
            lst[i], lst[i + 1] = a, b
        return out

    def to_elements(self, p: int) -> tuple:
        return tuple(self.c[a] for a in self.unpack(p))


def _generation_checker(group: FiniteGroup, g_inf: int):
    """Memoized test: does a set of elements together with g_inf generate G?"""
    order = group.order
    t = group.table
    memo: dict = {}

    def gen_ok(mask_elems: int) -> bool:
        key = mask_elems
        hit = memo.get(key)
        if hit is not None:
            return hit
        elems = [i for i in range(order) if (mask_elems >> i) & 1]
        frontier = [0]
        have = {0}
        while frontier:
            x = frontier.pop()
            for s in elems:
                y = t[x][s]
                if y not in have:
                    have.add(y)
                    frontier.append(y)
        ok = len(have) == order
        memo[key] = ok
        return ok

    def check(entries, extra=None) -> bool:
        mask = 1 << g_inf
        for e in entries:
            mask |= 1 << e
        if extra is not None:
            mask |= 1 << extra
        return gen_ok(mask)

    return check


def enumerate_tuples(group: FiniteGroup, c: Sequence[int], g_inf: int, n: int,
                     budget: int = DEFAULT_TUPLE_BUDGET) -> Iterator[NielsenTuple]:
    """All Nielsen tuples in lexicographic order (by element indices).

    Meet-in-the-middle on the product condition: the first half is walked in
    lex order and completions are read from an indexed table of second
    halves, preserving global lex order."""
    cs = validate_c(group, c)
    if g_inf == 0:
        raise ValidationError("g_inf must be nontrivial")
    if n < 2:
        raise ValidationError("need n >= 2")
    k = len(cs)
    length = n - 1
    est = k ** length // max(1, group.order)
    if est > budget:
        raise CapacityError(
            f"estimated tuple count {est} exceeds budget {budget}")
    t = group.table
    target = group.inv[g_inf]
    gen_check = _generation_checker(group, g_inf)
    if length == 1:
        if target in cs:
            if gen_check((target,)):
                yield NielsenTuple((target,), g_inf)
        return
    half = length // 2
    rest = length - half
    # right-half table: product -> lex-ordered list of tuples
    table: dict[int, list] = {}

    def walk(prefix, prod, depth, sink):
        if depth == rest:
            sink(tuple(prefix), prod)
            return
        for x in cs:
            prefix.append(x)
            walk(prefix, t[prod][x], depth + 1, sink)
            prefix.pop()

    def add_right(tup, prod):
        table.setdefault(prod, []).append(tup)

    walk([], 0, 0, add_right)

    out = []

    def flush_left(tup, prod):
        # need prod * right = target  =>  right-product = prod^{-1} target
        need = t[group.inv[prod]][target]
        for right in table.get(need, ()):
            entries = tup + right
            if gen_check(entries):
                out.append(entries)

    def left_walk(prefix, prod, depth):
        if depth == half:
            flush_left(tuple(prefix), prod)
            return
        for x in cs:
            prefix.append(x)
            left_walk(prefix, t[prod][x], depth + 1)
            prefix.pop()

    left_walk([], 0, 0)
    for entries in out:
        yield NielsenTuple(entries, g_inf)


def braid_act(i: int, tup: NielsenTuple, group: FiniteGroup) -> NielsenTuple:
    """sigma_i (1-based): replaces (g_i, g_{i+1}) by (g_i g_{i+1} g_i^{-1}, g_i)."""
    n = tup.n
    if not (1 <= i <= n - 2):
        raise ValidationError(f"braid index {i} out of range 1..{n - 2}")
    e = list(tup.entries)
    a, b = e[i - 1], e[i]
    e[i - 1] = group.conj(b, a)
    e[i] = a
    return NielsenTuple(tuple(e), tup.g_inf)


def braid_inverse(i: int, tup: NielsenTuple, group: FiniteGroup) -> NielsenTuple:
    """sigma_i^{-1}: replaces (g_i, g_{i+1}) by (g_{i+1}, g_{i+1}^{-1} g_i g_{i+1})."""
    n = tup.n
    if not (1 <= i <= n - 2):
        raise ValidationError(f"braid index {i} out of range 1..{n - 2}")
    e = list(tup.entries)
    a, b = e[i - 1], e[i]
    e[i - 1] = b
    e[i] = group.conj(a, group.inv[b])
    return NielsenTuple(tuple(e), tup.g_inf)


def conjugate_tuple(tup: NielsenTuple, group: FiniteGroup, h: int) -> NielsenTuple:
    return NielsenTuple(tuple(group.conj(x, h) for x in tup.entries), tup.g_inf)


def lifting_invariant(ctx: UContext, tup: NielsenTuple) -> LiftingInvariant:
    """The K(G,c)-valued invariant [g_1]...[g_{n-1}][g_inf] in (h, v) form."""
    if tup.g_inf not in ctx.lifts:
        raise ValidationError(
            "g_inf must lie in c (c must contain the inertia generators)")
    S = ctx.sc.total
    s = 0
    v = [0] * ctx.nclasses
    for x in tup.entries:
        if x not in ctx.lifts:
            raise ValidationError(f"entry {x} not in c")
        s = S.table[s][ctx.lifts[x]]
        v[ctx.class_of[x]] += 1
    s = S.table[s][ctx.lifts[tup.g_inf]]
    v[ctx.class_of[tup.g_inf]] += 1
    u = UElement(ctx, s, tuple(v), _checked=True)
    h, vv = ctx.k_decompose(u)
    return LiftingInvariant(h=h, v=vv, g_inf=tup.g_inf)


def shape_invariant(ctx: UContext, tup: NielsenTuple) -> tuple:
    """Degree vector of the invariant up to the powering permutations."""
    inv = lifting_invariant(ctx, tup)
    return shape_of_vector(ctx, inv.v)


def shape_of_vector(ctx: UContext, v: Sequence[int]) -> tuple:
    best = None
    for perm in ctx.power_perms:
        img = [0] * len(v)
        for i, slot in enumerate(perm):
            img[slot] += v[i]
        tv = tuple(img)
        if best is None or tv < best:
            best = tv
    return best


def orbits(group: FiniteGroup, c: Sequence[int], g_inf: int, n: int,
           ctx: Optional[UContext] = None,
           tuple_budget: int = DEFAULT_TUPLE_BUDGET,
           memory_budget: int = DEFAULT_MEMORY_BUDGET,
           verify_invariants: bool = False) -> list[BraidOrbit]:
    """Partition of the Nielsen tuples under braid moves and
    <g_inf>-conjugation, sorted by lexicographic representative."""
    cs = validate_c(group, c)
    codec = _TupleCodec(group, cs, g_inf, n)
    canon_index: dict[int, int] = {}
    canon_list: list[int] = []
    conj_sizes: list[int] = []
    for tup in enumerate_tuples(group, cs, g_inf, n, budget=tuple_budget):
        p = codec.pack([codec.pos[x] for x in tup.entries])
        cp = codec.canonical(p)
        if cp not in canon_index:
            if (len(canon_index) + 1) * _STATE_BYTES > memory_budget:
                raise CapacityError(
                    "orbit state memory budget exceeded "
                    f"({memory_budget} bytes); raise memory_budget")
            canon_index[cp] = len(canon_list)
            canon_list.append(cp)
            conj_sizes.append(codec.conj_class_size(cp))
    m = len(canon_list)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    for i, cp in enumerate(canon_list):
        for q in codec.neighbors(cp):
            union(i, canon_index[q])
    groups_: dict[int, list[int]] = {}
    for i in range(m):
        groups_.setdefault(find(i), []).append(i)
    out = []
    for root, members in groups_.items():
        size = sum(conj_sizes[i] for i in members)
        rep_p = min(canon_list[i] for i in members)
        rep = NielsenTuple(codec.to_elements(rep_p), g_inf)
        invariant = None
        shape = None
        if ctx is not None:
            invariant = lifting_invariant(ctx, rep)
            shape = shape_of_vector(ctx, invariant.v)
            if verify_invariants:
                for i in members:
                    t2 = NielsenTuple(codec.to_elements(canon_list[i]), g_inf)
                    if lifting_invariant(ctx, t2) != invariant:
                        raise InternalCheckError(
                            "lifting invariant not constant on an orbit")
        out.append(BraidOrbit(representative=rep, size=size,
                              invariant=invariant, shape=shape))
    out.sort(key=lambda o: o.representative.entries)
    return out


# ---------------------------------------------------------------------------
# stable-range comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableBijectionEntry:
    g_inf: int
    n: int
    min_mult: int
    orbit_invariants: tuple        # sorted (h, v) pairs, one per orbit >= M
    k_set: tuple                   # sorted (h, v) pairs of K(G,c)_{n,>=M}
    injective: bool
    surjective: bool
    duplicate_witnesses: tuple     # invariants shared by several orbits
    missing_witnesses: tuple       # K elements not realized by any orbit

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


@dataclass(frozen=True)
class StableBijectionReport:
    entries: tuple

    @property
    def all_bijective(self) -> bool:
        return all(e.bijective for e in self.entries)


def k_set(ctx: UContext, n: int, min_mult: int) -> list:
    """All (h, v) in K(G,c) with degree-n vector, coordinates >= min_mult."""
    out = []
    vecs = _vectors_with_sum(ctx.nclasses, n, min_mult)
    import itertools as _it
    hs = list(_it.product(*(range(d) for d in ctx.h2c.factors)))
    for v in vecs:
        if any(ctx.ab_image_of_vector(v)):
            continue
        for h in hs:
            out.append((tuple(h), tuple(v)))
    return out


def _vectors_with_sum(k: int, total: int, minv: int):
    if k == 0:
        return [()] if total == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            if remaining >= minv:
                out.append(tuple(prefix + [remaining]))
            return
        for x in range(minv, remaining - minv * (slots - 1) + 1):
            rec(prefix + [x], remaining - x, slots - 1)

    if total >= minv * k:
        rec([], total, k)
    return out


def stable_bijection_report(group: FiniteGroup, ginf_members: Sequence[int],
                            c: Sequence[int], n: int, min_mult: int,
                            ctx: Optional[UContext] = None) -> StableBijectionReport:
    """Compare orbit invariants against K(G,c)_{n,>=M} for every generator
    of the distinguished cyclic inertia subgroup.  A report, not an
    assertion: failures come back as witness lists."""
    from .groups import Subgroup
    sub = Subgroup(group, tuple(ginf_members))
    if not sub.is_cyclic():
        raise ValidationError("inertia subgroup must be cyclic")
    if ctx is None:
        ctx = UContext(group, c)
    entries = []
    for g_inf in sub.generators_of_cyclic():
        orbs = orbits(group, c, g_inf, n, ctx=ctx)
        inv_list = [(o.invariant.h, o.invariant.v) for o in orbs
                    if min(o.invariant.v) >= min_mult]
        kset = [hv for hv in k_set(ctx, n, min_mult)]
        inv_sorted = tuple(sorted(inv_list))
        k_sorted = tuple(sorted(kset))
        seen: dict = {}
        dups = []
        for hv in inv_list:
            seen[hv] = seen.get(hv, 0) + 1
        for hv, cnt in sorted(seen.items()):
            if cnt > 1:
                dups.append((hv, cnt))
        missing = tuple(hv for hv in k_sorted if hv not in seen)
        injective = not dups
        surjective = not missing and set(seen) <= set(k_sorted)
        extra = [hv for hv in seen if hv not in set(k_sorted)]
        if extra:
            raise InternalCheckError(
                f"orbit invariant outside K set: {extra[:3]}")
        entries.append(StableBijectionEntry(
            g_inf=g_inf, n=n, min_mult=min_mult,
            orbit_invariants=inv_sorted, k_set=k_sorted,
            injective=injective, surjective=surjective,
            duplicate_witnesses=tuple(dups), missing_witnesses=missing))
    return StableBijectionReport(entries=tuple(entries))
