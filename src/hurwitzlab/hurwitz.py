"""Nielsen tuples, braid moves, orbit enumeration, and lifting invariants.

A Nielsen tuple is (g_1, ..., g_{n-1}; g_inf) with entries in a
conjugation- and power-closed subset c, product g_1 ... g_{n-1} = g_inf^{-1},
and <entries, g_inf> = G.  Orbits are taken under the braid moves
sigma_i: (g_i, g_{i+1}) -> (g_i g_{i+1} g_i^{-1}, g_i) together with
simultaneous conjugation by g_inf.

The orbit engine works on numpy arrays, a block of at most `_BLOCK` rows
at a time.  A tuple is a row of c-indices (uint8 while |c| <= 256), and
packs into one uint64 key with b = bit length of |c| - 1 bits per entry
(`_key_shifts` places the entries; entry 0 sits in the lowest bits).

* Enumeration meets in the middle on the product condition and emits the
  tuples as lex-ordered blocks; generation is read from a table of the
  subgroups <g_inf, entries> of the two halves (`_SubgroupJoins`).
  `enumerate_tuples` turns each block into `NielsenTuple`s column-wise
  (`_nielsen_tuples`), with no Python call per tuple.
* The canonical form of a tuple is the least key among its
  <g_inf>-conjugates, one gather per conjugate.  The states are the sorted
  keys of the tuples that are their own canonical form.
* The orbits are the connected components of the graph joining each state
  t to the canonical form of sigma_i(t) (Magaard, Shpectorov and
  Voelklein, Exp. Math. 2003).  The sigma_i^{-1} edges are the same edges
  read backwards, so they add nothing.  A neighbour key is found with
  `np.searchsorted`.  Each block's edges for one i are hooked into the
  labels at once, the larger root onto the smaller, and pointer jumping
  flattens the labels at the end.  So every state ends up labelled with
  the least state id in its component.  That state has the least key and
  is the representative.

Memory, checked against `memory_budget` before each allocation: 16 bytes
per state (while collecting, the blocks' canonical keys and their
concatenation; then the key, an int32 label and the class size);
`_row_bytes` per row of a block in flight; the two half tables of the
enumeration; `_ORBIT_BYTES` per orbit for the result.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import FiniteGroup
from .homology import UContext, UElement, validate_c

DEFAULT_TUPLE_BUDGET = 60_000_000
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes; orbit state is never truncated silently
_BLOCK = 1 << 15       # rows per block of tuples or states
_STATE_BYTES = 16      # per canonical state, see the module docstring
_TABLE_ROW_BYTES = 48  # per half-tuple row beyond its entries: product,
                       # subgroup id, sort order and completion counts
_ORBIT_BYTES = 1024    # per orbit: root, size and the report's objects


def _row_bytes(length: int, order: int) -> int:
    """Bytes one row of a block holds in flight: its entries, up to 18
    index and key arrays of 8 bytes, and four (order,)-columns of uint64
    keys of the conjugates."""
    return length + 144 + 32 * order


class NielsenTuple(NamedTuple):
    """Entries (element indices, all in c) with distinguished g_inf.

    `_nielsen_tuples` builds these with `tuple.__new__`, as `_make` does,
    so this class must not gain a custom `__new__`: it would not run."""
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
    representative: NielsenTuple   # the member with the least packed key
    size: int                      # number of distinct tuples in the orbit
    invariant: Optional[LiftingInvariant]
    shape: Optional[tuple]


def _key_shifts(bits: int, length: int) -> np.ndarray:
    """Bit offset of each tuple position in a packed key.  Entry 0 takes
    the lowest bits, so key order is colex order on the c-indices."""
    return np.arange(length, dtype=np.uint64) * np.uint64(bits)


class _StateSpace:
    """Packed keys, <g_inf>-conjugates and braid moves of blocks of tuples
    of c-indices (rows of a (B, n-1) array)."""

    def __init__(self, group: FiniteGroup, cs: tuple, g_inf: int, n: int):
        k = len(cs)
        self.length = n - 1
        bits = (k - 1).bit_length()
        if bits * self.length > 64:
            raise CapacityError(
                f"{self.length} entries of {bits} bits overflow a 64-bit key")
        self.dtype = np.min_scalar_type(k - 1)
        t, c = group.array, np.array(cs)
        pos = np.zeros(group.order, self.dtype)
        pos[c] = np.arange(k)
        # conj_pair[a, b] = index of c[a] c[b] c[a]^{-1}
        self.conj_pair = pos[t[t[c[:, None], c], np.array(group.inv)[c, None]]]
        self.order = group.element_order(g_inf)
        conj = np.array([[pos[group.conj(x, group.power(g_inf, j))]
                          for x in cs] for j in range(self.order)], np.uint64)
        self.shifts = _key_shifts(bits, self.length)
        self.mask = np.uint64((1 << bits) - 1)
        # place[i][j, a]: key bits of c-index a at position i, conjugated
        # by g_inf^j
        self.place = conj[None] << self.shifts[:, None, None]

    def conjugate_keys(self, rows: np.ndarray) -> np.ndarray:
        """(order, B) keys; row j holds the conjugates by g_inf^j."""
        keys = np.zeros((self.order, len(rows)), np.uint64)
        for i in range(self.length):
            keys += np.take(self.place[i], rows[:, i], axis=1)
        return keys

    def decode(self, keys: np.ndarray) -> np.ndarray:
        rows = np.empty((len(keys), self.length), self.dtype)
        for i, s in enumerate(self.shifts):
            rows[:, i] = (keys >> s) & self.mask
        return rows

    def braid_canonical(self, rows: np.ndarray, conj_keys: np.ndarray,
                        i: int) -> np.ndarray:
        """Canonical keys of sigma_i (0-based i) of every row.  Conjugation
        commutes with sigma_i, so the conjugates' keys change in positions
        i and i + 1 only."""
        a, b = rows[:, i], rows[:, i + 1]
        here, there = self.place[i], self.place[i + 1]
        keys = conj_keys - np.take(here, a, axis=1)
        keys -= np.take(there, b, axis=1)
        keys += np.take(here, self.conj_pair[a, b], axis=1)
        keys += np.take(there, a, axis=1)
        return keys.min(axis=0)


class _SubgroupJoins:
    """The subgroups <g_inf, x_1, ..., x_j> of G, numbered as met: `extend`
    adjoins each element of c, `generate` says whether two of them
    together generate G.  Each closure is computed once."""

    def __init__(self, group: FiniteGroup, cs: tuple, g_inf: int):
        self.group = group
        self.cs = cs
        self.number: dict = {}
        self.gens: list = []
        self.steps: dict = {}
        self.root = self._number((g_inf,))
        self.whole: Optional[np.ndarray] = None

    def _number(self, gens: tuple) -> int:
        sid = self.number.setdefault(self.group.subgroup_closure(gens),
                                     len(self.gens))
        if sid == len(self.gens):
            self.gens.append(gens)
        return sid

    def extend(self, sub: np.ndarray) -> np.ndarray:
        """Ids of <H, x> for H in `sub` and x in c, in (H, x) lex order."""
        for s in np.flatnonzero(np.bincount(sub)).tolist():
            if s not in self.steps:
                self.steps[s] = [self._number(self.gens[s] + (x,))
                                 for x in self.cs]
        table = np.zeros((len(self.gens), len(self.cs)), np.intp)
        for s, row in self.steps.items():
            table[s] = row
        return table[sub].ravel()

    def generate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether <H_a, H_b> = G, element-wise (no new ids after this)."""
        if self.whole is None:
            self.whole = np.full((len(self.gens),) * 2, -1, np.int8)
        w = self.whole
        codes = (a * len(w) + b)[w[a, b] < 0]
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            x, y = divmod(code, len(w))
            joined = self.group.subgroup_closure(self.gens[x] + self.gens[y])
            w[x, y] = len(joined) == self.group.order
        return w[a, b] == 1


def _halves(mul: np.ndarray, cs: tuple, joins: _SubgroupJoins, depth: int,
            dtype) -> tuple:
    """Every tuple of `depth` c-indices in lex order, with its product and
    the id of <g_inf, entries>."""
    k = len(cs)
    elems = np.asarray(cs, np.intp)
    rows = np.zeros((1, 0), dtype)
    prod = np.zeros(1, np.intp)
    sub = np.full(1, joins.root, np.intp)
    for _ in range(depth):
        last = np.tile(np.arange(k, dtype=dtype), len(prod))
        rows = np.column_stack([np.repeat(rows, k, axis=0), last])
        prod = mul[prod[:, None], elems[None, :]].ravel()
        sub = joins.extend(sub)
    return rows, prod, sub


def _tuple_blocks(group: FiniteGroup, cs: tuple, g_inf: int, n: int,
                  budget: int) -> Iterator[np.ndarray]:
    """Checks g_inf, n and the tuple budget, then returns the Nielsen
    tuples as lex-ordered (B, n-1) blocks of c-indices."""
    if not 1 <= g_inf < group.order:
        raise ValidationError(
            f"g_inf must be a nontrivial element index in 1..{group.order - 1}")
    if n < 2:
        raise ValidationError("need n >= 2")
    est = len(cs) ** (n - 1) // max(1, group.order)
    if est > budget:
        raise CapacityError(
            f"estimated tuple count {est} exceeds budget {budget}")
    return _meet_in_the_middle(group, cs, g_inf, n - 1)


def _meet_in_the_middle(group: FiniteGroup, cs: tuple, g_inf: int,
                        length: int) -> Iterator[np.ndarray]:
    """Both halves are laid out in lex order with their products.  The
    right halves are grouped by product, lex order kept inside a group,
    and each left half is followed by the right halves whose product
    completes it to g_inf^{-1}.  The left halves are cut into runs of at
    most `_BLOCK` candidates (a single left half may exceed it).  A
    candidate is kept when the subgroups of its halves join to G."""
    mul = np.asarray(group.array, np.intp)
    dtype = np.min_scalar_type(len(cs) - 1)
    half = length // 2
    joins = _SubgroupJoins(group, cs, g_inf)
    lrows, lprod, lsub = _halves(mul, cs, joins, half, dtype)
    rrows, rprod, rsub = _halves(mul, cs, joins, length - half, dtype)
    rorder = np.argsort(rprod, kind="stable")
    rcount = np.bincount(rprod, minlength=group.order)
    rstart = np.cumsum(rcount) - rcount
    need = mul[np.asarray(group.inv)[lprod], group.inv[g_inf]]
    count = rcount[need]
    ends = np.cumsum(count)
    a = 0
    while a < len(count):
        base = ends[a] - count[a]
        b = max(a + 1, int(np.searchsorted(ends, base + _BLOCK, "right")))
        cnt = count[a:b]
        li = np.repeat(np.arange(a, b), cnt)
        offset = rstart[need[a:b]] - (ends[a:b] - cnt - base)
        ri = rorder[np.arange(len(li)) + np.repeat(offset, cnt)]
        keep = joins.generate(lsub[li], rsub[ri])
        li, ri = li[keep], ri[keep]
        if len(li):
            yield np.column_stack([lrows[li], rrows[ri]])
        a = b


def _nielsen_tuples(elems: np.ndarray, rows: np.ndarray,
                    g_inf: int) -> Iterator[NielsenTuple]:
    """The (B, n-1) c-index `rows` as `NielsenTuple`s of the element
    indices `elems[rows]`, in row order.  Each entries tuple is zipped from
    the column lists and wrapped the way `NielsenTuple._make` does, so no
    Python frame runs per tuple."""
    entries = zip(*elems[rows].T.tolist())
    return map(tuple.__new__, itertools.repeat(NielsenTuple),
               zip(entries, itertools.repeat(g_inf)))


def enumerate_tuples(group: FiniteGroup, c: Sequence[int], g_inf: int, n: int,
                     budget: int = DEFAULT_TUPLE_BUDGET) -> Iterator[NielsenTuple]:
    """All Nielsen tuples in lexicographic order (by element indices),
    read off the blocks of the orbit engine's enumeration.  Each block
    becomes `NielsenTuple`s column-wise, with no Python call per tuple;
    they are plain named tuples: immutable, hashable, equal when entries
    and g_inf agree, the entries builtin ints.  The iterator is lazy: c,
    g_inf, n and the budget are checked, and the half tables built, on the
    first `next()`."""
    cs = validate_c(group, c)
    elems = np.asarray(cs)
    for rows in _tuple_blocks(group, cs, g_inf, n, budget):
        yield from _nielsen_tuples(elems, rows, g_inf)


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
        s = S.mul(s, ctx.lifts[x])
        v[ctx.class_of[x]] += 1
    s = S.mul(s, ctx.lifts[tup.g_inf])
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


def _check_memory(nbytes: int, budget: int, what: str) -> None:
    if nbytes > budget:
        raise CapacityError(
            f"orbit state memory budget exceeded ({budget} bytes; {what} "
            f"needs {nbytes}); raise memory_budget")


def _spans(m: int) -> Iterator[tuple]:
    for lo in range(0, m, _BLOCK):
        yield lo, min(m, lo + _BLOCK)


def _find(label: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of the nodes x; x is pointed straight at them."""
    r = label[x]
    up = label[r]
    while not np.array_equal(up, r):
        r, up = up, label[up]
    label[x] = r
    return r


def _hook(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Joins the components of u[j] and v[j] for every j.  Of two distinct
    roots the larger is hooked onto the smaller, until every pair shares a
    root; so each label is its own id or a smaller one."""
    while len(u):
        u, v = _find(label, u), _find(label, v)
        apart = u != v
        u, v = u[apart], v[apart]
        label[np.maximum(u, v)] = np.minimum(u, v)


def _flatten(label: np.ndarray) -> None:
    """Pointer jumping, block by block in id order: each label becomes its
    root, the least id of its component."""
    for lo, hi in _spans(len(label)):
        seg = label[lo:hi]
        up = label[seg]
        while not np.array_equal(up, seg):
            seg, up = up, label[up]
        label[lo:hi] = seg


def _canonical_states(space: _StateSpace, blocks: Iterator[np.ndarray],
                      held: int, memory_budget: int) -> tuple:
    """The sorted keys of the tuples that are their own canonical form (one
    per <g_inf>-class, since the tuples are closed under conjugation), and
    the number of tuples."""
    chunks, nstates, ntuples = [], 0, 0
    for rows in blocks:
        ntuples += len(rows)
        keys = space.conjugate_keys(rows)
        own = keys[0][keys[0] == keys.min(axis=0)]
        nstates += len(own)
        _check_memory(held + nstates * _STATE_BYTES, memory_budget,
                      f"{nstates} orbit states")
        chunks.append(own)
    states = np.concatenate(chunks or [np.zeros(0, np.uint64)])
    states.sort()
    return states, ntuples


def _braid_components(space: _StateSpace, states: np.ndarray,
                      ntuples: int) -> tuple:
    """Each state's label (the least state id in its component) and the
    size of its <g_inf>-class."""
    m = len(states)
    label = np.arange(m, dtype=np.int32 if m < 2 ** 31 else np.int64)
    class_size = np.empty(m, np.min_scalar_type(space.order))
    for lo, hi in _spans(m):
        rows = space.decode(states[lo:hi])
        keys = space.conjugate_keys(rows)
        class_size[lo:hi] = space.order // (keys == keys[0]).sum(axis=0)
        here = np.arange(lo, hi)
        for i in range(space.length - 1):
            moved = space.braid_canonical(rows, keys, i)
            ids = np.searchsorted(states, moved)
            if not np.array_equal(np.take(states, ids, mode="clip"), moved):
                raise InternalCheckError(
                    "a braid neighbour is not an enumerated state")
            _hook(label, here, ids)
    _flatten(label)
    if int(class_size.sum(dtype=np.int64)) != ntuples:
        raise InternalCheckError(
            "conjugacy classes of the states do not add up to the tuples")
    return label, class_size


def orbits(group: FiniteGroup, c: Sequence[int], g_inf: int, n: int,
           ctx: Optional[UContext] = None,
           tuple_budget: int = DEFAULT_TUPLE_BUDGET,
           memory_budget: int = DEFAULT_MEMORY_BUDGET,
           verify_invariants: bool = False) -> list[BraidOrbit]:
    """Partition of the Nielsen tuples under braid moves and
    <g_inf>-conjugation, sorted by representative.  The representative of
    an orbit is its member with the least packed key (`_key_shifts`).
    With `ctx` and `verify_invariants`, the lifting invariant of every
    canonical state is checked against its orbit's."""
    cs = validate_c(group, c)
    blocks = _tuple_blocks(group, cs, g_inf, n, tuple_budget)
    space = _StateSpace(group, cs, g_inf, n)
    k, length, half = len(cs), n - 1, (n - 1) // 2
    row = _row_bytes(length, space.order)
    held = (k ** half + k ** (length - half)) * (_TABLE_ROW_BYTES + length) \
        + min(k ** length, max(_BLOCK, k ** (length - half))) * row
    _check_memory(held, memory_budget, "the tuple enumeration")
    states, ntuples = _canonical_states(space, blocks, held, memory_budget)
    m = len(states)
    if not m:
        return []
    _check_memory(m * _STATE_BYTES + min(m, _BLOCK) * row, memory_budget,
                  "the braid graph")
    label, class_size = _braid_components(space, states, ntuples)
    roots = np.concatenate([np.flatnonzero(label[lo:hi] == np.arange(lo, hi))
                            + lo for lo, hi in _spans(m)])
    _check_memory(m * _STATE_BYTES + len(roots) * _ORBIT_BYTES
                  + min(m, _BLOCK) * row, memory_budget, "the orbits")
    sizes = np.zeros(len(roots), np.int64)
    for lo, hi in _spans(m):
        np.add.at(sizes, np.searchsorted(roots, label[lo:hi]),
                  class_size[lo:hi])
    reps = list(_nielsen_tuples(np.asarray(cs), space.decode(states[roots]),
                                g_inf))
    invariants = [None] * len(reps)
    if ctx is not None:
        invariants = [lifting_invariant(ctx, rep) for rep in reps]
        if verify_invariants:
            _check_invariants(ctx, space, cs, g_inf, states, label, roots,
                              invariants)
    out = [BraidOrbit(representative=rep, size=size, invariant=inv,
                      shape=None if inv is None else shape_of_vector(ctx, inv.v))
           for rep, size, inv in zip(reps, sizes.tolist(), invariants)]
    out.sort(key=lambda o: o.representative.entries)
    return out


def _check_invariants(ctx: UContext, space: _StateSpace, cs: tuple,
                      g_inf: int, states: np.ndarray, label: np.ndarray,
                      roots: np.ndarray, invariants: list) -> None:
    """The lifting invariant of every state equals its orbit's.  A state's
    U element (s, v) comes from column-wise gathers: s through the lifts
    and the cover's table, v as class counts packed into int64 words in
    base n + 1.  k_decompose runs once per distinct (s, v): a state with
    its representative's (s, v) has its representative's invariant, and
    each representative's must be the one `lifting_invariant` gave."""
    n = space.length + 1
    per = 1  # class counts per word
    while (n + 1) ** (per + 1) <= 2 ** 62:
        per += 1
    weight = np.zeros((-(-ctx.nclasses // per), len(cs)), np.int64)
    lift = np.full(len(cs), -1, np.intp)
    for a, x in enumerate(cs):
        if x in ctx.lifts:
            lift[a] = ctx.lifts[x]
            slot = ctx.class_of[x]
            weight[slot // per, a] = (n + 1) ** (slot % per)
    outside = lift < 0
    table = np.asarray(ctx.sc.total.array, np.intp)

    def codes(keys: np.ndarray) -> np.ndarray:
        rows = space.decode(keys)
        if outside.any() and outside[rows].any():
            raise ValidationError("an orbit member has an entry outside c")
        code = np.zeros((len(rows), 1 + len(weight)), np.int64)
        s = lift[rows[:, 0]]
        for i in range(space.length):
            if i:
                s = table[s, lift[rows[:, i]]]
            code[:, 1:] += np.take(weight, rows[:, i], axis=1).T
        code[:, 0] = table[s, ctx.lifts[g_inf]]
        return code

    memo: dict = {}

    def invariant(key: tuple) -> tuple:
        if key not in memo:
            v = [key[1 + j // per] // (n + 1) ** (j % per) % (n + 1)
                 for j in range(ctx.nclasses)]
            v[ctx.class_of[g_inf]] += 1
            u = UElement(ctx, key[0], tuple(v), _checked=True)
            memo[key] = ctx.k_decompose(u)
        return memo[key]

    expect = [(inv.h, inv.v) for inv in invariants]
    rep_codes = codes(states[roots])
    if [invariant(key) for key in map(tuple, rep_codes.tolist())] != expect:
        raise InternalCheckError(
            "array and tuple lifting invariants of a representative differ")
    for lo, hi in _spans(len(states)):
        code = codes(states[lo:hi])
        orbit = np.searchsorted(roots, label[lo:hi])
        differ = (code != rep_codes[orbit]).any(axis=1)
        for key, j in zip(map(tuple, code[differ].tolist()),
                          orbit[differ].tolist()):
            if invariant(key) != expect[j]:
                raise InternalCheckError(
                    "lifting invariant not constant on an orbit")


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
    hs = list(itertools.product(*(range(d) for d in ctx.h2c.factors)))
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
    return StableBijectionReport(entries=tuple(
        stable_bijection_entry(ctx, g_inf, orbits(group, c, g_inf, n, ctx=ctx),
                               n, min_mult)
        for g_inf in sub.generators_of_cyclic()))


def stable_bijection_entry(ctx: UContext, g_inf: int, orbs: Sequence[BraidOrbit],
                           n: int, min_mult: int) -> StableBijectionEntry:
    """Compare the invariants of the degree-n orbits `orbs` for g_inf whose
    multiplicities are all >= min_mult with K(G,c)_{n,>=M}.  Raises
    InternalCheckError for an invariant outside K."""
    inv_list = [(o.invariant.h, o.invariant.v) for o in orbs
                if min(o.invariant.v) >= min_mult]
    k_sorted = tuple(sorted(k_set(ctx, n, min_mult)))
    seen = Counter(inv_list)
    extra = sorted(seen.keys() - set(k_sorted))
    if extra:
        raise InternalCheckError(f"orbit invariant outside K set: {extra[:3]}")
    dups = tuple((hv, cnt) for hv, cnt in sorted(seen.items()) if cnt > 1)
    missing = tuple(hv for hv in k_sorted if hv not in seen)
    return StableBijectionEntry(
        g_inf=g_inf, n=n, min_mult=min_mult,
        orbit_invariants=tuple(sorted(inv_list)), k_set=k_sorted,
        injective=not dups, surjective=not missing,
        duplicate_witnesses=dups, missing_witnesses=missing)
