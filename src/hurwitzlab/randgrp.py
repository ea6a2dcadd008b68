"""The random Gamma-group model at finite variety level: free admissible
objects, the (n+1)-relation sampler with invariant last relation, exact
probability and moment formulas, multiplicities, and Monte Carlo estimation.

The finite variety is described by a list of generating Gamma-groups.  When
every generator is abelian the free admissible object is realized as a
module over Z/m[Gamma] (the n-th power of the augmentation submodule,
reduced by the variety constraints), which keeps sampling and quotients
linear algebra.  Nonabelian varieties go through a capped universal product
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .abelian import AbelianStructure, structure_of_members
from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import FiniteGroup, GammaGroup, Subgroup
from .intmat import (divisor_chain, howell_form_mod, howell_residue,
                     kernel_mod, quotient_divisors_stack,
                     quotient_with_reps_mod, solve_linear_mod)
from .ntheory import pdivmod, pnorm, ppowmod, prime_divisors
from .rng import CounterRng, randints, substream

# caps of the free admissible object: its module dimension n (|Gamma| - 1),
# and the order up to which `FreeAdmissible.elements` enumerates (the module
# model scales with the dimension, so the order matters only there)
_DIM_CAP = 64
_ORDER_CAP = 3 ** 8
# int64 entries of one Monte Carlo block's relation stack (trials x rows x
# dim); the block size changes no count, only time and memory
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class VarietySpec:
    """A finite set of Gamma-groups generating the variety (closure under
    products, Gamma-subgroups, and Gamma-quotients is implied)."""
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValidationError("variety needs at least one generator")
        gam = self.generators[0].gamma
        for g in self.generators:
            if g.gamma.table != gam.table:
                raise ValidationError("variety generators share one Gamma")
            if math.gcd(g.base.order, 2 * gam.order) != 1:
                raise ValidationError(
                    "variety member orders must be coprime to 2|Gamma|")

    @property
    def gamma(self) -> FiniteGroup:
        return self.generators[0].gamma

    @property
    def is_abelian(self) -> bool:
        return all(g.base.is_abelian() for g in self.generators)

    @property
    def exponent(self) -> int:
        e = 1
        for g in self.generators:
            e = math.lcm(e, g.base.exponent())
        return e


def abelian_exponent_variety(gamma: FiniteGroup, m: int) -> VarietySpec:
    """The variety of all abelian Gamma-groups of exponent dividing m,
    generated by the regular module (Z/m)[Gamma]."""
    k = gamma.order
    n = m ** k
    # regular module: coordinates indexed by gamma elements, permuted action
    from .groups import abelian
    base = abelian([m] * k)

    def idx(vec):
        x = 0
        for a in vec:
            x = x * m + a
        return x

    def vec(x):
        out = []
        for _ in range(k):
            x, a = divmod(x, m)
            out.append(a)
        out.reverse()
        return out

    acts = []
    for ge in range(k):
        perm = []
        for x in range(n):
            v = vec(x)
            w = [0] * k
            # gamma moves the coordinate at h to gamma*h
            for h in range(k):
                w[gamma.table[ge][h]] = v[h]
            perm.append(idx(w))
        acts.append(perm)
    reg = GammaGroup(base, gamma, acts, name=f"reg(Z/{m}[{gamma.name}])")
    return VarietySpec((reg,))


# ---------------------------------------------------------------------------
# the free admissible object (abelian module model)
# ---------------------------------------------------------------------------

class FreeAdmissible:
    """The free admissible Gamma-group on n generators at finite variety
    level.

    Abelian model: elements are coordinate vectors mod m of length
    n*(|Gamma|-1) (a basis of the n-th power of the augmentation submodule),
    with Gamma acting by integer matrices; the variety constraint quotient
    N (intersection of kernels of maps to the generators) is stored as a
    Howell form and elements are canonical residues."""

    def __init__(self, n: int, spec: VarietySpec):
        if n < 0:
            raise ValidationError("n must be nonnegative")
        if not spec.is_abelian:
            raise CapacityError(
                "nonabelian variety generators are not supported by the "
                "module model")
        self.n = n
        self.spec = spec
        gamma = spec.gamma
        m = spec.exponent
        k = gamma.order
        self.m = m
        self.gamma = gamma
        dim = n * (k - 1)
        self.dim = dim
        if dim > _DIM_CAP:
            raise CapacityError(f"free module dimension {dim} exceeds {_DIM_CAP}")
        # action of gamma on I = aug submodule of Z/m[Gamma]:
        # basis b_h = e_h - e_1 for h != 1
        nontriv = [h for h in range(k) if h != 0]
        self.block = len(nontriv)
        mats = []
        for ge in range(k):
            mat = [[0] * self.block for _ in range(self.block)]
            for j, h in enumerate(nontriv):
                # gamma * (e_h - e_1) = e_{gh} - e_g = (e_{gh} - e_1) - (e_g - e_1)
                gh = gamma.table[ge][h]
                g1 = gamma.table[ge][0]
                if gh != 0:
                    mat[nontriv.index(gh)][j] += 1
                if g1 != 0:
                    mat[nontriv.index(g1)][j] -= 1
            mats.append(mat)
        self._block_mats = mats  # column-action: (M v)_i = sum_j M[i][j] v[j]
        # M_g - I on the whole module for g != 1: the relation rows of x
        rel = np.zeros((k - 1, dim, dim), dtype=np.int64)
        for blk in range(n):
            part = slice(blk * self.block, (blk + 1) * self.block)
            rel[:, part, part] = mats[1:]
        self._rel_stack = rel - np.eye(dim, dtype=np.int64)
        self.is_inversion = _is_inversion_variety(self)
        # variety constraint: N = intersection of kernels of module maps to
        # each generator target
        self._nhowell = self._variety_kernel()
        nrows = [r for r in self._nhowell if any(v % m for v in r)]
        self._nrows = np.array(nrows, dtype=np.int64).reshape(len(nrows), dim)
        # each Howell column contributes pivot-many residues
        self.order = math.prod(self._nhowell[c][c] for c in range(dim))
        self._inv_cache: dict = {}

    # -- module plumbing ------------------------------------------------------

    def act_vector(self, ge: int, v: Sequence[int]) -> list:
        m = self.m
        out = [0] * self.dim
        M = self._block_mats[ge]
        b = self.block
        for blk in range(self.n):
            off = blk * b
            for i in range(b):
                acc = 0
                row = M[i]
                for j in range(b):
                    c = row[j]
                    if c:
                        acc += c * v[off + j]
                out[off + i] = acc % m
        return out

    def _variety_kernel(self):
        """Howell form of N = the joint kernel of all module maps to the
        variety generators; elements of the free object are residues mod N."""
        m = self.m
        rows = []
        for target in self.spec.generators:
            tdata = _TargetData(target)
            for phi in _module_hom_basis(self, tdata):
                # phi: list over basis slots of target-element images
                # kernel rows: one per target coordinate basis
                for ci in range(len(tdata.orders)):
                    d = tdata.orders[ci]
                    row = []
                    for j in range(self.dim):
                        row.append((phi[j][ci] * (m // d)) % m)
                    rows.append(row)
        if not rows:
            return howell_form_mod([], self.dim, m)
        # N = solution set {x : all rows . x == 0 mod m}; store as Howell of
        # its generator set
        return howell_form_mod(kernel_mod(rows, self.dim, m), self.dim, m)

    def canonical(self, v: Sequence[int]) -> tuple:
        return howell_residue(self._nhowell, list(v), self.m)

    def add(self, a, b) -> tuple:
        return self.canonical([(x + y) % self.m for x, y in zip(a, b)])

    def act(self, ge: int, a) -> tuple:
        return self.canonical(self.act_vector(ge, a))

    def zero(self) -> tuple:
        return tuple([0] * self.dim)

    def elements(self):
        """All canonical residues (use only for small objects)."""
        if self.order > _ORDER_CAP:
            raise CapacityError(
                f"free object order {self.order} exceeds the enumeration cap")
        seen = set()
        for combo in itertools.product(range(self.m), repeat=self.dim):
            seen.add(self.canonical(combo))
        if len(seen) != self.order:
            raise InternalCheckError("element enumeration mismatch")
        return sorted(seen)

    def invariant_submodule(self, gamma_inf_members: Sequence[int]):
        """Howell rows (order, row) of the Gamma_inf-invariants plus N, rows
        of order 1 left out: the sums of c_i * row_i with 0 <= c_i < order_i
        are the elements of that module, each once.  The rows are canonical,
        so draws against them do not depend on elimination choices."""
        key = tuple(sorted(gamma_inf_members))
        if key in self._inv_cache:
            return self._inv_cache[key]
        m = self.m
        # a residue x is invariant iff (M_ge - I) x lies in N for each
        # generator ge of Gamma_inf; solved with N-coefficients as unknowns
        mats = []
        for ge in key:
            if ge == 0:
                continue
            cols = []
            for j in range(self.dim):
                basis = [0] * self.dim
                basis[j] = 1
                img = self.act_vector(ge, basis)
                img[j] = (img[j] - 1) % m
                cols.append(self.canonical(img))
            mats.append(cols)
        # solution set: x with sum_j x_j * cols[j] == 0 mod (N + mZ)
        nrows = self._nrows.tolist()
        eq_rows = []
        for cols in mats:
            for coord in range(self.dim):
                eq_rows.append([cols[j][coord] for j in range(self.dim)])
        # augment with N-generator coefficients as free unknowns
        sol = _solution_space_with_lattice(eq_rows, nrows, self.dim, m)
        H = howell_form_mod(sol + nrows, self.dim, m)
        reps = [(m // row[c], row) for c, row in enumerate(H) if row[c] != m]
        self._inv_cache[key] = reps
        return reps

    def sample(self, rng: CounterRng) -> tuple:
        return self.canonical([rng.randint(self.m) for _ in range(self.dim)])

    def sample_invariant(self, gamma_inf_members, rng: CounterRng) -> tuple:
        reps = self.invariant_submodule(gamma_inf_members)
        acc = [0] * self.dim
        for d, v in reps:
            c = rng.randint(d)
            if c:
                for j in range(self.dim):
                    acc[j] = (acc[j] + c * v[j]) % self.m
        return self.canonical(acc)


class _TargetData:
    def __init__(self, target: GammaGroup):
        data = structure_of_members(target.base, range(target.base.order))
        self.data = data
        self.orders = list(data.basis_orders)
        self.coords = data.coords
        # action matrices on coordinates
        self.mats = []
        for ge in range(target.gamma.order):
            cols = []
            for b in data.basis:
                cols.append(list(data.coords[target.act[ge][b]]))
            self.mats.append(cols)


def _module_hom_basis(free: FreeAdmissible, td: "_TargetData"):
    """Generators of Hom_Gamma(I^n, target) as lists: phi[j] = image coords
    of the j-th free basis vector."""
    m = free.m
    tdim = len(td.orders)
    if tdim == 0:
        return []
    nun = free.dim * tdim
    rows = []
    # equivariance: phi(M_ge b_j) = act_ge(phi(b_j)) for each ge, j
    for ge in range(1, free.gamma.order):
        for j in range(free.dim):
            basis = [0] * free.dim
            basis[j] = 1
            img = free.act_vector(ge, basis)  # coordinates of M_ge b_j
            # LHS: sum_l img[l] * phi[l]; RHS: act matrix applied to phi[j]
            for ci in range(tdim):
                d = td.orders[ci]
                row = [0] * nun
                for l in range(free.dim):
                    if img[l]:
                        row[l * tdim + ci] += img[l]
                for cj in range(tdim):
                    coef = td.mats[ge][cj][ci]
                    if coef:
                        row[j * tdim + cj] -= coef
                rows.append([(x * (m // d)) % m for x in row])
    # order constraints: orders[ci] * phi[..][ci] == 0 automatically via scaling
    sols = kernel_mod(rows, nun, m)
    homs = []
    for s in sols:
        phi = []
        for j in range(free.dim):
            co = []
            for ci in range(tdim):
                d = td.orders[ci]
                val = s[j * tdim + ci]
                # value must make sense mod d: scale from mod m
                co.append(val % d)
            phi.append(co)
        homs.append(phi)
    return homs


def _solution_space_with_lattice(eq_rows, lattice_rows, dim, m):
    """{x : A x == 0 mod (L + mZ)} where L is spanned by lattice_rows.

    One lattice coefficient per equation block absorbs the L-ambiguity and
    the whole thing is a single linear system in (x, t) mod m.  Equation
    rows must come in blocks of dim (one per ambient coordinate), with the
    lattice coefficients shared within a block."""
    if not eq_rows:
        return [[int(i == j) for j in range(dim)] for i in range(dim)]
    nl = len(lattice_rows)
    neq = len(eq_rows)
    if neq % dim:
        raise InternalCheckError("equation rows not grouped by coordinate")
    ngroups = neq // dim
    nun = dim + ngroups * nl
    rows = []
    for g in range(ngroups):
        for coord in range(dim):
            row = [0] * nun
            arow = eq_rows[g * dim + coord]
            for j in range(dim):
                row[j] = arow[j] % m
            for li, lrow in enumerate(lattice_rows):
                row[dim + g * nl + li] = (-lrow[coord]) % m
            rows.append(row)
    sols = kernel_mod(rows, nun, m)
    out = []
    for s in sols:
        x = [a % m for a in s[:dim]]
        if any(x):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# sampling and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleOutcome:
    label: tuple               # canonical isomorphism label of the quotient
    divisors: tuple            # abelian divisor chain of the quotient
    witnesses: tuple           # the sampled x_1..x_{n+1} (canonical residues)


def sample_x(free: FreeAdmissible, gamma_inf_members: Sequence[int],
             rng: CounterRng) -> SampleOutcome:
    """One draw of the random group: quotient of the free object by the
    Gamma-closed normal subgroup generated by Y(x_i), with x_{n+1} drawn
    from the Gamma_inf-invariants."""
    xs = [free.sample(rng) for _ in range(free.n)]
    xs.append(free.sample_invariant(gamma_inf_members, rng))
    return quotient_outcome(free, xs)


def quotient_outcome(free: FreeAdmissible, xs) -> SampleOutcome:
    X = np.array(xs, dtype=np.int64).reshape(1, len(xs), free.dim)
    chain = _chain(_quotient_divisors(free, X)[0])
    return SampleOutcome(label=_label(free, chain), divisors=chain,
                         witnesses=tuple(xs))


def _quotient_divisors(free: FreeAdmissible, X: np.ndarray) -> np.ndarray:
    """Invariant factors of the quotient for each witness stack X[t], an
    (s, dim) array: the relations are (M_g - I) x for every row x and every
    g != 1, plus the rows of N.  The rows of X need not be canonical: N is
    Gamma-stable and among the relations, so moving x within its coset
    leaves the quotient alone."""
    T, s, dim = X.shape
    rel = np.einsum("gab,tib->tiga", free._rel_stack, X).reshape(
        T, s * len(free._rel_stack), dim)
    nrows = np.broadcast_to(free._nrows, (T,) + free._nrows.shape)
    return quotient_divisors_stack(np.concatenate([rel, nrows], axis=1),
                                   free.m)


def _chain(divisors: np.ndarray) -> tuple:
    return tuple(divisor_chain(divisors[divisors > 1]))


def chain_counts(free: FreeAdmissible, X: np.ndarray) -> dict:
    """Divisor chain of the quotient -> number of witness stacks X[t] (a
    (T, s, dim) array) giving it, in order of first appearance in X."""
    uniq, first, cnt = np.unique(_quotient_divisors(free, X), axis=0,
                                 return_index=True, return_counts=True)
    return {_chain(uniq[k]): int(cnt[k]) for k in np.argsort(first)}


def _label(free: FreeAdmissible, chain: tuple) -> tuple:
    return ("ab-inv", chain) if free.is_inversion else \
        ("ab", chain, free.gamma.order)


def _is_inversion_variety(free: FreeAdmissible) -> bool:
    """Gamma = Z/2 acting by inversion on the module model."""
    if free.gamma.order != 2:
        return False
    for j in range(free.dim):
        basis = [0] * free.dim
        basis[j] = 1
        img = free.act_vector(1, basis)
        expect = [0] * free.dim
        expect[j] = (-1) % free.m
        if img != expect:
            return False
    return True


# ---------------------------------------------------------------------------
# exact formulas
# ---------------------------------------------------------------------------

def prob_module_formula(a_order: int, a_inv_gamma: int, a_inv_ginf: int,
                        end_size: int, mult: int, n: int) -> Fraction:
    """prod_{i=0}^{mult-1} (1 - end^i * |A^G|^{n+1} / (|A|^n |A^{Ginf}|)),
    clamped to 0 if any factor is nonpositive."""
    out = Fraction(1)
    for i in range(mult):
        term = 1 - Fraction(end_size ** i * a_inv_gamma ** (n + 1),
                            a_order ** n * a_inv_ginf)
        if term <= 0:
            return Fraction(0)
        out *= term
    return out


@dataclass(frozen=True)
class IrreducibleModule:
    """Irreducible module data for the multiplicity formulas."""
    p: int
    poly: tuple          # minimal polynomial coefficients of the Gamma action
    order: int           # |A|
    inv_gamma: int       # |A^Gamma|
    inv_ginf: int        # |A^{Gamma_inf}|
    end_size: int        # |End(A)| = p^(endomorphism dimension)


def _irreducible_module(f, p: int, inv_ginf: int) -> IrreducibleModule:
    """The irreducible module F_p[x]/(f); `inv_ginf` is -1 where the
    Gamma_inf-invariants are not needed."""
    deg = len(f) - 1
    # A^Gamma is nonzero exactly for the trivial module, f = x - 1
    inv_gamma = p if (deg == 1 and f[0] == (p - 1) % p) else 1
    return IrreducibleModule(p=p, poly=tuple(f), order=p ** deg,
                             inv_gamma=inv_gamma, inv_ginf=inv_ginf,
                             end_size=p ** deg)


def _factor_cyclotomic(k: int, p: int):
    """Irreducible monic factors of x^k - 1 over F_p (brute trial division)."""
    rem = pnorm([(-1) % p] + [0] * (k - 1) + [1])   # x^k - 1
    factors = []
    deg = 1
    while len(rem) > 1:
        found = False
        for coeffs in itertools.product(range(p), repeat=deg):
            cand = coeffs + (1,)
            if len(cand) > len(rem):
                break
            quo, r = pdivmod(rem, cand, p)
            if not r:
                factors.append(cand)
                rem = quo
                found = True
                break
        if not found:
            deg += 1
            if deg > k:
                raise InternalCheckError("cyclotomic factorization failed")
    return factors


def _inv_ginf(f: tuple, p: int, s: int) -> int:
    """|A^{Gamma_inf}| for A = F_p[x]/(f) with the cyclic generator acting
    as x and Gamma_inf = <generator^s>: A is a field, so either x^s = 1 and
    every vector is fixed, or only 0 is."""
    return p ** (len(f) - 1) if ppowmod((0, 1), s, f, p) == (1,) else 1


def irreducible_modules_cyclic(gamma: FiniteGroup,
                               gamma_inf_members: Sequence[int], p: int):
    """All irreducible F_p[Gamma]-modules for cyclic Gamma with the
    invariant data needed in the measure formulas."""
    k = gamma.order
    if math.gcd(p, k) != 1:
        raise ValidationError("p must be coprime to |Gamma|")
    # require cyclic
    gen = next((g for g in range(k) if gamma.element_order(g) == k), None)
    if gen is None:
        raise CapacityError("module census implemented for cyclic Gamma only")
    sub = Subgroup(gamma, tuple(gamma_inf_members))
    s = k // max(1, len(sub))   # Gamma_inf = <gen^s>
    return [_irreducible_module(f, p, _inv_ginf(f, p, s))
            for f in _factor_cyclotomic(k, p)]


def m_ad(n: int, h: GammaGroup, module: IrreducibleModule,
         spec: VarietySpec, _second_check: bool = True) -> int:
    """Multiplicity of the irreducible module in the semisimplified kernel
    of a surjection from the free admissible object onto H."""
    decomp = kernel_decomposition(n, h, spec, _second_check=_second_check)
    for mod, mult in decomp:
        if mod.p == module.p and mod.poly == module.poly:
            return mult
    return 0


def kernel_decomposition(n: int, h: GammaGroup, spec: VarietySpec,
                         _second_check: bool = True):
    """Isotypic decomposition of R/M for R the kernel of a surjection
    F_n -> H and M the intersection of maximal co-abelian normal subgroups.

    For the abelian module model M = rad(R) = (prod of primes) R, and the
    decomposition is by minimal-polynomial factors of the cyclic Gamma
    action on R/rad per prime."""
    free = FreeAdmissible(n, spec)
    tuples = _surjection_tuples(h, n, want=2 if _second_check else 1)
    if not tuples:
        return []
    results = []
    for tup in tuples:
        results.append(_decompose_kernel_for_tuple(free, h, tup))
    first = _decomp_key(results[0])
    for r in results[1:]:
        if _decomp_key(r) != first:
            raise InternalCheckError(
                "kernel decomposition depends on the surjection choice")
    return results[0]


def _decomp_key(decomp):
    return sorted((mod.p, mod.poly, mult) for mod, mult in decomp)


def _surjection_tuples(h: GammaGroup, n: int, want: int):
    out = []
    order = h.base.order
    maxima = [set(s) for s in h.maximal_proper_stable_subgroups()]
    ys = [h.y_map(g) for g in range(order)]
    for tup in itertools.product(range(order), repeat=n):
        allys = set()
        for g in tup:
            allys.update(ys[g])
        dead = all(any(y not in s for y in allys) for s in maxima) if maxima else True
        if dead:
            out.append(tup)
            if len(out) >= want:
                return out
    return out


def _decompose_kernel_for_tuple(free: FreeAdmissible, h: GammaGroup, tup):
    m = free.m
    td = _TargetData(h)
    tdim = len(td.orders)
    gamma = free.gamma
    nontriv = [ge for ge in range(gamma.order) if ge != 0]
    # hom F -> H from the tuple: basis b_{i,ge} maps to act_ge(h_i) - h_i
    images = []
    for i in range(free.n):
        for ge in nontriv:
            y = h.base.table[h.base.inv[tup[i]]][h.act[ge][tup[i]]]
            images.append(list(td.coords[y]))
    # kernel rows: sum_j x_j images[j] == 0 in H
    rows = []
    for ci in range(tdim):
        d = td.orders[ci]
        rows.append([(images[j][ci] * (m // d)) % m for j in range(free.dim)])
    rgens = kernel_mod(rows, free.dim, m)
    # restrict to the free object: intersect with ambient (module model is
    # already the free object when the variety kernel is trivial)
    nrows = free._nrows.tolist()
    if nrows:
        # R = {x in solution : x in free object}; the module model already
        # works modulo N, so add N to the span
        rgens = rgens + nrows
    out = []
    for p in prime_divisors(m):
        radical = [[(x * p) % m for x in g] for g in rgens]
        reps = quotient_with_reps_mod(rgens, radical + nrows, free.dim, m)
        basis = [v for d, v in reps]
        if not basis:
            continue
        for d, _ in reps:
            if d != p:
                raise InternalCheckError("radical quotient not elementary")
        dim = len(basis)
        # matrix of the cyclic generator action on R/rad in this basis
        gen = next(g for g in range(gamma.order)
                   if gamma.element_order(g) == gamma.order)
        cols = []
        lattice = radical + nrows
        for j in range(dim):
            img = free.act_vector(gen, basis[j])
            co = _express_in_basis(img, basis, lattice, m, p)
            cols.append(co)
        # decompose by minimal polynomial factors
        for f in _factor_cyclotomic(gamma.order, p):
            deg = len(f) - 1
            mat = _poly_of_matrix(cols, f, p)
            null = int((quotient_divisors_stack(mat[None], p) > 1).sum())
            if null % deg:
                raise InternalCheckError("isotypic dimension not divisible")
            mult = null // deg
            if mult:
                out.append((_irreducible_module(f, p, -1), mult))
    return out


def _express_in_basis(vec, basis, lattice_rows, m, p):
    """Coefficients mod p with vec == sum c_j basis_j modulo the lattice."""
    dim = len(vec)
    nb = len(basis)
    nl = len(lattice_rows)
    rows = []
    for coord in range(dim):
        row = [b[coord] % m for b in basis]
        row += [l[coord] % m for l in lattice_rows]
        rows.append(row)
    x = solve_linear_mod(rows, [v % m for v in vec], nb + nl, m)
    if x is None:
        raise InternalCheckError("vector not expressible in quotient basis")
    return [c % p for c in x[:nb]]


def _poly_of_matrix(cols, f, p) -> np.ndarray:
    """f(M) mod p for M given by columns."""
    M = np.array(cols, dtype=np.int64).T % p
    out = np.zeros_like(M)
    power = np.eye(len(M), dtype=np.int64)
    for coef in f:
        out = (out + coef * power) % p
        power = power @ M % p
    return out


def mu_n(h: GammaGroup, spec: VarietySpec, gamma_inf_members: Sequence[int],
         n: int) -> Fraction:
    """Exact probability that the level-n random group is isomorphic to H."""
    if not h.is_admissible():
        return Fraction(0)
    sur = h.count_sur_gamma_free(n)
    if sur == 0:
        return Fraction(0)
    inv_g = len(h.invariants(range(h.gamma.order)))
    inv_gi = len(h.invariants(gamma_inf_members))
    aut = h.count_aut_gamma()
    lead = Fraction(sur * inv_g ** (n + 1), aut * h.base.order ** n * inv_gi)
    prod = Fraction(1)
    sub = Subgroup(h.gamma, tuple(gamma_inf_members))
    s = h.gamma.order // max(1, len(sub))
    for mod, mult in kernel_decomposition(n, h, spec):
        prod *= prob_module_formula(mod.order, mod.inv_gamma,
                                    _inv_ginf(mod.poly, mod.p, s),
                                    mod.end_size, mult, n)
    return lead * prod


@dataclass(frozen=True)
class LimitResult:
    value: Optional[Fraction]
    sequence: tuple
    converged: bool
    n_values: tuple


def mu_limit(h: GammaGroup, spec: VarietySpec,
             gamma_inf_members: Sequence[int], tolerance: Fraction,
             n_start: int = 1, n_budget: int = 12) -> LimitResult:
    """Numerical limit of mu_n: iterate until successive values differ by
    less than the tolerance; inconclusive rather than fabricated on
    non-convergence."""
    seq = []
    ns = []
    prev = None
    for n in range(n_start, n_start + n_budget):
        val = mu_n(h, spec, gamma_inf_members, n)
        seq.append(val)
        ns.append(n)
        if prev is not None and abs(val - prev) < tolerance:
            return LimitResult(value=val, sequence=tuple(seq), converged=True,
                               n_values=tuple(ns))
        prev = val
    return LimitResult(value=None, sequence=tuple(seq), converged=False,
                       n_values=tuple(ns))


def moment_mu(h: GammaGroup, gamma_inf_members: Sequence[int]) -> Fraction:
    """The limiting H-moment 1/[H^{Gamma_inf}:H^Gamma]."""
    inv_g = len(h.invariants(range(h.gamma.order)))
    inv_gi = len(h.invariants(gamma_inf_members))
    return Fraction(inv_g, inv_gi)


def moment_n(h: GammaGroup, gamma_inf_members: Sequence[int], n: int) -> Fraction:
    """Exact level-n H-moment: |Sur| (|H^G|/|H|)^n (|H^G|/|H^{Ginf}|)."""
    sur = h.count_sur_gamma_free(n)
    inv_g = len(h.invariants(range(h.gamma.order)))
    inv_gi = len(h.invariants(gamma_inf_members))
    return (Fraction(sur) * Fraction(inv_g, h.base.order) ** n
            * Fraction(inv_g, inv_gi))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloReport:
    trials: int
    seed: int
    counts: dict              # label -> occurrences
    sur_totals: dict          # tracked structure chain -> total surjections
    n: int

    def probability(self, chain: tuple):
        label = ("ab-inv", tuple(chain))
        c = self.counts.get(label, 0)
        p = Fraction(c, self.trials)
        se = math.sqrt(max(float(p) * (1 - float(p)), 1e-300) / self.trials)
        return p, se

    def mean_surjections(self, chain: tuple):
        data = self.sur_totals.get(tuple(chain))
        if data is None:
            raise ValidationError(f"structure {chain} was not tracked")
        total, sq = data
        mean = Fraction(total, self.trials)
        var = sq / self.trials - float(mean) ** 2
        se = math.sqrt(max(var, 0.0) / self.trials)
        return mean, se


def monte_carlo(free: FreeAdmissible, gamma_inf_members: Sequence[int],
                trials: int, seed: int,
                track: Sequence[AbelianStructure] = ()) -> MonteCarloReport:
    """Seeded i.i.d. sampling of the random group with per-trial substreams.

    Trial t is sample_x on substream(seed, t), whose draws are n * dim words
    mod m for x_1..x_n and then one word per Howell row of the
    Gamma_inf-invariants for x_{n+1}.  Trials run in blocks: one array of
    words, one relation stack and one stacked elimination per block.  A
    trial with a word at or above its rejection limit is redrawn by
    sample_x itself, so the block size changes no count."""
    if trials < 1:
        raise ValidationError("trials must be positive")
    if track and not free.is_inversion:
        raise CapacityError(
            "surjection tracking implemented for the inversion action")
    tracked = [t if isinstance(t, AbelianStructure) else
               AbelianStructure.from_cyclic_orders(t) for t in track]
    n, dim, m = free.n, free.dim, free.m
    reps = free.invariant_submodule(gamma_inf_members)
    inv_basis = np.array([v for _, v in reps],
                         dtype=np.int64).reshape(len(reps), dim)
    bounds = [m] * (n * dim) + [d for d, _ in reps]
    rows = (n + 1) * (free.gamma.order - 1) + len(free._nrows)
    block = max(1, _BLOCK_ENTRIES // max(1, rows * dim))
    counts: dict = {}
    sur = {t.chain: [0, 0] for t in tracked}
    for start in range(0, trials, block):
        streams = range(start, min(trials, start + block))
        draws, rejected = randints(seed, streams, bounds)
        X = np.empty((len(streams), n + 1, dim), dtype=np.int64)
        X[:, :n] = draws[:, :n * dim].reshape(len(streams), n, dim)
        X[:, n] = draws[:, n * dim:] @ inv_basis % m
        for i in np.flatnonzero(rejected):
            X[i] = sample_x(free, gamma_inf_members,
                            substream(seed, streams[i])).witnesses
        for chain, c in chain_counts(free, X).items():  # as per trial
            label = _label(free, chain)
            counts[label] = counts.get(label, 0) + c
            xs = AbelianStructure.from_cyclic_orders(chain)
            for t in tracked:
                s = xs.sur_count(t)
                rec = sur[t.chain]
                rec[0] += c * s
                rec[1] += c * s * s
    # the exact sum of squares is the float sum of the per-trial squares
    # while that stays below 2^53
    return MonteCarloReport(trials=trials, seed=seed, counts=counts,
                            sur_totals={k: (v[0], float(v[1]))
                                        for k, v in sur.items()},
                            n=n)
