"""The random Gamma-group model at finite variety level: free admissible
objects, the (n+1)-relation sampler with invariant last relation, exact
probability and moment formulas, multiplicities, and Monte Carlo estimation.

The finite variety is described by a list of generating Gamma-groups.  When
every generator is abelian the free admissible object is realized as a
module over Z/m[Gamma] (the n-th power of the augmentation submodule,
reduced by the variety constraints), which keeps sampling and quotients
linear algebra.  Nonabelian varieties are not supported: `FreeAdmissible`
raises CapacityError for them.
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
from .intmat import (divisor_chain, howell_residue, preimage_mod,
                     quotient_divisors_stack)
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
            if g.gamma != gam:
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
    # regular module: coordinates indexed by gamma elements, permuted action
    from .groups import abelian
    base = abelian([m] * k)
    # element x has base-m digits v (the first the most significant), and
    # gamma moves the coordinate at h to gamma*h
    weights = m ** np.arange(k - 1, -1, -1)
    v = np.arange(base.order)[:, None] // weights % m
    acts = []
    for ge in range(k):
        w = np.empty_like(v)
        w[:, gamma.array[ge]] = v
        acts.append(w @ weights)
    reg = GammaGroup(base, gamma, acts, name=f"reg(Z/{m}[{gamma.name}])")
    return VarietySpec((reg,))


# ---------------------------------------------------------------------------
# the free admissible object (abelian module model)
# ---------------------------------------------------------------------------

class FreeAdmissible:
    """The free admissible Gamma-group on n generators at finite variety
    level.

    Abelian model: elements are coordinate vectors mod m of length
    dim = n*(|Gamma|-1), in the basis b_h = e_h - e_1 (h != 1) of each of
    the n copies of the augmentation submodule of Z/m[Gamma].  The action
    is held once, as the (|Gamma|, dim, dim) array `_act` of column-action
    matrices: _act[g] = kron(I_n, M_g) with M_g = P_g[1:, 1:] - P_g[1:, :1]
    for P_g the left-regular permutation matrix of g, since
    g (e_h - e_1) = (e_gh - e_1) - (e_g - e_1).  Every equation system of
    the model is built from it.  The variety constraint quotient N
    (intersection of kernels of maps to the generators) is stored as a
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
        P = np.zeros((k, k, k), dtype=np.int64)
        P[np.arange(k)[:, None], gamma.array, np.arange(k)] = 1
        M = P[:, 1:, 1:] - P[:, 1:, :1]
        eye = np.eye(dim, dtype=np.int64)
        self._act = np.stack([np.kron(np.eye(n, dtype=np.int64), b)
                              for b in M])
        # M_g - I on the whole module for g != 1: the relation rows of x
        self._rel_stack = self._act[1:] - eye
        # Gamma = Z/2 acting by inversion
        self.is_inversion = k == 2 and bool((self._act[1] == -eye).all())
        # variety constraint: N = intersection of kernels of module maps to
        # each generator target
        self._nhowell = self._variety_kernel()
        nrows = [r for r in self._nhowell if any(v % m for v in r)]
        self._nrows = np.array(nrows, dtype=np.int64).reshape(len(nrows), dim)
        # each Howell column contributes pivot-many residues
        self.order = math.prod(self._nhowell[c][c] for c in range(dim))
        self._inv_cache: dict = {}

    # -- module plumbing ------------------------------------------------------

    def _variety_kernel(self):
        """Howell form of N = the joint kernel of all module maps to the
        variety generators; elements of the free object are residues mod N."""
        m = self.m
        # one row per (hom, target coordinate c): the hom's c-coordinates,
        # scaled from Z/d_c into Z/m
        rows = []
        for target in self.spec.generators:
            td = _TargetData(target)
            phi = _module_hom_basis(self, td)
            rows.extend((phi * (m // td.orders) % m).transpose(0, 2, 1)
                        .reshape(phi.shape[0] * phi.shape[2], self.dim)
                        .tolist())
        # N = solution set {x : all rows . x == 0 mod m} (the whole module
        # when there are no rows), as its reduced Howell form
        return preimage_mod(rows, self.dim, m)

    def canonical(self, v: Sequence[int]) -> tuple:
        return howell_residue(self._nhowell, list(v), self.m)

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
        are the elements of that module, each once.  The rows are those of
        the module's reduced Howell form, which is unique, so they are
        canonical: draws against them depend on the module only, not on
        the order or choice of its generators."""
        key = tuple(sorted(gamma_inf_members))
        if key in self._inv_cache:
            return self._inv_cache[key]
        m, dim = self.m, self.dim
        # x + N is invariant iff (M_g - I) x lies in N for each g in
        # Gamma_inf: the preimage of N in each block of the stacked M_g - I
        gens = [g for g in key if g]
        H = preimage_mod(
            (self._act[gens] - np.eye(dim, dtype=np.int64))
            .reshape(len(gens) * dim, dim), dim, m,
            np.kron(np.eye(len(gens), dtype=np.int64), self._nrows))
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
    """Coordinates of an abelian Gamma-group: `coords[x]` of each element
    in a basis with cyclic `orders`, and `mats[g][c]` the coordinates of g
    applied to basis element c."""

    def __init__(self, target: GammaGroup):
        order = target.base.order
        data = structure_of_members(target.base, range(order))
        self.orders = np.array(data.basis_orders, dtype=np.int64)
        self.coords = np.array([data.coords[x] for x in range(order)],
                               dtype=np.int64).reshape(order, len(self.orders))
        self.mats = self.coords[np.array(target.act)[:, data.basis]]


def _module_hom_basis(free: FreeAdmissible, td: _TargetData) -> np.ndarray:
    """Generators of Hom_Gamma(I^n, target) as an (s, dim, tdim) array:
    phi[j] holds the target coordinates of the j-th free basis vector."""
    m, dim = free.m, free.dim
    tdim = len(td.orders)
    if dim * tdim == 0:
        return np.zeros((0, dim, tdim), dtype=np.int64)
    # equivariance phi(M_g b_j) = g phi(b_j) for g != 1, phi flattened
    # row-major in (j, c): the rows kron(M_g^T, I) - kron(I, T_g^T), each
    # scaled by m / d_c so that its solutions mod m take values in Z/d_c
    eye_t = np.eye(tdim, dtype=np.int64)
    eye_d = np.eye(dim, dtype=np.int64)
    eq = np.array([np.kron(a.T, eye_t) - np.kron(eye_d, t.T)
                   for a, t in zip(free._act[1:], td.mats[1:])],
                  dtype=np.int64).reshape(-1, dim * tdim, dim * tdim)
    eq = (eq * np.tile(m // td.orders, dim)[:, None] % m).reshape(
        -1, dim * tdim)
    sols = np.array(preimage_mod(eq, dim * tdim, m), dtype=np.int64) % m
    sols = sols[sols.any(axis=1)]
    return sols.reshape(len(sols), dim, tdim) % td.orders


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
    (T, s, dim) array) giving it, in order of first appearance in X.

    The divisor rows are grouped by a 1-D key, each row's bytes as one
    void scalar: on a block of 200 rows of 8 divisors `np.unique(axis=0)`
    takes 133 us, the 1-D key 20 us.  Bytes order the keys differently
    from numbers, but only equality matters: the chains come back in order
    of their first row."""
    div = np.ascontiguousarray(_quotient_divisors(free, X))
    T, C = div.shape
    if C == 0:                  # no bytes to key on: every quotient is 1
        return {(): T} if T else {}
    keys = div.view(np.dtype((np.void, div.itemsize * C)))
    _, first, cnt = np.unique(keys.ravel(), return_index=True,
                              return_counts=True)
    return {_chain(div[f]): c
            for f, c in sorted(zip(first.tolist(), cnt.tolist()))}


def _label(free: FreeAdmissible, chain: tuple) -> tuple:
    return ("ab-inv", chain) if free.is_inversion else \
        ("ab", chain, free.gamma.order)


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


def _cyclic_generator(gamma: FiniteGroup) -> int:
    gen = next((g for g in range(gamma.order)
                if gamma.element_order(g) == gamma.order), None)
    if gen is None:
        raise CapacityError("module census implemented for cyclic Gamma only")
    return gen


def irreducible_modules_cyclic(gamma: FiniteGroup,
                               gamma_inf_members: Sequence[int], p: int):
    """All irreducible F_p[Gamma]-modules for cyclic Gamma with the
    invariant data needed in the measure formulas."""
    k = gamma.order
    if math.gcd(p, k) != 1:
        raise ValidationError("p must be coprime to |Gamma|")
    _cyclic_generator(gamma)
    sub = Subgroup(gamma, tuple(gamma_inf_members))
    s = k // max(1, len(sub))   # Gamma_inf = <gen^s>
    return [_irreducible_module(f, p, _inv_ginf(f, p, s))
            for f in _factor_cyclotomic(k, p)]


def m_ad(n: int, h: GammaGroup, module: IrreducibleModule,
         spec: VarietySpec) -> int:
    """Multiplicity of the irreducible module in the semisimplified kernel
    of a surjection from the free admissible object onto H."""
    for mod, mult in kernel_decomposition(n, h, spec):
        if mod.p == module.p and mod.poly == module.poly:
            return mult
    return 0


def kernel_decomposition(n: int, h: GammaGroup, spec: VarietySpec):
    """Isotypic decomposition of R/M for R the kernel of a surjection
    F_n -> H and M the intersection of maximal co-abelian normal subgroups.

    For the abelian module model M = rad(R) = (prod of primes) R, and the
    decomposition is by minimal-polynomial factors of the cyclic Gamma
    action on R/rad per prime.  H must lie in the variety: its exponent
    divides m, and the module map a surjection tuple defines vanishes on N
    (I^n is projective as |Gamma| is a unit mod m, so that is exact)."""
    if spec.exponent % h.base.exponent():
        raise ValidationError(
            f"H has exponent {h.base.exponent()}, which does not divide "
            f"the variety exponent {spec.exponent}")
    decomp = _kernel_decomposition(n, h, spec)
    if decomp is None:
        raise ValidationError(
            "H is not in the variety: the map onto it does not vanish on N")
    return decomp


def _kernel_decomposition(n: int, h: GammaGroup, spec: VarietySpec):
    """kernel_decomposition for H of exponent dividing m, or None when H is
    not in the variety."""
    gen = _cyclic_generator(spec.gamma)
    free = FreeAdmissible(n, spec)
    tuples = _surjection_tuples(h, n, want=2)
    if not tuples:
        return []
    results = [_decompose_kernel_for_tuple(free, h, tup, gen)
               for tup in tuples]
    first = _decomp_key(results[0])
    for r in results[1:]:
        if _decomp_key(r) != first:
            raise InternalCheckError(
                "kernel decomposition depends on the surjection choice")
    return results[0]


def _decomp_key(decomp):
    if decomp is None:
        return None
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


def _decompose_kernel_for_tuple(free: FreeAdmissible, h: GammaGroup, tup,
                                gen: int):
    """Isotypic multiplicities of V = R/(pR + N) for each prime p | m, R the
    kernel of the map F -> H that the tuple defines, by counting.

    As p does not divide |Gamma|, x^|Gamma| - 1 is separable over F_p, so V
    is the direct sum of the kernels of f(g) over its irreducible factors
    f, g the generator `gen` of the cyclic Gamma.  The kernel and the
    cokernel of f(g) on V have the same dimension, so
        dim ker f(g) = log_p |R / (f(g)R + pR + N)|,
    with f(g) the integer matrix sum f_i _act[g]^i: each order is a
    product of invariant factors from one stacked elimination, and no
    basis of V is needed.  None when the map does not vanish on N, that is
    when H is not in the variety."""
    m, dim = free.m, free.dim
    td = _TargetData(h)
    # the map sends b_{i,g} to the coordinates of h_i^-1 g(h_i)
    ys = [y for x in tup for y in h.y_map(x)[1:]]
    images = td.coords[ys].reshape(dim, len(td.orders))
    rows = images.T * (m // td.orders)[:, None] % m
    if (free._nrows @ rows.T % m).any():
        return None
    # R: the kernel, which holds N (the model works modulo N)
    R = np.array(preimage_mod(rows, dim, m), dtype=np.int64) % m
    act_t = free._act[gen].T
    out = []
    for p in prime_divisors(m):
        factors = _factor_cyclotomic(free.gamma.order, p)
        rad = np.concatenate([p * R % m, free._nrows])
        rels = [R, rad]
        for f in factors:
            # f(g) applied to the rows of R by Horner's rule
            fr = f[-1] * R
            for c in f[-2::-1]:
                fr = (fr @ act_t + c * R) % m
            rels.append(np.concatenate([fr, rad]))
        width = max(len(a) for a in rels)
        divs = quotient_divisors_stack(
            np.stack([np.pad(a, ((0, width - len(a)), (0, 0))) for a in rels]),
            m)
        sizes = [math.prod(int(d) for d in row) for row in divs]
        dim_v = _log_ratio(sizes[1], sizes[0], p)
        total = 0
        for f, size in zip(factors, sizes[2:]):
            null = _log_ratio(size, sizes[0], p)
            deg = len(f) - 1
            if null % deg:
                raise InternalCheckError("isotypic dimension not divisible")
            total += null
            if null:
                out.append((_irreducible_module(f, p, -1), null // deg))
        if total != dim_v:
            raise InternalCheckError(
                "isotypic parts do not sum to dim R/(pR + N)")
    return out


def _log_ratio(a: int, b: int, p: int) -> int:
    """log_p(a / b), which must be a nonnegative power of p."""
    q, r = divmod(a, b)
    e = 0
    while q > 1 and q % p == 0:
        q //= p
        e += 1
    if r or q != 1:
        raise InternalCheckError("kernel quotient order is not a power of p")
    return e


def mu_n(h: GammaGroup, spec: VarietySpec, gamma_inf_members: Sequence[int],
         n: int) -> Fraction:
    """Exact probability that the level-n random group is isomorphic to H;
    0 when H is not in the variety."""
    # a quotient of the free object has exponent dividing m
    if not h.is_admissible() or spec.exponent % h.base.exponent():
        return Fraction(0)
    sur = h.count_sur_gamma_free(n)
    if sur == 0:
        return Fraction(0)
    decomp = _kernel_decomposition(n, h, spec)
    if decomp is None:
        return Fraction(0)
    inv_g = len(h.invariants(range(h.gamma.order)))
    inv_gi = len(h.invariants(gamma_inf_members))
    aut = h.count_aut_gamma()
    lead = Fraction(sur * inv_g ** (n + 1), aut * h.base.order ** n * inv_gi)
    prod = Fraction(1)
    sub = Subgroup(h.gamma, tuple(gamma_inf_members))
    s = h.gamma.order // max(1, len(sub))
    for mod, mult in decomp:
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
        """The share of trials whose group has invariant chain `chain`,
        whichever label form (`_label`) the free object gives."""
        c = sum(cnt for label, cnt in self.counts.items()
                if label[1] == tuple(chain))
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
