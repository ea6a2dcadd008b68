"""Ground-truth class groups: imaginary quadratic function fields through
hyperelliptic Jacobians (Cantor arithmetic, L-polynomial point counts) and
imaginary quadratic number fields through reduced binary quadratic forms.

Polynomials over F_p are the coefficient tuples of `ntheory` (low degree
first, no trailing zeros).  v1 restricts to odd prime q and genus <= 3.

Point counts over F_{q^k} code each element as the integer whose base-q
digits are its coefficients over F_q, and multiply through exp/log tables
to a primitive element, built once per (q, k) with O(q^k) entries.  The
L-polynomials of one degree's models are computed together: a block of
coefficient rows is evaluated at all of F_{q^k} in one numpy Horner pass,
the quadratic character is the parity of the log, and Newton's identities
run on the columns of counts.  Each pass holds at most `_PASS_ENTRIES`
(rows x field size) entries, and `empirical_moment` reads the models of a
degree one pass at a time.  Binary quadratic forms compose
directly (Dirichlet composition, Cohen GTM 138 Alg. 5.4.7) and are then
reduced.  The structure of a class group, or of a Sylow subgroup of a
Jacobian, is read off the orders of its elements
(`abelian.structure_from_orders`); no basis is searched for.

No group operation is spent on a known result: Cantor addition returns the
other operand when one is the identity and the other is already in reduced
Mumford form, double-and-add stops after its last addition (popcount(k) +
bitlen(k) - 1 additions for k >= 1), and the reduced forms of
discriminant D come from a walk over b = D (mod 2) and the divisors a of
(b^2 - D)/4 (Cohen GTM 138 Sec. 5.3) instead of a test of every (a, b).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .abelian import AbelianStructure, structure_from_orders
from .errors import CapacityError, InternalCheckError, ValidationError
from .ntheory import (is_prime, is_squarefree, monic, padd, pdeg, pdivmod,
                      peval, pmod, pmul, pnorm, ppowmod, prime_divisors,
                      pscale, psub, pxgcd, valuation, xgcd)
from .rng import CounterRng, substream

# models walked by one empirical_moment call: q = 7, d_max = 5 (29,400
# models, 31.6 s at about 1.1 ms a genus-2 model on a 2-core Xeon, nearly
# all of it the Sylow search) passes; q = 7, d_max = 7 (1.44 million, over
# 25 minutes at that rate) raises at once
FF_MODEL_CAP = 100_000

# entries of one point-count pass (models x field size): the Horner pass
# holds a few arrays of this many intp codes at once; at 2 ** 16 the peak
# RSS of empirical_moment(7, 5, [3, 3]) rose by 2 MiB, at 2 ** 14 it does
# not move
_PASS_ENTRIES = 2 ** 14

# the largest genus with L-polynomials: past it the point counts run over
# fields of q^4 and more elements
GENUS_CAP = 3

# random classes `sylow_structure` draws before it reports the ell-part
# uncertified
SYLOW_BATCHES = 40


# ---------------------------------------------------------------------------
# extension fields F_{p^k} (for point counts over F_{q^i})
# ---------------------------------------------------------------------------

class ExtField:
    """F_{p^k} as F_p[t]/(modulus); elements are coefficient tuples of
    length k."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = self._find_irreducible(p, k)
        self.size = p ** k

    @staticmethod
    def _find_irreducible(p, k):
        if k == 1:
            return (0, 1)
        for tail in itertools.product(range(p), repeat=k):
            f = pnorm(tuple(tail) + (1,))
            if pdeg(f) != k:
                continue
            if ExtField._is_irreducible(f, p):
                return f
        raise InternalCheckError("no irreducible polynomial found")

    @staticmethod
    def _is_irreducible(f, p):
        k = pdeg(f)
        # x^(p^d) == x mod f for d | k, d < k must fail; equality must hold at k
        x = (0, 1)
        acc = x
        for d in range(1, k + 1):
            acc = ppowmod(acc, p, f, p)
            if d < k and k % d == 0:
                if psub(acc, x, p) == ():
                    return False
        return psub(acc, x, p) == ()

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield pnorm(tup)

    def embed(self, a: int):
        return pnorm((a % self.p,))

    def add(self, a, b):
        return padd(a, b, self.p)

    def mul(self, a, b):
        return pmod(pmul(a, b, self.p), self.modulus, self.p)

    def eval_poly(self, f, x):
        acc = ()
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc


# ---------------------------------------------------------------------------
# hyperelliptic models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = f(x) over F_q, f squarefree of odd degree 2g+1 (imaginary)."""
    q: int
    f: tuple

    def __post_init__(self):
        if self.q % 2 == 0 or not is_prime(self.q):
            raise ValidationError("q must be an odd prime in v1")
        f = pnorm(self.f)
        object.__setattr__(self, "f", f)
        if pdeg(f) % 2 == 0 or pdeg(f) < 1:
            raise ValidationError(
                "f must have odd degree (the imaginary condition: the place "
                "at infinity is ramified)")
        if not is_squarefree(f, self.q):
            raise ValidationError("f must be squarefree")

    @property
    def genus(self) -> int:
        return (pdeg(self.f) - 1) // 2

    def key(self) -> str:
        return f"{self.q};{','.join(str(c) for c in self.f)}"


def nonsquare(q: int) -> int:
    for a in range(2, q):
        if pow(a, (q - 1) // 2, q) == q - 1:
            return a
    raise InternalCheckError("no nonsquare found")


def enumerate_imaginary(q: int, d: int) -> Iterator[HyperellipticModel]:
    """All imaginary models of rDisc q^d: squarefree degree-d polynomials up
    to scaling by nonzero squares (monic representatives and one nonsquare
    twist each), in a fixed deterministic order."""
    if d % 2 == 0:
        raise ValidationError("even degree is the real/inert case; not supported")
    if q % 2 == 0 or not is_prime(q):
        raise ValidationError("q must be an odd prime in v1")
    ns = nonsquare(q)
    for tail in itertools.product(range(q), repeat=d):
        try:
            model = HyperellipticModel(q, tuple(tail) + (1,))
        except ValidationError:  # f is not squarefree
            continue
        yield model
        yield HyperellipticModel(q, pscale(model.f, ns, q))


def count_imaginary(q: int, d: int) -> int:
    """Field count |E(q^d)| for d >= 2: 2 (q^d - q^{d-1})."""
    if d < 2:
        raise ValidationError("closed-form count applies for d >= 2")
    return 2 * (q ** d - q ** (d - 1))


# ---------------------------------------------------------------------------
# point counts and the L-polynomial
# ---------------------------------------------------------------------------

class _LogTables:
    """F_{p^k} with each element coded as the integer whose base-p digits
    are its coefficients (digit i for t^i), so F_p sits at 0..p-1 and adding
    a constant changes digit 0 only.  Products go through discrete logs to
    a primitive element: `log[0]` is 2(N-1) and `exp` holds two periods of
    the powers followed by zeros, so `exp[log[a] + log[b]]` is a * b for
    every pair, zero included.  `chi` is the quadratic character, the
    parity of the log.  Every table has O(p^k) entries."""

    def __init__(self, p: int, k: int):
        fld = ExtField(p, k)
        self.size = fld.size
        order = fld.size - 1
        one = fld.embed(1)
        for cand in range(2, fld.size):
            g = pnorm(tuple(cand // p ** i % p for i in range(k)))
            powers, y = [], one
            while True:
                powers.append(sum(c * p ** i for i, c in enumerate(y)))
                y = fld.mul(y, g)
                if y == one:
                    break
            if len(powers) == order:
                break
        else:
            raise InternalCheckError(f"no primitive element of F_{p}^{k}")
        powers = np.array(powers, dtype=np.intp)
        self.log = np.empty(fld.size, dtype=np.intp)
        self.log[powers] = np.arange(order)
        self.log[0] = 2 * order
        self.exp = np.zeros(4 * order + 1, dtype=np.intp)
        self.exp[:2 * order] = np.tile(powers, 2)
        self.chi = np.where(self.log % 2, -1, 1)
        self.chi[0] = 0


_EXT_CACHE: dict = {}


def _ext(p, k) -> _LogTables:
    if (p, k) not in _EXT_CACHE:
        _EXT_CACHE[(p, k)] = _LogTables(p, k)
    return _EXT_CACHE[(p, k)]


def _point_counts(q: int, fs: np.ndarray, i: int) -> np.ndarray:
    """Projective point counts over F_{q^i} (one point at infinity) of the
    curves y^2 = f(x) whose coefficients, low degree first and all of one
    degree, are the rows of `fs`: every f at every x of F_{q^i} in one
    Horner pass on the integer codes, then 1 + chi(f(x)) points above each
    x."""
    fld = _ext(q, i)
    fs = np.asarray(fs, dtype=np.intp) % q
    # adding a constant of F_q changes digit 0 of the code only
    digit0 = np.arange(fld.size) % q
    wrap = np.arange(2 * q) % q
    acc = np.repeat(fs[:, -1:], fld.size, axis=1)
    for j in range(fs.shape[1] - 2, -1, -1):
        t = fld.log[acc]
        t += fld.log
        acc = fld.exp[t]
        low = digit0[acc]
        acc -= low
        low += fs[:, j:j + 1]
        acc += wrap[low]
    # ramified place at infinity for odd degree
    return 1 + fld.size + fld.chi[acc].sum(axis=1)


def curve_point_count(model: HyperellipticModel, i: int) -> int:
    """Number of projective points over F_{q^i}: the one-row case of
    `_point_counts`."""
    return int(_point_counts(model.q, np.array([model.f]), i)[0])


def _checked(q: int, g: int) -> bool:
    """Whether the L-polynomial of genus g over F_q is checked against the
    point count over F_{q^(g+1)}."""
    return q ** (g + 1) <= 20000


def _pass_rows(q: int, g: int) -> int:
    """Models per point-count pass: rows times the largest field counted
    over stays within `_PASS_ENTRIES`."""
    top = g + 1 if _checked(q, g) else g
    return max(1, _PASS_ENTRIES // q ** top)


def l_polynomials(models: Sequence[HyperellipticModel]) -> list:
    """Coefficients c_0..c_{2g} of L(T) for each model, all of one q and
    one degree, in passes of `_pass_rows` models.

    The point counts N_i over F_{q^i}, i <= g, give the power sums
    a_i = q^i + 1 - N_i, Newton's identities the c_k for k <= g (an
    inexact division raises), and the functional equation the rest.  Each
    row must predict its point count over F_{q^(g+1)} (when that field has
    at most 20,000 elements) and L(1) must lie in the Hasse-Weil interval;
    either failure raises InternalCheckError."""
    models = list(models)
    if not models:
        return []
    q, d = models[0].q, len(models[0].f) - 1
    if any(m.q != q or len(m.f) != d + 1 for m in models):
        raise ValidationError("l_polynomials takes models of one q and one "
                              "degree")
    g = models[0].genus
    if g > GENUS_CAP:
        raise CapacityError(f"genus {g} exceeds cap {GENUS_CAP}")
    if g == 0:
        return [[1] for _ in models]
    check = _checked(q, g)
    step = _pass_rows(q, g)
    out = []
    for lo in range(0, len(models), step):
        fs = np.array([m.f for m in models[lo:lo + step]], dtype=np.intp)
        counts = [_point_counts(q, fs, i)
                  for i in range(1, g + 2 if check else g + 1)]
        a = [None] + [q ** i + 1 - counts[i - 1] for i in range(1, g + 1)]
        # Newton's identities: c_k = -(1/k) sum_{i=1}^{k} a_i c_{k-i}
        c = np.zeros((len(fs), 2 * g + 1), dtype=np.int64)
        c[:, 0] = 1
        for k in range(1, g + 1):
            s = -sum(a[i] * c[:, k - i] for i in range(1, k + 1))
            if (s % k).any():
                raise InternalCheckError(
                    "non-integer L-polynomial coefficient")
            c[:, k] = s // k
        for k in range(g + 1, 2 * g + 1):
            c[:, k] = q ** (k - g) * c[:, 2 * g - k]
        # independent check: the completed polynomial must predict the
        # point count one level beyond the coefficients used to build it
        if check:
            ps = _power_sums_from_coeffs(c.T, g, q)
            if (q ** (g + 1) + 1 - ps[g + 1] != counts[g]).any():
                raise InternalCheckError(
                    "functional equation check failed: L-polynomial does "
                    "not reproduce the next point count")
        h = c.sum(axis=1)
        lo_exact = (q ** 0.5 - 1) ** (2 * g)
        hi_exact = (q ** 0.5 + 1) ** (2 * g)
        bad = (h < lo_exact - 1e-9) | (h > hi_exact + 1e-9)
        if bad.any():
            raise InternalCheckError(
                f"Hasse-Weil bound violated: h={h[bad][0]} not in "
                f"[{lo_exact:.2f}, {hi_exact:.2f}]")
        if (h <= 0).any():
            raise InternalCheckError("nonpositive class number")
        out += c.tolist()
    return out


def l_polynomial(model: HyperellipticModel) -> list:
    """Coefficients c_0..c_{2g} of L(T): the one-row case of
    `l_polynomials`, with its checks."""
    return l_polynomials([model])[0]


def _power_sums_from_coeffs(L, g, q):
    """Power sums of the reciprocal roots from the coefficients (Newton);
    the coefficients may be integers or arrays of them."""
    k = 2 * g
    ps = [0] * (g + 2)
    for i in range(1, g + 2):
        acc = -i * (L[i] if i <= k else 0)
        for j in range(1, i):
            acc -= (L[j] if j <= k else 0) * ps[i - j]
        ps[i] = acc
    return ps


def jacobian_order(model: HyperellipticModel) -> int:
    """|Jac(C)(F_q)| = L(1); `l_polynomials` enforces the Hasse-Weil
    bounds."""
    return sum(l_polynomial(model))


# ---------------------------------------------------------------------------
# Mumford representation and Cantor arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorClass:
    """Reduced divisor in Mumford form: u monic, deg v < deg u <= g,
    u | v^2 - f."""
    u: tuple
    v: tuple


def divisor_identity() -> DivisorClass:
    return DivisorClass(u=(1,), v=())


def divclass_add(model: HyperellipticModel, a: DivisorClass,
                 b: DivisorClass) -> DivisorClass:
    """Cantor composition followed by reduction to deg u <= g.

    When one operand is the identity and the other is already reduced (u
    monic of degree <= g, deg v < deg u, coefficients in 0..q-1, no
    trailing zeros), the other is returned as it is: on such a class (u
    divides v^2 - f) the composition is (u, v) itself and no reduction
    step runs.  Any other
    input takes the full path with all its divisibility checks.  An operand
    with u = 0 is no divisor and raises ValidationError."""
    p = model.q
    f = model.f
    g = model.genus
    u1, v1 = a.u, a.v
    u2, v2 = b.u, b.v
    if not u1 or not u2:
        raise ValidationError("divisor class with u = 0")
    if u1 == (1,) and not v1 or u2 == (1,) and not v2:
        other = b if u1 == (1,) and not v1 else a
        u, v = other.u, other.v
        if (u and u[-1] == 1 and len(u) <= g + 1 and len(v) < len(u)
                and (not v or v[-1]) and all(0 <= c < p for c in u + v)):
            return other
    d1, e1, e2 = pxgcd(u1, u2, p)
    d, c1, c2 = pxgcd(d1, padd(v1, v2, p), p)
    s1 = pmul(c1, e1, p)
    s2 = pmul(c1, e2, p)
    s3 = c2
    u3, r = pdivmod(pmul(u1, u2, p), pmul(d, d, p), p)
    if r:
        raise InternalCheckError("Cantor: u1 u2 not divisible by d^2")
    # v3 = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / d  mod u3
    num = padd(padd(pmul(pmul(s1, u1, p), v2, p),
                    pmul(pmul(s2, u2, p), v1, p), p),
               pmul(s3, padd(pmul(v1, v2, p), f, p), p), p)
    v3q, v3r = pdivmod(num, d, p)
    if v3r:
        raise InternalCheckError("Cantor: composition numerator not divisible")
    v3 = pmod(v3q, u3, p)
    # reduction
    while pdeg(u3) > g:
        unew, r = pdivmod(psub(f, pmul(v3, v3, p), p), u3, p)
        if r:
            raise InternalCheckError("Cantor: reduction step not exact")
        vnew = pmod(pscale(v3, p - 1, p), unew, p)
        u3, v3 = monic(unew, p), vnew
    u3 = monic(u3, p)
    out = DivisorClass(u=u3, v=pmod(v3, u3, p))
    return out


def divclass_neg(model: HyperellipticModel, a: DivisorClass) -> DivisorClass:
    p = model.q
    return DivisorClass(u=a.u, v=pmod(pscale(a.v, p - 1, p), a.u, p))


def divclass_mul(model: HyperellipticModel, a: DivisorClass, k: int) -> DivisorClass:
    """k a by double-and-add over the bits of |k|, low bit first.  The last
    bit ends the loop, so k >= 1 costs popcount(k) + bitlen(k) - 1 calls of
    `divclass_add` (the first addition has the identity as an operand) and
    k = 0 costs none."""
    if k < 0:
        return divclass_mul(model, divclass_neg(model, a), -k)
    out = divisor_identity()
    base = a
    while True:
        if k & 1:
            out = divclass_add(model, out, base)
        k >>= 1
        if not k:
            return out
        base = divclass_add(model, base, base)


def enumerate_divisor_classes(model: HyperellipticModel) -> list:
    """All reduced divisors (exhaustive; for small genus/q cross-checks)."""
    p = model.q
    g = model.genus
    out = [divisor_identity()]
    for du in range(1, g + 1):
        for tail in itertools.product(range(p), repeat=du):
            u = pnorm(tuple(tail) + (1,))
            if pdeg(u) != du:
                continue
            for vtail in itertools.product(range(p), repeat=du):
                v = pnorm(vtail)
                if pmod(psub(pmul(v, v, p), model.f, p), u, p) == ():
                    out.append(DivisorClass(u=u, v=v))
    return out


def random_divisor(model: HyperellipticModel, rng: CounterRng) -> DivisorClass:
    """Random class from sums of up to g random rational points (suitable
    for generation; certified downstream by order checks)."""
    p = model.q
    acc = divisor_identity()
    for _ in range(model.genus):
        for _attempt in range(4 * p):
            x = rng.randint(p)
            fx = peval(model.f, x, p)
            if fx == 0:
                pt = DivisorClass(u=pnorm(((-x) % p, 1)), v=())
                acc = divclass_add(model, acc, pt)
                break
            if pow(fx, (p - 1) // 2, p) == 1:
                y = _sqrt_mod(fx, p)
                if rng.randint(2):
                    y = (-y) % p
                pt = DivisorClass(u=pnorm(((-x) % p, 1)), v=(y,))
                acc = divclass_add(model, acc, pt)
                break
    return acc


def _sqrt_mod(a: int, p: int) -> int:
    """Square root mod odd prime (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    s, q = 0, p - 1
    while q % 2 == 0:
        q //= 2
        s += 1
    z = nonsquare(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# Sylow structure of the class group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SylowResult:
    prime: int
    structure: Optional[AbelianStructure]
    certified: bool
    attempts: int


def sylow_structure(model: HyperellipticModel, ell: int,
                    seed: int = 0) -> SylowResult:
    """Structure of the ell-part of the divisor class group.

    Random classes are pushed into the ell-Sylow subgroup and accumulated
    until the generated subgroup has the full ell-valuation of the class
    number; failure to certify within `SYLOW_BATCHES` draws is flagged,
    never guessed."""
    if not is_prime(ell):
        raise ValidationError(f"ell must be prime, got {ell}")
    if ell == model.q:
        raise ValidationError("ell must differ from the field characteristic")
    return _sylow_part(model, ell, jacobian_order(model), seed)


def _sylow_part(model: HyperellipticModel, ell: int, h: int,
                seed: int) -> SylowResult:
    """`sylow_structure` for a prime ell other than q and h = L(1)."""
    e = valuation(h, ell)
    if e == 0:
        return SylowResult(prime=ell, structure=AbelianStructure(()),
                           certified=True, attempts=0)
    target = ell ** e
    cof = h // target
    rng = substream(seed, 0)
    elements = {divisor_identity()}
    gens: list = []
    attempts = 0
    for batch in range(SYLOW_BATCHES):
        attempts += 1
        pt = random_divisor(model, rng)
        s = divclass_mul(model, pt, cof)
        if s in elements:
            continue
        gens.append(s)
        # regenerate the subgroup
        elements = {divisor_identity()}
        frontier = [divisor_identity()]
        while frontier:
            x = frontier.pop()
            for gpt in gens:
                y = divclass_add(model, x, gpt)
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
                    if len(elements) > target:
                        raise InternalCheckError(
                            "Sylow subgroup exceeds the ell-valuation bound")
        if len(elements) == target:
            structure = structure_from_orders(
                elements, lambda x, y: divclass_add(model, x, y),
                divisor_identity())
            return SylowResult(prime=ell, structure=structure,
                               certified=True, attempts=attempts)
    # sampling failed (e.g. curves with almost no rational points); fall
    # back to exhaustive class enumeration when it fits the budget
    if model.q ** (2 * model.genus) <= 1_000_000:
        classes = enumerate_divisor_classes(model)
        if len(classes) != h:
            raise InternalCheckError("class enumeration disagrees with L(1)")
        syl = {divclass_mul(model, x, cof) for x in classes}
        if len(syl) != target:
            raise InternalCheckError("exhaustive Sylow has wrong order")
        structure = structure_from_orders(
            syl, lambda x, y: divclass_add(model, x, y), divisor_identity())
        return SylowResult(prime=ell, structure=structure,
                           certified=True, attempts=attempts)
    return SylowResult(prime=ell, structure=None, certified=False,
                       attempts=attempts)


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRow:
    degree: int
    fields: int
    excluded: int
    sur_sum: int
    cumulative_average: Fraction
    prediction: Fraction
    se_proxy: float


@dataclass(frozen=True)
class MomentReport:
    q: int
    target: tuple          # cyclic orders of H
    mode: str              # "plain" or "gerth"
    rows: tuple
    weighted_total: Optional[Fraction] = None

    @property
    def final_average(self) -> Fraction:
        return self.rows[-1].cumulative_average if self.rows else Fraction(0)


def empirical_moment(q: int, d_max: int, target_orders: Sequence[int],
                     mode: str = "plain", seed: int = 0) -> MomentReport:
    """Average of #Sur(Cl(K), H) over imaginary models of degree <= d_max.

    Gamma-equivariance is automatic for the inversion action on abelian
    groups, so plain surjection counts are exact.  Gerth mode weights by
    #Hom(Cl, H/2H) and counts surjections from 2 Cl.  Raises CapacityError
    before any model is walked when the model count, the sum of
    count_imaginary(q, d) over the odd d <= d_max, exceeds `FF_MODEL_CAP`."""
    H = AbelianStructure.from_cyclic_orders(target_orders)
    if mode not in ("plain", "gerth"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "plain":
        if math.gcd(H.order, q) != 1:
            raise ValidationError("need gcd(|H|, q) = 1")
        if H.order % 2 == 0:
            raise ValidationError("plain mode needs odd H (2 is bad for "
                                  "quadratic extensions)")
        prediction = _plain_prediction(H, q)
    else:
        if H.order == 1 or any(f % 2 for f in H.factors):
            raise ValidationError("gerth mode expects a nontrivial 2-group")
        v = valuation(q - 1, 2)
        wedge = _wedge_square(H)
        prediction = Fraction(wedge.torsion_count(2 ** (v - 1)))
    models = sum(count_imaginary(q, d) for d in range(3, d_max + 1, 2))
    if models > FF_MODEL_CAP:
        raise CapacityError(
            f"ff-moment: {models} models of degree <= {d_max} over F_{q}, "
            f"above the cap of {FF_MODEL_CAP}")
    ells = prime_divisors(H.order)
    rows = []
    total_sur = Fraction(0)
    total_weight = Fraction(0)
    total_fields = 0
    sq_acc = 0.0
    for d in range(3, d_max + 1, 2):
        fields = 0
        excluded = 0
        sur_sum = 0
        idx = 0
        models = enumerate_imaginary(q, d)
        # the class numbers of one pass at a time: never the whole degree
        # (without ells none is needed and none is computed)
        while chunk := list(itertools.islice(models, _pass_rows(q, d // 2))):
            hs = ([sum(c) for c in l_polynomials(chunk)] if ells
                  else [0] * len(chunk))
            for model, h in zip(chunk, hs):
                idx += 1
                syl = {}
                ok = True
                for ell in ells:
                    res = _sylow_part(model, ell, h, seed + idx)
                    if not res.certified:
                        ok = False
                        break
                    syl[ell] = res.structure
                if not ok:
                    excluded += 1
                    continue
                fields += 1
                if mode == "plain":
                    cl = AbelianStructure(tuple(f for s in syl.values()
                                                for f in s.factors))
                    cnt = cl.sur_count(H)
                    sur_sum += cnt
                    total_sur += cnt
                    total_weight += 1
                    sq_acc += float(cnt) ** 2
                else:
                    a2 = syl[2]
                    # H/2H is elementary of the same rank
                    h_mod = AbelianStructure.from_cyclic_orders(
                        [2 for _ in H.chain])
                    w = (a2.hom_count(h_mod) if a2.sur_count(h_mod) > 0
                         else 0)
                    two_cl = AbelianStructure(tuple(
                        f // 2 for f in a2.factors if f // 2 > 1))
                    cnt = two_cl.sur_count(H)
                    sur_sum += w * cnt
                    total_sur += w * cnt
                    total_weight += w
                    sq_acc += float(cnt) ** 2
        total_fields += fields
        if total_weight > 0:
            avg = total_sur / total_weight
        else:
            avg = Fraction(0)
        se = math.sqrt(max(sq_acc / max(1, total_fields)
                           - float(avg) ** 2, 0.0) / max(1, total_fields))
        rows.append(MomentRow(degree=d, fields=fields, excluded=excluded,
                              sur_sum=int(sur_sum) if mode == "plain" else sur_sum,
                              cumulative_average=avg, prediction=prediction,
                              se_proxy=se))
    return MomentReport(q=q, target=tuple(target_orders), mode=mode,
                        rows=tuple(rows),
                        weighted_total=total_weight if mode == "gerth" else None)


def _plain_prediction(H: AbelianStructure, q: int) -> Fraction:
    from .groups import abelian, inversion_action
    from .frob import moment_prediction
    hg = inversion_action(abelian(list(H.chain) or [1]))
    return moment_prediction(hg, [0, 1], q)


def _wedge_square(H: AbelianStructure) -> AbelianStructure:
    ch = H.chain
    fs = []
    for i in range(len(ch)):
        for j in range(i + 1, len(ch)):
            fs.append(math.gcd(ch[i], ch[j]))
    return AbelianStructure.from_cyclic_orders(fs)


# ---------------------------------------------------------------------------
# binary quadratic forms (number-field comparison)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassGroupStructure:
    order: int
    structure: AbelianStructure
    per_ell: dict


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(-d)) for squarefree positive d."""
    if d <= 0:
        raise ValidationError("d must be positive")
    for p in prime_divisors(d):
        if d % (p * p) == 0:
            raise ValidationError("d must be squarefree")
    if (-d) % 4 == 1:
        return -d
    return -4 * d


def reduced_forms(D: int) -> list:
    """All reduced primitive positive definite forms (a, b, c) of
    discriminant D < 0, sorted: |b| <= a <= c, and b >= 0 when |b| = a or
    a = c (Cohen, GTM 138, Sec. 5.3).

    Since b^2 - 4ac = D, b has the parity of D, |b| <= a <= sqrt(|D|/3), and
    a is a divisor of q = (b^2 - D)/4 with a <= c = q/a, i.e. a <= sqrt(q).
    So b walks 0, 2, ... or 1, 3, ... up to sqrt(|D|/3), and for each b the
    divisors a of q with max(b, 1) <= a <= sqrt(q) give (a, b, q/a), and
    also (a, -b, q/a) when 0 < b < a < q/a."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValidationError("need a negative discriminant = 0,1 mod 4")
    out = []
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        q = (b * b - D) // 4
        for a in range(max(b, 1), math.isqrt(q) + 1):
            if q % a:
                continue
            c = q // a
            if math.gcd(a, b, c) != 1:
                continue  # primitive forms only
            out.append((a, b, c))
            if 0 < b < a < c:
                out.append((a, -b, c))
    return sorted(out)


def _form_reduce(a, b, c, D):
    while True:
        if not (-a < b <= a):
            b = ((b + a) % (2 * a)) - a
            if b <= -a:
                b += 2 * a
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return (a, b, c)


def compose_forms(f1, f2, D):
    """Dirichlet composition of primitive positive definite forms of
    discriminant D (Cohen, GTM 138, Alg. 5.4.7), reduced."""
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = xgcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, y2 = xgcd(s, d)
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    A, B = v1 * v2, b2 + 2 * v2 * r
    C, rem = divmod(c2 * d1 + r * (b2 + v2 * r), v1)
    if rem or B * B - 4 * A * C != D:
        raise InternalCheckError("composition broke the discriminant")
    return _form_reduce(A, B, C, D)


def nf_class_group(d: int, ell_list: Sequence[int] = ()) -> ClassGroupStructure:
    """Class group of Q(sqrt(-d)) via reduced forms with composition."""
    if not all(is_prime(ell) for ell in ell_list):
        raise ValidationError(f"every ell must be prime, got {list(ell_list)}")
    D = fundamental_discriminant(d)
    forms = reduced_forms(D)
    ident = _form_reduce(1, D % 2, ((D % 2) ** 2 - D) // 4, D)
    structure = structure_from_orders(
        forms, lambda x, y: compose_forms(x, y, D), ident)
    per = {ell: structure.primary_part(ell) for ell in ell_list}
    return ClassGroupStructure(order=len(forms), structure=structure,
                               per_ell=per)
