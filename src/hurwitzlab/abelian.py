"""Finite abelian group structure: invariant factors, explicit bases,
coordinates, and hom/surjection counts.

The canonical internal form is the list of prime-power cyclic factors
(primes ascending, exponents descending within a prime); the divisor chain
d1 | d2 | ... is derived from it for reporting.

An explicit basis is chosen greedily, one prime at a time, and one span
map, element -> coordinate tuple, grows with each basis element: it answers
membership, gives the coordinates that correct a new basis element, and
ends as the coordinates of the whole group.
Element orders come from walks that stop halfway (`cyclic_walk`), since
the group's inverse comes with its law.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InternalCheckError, ValidationError
from .intmat import divisor_chain
from .ntheory import (factorize, is_power_of, is_prime_power, prime_divisors,
                      valuation)


@dataclass(frozen=True)
class AbelianStructure:
    """Isomorphism type of a finite abelian group."""
    factors: tuple  # prime-power cyclic orders, canonical order

    def __post_init__(self):
        fs = []
        for f in self.factors:
            f = int(f)
            if f < 2:
                continue
            if not is_prime_power(f):
                raise ValidationError(f"factor {f} is not a prime power")
            fs.append(f)
        fs.sort(key=lambda q: (prime_divisors(q)[0], -q))
        object.__setattr__(self, "factors", tuple(fs))

    @staticmethod
    def from_cyclic_orders(orders: Sequence[int]) -> "AbelianStructure":
        """Structure of a direct sum of cyclic groups of arbitrary orders."""
        fs = []
        for d in orders:
            d = int(d)
            for p, e in factorize(d).items():
                fs.append(p ** e)
        return AbelianStructure(tuple(fs))

    @property
    def order(self) -> int:
        return math.prod(self.factors) if self.factors else 1

    @property
    def exponent(self) -> int:
        e = 1
        for f in self.factors:
            e = e * f // math.gcd(e, f)
        return e

    @property
    def chain(self) -> tuple:
        """Invariant-factor form d1 | d2 | ..."""
        return tuple(divisor_chain(self.factors))

    def is_trivial(self) -> bool:
        return not self.factors

    def torsion_count(self, k: int) -> int:
        """Number of elements x with k*x = 0."""
        return math.prod(math.gcd(f, k) for f in self.factors)

    def prime_to_part(self, m: int) -> "AbelianStructure":
        """The subgroup of elements of order coprime to m."""
        keep = [f for f in self.factors if math.gcd(f, m) == 1]
        return AbelianStructure(tuple(keep))

    def primary_part(self, p: int) -> "AbelianStructure":
        return AbelianStructure(tuple(f for f in self.factors if f % p == 0))

    def hom_count(self, other: "AbelianStructure") -> int:
        return math.prod(math.gcd(a, b)
                         for a in self.factors for b in other.factors)

    def sur_count(self, other: "AbelianStructure") -> int:
        """Number of surjective homomorphisms onto `other`.

        Closed form, one prime p at a time: with a the exponents of the
        source's p-part, b_0 >= b_1 >= ... those of the target's, and
        n_j = #{i : a_i >= b_j}, #Sur = #Hom * prod_j (1 - p^(j - n_j)),
        which is 0 as soon as some n_j <= j."""
        total = self.hom_count(other)
        for p in {prime_divisors(b)[0] for b in other.factors}:
            # within a prime the canonical factors run in descending order
            src = [a for a in self.factors if a % p == 0]
            for j, b in enumerate(f for f in other.factors if f % p == 0):
                k = sum(a >= b for a in src) - j
                if k <= 0:
                    return 0
                total = total * (p ** k - 1) // p ** k
        return total

    def __str__(self):
        if not self.factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.chain)


# ---------------------------------------------------------------------------
# structure of a concrete abelian group given by a multiplication rule
# ---------------------------------------------------------------------------

class AbelianGroupData:
    """Explicit basis and coordinates for a finite abelian group.

    `mul`, `inv`, `identity` describe the group on hashable element labels.
    After construction: `structure`, `basis` (elements), `coords[x]` a tuple
    of exponents with x = sum coords[i] * basis[i].
    """

    def __init__(self, elements, mul, inv, identity):
        elems = list(elements)
        if identity not in elems:
            raise ValidationError("identity not among elements")
        self.mul = mul
        self.identity = identity
        n = len(elems)
        orders = _element_orders(elems, mul, inv, identity)
        self.basis: list = []
        self.basis_orders: list[int] = []
        # the span of the basis so far, element -> coordinates
        self.coords = {identity: ()}
        # primary decomposition, one prime at a time
        for p in prime_divisors(n):
            self._p_basis([x for x in elems if is_power_of(orders[x], p)], p)
        self.structure = AbelianStructure(tuple(self.basis_orders))
        if self.structure.order != n:
            raise InternalCheckError("abelian basis does not span the group")
        if len(self.coords) != n:
            raise InternalCheckError("coordinate enumeration incomplete")

    def _p_basis(self, ppart, p):
        """Greedy basis of the p-primary part (direct summand peeling),
        growing the span `coords`; a p-element lies in it exactly when it
        lies in the span of the p-part of the basis."""
        mul, span = self.mul, self.coords
        goal = len(span) * len(ppart)
        while len(span) < goal:
            best = None
            for x in ppart:
                if x in span:
                    continue
                # order of x modulo current span: minimal k with x^(p^k) in span
                k, y = 0, x
                while y not in span:
                    y = _pow(mul, y, p, self.identity)
                    k += 1
                if best is None or k > best[0]:
                    best = (k, x)
            k, x = best
            # correct x so its p^k-th power is the identity, not just in span
            xe = _pow(mul, x, p ** k, self.identity)
            if xe != self.identity:
                # xe lies in span; write xe = sum c_i b_i and require p^k | c_i
                corr = self.identity
                for ci, bi, di in zip(span[xe], self.basis, self.basis_orders):
                    if ci % (p ** k):
                        raise InternalCheckError("basis correction failed")
                    corr = mul(corr, _pow(mul, bi, (di - ci // (p ** k)) % di, self.identity))
                x = mul(x, corr)
                if _pow(mul, x, p ** k, self.identity) != self.identity:
                    raise InternalCheckError("corrected element has wrong order")
            self.basis.append(x)
            self.basis_orders.append(p ** k)
            old = list(span.items())
            for y, co in old:
                span[y] = co + (0,)
            for y, co in old:
                for j in range(1, p ** k):
                    y = mul(y, x)
                    span[y] = co + (j,)


def cyclic_walk(x, mul, inv, identity, bound) -> list:
    """The powers x^0, ..., x^(k-1) of x, k its order, from a walk x, x^2,
    ..., x^j that stops where x^j is its own inverse (k = 2j) or the
    inverse of x^(j-1) (k = 2j - 1); one composition, x^j x^j or
    x^j x^(j-1), must then give the identity, and the later powers are
    inverses of those walked.  A walk that meets the identity (a law and an
    inverse that disagree) or passes `bound` raises InternalCheckError."""
    walk, back, y = [identity], [identity], x
    while y != back[-1]:
        if y == identity or len(walk) > bound:
            raise InternalCheckError("a walk met the identity or passed the "
                                     "group size")
        walk.append(y)
        back.append(inv(y))
        if back[-1] == y:
            last, tail = y, back[-2:0:-1]
            break
        y = mul(y, x)
    else:
        last, tail = walk[-1], back[:0:-1]
    powers = walk + tail
    if mul(y, last) != identity or len(powers) > bound:
        raise InternalCheckError("the group law and its inverse disagree, "
                                 "or an order passed the group size")
    return powers


def _element_orders(elems, mul, inv, identity) -> dict:
    """Order of every element, one cyclic subgroup at a time: the halved
    walk of x gives each power x^j its order k / gcd(j, k), so no element
    that already appeared as a power starts a walk of its own."""
    orders = {identity: 1}
    for x in elems:
        if x in orders:
            continue
        powers = cyclic_walk(x, mul, inv, identity, len(elems))
        k = len(powers)
        for j, y in enumerate(powers):
            o = k // math.gcd(j, k)
            if orders.setdefault(y, o) != o:
                raise InternalCheckError("element given two different orders")
    return orders


def structure_from_orders(elements, mul, inv, identity) -> AbelianStructure:
    """Isomorphism type of a finite abelian group given by a multiplication
    rule and its inverse, read off its element orders: with r_j the number
    of cyclic p-power factors of order >= p^j,
    |G[p^j]| = |G[p^(j-1)]| * p^(r_j)."""
    elems = list(elements)
    if identity not in elems:
        raise ValidationError("identity not among elements")
    orders = Counter(_element_orders(elems, mul, inv, identity).values())
    n = len(elems)
    factors = []
    for p in prime_divisors(n):
        e = valuation(n, p)
        ranks = []
        prev = 1
        for j in range(1, e + 1):
            count = sum(c for o, c in orders.items() if p ** j % o == 0)
            if count % prev or not is_power_of(count // prev, p):
                raise InternalCheckError(
                    f"|G[{p}^{j}]| = {count} is not a power of {p} times "
                    f"|G[{p}^{j - 1}]| = {prev}")
            ranks.append(valuation(count // prev, p))
            prev = count
        ranks.append(0)
        for j in range(1, e + 1):
            if ranks[j - 1] < ranks[j]:
                raise InternalCheckError(
                    f"{p}-torsion counts of a non-abelian group")
            factors.extend([p ** j] * (ranks[j - 1] - ranks[j]))
    structure = AbelianStructure(tuple(factors))
    if structure.order != n:
        raise InternalCheckError("element orders do not multiply out to |G|")
    return structure


def _pow(mul, x, k, identity):
    r = identity
    y = x
    while k:
        if k & 1:
            r = mul(r, y)
        y = mul(y, y)
        k >>= 1
    return r


def structure_of_members(group, members) -> AbelianGroupData:
    """AbelianGroupData for a subgroup (given by member indices) of a
    FiniteGroup; the subgroup must be abelian."""
    mem = sorted(set(members))
    # the whole group's table is not copied
    sub = group.array if mem == list(range(group.order)) else \
        group.array[np.ix_(mem, mem)]
    if not np.array_equal(sub, sub.T):
        raise ValidationError("subgroup is not abelian")
    return AbelianGroupData(mem, group.array.item, group.inv.__getitem__, 0)
