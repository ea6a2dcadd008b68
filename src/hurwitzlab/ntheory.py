"""Integer and F_p[x] helpers shared by the package.

Integers: trial-division factorisation and the predicates built on it (the
package only factors group orders, exponents and small field sizes), and
the extended Euclidean algorithm.

Polynomials over F_p are coefficient tuples, low degree first, normalized
(no trailing zeros); the zero polynomial is ().
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------

def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e, primes ascending; {} for n = 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    return list(factorize(n))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def is_prime_power(n: int) -> bool:
    """n = p^e with p prime and e >= 1."""
    return len(factorize(n)) == 1


def is_power_of(n: int, p: int) -> bool:
    """n = p^e with e >= 0 (so n = 1 is a power of every p); n != 0, p >= 2."""
    if p < 2 or n == 0:
        raise ValueError(f"is_power_of needs p >= 2 and n != 0, got {n}, {p}")
    while n % p == 0:
        n //= p
    return n == 1


def valuation(n: int, p: int) -> int:
    """The exponent of p in n (n != 0, p >= 2)."""
    if p < 2 or n == 0:
        raise ValueError(f"valuation needs p >= 2 and n != 0, got {n}, {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        r0, s0, t0 = -r0, -s0, -t0
    return r0, s0, t0


# ---------------------------------------------------------------------------
# F_p[x]
# ---------------------------------------------------------------------------

def pnorm(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(a) -> int:
    return len(a) - 1


def padd(a, b, p):
    n = max(len(a), len(b))
    return pnorm([( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def psub(a, b, p):
    n = max(len(a), len(b))
    return pnorm([( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return pnorm(out)


def pscale(a, s, p):
    return pnorm([(x * s) % p for x in a])


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        s = (a[-1] * binv) % p
        off = len(a) - len(b)
        q[off] = s
        for i in range(len(b)):
            a[off + i] = (a[off + i] - s * b[i]) % p
        a.pop()
    return pnorm(q), pnorm(a)


def pmod(a, b, p):
    return pdivmod(a, b, p)[1]


def pgcd(a, b, p):
    a, b = pnorm(a), pnorm(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        a = pscale(a, pow(a[-1], -1, p), p)
    return a


def pxgcd(a, b, p):
    """(g, s, t) with s a + t b = g, g monic (or zero)."""
    r0, r1 = pnorm(a), pnorm(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if r0:
        lead = pow(r0[-1], -1, p)
        r0, s0, t0 = pscale(r0, lead, p), pscale(s0, lead, p), pscale(t0, lead, p)
    return r0, s0, t0


def pderiv(a, p):
    return pnorm([(i * a[i]) % p for i in range(1, len(a))])


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def is_squarefree(f, p) -> bool:
    return pdeg(pgcd(f, pderiv(f, p), p)) <= 0


def monic(f, p):
    if not f:
        return f
    return pscale(f, pow(f[-1], -1, p), p)


def ppowmod(a, e, modpoly, p):
    """a^e mod modpoly over F_p, normalized."""
    out = (1,)
    base = pmod(a, modpoly, p)
    while e:
        if e & 1:
            out = pmod(pmul(out, base, p), modpoly, p)
        base = pmod(pmul(base, base, p), modpoly, p)
        e >>= 1
    return out
