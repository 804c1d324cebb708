"""Factorization of polynomials over F_p: square-free parts, then Berlekamp.

- Square-free decomposition in characteristic p: gcd(f, f') peels off the
  factors whose multiplicity p does not divide, one multiplicity at a time.
  What is left is g(x^p) = g(x)^p over F_p, so its p-th root is read off
  every p-th coefficient.
- Berlekamp: for square-free g, the fixed space of h -> h^p on F_p[x]/(g) is
  F_p^r, one copy per irreducible factor, so r is its dimension.  It is the
  kernel of the columns x^(ip) mod g - x^i, i < deg g.
- Splitting: a fixed element v is a constant mod each irreducible factor.  For
  odd p, v^((p-1)/2) - 1 vanishes mod exactly the factors where v is a nonzero
  square, so gcd(g, v^((p-1)/2) - 1) separates them (Cantor-Zassenhaus).  For
  p = 2, v is 0 or 1 mod each factor and gcd(g, v) separates them (gcd(g, v - 1)
  is the cofactor).  v is a random combination of the fixed space, constants
  included, drawn from a private ``random.Random(0)``.

The result is unique, so the randomness never shows: the factors are monic
and sorted as sympy's ``factor_list`` sorts them, by degree, then
multiplicity, then coefficients from the leading one down.
"""

from __future__ import annotations

import random
from operator import mul

from .fields import poly_add, poly_divmod, poly_gcd_monic, poly_mul, poly_scale, poly_trim
from .matrix import Matrix


def poly_factor_fp(F, coeffs):
    """[(monic irreducible factor, multiplicity)] of a nonconstant polynomial
    over the prime field F, ascending coefficients, in sympy's order."""
    f = poly_trim(F, coeffs)
    f = poly_scale(F, f, F.inv(f[-1]))
    rng = random.Random(0)
    factors = [(fac, mult) for part, mult in _square_free(F, f)
               for fac in _berlekamp(F, part, rng)]
    return sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))


def _powmod(F, a, e, m):
    """a^e mod m."""
    out, base = (F.one,), poly_divmod(F, a, m)[1]
    while e:
        if e & 1:
            out = poly_divmod(F, poly_mul(F, out, base), m)[1]
        e >>= 1
        if e:
            base = poly_divmod(F, poly_mul(F, base, base), m)[1]
    return out


def _square_free(F, f):
    """[(monic square-free part, multiplicity)] of monic f, parts pairwise coprime."""
    p = F.p
    c = poly_gcd_monic(F, f, poly_trim(F, [i * a % p for i, a in enumerate(f)][1:]))
    w = poly_divmod(F, f, c)[0]   # the factors whose multiplicity p does not divide
    out, i = [], 1
    while len(w) > 1:
        y = poly_gcd_monic(F, w, c)
        fac = poly_divmod(F, w, y)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w, c, i = y, poly_divmod(F, c, y)[0], i + 1
    if len(c) > 1:
        # c = g(x^p) = g(x)^p over F_p
        out.extend((g, mult * p) for g, mult in _square_free(F, c[::p]))
    return out


def _berlekamp(F, g, rng):
    """The monic irreducible factors of monic square-free g, in no fixed order."""
    n, p = len(g) - 1, F.p
    if n == 1:
        return [g]
    xp = _powmod(F, (F.zero, F.one), p, g)
    cols, power = [], (F.one,)
    for i in range(n):
        col = list(power) + [F.zero] * (n - len(power))
        col[i] = F.sub(col[i], F.one)
        cols.append(col)
        power = poly_divmod(F, poly_mul(F, power, xp), g)[1]
    fixed = Matrix._make(F, n, n, zip(*cols)).kernel_basis()
    factors = [g]
    while len(factors) < fixed.cols:
        cs = [rng.randrange(p) for _ in range(fixed.cols)]
        v = poly_trim(F, [sum(map(mul, row, cs)) % p for row in fixed.data])
        split = []
        for u in factors:
            w = poly_divmod(F, v, u)[1]
            if p > 2:
                w = poly_add(F, _powmod(F, w, (p - 1) // 2, u), (F.neg(F.one),))
            d = poly_gcd_monic(F, u, w)
            split.extend((d, poly_divmod(F, u, d)[0]) if 1 < len(d) < len(u) else (u,))
        factors = split
    return factors
