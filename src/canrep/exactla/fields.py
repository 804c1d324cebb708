"""Exact scalar fields: rationals, prime fields, and rational functions.

Scalars are plain Python values (Fraction, int, RatFunc); the field object
carries the arithmetic.  Every value is kept in a canonical form so that
equality is literal representation equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from ..errors import AlgebraError, ParseError

_VAR = "t"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient tuples over an arbitrary field)
# ---------------------------------------------------------------------------

def poly_trim(F, coeffs):
    c = list(coeffs)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def poly_add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.add(x, y))
    return poly_trim(F, out)


def poly_neg(F, a):
    return tuple(F.neg(x) for x in a)


def poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_scale(F, a, s):
    return poly_trim(F, [F.mul(x, s) for x in a])


def poly_divmod(F, a, b):
    """(q, r) with a = q*b + r and deg r < deg b, in one pass down from a's top."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = F.inv(b[-1])
    n = len(b) - 1
    r = list(a)
    q = [F.zero] * max(0, len(r) - n)
    for shift in reversed(range(len(q))):
        if r[shift + n] != F.zero:
            q[shift] = factor = F.mul(r[shift + n], inv_lead)
            for i in range(n):
                r[shift + i] = F.sub(r[shift + i], F.mul(factor, b[i]))
    return poly_trim(F, q), poly_trim(F, r[:n])


def poly_gcd_monic(F, a, b):
    a, b = poly_trim(F, a), poly_trim(F, b)
    while b:
        _, r = poly_divmod(F, a, b)
        a, b = b, r
    if not a:
        return ()
    return poly_scale(F, a, F.inv(a[-1]))


def poly_to_str(F, coeffs) -> str:
    coeffs = poly_trim(F, coeffs)
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == F.zero:
            continue
        cs = F.to_str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if k == 0:
            body = cs
        else:
            var = _VAR if k == 1 else f"{_VAR}^{k}"
            if cs == "1":
                body = var
            elif re.fullmatch(r"\d+", cs):
                body = f"{cs}{var}"
            else:
                body = f"({cs}){var}"
        terms.append(("-" if neg else "+", body))
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += sign + body
    return out


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:\((?P<par>[^()]+)\)|(?P<num>\d+(?:/\d+)?))?\s*\*?\s*"
    r"(?P<var>" + _VAR + r")?(?:\^(?P<exp>\d+))?\s*"
)


def poly_parse(F, s: str):
    """Parse "t^2+2t-1"-style polynomial strings over F."""
    s = s.strip()
    if not s:
        raise ParseError("empty polynomial string")
    if s == "0":
        return ()
    pos = 0
    coeffs: dict[int, object] = {}
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad polynomial syntax near {s[pos:]!r}")
        if m.group("par") is None and m.group("num") is None and m.group("var") is None:
            raise ParseError(f"bad polynomial syntax near {s[pos:]!r}")
        coeff_s = m.group("par") or m.group("num")
        coeff = F.parse_base(coeff_s) if coeff_s else F.one
        if m.group("sign") == "-":
            coeff = F.neg(coeff)
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            if m.group("exp") is not None:
                raise ParseError(f"exponent without variable in {s!r}")
            exp = 0
        prev = coeffs.get(exp, F.zero)
        coeffs[exp] = F.add(prev, coeff)
        pos = m.end()
    deg = max(coeffs)
    return poly_trim(F, [coeffs.get(i, F.zero) for i in range(deg + 1)])


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------

class RationalField:
    """The rationals, values are fractions in lowest terms."""

    kind = "Q"
    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise ParseError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return a / b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n: int):
        return Fraction(n)

    def random(self, rng):
        return Fraction(rng.randint(-20, 20), rng.randint(1, 7))

    def parse(self, s: str):
        return self.parse_base(s)

    def parse_base(self, s: str):
        s = s.strip()
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}") from exc

    def to_str(self, a) -> str:
        return str(a)

    def spec(self):
        return {"kind": "Q"}

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """F_p with machine-word arithmetic; values are ints in 0..p-1."""

    kind = "Fp"

    def __init__(self, p: int):
        # the bound first: trial division of a prime near 2^61 takes about 10^9 steps
        if p >= 2**31 or not _is_prime(p):
            raise AlgebraError(f"modulus {p} is not a prime < 2^31")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        raise ParseError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n: int):
        return n % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def parse(self, s: str):
        return self.parse_base(s)

    def parse_base(self, s: str):
        s = s.strip()
        if not re.fullmatch(r"-?\d+", s):
            raise ParseError(f"bad F_{self.p} element {s!r}")
        return int(s) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def spec(self):
        return {"kind": "Fp", "p": self.p}

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


@dataclass(frozen=True)
class RatFunc:
    """Rational function num/den in t; den monic, gcd(num, den) = 1."""

    num: tuple
    den: tuple


class FunctionField:
    """Rational functions over a coefficient field (Q gives the spec's Qt)."""

    kind = "Qt"

    def __init__(self, coeff_field=None):
        self.base = coeff_field if coeff_field is not None else RationalField()
        self.char = self.base.char
        self.zero = RatFunc((), (self.base.one,))
        self.one = RatFunc((self.base.one,), (self.base.one,))
        # the generator t itself, handy for generic-module constructions
        self.gen = RatFunc((self.base.zero, self.base.one), (self.base.one,))

    def make(self, num, den=None):
        """Build a canonical RatFunc from coefficient tuples."""
        B = self.base
        num = poly_trim(B, num)
        den = poly_trim(B, den if den is not None else (B.one,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return RatFunc((), (B.one,))
        g = poly_gcd_monic(B, num, den)
        if len(g) > 1:
            num, _ = poly_divmod(B, num, g)
            den, _ = poly_divmod(B, den, g)
        lead_inv = B.inv(den[-1])
        num = poly_scale(B, num, lead_inv)
        den = poly_scale(B, den, lead_inv)
        return RatFunc(num, den)

    def coerce(self, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return self.make((self.base.coerce(x),))
        raise ParseError(f"cannot coerce {x!r} into {self!r}")

    def add(self, a, b):
        B = self.base
        num = poly_add(B, poly_mul(B, a.num, b.den), poly_mul(B, b.num, a.den))
        return self.make(num, poly_mul(B, a.den, b.den))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        B = self.base
        return self.make(poly_mul(B, a.num, b.num), poly_mul(B, a.den, b.den))

    def neg(self, a):
        return RatFunc(poly_neg(self.base, a.num), a.den)

    def inv(self, a):
        if not a.num:
            raise ZeroDivisionError("inverse of 0")
        return self.make(a.den, a.num)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return not a.num

    def from_int(self, n: int):
        return self.coerce(n)

    def random(self, rng):
        B = self.base
        num = tuple(B.random(rng) for _ in range(rng.randint(1, 2)))
        return self.make(num)

    def parse_base(self, s: str):
        """A constant of the coefficient field: a point label's coefficients
        are these, so a coefficient that needs t itself is a parse error."""
        return self.coerce(self.base.parse_base(s))

    def parse(self, s: str):
        s = s.strip()
        m = re.fullmatch(r"\((?P<n>[^()]+)\)\s*/\s*\((?P<d>[^()]+)\)", s)
        if m:
            num = poly_parse(self.base, m.group("n"))
            den = poly_parse(self.base, m.group("d"))
            if not poly_trim(self.base, den):
                raise ParseError(f"zero denominator in {s!r}")
            return self.make(num, den)
        if "/" in s and _VAR not in s:
            return self.parse_base(s)
        try:
            return self.make(poly_parse(self.base, s))
        except ParseError:
            raise ParseError(f"bad rational-function literal {s!r}")

    def to_str(self, a) -> str:
        B = self.base
        if a.den == (B.one,):
            return poly_to_str(B, a.num)
        return f"({poly_to_str(B, a.num)})/({poly_to_str(B, a.den)})"

    def spec(self):
        if self.base.kind == "Q":
            return {"kind": "Qt"}
        return {"kind": "Fpt", "p": self.base.p}

    def __repr__(self):
        return f"{self.base!r}({_VAR})"

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.base == self.base

    def __hash__(self):
        return hash(("Ft", self.base))


def field_from_spec(spec: dict):
    """Inverse of Field.spec(); accepts {"kind": "Q"|"Fp"|"Qt"|"Fpt", ...}."""
    kind = spec.get("kind")
    if kind == "Q":
        return RationalField()
    if kind == "Qt":
        return FunctionField(RationalField())
    if kind not in ("Fp", "Fpt"):
        raise ParseError(f"unknown field kind {kind!r}")
    try:
        p = spec["p"]
        if isinstance(p, (bool, float)):    # int() would read 5.9 as 5 and true as 1
            raise TypeError(f"{p!r} is not an integer")
        p = int(p)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad modulus for field kind {kind!r}: {exc}") from exc
    return PrimeField(p) if kind == "Fp" else FunctionField(PrimeField(p))
