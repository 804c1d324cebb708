"""Indecomposable decomposition, isomorphism testing, and brick detection.

The splitter (``_split_leaves``) computes a basis of End(m).  Over F_p, when
the basis commutes, it first counts the blocks of End(m) exactly: x -> x^p - x
is F_p-linear on a commutative F_p-algebra and its kernel is spanned by the
primitive idempotents (Berlekamp's count, ``_frobenius_blocks``).  One block
means m is indecomposable, and the splitter stops there without a minimal
polynomial or a factorization.

Otherwise it tries the elements of End(m) in a fixed order: the basis itself,
then seeded random combinations.  For each candidate it takes the minimal
polynomial (``exactla``'s one incremental routine, on the vertex maps
together) and factors it: over F_p with ``exactla``'s Berlekamp factorizer,
over Q and k(t) through sympy, imported on first use.  If the polynomial has
two or more distinct monic factors, m splits into the kernels of their
powers, and the splitter recurses into each piece.  Factorizations are kept
in a dict for one top-level ``indecomposable_summands`` call, since the same
few polynomials recur across trials and pieces.

Which "local" verdicts are exact:

- dim End = 1;
- commutative End over F_p (the block count, whichever way m then splits);
- non-commutative End over F_2 or F_3 with dim End <= 6, where an exhaustive
  search finds no nontrivial idempotent.

Over Q and k(t), and for larger non-commutative End over F_p, the verdict
rests on the random trials (probabilistic, not a proof).  ``is_brick`` is
exact over F_p and samples probes over Q and k(t).

A certified verdict makes the random draws the trials would have made, so
later draws, and seeded output, do not depend on which way a verdict came.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from ..errors import DecompositionError
from ..exactla import (
    FunctionField,
    Matrix,
    PrimeField,
    RationalField,
    minimal_polynomial,
    poly_divmod,
    poly_factor_fp,
    poly_gcd_monic,
    poly_mul,
    poly_scale,
    poly_trim,
)
from .core import (
    Morphism,
    Representation,
    coordinates_in_hom_basis,
    hom_basis,
    image,
    kernel,
    linear_combination,
    sum_onto,
)

_DEFAULT_TRIALS = 64


# ---------------------------------------------------------------------------
# minimal polynomials and factorization
# ---------------------------------------------------------------------------

def endo_minimal_polynomial(phi: Morphism):
    """Ascending coefficients of the minimal polynomial of an endomorphism."""
    return minimal_polynomial(tuple(phi.maps.values()))


def _sympy_mod():
    import sympy

    return sympy


def factor_poly(field, coeffs):
    """Factor a polynomial over the field into [(monic_factor, multiplicity)]."""
    coeffs = poly_trim(field, coeffs)
    if len(coeffs) <= 1:
        raise DecompositionError("cannot factor a constant polynomial")
    if len(coeffs) == 2:
        return [(poly_scale(field, coeffs, field.inv(coeffs[-1])), 1)]
    if isinstance(field, RationalField):
        return _factor_rational(field, coeffs)
    if isinstance(field, PrimeField):
        return poly_factor_fp(field, coeffs)
    if isinstance(field, FunctionField):
        return _factor_function_field(field, coeffs)
    raise DecompositionError(f"no factorization backend for {field!r}")


def _factor_rational(field, coeffs):
    sympy = _sympy_mod()
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(str(c)) for c in fac.all_coeffs()]
        lead = cs[0]
        monic = tuple(c / lead for c in reversed(cs))
        out.append((monic, int(mult)))
    return out


def _factor_function_field(field, coeffs):
    sympy = _sympy_mod()
    B = field.base
    x, t = sympy.Symbol("x"), sympy.Symbol("t")
    # clear denominators: multiply by the lcm of all coefficient denominators
    common = (B.one,)
    for c in coeffs:
        g = poly_trim(B, c.den)
        gc = poly_gcd_monic(B, common, g)
        quo, _ = poly_divmod(B, g, gc)
        common = poly_mul(B, common, quo)

    def base_to_sympy(val):
        return sympy.Rational(val) if B.kind == "Q" else sympy.Integer(val)

    expr = sympy.Integer(0)
    for i, c in enumerate(coeffs):
        num = poly_mul(B, c.num, poly_divmod(B, common, c.den)[0])
        for j, cv in enumerate(num):
            if cv != B.zero:
                expr += base_to_sympy(cv) * t**j * x**i
    if B.kind == "Q":
        _, factors = sympy.factor_list(expr, x, t)
    else:
        _, factors = sympy.factor_list(expr, x, t, modulus=B.p)
    out = []
    deg_seen = 0
    for fac, mult in factors:
        pf = sympy.Poly(fac, x)
        if pf.degree() < 1:
            continue
        comps = []
        for c_expr in reversed(pf.all_coeffs()):
            ct = sympy.Poly(c_expr, t)
            raw = list(reversed(ct.all_coeffs())) if not ct.is_zero else []
            if B.kind == "Q":
                num = tuple(Fraction(str(v)) for v in raw)
            else:
                num = tuple(int(v) % B.p for v in raw)
            comps.append(field.make(num))
        lead_inv = field.inv(comps[-1])
        monic = tuple(field.mul(c, lead_inv) for c in comps)
        out.append((monic, int(mult)))
        deg_seen += (len(monic) - 1) * int(mult)
    if deg_seen != len(coeffs) - 1:
        raise DecompositionError("function-field factorization dropped degree")
    return out


def is_irreducible_poly(field, coeffs) -> bool:
    coeffs = poly_trim(field, coeffs)
    if len(coeffs) <= 1:
        return False
    factors = factor_poly(field, coeffs)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """Indecomposable summands with multiplicities and a certified isomorphism."""

    summands: list            # [(Representation, multiplicity)]
    sum_rep: Representation   # canonical direct sum in summand order
    iso: Morphism             # sum_rep -> original, invertible
    iso_inverse: Morphism


def _primary_split(m: Representation, phi: Morphism, factorizations):
    """Split m along the primary decomposition of phi, or None.

    ``factorizations`` maps a minimal polynomial to its factors (None when it
    cannot be factored) and is filled as polynomials are met.
    """
    minpoly = endo_minimal_polynomial(phi)
    if minpoly not in factorizations:
        try:
            factorizations[minpoly] = factor_poly(m.field, minpoly)
        except DecompositionError:
            factorizations[minpoly] = None
    factors = factorizations[minpoly]
    if factors is None or len(factors) < 2:
        return None
    n = m.total_dim
    pieces = []
    for fac, _ in factors:
        g = Morphism(m, m, {v: a.eval_poly(fac).power(n) for v, a in phi.maps.items()},
                     check=False)
        pieces.append(kernel(g))
    if sum(p.total_dim for p, _ in pieces) != n:
        raise DecompositionError("primary decomposition does not fill the module")
    return pieces


def _candidates(basis, rng, trials):
    """The basis, then up to ``trials`` nonzero seeded random combinations of it."""
    src, tgt = basis[0].source, basis[0].target
    yield from basis
    for _ in range(trials):
        f = linear_combination(src, tgt, basis, [src.field.random(rng) for _ in basis])
        if not f.is_zero():
            yield f


def _grid_values(field, bound):
    if isinstance(field, PrimeField):
        return [field.coerce(v) for v in range(min(field.p, bound + 1))]
    return [field.from_int(v) for v in range(bound + 1)]


def _search(basis, rng, accept, grid_bound):
    """The first candidate, then (for at most 3 basis elements) the first
    combination with coefficients in a small grid, that passes ``accept``."""
    for f in _candidates(basis, rng, _DEFAULT_TRIALS):
        if accept(f):
            return f
    if len(basis) <= 3:
        src, tgt = basis[0].source, basis[0].target
        values = _grid_values(src.field, grid_bound)
        for coeffs in itertools.product(values, repeat=len(basis)):
            f = linear_combination(src, tgt, basis, coeffs)
            if accept(f):
                return f
    return None


def _idempotent_fallback(m, basis):
    """Exhaustive idempotent search in End(m), tiny fields and dim <= 6 only."""
    F = m.field
    if not isinstance(F, PrimeField) or F.p > 3 or len(basis) > 6:
        return None
    ident = Morphism.identity(m)
    for coeffs in itertools.product(range(F.p), repeat=len(basis)):
        f = linear_combination(m, m, basis, coeffs)
        if f.is_zero() or f == ident:
            continue
        if f.after(f) == f:
            ker_rep, ker_incl = kernel(f)
            img_rep, img_incl, _ = image(f)
            return [(img_rep, img_incl), (ker_rep, ker_incl)]
    return None


def _power(phi: Morphism, n: int) -> Morphism:
    return Morphism(phi.source, phi.target, {v: a.power(n) for v, a in phi.maps.items()},
                    check=False)


def _frobenius_blocks(m: Representation, basis):
    """A basis of {x in End(m) : x^p = x}, or None unless End(m) is commutative
    over F_p.

    ``basis`` spans End(m).  On a commutative F_p-algebra x -> x^p - x is
    F_p-linear, and its kernel is spanned by the primitive idempotents, one per
    block (a local F_p-algebra fixes only F_p).  So the length of the result is
    the exact number of blocks: 1 iff m is indecomposable.
    """
    F = m.field
    if not isinstance(F, PrimeField):
        return None
    if any(a.after(b) != b.after(a) for a, b in itertools.combinations(basis, 2)):
        return None
    cols = [(_power(b, F.p) - b).flatten() for b in basis]
    ker = Matrix._make(F, len(cols[0]), len(cols), zip(*cols)).kernel_basis()
    return [linear_combination(m, m, basis, ker.col(j)) for j in range(ker.cols)]


def _skip_draws(field, rng, count):
    """Make the ``count`` field.random draws of a trial loop that would have failed."""
    for _ in range(count):
        field.random(rng)


def _split_leaves(m: Representation, incl: Morphism, rng, trials, leaves, factorizations):
    if m.is_zero():
        return
    basis = hom_basis(m, m)
    if len(basis) == 1:
        leaves.append((m, incl))
        return
    fixed = _frobenius_blocks(m, basis)
    if fixed is not None and len(fixed) == 1:
        # certified local: End(m) is commutative over F_p with one block
        _skip_draws(m.field, rng, trials * len(basis))
        leaves.append((m, incl))
        return
    for phi in _candidates(basis, rng, trials):
        pieces = _primary_split(m, phi, factorizations)
        if pieces:
            break
    else:
        if fixed is None:
            pieces = _idempotent_fallback(m, basis)
        else:
            # two or more blocks: a non-scalar fixed x has a minimal polynomial
            # dividing x^p - x, so distinct linear factors, and it splits m
            pieces = next(filter(None, (_primary_split(m, f, factorizations)
                                        for f in fixed)), None)
    if pieces:
        for piece, piece_incl in pieces:
            _split_leaves(piece, incl.after(piece_incl), rng, trials, leaves, factorizations)
        return
    # reported local: exact for non-commutative End over F_2 or F_3 with
    # dim End <= 6 (the exhaustive search above); over Q, k(t) and for larger
    # non-commutative End over F_p it rests on the trials
    leaves.append((m, incl))


def indecomposable_summands(m: Representation, rng=None, trials=_DEFAULT_TRIALS):
    """[(leaf, inclusion into m)]; the stacked inclusions are an isomorphism."""
    rng = rng if rng is not None else random.Random(0)
    leaves = []
    _split_leaves(m, Morphism.identity(m), rng, trials, leaves, {})
    return leaves


def decompose(m: Representation, rng=None, trials=_DEFAULT_TRIALS) -> Decomposition:
    rng = rng if rng is not None else random.Random(0)
    leaves = indecomposable_summands(m, rng, trials)
    groups = []
    for leaf, incl in leaves:
        placed = False
        for grp in groups:
            f = is_isomorphic(grp["rep"], leaf, rng)
            if f is not None:
                grp["members"].append(incl.after(f))
                placed = True
                break
        if not placed:
            groups.append({"rep": leaf, "members": [incl]})
    parts, columns = [], []
    for grp in groups:
        parts.append((grp["rep"], len(grp["members"])))
        columns.extend(grp["members"])
    sum_rep, iso, inv = sum_onto(m, columns)
    if inv is None:
        raise DecompositionError("decomposition certificate is not invertible")
    if inv.after(iso) != Morphism.identity(sum_rep) or iso.after(inv) != Morphism.identity(m):
        raise DecompositionError("decomposition certificate failed verification")
    return Decomposition(parts, sum_rep, iso, inv)


def is_indecomposable(m: Representation, rng=None) -> bool:
    if m.is_zero():
        return False
    return len(indecomposable_summands(m, rng)) == 1


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def find_injective_morphism(m: Representation, n: Representation,
                            rng=None) -> Morphism | None:
    """Some monomorphism m -> n, or None (seeded search plus small grids)."""
    rng = rng if rng is not None else random.Random(0)
    basis = hom_basis(m, n)
    if not basis:
        return None
    return _search(basis, rng, Morphism.is_injective, m.total_dim + n.total_dim)


def is_isomorphic(m: Representation, n: Representation, rng=None) -> Morphism | None:
    """An invertible morphism m -> n, or None.

    Random linear combinations of a hom basis (seeded), with a deterministic
    grid fallback for hom dimension <= 3.
    """
    rng = rng if rng is not None else random.Random(0)
    if not m.algebra.same_as(n.algebra):
        return None
    if m.dims != n.dims:
        return None
    if m.is_zero() and n.is_zero():
        return Morphism.zero(m, n)
    basis = hom_basis(m, n)
    if not basis:
        return None
    return _search(basis, rng, lambda f: f.inverse() is not None, m.total_dim)


# ---------------------------------------------------------------------------
# endomorphism structure
# ---------------------------------------------------------------------------

def end_algebra_structure(m: Representation):
    """(basis, table) with table[i][j] = coordinates of basis_i o basis_j."""
    basis = hom_basis(m, m)
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            coords = coordinates_in_hom_basis(bi.after(bj), basis)
            if coords is None:
                raise DecompositionError("End is not closed under composition")
            row.append(coords)
        table.append(row)
    return basis, table


def is_brick(m: Representation, rng=None, probes: int = 32) -> bool:
    """True iff End(m) is a division algebra.

    dim End = 1 is immediate.  Over F_p the answer is exact: a non-commutative
    End is no division algebra (Wedderburn), and a commutative one is a field
    iff it has one block and no nilpotents, i.e. x -> x^p is injective.  Over Q
    and k(t) every basis element and a batch of seeded probes must have an
    irreducible minimal polynomial (no nilpotents, no idempotents).  Either
    way rng advances by the probes' draws.
    """
    if m.is_zero():
        return False
    rng = rng if rng is not None else random.Random(0)
    basis = hom_basis(m, m)
    if len(basis) == 1:
        return True
    F = m.field
    if isinstance(F, PrimeField):
        _skip_draws(F, rng, probes * len(basis))
        fixed = _frobenius_blocks(m, basis)
        if fixed is None or len(fixed) != 1:
            return False
        rows = [_power(b, F.p).flatten() for b in basis]
        return Matrix._make(F, len(rows), len(rows[0]), rows).rank() == len(basis)
    # all probes are drawn before any is tested, so rng advances by a fixed amount
    for phi in list(_candidates(basis, rng, probes)):
        minpoly = endo_minimal_polynomial(phi)
        if len(minpoly) == 2:
            continue
        if not is_irreducible_poly(m.field, minpoly):
            return False
    return True
