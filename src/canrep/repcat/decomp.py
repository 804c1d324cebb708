"""Indecomposable decomposition, isomorphism testing, and brick detection.

The splitter (``_split_leaves``) computes a basis of End(m) and walks it once,
in order, taking each element's minimal polynomial (``exactla``'s one
incremental routine, on the vertex maps together) and factoring it: over F_p
with ``exactla``'s Berlekamp factorizer, over Q and Q(t) through sympy,
imported on first use.  Over F_p(t) a polynomial of degree >= 2 has no
factoring backend: ``factor_poly`` raises DecompositionError, and the splitter
and ``is_brick`` let it through rather than read it as "no split".

- If the polynomial has two or more distinct monic factors, m splits into the
  kernels of their powers (each raised to its multiplicity), and the splitter
  recurses into each piece.
- If its degree is dim End, the element generates End(m): End(m) = F[phi] is
  F[x]/(mu), which is local exactly when mu is a power of one irreducible.  So
  m is certified indecomposable, over every field.

Only when no basis element splits or generates does the splitter go further.
Over F_p, when the basis commutes, it counts the blocks of End(m) exactly:
x -> x^p - x is F_p-linear on a commutative F_p-algebra and its kernel is
spanned by the primitive idempotents (Berlekamp's count,
``_frobenius_blocks``).  One block means m is indecomposable.  Otherwise it
tries seeded random combinations of the basis the same way.

Which "local" verdicts are exact:

- dim End = 1;
- End generated by one basis element, over every field;
- commutative End over F_p (the block count, whichever way m then splits);
- non-commutative End over F_2 or F_3 with dim End <= 6, where an exhaustive
  search finds no nontrivial idempotent.

For an End that no basis element generates, over Q and k(t), and for larger
non-commutative End over F_p, the verdict rests on the 64 seeded random
trials (probabilistic, not a proof).  ``is_brick`` walks the same basis and
is exact over F_p, and over Q and k(t) once a basis element generates End(m)
or has a reducible minimal polynomial; otherwise it samples probes.

A certified verdict makes the random draws the trials would have made, so
later draws, and seeded output, do not depend on which way a verdict came.

Every exact verdict, "local" or "brick", is kept in the module's derived-data
slot (``repcat.core``), next to End(m)'s basis.  A later
``indecomposable_summands`` on a kept leaf returns ``[(m, identity)]`` and a
later ``is_brick`` the kept answer, without a basis walk; each replays the
draws of the failed trials (or probes), one per End basis element each, and
none when dim End = 1.  A verdict that rests on the trials or probes is never
kept, so every call repeats them.

A split found in the basis walk is kept in the same slot: the pieces and
their inclusions' matrices.  The walk draws nothing, so a later call recurses
straight into the kept pieces (and so into their kept verdicts and splits)
with rng where a fresh split would leave it, and returns the same leaf
objects.  A split found by the random candidates, the Frobenius blocks or the
exhaustive idempotent search follows draws and is recomputed on every call.
So the splitter keeps one decision per module, in one field of the slot
(``split``): the walk's pieces, or no pieces for an exact "local" verdict.

One coefficient grid (``_grid``) serves both searches over a basis: the
isomorphism and monomorphism search (``_search``: the basis, then its seeded
random combinations, then a small grid) and the exhaustive idempotent search,
which walks every combination over F_2 or F_3.
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
    _derived_slot,
    hom_basis,
    hom_dim,
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
    if isinstance(field, FunctionField) and field.base.kind == "Q":
        return _factor_function_field(field, coeffs)
    raise DecompositionError(f"no factorization backend for degree {len(coeffs) - 1} "
                             f"over {field!r}")


def _factor_rational(field, coeffs):
    import sympy

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
    """Factor over Q(t) with sympy, in the two variables x and t."""
    import sympy

    B = field.base
    x, t = sympy.Symbol("x"), sympy.Symbol("t")
    # clear denominators: multiply by the lcm of all coefficient denominators
    common = (B.one,)
    for c in coeffs:
        g = poly_trim(B, c.den)
        gc = poly_gcd_monic(B, common, g)
        quo, _ = poly_divmod(B, g, gc)
        common = poly_mul(B, common, quo)

    expr = sympy.Integer(0)
    for i, c in enumerate(coeffs):
        num = poly_mul(B, c.num, poly_divmod(B, common, c.den)[0])
        for j, cv in enumerate(num):
            if cv != B.zero:
                expr += sympy.Rational(cv) * t**j * x**i
    _, factors = sympy.factor_list(expr, x, t)
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
            comps.append(field.make(tuple(Fraction(str(v)) for v in raw)))
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
    return _irreducible(factor_poly(field, coeffs))


def _irreducible(factors) -> bool:
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


def _factored(m: Representation, phi: Morphism):
    """(minimal polynomial of phi, its [(monic factor, multiplicity)]); a
    polynomial that cannot be factored raises DecompositionError."""
    minpoly = endo_minimal_polynomial(phi)
    return minpoly, factor_poly(m.field, minpoly)


def _primary_split(m: Representation, phi: Morphism, factors):
    """Split m along the primary decomposition of phi, or None.

    ``factors`` are those of phi's minimal polynomial; the piece of a factor
    is the kernel of fac(phi)^mult, mult its multiplicity.
    """
    if len(factors) < 2:
        return None
    pieces = []
    for fac, mult in factors:
        g = Morphism(m, m, {v: a.eval_poly(fac).power(mult) for v, a in phi.maps.items()},
                     check=False)
        pieces.append(kernel(g))
    if sum(p.total_dim for p, _ in pieces) != m.total_dim:
        raise DecompositionError("primary decomposition does not fill the module")
    return pieces


def _basis_walk(m: Representation, basis):
    """Each element of ``basis``, a basis of End(m), in order, as (phi, factors,
    generates): the factors of phi's minimal polynomial (see ``_factored``), and
    whether its degree is dim End, so that End(m) = F[phi]."""
    for phi in basis:
        minpoly, factors = _factored(m, phi)
        yield phi, factors, len(minpoly) - 1 == len(basis)


def _candidates(basis, rng, trials):
    """Up to ``trials`` nonzero seeded random combinations of the basis."""
    src, tgt = basis[0].source, basis[0].target
    for _ in range(trials):
        f = linear_combination(src, tgt, basis, [src.field.random(rng) for _ in basis])
        if not f.is_zero():
            yield f


def _grid(basis, values):
    """Every combination of the basis with coefficients in ``values``, in the
    lexicographic order of the coefficient tuples."""
    src, tgt = basis[0].source, basis[0].target
    for coeffs in itertools.product(values, repeat=len(basis)):
        yield linear_combination(src, tgt, basis, coeffs)


def _grid_values(field, bound):
    if isinstance(field, PrimeField):
        return [field.coerce(v) for v in range(min(field.p, bound + 1))]
    return [field.from_int(v) for v in range(bound + 1)]


def _search(basis, rng, accept, grid_bound):
    """The first of the basis and its random combinations, then (for at most 3
    basis elements) the first combination with coefficients in a small grid,
    that passes ``accept``."""
    grid = _grid(basis, _grid_values(basis[0].source.field, grid_bound)) if len(basis) <= 3 else ()
    return next(filter(accept, itertools.chain(basis, _candidates(basis, rng, _DEFAULT_TRIALS),
                                               grid)), None)


def _exhaustive(field, dim) -> bool:
    """Whether an End(m) of dimension dim over field is small enough for the
    exhaustive idempotent search: F_2 or F_3, dim <= 6."""
    return isinstance(field, PrimeField) and field.p <= 3 and dim <= 6


def _idempotent_fallback(m, basis):
    """A split of m along a nontrivial idempotent of End(m), or None when End(m)
    has none; every element is tried (see ``_exhaustive``)."""
    ident = Morphism.identity(m)
    for f in _grid(basis, range(m.field.p)):
        if not f.is_zero() and f != ident and f.after(f) == f:
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


def _replay_draws(field, rng, count: int, dim: int):
    """The draws of ``count`` failed trials (or probes) over an End basis of
    ``dim`` elements, one draw per element each; none when dim End = 1, where
    no trial runs."""
    if dim > 1:
        _skip_draws(field, rng, count * dim)


def _split_leaves(m: Representation, incl: Morphism, rng, trials):
    """The leaves of m, in order, as (leaf, incl after the leaf's inclusion into m)."""
    if m.is_zero():
        return
    kept = _derived_slot(m)
    if kept.split is None:
        pieces, keep = _split(m, hom_basis(m, m), rng, trials)
        pieces = pieces or []
        if keep:
            kept.split = [(piece, piece_incl.maps) for piece, piece_incl in pieces]
    else:
        pieces = [(piece, Morphism(piece, m, maps, check=False)) for piece, maps in kept.split]
        if not pieces:
            _replay_draws(m.field, rng, trials, len(kept.end))
    if not pieces:
        yield m, incl
    for piece, piece_incl in pieces:
        yield from _split_leaves(piece, incl.after(piece_incl), rng, trials)


def _split(m: Representation, basis, rng, trials):
    """(pieces, keep): pieces that split m, or None when m is reported local,
    and whether that answer may be kept on m (a kept "local" is no pieces).

    A verdict "local" is kept when it is exact: it makes the draws of the
    failed trial loop, and a kept one replays them.  A split is kept when the
    basis walk found it, which draws nothing, so reusing it leaves rng where a
    fresh split would.  A split from the random candidates, the Frobenius
    blocks (found after the trials) or the exhaustive idempotent search follows
    draws and is not kept."""
    if len(basis) == 1:
        return None, True
    for phi, factors, generates in _basis_walk(m, basis):
        pieces = _primary_split(m, phi, factors)
        if pieces:
            return pieces, True
        if generates:
            # certified local: End(m) = F[phi] = F[x]/(mu), mu a power of one irreducible
            _skip_draws(m.field, rng, trials * len(basis))
            return None, True
    fixed = _frobenius_blocks(m, basis)
    if fixed is not None and len(fixed) == 1:
        # certified local: End(m) is commutative over F_p with one block
        _skip_draws(m.field, rng, trials * len(basis))
        return None, True
    for phi in _candidates(basis, rng, trials):
        pieces = _primary_split(m, phi, _factored(m, phi)[1])
        if pieces:
            return pieces, False
    if fixed is not None:
        # two or more blocks: a non-scalar fixed x has a minimal polynomial
        # dividing x^p - x, so distinct linear factors, and it splits m
        return next(filter(None, (_primary_split(m, f, _factored(m, f)[1])
                                  for f in fixed)), None), False
    if _exhaustive(m.field, len(basis)):
        pieces = _idempotent_fallback(m, basis)
        return pieces, pieces is None
    # reported local on the trials alone: an End that no basis element
    # generates, over Q and k(t), or a larger non-commutative End over F_p
    return None, False


def indecomposable_summands(m: Representation, rng=None, trials=_DEFAULT_TRIALS):
    """[(leaf, inclusion into m)]; the stacked inclusions are an isomorphism.

    A module whose exact "local" verdict is kept gives [(m, identity)] at once,
    after the draws the verdict's first computation made; one whose basis-walk
    split is kept recurses straight into its kept pieces."""
    rng = rng if rng is not None else random.Random(0)
    return list(_split_leaves(m, Morphism.identity(m), rng, trials))


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
    """Some monomorphism m -> n, or None (seeded search plus small grids).

    None is exact when Hom(m, n) = 0 or some dim m_v > dim n_v; then no search
    runs, but a failed search's draws are made.  Otherwise it proves nothing."""
    rng = rng if rng is not None else random.Random(0)
    if any(d > n.dims.get(v, 0) for v, d in m.dims.items()):
        _skip_draws(m.field, rng, _DEFAULT_TRIALS * hom_dim(m, n))
        return None
    basis = hom_basis(m, n)
    if not basis:
        return None
    return _search(basis, rng, Morphism.is_injective, m.total_dim + n.total_dim)


def is_isomorphic(m: Representation, n: Representation, rng=None) -> Morphism | None:
    """An invertible morphism m -> n, or None.

    Random linear combinations of a hom basis (seeded), with a deterministic
    grid fallback for hom dimension <= 3.  The dims are equal, so a candidate
    is accepted when it is injective: square and injective is invertible.
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
    return _search(basis, rng, Morphism.is_injective, m.total_dim)


# ---------------------------------------------------------------------------
# endomorphism structure
# ---------------------------------------------------------------------------

def is_brick(m: Representation, rng=None, probes: int = 32) -> bool:
    """True iff End(m) is a division algebra.

    dim End = 1 is immediate.  Every element of a division algebra has an
    irreducible minimal polynomial, and the End(m) basis is walked for one that
    has not (no brick) or that generates End(m): End(m) = F[phi] = F[x]/(mu) is
    a division algebra iff mu is irreducible.  Both answers are exact over
    every field.  Failing that, over F_p the answer is still exact: a
    non-commutative End is no division algebra (Wedderburn), and a commutative
    one is a field iff it has one block and no nilpotents, i.e. x -> x^p is
    injective.  Over Q and k(t) a batch of seeded probes must also have
    irreducible minimal polynomials (probabilistic).  Either way rng advances
    by the probes' draws.  An exact answer is kept on m, and a later call
    returns it with the same draws.
    """
    if m.is_zero():
        return False
    rng = rng if rng is not None else random.Random(0)
    kept = _derived_slot(m)
    if kept.brick is None:
        basis = hom_basis(m, m)
        kept.brick = _exact_brick(m, basis)
        if kept.brick is None:
            # all probes are drawn before any is tested, so rng advances by a fixed amount
            return all(is_irreducible_poly(m.field, endo_minimal_polynomial(phi))
                       for phi in list(_candidates(basis, rng, probes)))
    _replay_draws(m.field, rng, probes, len(kept.end))
    return kept.brick


def _exact_brick(m: Representation, basis):
    """``is_brick``'s answer where it is exact, else None (Q and k(t) only)."""
    if len(basis) == 1:
        return True
    for _, factors, generates in _basis_walk(m, basis):
        if generates or not _irreducible(factors):
            return _irreducible(factors)
    F = m.field
    if not isinstance(F, PrimeField):
        return None
    fixed = _frobenius_blocks(m, basis)
    if fixed is None or len(fixed) != 1:
        return False
    rows = [_power(b, F.p).flatten() for b in basis]
    return Matrix._make(F, len(rows), len(rows[0]), rows).rank() == len(basis)
