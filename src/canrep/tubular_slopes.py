"""Slopes for tubular canonical algebras (weight types 2222, 333, 244, 236).

The tubular families are indexed by slopes in Q+ together with 0 and ∞.  The
two extreme sides mirror each other, and each is stated once:

- its defect (``_side_defect``): kill the source for the 0-side, the sink for
  the ∞-side.  The quotient is tame concealed; its primitive radical vector,
  0 at the killed vertex and signed so that P(sink) is negative on the 0-side
  and I(source) positive on the ∞-side, pairs with a dimension vector through
  the full Euler form;
- its seeds (``_subspace_quotient_regulars``, weight type (2,2,2,2) only):
  arm middles joined to the sink by columns on the 0-side, and out of the
  source by the transposed rows on the ∞-side;
- its extreme module in ``slope_pool``: P(source) on the 0-side, I(sink) on
  the ∞-side, kept when the side's defect vanishes on it.

The slope is the calibrated ratio of the two defects (slope 1 on the least
middle vertex simple); the pools strictly between 0 and ∞ other than 1 are
extension middles of a side's pool and the slope-1 family.  Order
compatibility with Hom-vanishing is a verified contract, not an assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import AlgebraError, ChainError, ParseError, TubeError
from .exactla import Matrix
from .homology import ExtSpace
from .quiver_algebra import SINK, SOURCE, CanonicalAlgebra, QuiverAlgebra, arm_vertex
from .repcat import (
    Representation,
    direct_sum,
    find_injective_morphism,
    hom_dim,
    injective_at,
    is_brick,
    is_indecomposable,
    projective_at,
    simple_at,
)
from .trisection import TubeId, regular_simples, uniserial_tower

TUBULAR_TYPES = {(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)}


@total_ordering
@dataclass(frozen=True)
class Slope:
    """A point of Q+ together with the endpoints 0 and ∞ (value None)."""

    value: Fraction | None

    @property
    def infinite(self) -> bool:
        return self.value is None

    @classmethod
    def of(cls, q) -> "Slope":
        return cls(Fraction(q))

    @classmethod
    def zero(cls) -> "Slope":
        return cls(Fraction(0))

    @classmethod
    def infinity(cls) -> "Slope":
        return cls(None)

    def __lt__(self, other: "Slope") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        return self.value < other.value

    def __str__(self):
        return "∞" if self.infinite else str(self.value)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        text = text.strip()
        if text in ("∞", "inf", "infty"):
            return cls.infinity()
        try:
            return cls.of(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad slope {text!r}: expected a rational or ∞") from None


class TubularAlgebra:
    """A tubular canonical algebra with its two quotient defects and slopes."""

    def __init__(self, algebra: CanonicalAlgebra):
        if tuple(sorted(algebra.weights)) not in TUBULAR_TYPES:
            raise AlgebraError(
                f"weights {algebra.weights} are not tubular "
                f"(need one of {sorted(TUBULAR_TYPES)})")
        self.algebra = algebra
        # P(sink) is negative on the 0-side, I(source) positive on the ∞-side
        self.quotient_zero, self._h_zero = _side_defect(
            algebra, SOURCE, projective_at(algebra, SINK).dims, -1, "0-side")
        self.quotient_infinity, self._h_infinity = _side_defect(
            algebra, SINK, injective_at(algebra, SOURCE).dims, 1, "∞-side")
        self._calibrate()

    def delta_zero(self, dims: dict) -> int:
        return self.algebra.euler_form(self._h_zero, dims)

    def delta_infinity(self, dims: dict) -> int:
        return self.algebra.euler_form(self._h_infinity, dims)

    def _calibrate(self):
        """Fix the slope-1 normalization on a minimal middle-family module.

        The winner is the lexicographically least vertex simple with
        delta_zero > 0 > delta_infinity (total dimension 1, so no smaller
        candidate exists).
        """
        alg = self.algebra
        best = None
        for v in alg.vertices:
            if v in (SOURCE, SINK):
                continue
            s = simple_at(alg, v)
            if self.delta_zero(s.dims) > 0 and self.delta_infinity(s.dims) < 0:
                key = tuple(s.dims[w] for w in alg.vertices)
                if best is None or key < best[0]:
                    best = (key, s)
        if best is None:
            raise AlgebraError("no calibration module found")
        self.calibration_module = best[1]
        self._c_zero = self.delta_zero(best[1].dims)
        self._c_infinity = -self.delta_infinity(best[1].dims)

    def slope_of_dims(self, dims: dict) -> Slope:
        d0 = self.delta_zero(dims)
        di = self.delta_infinity(dims)
        if d0 < 0:
            raise TubeError("module sits in the initial preprojective component")
        if di > 0:
            raise TubeError("module sits in the final preinjective component")
        if d0 == 0 and di == 0:
            raise TubeError("both defects vanish; no slope assigned")
        if d0 == 0:
            return Slope.zero()
        if di == 0:
            return Slope.infinity()
        return Slope.of(Fraction(self._c_infinity * d0, self._c_zero * (-di)))


def _side_defect(alg: CanonicalAlgebra, killed: str, probe_dims: dict, sign: int,
                 name: str):
    """(quotient, h): the quotient killing ``killed`` and its radical vector h,
    0 at ``killed`` and signed so that <h, probe_dims> has the sign ``sign``."""
    quotient = QuiverAlgebra(alg.field, [w for w in alg.vertices if w != killed],
                             [a for a in alg.arrows if killed not in (a.source, a.target)])
    kers = quotient.symmetrized_euler_kernel()
    if len(kers) != 1:
        raise AlgebraError("quotient is not tame concealed (radical rank != 1)")
    h = dict(zip(quotient.vertices, kers[0]))
    probe = alg.euler_form(h, probe_dims)
    if probe == 0:
        raise AlgebraError(f"could not sign-normalize the {name} defect")
    flip = 1 if (probe > 0) == (sign > 0) else -1
    return quotient, {v: flip * h.get(v, 0) for v in alg.vertices}


def slope(m: Representation, tub: TubularAlgebra, rng=None) -> Slope:
    """Slope of an indecomposable away from the two extreme components."""
    if not is_indecomposable(m, rng):
        raise TubeError("slope needs an indecomposable module")
    return tub.slope_of_dims(m.dims)


@dataclass
class SlopeOrderVerdict:
    applicable: bool     # slope(m) > slope(n), so Hom must vanish
    passed: bool
    hom_dimension: int
    slope_source: Slope
    slope_target: Slope


def slope_order_check(m: Representation, n: Representation, tub: TubularAlgebra,
                      rng=None) -> SlopeOrderVerdict:
    """Hom(m, n) must vanish whenever slope(m) > slope(n)."""
    sm = slope(m, tub, rng)
    sn = slope(n, tub, rng)
    if sm > sn:
        d = hom_dim(m, n)
        return SlopeOrderVerdict(True, d == 0, d, sm, sn)
    return SlopeOrderVerdict(False, True, -1, sm, sn)


# ---------------------------------------------------------------------------
# constructible slope pools
# ---------------------------------------------------------------------------

def _valid_scalars(alg, count):
    """The first ``count`` distinct scalars among 1, 2, ... that are not arm
    points, for homogeneous tube labels."""
    F = alg.field
    specials = {alg.arm_point(i) for i in range(1, alg.arm_count + 1)}
    out = []
    for k in range(1, count + len(specials) + 1):
        val = F.from_int(k)
        if val not in specials and val not in out:
            out.append(val)
    if len(out) < count:
        raise AlgebraError("field too small for homogeneous labels")
    return out[:count]


def canonical_family_pool(tub: TubularAlgebra, rng=None):
    """Members of the defect-zero family (slope 1 after calibration): the arm
    mouths, and two homogeneous tubes' mouths with their length-2 modules."""
    alg = tub.algebra
    rng = rng if rng is not None else random.Random(0)
    pool = []
    for i in range(1, alg.arm_count + 1):
        pool.extend(regular_simples(alg, TubeId.for_arm(i), rng))
    for a in _valid_scalars(alg, 2):
        tube = TubeId.for_point((alg.field.neg(a), alg.field.one))
        pool.extend(regular_simples(alg, tube, rng))
        pool.append(uniserial_tower(alg, tube, 0, 2, rng).top_module)
    return pool


def _subspace_quotient_regulars(tub: TubularAlgebra, side: str, rng):
    """The bricks among the seeds of a side's family, for weight type (2,2,2,2).

    A seed joins arm i's middle vertex to the side's end vertex by a vector:
    on side "zero" (no source support, the t_0 seeds) into the sink by x{i}.2,
    as a column; on side "infinity" (no sink support) out of the source by
    x{i}.1, as the transposed row.  Per valid scalar a, a four-arm seed has
    the vectors (1,0), (0,1), (1,1), (1,a); then the exceptional mouths are
    the two-arm seeds with the vector (1) on arms 1,2, then 3,4, then 1,3.
    """
    alg = tub.algebra
    F = alg.field
    if tuple(sorted(alg.weights)) != (2, 2, 2, 2):
        return []
    end, arrow, orient = ((SINK, "x{}.2", lambda col: col) if side == "zero"
                          else (SOURCE, "x{}.1", Matrix.transpose))

    def seed(arms, vectors):
        dims = {arm_vertex(i, 1): 1 for i in arms}
        dims[end] = len(vectors[0])
        arrows = {arrow.format(i): orient(Matrix.column(F, vec))
                  for i, vec in zip(arms, vectors)}
        return Representation(alg, dims, arrows)

    lines = [(F.one, F.zero), (F.zero, F.one), (F.one, F.one)]
    seeds = [seed((1, 2, 3, 4), lines + [(F.one, a)]) for a in _valid_scalars(alg, 2)]
    seeds += [seed(pair, [(F.one,)] * 2) for pair in ((1, 2), (3, 4), (1, 3))]
    return [rep for rep in seeds if is_brick(rep, rng)]


def slope_pool(tub: TubularAlgebra, target: Slope, rng=None, budget: int = 16):
    """Constructible indecomposables of exactly the requested slope."""
    rng = rng if rng is not None else random.Random(0)
    if target == Slope.zero() or target.infinite:
        # the side's seeds, then its extreme module if the side's defect vanishes on it
        if target.infinite:
            side, extreme, delta = "infinity", injective_at(tub.algebra, SINK), tub.delta_infinity
        else:
            side, extreme, delta = "zero", projective_at(tub.algebra, SOURCE), tub.delta_zero
        cands = _subspace_quotient_regulars(tub, side, rng)
        if delta(extreme.dims) == 0 and is_brick(extreme, rng):
            cands.append(extreme)
    elif target == Slope.of(1):
        cands = canonical_family_pool(tub, rng)
    else:
        cands = _extension_middles(tub, target, rng, budget)
    out = [c for c in cands
           if c.total_dim <= budget and tub.slope_of_dims(c.dims) == target]
    out.sort(key=lambda r: (r.total_dim, tuple(r.dims[v] for v in tub.algebra.vertices)))
    return out


def _extension_middles(tub: TubularAlgebra, target: Slope, rng, budget):
    """Indecomposable middles of extensions between lower and higher slopes."""
    if target < Slope.of(1):
        lows = slope_pool(tub, Slope.zero(), rng, budget)
        highs = canonical_family_pool(tub, rng)
    else:
        lows = canonical_family_pool(tub, rng)
        highs = slope_pool(tub, Slope.infinity(), rng, budget)
    out = []
    for low in lows:
        for high in highs:
            if low.total_dim + high.total_dim > budget:
                continue
            dims = {v: low.dims[v] + high.dims[v] for v in tub.algebra.vertices}
            try:
                s = tub.slope_of_dims(dims)
            except TubeError:
                continue
            if s != target:
                continue
            space = ExtSpace(high, low)
            for cls in space.basis()[:2]:
                mid = cls.realize().middle
                if is_indecomposable(mid, rng):
                    out.append(mid)
    return out


# ---------------------------------------------------------------------------
# slope chains
# ---------------------------------------------------------------------------

@dataclass
class SlopeChain:
    modules: list
    inclusions: list
    slopes: list


def chain_toward_slope(tub: TubularAlgebra, ratios, rng=None,
                       budget: int = 16) -> SlopeChain:
    """Nested modules with strictly increasing prescribed slopes.

    Each stage is a sum of indecomposables of exactly the requested slope;
    failure to find a monomorphic step reports the stuck index.
    """
    rng = rng if rng is not None else random.Random(0)
    slopes = [r if isinstance(r, Slope) else Slope.parse(str(r)) for r in ratios]
    for a, b in zip(slopes, slopes[1:]):
        if not a < b:
            raise ChainError("ratios must increase strictly")
    pools = []
    for k, s in enumerate(slopes):
        pool = slope_pool(tub, s, rng, budget)
        if not pool:
            raise ChainError(f"no constructible module of slope {s}", stuck_index=k)
        candidates = [(p,) for p in pool]
        candidates += [(p, q) for i, p in enumerate(pool) for q in pool[i:]
                       if p.total_dim + q.total_dim <= budget]
        candidates.sort(key=lambda t: sum(r.total_dim for r in t))
        pools.append(candidates)

    modules: list = []
    inclusions: list = []
    deepest = 0

    def search(k) -> bool:
        nonlocal deepest
        deepest = max(deepest, k)
        if k == len(slopes):
            return True
        tried = 0
        for parts in pools[k]:
            if tried >= 12:
                break
            cand = parts[0] if len(parts) == 1 else direct_sum(
                list(parts), tub.algebra).rep
            mono = None
            if modules:
                mono = find_injective_morphism(modules[-1], cand, rng)
                if mono is None:
                    continue
            tried += 1
            modules.append(cand)
            if mono is not None:
                inclusions.append(mono)
            if search(k + 1):
                return True
            modules.pop()
            if mono is not None:
                inclusions.pop()
        return False

    if not search(0):
        raise ChainError(
            f"no monomorphism chain within budget {budget}", stuck_index=deepest)
    return SlopeChain(modules, inclusions, slopes)
