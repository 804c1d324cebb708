"""Slopes for tubular canonical algebras (weight types 2222, 333, 244, 236).

The two defects come from the tame concealed quotients: kill the source
vertex for the 0-side, the sink for the ∞-side; each is the primitive
radical vector of the quotient's symmetrized Euler form paired through the
full Euler form, sign-normalized on P(c) and S(0).  The slope is the
calibrated ratio of the two defects; order-compatibility with Hom-vanishing
is a verified contract, not an assumption.
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
    """A point of Q+ together with the endpoints 0 and ∞."""

    infinite: bool
    value: Fraction | None

    @classmethod
    def of(cls, q) -> "Slope":
        return cls(False, Fraction(q))

    @classmethod
    def zero(cls) -> "Slope":
        return cls(False, Fraction(0))

    @classmethod
    def infinity(cls) -> "Slope":
        return cls(True, None)

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
        self.quotient_zero = _kill_vertex(algebra, SOURCE)
        self.quotient_infinity = _kill_vertex(algebra, SINK)
        self._h_zero = _embedded_radical(algebra, self.quotient_zero, SOURCE)
        self._h_infinity = _embedded_radical(algebra, self.quotient_infinity, SINK)
        # the signs make P(sink) negative on the 0-side and I(source) positive on the ∞-side
        d0 = algebra.euler_form(self._h_zero, projective_at(algebra, SINK).dims)
        if d0 == 0:
            raise AlgebraError("could not sign-normalize the 0-side defect")
        self._sign_zero = -1 if d0 > 0 else 1
        dinf = algebra.euler_form(self._h_infinity, injective_at(algebra, SOURCE).dims)
        if dinf == 0:
            raise AlgebraError("could not sign-normalize the ∞-side defect")
        self._sign_infinity = -1 if dinf < 0 else 1
        self._calibrate()

    def delta_zero(self, dims: dict) -> int:
        return self._sign_zero * self.algebra.euler_form(self._h_zero, dims)

    def delta_infinity(self, dims: dict) -> int:
        return self._sign_infinity * self.algebra.euler_form(self._h_infinity, dims)

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


def _kill_vertex(alg: CanonicalAlgebra, v: str) -> QuiverAlgebra:
    vertices = [w for w in alg.vertices if w != v]
    arrows = [a for a in alg.arrows if v not in (a.source, a.target)]
    return QuiverAlgebra(alg.field, vertices, arrows)


def _embedded_radical(alg, quotient, killed) -> dict:
    kers = quotient.symmetrized_euler_kernel()
    if len(kers) != 1:
        raise AlgebraError("quotient is not tame concealed (radical rank != 1)")
    vec = dict(zip(quotient.vertices, kers[0]))
    vec[killed] = 0
    return {v: vec.get(v, 0) for v in alg.vertices}


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
    """Deterministic scalars other than the arm points, for homogeneous tube labels."""
    F = alg.field
    out = []
    specials = {alg.arm_point(i) for i in range(1, alg.arm_count + 1)}
    k = 1
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 1000:
            raise AlgebraError("field too small for homogeneous labels")
        val = F.from_int(k)
        k += 1
        if val in specials or val in out:
            continue
        out.append(val)
    return out


def canonical_family_pool(tub: TubularAlgebra, rng=None, depth: int = 2):
    """Members of the defect-zero family (slope 1 after calibration)."""
    alg = tub.algebra
    rng = rng if rng is not None else random.Random(0)
    pool = []
    for i in range(1, alg.arm_count + 1):
        pool.extend(regular_simples(alg, TubeId.for_arm(i), rng))
    for a in _valid_scalars(alg, 2):
        tube = TubeId.for_point((alg.field.neg(a), alg.field.one))
        pool.extend(regular_simples(alg, tube, rng))
        if depth >= 2:
            pool.append(uniserial_tower(alg, tube, 0, 2, rng).top_module)
    return pool


def _subspace_quotient_regulars(tub: TubularAlgebra, side: str, rng):
    """Regular modules of the killed-vertex quotient for weight type (2,2,2,2).

    side "zero": modules with no source support (the t_0 family seeds);
    side "infinity": the dual seeds with no sink support.
    """
    alg = tub.algebra
    F = alg.field
    if tuple(sorted(alg.weights)) != (2, 2, 2, 2):
        return []
    mids = [arm_vertex(i, 1) for i in range(1, 5)]
    out = []
    lines = [(F.one, F.zero), (F.zero, F.one), (F.one, F.one)]
    for a in _valid_scalars(alg, 2):
        cols = lines + [(F.one, a)]
        dims = {v: 1 for v in mids}
        arrows = {}
        if side == "zero":
            dims[SINK] = 2
            dims[SOURCE] = 0
            for i, col in enumerate(cols, start=1):
                arrows[f"x{i}.2"] = Matrix(F, 2, 1, [[col[0]], [col[1]]])
        else:
            dims[SOURCE] = 2
            dims[SINK] = 0
            for i, col in enumerate(cols, start=1):
                arrows[f"x{i}.1"] = Matrix(F, 1, 2, [[col[0], col[1]]])
        rep = Representation(alg, dims, arrows)
        if is_brick(rep, rng):
            out.append(rep)
    # exceptional mouths: supported on two arms at a time
    for pair in ((1, 2), (3, 4), (1, 3)):
        dims = {arm_vertex(i, 1): 1 for i in pair}
        arrows = {}
        if side == "zero":
            dims[SINK] = 1
            for i in pair:
                arrows[f"x{i}.2"] = Matrix.identity(F, 1)
        else:
            dims[SOURCE] = 1
            for i in pair:
                arrows[f"x{i}.1"] = Matrix.identity(F, 1)
        rep = Representation(alg, dims, arrows)
        if is_brick(rep, rng):
            out.append(rep)
    return out


def slope_pool(tub: TubularAlgebra, target: Slope, rng=None, budget: int = 16):
    """Constructible indecomposables of exactly the requested slope."""
    rng = rng if rng is not None else random.Random(0)
    if target == Slope.zero():
        cands = _subspace_quotient_regulars(tub, "zero", rng)
        p0 = projective_at(tub.algebra, SOURCE)
        if tub.delta_zero(p0.dims) == 0 and is_brick(p0, rng):
            cands.append(p0)
    elif target.infinite:
        cands = _subspace_quotient_regulars(tub, "infinity", rng)
        ic = injective_at(tub.algebra, SINK)
        if tub.delta_infinity(ic.dims) == 0 and is_brick(ic, rng):
            cands.append(ic)
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
