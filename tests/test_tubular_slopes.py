import itertools
import random
from fractions import Fraction

import pytest

from canrep.errors import AlgebraError, ChainError, ParseError, TubeError
from canrep.homology import tau
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import (
    hom_dim,
    injective_at,
    projective_at,
)
from canrep.tubular_slopes import (
    Slope,
    TubularAlgebra,
    canonical_family_pool,
    chain_toward_slope,
    slope,
    slope_order_check,
    slope_pool,
)

from helpers import F5, QQ


def tub2222(field=None):
    field = field or F5
    return TubularAlgebra(canonical_algebra(field, [2, 2, 2, 2], [2, 3]))


def test_rejects_non_tubular():
    with pytest.raises(AlgebraError):
        TubularAlgebra(canonical_algebra(QQ, [2, 2, 2], [Fraction(2)]))


def test_all_tubular_types_build():
    specs = [((2, 2, 2, 2), [2, 3]), ((3, 3, 3), [2]), ((2, 4, 4), [2]),
             ((2, 3, 6), [2])]
    for weights, params in specs:
        tub = TubularAlgebra(canonical_algebra(F5, list(weights), params))
        alg = tub.algebra
        assert tub.delta_zero(projective_at(alg, "c").dims) < 0
        assert tub.delta_infinity(injective_at(alg, "0").dims) > 0
        # the calibration module is a middle vertex simple with slope 1
        assert slope(tub.calibration_module, tub) == Slope.of(1)


def test_delta_vanishing_on_quotient_regulars():
    tub = tub2222()
    rng = random.Random(0)
    from canrep.tubular_slopes import _subspace_quotient_regulars

    zeros = _subspace_quotient_regulars(tub, "zero", rng)
    infs = _subspace_quotient_regulars(tub, "infinity", rng)
    assert zeros and infs
    for m in zeros:
        assert tub.delta_zero(m.dims) == 0
        assert tub.delta_infinity(m.dims) < 0
        assert slope(m, tub, rng) == Slope.zero()
    for m in infs:
        assert tub.delta_infinity(m.dims) == 0
        assert tub.delta_zero(m.dims) > 0
        assert slope(m, tub, rng).infinite


def test_radical_self_annihilation():
    tub = tub2222()
    assert tub.delta_zero(tub._h_zero) == 0
    assert tub.delta_infinity(tub._h_infinity) == 0


def test_canonical_family_has_slope_one():
    tub = tub2222()
    rng = random.Random(1)
    for m in canonical_family_pool(tub, rng):
        assert slope(m, tub, rng) == Slope.of(1)


def test_slope_errors_on_extreme_components():
    tub = tub2222()
    with pytest.raises(TubeError):
        slope(projective_at(tub.algebra, "c"), tub)
    with pytest.raises(TubeError):
        slope(injective_at(tub.algebra, "0"), tub)


def test_slope_constant_on_tau_orbits():
    tub = tub2222()
    rng = random.Random(2)
    for m in slope_pool(tub, Slope.of(1), rng, 8)[:6]:
        t = tau(m)
        if not t.is_zero():
            assert tub.slope_of_dims(t.dims) == tub.slope_of_dims(m.dims)


def test_intermediate_slope_pool():
    tub = tub2222()
    rng = random.Random(3)
    pool = slope_pool(tub, Slope.of(Fraction(1, 3)), rng, 14)
    assert pool
    for m in pool:
        assert slope(m, tub, rng) == Slope.of(Fraction(1, 3))


def test_slope_order_check_small():
    tub = tub2222()
    rng = random.Random(4)
    sample = []
    for s in (Slope.zero(), Slope.of(1), Slope.infinity()):
        sample.extend(slope_pool(tub, s, rng, 8)[:4])
    for m, n in itertools.product(sample, repeat=2):
        verdict = slope_order_check(m, n, tub, rng)
        assert verdict.passed, (m.dims, n.dims, verdict)


def test_forward_maps_exist_between_slopes():
    # sanity for the order convention: some Hom from lower to higher slope
    tub = tub2222()
    rng = random.Random(5)
    lows = slope_pool(tub, Slope.zero(), rng, 8)
    highs = slope_pool(tub, Slope.infinity(), rng, 8)
    assert any(hom_dim(lo, hi) > 0 for lo in lows[:3] for hi in highs[:3])


def test_slope_parse():
    assert Slope.parse(" 1/3 ") == Slope.of(Fraction(1, 3))
    assert Slope.parse("0") == Slope.zero()
    for text in ("∞", "inf", "infty"):
        assert Slope.parse(text) == Slope.infinity()
    for text in ("foo", "1/", "1/0", "nan", "", "∞∞"):
        with pytest.raises(ParseError):
            Slope.parse(text)


def test_chain_zero_one():
    tub = tub2222()
    rng = random.Random(6)
    chain = chain_toward_slope(tub, ["0", "1"], rng, budget=16)
    assert chain.slopes == [Slope.zero(), Slope.of(1)]
    assert len(chain.modules) == 2 and len(chain.inclusions) == 1
    assert chain.inclusions[0].is_injective()


def test_chain_single_ratio_and_errors():
    tub = tub2222()
    chain = chain_toward_slope(tub, ["0"])
    assert len(chain.modules) == 1
    with pytest.raises(ChainError):
        chain_toward_slope(tub, ["1", "0"])


def test_chain_composite_mono():
    tub = tub2222()
    rng = random.Random(7)
    chain = chain_toward_slope(tub, ["0", "1", "inf"], rng, budget=16)
    comp = chain.inclusions[0]
    for step in chain.inclusions[1:]:
        comp = step.after(comp)
    assert comp.is_injective()
