import itertools
import random
from fractions import Fraction

import pytest

from canrep.errors import AlgebraError, ChainError, ParseError, TubeError
from canrep.exactla import PrimeField
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
    _side_defect,
    _subspace_quotient_regulars,
    _valid_scalars,
    canonical_family_pool,
    chain_toward_slope,
    slope,
    slope_order_check,
    slope_pool,
)

from helpers import (
    F5,
    QQ,
    reference_extreme_pool,
    reference_side_defects,
    reference_subspace_quotient_regulars,
    reference_valid_scalars,
)

TUBULAR_SPECS = [((2, 2, 2, 2), [2, 3]), ((3, 3, 3), [2]), ((2, 4, 4), [2]), ((2, 3, 6), [2])]


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


def test_side_defect_signs_its_radical_on_the_probe():
    # the kernel vectors come out positive on every tubular type, so ask for the
    # opposite sign to see the flip; a probe the radical pairs to 0 is refused
    alg = tub2222().algebra
    probe = projective_at(alg, "c").dims
    quotient, h = _side_defect(alg, "0", probe, -1, "0-side")
    assert "0" not in quotient.vertices and h["0"] == 0
    _, flipped = _side_defect(alg, "0", probe, 1, "0-side")
    assert flipped == {v: -x for v, x in h.items()}
    assert alg.euler_form(h, probe) < 0 < alg.euler_form(flipped, probe)
    with pytest.raises(AlgebraError, match="could not sign-normalize the 0-side defect"):
        _side_defect(alg, "0", h, -1, "0-side")


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


def _scalars_or_error(scalars, alg, count):
    try:
        return scalars(alg, count)
    except AlgebraError as exc:
        return str(exc)


def _entries(reps):
    return [(m.dims_tuple(), sorted((k, a.data) for k, a in m.arrows.items())) for m in reps]


@pytest.mark.parametrize("field", [F5, PrimeField(7), QQ], ids=str)
def test_side_defects_seeds_and_pools_match_the_reference(field):
    """Each side's defect, seeds and extreme pool, and the homogeneous scalars,
    against the per-side constructions of ``tests/helpers.py``, with rng where
    the reference leaves it."""
    dims_rng = random.Random(11)
    for weights, params in TUBULAR_SPECS:
        params = [field.from_int(x) for x in params]
        tub = TubularAlgebra(canonical_algebra(field, list(weights), params))
        alg = tub.algebra
        ref = reference_side_defects(alg)
        assert tub.quotient_zero.vertices == ref["zero"][0]
        assert tub.quotient_infinity.vertices == ref["infinity"][0]
        probes = [{w: int(w == v) for w in alg.vertices} for v in alg.vertices]
        probes += [{w: dims_rng.randint(0, 2) for w in alg.vertices} for _ in range(30)]
        for dims in probes:
            for side, delta in (("zero", tub.delta_zero), ("infinity", tub.delta_infinity)):
                _, h, sign = ref[side]
                assert delta(dims) == sign * alg.euler_form(h, dims)
        for count in range(1, 6):
            # over F_5 the (2, 2, 2, 2) arm points leave two scalars, so 3 are refused
            assert _scalars_or_error(_valid_scalars, alg, count) == \
                _scalars_or_error(reference_valid_scalars, alg, count)
        for side, target in (("zero", Slope.zero()), ("infinity", Slope.infinity())):
            for seed in (0, 1):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                got = _subspace_quotient_regulars(tub, side, rng)
                want = reference_subspace_quotient_regulars(tub, side, ref_rng)
                assert _entries(got) == _entries(want)
                assert rng.getstate() == ref_rng.getstate()
            # fresh algebras, so no verdict kept on P(source) or I(sink) is shared
            fresh = [TubularAlgebra(canonical_algebra(field, list(weights), params))
                     for _ in range(2)]
            for budget in (8, 12):
                rng, ref_rng = random.Random(budget), random.Random(budget)
                got = slope_pool(fresh[0], target, rng, budget)
                want = reference_extreme_pool(fresh[1], side, ref_rng, budget)
                assert _entries(got) == _entries(want)
                assert rng.getstate() == ref_rng.getstate()
