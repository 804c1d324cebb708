import random
from fractions import Fraction

import pytest

from canrep.approx import prufer_chain
from canrep.errors import ParseError, TubeError
from canrep.exactla import PrimeField
from canrep.homology import ext1_dim
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import (
    cokernel,
    direct_sum,
    hom_dim,
    injective_at,
    is_isomorphic,
    projective_at,
    simple_at,
)
from canrep.trisection import (
    TrisectLabel,
    TubeId,
    TubePosition,
    classify,
    partition_by_tubes,
    pegs,
    regular_series,
    regular_simples,
    s_bracket,
    split_trisect,
    tau_period,
    torsion_part,
    tube_of,
    uniserial_tower,
    validate_tube,
)

from helpers import F5, QQ, conjugate, kron, kron_jordan, kron_point, reference_mouth_orbit


def test_classify_examples():
    alg = kron()
    assert classify(projective_at(alg, "c")) is TrisectLabel.P
    assert classify(kron_point(alg, 2)) is TrisectLabel.T
    assert classify(simple_at(alg, "0")) is TrisectLabel.Q
    with pytest.raises(TubeError):
        classify(direct_sum([kron_point(alg, 0), kron_point(alg, 1)]).rep)


def test_classify_projectives_and_injectives_everywhere():
    for alg in (kron(), canonical_algebra(QQ, [2, 2], []),
                canonical_algebra(F5, [2, 2, 2], [2])):
        for v in alg.vertices:
            assert classify(projective_at(alg, v)) is TrisectLabel.P
            assert classify(injective_at(alg, v)) is TrisectLabel.Q


def test_pegs():
    alg = kron()
    ps = pegs(alg)
    assert sorted(p.dims_tuple() for p in ps) == [(0, 1), (1, 2)]
    alg2 = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    ps2 = pegs(alg2)
    assert any(p.dims == {v: (1 if v == "c" else 0) for v in alg2.vertices}
               for p in ps2)
    assert ps2


def test_split_trisect():
    alg = kron(F5)
    rng = random.Random(3)
    mix = conjugate(direct_sum([projective_at(alg, "c"), kron_point(alg, 0),
                                simple_at(alg, "0")]).rep, rng)
    tri = split_trisect(mix, rng)
    assert tri.p_part.dims == {"0": 0, "c": 1}
    assert tri.t_part.dims == {"0": 1, "c": 1}
    assert tri.q_part.dims == {"0": 1, "c": 0}
    assert tri.iso.inverse() is not None
    # each part is the direct sum of its summands, entry for entry
    for part, summands in ((tri.p_part, tri.p_summands), (tri.t_part, tri.t_summands),
                           (tri.q_part, tri.q_summands)):
        assert _entries(part) == _entries(direct_sum(summands, alg).rep)
    # indecomposable regular input
    tri2 = split_trisect(kron_point(alg, 1))
    assert tri2.p_part.is_zero() and tri2.q_part.is_zero()
    assert _entries(tri2.p_part) == _entries(direct_sum([], alg).rep)


def _entries(rep):
    return rep.dims, rep.arrows


def test_tube_validation():
    alg = canonical_algebra(F5, [2, 2, 2], [2])
    validate_tube(alg, TubeId.for_arm(1))
    with pytest.raises(TubeError):
        validate_tube(alg, TubeId.for_arm(4))
    with pytest.raises(TubeError):
        validate_tube(alg, TubeId.for_point(None))        # arm 1 point
    with pytest.raises(TubeError):
        validate_tube(alg, TubeId.for_point((0, 1)))      # t: arm 2 point
    with pytest.raises(TubeError):
        validate_tube(alg, TubeId.for_point((3, 1)))      # t-2: arm 3 point
    validate_tube(alg, TubeId.for_point((4, 1)))          # t-1 is homogeneous
    kr = kron(F5)
    validate_tube(kr, TubeId.for_point(None))
    validate_tube(kr, TubeId.for_point((0, 1)))


def test_tube_id_round_trip():
    alg = kron(F5)
    for text in ("arm:2", "pt:∞", "pt:t^2+2", "pt:t"):
        tid = TubeId.parse(alg.field, text)
        assert tid.to_str(alg.field) == text


@pytest.mark.parametrize("text", ["foo", "pt", "arm1", ""])
def test_tube_id_without_a_prefix_is_a_parse_error(text):
    with pytest.raises(ParseError, match="bad tube id"):
        TubeId.parse(F5, text)


@pytest.mark.parametrize("weight", [2, 3])
def test_single_arm_algebra_has_no_tubes(weight):
    alg = canonical_algebra(F5, [weight], [])
    for tube in (TubeId.for_arm(1), TubeId.for_point((1, 1))):
        with pytest.raises(TubeError, match="single-arm"):
            validate_tube(alg, tube)
    with pytest.raises(TubeError, match="single-arm"):
        regular_simples(alg, TubeId.for_arm(1))


def test_regular_simples_kronecker_points():
    alg = kron(F5)
    s = regular_simples(alg, TubeId.for_point((3, 1)))[0]  # point t-2
    assert s.dims == {"0": 1, "c": 1}
    assert s.arrows["x1"].data == ((1,),) and s.arrows["x2"].data == ((2,),)
    s_inf = regular_simples(alg, TubeId.for_point(None))[0]
    assert s_inf.arrows["x1"].is_zero()
    assert s_inf.arrows["x2"].data == ((1,),)


def test_regular_simples_arm_tube():
    alg = canonical_algebra(QQ, [2, 2], [])
    orbit = regular_simples(alg, TubeId.for_arm(1))
    assert len(orbit) == 2
    dims = sorted(tuple(m.dims[v] for v in alg.vertices) for m in orbit)
    # S(1.1) plus the connecting module supported off arm 1
    assert dims == [(0, 1, 0, 0), (1, 0, 1, 1)]
    for m in orbit:
        assert alg.defect_form()(m.dims) == 0


def test_regular_simples_arm_tube_with_relation():
    alg = canonical_algebra(F5, [2, 2, 2], [2])
    for i in (1, 2, 3):
        orbit = regular_simples(alg, TubeId.for_arm(i))
        assert len(orbit) == 2


# (field, weights, params, tubes): every arm tube, ∞, and points of degree 1 and 2
MOUTH_FAMILIES = [
    (QQ, [], [], ["pt:∞", "pt:t", "pt:t+1", "pt:t^2+1"]),
    (F5, [2, 3], [], ["arm:1", "arm:2", "pt:t+1", "pt:t^2+2"]),
    (F5, [2, 2, 2], [2], ["arm:1", "arm:2", "arm:3", "pt:t+4", "pt:t^2+2"]),
    (F5, [2, 2, 2, 2], [2, 3], ["arm:1", "arm:2", "arm:3", "arm:4", "pt:t+1", "pt:t^2+2"]),
    (PrimeField(7), [3, 3, 3], [3], ["arm:1", "arm:2", "arm:3", "pt:t+6", "pt:t^2+1"]),
]


@pytest.mark.parametrize("field, weights, params, tubes", MOUTH_FAMILIES)
def test_mouth_orbits_match_the_per_case_builders(field, weights, params, tubes):
    alg, ref_alg = (canonical_algebra(field, weights, params) for _ in range(2))
    rng, ref_rng = random.Random(4), random.Random(4)
    for text in tubes:
        tube = TubeId.parse(field, text)
        orbit = regular_simples(alg, tube, rng)
        expected = reference_mouth_orbit(ref_alg, tube, ref_rng)
        assert [_entries(s) for s in orbit] == [_entries(s) for s in expected], text
        assert rng.getstate() == ref_rng.getstate(), text


def test_tau_periods():
    alg = kron(F5)
    assert tau_period(regular_simples(alg, TubeId.for_point((0, 1)))[0]) == 1
    alg23 = canonical_algebra(QQ, [2, 3], [])
    assert tau_period(regular_simples(alg23, TubeId.for_arm(1))[0]) == 2
    assert tau_period(regular_simples(alg23, TubeId.for_arm(2))[0]) == 3
    alg222 = canonical_algebra(F5, [2, 2, 2], [2])
    assert tau_period(regular_simples(alg222, TubeId.for_arm(3))[0]) == 2
    hom = regular_simples(alg222, TubeId.for_point((4, 1)))[0]
    assert tau_period(hom) == 1


def test_s_bracket_jordan_model():
    alg = kron(F5)
    s0 = regular_simples(alg, TubeId.for_point((0, 1)))[0]
    for r in (1, 2, 3):
        m, pos = s_bracket(s0, r)
        assert m.dims == {"0": r, "c": r}
        assert pos.rlen == r
        assert is_isomorphic(m, kron_jordan(alg, 0, r)) is not None


def test_tower_lookup_rejects_a_regular_non_mouth():
    # S[2] lies in a tube but is no mouth of it: a TubeError, not a bare StopIteration
    alg = kron(F5)
    s2 = kron_jordan(alg, 0, 2)
    with pytest.raises(TubeError, match="not a regular simple"):
        s_bracket(s2, 3)
    with pytest.raises(TubeError, match="not a regular simple"):
        prufer_chain(s2, 3)


def test_s_bracket_arm():
    alg = canonical_algebra(QQ, [2, 2], [])
    orbit = regular_simples(alg, TubeId.for_arm(1))
    m, pos = s_bracket(orbit[0], 2)
    expected = {v: orbit[0].dims[v] + orbit[1].dims[v] for v in alg.vertices}
    assert m.dims == expected


def test_tower_layers_and_quotients():
    alg = kron()
    tower = uniserial_tower(alg, TubeId.for_point((0, 1)), 0, 3)
    assert [lay.dims_tuple() for lay in tower.layers] == [(1, 1), (2, 2), (3, 3)]
    for incl in tower.inclusions:
        assert incl.is_injective()
    # S[r] / S[r-1] is the next mouth up (homogeneous: the same simple)
    for step, incl in enumerate(tower.inclusions):
        cok, _ = cokernel(incl)
        assert is_isomorphic(cok, tower.layers[0]) is not None


def _tower_entries(tower):
    return ([_entries(m) for m in tower.layers],
            [(_entries(f.source), _entries(f.target), f.maps) for f in tower.inclusions],
            [_entries(m) for m in tower.tops])


@pytest.mark.parametrize("weights, tube", [
    ([], TubeId.for_point((0, 1))),
    ([2, 3], TubeId.for_arm(2)),
], ids=["kronecker-point", "arm-rank-3"])
def test_cached_towers_match_a_fresh_build(weights, tube):
    alg = canonical_algebra(F5, weights, [])
    for socle in range(len(regular_simples(alg, tube))):
        for rlen in (2, 4, 3):
            tower = uniserial_tower(alg, tube, socle, rlen)
            fresh = uniserial_tower(canonical_algebra(F5, weights, []), tube, socle, rlen)
            assert tower.position == fresh.position == TubePosition(tube, socle, rlen)
            assert len(tower.layers) == rlen
            assert _tower_entries(tower) == _tower_entries(fresh)


def test_cache_hits_draw_nothing_from_rng():
    tube = TubeId.for_point((2, 0, 1))              # t^2 + 2: a degree-2 mouth
    cold = random.Random(11)
    uniserial_tower(kron(F5), tube, 0, 3, cold)
    alg = kron(F5)
    rng = random.Random(11)
    regular_simples(alg, tube, rng)
    state = rng.getstate()
    assert state != random.Random(11).getstate()   # certifying the mouth draws
    assert state == cold.getstate()                # stacking the tower does not
    uniserial_tower(alg, tube, 0, 3, rng)
    uniserial_tower(alg, tube, 0, 4, rng)
    regular_simples(alg, tube, rng)
    assert rng.getstate() == state


def test_mutating_returned_lists_leaves_the_cache_alone():
    alg = canonical_algebra(F5, [2, 3], [])
    tube = TubeId.for_arm(2)
    orbit = regular_simples(alg, tube)
    first = list(orbit)
    orbit.reverse()
    orbit.pop()
    assert regular_simples(alg, tube) == first
    tower = uniserial_tower(alg, tube, 0, 3)
    tower.layers.pop()
    tower.inclusions.clear()
    tower.tops.append(None)
    again = uniserial_tower(alg, tube, 0, 3)
    assert (len(again.layers), len(again.inclusions), len(again.tops)) == (3, 2, 2)
    assert again.layers[0] is first[0]
    longer = uniserial_tower(alg, tube, 0, 4)
    assert (len(longer.layers), len(longer.inclusions), len(longer.tops)) == (4, 3, 3)
    assert longer.layers[:3] == again.layers


def test_tube_of():
    alg = kron(F5)
    s0 = regular_simples(alg, TubeId.for_point((0, 1)))[0]
    assert tube_of(kron_jordan(alg, 0, 2)).poly == (0, 1)
    assert tube_of(regular_simples(alg, TubeId.for_point(None))[0]).is_infinity
    alg222 = canonical_algebra(F5, [2, 2, 2], [2])
    for i in (1, 2, 3):
        for s in regular_simples(alg222, TubeId.for_arm(i)):
            assert tube_of(s).arm == i
    hom = regular_simples(alg222, TubeId.for_point((4, 1)))[0]
    assert tube_of(hom).poly == (4, 1)


def test_regular_series():
    alg = kron()
    s0 = regular_simples(alg, TubeId.for_point((0, 1)))[0]
    m, _ = s_bracket(s0, 3)
    series = regular_series(m)
    assert len(series) == 1
    _, factors = series[0]
    assert len(factors) == 3
    assert all(is_isomorphic(f, s0) is not None for f in factors)
    # arm tube of rank 2: S[2] has factors [S, tau^- S]
    alg22 = canonical_algebra(QQ, [2, 2], [])
    orbit = regular_simples(alg22, TubeId.for_arm(2))
    m2, _ = s_bracket(orbit[0], 2)
    series2 = regular_series(m2)
    facs = series2[0][1]
    assert is_isomorphic(facs[0], orbit[0]) is not None
    assert is_isomorphic(facs[1], orbit[1]) is not None


def test_partition_by_tubes():
    alg = kron()
    rng = random.Random(4)
    s0 = regular_simples(alg, TubeId.for_point((0, 1)))[0]
    s1 = regular_simples(alg, TubeId.for_point((-1, 1)))[0]
    j2, _ = s_bracket(s0, 2)
    mix = conjugate(direct_sum([j2, s1]).rep, rng)
    part = partition_by_tubes(mix, [TubeId.for_point((0, 1))], rng)
    assert part.inside.dims == {"0": 2, "c": 2}
    assert part.outside.dims == {"0": 1, "c": 1}
    # all tubes selected -> everything inside
    part2 = partition_by_tubes(mix, [TubeId.for_point((0, 1)),
                                     TubeId.for_point((-1, 1))], rng)
    assert part2.outside.is_zero()
    # cross-hom between the parts vanishes
    assert hom_dim(part.inside, part.outside) == 0
    assert hom_dim(part.outside, part.inside) == 0
    for p in (part, part2):
        assert _entries(p.inside) == _entries(direct_sum(p.inside_summands, alg).rep)
        assert _entries(p.outside) == _entries(direct_sum(p.outside_summands, alg).rep)
    with pytest.raises(TubeError):
        partition_by_tubes(projective_at(alg, "0"), [TubeId.for_point((0, 1))])


def test_torsion_part():
    alg = kron()
    rng = random.Random(6)
    # regular module: everything is torsion
    j2 = kron_jordan(alg, 0, 2)
    tp = torsion_part(j2, rng)
    assert tp.module.dims == j2.dims and tp.quotient.is_zero()
    # preprojective: no torsion at all
    tp2 = torsion_part(projective_at(alg, "c"), rng)
    assert tp2.module.is_zero()
    # the nonsplit extension of S(0) by a regular simple is I(c);
    # it is generated by the tubes, so tM is the whole module
    s0 = kron_point(alg, 0)
    cls = __import__("canrep.homology", fromlist=["ext1_basis"]).ext1_basis(
        simple_at(alg, "0"), s0)[0]
    e = cls.realize().middle
    assert is_isomorphic(e, injective_at(alg, "c")) is not None
    tp3 = torsion_part(e, rng)
    assert tp3.module.dims == e.dims
    # mixed: P(c) (+) S_0
    mix = conjugate(direct_sum([projective_at(alg, "c"), s0]).rep, rng)
    tp4 = torsion_part(mix, rng)
    assert tp4.module.dims == {"0": 1, "c": 1}
    assert tp4.quotient.dims == {"0": 0, "c": 1}


def test_torsion_part_matches_generator_images():
    """Cross-check the trisection route against explicit generator images."""
    alg = kron()
    rng = random.Random(8)
    s0 = kron_point(alg, 0)
    cls = __import__("canrep.homology", fromlist=["ext1_basis"]).ext1_basis(
        simple_at(alg, "0"), s0)[0]
    targets = [cls.realize().middle, direct_sum(
        [projective_at(alg, "c"), kron_jordan(alg, 1, 2)]).rep]
    from canrep.repcat import hom_basis

    for m in targets:
        tp = torsion_part(m, rng)
        # images of maps from S_mu[r], a couple of tubes, r <= total dim
        gens = []
        for a in (0, 1):
            s = kron_point(alg, a)
            for r in range(1, m.total_dim + 1):
                sr, _ = s_bracket(s, r)
                gens.extend(hom_basis(sr, m))
        span_dims = {}
        for v in alg.vertices:
            cols = None
            for g in gens:
                cols = g.maps[v] if cols is None else cols.hstack(g.maps[v])
            span_dims[v] = cols.rank() if cols is not None else 0
        assert span_dims == tp.module.dims


def test_hom_direction_shadows():
    alg = kron(F5)
    p = [projective_at(alg, "c"), projective_at(alg, "0")]
    t = [kron_point(alg, a) for a in (0, 1)] + [kron_jordan(alg, 0, 2)]
    q = [simple_at(alg, "0"), injective_at(alg, "c")]
    for x in t:
        for y in p:
            assert hom_dim(x, y) == 0
    for x in q:
        for y in p + t:
            assert hom_dim(x, y) == 0
    # Ext vanishing from p and t into q
    for x in p + t:
        for y in q:
            assert ext1_dim(x, y) == 0
