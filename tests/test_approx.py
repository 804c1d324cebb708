import random

import pytest

from canrep.approx import (
    TruncationParams,
    endolength,
    extend_left_approx,
    factor_through_left_approx,
    kronecker_generic,
    left_omega_approx,
    mouth_modules,
    peg_hom_growth,
    prufer_chain,
    right_omega_approx,
)
from canrep.errors import ApproximationError
from canrep.homology import ExtSpace, ext1_dim
from canrep.quiver_algebra import CanonicalAlgebra
from canrep.repcat import (
    Morphism,
    direct_sum,
    hom_basis,
    hom_dim,
    injective_at,
    is_indecomposable,
    is_isomorphic,
    projective_at,
    simple_at,
)
from canrep.trisection import TubeId, regular_series, regular_simples

from helpers import F5, QQ, kron, kron_jordan


def pt(coeffs):
    return TubeId.for_point(coeffs)


def test_prufer_chain():
    alg = kron()
    s0 = regular_simples(alg, pt((0, 1)))[0]
    chain = prufer_chain(s0, 3)
    assert [lay.dims_tuple() for lay in chain.layers] == [(1, 1), (2, 2), (3, 3)]
    for lay, model_r in zip(chain.layers, (1, 2, 3)):
        assert is_isomorphic(lay, kron_jordan(alg, 0, model_r)) is not None
    comp = chain.inclusions[1].after(chain.inclusions[0])
    assert comp.is_injective()
    for cok, expected in zip(chain.cokernels, chain.layers):
        assert is_isomorphic(cok, chain.socle) is not None


def test_left_approx_regular_socle():
    # m = S_0 inside its own tube: the middle is the next truncated tower,
    # an extension of S_0[r] by S_0, i.e. S_0[r+1]
    alg = kron()
    s0 = regular_simples(alg, pt((0, 1)))[0]
    params = TruncationParams((pt((0, 1)),), 3)
    ap = left_omega_approx(s0, params)
    assert is_isomorphic(ap.middle, kron_jordan(alg, 0, 4)) is not None
    assert is_isomorphic(ap.sequence.quotient, kron_jordan(alg, 0, 3)) is not None


def test_left_approx_peg_depths():
    alg = kron()
    pc = projective_at(alg, "c")
    for r in range(1, 6):
        ap = left_omega_approx(pc, TruncationParams((pt((0, 1)),), r))
        assert ap.middle.dims == {"0": r, "c": r + 1}
        assert is_indecomposable(ap.middle)
        cok = ap.sequence.quotient
        assert is_isomorphic(cok, kron_jordan(alg, 0, r)) is not None
        assert ap.certificates["ext_killed"]
        assert ap.certificates["f_preserved"]
        assert hom_dim(regular_simples(alg, pt((0, 1)))[0], ap.middle) == 0
        # cokernel support and regular length stay within the truncation
        for _, factors in regular_series(cok):
            assert len(factors) <= r


def test_left_approx_depth_one_is_universal_extension():
    alg = kron()
    pc = projective_at(alg, "c")
    ap = left_omega_approx(pc, TruncationParams((pt((0, 1)),), 1))
    assert is_isomorphic(ap.middle, projective_at(alg, "0")) is not None


def test_left_approx_strips_positive_defect():
    alg = kron()
    rng = random.Random(3)
    mix = direct_sum([projective_at(alg, "c"), simple_at(alg, "0")]).rep
    ap = left_omega_approx(mix, TruncationParams((pt((0, 1)),), 2), rng)
    assert ap.stripped.dims == {"0": 1, "c": 0}
    assert ap.kept.dims == {"0": 0, "c": 1}


def test_left_approx_monotone_extension():
    alg = kron()
    pc = projective_at(alg, "c")
    ap2 = left_omega_approx(pc, TruncationParams((pt((0, 1)),), 2))
    deeper, mono = extend_left_approx(ap2, 4)
    assert deeper.middle.dims == {"0": 4, "c": 5}
    assert mono.is_injective()
    assert mono.after(ap2.sequence.inclusion) == deeper.sequence.inclusion


def test_extending_an_approximation_of_a_stripped_module():
    # S(0) has positive defect, so nothing is kept: the middles at both depths
    # are zero, and the compatible monomorphism is the zero map between them
    alg = kron()
    ap = left_omega_approx(simple_at(alg, "0"), TruncationParams((pt((0, 1)),), 1))
    assert ap.kept.is_zero()
    deeper, mono = extend_left_approx(ap, 2)
    assert deeper.middle.is_zero()
    assert mono.source is ap.middle and mono.target is deeper.middle
    assert mono.is_zero() and mono.is_injective()


def test_left_approx_multiple_tubes():
    alg = kron()
    pc = projective_at(alg, "c")
    params = TruncationParams((pt((0, 1)), pt((-1, 1))), 1)
    ap = left_omega_approx(pc, params)
    assert ap.middle.dims == {"0": 2, "c": 3}
    assert is_indecomposable(ap.middle)


def test_a_tube_named_twice_counts_once():
    alg = kron(F5)
    once = TruncationParams((pt((0, 1)), pt((1, 1))), 2)
    twice = TruncationParams((pt((0, 1)), pt((0, 1)), pt((1, 1))), 2)
    assert [(t, i) for t, i, _ in mouth_modules(alg, twice)] == \
        [(t, i) for t, i, _ in mouth_modules(alg, once)]
    pc0 = direct_sum([projective_at(alg, "c"), projective_at(alg, "0")]).rep
    left = [left_omega_approx(pc0, p, random.Random(1)) for p in (once, twice)]
    assert left[0].multiplicities == left[1].multiplicities
    assert left[0].blocks == left[1].blocks
    assert left[0].middle.dims == left[1].middle.dims
    ic = injective_at(alg, "c")
    right = [right_omega_approx(ic, p, random.Random(1)) for p in (once, twice)]
    assert right[0].cover_blocks == right[1].cover_blocks
    assert right[0].sequence.middle.dims == right[1].sequence.middle.dims


def test_left_approx_builds_ext_spaces_only_on_mouths(monkeypatch):
    # the universal extension's class is read off its sequence by a syzygy map,
    # so no Ext^1 space is built on the quotient, a sum of mouths
    alg = kron(F5)
    params = TruncationParams((pt((0, 1)), pt((4, 1))), 2)
    pc0 = direct_sum([projective_at(alg, "c"), projective_at(alg, "0")]).rep
    sources = []
    init = ExtSpace.__init__

    def recording(self, n, m):
        sources.append(n)
        init(self, n, m)
    monkeypatch.setattr(ExtSpace, "__init__", recording)
    ap = left_omega_approx(pc0, params, random.Random(1))
    assert ap.blocks and sources
    mouths = [s for _, _, s in mouth_modules(alg, params)]
    assert all(any(n is s for s in mouths) for n in sources)


def test_factorization_shadow():
    # maps from a negative-defect module to a positive-defect module factor
    # through the approximation middle once the obstruction dies
    alg = kron()
    pc = projective_at(alg, "c")
    n = injective_at(alg, "c")
    h = hom_basis(pc, n)[0]
    ap = left_omega_approx(pc, TruncationParams((pt((0, 1)),), 1))
    if ext1_dim(ap.sequence.quotient, n) == 0:
        g = factor_through_left_approx(h, ap)
        assert g is not None
        assert g.after(ap.sequence.inclusion) == h


def test_zero_map_factors_with_no_maps_out_of_the_middle():
    alg = kron()
    pc = projective_at(alg, "c")
    ap = left_omega_approx(pc, TruncationParams((pt((0, 1)),), 2))
    assert hom_basis(ap.middle, pc) == []
    g = factor_through_left_approx(Morphism.zero(pc, pc), ap)
    assert g is not None and g.is_zero()
    assert factor_through_left_approx(Morphism.identity(pc), ap) is None


def test_right_approx_simple_injective():
    alg = kron()
    s_inj = simple_at(alg, "0")
    ap = right_omega_approx(s_inj, TruncationParams((pt((0, 1)),), 1))
    seq = ap.sequence
    assert seq.quotient.dims == s_inj.dims
    assert seq.sub.dims == {"0": 0, "c": 1}
    assert ap.certificates["kernel_torsionfree"]
    assert ap.certificates["kernel_labels"] in ([], ["P"])


def test_right_approx_rejects_wrong_labels():
    alg = kron()
    with pytest.raises(ApproximationError):
        right_omega_approx(projective_at(alg, "c"),
                           TruncationParams((pt((0, 1)),), 1))


def test_right_approx_bigger_target():
    alg = kron()
    ic = injective_at(alg, "c")
    ap = right_omega_approx(ic, TruncationParams((pt((0, 1)), pt((-1, 1))), 2))
    seq = ap.sequence
    assert seq.projection.is_surjective()
    for tube in ap.params.tubes:
        for s in regular_simples(alg, tube):
            assert hom_dim(s, seq.sub) == 0
    assert ap.certificates["kernel_labels"] in ([], ["P"])


def test_right_approx_insufficient_tubes():
    # a cover of tau^{-1}(S(0)) from a single shallow tube must fail loudly
    alg = kron()
    target = injective_at(alg, "c")
    try:
        right_omega_approx(target, TruncationParams((pt((0, 1)),), 1))
    except ApproximationError as exc:
        assert "missing_simple_tops" in exc.diagnostic
    # with depth 2 the single tube suffices
    ap = right_omega_approx(target, TruncationParams((pt((0, 1)),), 2))
    assert ap.sequence.projection.is_surjective()


def test_generic_module_certificates():
    alg = kron(QQ)
    gm = kronecker_generic(alg)
    assert hom_dim(gm.module, gm.module) == 1
    assert endolength(gm) == 2
    from canrep.repcat import is_brick
    assert is_brick(gm.module)
    # Hom(Lambda, G) has function-field dimension 2
    total = sum(hom_dim(projective_at(gm.algebra, v), gm.module)
                for v in gm.algebra.vertices)
    assert total == 2


def test_generic_module_over_prime_field():
    gm = kronecker_generic(kron(F5))
    assert hom_dim(gm.module, gm.module) == 1
    assert endolength(gm) == 2


def test_generic_is_the_generic_point():
    gm = kronecker_generic(kron(QQ))
    K = gm.algebra.field
    # the regular simple at the parameter point over K(t) is G itself
    s_param = regular_simples(gm.algebra,
                              TubeId.for_point((K.neg(K.gen), K.one)))[0]
    assert hom_dim(gm.module, s_param) == 1
    # base-changed finite points see nothing from G
    for a in (0, 1):
        s_a = regular_simples(gm.algebra, TubeId.for_point((K.from_int(-a), K.one)))[0]
        assert hom_dim(gm.module, s_a) == 0


def test_generic_rejects_arms():
    alg = CanonicalAlgebra(QQ, [2, 2], [])
    with pytest.raises(ApproximationError):
        kronecker_generic(alg)


def test_peg_hom_growth():
    alg = kron()
    pc = projective_at(alg, "c")
    s0 = regular_simples(alg, pt((0, 1)))[0]
    growth = peg_hom_growth(pc, s0, 6)
    assert growth.dims == [1, 2, 3, 4, 5, 6]
    assert all(w is not None for w in growth.witnesses)
    for w in growth.witnesses:
        assert w.is_injective()
    # growth step on a homogeneous tube is -defect(peg) = 1
    steps = [b - a for a, b in zip(growth.dims, growth.dims[1:])]
    assert steps == [1] * 5
