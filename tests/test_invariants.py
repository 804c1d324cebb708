"""Cross-module invariants on seeded random samples."""

import itertools
import random
from fractions import Fraction

from canrep import approx
from canrep.exactla import Matrix
from canrep.homology import (
    ExtSpace,
    ShortExactSequence,
    ext1_dim,
    ext2_dim,
    kills_classes,
    pullback,
    pushout,
    split_sequence,
    syzygy_map,
    tau,
    universal_extension,
)
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import (
    Morphism,
    cokernel,
    decomp,
    direct_sum,
    factor_through_injection,
    factor_through_surjection,
    hom_basis,
    hom_dim,
    image,
    injective_at,
    is_isomorphic,
    kernel,
    linear_combination,
    minimal_projective_presentation,
    projective_at,
    projective_cover,
    radical,
    simple_at,
    top,
)
from canrep.repcat.decomp import find_injective_morphism
from canrep.trisection import TubeId, regular_simples, split_trisect, uniserial_tower
from canrep.tubular_slopes import TubularAlgebra

from helpers import (
    F3,
    F5,
    QQ,
    biproduct_maps,
    conjugate,
    kron,
    kron_point,
    reference_cokernel,
    reference_ext_space,
    reference_find_injective_morphism,
    reference_image,
    reference_kills_classes,
    reference_p0_image_columns,
    reference_presentation,
    reference_pullback,
    reference_pushout,
    reference_search,
)


def random_rep(alg, rng, max_dim=2):
    """A random representation satisfying the relations (built arrow by arrow)."""
    while True:
        dims = {v: rng.randint(0, max_dim) for v in alg.vertices}
        F = alg.field
        arrows = {}
        for a in alg.arrows:
            arrows[a.label] = Matrix(
                F, dims[a.target], dims[a.source],
                [[F.random(rng) for _ in range(dims[a.source])]
                 for _ in range(dims[a.target])])
        try:
            from canrep.repcat import Representation

            return Representation(alg, dims, arrows)
        except Exception:
            continue


def conjugated_samples(seed, per_algebra=3):
    """[(algebra, [reps])]: seeded sums of two random representations, each sum
    conjugated by a random basis change, on the Kronecker and (2, 2, 2)
    algebras over F_3, F_5 and Q."""
    rng = random.Random(seed)
    out = []
    for field in (F3, F5, QQ):
        for alg in (kron(field), canonical_algebra(field, [2, 2, 2], [2])):
            max_dim = 1 if alg.weights else 2
            out.append((alg, [conjugate(direct_sum([random_rep(alg, rng, max_dim),
                                                    random_rep(alg, rng, max_dim)]).rep, rng)
                              for _ in range(per_algebra)]))
    return out


def test_image_factors_the_map_through_an_epi():
    rng = random.Random(11)
    for alg, reps in conjugated_samples(11):
        for m, n in zip(reps, reps[1:] + reps[:1]):
            basis = hom_basis(m, n)
            f = linear_combination(m, n, basis, [alg.field.random(rng) for _ in basis])
            _, incl, epi = image(f)
            assert incl.after(epi) == f
            assert epi.is_surjective() and incl.is_injective()


def test_top_has_zero_arrows():
    for _, reps in conjugated_samples(12):
        for m in reps:
            rad, _ = radical(m)
            t, proj = top(m)
            assert all(mat.is_zero() for mat in t.arrows.values())
            assert proj.is_surjective()
            assert t.total_dim == m.total_dim - rad.total_dim


def test_projective_cover_is_onto_with_kernel_in_the_radical():
    for _, reps in conjugated_samples(13):
        for m in reps:
            p0, cover = projective_cover(m)
            assert cover.is_surjective()
            _, ker_incl = kernel(cover)
            _, rad_incl = radical(p0.rep)
            assert factor_through_injection(rad_incl, ker_incl) is not None


def test_kept_presentation_matches_the_eager_construction():
    # the kept presentation, P1 built on first read, against a fresh eager build
    for _, reps in conjugated_samples(15):
        for m in reps:
            pres = minimal_projective_presentation(m)
            ref = reference_presentation(m)
            assert pres.p0.summand_vertices == ref.p0.summand_vertices
            assert pres.p1.summand_vertices == ref.p1.summand_vertices
            assert pres.omega.dims == ref.omega.dims
            for name in ("cover", "omega_incl", "p1_cover", "d"):
                assert getattr(pres, name) == getattr(ref, name), name


def test_realized_classes_round_trip():
    # class_of_sequence(realize(c)) = c on every Ext^1 basis class
    for _, reps in conjugated_samples(14, 2):
        for n, m in itertools.product(reps, repeat=2):
            space = ExtSpace(n, m)
            for cls in space.basis():
                assert space.class_of_sequence(cls.realize()).coords == cls.coords


def test_ext_space_matches_the_hom_p0_reference():
    # image of Hom(P0, M) from P0's generators vs restrictions of hom_basis(P0, M)
    rng = random.Random(16)
    for alg, reps in conjugated_samples(16):
        for n, m in itertools.product(reps, repeat=2):
            space, ref = ExtSpace(n, m), reference_ext_space(n, m)
            assert space.dim == ref.dim
            assert [cls.cocycle for cls in space.basis()] == ref.cocycles
            hom = hom_basis(space.pres.omega, m)
            for _ in range(3):
                cocycle = linear_combination(space.pres.omega, m, hom,
                                             [alg.field.random(rng) for _ in hom])
                assert space.class_coords(cocycle) == ref.class_coords(cocycle)


def test_dimensions_from_ranks_match_the_spaces():
    for _, reps in conjugated_samples(16):
        for n, m in itertools.product(reps, repeat=2):
            assert hom_dim(n, m) == len(hom_basis(n, m))
            assert ext1_dim(n, m) == ExtSpace(n, m).dim
            omega = minimal_projective_presentation(n).omega
            assert ext2_dim(n, m) == (0 if omega.is_zero()
                                      else reference_ext_space(omega, m).dim)


def _sample_maps(seed):
    """Zero, identity, basis and random maps between conjugated samples."""
    rng = random.Random(seed)
    for alg, reps in conjugated_samples(seed):
        for m, n in itertools.product(reps, repeat=2):
            basis = hom_basis(m, n)
            yield Morphism.zero(m, n)
            yield from basis[:2]
            yield linear_combination(m, n, basis, [alg.field.random(rng) for _ in basis])
        yield from (Morphism.identity(m) for m in reps)


def test_cokernel_and_image_match_the_three_step_references():
    maps = list(_sample_maps(19))
    # zero-dimensional vertices on both sides, and zero maps into nonzero targets
    assert any(0 in f.source.dims.values() and 0 in f.target.dims.values() for f in maps)
    assert any(f.is_zero() and not f.target.is_zero() for f in maps)
    for f in maps:
        cok, proj = cokernel(f)
        ref_cok, ref_proj = reference_cokernel(f)
        assert cok.dims == ref_cok.dims and cok.arrows == ref_cok.arrows
        assert proj.maps == ref_proj.maps
        img, incl, epi = image(f)
        ref_img, ref_incl, ref_epi = reference_image(f)
        assert img.dims == ref_img.dims and img.arrows == ref_img.arrows
        assert incl.maps == ref_incl.maps and epi.maps == ref_epi.maps


def test_pushout_matches_the_biproduct_reference():
    # along zero, basis and random cocycles of each presentation sequence, and
    # along zero, identity, basis and random maps out of each realized extension
    rng = random.Random(23)
    pushed = 0
    for alg, reps in conjugated_samples(23, 2):
        for n, m in itertools.product(reps, repeat=2):
            pres = minimal_projective_presentation(n)
            seqs = [(ShortExactSequence(pres.omega, pres.p0.rep, n, pres.omega_incl,
                                        pres.cover), m)]
            seqs += [(cls.realize(), n) for cls in ExtSpace(n, m).basis()[:2]]
            for ses, x in seqs:
                basis = hom_basis(ses.sub, x)
                maps = [Morphism.zero(ses.sub, x), *basis[:2],
                        linear_combination(ses.sub, x, basis,
                                           [alg.field.random(rng) for _ in basis])]
                if x is ses.sub:
                    maps.append(Morphism.identity(x))
                for f in maps:
                    got, ref = pushout(f, ses), reference_pushout(f, ses)
                    assert got.middle.dims == ref.middle.dims
                    assert got.middle.arrows == ref.middle.arrows
                    assert got.inclusion.maps == ref.inclusion.maps
                    assert got.projection.maps == ref.projection.maps
                    pushed += not f.is_zero()
    assert pushed >= 20


def test_pullback_and_split_sequence_match_the_biproduct_references():
    # split sequences of each ordered pair; pullbacks of each presentation
    # sequence and realized extension along zero, identity, basis and random maps
    rng = random.Random(24)
    pulled = 0
    for alg, reps in conjugated_samples(24, 2):
        for n, m in itertools.product(reps, repeat=2):
            split = split_sequence(m, n)
            total, injs, projs = biproduct_maps([m, n], alg)
            assert split.middle.dims == total.dims and split.middle.arrows == total.arrows
            assert split.inclusion.maps == injs[0].maps
            assert split.projection.maps == projs[1].maps
            pres = minimal_projective_presentation(n)
            seqs = [ShortExactSequence(pres.omega, pres.p0.rep, n, pres.omega_incl,
                                       pres.cover)]
            seqs += [cls.realize() for cls in ExtSpace(n, m).basis()[:2]]
            basis = hom_basis(m, n)
            maps = [Morphism.zero(m, n), *basis[:2],
                    linear_combination(m, n, basis, [alg.field.random(rng) for _ in basis])]
            if m is n:
                maps.append(Morphism.identity(n))
            for ses in seqs:
                for g in maps:
                    got, ref = pullback(g, ses), reference_pullback(g, ses)
                    assert got.middle.dims == ref.middle.dims
                    assert got.middle.arrows == ref.middle.arrows
                    assert got.inclusion.maps == ref.inclusion.maps
                    assert got.projection.maps == ref.projection.maps
                    pulled += not g.is_zero()
    assert pulled >= 20


def test_identity_acts_on_the_syzygy_up_to_the_p0_image():
    # universal_extension takes id_Omega for the identity of End(S) without a
    # lift: the lifted action gives the same class coordinates.  A regular
    # simple of degree 2 over F_3 or F_5 has a 2-dimensional End(S), with the
    # identity among its basis elements, so there the actions decide which
    # classes are kept
    rng = random.Random(24)
    cases = [(alg, [simple_at(alg, v) for v in alg.vertices])
             for field in (F3, F5, QQ)
             for alg in (kron(field), canonical_algebra(field, [2, 2, 2], [2]))]
    wide = []
    for field, point in ((F3, (1, 0, 1)), (F5, (2, 0, 1))):
        alg = kron(field)
        wide.append(conjugate(regular_simples(alg, TubeId.for_point(point), rng)[0], rng))
        cases.append((alg, wide[-1:]))
    compared = 0
    for alg, simples in cases:
        targets = [projective_at(alg, v) for v in alg.vertices] + simples
        for s, m in itertools.product(simples, targets):
            space = ExtSpace(s, m)
            pres = space.pres
            lifted = syzygy_map(pres, pres.cover, pres.cover, pres.omega_incl)
            for cls in space.basis():
                assert space.class_coords(cls.cocycle.after(lifted)) == cls.coords
                compared += 1
            if s in wide:
                assert Morphism.identity(s) in hom_basis(s, s)
                assert universal_extension(m, [s]).multiplicities == [space.dim // 2]
    assert compared >= 10


def test_kills_classes_matches_the_second_ext_space():
    # pushing along the identity keeps every class; along a realized class's
    # inclusion that class dies, and the others may survive
    verdicts = []
    for _, reps in conjugated_samples(20, 2):
        for n, m in itertools.product(reps, repeat=2):
            space = ExtSpace(n, m)
            maps = [Morphism.identity(m), Morphism.zero(m, m)]
            maps += [cls.realize().inclusion for cls in space.basis()]
            for f in maps:
                verdict = kills_classes(space, f)
                assert verdict == reference_kills_classes(space, f)
                verdicts.append((space.dim, verdict))
    assert (True in {v for d, v in verdicts if d}) and (False in {v for _, v in verdicts})


def test_dims_rule_out_a_monomorphism_without_a_search(monkeypatch):
    # where some dim m_v > dim n_v, None comes with the failed search's draws
    pairs = [(m, n) for _, reps in conjugated_samples(21)
             for m, n in itertools.product(reps, repeat=2)
             if any(m.dims[v] > n.dims[v] for v in m.algebra.vertices)]
    expected = []
    for k, (m, n) in enumerate(pairs):
        rng = random.Random(k)
        expected.append((reference_find_injective_morphism(m, n, rng), rng.random()))
    assert all(f is None for f, _ in expected)
    assert sum(hom_dim(m, n) > 0 for m, n in pairs) >= 10

    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(decomp, "linear_combination", no_search)
    for k, ((m, n), (_, draw)) in enumerate(zip(pairs, expected)):
        rng = random.Random(k)
        assert find_injective_morphism(m, n, rng) is None
        assert rng.random() == draw


def test_find_injective_morphism_search_is_unchanged():
    pairs = [(m, n) for _, reps in conjugated_samples(22)
             for m, n in itertools.product(reps, repeat=2)
             if all(m.dims[v] <= n.dims[v] for v in m.algebra.vertices)]
    found = 0
    for k, (m, n) in enumerate(pairs):
        ref_rng, rng = random.Random(k), random.Random(k)
        f = find_injective_morphism(m, n, rng)
        assert f == reference_find_injective_morphism(m, n, ref_rng)
        assert rng.random() == ref_rng.random()
        found += f is not None
    assert found >= 5


def _left_approximations():
    """Left approximations of conjugated projectives over three algebras and fields."""
    for field, weights, params, tubes in (
            (F3, [], [], (TubeId.for_point((0, 1)), TubeId.for_point((F3.neg(1), 1)))),
            (F5, [2, 2, 2], [2], (TubeId.for_arm(2), TubeId.for_point((F5.neg(1), 1)))),
            (QQ, [2, 3], [], (TubeId.for_arm(1), TubeId.for_arm(2)))):
        alg = canonical_algebra(field, weights, params)
        pc0 = direct_sum([projective_at(alg, "c"), projective_at(alg, "0")]).rep
        for k, m in enumerate((projective_at(alg, "0"), pc0)):
            for depth in (1, 2):
                rng = random.Random(100 * k + depth)
                ap = approx.left_omega_approx(conjugate(m, random.Random(k)),
                                              approx.TruncationParams(tubes, depth), rng)
                seq = ap.sequence
                yield (seq.middle.arrows, seq.inclusion.maps, seq.projection.maps,
                       ap.certificates, rng.random())


def test_left_approximation_ignores_how_the_p0_image_is_spanned(monkeypatch):
    # P0's Yoneda image columns against restrictions of a solved hom_basis(P0, kept)
    ours = list(_left_approximations())
    monkeypatch.setattr(approx, "_p0_image_columns", reference_p0_image_columns)
    assert ours == list(_left_approximations())


def _reference_is_isomorphic(m, n, rng):
    """is_isomorphic accepting a candidate when Morphism.inverse finds an inverse."""
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return Morphism.zero(m, n)
    basis = hom_basis(m, n)
    return (reference_search(basis, rng, lambda f: f.inverse() is not None, m.total_dim)
            if basis else None)


def test_is_isomorphic_accepts_injective_candidates(monkeypatch):
    # the same map and the same draws as the inverse test, with no inverse computed
    rng = random.Random(17)
    pairs = [(m, conjugate(m, rng)) for _, reps in conjugated_samples(17) for m in reps]
    pairs += [(m, n) for _, reps in conjugated_samples(18) for m, n in zip(reps, reps[1:])]
    expected = []
    for k, (m, n) in enumerate(pairs):
        ref_rng = random.Random(k)
        expected.append((_reference_is_isomorphic(m, n, ref_rng), ref_rng.random()))
    assert sum(f is not None for f, _ in expected) >= len(pairs) // 2

    def no_inverse(self):
        raise AssertionError("is_isomorphic inverted a matrix")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    for k, ((m, n), (ref, draw)) in enumerate(zip(pairs, expected)):
        call_rng = random.Random(k)
        assert is_isomorphic(m, n, call_rng) == ref
        assert call_rng.random() == draw


def test_the_grid_finds_an_isomorphism_the_basis_misses(monkeypatch):
    """With no random trials, an isomorphism between sums of distinct regular
    simples, whose Hom basis has no invertible element, comes from the
    coefficient grid: the same map as the reference search's grid walk."""
    monkeypatch.setattr(decomp, "_DEFAULT_TRIALS", 0)
    rng = random.Random(19)
    for F in (F3, F5, QQ):
        alg = kron(F)
        for count in (2, 3):
            m = direct_sum([kron_point(alg, a) for a in range(count)]).rep
            n = conjugate(m, rng)
            basis = hom_basis(m, n)
            assert len(basis) == count and not any(b.is_injective() for b in basis)
            f = is_isomorphic(m, n, random.Random(20))
            assert f is not None
            assert f == reference_search(basis, random.Random(20), Morphism.is_injective,
                                         m.total_dim, trials=0)


def test_hom_proj_dim_formula():
    # dim Hom(P(v), M) = dim M_v = <dim P(v), dim M>
    rng = random.Random(1)
    alg = kron(F5)
    for _ in range(10):
        m = random_rep(alg, rng)
        for v in alg.vertices:
            p = projective_at(alg, v)
            assert hom_dim(p, m) == m.dims[v]
            assert alg.euler_form(p.dims, m.dims) == m.dims[v]


def test_kernel_cokernel_universal_properties():
    rng = random.Random(2)
    alg = kron(F5)
    for _ in range(8):
        m, n = random_rep(alg, rng), random_rep(alg, rng)
        homs = hom_basis(m, n)
        if not homs:
            continue
        f = homs[0]
        ker, incl = kernel(f)
        cok, proj = cokernel(f)
        img, iincl, iepi = image(f)
        # any map killed by f factors through the kernel
        for g in hom_basis(random_rep(alg, rng), m)[:2]:
            if f.after(g).is_zero():
                assert factor_through_injection(incl, g) is not None
        # any map killing the image factors through the cokernel
        for h in hom_basis(n, random_rep(alg, rng))[:2]:
            if h.after(f).is_zero():
                assert factor_through_surjection(proj, h) is not None
        # exactness of the image factorization
        assert iincl.after(iepi) == f


def test_euler_alternating_sum_random():
    rng = random.Random(3)
    alg = canonical_algebra(F3, [2, 2, 2], [2])
    for _ in range(6):
        m, n = random_rep(alg, rng, 1), random_rep(alg, rng, 1)
        total = hom_dim(m, n) - ext1_dim(m, n) + ext2_dim(m, n)
        assert total == alg.euler_form(m.dims, n.dims)


def test_split_trisect_forbidden_directions():
    alg = kron(F5)
    rng = random.Random(4)
    mix = conjugate(direct_sum([projective_at(alg, "0"), kron_point(alg, 2),
                                simple_at(alg, "0")]).rep, rng)
    tri = split_trisect(mix, rng)
    assert hom_dim(tri.t_part, tri.p_part) == 0
    assert hom_dim(tri.q_part, tri.p_part) == 0
    assert hom_dim(tri.q_part, tri.t_part) == 0
    assert ext1_dim(tri.p_part, tri.q_part) == 0
    assert ext1_dim(tri.t_part, tri.q_part) == 0


def test_sbracket_chain_struture():
    # S[r] contains S[r-1] with quotient tau^{-(r-1)} S
    alg = canonical_algebra(QQ, [2, 2], [])
    tube = TubeId.for_arm(1)
    orbit = regular_simples(alg, tube)
    tower = uniserial_tower(alg, tube, 0, 4)
    for j, incl in enumerate(tower.inclusions):
        cok, _ = cokernel(incl)
        expected = orbit[(j + 1) % len(orbit)]
        assert is_isomorphic(cok, expected) is not None


def test_delta_forms_linearly_independent():
    tub = TubularAlgebra(canonical_algebra(F5, [2, 2, 2, 2], [2, 3]))
    alg = tub.algebra
    rows = []
    for v in alg.vertices:
        unit = {v: 1}
        rows.append([Fraction(tub.delta_zero(unit)), Fraction(tub.delta_infinity(unit))])
    mat = Matrix(QQ, len(rows), 2, rows)
    assert mat.rank() == 2


def test_decompose_multiset_stable_under_conjugation():
    alg = kron(F3)
    rng = random.Random(5)
    from canrep.repcat import decompose

    base = direct_sum([kron_point(alg, 1), kron_point(alg, 1),
                       projective_at(alg, "c")]).rep
    seen = None
    for _ in range(3):
        dec = decompose(conjugate(base, rng), rng)
        sig = sorted((r.dims_tuple(), k) for r, k in dec.summands)
        if seen is None:
            seen = sig
        assert sig == seen


def test_tau_preserves_defect_sign_all_classes():
    # the translate preserves the trisection label everywhere; the literal
    # defect value is preserved on regulars (and on the Kronecker quiver),
    # but boundary preprojectives of armed algebras can change value
    alg = canonical_algebra(F5, [2, 2, 2], [2])
    delta = alg.defect_form()
    rng = random.Random(6)
    regulars = [regular_simples(alg, TubeId.for_arm(1), rng)[0],
                regular_simples(alg, TubeId.for_point((F5.neg(1), F5.one)), rng)[0]]
    for m in regulars:
        assert delta(tau(m).dims) == delta(m.dims) == 0
    from canrep.homology import tau_inverse

    mixed = [injective_at(alg, "c"), tau_inverse(projective_at(alg, "c"))]
    for m in mixed:
        t = tau(m)
        if not t.is_zero():
            assert (delta(t.dims) > 0) == (delta(m.dims) > 0)
            assert (delta(t.dims) < 0) == (delta(m.dims) < 0)
    # the counterexample to literal preservation: the AR sequence
    # 0 -> P(c) -> (+) P(i,1) -> tau^{-1}P(c) -> 0 gives defect -2
    back = tau_inverse(projective_at(alg, "c"))
    assert delta(back.dims) == -2
