import random
from fractions import Fraction

import pytest

from canrep.errors import AlgebraError
from canrep.exactla import FunctionField, Matrix
from canrep.homology import ext1_dim
from canrep.repcat import core
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import (
    Morphism,
    block_diagonal,
    cokernel,
    decompose,
    direct_sum,
    factor_through_injection,
    factor_through_surjection,
    from_sum,
    hom_basis,
    hom_dim,
    image,
    injective_at,
    is_brick,
    is_indecomposable,
    is_isomorphic,
    kernel,
    linear_combination,
    minimal_projective_presentation,
    projective_at,
    projective_sum,
    radical,
    simple_at,
    solve_hom,
    span_coordinates,
    sum_onto,
    top,
    zero_representation,
)

from helpers import (
    F2,
    F5,
    QQ,
    biproduct_maps,
    brute_force_hom_dim,
    conjugate,
    kron,
    kron_jordan,
    kron_point,
    mk_rep,
    reference_block_diagonal,
    reference_from_sum,
)


# ---------------------------------------------------------------------------
# projectives / injectives / simples
# ---------------------------------------------------------------------------

def test_kronecker_projectives():
    alg = kron()
    pc = projective_at(alg, "c")
    assert pc.dims == {"0": 0, "c": 1}
    p0 = projective_at(alg, "0")
    assert p0.dims == {"0": 1, "c": 2}
    # the two arrows embed as the two coordinate vectors
    cols = {p0.arrows["x1"].col(0), p0.arrows["x2"].col(0)}
    assert len(cols) == 2


def test_c222_projective_at_source():
    alg = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    p0 = projective_at(alg, "0")
    expected = {v: 1 for v in alg.vertices}
    expected["c"] = 2
    assert p0.dims == expected


def test_kronecker_injectives():
    alg = kron()
    i0 = injective_at(alg, "0")
    assert i0.dims == {"0": 1, "c": 0}
    ic = injective_at(alg, "c")
    assert ic.dims == {"0": 2, "c": 1}
    # socle of I(c) is the simple at c: both arrows are surjective onto it
    assert ic.arrows["x1"].rank() == 1 and ic.arrows["x2"].rank() == 1


def test_projectives_and_injectives_are_built_once_per_algebra():
    alg = canonical_algebra(F5, [2, 2, 2], [2])
    for v in alg.vertices:
        assert projective_at(alg, v) is projective_at(alg, v)
        assert injective_at(alg, v) is injective_at(alg, v)
    # a second algebra object builds its own, equal modules
    other = canonical_algebra(F5, [2, 2, 2], [2])
    for build in (projective_at, injective_at):
        mine, theirs = build(alg, "0"), build(other, "0")
        assert mine is not theirs
        assert mine.dims == theirs.dims and mine.arrows == theirs.arrows
    with pytest.raises(AlgebraError):
        projective_at(alg, "nope")


def test_relation_checked_on_construction():
    alg = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    dims = {v: 1 for v in alg.vertices}
    arrows = {a.label: [[1]] for a in alg.arrows}
    with pytest.raises(AlgebraError):
        mk_rep(alg, dims, arrows)  # composites 1,1,1 violate x3 = x2 - 2*x1


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

def test_hom_examples():
    alg = kron()
    pc, p0 = projective_at(alg, "c"), projective_at(alg, "0")
    assert hom_dim(pc, p0) == 2
    m = kron_point(alg, 2)
    basis = hom_basis(m, m)
    assert any(f == Morphism.identity(m) or f.scale(QQ.inv(f.maps["0"].data[0][0])) ==
               Morphism.identity(m) for f in basis if not f.maps["0"].is_zero())
    assert hom_dim(kron_point(alg, 0), kron_point(alg, 1)) == 0


def test_hom_proj_counts_dims():
    alg = canonical_algebra(F5, [2, 2], [])
    m = mk_rep(alg, {v: 1 for v in alg.vertices},
               {"x1.1": [[1]], "x1.2": [[1]], "x2.1": [[2]], "x2.2": [[1]]})
    for v in alg.vertices:
        assert hom_dim(projective_at(alg, v), m) == m.dims[v]


def test_hom_brute_force_oracle_small_f2():
    alg = kron(F2)
    reps = [
        projective_at(alg, "0"),
        projective_at(alg, "c"),
        injective_at(alg, "c"),
        kron_point(alg, 0),
        kron_point(alg, 1),
        kron_jordan(alg, 1, 2),
        simple_at(alg, "0"),
    ]
    for m in reps:
        for n in reps:
            if m.total_dim + n.total_dim > 7:
                continue
            assert hom_dim(m, n) == brute_force_hom_dim(m, n)


# ---------------------------------------------------------------------------
# direct sums, kernels, cokernels
# ---------------------------------------------------------------------------

def test_direct_sum_laws():
    alg = kron()
    z = direct_sum([], alg)
    assert z.rep.is_zero()
    m = kron_point(alg, 3)
    s = direct_sum([m, zero_representation(alg)])
    assert is_isomorphic(s.rep, m) is not None
    n = projective_at(alg, "0")
    total, injs, projs = biproduct_maps([m, n])
    assert total.dims == {v: m.dims[v] + n.dims[v] for v in alg.vertices}
    # biproduct identities
    for i, (inj, proj) in enumerate(zip(injs, projs)):
        assert proj.after(inj) == Morphism.identity([m, n][i])
    assert injs[0].after(projs[0]) + injs[1].after(projs[1]) == Morphism.identity(total)


def test_direct_sum_offsets():
    alg = kron(F5)
    parts = [kron_point(alg, 1), zero_representation(alg), projective_at(alg, "0"),
             simple_at(alg, "c")]
    ds = direct_sum(parts)
    assert ds.offsets == [{"0": 0, "c": 0}, {"0": 1, "c": 1}, {"0": 1, "c": 1},
                          {"0": 2, "c": 3}]
    assert ds.rep.dims == {"0": 2, "c": 4}
    assert direct_sum([], alg).offsets == []
    ps = projective_sum(alg, ["0", "c", "0"])
    assert ps.offsets == direct_sum([projective_at(alg, v) for v in ("0", "c", "0")]).offsets
    # the 0/1 maps at the offsets are the block maps with one identity block:
    # injection i is id_i (+) (0 -> X_j) (j != i), projection i is (0, ..., id_i, ..., 0)
    total, injs, projs = biproduct_maps(parts)
    zero = zero_representation(alg)
    for i, (p, inj, proj) in enumerate(zip(parts, injs, projs)):
        into = [Morphism.identity(p) if j == i else Morphism.zero(zero, x)
                for j, x in enumerate(parts)]
        onto = [Morphism.identity(p) if j == i else Morphism.zero(x, p)
                for j, x in enumerate(parts)]
        assert block_diagonal(p, total, into).maps == inj.maps
        assert from_sum(total, p, onto).maps == proj.maps


def _random_map(source, target, rng):
    """A seeded random combination of a Hom(source, target) basis, nonzero when it can be."""
    F = source.field
    basis = hom_basis(source, target)
    while True:
        f = linear_combination(source, target, basis, [F.random(rng) for _ in basis])
        if not basis or not f.is_zero():
            return f


def _entries(f):
    return {v: repr(m) for v, m in f.maps.items()}


@pytest.mark.parametrize("field", [F5, QQ, FunctionField()], ids=["F5", "Q", "Q(t)"])
def test_block_maps_match_the_textbook_sums(field):
    rng = random.Random(11)
    alg = kron(field)
    zero = zero_representation(alg)
    xs = [projective_at(alg, "0"), zero, kron_point(alg, 2), projective_at(alg, "c"),
          kron_jordan(alg, 2, 2)]
    y = conjugate(direct_sum([projective_at(alg, "0"), kron_jordan(alg, 2, 2)]).rep, rng)
    source = direct_sum(xs).rep
    parts = [_random_map(x, y, rng) for x in xs]
    assert not any(f.is_zero() for f in parts[:1] + parts[2:])
    f = from_sum(source, y, parts)
    ref = reference_from_sum(source, y, parts)
    assert f == ref and _entries(f) == _entries(ref)

    ys = [y, projective_at(alg, "0"), zero, kron_jordan(alg, 2, 2), zero]
    target = direct_sum(ys).rep
    parts = [_random_map(x, t, rng) for x, t in zip(xs, ys)]
    g = block_diagonal(source, target, parts)
    ref = reference_block_diagonal(source, target, parts)
    assert g == ref and _entries(g) == _entries(ref)

    # empty parts: the zero map out of, and between, zero sums
    assert from_sum(zero, y, []) == reference_from_sum(zero, y, []) == Morphism.zero(zero, y)
    assert block_diagonal(zero, zero, []) == reference_block_diagonal(zero, zero, [])
    assert block_diagonal(zero, zero, []).maps == Morphism.zero(zero, zero).maps


def test_kernel_cokernel_basics():
    alg = kron()
    m = kron_point(alg, 2)
    k, _ = kernel(Morphism.identity(m))
    assert k.is_zero()
    k, incl = kernel(Morphism.zero(m, projective_at(alg, "0")))
    assert k.dims == m.dims and incl.is_injective()
    c, _ = cokernel(Morphism.identity(m))
    assert c.is_zero()


def test_cokernel_of_peg_inclusion():
    alg = kron()
    pc, p0 = projective_at(alg, "c"), projective_at(alg, "0")
    incl = next(f for f in hom_basis(pc, p0) if not f.maps["c"].is_zero())
    cok, proj = cokernel(incl)
    assert cok.dims == {"0": 1, "c": 1}
    assert alg.defect_form()(cok.dims) == 0
    assert proj.is_surjective()


def test_exactness_certificates():
    alg = kron()
    m = kron_jordan(alg, 0, 2)
    s = kron_point(alg, 0)
    maps = hom_basis(s, m)
    inc = next(f for f in maps if f.is_injective())
    cok, proj = cokernel(inc)
    # im inc = ker proj
    kr, kincl = kernel(proj)
    img, iincl, _ = image(inc)
    assert kr.dims == img.dims
    assert factor_through_injection(kincl, iincl) is not None


def test_factorization_props():
    alg = kron()
    m = projective_at(alg, "0")
    r, incl = radical(m)
    t, proj = top(m)
    assert t.dims == {"0": 1, "c": 0}
    # a map m -> S(0) factors through top
    s0 = simple_at(alg, "0")
    f = hom_basis(m, s0)[0]
    assert factor_through_surjection(proj, f) is not None


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_presentation_of_projective():
    alg = kron()
    p0 = projective_at(alg, "0")
    pres = minimal_projective_presentation(p0)
    assert pres.p1.rep.is_zero()
    assert pres.cover.is_surjective() and pres.cover.is_injective()


def test_presentation_of_regular_simple():
    alg = kron()
    s = kron_point(alg, 4)
    pres = minimal_projective_presentation(s)
    assert pres.p0.summand_vertices == ["0"]
    assert pres.p1.summand_vertices == ["c"]
    assert pres.omega.dims == {"0": 0, "c": 1}
    assert pres.cover.is_surjective()


def test_presentation_of_simple_injective():
    alg = kron()
    s0 = simple_at(alg, "0")
    pres = minimal_projective_presentation(s0)
    assert pres.p0.summand_vertices == ["0"]
    assert pres.p1.summand_vertices == ["c", "c"]
    assert pres.omega.dims == {"0": 0, "c": 2}


def test_presentation_is_kept_on_the_module():
    m = kron_point(kron(F5), 2)
    pres = minimal_projective_presentation(m)
    assert minimal_projective_presentation(m) is pres


def test_ext1_builds_one_cover_and_p1_on_first_read(monkeypatch):
    alg = kron(F5)
    s, m = kron_point(alg, 2), kron_jordan(alg, 2, 2)
    built = []
    real = core.projective_cover

    def counting(rep):
        built.append(rep)
        return real(rep)

    monkeypatch.setattr(core, "projective_cover", counting)
    assert ext1_dim(s, m) == 1
    assert ext1_dim(s, m) == 1
    assert built == [s]
    pres = minimal_projective_presentation(s)
    assert pres.p1.summand_vertices == ["c"]
    assert len(built) == 2 and built[1] is pres.omega
    assert pres.p1.summand_vertices == ["c"]
    assert pres.d.source is pres.p1.rep and pres.p1_cover.target is pres.omega
    assert len(built) == 2


# ---------------------------------------------------------------------------
# span coordinates and block-sum certificates
# ---------------------------------------------------------------------------

def test_coordinates_of_a_composite_over_an_end_basis():
    alg = kron(F5)
    m = kron_jordan(alg, 2, 2)
    basis = hom_basis(m, m)
    assert len(basis) == 2
    f = linear_combination(m, m, basis, [F5.coerce(2), F5.coerce(3)])
    flat = [b.flatten() for b in basis]
    assert span_coordinates(F5, flat, f.flatten()) == [2, 3]
    g = f.after(f)
    coords = span_coordinates(F5, flat, g.flatten())
    assert coords is not None
    assert linear_combination(m, m, basis, coords) == g


def test_coordinates_of_a_non_morphism_are_none():
    alg = kron(F5)
    m = kron_jordan(alg, 2, 2)
    # identity at vertex 0, zero at c: the squares do not commute
    bad = Morphism(m, m, {"0": Matrix.identity(F5, 2)}, check=False)
    assert span_coordinates(F5, [b.flatten() for b in hom_basis(m, m)], bad.flatten()) is None


def test_span_coordinates_with_no_columns():
    assert span_coordinates(F5, [], [0, 0, 0]) == []
    assert span_coordinates(F5, [], []) == []
    assert span_coordinates(F5, [], [0, 1, 0]) is None
    alg = kron(F5)
    m, n = kron_point(alg, 1), kron_point(alg, 2)
    assert linear_combination(m, n, [], []).is_zero()


def test_solve_hom_finds_a_preimage_or_none():
    alg = kron(F5)
    m = kron_jordan(alg, 2, 2)
    basis = hom_basis(m, m)
    f = linear_combination(m, m, basis, [F5.coerce(2), F5.coerce(3)])
    flat = Morphism.flatten
    assert solve_hom(m, m, flat, flat(f)) == f
    g = solve_hom(m, m, lambda b: flat(b.after(f)), flat(f.after(f)))
    assert g is not None and g.after(f) == f.after(f)
    # identity at vertex 0, zero at c: outside the span of End(m)
    bad = Morphism(m, m, {"0": Matrix.identity(F5, 2)}, check=False)
    assert solve_hom(m, m, flat, flat(bad)) is None


def test_solve_hom_drops_the_coefficients_of_extra_columns():
    alg = kron(F5)
    m = kron_jordan(alg, 2, 2)
    basis = hom_basis(m, m)
    f = linear_combination(m, m, basis, [F5.coerce(1), F5.coerce(4)])
    bad = Morphism(m, m, {"0": Matrix.identity(F5, 2)}, check=False)
    rhs = (f + bad.scale(F5.coerce(3))).flatten()
    assert solve_hom(m, m, Morphism.flatten, rhs) is None
    # the extra column absorbs 3 * bad; the answer is f alone
    assert solve_hom(m, m, Morphism.flatten, rhs, extra=[bad.flatten()]) == f


def test_solve_hom_over_an_empty_hom_space():
    alg = kron(F5)
    m, n = kron_point(alg, 1), kron_point(alg, 2)
    assert hom_basis(m, n) == []
    g = solve_hom(m, n, Morphism.flatten, [F5.zero, F5.zero])
    assert g is not None and g.is_zero() and g.source is m and g.target is n
    assert solve_hom(m, n, Morphism.flatten, [F5.one, F5.zero]) is None


def test_sum_onto_injections_is_the_identity():
    alg = kron(F5)
    rep, injs, _ = biproduct_maps([kron_point(alg, 1), simple_at(alg, "0")])
    total, iso, inv = sum_onto(rep, injs)
    assert total.dims == rep.dims
    assert iso == Morphism.identity(rep) and inv == Morphism.identity(rep)
    # one summand alone does not cover the sum: no inverse
    assert sum_onto(rep, injs[:1])[2] is None


# ---------------------------------------------------------------------------
# endomorphism rings, bricks, decomposition
# ---------------------------------------------------------------------------

def test_is_brick():
    alg = kron()
    s, j2 = kron_point(alg, 2), kron_jordan(alg, 0, 2)
    ss = direct_sum([s, s]).rep
    # dim End: 1 for S, 4 for S (+) S, 2 for the Jordan block
    assert hom_dim(s, s) == len(hom_basis(s, s)) == 1
    assert hom_dim(ss, ss) == len(hom_basis(ss, ss)) == 4
    assert hom_dim(j2, j2) == len(hom_basis(j2, j2)) == 2
    assert is_brick(s)
    assert not is_brick(j2)
    s = kron_point(alg, 1)
    assert not is_brick(direct_sum([s, s]).rep)


def test_brick_with_field_extension_end():
    # degree-2 point on the Kronecker quiver over F_5: End is F_25
    from canrep.exactla import companion_matrix
    alg = kron(F5)
    comp = companion_matrix(F5, (2, 0, 1))  # t^2 + 2 irreducible over F_5
    m = mk_rep(alg, {"0": 2, "c": 2},
               {"x1": [[1, 0], [0, 1]], "x2": [[r for r in row] for row in comp.data]})
    assert hom_dim(m, m) == 2
    assert is_brick(m)


def test_decompose_indecomposable_is_singleton():
    alg = kron()
    p0 = projective_at(alg, "0")
    dec = decompose(p0, random.Random(3))
    assert len(dec.summands) == 1 and dec.summands[0][1] == 1
    assert is_indecomposable(p0)


def test_decompose_recovers_conjugated_sum():
    alg = kron(F5)
    rng = random.Random(7)
    s0, s1 = kron_point(alg, 0), kron_point(alg, 1)
    mixed = conjugate(direct_sum([s0, s1]).rep, rng)
    dec = decompose(mixed, rng)
    found = sorted(r.dims_tuple() for r, k in dec.summands for _ in range(k))
    assert found == [(1, 1), (1, 1)]
    recovered = [r for r, _ in dec.summands]
    assert any(is_isomorphic(r, s0) for r in recovered)
    assert any(is_isomorphic(r, s1) for r in recovered)


def test_decompose_isotypic_square():
    # m = s (+) s conjugated: End is a 2x2 matrix algebra, needs primary splits
    alg = kron(F5)
    rng = random.Random(11)
    s = kron_point(alg, 2)
    mixed = conjugate(direct_sum([s, s]).rep, rng)
    dec = decompose(mixed, rng)
    assert sum(k for _, k in dec.summands) == 2
    for r, _ in dec.summands:
        assert is_isomorphic(r, s) is not None


def test_decompose_certificate_verifies():
    alg = kron(F5)
    rng = random.Random(13)
    parts = [kron_point(alg, 0), projective_at(alg, "c"), simple_at(alg, "0")]
    mixed = conjugate(direct_sum(parts).rep, rng)
    dec = decompose(mixed, rng)
    assert dec.iso.after(dec.iso_inverse) == Morphism.identity(mixed)
    assert sum(k for _, k in dec.summands) == 3


def test_is_isomorphic_examples():
    alg = kron()
    m = kron_point(alg, 2)
    assert is_isomorphic(m, m) is not None
    assert is_isomorphic(m, projective_at(alg, "0")) is None
    assert is_isomorphic(kron_point(alg, 0), kron_point(alg, 1)) is None
    # conjugated copies are detected with an explicit certificate
    rng = random.Random(5)
    m2 = conjugate(kron_jordan(alg, 1, 2), rng)
    f = is_isomorphic(kron_jordan(alg, 1, 2), m2)
    assert f is not None and f.inverse() is not None
