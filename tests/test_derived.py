"""The derived-data slot a module keeps (``repcat.core._derived_slot``): its
presentation, End's basis, the exact brick verdict, and the splitter's kept
decision: the split the basis walk found, or no pieces for an exact "local"
verdict.  Modules cannot change (read-only ``dims`` and ``arrows``, which
cannot be rebound), so the slot is never stale; every construction path is
checked for that.

Oracles: the same call on an equal fresh copy of the module (answer and rng
state), counts of the commuting-square systems and basis walks a call makes,
and reference counting with the cyclic garbage collector off.
"""

import gc
import random
import weakref

import pytest

from canrep.errors import DecompositionError, DimensionMismatch, TubeError
from canrep.exactla import Matrix, companion_matrix
from canrep.homology import ExtSpace, tau
from canrep.approx import TruncationParams, left_omega_approx
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import (
    Representation,
    cokernel,
    core,
    decomp,
    decompose,
    direct_sum,
    dualize,
    hom_basis,
    hom_dim,
    image,
    indecomposable_summands,
    injective_at,
    is_brick,
    kernel,
    minimal_projective_presentation,
    projective_at,
    projective_cover,
    radical,
    simple_at,
    zero_representation,
)
from canrep.serialize import rep_from_json, rep_to_json
from canrep.trisection import (
    TubeId,
    classify,
    partition_by_tubes,
    regular_simples,
    split_trisect,
    tube_of,
    uniserial_tower,
)
from canrep.tubular_slopes import TubularAlgebra, canonical_family_pool, slope

from helpers import F3, F5, QQ, conjugate, kron, kron_jordan, kron_point


def _companion(F, monic, seed):
    """A conjugated Kronecker module (I, C), C the companion matrix of an
    irreducible monic polynomial: End is F[x]/(monic), a field."""
    n = len(monic) - 1
    return conjugate(Representation(kron(F), {"0": n, "c": n},
                                    {"x1": Matrix.identity(F, n),
                                     "x2": companion_matrix(F, monic)}), random.Random(seed))


def _pool_module(index):
    tub = TubularAlgebra(canonical_algebra(F5, [2, 2, 2, 2], [2, 3]))
    return tub, conjugate(canonical_family_pool(tub, random.Random(0))[index],
                          random.Random(index))


# name -> (builder of equal fresh copies, the route to the exact verdict):
# "walk" lets a basis element generate End; "frobenius" takes no generator, so
# the block count decides; "exhaustive" also treats End as non-commutative, so
# the exhaustive idempotent search over F_3 decides
CASES = {
    "dim-end-1-F5": (lambda: conjugate(kron_point(kron(F5), 2), random.Random(1)), "walk"),
    "generator-F5": (lambda: conjugate(kron_jordan(kron(F5), 2, 2), random.Random(2)), "walk"),
    "generator-brick-F5": (lambda: _companion(F5, (2, 0, 1), 3), "walk"),
    "generator-Q": (lambda: conjugate(kron_jordan(kron(QQ), 1, 2), random.Random(4)), "walk"),
    "generator-brick-Q": (lambda: _companion(QQ, (QQ.from_int(-2), 0, 1), 5), "walk"),
    "frobenius-F5": (lambda: conjugate(kron_jordan(kron(F5), 3, 2), random.Random(6)),
                     "frobenius"),
    "frobenius-brick-F5": (lambda: _companion(F5, (2, 0, 1), 7), "frobenius"),
    "exhaustive-F3": (lambda: conjugate(kron_jordan(kron(F3), 1, 2), random.Random(17)),
                      "exhaustive"),
}


def _leaves(m, rng):
    return [(leaf.dims, leaf.arrows, incl.maps) for leaf, incl in indecomposable_summands(m, rng)]


OPS = {
    "classify": lambda m, rng: classify(m, rng),
    "indecomposable_summands": _leaves,
    "is_brick": lambda m, rng: is_brick(m, rng),
}


def _counting(monkeypatch, generators):
    """Counts of commuting-square systems and basis walks, in a dict; without
    generators, every basis walk reports that no element generates End."""
    counts = {"systems": 0, "walks": 0}
    system, walk = core._hom_system, decomp._basis_walk

    def counted_system(m, n):
        counts["systems"] += 1
        return system(m, n)

    def counted_walk(m, basis):
        counts["walks"] += 1
        for phi, factors, generates in walk(m, basis):
            yield phi, factors, generates and generators

    monkeypatch.setattr(core, "_hom_system", counted_system)
    monkeypatch.setattr(decomp, "_basis_walk", counted_walk)
    return counts


def _call(op, m, seed):
    rng = random.Random(seed)
    return op(m, rng), rng.getstate()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_second_call_matches_one_call_on_a_fresh_copy(name, monkeypatch):
    build, route = CASES[name]
    counts = _counting(monkeypatch, route == "walk")
    routes = []
    frobenius, exhaustive = decomp._frobenius_blocks, decomp._idempotent_fallback
    monkeypatch.setattr(decomp, "_frobenius_blocks", lambda m, basis: (
        routes.append("frobenius") or (None if route == "exhaustive" else frobenius(m, basis))))
    monkeypatch.setattr(decomp, "_idempotent_fallback", lambda m, basis: (
        routes.append("exhaustive") or exhaustive(m, basis)))
    for op_name, op in OPS.items():
        counts.update(systems=0, walks=0)
        m = build()
        first = _call(op, m, 8)
        assert counts["systems"] == 1, op_name
        counts.update(systems=0, walks=0)
        again = _call(op, m, 8)
        # the kept End and verdict answer: no system, no walk, no block count
        assert counts == {"systems": 0, "walks": 0}, op_name
        assert again == first == _call(op, build(), 8), op_name
    assert set(routes) == {"walk": set(), "frobenius": {"frobenius"},
                           "exhaustive": {"frobenius", "exhaustive"}}[route]


@pytest.mark.parametrize("index", [1, 9], ids=["dim-end-1", "dim-end-2"])
def test_slope_twice_matches_one_call_on_a_fresh_copy(index, monkeypatch):
    tub, m = _pool_module(index)
    assert hom_dim(m, m) == (1 if index == 1 else 2)
    counts = _counting(monkeypatch, True)
    first = _call(lambda rep, rng: slope(rep, tub, rng), m, 9)
    counts.update(systems=0, walks=0)
    again = _call(lambda rep, rng: slope(rep, tub, rng), m, 9)
    assert counts == {"systems": 0, "walks": 0}
    fresh = _pool_module(index)[1]
    assert again == first == _call(lambda rep, rng: slope(rep, tub, rng), fresh, 9)


def test_a_certify_solves_end_once(monkeypatch):
    """classify and then indecomposable_summands on one module: one End system."""
    counts = _counting(monkeypatch, True)
    m = conjugate(kron_jordan(kron(F5), 1, 3), random.Random(10))
    rng = random.Random(11)
    classify(m, rng)
    assert len(indecomposable_summands(m, rng)) == 1
    assert is_brick(m, rng) is False
    assert len(hom_basis(m, m)) == hom_dim(m, m) == 3
    assert counts == {"systems": 1, "walks": 2}


def _tower_layer(index):
    alg = kron(F5)
    tower = uniserial_tower(alg, TubeId.for_point((F5.coerce(2), F5.one)), 0, 2,
                            random.Random(18))
    return tower.layers[index]


def _jordan_cover():
    """The projective cover P0 -> m of a Jordan block m (dims 2, 2)."""
    return projective_cover(kron_jordan(kron(F5), 2, 2))[1]


# the kept verdicts (classify is left out: it takes indecomposables over
# canonical algebras only)
VERDICTS = {name: OPS[name] for name in ("indecomposable_summands", "is_brick")}

# one module per way the library builds one
BUILDERS = {
    "projective_at": lambda: projective_at(kron(F5), "0"),
    "injective_at": lambda: injective_at(kron(F5), "c"),
    "simple_at": lambda: simple_at(kron(F5), "0"),
    "zero_representation": lambda: zero_representation(kron(F5)),
    "kernel": lambda: kernel(_jordan_cover())[0],
    "cokernel": lambda: cokernel(kernel(_jordan_cover())[1])[0],
    "image": lambda: image(_jordan_cover())[0],
    "radical": lambda: radical(kron_jordan(kron(F5), 2, 2))[0],
    "direct_sum": lambda: direct_sum([kron_point(kron(F5), 1), simple_at(kron(F5), "0")]).rep,
    "dualize": lambda: dualize(kron_point(kron(F5), 2), kron(F5).opposite()),
    "tau": lambda: tau(kron_jordan(kron(F5), 1, 2)),
    "tower-layer-1": lambda: _tower_layer(0),
    "tower-layer-2": lambda: _tower_layer(1),
    "rep_from_json": lambda: rep_from_json(rep_to_json(kron_jordan(kron(F5), 3, 2))),
}


def _presentation(m):
    pres = minimal_projective_presentation(m)
    return pres.p0.summand_vertices, pres.omega.dims, pres.cover.maps


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_module_refuses_every_write(name):
    m = BUILDERS[name]()
    pres = minimal_projective_presentation(m)
    verdicts = {op_name: _call(op, m, 8) for op_name, op in VERDICTS.items()}
    slot = core._derived_slot(m)
    v, a = m.algebra.vertices[0], m.algebra.arrows[0]
    with pytest.raises(TypeError):
        m.dims[v] = m.dims[v] + 1
    with pytest.raises(TypeError):
        m.arrows[a.label] = Matrix.zeros(F5, m.dims[a.target], m.dims[a.source])
    with pytest.raises(AttributeError):
        m.dims = {}
    with pytest.raises(AttributeError):
        m.arrows = {}
    with pytest.raises(AttributeError):
        m.algebra = kron(F5)
    assert core._derived_slot(m) is slot and minimal_projective_presentation(m) is pres

    def fresh():
        return Representation(m.algebra, dict(m.dims), dict(m.arrows))

    assert _presentation(m) == _presentation(fresh())
    for op_name, op in VERDICTS.items():
        assert verdicts[op_name] == _call(op, m, 8) == _call(op, fresh(), 8), op_name


def test_a_verdict_from_trials_keeps_nothing(monkeypatch):
    """Over Q with no basis element taken as a generator, the local verdict
    rests on the trials and the brick verdict on the probes: neither is kept,
    and each call draws them again."""
    _counting(monkeypatch, False)
    candidates = []
    real = decomp._candidates

    def counted(basis, rng, trials):
        candidates.append(trials)
        return real(basis, rng, trials)

    monkeypatch.setattr(decomp, "_candidates", counted)
    for m, op, draws, expected in (
            (conjugate(kron_jordan(kron(QQ), 1, 2), random.Random(12)),
             lambda m, rng: len(indecomposable_summands(m, rng, 5)), 5, 1),
            (_companion(QQ, (QQ.from_int(-2), 0, 1), 13),
             lambda m, rng: is_brick(m, rng, 4), 4, True)):
        results = [_call(op, m, 14) for _ in range(2)]
        assert results[0] == results[1]
        assert results[0][0] == expected
        kept = core._derived_slot(m)
        assert kept.split is None and kept.brick is None and len(kept.end) == 2
        assert candidates == [draws, draws]
        candidates.clear()


def test_a_certified_module_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = conjugate(kron_jordan(kron(F5), 2, 2), random.Random(15))
        rng = random.Random(16)
        classify(m, rng)
        is_brick(m, rng)
        assert core._derived_slot(m).split == [] and core._derived_slot(m).brick is False
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_solve_with_no_right_hand_column_eliminates_nothing(monkeypatch):
    a = Matrix(F5, 3, 2, [[1, 2], [0, 1], [4, 4]])

    def no_echelon(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(Matrix, "_echelon", no_echelon)
    assert a.solve(Matrix.zeros(F5, 3, 0)) == Matrix.zeros(F5, 2, 0)
    with pytest.raises(DimensionMismatch):
        a.solve(Matrix.zeros(F5, 2, 0))


def test_left_certificates_reuse_the_universal_extensions_spaces(monkeypatch):
    """One left approximation builds each Ext^1(S, kept) once, except for a mouth
    that the universal extension dropped as an isomorphic duplicate."""
    built = []
    init = ExtSpace.__init__

    def counted(self, n, m):
        built.append((n, m))
        init(self, n, m)

    monkeypatch.setattr(ExtSpace, "__init__", counted)
    alg = kron(QQ)
    point = TubeId.for_point((QQ.zero, QQ.one))
    for depth in (1, 2):
        built.clear()
        ap = left_omega_approx(projective_at(alg, "c"),
                               TruncationParams((point, TubeId.for_point(None)), depth))
        assert ap.certificates["ext_killed"]
        pairs = [(id(n), id(m)) for n, m in built]
        assert len(pairs) == len(set(pairs)), depth


def _regular_sum(seed):
    """A conjugated sum of three regular Kronecker modules over F_5, in two
    tubes; its End basis walk splits it."""
    alg = kron(F5)
    return conjugate(direct_sum([kron_point(alg, 1), kron_jordan(alg, 2, 2),
                                 kron_point(alg, 1)]).rep, random.Random(seed))


def _counting_calls(monkeypatch, *names):
    """Counts of calls of the named ``repcat.decomp`` functions, in a dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(decomp, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(decomp, name, counted)
    return counts


def test_a_kept_split_returns_the_same_leaves(monkeypatch):
    m = _regular_sum(20)
    first = indecomposable_summands(m, random.Random(21))
    assert len(first) == 3 and core._derived_slot(m).split is not None
    counts = _counting_calls(monkeypatch, "_primary_split", "factor_poly")
    again, rng_state = _call(indecomposable_summands, m, 21)
    assert counts == {"_primary_split": 0, "factor_poly": 0}
    assert len(again) == 3 and all(a is b for (a, _), (b, _) in zip(again, first))
    assert [incl.maps for _, incl in again] == [incl.maps for _, incl in first]
    assert rng_state == _call(indecomposable_summands, _regular_sum(20), 21)[1]


def test_a_kept_split_serves_a_different_trial_count(monkeypatch):
    m = _regular_sum(22)
    indecomposable_summands(m, random.Random(23))
    counts = _counting_calls(monkeypatch, "_primary_split", "_candidates")
    again = _call(lambda rep, rng: indecomposable_summands(rep, rng, 5), m, 24)
    assert counts == {"_primary_split": 0, "_candidates": 0}
    fresh = _call(lambda rep, rng: indecomposable_summands(rep, rng, 5), _regular_sum(22), 24)
    assert [(leaf.dims, leaf.arrows, incl.maps) for leaf, incl in again[0]] == [
        (leaf.dims, leaf.arrows, incl.maps) for leaf, incl in fresh[0]]
    assert again[1] == fresh[1]


def _label(m, rng):
    try:
        return classify(m, rng).value
    except TubeError:
        return "decomposable"


def _summary(m, rng):
    """Answers of a chain of decompose, classify, split_trisect and
    partition_by_tubes on m, with the rng state after each."""
    out = []
    dec = decompose(m, rng)
    out.append(([(s.dims, s.arrows, k) for s, k in dec.summands], dec.iso.maps, rng.getstate()))
    out.append(([_label(s, rng) for s, _ in dec.summands] + [_label(m, rng)], rng.getstate()))
    tri = split_trisect(m, rng)
    out.append((tri.t_part.dims, tri.iso.maps, rng.getstate()))
    part = partition_by_tubes(m, [tube_of(kron_point(m.algebra, 1), rng)], rng)
    out.append((part.inside.dims, part.outside.dims, part.iso.maps, rng.getstate()))
    return out


def test_splitter_chains_draw_as_on_a_fresh_copy():
    """Each round of the chain on one module, which keeps its split and its
    leaves' verdicts, answers and draws as the chain on a fresh copy."""
    m = _regular_sum(25)
    for seed in (26, 27, 26):
        assert _summary(m, random.Random(seed)) == _summary(_regular_sum(25), random.Random(seed))
    assert core._derived_slot(m).split is not None


def test_a_split_from_random_candidates_is_not_kept(monkeypatch):
    """With a basis walk that never splits, the split comes from the random
    candidates: nothing is kept, and each call splits again with the same draws."""
    walk = decomp._basis_walk

    def no_split(m, basis):
        for phi, _, _ in walk(m, basis):
            yield phi, [], False

    monkeypatch.setattr(decomp, "_basis_walk", no_split)
    m = conjugate(direct_sum([kron_point(kron(F5), 1), kron_point(kron(F5), 2)]).rep,
                  random.Random(28))
    counts = _counting_calls(monkeypatch, "_primary_split")
    results = [_call(_leaves, m, 29) for _ in range(2)]
    assert len(results[0][0]) == 2 and results[0] == results[1]
    assert core._derived_slot(m).split is None
    assert counts["_primary_split"] >= 2


def test_a_polynomial_that_cannot_be_factored_gives_no_split(monkeypatch):
    """A factoring failure reaches the caller: the sum of two Kronecker mouths
    from distinct tubes is not reported as one certified leaf, nothing is kept,
    and once factoring works again the splitter finds both summands."""
    alg = kron(F5)
    mouths = [regular_simples(alg, TubeId.for_point(p))[0] for p in ((0, 1), (4, 1))]
    m = conjugate(direct_sum(mouths).rep, random.Random(32))

    def refuse(field, coeffs):
        raise DecompositionError("no factorization backend")

    with monkeypatch.context() as patched:
        patched.setattr(decomp, "factor_poly", refuse)
        with pytest.raises(DecompositionError):
            indecomposable_summands(m, random.Random(33))
    assert core._derived_slot(m).split is None
    leaves = indecomposable_summands(m, random.Random(33))
    assert sorted(leaf.dims_tuple() for leaf, _ in leaves) == [(1, 1), (1, 1)]


def test_a_split_module_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = _regular_sum(30)
        leaves = indecomposable_summands(m, random.Random(31))
        assert core._derived_slot(m).split is not None
        refs = [weakref.ref(m)] + [weakref.ref(leaf) for leaf, _ in leaves]
        del m, leaves
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
