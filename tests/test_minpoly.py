"""The incremental minimal polynomial against the solve-per-degree reference."""

import random

import pytest

from canrep.errors import DimensionMismatch
from canrep.exactla import FunctionField, Matrix, companion_matrix, minimal_polynomial
from canrep.repcat import (
    Morphism,
    Representation,
    direct_sum,
    endo_minimal_polynomial,
    hom_basis,
    projective_at,
    simple_at,
    zero_representation,
)
from canrep.trisection import TubeId, tube_of

from helpers import (
    F2,
    F3,
    F5,
    QQ,
    conjugate,
    kron,
    kron_jordan,
    kron_point,
    reference_minimal_polynomial,
)

QT = FunctionField(QQ)


def check_minpoly(phi):
    """Equal to the reference, monic, and annihilating every vertex map."""
    F = phi.source.field
    mats = tuple(phi.maps.values())
    coeffs = endo_minimal_polynomial(phi)
    assert coeffs == reference_minimal_polynomial(mats)
    assert coeffs[-1] == F.one
    for a in mats:
        assert a.eval_poly(coeffs).is_zero()
    return coeffs


def sample_module(field, rng):
    """A direct sum with a repeated point, a uniserial and a projective;
    conjugated except over Q(t), where that makes End too slow to compute."""
    alg = kron(field)
    if isinstance(field, FunctionField):
        return direct_sum([kron_point(alg, field.gen), kron_point(alg, field.gen),
                           kron_jordan(alg, field.one, 2)]).rep
    parts = [kron_jordan(alg, 1, 2), kron_point(alg, 1), kron_point(alg, 0),
             simple_at(alg, "0"), projective_at(alg, "c")]
    return conjugate(direct_sum(parts).rep, rng)


@pytest.mark.parametrize("field", [F2, F3, QQ, QT], ids=repr)
def test_random_endomorphisms_match_reference(field):
    rng = random.Random(5)
    m = sample_module(field, rng)
    basis = hom_basis(m, m)
    assert len(basis) > 1
    degrees = set()
    for phi in basis:
        degrees.add(len(check_minpoly(phi)) - 1)
    for _ in range(12):
        phi = Morphism.zero(m, m)
        for b in basis:
            phi = phi + b.scale(field.random(rng))
        degrees.add(len(check_minpoly(phi)) - 1)
    assert len(degrees) > 1


def test_zero_module_gives_x():
    for field in (F2, QQ, QT):
        z = zero_representation(kron(field))
        assert check_minpoly(Morphism.identity(z)) == (field.zero, field.one)
    assert minimal_polynomial((Matrix.zeros(F5, 0, 0),)) == (0, 1)


@pytest.mark.parametrize("field", [F3, F5, QQ, QT], ids=repr)
def test_nilpotent_and_scalar_maps(field):
    alg = kron(field)
    m = kron_jordan(alg, field.one, 3)
    shift = m.arrows["x2"] - Matrix.identity(field, 3)
    nil = Morphism(m, m, {"0": shift, "c": shift})
    assert check_minpoly(nil) == (field.zero,) * 3 + (field.one,)
    c = field.from_int(2)
    assert check_minpoly(Morphism.identity(m).scale(c)) == (field.neg(c), field.one)


def test_non_square_input_is_rejected():
    with pytest.raises(DimensionMismatch):
        minimal_polynomial((Matrix.zeros(F5, 2, 3),))


@pytest.mark.parametrize("poly, module", [
    ((3, 1), lambda alg: kron_jordan(alg, 2, 2)),   # S[2] at the point 2
    ((2, 0, 1), lambda alg: kron_point_of(alg, (2, 0, 1))),   # t^2 + 2, irreducible
])
def test_tube_lookup_uses_the_same_routine(poly, module):
    rng = random.Random(3)
    alg = kron(F5)
    m = conjugate(module(alg), rng)
    assert tube_of(m, rng) == TubeId.for_point(poly)
    op = m.arrows["x1"].inverse() * m.arrows["x2"]
    coeffs = minimal_polynomial((op,))
    assert coeffs == reference_minimal_polynomial((op,))
    assert op.eval_poly(coeffs).is_zero()


def kron_point_of(alg, poly):
    """The regular simple (x1, x2) = (1, companion of poly) at a point of degree > 1."""
    F = alg.field
    n = len(poly) - 1
    return Representation(alg, {"0": n, "c": n},
                          {"x1": Matrix.identity(F, n), "x2": companion_matrix(F, poly)})
