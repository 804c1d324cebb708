"""The F_p elimination and product kernels against cell-by-cell references."""

import random

import pytest

from canrep.errors import DimensionMismatch
from canrep.exactla import Matrix, PrimeField

from helpers import (
    QQ,
    reference_kernel_columns,
    reference_mul,
    reference_rref,
    reference_solve,
)

FIELDS = [PrimeField(2), PrimeField(5), PrimeField(7), QQ]


def random_matrix(F, rows, cols, rng):
    """Random entries, often of low rank, so that free columns occur."""
    if rows and cols and rng.random() < 0.5:
        k = rng.randint(0, min(rows, cols))
        a = Matrix(F, rows, k, [[F.random(rng) for _ in range(k)] for _ in range(rows)])
        b = Matrix(F, k, cols, [[F.random(rng) for _ in range(cols)] for _ in range(k)])
        return reference_mul(a, b)
    return Matrix(F, rows, cols, [[F.random(rng) for _ in range(cols)] for _ in range(rows)])


def shapes(rng, count):
    """Every edge shape with a 0, then random shapes up to 9x9."""
    out = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 9)]
    return out + [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(count)]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_and_kernel_match_reference(F):
    rng = random.Random(11)
    for rows, cols in shapes(rng, 40):
        a = random_matrix(F, rows, cols, rng)
        r, pivots = a.rref()
        ref_rows, ref_pivots = reference_rref(a)
        assert pivots == ref_pivots
        assert r == Matrix(F, rows, cols, ref_rows)
        assert a.rank() == len(ref_pivots)
        ker = a.kernel_basis()
        assert (ker.rows, ker.cols) == (cols, cols - len(ref_pivots))
        assert [list(c) for c in zip(*ker.data)] == reference_kernel_columns(a)
        assert (a * ker).is_zero()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_mul_matches_reference(F):
    rng = random.Random(12)
    for rows, inner in shapes(rng, 40):
        cols = rng.randint(0, 9)
        a = random_matrix(F, rows, inner, rng)
        b = random_matrix(F, inner, cols, rng)
        prod = a * b
        assert (prod.rows, prod.cols) == (rows, cols)
        assert prod == reference_mul(a, b)
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(F, 2, 3) * Matrix.zeros(F, 2, 3)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_and_inverse_match_reference(F):
    rng = random.Random(13)
    consistent = invertible = 0
    for rows, cols in shapes(rng, 40):
        a = random_matrix(F, rows, cols, rng)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:   # a right-hand side in the column space
            b = a * random_matrix(F, cols, k, rng)
        else:
            b = random_matrix(F, rows, k, rng)
        x = a.solve(b)
        assert x == reference_solve(a, b)
        if x is not None:
            consistent += 1
            assert a * x == b
        square = random_matrix(F, rows, rows, rng)
        inv = square.inverse()
        assert inv == reference_solve(square, Matrix.identity(F, rows))
        if inv is not None:
            invertible += 1
            assert inv * square == Matrix.identity(F, rows) == square * inv
    assert consistent > 0 and invertible > 0


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_public_constructor_rejects_ragged_data(F):
    with pytest.raises(DimensionMismatch):
        Matrix(F, 2, 2, [[F.one, F.zero], [F.one]])
    with pytest.raises(DimensionMismatch):
        Matrix(F, 2, 1, [[F.one]])
    with pytest.raises(DimensionMismatch):
        Matrix(F, 0, 2, [[F.one, F.one]])


def test_internal_results_are_plain_tuples():
    """Results built without the shape check still compare and hash as usual."""
    F = PrimeField(5)
    a = Matrix(F, 2, 2, [[1, 2], [3, 4]])
    for result in (a * a, a + a, a - a, a.scale(3), a.transpose(), a.hstack(a),
                   a.vstack(a), a.rref()[0], a.inverse()):
        assert type(result.data) is tuple
        assert all(type(row) is tuple for row in result.data)
        rebuilt = Matrix(F, result.rows, result.cols, [list(r) for r in result.data])
        assert rebuilt == result and hash(rebuilt) == hash(result)
