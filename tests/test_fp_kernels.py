"""The elimination, product and minimal-polynomial kernels against cell-by-cell
references."""

import random

import pytest

from canrep.errors import DimensionMismatch
from canrep.exactla import FunctionField, Matrix, PrimeField, minimal_polynomial
from canrep.repcat import direct_sum, hom_basis, projective_at, simple_at

from helpers import (
    QQ,
    conjugate,
    kron,
    kron_jordan,
    kron_point,
    reference_kernel_columns,
    reference_minimal_polynomial,
    reference_mul,
    reference_rref,
    reference_solve,
)

FIELDS = [PrimeField(2), PrimeField(5), PrimeField(7), QQ]
SPARSE_FIELDS = [PrimeField(2), PrimeField(5), PrimeField(101), QQ]
DENSITIES = [0.05, 0.1, 0.2, 0.35, 0.5]


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


def sparse_matrix(F, rows, cols, density, rng):
    """Each entry a random field element with probability density, else 0."""
    return Matrix(F, rows, cols, [[F.random(rng) if rng.random() < density else F.zero
                                   for _ in range(cols)] for _ in range(rows)])


def check_elimination(a):
    """rref, rank, column space and kernel equal to the cell-by-cell reference,
    and a itself left unchanged; returns the pivot columns."""
    F = a.field
    before = tuple(tuple(row) for row in a.data)
    r, pivots = a.rref()
    ref_rows, ref_pivots = reference_rref(a)
    assert pivots == ref_pivots
    assert r == Matrix(F, a.rows, a.cols, ref_rows)
    assert a.rank() == len(ref_pivots)
    assert a.column_space_basis() == a.select_columns(ref_pivots)
    ker = a.kernel_basis()
    assert (ker.rows, ker.cols) == (a.cols, a.cols - len(ref_pivots))
    assert [list(c) for c in zip(*ker.data)] == reference_kernel_columns(a)
    assert a.data == before
    return pivots


def check_solve(a, b):
    """solve equal to the reference, a and b left unchanged; True if consistent."""
    before = (a.data, b.data)
    x = a.solve(b)
    assert x == reference_solve(a, b)
    assert (a.data, b.data) == before
    if x is not None:
        assert a * x == b
    return x is not None


def sparse_sweep(F, rng, sizes, count):
    """Sparse matrices at every density, the 0-row and 0-column shapes, and tall
    ones of full column rank (an identity below sparse rows), each with a
    right-hand side in its column space and an arbitrary one, which for a
    matrix of deficient row rank is mostly inconsistent."""
    mats = [sparse_matrix(F, rows, cols, 0.3, rng) for rows, cols in ((0, 0), (0, 3), (3, 0))]
    for density in DENSITIES:
        for _ in range(count):
            mats.append(sparse_matrix(F, rng.randint(1, sizes), rng.randint(1, sizes),
                                      density, rng))
        cols = rng.randint(1, sizes)
        mats.append(sparse_matrix(F, rng.randint(0, sizes), cols, density, rng)
                    .vstack(Matrix.identity(F, cols)))
    shapes_seen, full_rank, kinds = set(), 0, set()
    for a in mats:
        pivots = check_elimination(a)
        shapes_seen.add((a.rows == 0, a.cols == 0))
        full_rank += a.cols > 0 and len(pivots) == a.cols
        k = rng.randint(1, 3)
        inside = a * sparse_matrix(F, a.cols, k, 0.5, rng)
        assert check_solve(a, inside)
        kinds.add(check_solve(a, sparse_matrix(F, a.rows, k, 0.5, rng)))
    assert shapes_seen == {(False, False), (True, False), (False, True), (True, True)}
    assert full_rank >= len(DENSITIES) and kinds == {False, True}


@pytest.mark.parametrize("F", SPARSE_FIELDS, ids=repr)
def test_sparse_rref_matches_reference(F):
    sparse_sweep(F, random.Random(14), 24, 12)


def test_sparse_rref_over_function_field_matches_reference():
    sparse_sweep(FunctionField(QQ), random.Random(15), 5, 4)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(5), QQ], ids=repr)
def test_hom_systems_match_reference(F, monkeypatch):
    """The commuting-square systems hom_basis solves for conjugated Kronecker
    modules; the larger ones have a fifth to a third of their cells nonzero."""
    systems = []
    kernel_basis = Matrix.kernel_basis

    def recording_kernel_basis(self):
        systems.append(self)
        return kernel_basis(self)

    monkeypatch.setattr(Matrix, "kernel_basis", recording_kernel_basis)
    rng = random.Random(16)
    alg = kron(F)
    mixed = direct_sum([kron_jordan(alg, 0, 2), kron_point(alg, 1), simple_at(alg, "0"),
                        projective_at(alg, "c")]).rep
    modules = [conjugate(rep, rng) for rep in
               (kron_jordan(alg, 1, 3), kron_jordan(alg, 0, 2), kron_point(alg, 1), mixed)]
    for m in modules:
        for n in modules:
            hom_basis(m, n)
    monkeypatch.undo()
    assert len(systems) == len(modules) ** 2
    for system in systems:
        check_elimination(system)


def random_permutation_matrix(F, n, rng):
    perm = rng.sample(range(n), n)
    return Matrix(F, n, n, [[F.one if j == perm[i] else F.zero for j in range(n)]
                            for i in range(n)])


def random_nilpotent(F, n, density, rng):
    """Strictly upper triangular, conjugated by a permutation."""
    upper = sparse_matrix(F, n, n, density, rng)
    strict = Matrix(F, n, n, [[x if j > i else F.zero for j, x in enumerate(row)]
                              for i, row in enumerate(upper.data)])
    p = random_permutation_matrix(F, n, rng)
    return p * strict * p.transpose()


@pytest.mark.parametrize("F", SPARSE_FIELDS, ids=repr)
def test_sparse_minimal_polynomial_matches_reference(F):
    rng = random.Random(17)
    for density in DENSITIES:
        n = rng.randint(1, 8)
        nil = random_nilpotent(F, n, density, rng)
        perm = random_permutation_matrix(F, n, rng)
        sparse = sparse_matrix(F, n, n, density, rng)
        for mats in ((nil,), (perm,), (sparse,), (Matrix.block_diag(F, [nil, perm, sparse]),),
                     (nil, Matrix.zeros(F, 0, 0), perm, sparse)):
            assert minimal_polynomial(mats) == reference_minimal_polynomial(mats)
        shift = Matrix(F, n, n, [[F.one if j == i + 1 else F.zero for j in range(n)]
                                 for i in range(n)])
        assert minimal_polynomial((shift,)) == (F.zero,) * n + (F.one,)


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
