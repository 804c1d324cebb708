import random
import time
from fractions import Fraction

import pytest

from canrep.errors import ParseError
from canrep.exactla import (
    FunctionField,
    Matrix,
    PrimeField,
    RationalField,
    companion_matrix,
    field_from_spec,
    poly_divmod,
    poly_parse,
    poly_to_str,
)

from helpers import reference_poly_divmod

QQ = RationalField()
F5 = PrimeField(5)
QT = FunctionField()


def mat(field, rows):
    return Matrix(field, len(rows), len(rows[0]) if rows else 0,
                  [[field.coerce(x) for x in r] for r in rows])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_field_axioms_sampled():
    rng = random.Random(7)
    for F in (QQ, F5, QT, FunctionField(F5)):
        for _ in range(40):
            a, b, c = F.random(rng), F.random(rng), F.random(rng)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one


def test_prime_field_rejects_composite():
    from canrep.errors import AlgebraError
    with pytest.raises(AlgebraError):
        PrimeField(6)


def test_prime_field_rejects_a_huge_prime_at_once():
    # 2^61 - 1 is prime: trial division up to its square root would not end
    from canrep.errors import AlgebraError
    start = time.perf_counter()
    with pytest.raises(AlgebraError, match="< 2\\^31"):
        PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 0.1


def test_rational_canonical_form():
    assert QQ.parse("4/6") == Fraction(2, 3)
    assert QQ.to_str(Fraction(-3, 4)) == "-3/4"


def test_function_field_reduction_is_canonical():
    # (t^2-1)/(t-1) reduces to t+1, denominators stay monic
    a = QT.parse("(t^2-1)/(t-1)")
    assert QT.to_str(a) == "t+1"
    b = QT.parse("(2t)/(4)")
    assert QT.to_str(b) == "(1/2)t"
    assert QT.parse("(1/2)t") == b
    c = QT.div(QT.parse("t^2+1"), QT.parse("t-3"))
    assert QT.to_str(c) == "(t^2+1)/(t-3)"
    assert QT.parse(QT.to_str(c)) == c


def test_poly_parse_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5)))
        s = poly_to_str(QQ, coeffs)
        assert poly_to_str(QQ, poly_parse(QQ, s)) == s


def _divmod_or_error(divmod_, F, a, b):
    try:
        return divmod_(F, a, b)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("F", [PrimeField(2), F5, PrimeField(7), QQ], ids=str)
def test_poly_divmod_matches_the_retrimming_loop(F):
    """Random pairs, zero and untrimmed ones included: an untrimmed divisor
    (a zero top coefficient) raises on both sides."""
    rng = random.Random(13)
    raised = 0
    for _ in range(600):
        a = tuple(F.random(rng) if rng.random() < 0.7 else F.zero
                  for _ in range(rng.randrange(9)))
        b = tuple(F.random(rng) for _ in range(rng.randrange(6)))
        if b and rng.random() < 0.2:
            b += (F.zero,)
        got = _divmod_or_error(poly_divmod, F, a, b)
        assert got == _divmod_or_error(reference_poly_divmod, F, a, b), (a, b)
        raised += got is ZeroDivisionError
    assert raised > 60


def test_field_spec_round_trip():
    for F in (QQ, F5, QT, FunctionField(F5)):
        assert field_from_spec(F.spec()) == F
    with pytest.raises(ParseError):
        field_from_spec({"kind": "R"})


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_rref_zero_and_identity():
    z = Matrix.zeros(QQ, 2, 2)
    r, piv = z.rref()
    assert r == z and piv == ()
    i3 = Matrix.identity(QQ, 3)
    r, piv = i3.rref()
    assert r == i3 and piv == (0, 1, 2)


def test_rref_f5_hand_example():
    # hand row-reduction: [[2,4],[1,2]] over F_5 -> [[1,2],[0,0]]
    m = mat(F5, [[2, 4], [1, 2]])
    r, piv = m.rref()
    assert r == mat(F5, [[1, 2], [0, 0]])
    assert piv == (0,)


def test_public_constructor_stores_canonical_fp_entries():
    a = Matrix(F5, 2, 2, [[1, 0], [2, 10]])
    assert a.data == ((1, 0), (2, 0))
    assert a.rank() == 1
    assert a.rref() == mat(F5, [[1, 0], [2, 0]]).rref()
    assert Matrix(F5, 1, 2, [[-1, 7]]).data == ((4, 2),)


def test_rank_examples():
    assert Matrix.zeros(QQ, 3, 2).rank() == 0
    assert Matrix.identity(QQ, 4).rank() == 4
    assert mat(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_basis():
    assert Matrix.identity(QQ, 2).kernel_basis().cols == 0
    k = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert k.cols == 3 and k.rank() == 3
    m = mat(QQ, [[1, 1]])
    k = m.kernel_basis()
    assert k.cols == 1
    assert (m * k).is_zero()


def test_kernel_orthogonality_sampled():
    rng = random.Random(11)
    for F in (QQ, F5):
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix(F, rows, cols,
                       [[F.random(rng) for _ in range(cols)] for _ in range(rows)])
            k = m.kernel_basis()
            assert k.cols == cols - m.rank()
            if k.cols:
                assert (m * k).is_zero()


def test_solve_examples():
    b = mat(QQ, [[3], [1]])
    assert Matrix.identity(QQ, 2).solve(b) == b
    a = mat(QQ, [[1], [0]])
    assert a.solve(mat(QQ, [[0], [1]])) is None
    a = mat(QQ, [[1, 2], [0, 1]])
    x = a.solve(b)
    assert x == mat(QQ, [[1], [1]])
    assert a * x == b


def test_solve_constructed_solutions_sampled():
    rng = random.Random(13)
    for F in (QQ, F5):
        for _ in range(20):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = Matrix(F, rows, cols,
                       [[F.random(rng) for _ in range(cols)] for _ in range(rows)])
            x0 = Matrix(F, cols, 1, [[F.random(rng)] for _ in range(cols)])
            b = m * x0
            x = m.solve(b)
            assert x is not None and m * x == b


def test_rref_preserves_rank():
    rng = random.Random(17)
    for _ in range(15):
        m = Matrix(F5, 3, 4, [[F5.random(rng) for _ in range(4)] for _ in range(3)])
        assert m.rref()[0].rank() == m.rank()


def test_inverse_and_power():
    a = mat(QQ, [[2, 1], [1, 1]])
    ai = a.inverse()
    assert ai is not None
    assert a * ai == Matrix.identity(QQ, 2)
    assert a.power(3) == a * a * a
    assert mat(QQ, [[1, 1], [1, 1]]).inverse() is None


def _naive_power(a, n):
    out = Matrix.identity(a.field, a.rows)
    for _ in range(n):
        out = out * a
    return out


def _naive_eval(a, coeffs):
    out = Matrix.zeros(a.field, a.rows, a.cols)
    for i, c in enumerate(coeffs):
        out = out + _naive_power(a, i).scale(c)
    return out


@pytest.mark.parametrize("F", [F5, QQ, QT], ids=["F5", "Q", "Q(t)"])
def test_power_and_eval_poly_match_their_definitions(F):
    rng = random.Random(23)
    for size in (0, 1, 3):
        a = Matrix(F, size, size, [[F.random(rng) for _ in range(size)] for _ in range(size)])
        for n in range(7):
            assert a.power(n) == _naive_power(a, n), (size, n)
        assert a.power(0) == Matrix.identity(F, size)
        assert a.power(1) == a
        for deg in range(-1, 4):
            coeffs = [F.random(rng) for _ in range(deg + 1)]
            if coeffs:
                coeffs[0] = F.zero   # a zero coefficient is skipped
            assert a.eval_poly(coeffs) == _naive_eval(a, coeffs), (size, coeffs)


@pytest.mark.parametrize("F", [F5, QQ, QT], ids=["F5", "Q", "Q(t)"])
def test_eval_poly_of_degree_d_makes_d_products(F, monkeypatch):
    products = []
    real_mul = Matrix.__mul__

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    rng = random.Random(29)
    a = Matrix(F, 3, 3, [[F.random(rng) for _ in range(3)] for _ in range(3)])
    for deg in range(-1, 5):
        coeffs = [F.random(rng) for _ in range(deg)] + [F.one] * (deg >= 0)
        products.clear()
        a.eval_poly(coeffs)
        assert len(products) == max(deg, 0), (deg, coeffs)


def test_companion_matrix_over_f5():
    # companion of t-2 over F_5 is [2]
    c = companion_matrix(F5, (F5.neg(2), F5.one))
    assert c == mat(F5, [[2]])
    # companion of t^2+1: charpoly check via eval
    c2 = companion_matrix(F5, (1, 0, 1))
    assert c2.eval_poly((1, 0, 1)).is_zero()


def test_zero_dimensional_edges():
    e = Matrix.zeros(QQ, 0, 3)
    assert e.kernel_basis().cols == 3
    f = Matrix.zeros(QQ, 3, 0)
    assert f.rank() == 0
    assert (e * f.transpose().transpose()).rows == 0
    g = Matrix.zeros(QQ, 0, 0)
    assert g.inverse() == g
