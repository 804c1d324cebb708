"""Factorization over F_p against sympy's factor_list.

The native factorizer (``exactla.poly_factor_fp``, behind
``repcat.factor_poly``) must return exactly what sympy returns, factor for
factor and in the same order: the splitter's seeded output depends on that
order.
"""

import itertools
import random

import pytest
import sympy

from canrep.errors import DecompositionError
from canrep.exactla import FunctionField, PrimeField, poly_mul
from canrep.repcat import decomp, factor_poly, is_irreducible_poly

from helpers import F2, F3, F5

F7 = PrimeField(7)
X = sympy.Symbol("x")


def sympy_factors(F, coeffs):
    """sympy's factor_list over F_p as [(monic ascending tuple, multiplicity)]."""
    poly = sympy.Poly([int(c) for c in reversed(coeffs)], X, modulus=F.p)
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = [int(c) % F.p for c in fac.all_coeffs()]
        inv = F.inv(cs[0])
        out.append((tuple(F.mul(c, inv) for c in reversed(cs)), int(mult)))
    return out


def assert_matches_sympy(F, coeffs):
    assert factor_poly(F, coeffs) == sympy_factors(F, coeffs), (F, coeffs)


def _power(F, f, k):
    out = (F.one,)
    for _ in range(k):
        out = poly_mul(F, out, f)
    return out


def _compose_xp(F, g):
    """g(x^p), ascending coefficients."""
    out = [F.zero] * ((len(g) - 1) * F.p + 1)
    out[::F.p] = g
    return tuple(out)


@pytest.mark.parametrize("F, top", [(F2, 8), (F3, 6), (F5, 5), (F7, 4)],
                         ids=["F2", "F3", "F5", "F7"])
def test_every_monic_polynomial(F, top):
    for degree in range(2, top + 1):
        for low in itertools.product(range(F.p), repeat=degree):
            assert_matches_sympy(F, low + (F.one,))


@pytest.mark.parametrize("F", [F2, F3, F5, F7], ids=["F2", "F3", "F5", "F7"])
def test_non_monic_inputs(F):
    rng = random.Random(F.p)
    for _ in range(40):
        degree = rng.randint(2, 6)
        coeffs = tuple(rng.randrange(F.p) for _ in range(degree)) + (rng.randrange(1, F.p),)
        assert_matches_sympy(F, coeffs)
        # trailing zeros are trimmed before the leading coefficient is read
        assert_matches_sympy(F, coeffs + (F.zero, F.zero))


@pytest.mark.parametrize("F", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_polynomials_in_x_to_the_p(F):
    """f' = 0: f is g(x^p), and its factors come from the p-th root g."""
    rng = random.Random(10 + F.p)
    for degree in (1, 2, 3):
        for _ in range(10):
            g = tuple(rng.randrange(F.p) for _ in range(degree)) + (F.one,)
            assert_matches_sympy(F, _compose_xp(F, g))
            # times a part whose multiplicity p does not divide
            assert_matches_sympy(F, poly_mul(F, _compose_xp(F, g), (F.one, F.one)))


def test_multiplicity_at_least_p():
    assert factor_poly(F5, _power(F5, (1, 1), 5)) == [((1, 1), 5)]
    assert factor_poly(F2, _power(F2, (1, 1, 1), 2)) == [((1, 1, 1), 2)]
    cases = [
        (F2, [((1, 1), 3), ((1, 1, 1), 4)]),
        (F3, [((1, 1), 3), ((2, 1), 4), ((1, 0, 1), 6)]),
        (F5, [((2, 0, 1), 5), ((0, 1), 10)]),
        (F7, [((3, 1), 7), ((1, 1), 1), ((1, 1, 1), 2)]),
    ]
    for F, parts in cases:
        f = (F.one,)
        for g, k in parts:
            f = poly_mul(F, f, _power(F, g, k))
        assert_matches_sympy(F, f)


@pytest.mark.parametrize("p", [101, 10007, 2**31 - 1])
def test_seeded_random_polynomials_over_large_primes(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(25):
        degree = rng.randint(2, 8)
        coeffs = tuple(rng.randrange(p) for _ in range(degree)) + (rng.randrange(1, p),)
        assert_matches_sympy(F, coeffs)
    # products of small factors, so that Berlekamp has several to separate
    for _ in range(25):
        f = (F.one,)
        while len(f) < 7:
            g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 2))) + (F.one,)
            f = poly_mul(F, f, _power(F, g, rng.randint(1, 2)))
        assert_matches_sympy(F, f)


def test_degree_one_shortcut_and_constants(monkeypatch):
    def no_factorizer(F, coeffs):
        raise AssertionError("degree one must not reach the factorizer")

    monkeypatch.setattr(decomp, "poly_factor_fp", no_factorizer)
    assert factor_poly(F5, (3, 2)) == [((4, 1), 1)]
    assert factor_poly(F5, (3, 2, 0)) == [((4, 1), 1)]
    for const in [(), (0,), (3,), (2, 0, 0)]:
        with pytest.raises(DecompositionError):
            factor_poly(F5, const)


def test_irreducibility_and_the_callers_rng():
    state = random.getstate()
    assert is_irreducible_poly(F5, (2, 0, 1))
    assert not is_irreducible_poly(F5, (1, 0, 1))       # (x + 2)(x + 3)
    assert not is_irreducible_poly(F2, (1, 0, 1))       # (x + 1)^2
    assert factor_poly(F7, (1, 2, 3, 4, 5, 6, 1)) == sympy_factors(F7, (1, 2, 3, 4, 5, 6, 1))
    assert random.getstate() == state


def test_function_fields_over_f_p_refuse_degree_two_and_up(monkeypatch):
    # sympy has no bivariate factoring over F_p: the refusal comes before it
    monkeypatch.setattr(decomp, "_factor_function_field", None)
    F = FunctionField(F5)
    t = F.gen
    assert factor_poly(F, (t, F.one)) == [((t, F.one), 1)]
    for coeffs in [(t, F.zero, F.one), (F.one, t, F.zero, F.one)]:
        with pytest.raises(DecompositionError):
            factor_poly(F, coeffs)
        with pytest.raises(DecompositionError):
            is_irreducible_poly(F, coeffs)
