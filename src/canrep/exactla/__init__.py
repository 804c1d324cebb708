"""Exact scalar fields and the dense linear-algebra kernels built on them."""

from .fields import (
    FunctionField,
    PrimeField,
    RatFunc,
    RationalField,
    field_from_spec,
    poly_add,
    poly_divmod,
    poly_gcd_monic,
    poly_mul,
    poly_neg,
    poly_parse,
    poly_scale,
    poly_to_str,
    poly_trim,
)
from .fpfactor import poly_factor_fp
from .matrix import Matrix, companion_matrix, minimal_polynomial

__all__ = [
    "FunctionField",
    "Matrix",
    "PrimeField",
    "RatFunc",
    "RationalField",
    "companion_matrix",
    "field_from_spec",
    "minimal_polynomial",
    "poly_add",
    "poly_divmod",
    "poly_factor_fp",
    "poly_gcd_monic",
    "poly_mul",
    "poly_neg",
    "poly_parse",
    "poly_scale",
    "poly_to_str",
    "poly_trim",
]
