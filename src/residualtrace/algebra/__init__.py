"""Exact polynomial, rational function, and linear algebra layer."""

from .linalg import (
    FracMatrix,
    clear_denominators,
    det_poly_grid,
    determinant,
    kernel_vector,
    solve_linear,
)
from .poly import (
    MPoly,
    as_fraction,
    exact_div,
    poly_gcd,
    poly_gcd_fiber,
    poly_lcm,
    try_div,
)
from .ratfunc import RatFunc

__all__ = [
    "FracMatrix",
    "MPoly",
    "RatFunc",
    "as_fraction",
    "clear_denominators",
    "det_poly_grid",
    "determinant",
    "exact_div",
    "kernel_vector",
    "poly_gcd",
    "poly_gcd_fiber",
    "poly_lcm",
    "solve_linear",
    "try_div",
]
