"""Exact arithmetic for quadratic d-numbers.

A d-number is an algebraic integer whose principal ideal is stable under
the Galois action; in a quadratic field this is decided by an integer
divisibility (norm divides trace squared).  This package classifies,
factors, enumerates, and screens such numbers exactly — no floating point
on any correctness path — and ships a CLI (``dnum``) exposing the same
operations.
"""

from .quadring import (
    DivByZero,
    FactorizationLimit,
    FieldMismatch,
    InternalInconsistency,
    NotADNumber,
    NotApplicable,
    NotDivisible,
    NotInDPlus,
    ParityError,
    QuadField,
    QuadInt,
    Rejected,
    ZeroElement,
    compare,
    compare_values,
    decimal_str,
    divisors,
    exact_divide,
    factorize,
    field,
    is_square,
    is_squarefree,
    make,
    render,
    sign,
    squarefree_decompose,
    squarefree_part,
)

__all__ = [
    "DivByZero",
    "FactorizationLimit",
    "FieldMismatch",
    "InternalInconsistency",
    "NotADNumber",
    "NotApplicable",
    "NotDivisible",
    "NotInDPlus",
    "ParityError",
    "QuadField",
    "QuadInt",
    "Rejected",
    "ZeroElement",
    "compare",
    "compare_values",
    "decimal_str",
    "divisors",
    "exact_divide",
    "factorize",
    "field",
    "is_square",
    "is_squarefree",
    "make",
    "render",
    "sign",
    "squarefree_decompose",
    "squarefree_part",
]

__version__ = "0.1.0"
