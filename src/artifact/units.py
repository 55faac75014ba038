"""Continued fractions and fundamental units of real quadratic fields.

The expansion of x_0 = (P0 + sqrt(N))/Q0, with (P0, Q0) = (0, 1) for
sqrt(N) and (1, 2) for omega = (1 + sqrt(N))/2, runs on the classical
integer state recurrence x_i = (P_i + sqrt(N))/Q_i,

    a_i = (P_i + isqrt(N)) // Q_i,
    P_{i+1} = a_i * Q_i - P_i,
    Q_{i+1} = (N - P_{i+1}^2) / Q_i   (always exact).

Every Q_i is positive (for i >= 1 the conjugate of x_i lies in (-1, 0)
while x_i > 1).  `_cf_states` yields each digit a_{i-1} with the state i
that it leads to, and both loops stop at the first i >= 1 with Q_i = Q0:
`cf_expand` proves that the period closes there, and the fundamental unit
is the convergent h/k of a_0 ... a_{i-1}.  With h_j/k_j the convergents
of x_0, the classical relation (Jacobson & Williams, *Solving the Pell
Equation*, 2009)

    (Q0*h_j - P0*k_j)^2 - N*k_j^2 = (-1)^(j+1) * Q0 * Q_{j+1}

reads, in the doubled coordinates p = 2h - k, q = k of the omega basis
and p = 2h, q = 2k of the sqrt(N) basis,

    p^2 - N*q^2 = (-1)^(j+1) * 4 * Q_{j+1} / Q0,

which is +-4 at j = i - 1 and at no earlier j.  Every unit
(p + q sqrt(N))/2 > 1 comes from a convergent of x_0, so the first
convergent of norm +-1 is the fundamental unit, and its norm is (-1)^i.
No norm is computed per step: the unit loop checks p^2 - N q^2 = +-4 once,
at the stop, as the certificate of the rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quadring import (
    HALF_ONE_PLUS_SQRT_N,
    InternalInconsistency,
    NotApplicable,
    QuadInt,
    field,
    make,
)

SQRT_KIND = "SqrtN"
OMEGA_KIND = "Omega"


class CFExpansion(NamedTuple):
    """Periodic continued fraction: preamble digits, then a repeating cycle."""

    N: int
    kind: str
    preamble: tuple[int, ...]
    period: tuple[int, ...]


def _cf_states(N: int, P0: int, Q0: int):
    """Yield (a_{i-1}, P_i, Q_i) for i = 1, 2, ..., r*(r + 1), r = isqrt(N):
    each digit of the expansion of (P0+sqrt(N))/Q0 with the state that it
    leads to.  The first i >= 1 with Q_i = Q0 comes within these steps, so
    a caller that sees none has found a bug.

    conj(x_0) < 0 and every a_i >= 1, so conj(x_{i+1}) = 1/(conj(x_i) - a_i)
    lies in (-1, 0), and x_{i+1} > 1: every x_i with i >= 1 is reduced.  A
    reduced (P + sqrt(N))/Q has a positive trace and a negative conjugate,
    so 0 < P <= r, and sqrt(N) - P < Q < sqrt(N) + P, since its conjugate
    is above -1 and itself above 1.  That leaves at most 2P values of Q per
    P, r*(r + 1) states in all.  A reduced expansion is purely periodic
    (Galois), and no state repeats within its least period L, so
    L <= r*(r + 1).  x_{L+1} = x_1 gives x_L - a_L = x_0 - a_0, whose
    sqrt(N) coefficients 1/Q_L and 1/Q0 then agree: Q_L = Q0.
    """
    r = math.isqrt(N)
    P, Q = P0, Q0
    for _ in range(r * (r + 1)):
        a = (P + r) // Q
        P = a * Q - P
        num = N - P * P
        if num % Q:
            raise InternalInconsistency(
                f"continued-fraction state left the integer lattice for N={N}"
            )
        Q = num // Q
        yield a, P, Q


def cf_expand(field_or_n, kind: str = SQRT_KIND) -> CFExpansion:
    """Periodic continued fraction of sqrt(N) or of (1+sqrt(N))/2.

    The Omega kind is only defined when N = 1 mod 4 (otherwise the
    half-integer point is not in the ring).

    The period closes at the first i >= 1 with Q_i = Q0.  There
    x_i = x_0 + (P_i - P0)/Q0, and (P_i - P0)/Q0 is an integer: trivially
    for Q0 = 1, and for Q0 = 2 because 2 Q_{i-1} = N - P_i^2 with N odd
    makes P_i odd.  So x_i and x_0 have the same fractional part,
    a_i = a_0 + (P_i - P0)/Q0 and x_{i+1} = x_1.  Conversely x_{j+1} = x_1
    matches the sqrt(N) coefficients 1/Q_j and 1/Q0 of the fractional
    parts of x_j and x_0, so i is the least period of x_1, x_2, ...  If
    also P_i = P0, then x_i = x_0 and the expansion is purely periodic
    (only omega for N = 5, the one reduced x_0).  Otherwise x_0 never
    recurs: x_j = x_0 needs Q_j = Q0, so i divides j and x_j = x_i.  The
    preamble is a_0 alone.
    """
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("continued fractions need a real field")
    if kind == SQRT_KIND:
        P0, Q0 = 0, 1
    elif kind == OMEGA_KIND:
        if fld.N % 4 != 1:
            raise NotApplicable(f"(1+sqrt({fld.N}))/2 is not an algebraic integer")
        P0, Q0 = 1, 2
    else:
        raise ValueError(f"unknown expansion kind {kind!r}")

    digits: list[int] = []
    for a, P, Q in _cf_states(fld.N, P0, Q0):
        digits.append(a)
        if Q == Q0:  # the period closes at i = len(digits)
            if P == P0:
                return CFExpansion(fld.N, kind, (), tuple(digits))
            a_i = digits[0] + (P - P0) // Q0
            return CFExpansion(fld.N, kind, (digits[0],), (*digits[1:], a_i))
    raise InternalInconsistency(f"no period found for N={fld.N}")


class FundamentalUnit(NamedTuple):
    """The smallest unit > 1 of the ring, as eps = (t + u*sqrt(N)) / 2."""

    N: int
    eps: QuadInt
    t: int
    u: int
    unit_norm: int  # +1 or -1

    def __str__(self) -> str:
        return f"eps_{self.N} = {self.eps} (norm {self.unit_norm:+d})"


def fundamental_unit(field_or_n) -> FundamentalUnit:
    """The unit of real field N, by one continued fraction on every call:
    the field's cached `dnumbers.FieldRecord` is what keeps its eps."""
    fld = field(field_or_n)
    N = fld.N
    if N < 0:
        raise NotApplicable("imaginary quadratic fields have no unit > 1")
    omega_basis = fld.omega_kind == HALF_ONE_PLUS_SQRT_N
    P0, Q0 = (1, 2) if omega_basis else (0, 1)  # omega = (P0 + sqrt(N))/Q0
    h1, h2, k1, k2 = 1, 0, 0, 1  # h_{-1}, h_{-2}, k_{-1}, k_{-2}
    for a, _, Q in _cf_states(N, P0, Q0):
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        if Q == Q0:  # the period closes: h1/k1 is the unit (module docstring)
            p, q = (2 * h1 - k1, k1) if omega_basis else (2 * h1, 2 * k1)
            d = p * p - N * q * q
            if abs(d) != 4:
                raise InternalInconsistency(f"N={N}: p^2 - N q^2 = {d} at the stop")
            return FundamentalUnit(N, make(fld, p, q), p, q, d // 4)
    raise InternalInconsistency(f"no period found for N={N}")
