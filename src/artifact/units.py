"""Continued fractions and fundamental units of real quadratic fields.

The expansion of (P0 + sqrt(N))/Q0 runs on the classical integer state
recurrence

    a_i = (P_i + isqrt(N)) // Q_i,
    P_{i+1} = a_i * Q_i - P_i,
    Q_{i+1} = (N - P_{i+1}^2) / Q_i   (always exact),

`cf_expand` reads the period off at the first repeated (P, Q) state.  The
fundamental unit needs no period: it is read off the state stream in one
pass, accumulating convergents alongside the digits, and the first one
giving p^2 - N q^2 = +-4 is the unit, in either integral basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, cycle, islice

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

_MAX_CF_STEPS = 10**6


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction: preamble digits, then a repeating cycle."""

    N: int
    kind: str
    preamble: tuple[int, ...]
    period: tuple[int, ...]

    def digits(self, count: int) -> list[int]:
        return list(islice(chain(self.preamble, cycle(self.period)), count))


def _cf_states(N: int, P0: int, Q0: int):
    """Yield (a_i, P_i, Q_i) forever for the expansion of (P0+sqrt(N))/Q0."""
    r = math.isqrt(N)
    P, Q = P0, Q0
    while True:
        a = (P + r) // Q
        yield a, P, Q
        P = a * Q - P
        num = N - P * P
        if num % Q:
            raise InternalInconsistency(
                f"continued-fraction state left the integer lattice for N={N}"
            )
        Q = num // Q


def cf_expand(field_or_n, kind: str = SQRT_KIND) -> CFExpansion:
    """Periodic continued fraction of sqrt(N) or of (1+sqrt(N))/2.

    The Omega kind is only defined when N = 1 mod 4 (otherwise the
    half-integer point is not in the ring).
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
    seen: dict[tuple[int, int], int] = {}
    for a, P, Q in _cf_states(fld.N, P0, Q0):
        if (P, Q) in seen:
            j = seen[(P, Q)]
            return CFExpansion(fld.N, kind, tuple(digits[:j]), tuple(digits[j:]))
        seen[(P, Q)] = len(digits)
        digits.append(a)
        if len(digits) > _MAX_CF_STEPS:
            raise InternalInconsistency(f"no period found for N={fld.N}")


@dataclass(frozen=True)
class FundamentalUnit:
    """The smallest unit > 1 of the ring, as eps = (t + u*sqrt(N)) / 2."""

    N: int
    eps: QuadInt
    t: int
    u: int
    unit_norm: int  # +1 or -1

    def __str__(self) -> str:
        return f"eps_{self.N} = {self.eps} (norm {self.unit_norm:+d})"


@lru_cache(maxsize=None)
def _fundamental_unit_cached(N: int) -> FundamentalUnit:
    fld = field(N)
    omega_basis = fld.omega_kind == HALF_ONE_PLUS_SQRT_N
    P0, Q0 = (1, 2) if omega_basis else (0, 1)  # omega = (P0 + sqrt(N))/Q0
    h1, h2 = 1, 0  # h_{-1}, h_{-2}
    k1, k2 = 0, 1
    for a, _, _ in islice(_cf_states(N, P0, Q0), _MAX_CF_STEPS):
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        # convergent h/k approximates omega; rebuild doubled coordinates
        p, q = (2 * h1 - k1, k1) if omega_basis else (2 * h1, 2 * k1)
        d = p * p - N * q * q
        if d == 4 or d == -4:
            eps = make(fld, p, q)
            return FundamentalUnit(N, eps, p, q, d // 4)
    raise InternalInconsistency(f"no unit among the first convergents for N={N}")


def fundamental_unit(field_or_n) -> FundamentalUnit:
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("imaginary quadratic fields have no unit > 1")
    return _fundamental_unit_cached(fld.N)
