"""Enumeration of dominant d-numbers in real quadratic fields.

Call a d-number alpha dominant when alpha >= sigma(alpha) >= 1 (sigma the
nontrivial automorphism).  Below any cutoff M the dominant d-numbers form a
finite set: in the canonical form alpha = ell * eps^m * g^delta, dominance
plus sigma-positivity force m >= 0 and kill most delta combinations, and
ell is squeezed between 1/sigma(base) and M/base.  enumerate_field walks
exactly that cell structure.  enumerate_all finds the fields that own
members by a walk over traces and the divisors of their squares, which
needs no unit, and runs the cell walk only there, each route checking the
other.  Every cutoff is decided in integer arithmetic: both ell cutoffs
are one floor of a/(b*x) on the doubled coordinates of x (`_floor_over`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .dnumbers import CanonicalFactorization, generator_set, is_dnumber
from .quadring import (
    InternalInconsistency,
    NotApplicable,
    QuadInt,
    _floor_sqrt_scaled,
    compare_values,
    decimal_str,
    divisors,
    field,
    is_square,
    squarefree_decompose,
)
from .units import fundamental_unit


@dataclass(frozen=True)
class DPlusElement:
    """One dominant d-number: exact value, factorization, display string."""

    value: QuadInt | int
    factorization: CanonicalFactorization | None  # None for rational integers
    approx: str

    def record(self) -> str:
        """Tab-separated N, p, q, ell, m, d0d1d2, approx; N=1 for rationals."""
        if isinstance(self.value, QuadInt):
            f = self.factorization
            n, p, q = self.value.N, self.value.p, self.value.q
            ell, m, d = f.ell, f.m, f.delta
        else:
            n, p, q = 1, 2 * self.value, 0
            ell, m, d = self.value, 0, (0, 0, 0)
        return f"{n}\t{p}\t{q}\t{ell}\t{m}\t{d[0]}{d[1]}{d[2]}\t{self.approx}"

    def __str__(self) -> str:
        return str(self.value)


def in_dplus(x: QuadInt) -> bool:
    """x >= sigma(x) >= 1 and x a d-number, decided exactly."""
    if x.N < 0:
        raise NotApplicable("dominance needs a real field")
    if not is_dnumber(x):
        return False
    # x - sigma(x) = q*sqrt(N), so dominance is just q >= 0
    return x.q >= 0 and (x.conjugate() - 1).sign() >= 0


# ---------------------------------------------------------------------------
# exact ell cutoffs


def _floor_over(a: int, b: int, x: QuadInt) -> int:
    """floor(a / (b*x)) for b > 0 and x, sigma(x) > 0, so n = norm(x) > 0:
    a/(b*x) = (a*p - a*q*sqrt(N)) / (2*b*n), and 2*b*n is a positive integer,
    so flooring the numerator first leaves the floor unchanged (q = 0 too)."""
    return (a * x.p + _floor_sqrt_scaled(-a * x.q, 1, x.N, 1)) // (2 * b * x.norm())


def _least_ell(sigma_base: QuadInt) -> int:
    """Smallest ell >= 1 with ell * sigma_base >= 1 (sigma_base totally > 0)."""
    return max(1, -_floor_over(-1, 1, sigma_base))


def _greatest_ell(base: QuadInt, M: Fraction) -> int:
    """Largest ell with ell * base <= M (base totally > 0); may be 0."""
    return _floor_over(M.numerator, M.denominator, base)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_field(field_or_n, M) -> list[DPlusElement]:
    """All dominant d-numbers of one real field in [1, M], ascending.

    Rational integers are left to enumerate_all, so they appear once
    globally instead of once per field.
    """
    fld = field(field_or_n)
    if fld.N < 2:
        raise NotApplicable("enumeration needs a real field")
    M = Fraction(M)
    if M < 1:
        raise ValueError("cutoff M must be at least 1")
    fu = fundamental_unit(fld)
    # cheapest exit first: the smallest irrational member is eps (unit norm
    # +1) or eps^2 (unit norm -1); skip the generator machinery -- and with
    # it any factoring of t +- 2 -- when even that exceeds M
    smallest = fu.eps if fu.unit_norm == 1 else fu.eps**2
    if smallest > M:
        return []
    gs = generator_set(fld)
    found: list[tuple[QuadInt, CanonicalFactorization]] = []
    m = 0
    while fu.eps ** (2 * m) <= M:  # every member with this m is >= eps^(2m)
        for delta in gs.delta_combos():
            if m == 0 and delta == (0, 0, 0):
                continue  # rational integers
            base = gs.evaluate_delta(delta) * fu.eps**m
            sigma = base.conjugate()
            if sigma.sign() <= 0:
                continue  # no positive multiple dominates its conjugate
            if base.q < 0:
                raise InternalInconsistency(
                    f"m >= 0 should force dominance (N={fld.N}, m={m})"
                )
            first = _least_ell(sigma)
            last = _greatest_ell(base, M)
            for ell in range(first, last + 1):
                value = base * ell
                if not in_dplus(value):
                    raise InternalInconsistency(f"enumerated non-member {value}")
                fact = CanonicalFactorization(fld.N, ell, m, delta, gs.case)
                found.append((value, fact))
        m += 1
    found.sort(key=lambda t: t[0])
    return [DPlusElement(v, f, decimal_str(v)) for v, f in found]


def _trace_walk(M: Fraction) -> dict[int, list[tuple[int, int]]]:
    """(p, q) of every dominant irrational d-number (p + q*sqrt(N))/2 <= M,
    keyed by N.

    With D = q^2 * N the norm is n = (p^2 - D)/4.  sigma(x) >= 1 and x <= M
    bound sqrt(D) by p - 2 and by 2M - p, and x is a d-number iff n | p^2
    (x/sigma(x) has norm 1 and trace p^2/n - 2).  D = p^2 - 4n forces the
    parity of (p, q), so every hit is an algebraic integer.
    """
    found: dict[int, list[tuple[int, int]]] = {}
    for p in range(3, math.floor(2 * M) + 1):
        bound = min(p - 2, 2 * M - p) ** 2
        for n in divisors(p * p):
            D = p * p - 4 * n
            if 0 < D <= bound and not is_square(D):
                q, N = squarefree_decompose(D)
                found.setdefault(N, []).append((p, q))
    return found


def enumerate_all(M, include_integers: bool = False) -> list[DPlusElement]:
    """Dominant d-numbers in [1, M] across every real field, ascending.

    The trace walk names the member fields and their coordinates; the cell
    walk of each such field supplies the factorizations, and the two must
    agree exactly.  Rational integers join once, not per field, and only on
    request.
    """
    M = Fraction(M)
    if M < 1:
        raise ValueError("cutoff M must be at least 1")
    out: list[DPlusElement] = []
    for N, coords in sorted(_trace_walk(M).items()):
        members = enumerate_field(N, M)
        cells = sorted((e.value.p, e.value.q) for e in members)
        if cells != sorted(coords):
            raise InternalInconsistency(
                f"N={N}, M={M}: cell walk gives (p, q) {cells}, "
                f"trace walk {sorted(coords)}"
            )
        out.extend(members)
    if include_integers:
        out.extend(
            DPlusElement(k, None, decimal_str(k))
            for k in range(1, math.floor(M) + 1)
        )
    # floor(value * 2^64) = (p*2^64 + floor(q*2^64*sqrt(N))) // 2 orders
    # almost every pair in integers; only a tie falls back to compare_values
    exact = cmp_to_key(compare_values)
    scale = 1 << 64

    def key(e: DPlusElement):
        v = e.value
        if isinstance(v, int):
            return v * scale, exact(v)
        return (v.p * scale + _floor_sqrt_scaled(v.q, 1, v.N, scale)) // 2, exact(v)

    out.sort(key=key)
    return out


def cardinality_bound(M: int) -> int:
    """Polynomial overcount 8*M*(M+1)*(2M-1)^2 of the dominant set in [1, M]."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return 8 * M * (M + 1) * (2 * M - 1) ** 2
