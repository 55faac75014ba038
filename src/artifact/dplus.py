"""Enumeration of dominant d-numbers in real quadratic fields.

Call a d-number alpha dominant when alpha >= sigma(alpha) >= 1 (sigma the
nontrivial automorphism).  Below any cutoff M the dominant d-numbers form a
finite set: in the canonical form alpha = ell * eps^m * g^delta, dominance
plus sigma-positivity force m >= 0 and kill most delta combinations, and
ell is squeezed between 1/sigma(base) and M/base.  enumerate_field walks
exactly that cell structure.  enumerate_all finds the fields that own
members by a walk over traces and the divisors of their squares, which
needs no unit, and runs the cell walk only there, each route checking the
other.  Every cutoff is decided in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .dnumbers import CanonicalFactorization, generator_set, is_dnumber
from .quadring import (
    HALF_ONE_PLUS_SQRT_N,
    InternalInconsistency,
    NotApplicable,
    QuadField,
    QuadInt,
    _floor_value_scaled,
    _parts,
    compare_values,
    decimal_str,
    divisors,
    field,
    is_square,
    make,
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


def _recip_parts(x: QuadInt) -> tuple[Fraction, Fraction]:
    """1/x = r + s*sqrt(N) with rational r, s (x nonzero, real field)."""
    r, s = Fraction(x.p, 2), Fraction(x.q, 2)
    nrm = r * r - s * s * x.N
    return r / nrm, -s / nrm


def _least_ell(sigma_base: QuadInt) -> int:
    """Smallest ell >= 1 with ell * sigma_base >= 1 (sigma_base > 0)."""
    r, s = _recip_parts(sigma_base)
    if s == 0:
        return max(1, math.ceil(r))
    # 1/sigma_base is irrational, so its ceiling is floor + 1
    return max(1, _floor_value_scaled(r, s, sigma_base.N, 1) + 1)


def _greatest_ell(base: QuadInt, M: Fraction) -> int:
    """Largest ell with ell * base <= M (base > 0); may be 0."""
    r, s = _recip_parts(base)
    if s == 0:
        return math.floor(M * r)
    return _floor_value_scaled(M * r, M * s, base.N, 1)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_field(field_or_n, M) -> list[DPlusElement]:
    """All dominant d-numbers of one real field in [1, M], ascending.

    Rational integers are left to enumerate_all, so they appear once
    globally instead of once per field.
    """
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
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
    found.sort(key=cmp_to_key(lambda a, b: compare_values(a[0], b[0])))
    return [DPlusElement(v, f, decimal_str(v)) for v, f in found]


def norm_minus_one_field_filter(N: int, M) -> bool:
    """Can a field whose unit has norm -1 own any dominant d-number <= M?

    Necessary condition N + 2*sqrt(N) <= 4M - 1: every member is at least
    eps^2, and 2*eps >= 1 + sqrt(N).
    """
    b = 4 * Fraction(M) - 1 - N
    return b >= 0 and 4 * N <= b * b


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
    # floor(value * 2^64) orders almost every pair in integers; only a tie
    # falls back to the exact comparison, which may escalate intervals
    exact = cmp_to_key(compare_values)
    scale = 1 << 64
    out.sort(key=lambda e: (_floor_value_scaled(*_parts(e.value), scale),
                            exact(e.value)))
    return out


def cardinality_bound(M: int) -> int:
    """Polynomial overcount 8*M*(M+1)*(2M-1)^2 of the dominant set in [1, M]."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return 8 * M * (M + 1) * (2 * M - 1) ** 2


def norm_minus_one_bounds(field_or_n, x: DPlusElement) -> dict:
    """Exact lower-bound checks special to unit norm -1 fields.

    Verifies ell >= eps^m / sqrt(N)^d0 and value >= eps^(2m) on one
    enumerated element; raises InternalInconsistency if either fails,
    NotApplicable when the unit norm is +1.
    """
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
    fu = fundamental_unit(fld)
    if fu.unit_norm != -1:
        raise NotApplicable(f"unit norm is +1 for N={fld.N}")
    if x.factorization is None:
        ell, m, d0 = x.value, 0, 0
    else:
        f = x.factorization
        ell, m, d0 = f.ell, f.m, f.delta[0]
    lhs = fld.integer(ell) * (fld.sqrt_n() if d0 else fld.one())
    if not lhs >= fu.eps**m:
        raise InternalInconsistency(f"ell lower bound fails on {x.value}")
    if compare_values(x.value, fu.eps ** (2 * m)) < 0:
        raise InternalInconsistency(f"eps^(2m) lower bound fails on {x.value}")
    return {"ell_bound": True, "value_bound": True}


def brute_force_oracle(field_or_n, M, include_integers: bool = False) -> list[QuadInt]:
    """Scan every coordinate pair up to the trace cutoff and keep what
    passes in_dplus and <= M.  No generator machinery; for cross-checks."""
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
    if fld.N < 2:
        raise NotApplicable("enumeration needs a real field")
    M = Fraction(M)
    omega = fld.omega_kind == HALF_ONE_PLUS_SQRT_N
    out = []
    for p in range(2, math.floor(2 * M) + 1):  # trace(x) <= 2x <= 2M
        q = 0
        while q * q * fld.N <= p * p:
            parity_ok = q % 2 == p % 2 if omega else q % 2 == 0 == p % 2
            if parity_ok and (q or include_integers):
                x = make(fld, p, q)
                if x <= M and in_dplus(x):
                    out.append(x)
            q += 1
    out.sort(key=cmp_to_key(compare_values))
    return out
