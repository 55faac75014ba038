"""Enumeration of dominant d-numbers in real quadratic fields.

Call a d-number alpha dominant when alpha >= sigma(alpha) >= 1 (sigma the
nontrivial automorphism).  Below any cutoff M the dominant d-numbers form a
finite set: in the canonical form alpha = ell * eps^m * g^delta, dominance
plus sigma-positivity force m >= 0 and kill most delta combinations, and
ell is squeezed between 1/sigma(base) and M/base.  enumerate_field walks
exactly that cell structure, one field at a time.  enumerate_all finds
every member of every field by a walk over traces p and norms p^2/k for
the divisors 5 <= k <= p of p^2, which needs no unit, certifies each hit
with in_dplus and takes its factorization from canonical_factor; the
canonical form is unique, so it is the one the cell walk would report.
Both walks run on integer coordinates: the cell walk reads each g^delta
from the field record's rows and keeps eps^m as a pair, each ell cutoff is
one `_floor_quadratic`, the cutoff M = a/b enters every test as the
integers a and b, and one key (`_value_order`) sorts both lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from .dnumbers import CanonicalFactorization, canonical_factor
from .dnumbers import generator_set, is_dnumber
from .quadring import (
    InternalInconsistency,
    NotApplicable,
    QuadInt,
    _coordinates,
    _floor_quadratic,
    _mul,
    _raw,
    _sign,
    compare_values,
    decimal_str,
    divisors,
    field,
    is_square,
    make,
    squarefree_decompose,
)
from .units import fundamental_unit


class DPlusElement(NamedTuple):
    """One dominant d-number: exact value, factorization, display string."""

    value: QuadInt | int
    factorization: CanonicalFactorization | None  # None for rational integers
    approx: str

    def columns(self) -> dict:
        """N, p, q, ell, m, delta (as d0d1d2) and approx, in record order;
        N=1 for rationals."""
        if isinstance(self.value, QuadInt):
            f = self.factorization
            n, p, q = self.value.N, self.value.p, self.value.q
            ell, m, d = f.ell, f.m, f.delta
        else:
            n, p, q = 1, 2 * self.value, 0
            ell, m, d = self.value, 0, (0, 0, 0)
        return {"N": n, "p": p, "q": q, "ell": ell, "m": m,
                "delta": f"{d[0]}{d[1]}{d[2]}", "approx": self.approx}

    def record(self) -> str:
        """The columns, tab-separated."""
        return "\t".join(map(str, self.columns().values()))

    def __str__(self) -> str:
        return str(self.value)


def in_dplus(x: QuadInt) -> bool:
    """x >= sigma(x) >= 1 and x a d-number, decided exactly."""
    if x.N < 0:
        raise NotApplicable("dominance needs a real field")
    if not is_dnumber(x):
        return False
    # x - sigma(x) = q*sqrt(N) and 2*(sigma(x) - 1) = (p - 2) - q*sqrt(N)
    return x.q >= 0 and _sign(x.p - 2, -x.q, x.N) >= 0


# ---------------------------------------------------------------------------
# enumeration

_EXACT = cmp_to_key(compare_values)


def _value_order(e: DPlusElement):
    """The sort key of e's value, in any field: floor(value * 2^64) orders
    almost every pair, and only a tie falls back to compare_values."""
    p, q, N, d = _coordinates(e.value)
    return _floor_quadratic(p << 64, q << 64, N, d), _EXACT(e.value)


def enumerate_field(field_or_n, M) -> list[DPlusElement]:
    """All dominant d-numbers of one real field in [1, M], ascending.

    Rational integers are left to enumerate_all, so they appear once
    globally instead of once per field.
    """
    fld = field(field_or_n)
    if (N := fld.N) < 2:
        raise NotApplicable("enumeration needs a real field")
    M = Fraction(M)
    a, b = M.numerator, M.denominator
    if a < b:
        raise ValueError("cutoff M must be at least 1")
    fu = fundamental_unit(fld)
    rec = generator_set(fld)
    found: list[DPlusElement] = []
    ep, eq, sp, sq, m = 2, 0, 2, 0, 0  # eps^m, and eps^(2m) <= every member at m
    while _sign(b * sp - 2 * a, b * sq, N) <= 0:
        for delta, (_, gp, gq, gn) in zip(rec.deltas, rec.rows):
            if m == 0 and delta == (0, 0, 0):
                continue  # rational integers
            p, q = _mul(gp, gq, ep, eq, N)  # base = g^delta * eps^m
            if _sign(p, -q, N) <= 0:
                continue  # no positive multiple dominates its conjugate
            if q < 0:
                raise InternalInconsistency(
                    f"m >= 0 should force dominance (N={N}, m={m})"
                )
            # ell * sigma(base) >= 1 and ell * base <= M; norm(base) = n > 0
            n = gn * fu.unit_norm**m
            first = max(1, -_floor_quadratic(-p, -q, N, 2 * n))
            last = _floor_quadratic(a * p, -a * q, N, 2 * b * n)
            for ell in range(first, last + 1):
                value = _raw(fld, p * ell, q * ell)
                if not in_dplus(value):
                    raise InternalInconsistency(f"enumerated non-member {value}")
                fact = CanonicalFactorization(N, ell, m, delta, rec.case)
                found.append(DPlusElement(value, fact, decimal_str(value)))
        ep, eq, m = *_mul(ep, eq, fu.t, fu.u, N), m + 1
        sp, sq = _mul(ep, eq, ep, eq, N)
    found.sort(key=_value_order)
    return found


def _trace_walk(a: int, b: int) -> list[tuple[int, int, int]]:
    """(N, p, q) of every dominant irrational d-number (p + q*sqrt(N))/2
    <= M = a/b.

    With D = q^2 * N the norm is n = (p^2 - D)/4.  sigma(x) >= 1 and x <= M
    bound sqrt(D) by p - 2 and by 2M - p >= 0, so b^2*D is at most both
    (b*(p - 2))^2 and (2a - b*p)^2.  x is a d-number iff n | p^2
    (x/sigma(x) has norm 1 and trace p^2/n - 2).  D = p^2 - 4n forces the
    parity of (p, q), so every hit is an algebraic integer.  The walk takes
    n = p^2/k for the divisors 5 <= k <= p of p^2 alone: D <= (p - 2)^2
    forces n >= p - 1, so k <= p^2/(p - 1) < p + 2; k = p + 1 is coprime
    to p, so it never divides p^2; and k <= 4 gives D <= 0.
    """
    found: list[tuple[int, int, int]] = []
    for p in range(5, 2 * a // b + 1):
        bound = min(b * (p - 2), 2 * a - b * p) ** 2
        for k in divisors(p * p):
            if k > p:
                break
            D = p * p - 4 * (p * p // k)
            if k >= 5 and b * b * D <= bound and not is_square(D):
                q, N = squarefree_decompose(D)
                found.append((N, p, q))
    return found


def enumerate_all(M, include_integers: bool = False) -> list[DPlusElement]:
    """Dominant d-numbers in [1, M] across every real field, ascending.

    The trace walk gives every member's field and coordinates; a hit that
    in_dplus rejects is a bug.  Rational integers join once, not per
    field, and only on request.
    """
    M = Fraction(M)
    a, b = M.numerator, M.denominator
    if a < b:
        raise ValueError("cutoff M must be at least 1")
    out: list[DPlusElement] = []
    for N, p, q in _trace_walk(a, b):
        value = make(N, p, q)
        if not in_dplus(value):
            raise InternalInconsistency(
                f"trace walk hit {value} (N={N}) is not a dominant d-number"
            )
        out.append(DPlusElement(value, canonical_factor(value), decimal_str(value)))
    if include_integers:
        out.extend(
            DPlusElement(k, None, decimal_str(k))
            for k in range(1, a // b + 1)
        )
    out.sort(key=_value_order)
    return out


def cardinality_bound(M: int) -> int:
    """Polynomial overcount 8*M*(M+1)*(2M-1)^2 of the dominant set in [1, M]."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return 8 * M * (M + 1) * (2 * M - 1) ** 2
