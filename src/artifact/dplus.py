"""Enumeration of dominant d-numbers in real quadratic fields.

Call a d-number alpha dominant when alpha >= sigma(alpha) >= 1 (sigma the
nontrivial automorphism).  Below any cutoff M the dominant d-numbers form a
finite set: in the canonical form alpha = ell * eps^m * g^delta, dominance
plus sigma-positivity force m >= 0 and kill most delta combinations, and
ell is squeezed between 1/sigma(base) and M/base.  The cell walk covers
exactly that cell structure, one field at a time, and is the only code
that builds a member; enumerate_field runs it on one field.  enumerate_all
runs it on every field that a second walk hits, a walk over traces p and
norms p^2/k for the divisors 5 <= k <= p of p^2, which needs no unit.
Both walks are complete, so the members that the cell walks list must be
exactly the trace-walk hits, and a member that either walk misses is a
bug.  Both walks run on integer coordinates: the cell walk reads each
g^delta from the field record's rows and keeps eps^m as a pair, each ell
cutoff is one `_floor_quadratic`, the cutoff M = a/b enters every test as
the integers a and b, and one key (`_value_order`) sorts both lists.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import NamedTuple

from .dnumbers import CanonicalFactorization, FieldRecord, generator_set, is_dnumber
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
    squarefree_decompose,
)


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


def _cutoff(M) -> tuple[int, int]:
    """The cutoff M >= 1, an int or a Fraction, as the integers a, b of
    M = a/b in lowest terms; TypeError for any other value."""
    a, _, N, b = _coordinates(M)
    if N:
        raise TypeError("cutoff M must be an int or a Fraction")
    if a < b:
        raise ValueError("cutoff M must be at least 1")
    return a, b


def _cell_walk(rec: FieldRecord, a: int, b: int) -> list[DPlusElement]:
    """Every dominant irrational d-number ell * eps^m * g^delta <= a/b of the
    field of record rec, unsorted; a member that in_dplus rejects is a bug."""
    (t, u), fld, N = rec.eps, rec.field, rec.N
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
            n = gn * rec.unit_norm**m
            first = max(1, -_floor_quadratic(-p, -q, N, 2 * n))
            last = _floor_quadratic(a * p, -a * q, N, 2 * b * n)
            for ell in range(first, last + 1):
                value = _raw(fld, p * ell, q * ell)
                if not in_dplus(value):
                    raise InternalInconsistency(f"enumerated non-member {value}")
                fact = CanonicalFactorization(N, ell, m, delta, rec.case)
                found.append(DPlusElement(value, fact, decimal_str(value)))
        ep, eq, m = *_mul(ep, eq, t, u, N), m + 1
        sp, sq = _mul(ep, eq, ep, eq, N)
    return found


def enumerate_field(field_or_n, M) -> list[DPlusElement]:
    """All dominant d-numbers of one real field in [1, M], ascending.

    Rational integers are left to enumerate_all, so they appear once
    globally instead of once per field.
    """
    rec = generator_set(field_or_n)  # before M: N < 0 is refused whatever M is
    return sorted(_cell_walk(rec, *_cutoff(M)), key=_value_order)


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

    The trace walk names the fields that own members, and the cell walk of
    each lists them.  Both walks are complete, so each must find exactly
    the members the other finds; a member that one of them misses is a bug.
    A field that the trace walk misses whole escapes this check; the tests
    sweep every field up to (2M - 1)^2 for that case.
    Rational integers join once, not per field, and only on request.
    """
    a, b = _cutoff(M)
    hits = set(_trace_walk(a, b))
    out = [e for N in {N for N, _, _ in hits}
           for e in _cell_walk(generator_set(N), a, b)]
    built = {(e.value.N, e.value.p, e.value.q): e.value for e in out}
    if odd := built.keys() ^ hits:
        N, p, q = key = min(odd)
        raise InternalInconsistency(
            f"trace walk missed {built[key]} (N={N}), which its cell walk lists"
            if key in built
            else f"trace walk hit {_raw(field(N), p, q)} (N={N}) not in its cell walk"
        )
    if include_integers:
        out += [DPlusElement(k, None, decimal_str(k)) for k in range(1, a // b + 1)]
    out.sort(key=_value_order)
    return out


def cardinality_bound(M: int) -> int:
    """Polynomial overcount 8*M*(M+1)*(2M-1)^2 of the dominant set in [1, M]."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return 8 * M * (M + 1) * (2 * M - 1) ** 2
