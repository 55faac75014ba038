"""Classification and factorization of quadratic d-numbers.

A nonzero quadratic integer is a d-number exactly when its norm divides the
square of its trace.  Over a real field the d-numbers form a monoid with at
most three irrational generators beyond the rational integers and the
fundamental unit: sqrt(N) and square roots of kappa_i * eps, where kappa_1
and kappa_2 are the squarefree parts of t +- 2 (t the trace of eps).  Which
generators survive, and which products collapse, splits into five cases on
(kappa_1, kappa_2, N); everything here keys off that case split.

One cached `FieldRecord` per real field holds that split on integers, built
from the unit's (t, u) alone; each square root is checked by its square.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .quadring import (
    FieldMismatch,
    InternalInconsistency,
    NotADNumber,
    NotApplicable,
    NotDivisible,
    QuadField,
    QuadInt,
    ZeroElement,
    _mul,
    _power,
    _quotient,
    _raw,
    _sign,
    _unit_exponent,
    exact_divide,
    field,
    is_square,
)
from .units import fundamental_unit

CASE_NORM_MINUS_ONE = "NormMinusOne"
CASE_KAPPA_PRODUCT_EQ_N = "KappaProductEqN"
CASE_N_KAPPA1_EQ_KAPPA2 = "NKappa1EqKappa2"
CASE_N_KAPPA2_EQ_KAPPA1 = "NKappa2EqKappa1"
CASE_ELSE = "Else"


# ---------------------------------------------------------------------------
# membership


def is_dnumber(x: QuadInt) -> bool:
    """Norm divides trace squared (any quadratic field, including N < 0)."""
    if x.is_zero():
        raise ZeroElement("0 is not a d-number")
    return (x.p * x.p) % x.norm() == 0


def dnumber_order(x: QuadInt) -> int:
    """1 for integer multiples of units, 2 for every other d-number."""
    if x.is_zero():
        raise ZeroElement("0 is not a d-number")
    if not is_dnumber(x):
        raise NotADNumber(f"{x} is not a d-number")
    n = abs(x.norm())
    s = math.isqrt(n)  # |N(x)| = s^2 and s | x leave |N(x/s)| = 1
    unit = s * s == n and _quotient(x.p, x.q, 2 * s, 0, n, x.N) is not None
    return 1 if unit else 2


# ---------------------------------------------------------------------------
# kappa invariants and the per-field record


def kappas(field_or_n) -> tuple[int, int]:
    """(kappa_1, kappa_2) = squarefree parts of t +- 2; norm +1 fields only.

    By gcds, not by factoring: (t+2)(t-2) = N*u^2, gcd(t+2, t-2) | 4 and N is
    squarefree, so kappa(a) = (odd part of gcd(a, N)) * 2^(v_2(a) mod 2), a
    divisor of 2N; a = kappa * r^2 certifies it."""
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("kappa invariants live in real fields")
    rec = _field_record(fld.N)
    if rec.kappa1 is None:
        raise NotApplicable(
            f"unit norm is -1 for N={fld.N}; kappa_i(t -+ 2) cannot be squares"
        )
    return rec.kappa1, rec.kappa2


def _kappa(a: int, N: int) -> int:
    g = math.gcd(a, N)
    odd = g >> (g & -g).bit_length() - 1
    kappa = odd << ((a & -a).bit_length() - 1) % 2  # doubled when v_2(a) is odd
    if a % kappa or not is_square(a // kappa):
        raise InternalInconsistency(f"{a} is not {kappa} times a square (N={N})")
    return kappa


def pell_witness(field_or_n, bound: int) -> tuple[int, int] | None:
    """Least (kappa, n) <= bound certifying unit norm +1, or None.

    A witness is squarefree kappa >= 2 and n >= 1 with kappa*n^2 - 4 > 0 not
    a square and kappa*(kappa*n^2 - 4) = N*s^2; least is lexicographic, with
    both kappa and n capped by `bound`.  No search is needed: for norm +1,
    `_kappa` certifies t + 2 = kappa_1*r^2, and (kappa_1, r) is the least.
    - It is a witness: kappa_1*r^2 - 4 = t - 2, and (t+2)(t-2) = N*u^2 gives
      kappa_1*(t - 2) = N*(u/r)^2.  kappa_1 >= 2 and t - 2 is not a square,
      or sqrt(eps) = (sqrt(t+2) + sqrt(t-2))/2 would be a unit.
    - Every witness (kappa, n) gives ((kappa*n^2 - 2) + n*s*sqrt(N))/2, a
      unit of norm 1 above 1, so eps^k with k >= 1 and trace
      t_k = kappa*n^2 - 2.  k is odd, or t_k + 2 = trace(eps^(k/2))^2 is no
      squarefree kappa >= 2 times a square.  kappa_1*eps^k is the square of
      a root of norm +kappa_1, so kappa_1*(t_k + 2) is a square: kappa =
      kappa_1 and n^2 = (t_k + 2)/kappa_1, which rises with k.  So n >= r,
      and no witness is in bound when (kappa_1, r) is not.
    Norm -1 fields have no witness at all.
    """
    fu = fundamental_unit(field_or_n)
    if fu.unit_norm == -1:
        return None
    kappa = _field_record(fu.N).kappa1
    r = math.isqrt((fu.t + 2) // kappa)
    return (kappa, r) if max(kappa, r) <= bound else None


class FieldRecord(NamedTuple):
    """The classification of one real field, on integers.

    eps = (t + u*sqrt(N))/2 and 1/eps are doubled coordinates (t, u).
    rows[i] = (key, p, q, n) holds g^deltas[i] = (p + q*sqrt(N))/2, of norm
    n, keyed by the squarefree part of |n|: at most four distinct keys.
    kappa1 and kappa2 are None when the unit norm is -1."""

    N: int
    field: QuadField
    case: str
    kappa1: int | None
    kappa2: int | None
    eps: tuple[int, int]
    inverse: tuple[int, int]
    deltas: tuple[tuple[int, int, int], ...]
    rows: tuple[tuple[int, int, int, int], ...]

    @property
    def generators(self) -> tuple[QuadInt, ...]:
        """The irrational generators: the one-bit rows, in delta order."""
        return tuple(
            _raw(self.field, p, q)
            for delta, (_, p, q, _) in zip(self.deltas, self.rows)
            if sum(delta) == 1
        )

    def delta_combos(self) -> tuple[tuple[int, int, int], ...]:
        return self.deltas


def _root_row(kappa: int, t2: int, t: int, u: int, N: int) -> tuple:
    """The row of sqrt(kappa * eps) > 0, t2 = t + 2 (norm +kappa) or t - 2
    (norm -kappa): p = isqrt(kappa * t2), p*q = kappa*u, and its square
    ((p^2 + N*q^2)/2, p*q) must be kappa * (t, u)."""
    p = math.isqrt(kappa * t2)
    q = kappa * u // p if p else 0
    if p * q != kappa * u or p * p + N * q * q != 2 * kappa * t:
        raise InternalInconsistency(f"no square root of {kappa}*eps in N={N}")
    return kappa, p, q, (p * p - N * q * q) // 4


def _product(a: tuple, b: tuple, key: int, N: int) -> tuple:
    """The row of the product of rows a and b, under the key of its norm."""
    _, p, q, n = a
    _, r, s, m = b
    return key, *_mul(p, q, r, s, N), n * m


@lru_cache(maxsize=None)
def _field_record(N: int) -> FieldRecord:
    """The record of real field N; a failed integer check is a bug."""
    fu = fundamental_unit(N)
    t, u = fu.t, fu.u
    root_n = (N, 0, 2, -N)
    k1 = k2 = None
    if fu.unit_norm == -1:
        case, gens = CASE_NORM_MINUS_ONE, {(1, 0, 0): root_n}
    else:
        k1, k2 = _kappa(t + 2, N), _kappa(t - 2, N)
        g1 = _root_row(k1, t + 2, t, u, N)
        g2 = _root_row(k2, t - 2, t, u, N)
        if k1 * k2 == N:
            case = CASE_KAPPA_PRODUCT_EQ_N
            gens = {(0, 1, 0): g1, (0, 0, 1): g2,
                    (0, 1, 1): _product(g1, g2, N, N)}
        elif N * k1 == k2:
            case = CASE_N_KAPPA1_EQ_KAPPA2
            gens = {(1, 0, 0): root_n, (0, 1, 0): g1,
                    (1, 1, 0): _product(root_n, g1, k2, N)}
        elif N * k2 == k1:
            case = CASE_N_KAPPA2_EQ_KAPPA1
            gens = {(1, 0, 0): root_n, (0, 0, 1): g2,
                    (1, 0, 1): _product(root_n, g2, k1, N)}
        else:
            case = CASE_ELSE
            gens = {(1, 0, 0): root_n, (0, 1, 0): g1, (0, 0, 1): g2}
        if len({1} | {key for key, _, _, _ in gens.values()}) != 4:
            raise InternalInconsistency(f"norm signatures collide for N={N}")
    for key, _, _, n in gens.values():
        if n % key or not is_square(abs(n) // key):
            raise InternalInconsistency(f"norm {n} is no {key} times a square, N={N}")
    inverse = (fu.unit_norm * t, -fu.unit_norm * u)  # N(eps) * conj(eps)
    deltas = ((0, 0, 0), *gens)
    rows = ((1, 2, 0, 1), *gens.values())
    return FieldRecord(N, field(N), case, k1, k2, (t, u), inverse, deltas, rows)


def generator_set(field_or_n) -> FieldRecord:
    """The per-field record of a real field."""
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("use complex_classify for imaginary fields")
    return _field_record(fld.N)


# ---------------------------------------------------------------------------
# canonical factorization


class CanonicalFactorization(NamedTuple):
    """x = ell * eps^m * prod(generators^delta), delta pinned to 0 off-case."""

    N: int
    ell: int
    m: int
    delta: tuple[int, int, int]
    case: str

    def __str__(self) -> str:
        return f"ell={self.ell} m={self.m} delta={''.join(map(str, self.delta))}"


def evaluate(fact: CanonicalFactorization) -> QuadInt:
    """ell * eps^m * g^delta from the field record; ValueError off its deltas."""
    N = fact.N
    rec = _field_record(N)
    _, p, q, _ = rec.rows[rec.deltas.index(fact.delta)]
    t, u = rec.eps if fact.m >= 0 else rec.inverse
    p, q = _power(p, q, t, u, abs(fact.m), N)
    return _raw(rec.field, p * fact.ell, q * fact.ell)


def canonical_factor(x: QuadInt) -> CanonicalFactorization:
    """The unique (ell, m, delta) with x = ell * eps^m * g^delta.

    delta's key is the one of at most four distinct squarefree keys k with
    |N(x)| = k * a square (exact roots; |N(x)| is never factorized).  Three
    exact steps on integer coordinates prove the answer, so it is not
    evaluated again: dividing by g^delta leaves no remainder (y * g^delta =
    x), dividing by ell leaves none (u * ell = y), and the descent checks
    that the eps^m it builds equals u.
    """
    N = x.N
    if N < 0:
        raise NotApplicable("canonical factorization needs a real field")
    if x.is_zero():
        raise ZeroElement("0 has no canonical factorization")
    n = x.norm()
    if x.p * x.p % n:
        raise NotADNumber(f"{x} is not a d-number")
    rec = _field_record(N)
    for delta, (key, gp, gq, gn) in zip(rec.deltas, rec.rows):
        if n % key == 0 and is_square(abs(n) // key):
            break
    else:
        raise InternalInconsistency(f"norm {n} is no key times a square, N={N}")
    # y = x/g^delta has |N(y)| = ell^2 and x's sign (g^delta, eps^m > 0), or
    # u = y/ell is no power of eps and the descent rejects it
    ell = math.isqrt(abs(n // gn)) * _sign(x.p, x.q, N)
    y = _quotient(x.p, x.q, gp, gq, gn, N)
    u = _quotient(*y, 2 * ell, 0, ell * ell, N) if y else None
    if u is None:  # every division here is certain: a failed one is a bug
        raise InternalInconsistency(f"{x} is no {ell} * g^{delta} * a unit, N={N}")
    m = _unit_exponent(*u, N, *rec.eps)
    return CanonicalFactorization(N, ell, m, delta, rec.case)


# ---------------------------------------------------------------------------
# divisibility with certificates


class DivisibilityVerdict(NamedTuple):
    divides: bool
    rejected_by: str | None  # "ell", "corollary", or "exact_divide"

    def __bool__(self) -> bool:
        return self.divides


def dnumber_divides(y: QuadInt, x: QuadInt) -> DivisibilityVerdict:
    """Does d-number y divide d-number x?  Cheap necessary filters first
    (integral parts must divide; the kappa-corollary bound outside the
    generic case, where it can misfire), exact division as the final
    authority.
    """
    if y.field != x.field:
        raise FieldMismatch(f"{y.field} vs {x.field}")
    if y.is_zero() or x.is_zero():
        raise ZeroElement("divisibility needs nonzero d-numbers")
    if not is_dnumber(y) or not is_dnumber(x):
        raise NotADNumber("both arguments must be d-numbers")
    fy = canonical_factor(y)
    fx = canonical_factor(x)
    if abs(fx.ell) % abs(fy.ell):
        return DivisibilityVerdict(False, "ell")
    if fx.case != CASE_ELSE:
        rec = generator_set(x.field)
        mults = (x.N, rec.kappa1, rec.kappa2)
        bound = abs(fy.ell)
        for i in range(3):
            if fy.delta[i] == 1 and fx.delta[i] == 0:
                bound *= mults[i]
        if abs(fx.ell) % bound:
            return DivisibilityVerdict(False, "corollary")
    try:
        exact_divide(x, y)
        return DivisibilityVerdict(True, None)
    except NotDivisible:
        return DivisibilityVerdict(False, "exact_divide")


# ---------------------------------------------------------------------------
# imaginary quadratic fields


class ComplexClassification(NamedTuple):
    N: int
    kind: str  # "Generic", "Gaussian", or "Eisenstein"
    description: str

    def member(self, x: QuadInt) -> bool:
        if x.N != self.N:
            raise FieldMismatch(f"expected N={self.N}, got N={x.N}")
        if x.is_zero():
            raise ZeroElement("0 is not a d-number")
        p, q = abs(x.p), abs(x.q)
        if self.kind == "Gaussian":
            return p == 0 or q == 0 or p == q
        if self.kind == "Eisenstein":
            return p == 0 or q == 0 or p == q or p == 3 * q
        return p == 0 or q == 0


def complex_classify(field_or_n) -> ComplexClassification:
    """Shape of the d-number set for N < 0: rational multiples of 1 and
    sqrt(N), plus the extra unit orbits in the Gaussian and Eisenstein
    rings."""
    fld = field(field_or_n)
    N = fld.N
    if N > 0:
        raise NotApplicable("complex_classify is for N < 0")
    if N == -1:
        return ComplexClassification(
            N, "Gaussian", "l * i^m * (1+i)^delta for l in Z, m in Z, delta in {0,1}"
        )
    if N == -3:
        return ComplexClassification(
            N,
            "Eisenstein",
            "l * w^m * (sqrt(-3))^delta with w = (1+sqrt(-3))/2, l in Z, "
            "m in Z, delta in {0,1}",
        )
    return ComplexClassification(
        N, "Generic", f"l * (sqrt({N}))^delta for l in Z, delta in {{0,1}}"
    )


# ---------------------------------------------------------------------------
# square classes of c * eps^j


def sqrt_classes(j_parity: int, field_or_n) -> frozenset[int]:
    """The squarefree c > 0 with c * eps^j the square of a d-number, for j
    of this parity: at most four integers, the same for every such j.

    Even j: 1 and N.  Odd j with unit norm +1: kappa_1 and kappa_2, and
    N*kappa_i where it is squarefree (the degenerate case, which collapses
    into the former; N and kappa_i are squarefree, so exactly when they are
    coprime).  Odd j with unit norm -1: none.
    """
    if j_parity not in (0, 1):
        raise ValueError("j_parity is 0 or 1")
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("square classes are a real-field notion")
    if j_parity == 0:
        return frozenset((1, fld.N))
    if fundamental_unit(fld).unit_norm == -1:
        return frozenset()
    k1, k2 = kappas(fld)
    return frozenset(
        [k1, k2] + [fld.N * k for k in (k1, k2) if math.gcd(fld.N, k) == 1]
    )
