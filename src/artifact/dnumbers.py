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
It is the one source of eps and N(eps) for the layers above `units`, and
the one refusal of N < 0: an imaginary field has no unit, so building its
record raises NotApplicable.  Each operation that needs eps reads the record
before it looks at its argument, so for N < 0 it raises NotApplicable
whatever the element is: zero, a d-number or not.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .quadring import (
    InternalInconsistency,
    NotADNumber,
    NotApplicable,
    NotDivisible,
    QuadField,
    QuadInt,
    ZeroElement,
    _content,
    _mul,
    _power,
    _quotient,
    _raw,
    _same_field,
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
    """1 for integer multiples of units, 2 for every other d-number.

    1 exactly when |N(x)| = c^2, c the content of x (`quadring._content`).
    If x = ell*v with v a unit, v is primitive (c' | v gives c'^2 | N(v) =
    +-1), so c = |ell| and |N(x)| = ell^2.  If |N(x)| = c^2, x/c is in the
    ring with norm +-1, so it is a unit (its inverse is +-conj(x/c))."""
    if not is_dnumber(x):
        raise NotADNumber(f"{x} is not a d-number")
    n = abs(x.norm())
    c = _content(x.p, x.q, x.N, n)
    return 1 if n == c * c else 2


# ---------------------------------------------------------------------------
# kappa invariants and the per-field record


def kappas(field_or_n) -> tuple[int, int]:
    """(kappa_1, kappa_2) = squarefree parts of t +- 2; norm +1 fields only.

    By gcds, not by factoring: (t+2)(t-2) = N*u^2, gcd(t+2, t-2) | 4 and N is
    squarefree, so kappa(a) = (odd part of gcd(a, N)) * 2^(v_2(a) mod 2), a
    divisor of 2N; a = kappa * r^2 certifies it."""
    rec = _field_record(field(field_or_n).N)
    if rec.kappa1 is None:
        raise NotApplicable(
            f"unit norm is -1 for N={rec.N}; kappa_i(t -+ 2) cannot be squares"
        )
    return rec.kappa1, rec.kappa2


def _kappa(a: int, N: int) -> int:
    g = math.gcd(a, N)
    odd = g >> (g & -g).bit_length() - 1
    kappa = odd << ((a & -a).bit_length() - 1) % 2  # doubled when v_2(a) is odd
    if a % kappa or not is_square(a // kappa):
        raise InternalInconsistency(f"{a} is not {kappa} times a square (N={N})")
    return kappa


def pell_witness(field_or_n) -> tuple[int, int] | None:
    """The least (kappa, n) certifying unit norm +1; None for norm -1.

    A witness is squarefree kappa >= 2 and n >= 1 with kappa*n^2 - 4 > 0 not
    a square and kappa*(kappa*n^2 - 4) = N*s^2; least is lexicographic.  No
    search is needed: for norm +1, `_kappa` certifies t + 2 = kappa_1*r^2,
    and (kappa_1, r) is the least.
    - It is a witness: kappa_1*r^2 - 4 = t - 2, and (t+2)(t-2) = N*u^2 gives
      kappa_1*(t - 2) = N*(u/r)^2.  kappa_1 >= 2 and t - 2 is not a square,
      or sqrt(eps) = (sqrt(t+2) + sqrt(t-2))/2 would be a unit.
    - Every witness (kappa, n) gives ((kappa*n^2 - 2) + n*s*sqrt(N))/2, a
      unit of norm 1 above 1, so eps^k with k >= 1 and trace
      t_k = kappa*n^2 - 2.  k is odd, or t_k + 2 = trace(eps^(k/2))^2 is no
      squarefree kappa >= 2 times a square.  kappa_1*eps^k is the square of
      a root of norm +kappa_1, so kappa_1*(t_k + 2) is a square: kappa =
      kappa_1 and n^2 = (t_k + 2)/kappa_1, which rises with k.  So n >= r.
    Norm -1 fields have no witness at all.
    """
    rec = generator_set(field_or_n)
    if rec.unit_norm == -1:
        return None
    return rec.kappa1, math.isqrt((rec.eps[0] + 2) // rec.kappa1)


class FieldRecord(NamedTuple):
    """The classification of one real field, on integers.

    eps = (t + u*sqrt(N))/2 as (t, u), and unit_norm = N(eps) = +-1, so
    1/eps = N(eps) * conj(eps).
    rows[i] = (key, p, q, n) holds g^deltas[i] = (p + q*sqrt(N))/2, of norm
    n = +-key with key squarefree: at most four distinct keys.
    kappa1 and kappa2 are None when the unit norm is -1."""

    N: int
    field: QuadField
    case: str
    kappa1: int | None
    kappa2: int | None
    eps: tuple[int, int]
    unit_norm: int
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
        if abs(n) != key:
            raise InternalInconsistency(f"norm {n} is not +-{key}, N={N}")
    deltas = ((0, 0, 0), *gens)
    rows = ((1, 2, 0, 1), *gens.values())
    return FieldRecord(N, field(N), case, k1, k2, (t, u), fu.unit_norm, deltas, rows)


def generator_set(field_or_n) -> FieldRecord:
    """The per-field record of a real field; NotApplicable for N < 0."""
    return _field_record(field(field_or_n).N)


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
    N, ell, m, delta, _ = fact
    rec = _field_record(N)
    _, p, q, _ = rec.rows[rec.deltas.index(delta)]
    t, u = rec.eps
    if m < 0:  # 1/eps = N(eps) * conj(eps)
        t, u = rec.unit_norm * t, -rec.unit_norm * u
    p, q = _power(p, q, t, u, abs(m), N)
    return _raw(rec.field, p * ell, q * ell)


def canonical_factor(x: QuadInt) -> CanonicalFactorization:
    """The unique (ell, m, delta) with x = ell * eps^m * g^delta.

    |ell| is the content c of x (`quadring._content`) and delta is the row
    keyed |N(x)|/c^2, so no square root is taken.  Every key is squarefree
    (1, N, kappa_1, kappa_2 or a squarefree product of two of them), and the
    record checks |N(g^delta)| = key on every row.  So, in the paper's form:
    - g^delta is primitive (no integer > 1 divides it): c' | y gives
      c'^2 | N(y), and a squarefree norm has no square factor c'^2 > 1;
    - eps^m * g^delta is primitive, since eps^-m is in the ring;
    - so c = |ell|, as gcd(p, q) scales by |ell| and the parities of p and
      q over it stay; then |N(x)| = c^2 * key, and the keys are distinct.
    Exact steps on integer coordinates prove x = ell*eps^m*g^delta, so it
    is not evaluated again: ell = c * sign(x) divides x in the ring, so
    z = x/ell; z * conj(g^delta) halves exactly as g^delta is in the ring;
    dividing z by g^delta leaves no remainder (u * g^delta = z); and the
    descent checks that the eps^m it builds equals u.  The quotient and the
    descent run on eps^m * g^delta, whatever ell's size.
    """
    N, p, q = x.field.N, x.p, x.q
    rec = _field_record(N)
    if not (p or q):
        raise ZeroElement("0 has no canonical factorization")
    pp = p * p
    n = pp - N * q * q
    if n % 4:
        raise InternalInconsistency(f"{x!r} has a non-integral norm")
    n = abs(n) >> 2
    if pp % n:
        raise NotADNumber(f"{x} is not a d-number")
    c = _content(p, q, N, n)
    key, rem = divmod(n, c * c)
    for delta, (k, gp, gq, gn) in zip(rec.deltas, rec.rows):
        if k == key == abs(gn) and not rem:
            break
    else:
        raise InternalInconsistency(f"no row of norm +-{n}/{c}^2 for {x}, N={N}")
    ell = c * _sign(p, q, N)
    u = _quotient(p // ell, q // ell, gp, gq, gn, N)
    if u is None:
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
    authority.  The canonical forms of y, then x, refuse a bad argument.
    """
    _same_field(y, x)
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


def complex_classify(field_or_n) -> ComplexClassification:
    """Shape of the d-number set for N < 0: rational multiples of 1 and
    sqrt(N), plus the extra unit orbits in the Gaussian and Eisenstein
    rings.  Membership is `is_dnumber`, as in every field."""
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
    rec = _field_record(field(field_or_n).N)
    if j_parity not in (0, 1):
        raise ValueError("j_parity is 0 or 1")
    if j_parity == 0:
        return frozenset((1, rec.N))
    if rec.unit_norm == -1:
        return frozenset()
    k1, k2 = rec.kappa1, rec.kappa2
    return frozenset(
        [k1, k2] + [rec.N * k for k in (k1, k2) if math.gcd(rec.N, k) == 1]
    )
