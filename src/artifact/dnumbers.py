"""Classification and factorization of quadratic d-numbers.

A nonzero quadratic integer is a d-number exactly when its norm divides the
square of its trace.  Over a real field the d-numbers form a monoid with at
most three irrational generators beyond the rational integers and the
fundamental unit: sqrt(N) and square roots of kappa_i * eps, where kappa_1
and kappa_2 are the squarefree parts of t +- 2 (t the trace of eps).  Which
generators survive, and which products collapse, splits into five cases on
(kappa_1, kappa_2, N); everything here keys off that case split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .quadring import (
    FieldMismatch,
    InternalInconsistency,
    NotADNumber,
    NotApplicable,
    NotDivisible,
    QuadField,
    QuadInt,
    ZeroElement,
    exact_divide,
    field,
    make,
    squarefree_part,
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


def is_dnumber_via_charpoly(x: QuadInt) -> bool:
    """Independent route: coefficient divisibility on the characteristic
    polynomial of multiplication by x over the integral basis (1, omega).

    Used by the test suite to cross-validate `is_dnumber`; deliberately
    avoids the norm()/trace() helpers.
    """
    if x.is_zero():
        raise ZeroElement("0 is not a d-number")
    p, q, N = x.p, x.q, x.N
    if x.field.omega_kind == "HalfOnePlusSqrtN":
        # x = a + b*omega with omega^2 = omega + (N-1)/4
        a, b = (p - q) // 2, q
        m00, m10 = a, b
        m01, m11 = b * (N - 1) // 4, a + b
    else:
        # x = a' + b'*sqrt(N) in halves; doubled matrix keeps integers
        m00, m10 = p, q
        m01, m11 = q * N, p
    tr = m00 + m11
    det = m00 * m11 - m01 * m10
    if x.field.omega_kind != "HalfOnePlusSqrtN":
        assert tr % 2 == 0 and det % 4 == 0
        tr, det = tr // 2, det // 4
    # monic lambda^2 + a1*lambda + a2: need a1^2 divisible by a2^1
    a1, a2 = -tr, det
    return (a1 * a1) % a2 == 0


def dnumber_order(x: QuadInt) -> int:
    """1 for integer multiples of units, 2 for every other d-number."""
    if x.is_zero():
        raise ZeroElement("0 is not a d-number")
    if not is_dnumber(x):
        raise NotADNumber(f"{x} is not a d-number")
    n = abs(x.norm())
    s = math.isqrt(n)
    if s * s != n:
        return 2
    try:
        y = exact_divide(x, x.field.integer(s))
    except NotDivisible:
        return 2
    return 1 if abs(y.norm()) == 1 else 2


# ---------------------------------------------------------------------------
# kappa invariants and generator sets


def kappas(field_or_n) -> tuple[int, int]:
    """(kappa_1, kappa_2) = squarefree parts of t +- 2; norm +1 fields only."""
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("kappa invariants live in real fields")
    fu = fundamental_unit(fld)
    if fu.unit_norm == -1:
        raise NotApplicable(
            f"unit norm is -1 for N={fld.N}; kappa_i(t -+ 2) cannot be squares"
        )
    return squarefree_part(fu.t + 2), squarefree_part(fu.t - 2)


def _sqrt_kappa_eps(fld: QuadField, kappa: int, plus: bool) -> QuadInt:
    """The positive square root of kappa * eps in O_N.

    Its trace squares to kappa*(t+2) (norm +kappa) or kappa*(t-2)
    (norm -kappa); q then follows from p*q = kappa*u.
    """
    fu = fundamental_unit(fld)
    t2 = fu.t + 2 if plus else fu.t - 2
    p = math.isqrt(kappa * t2)
    if p == 0 or (kappa * fu.u) % p:
        raise InternalInconsistency(f"no square root of {kappa}*eps in N={fld.N}")
    q = kappa * fu.u // p
    root = make(fld, p, q)
    if root * root != fu.eps * kappa:
        raise InternalInconsistency(f"square-root check failed for N={fld.N}")
    return root


@dataclass(frozen=True)
class GeneratorSet:
    """Irrational generators of the d-number monoid of one real field."""

    N: int
    case: str
    kappa1: int | None
    kappa2: int | None
    generators: tuple[QuadInt, ...]
    delta_slots: tuple[int, ...]  # which delta coordinate each generator holds
    signature_map: dict  # squarefree part of |norm| -> canonical delta triple

    def delta_combos(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(self.signature_map.values())

    def evaluate_delta(self, delta: tuple[int, int, int]) -> QuadInt:
        out = field(self.N).one()
        for g, slot in zip(self.generators, self.delta_slots):
            if delta[slot]:
                out = out * g
        return out


@lru_cache(maxsize=None)
def _generator_set_cached(N: int) -> GeneratorSet:
    fld = field(N)
    fu = fundamental_unit(fld)
    root_n = fld.sqrt_n()
    if fu.unit_norm == -1:
        return GeneratorSet(
            N, CASE_NORM_MINUS_ONE, None, None,
            (root_n,), (0,),
            {1: (0, 0, 0), N: (1, 0, 0)},
        )
    k1, k2 = kappas(fld)
    g1 = _sqrt_kappa_eps(fld, k1, plus=True)
    g2 = _sqrt_kappa_eps(fld, k2, plus=False)
    if k1 * k2 == N:
        case, gens, slots = CASE_KAPPA_PRODUCT_EQ_N, (g1, g2), (1, 2)
        sig = {1: (0, 0, 0), k1: (0, 1, 0), k2: (0, 0, 1), N: (0, 1, 1)}
    elif N * k1 == k2:
        case, gens, slots = CASE_N_KAPPA1_EQ_KAPPA2, (root_n, g1), (0, 1)
        sig = {1: (0, 0, 0), N: (1, 0, 0), k1: (0, 1, 0), k2: (1, 1, 0)}
    elif N * k2 == k1:
        case, gens, slots = CASE_N_KAPPA2_EQ_KAPPA1, (root_n, g2), (0, 2)
        sig = {1: (0, 0, 0), N: (1, 0, 0), k2: (0, 0, 1), k1: (1, 0, 1)}
    else:
        case, gens, slots = CASE_ELSE, (root_n, g1, g2), (0, 1, 2)
        sig = {1: (0, 0, 0), N: (1, 0, 0), k1: (0, 1, 0), k2: (0, 0, 1)}
    if len(sig) != 4:
        raise InternalInconsistency(f"norm signatures collide for N={N}")
    return GeneratorSet(N, case, k1, k2, gens, slots, sig)


def generator_set(field_or_n) -> GeneratorSet:
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("use complex_classify for imaginary fields")
    return _generator_set_cached(fld.N)


# ---------------------------------------------------------------------------
# canonical factorization


@dataclass(frozen=True)
class CanonicalFactorization:
    """x = ell * eps^m * prod(generators^delta), delta pinned to 0 off-case."""

    N: int
    ell: int
    m: int
    delta: tuple[int, int, int]
    case: str

    def __str__(self) -> str:
        return f"ell={self.ell} m={self.m} delta={''.join(map(str, self.delta))}"


def evaluate(fact: CanonicalFactorization) -> QuadInt:
    gs = generator_set(fact.N)
    eps = fundamental_unit(fact.N).eps
    return gs.evaluate_delta(fact.delta) * (eps**fact.m) * fact.ell


def _unit_exponent(u: QuadInt, fld: QuadField) -> int:
    """m with u = eps^m, for u a power of the fundamental unit.

    Floating-point log estimate, then exact verification with a widening
    scan around it.
    """
    if u == 1:
        return 0
    fu = fundamental_unit(fld)
    log_eps = math.log(fu.t) - math.log(2) if fu.t > 4 else math.log(
        (fu.t + fu.u * math.sqrt(fld.N)) / 2
    )
    tr = abs(u.trace())
    est = max(1, round(math.log(tr) / log_eps)) if tr >= 2 else 1
    if u < 1:
        est = -est
    for width in (2, 8, 32, 128):
        for m in range(est - width, est + width + 1):
            if fu.eps**m == u:
                return m
    raise InternalInconsistency(f"{u} is not a power of eps_{fld.N}")


def canonical_factor(x: QuadInt) -> CanonicalFactorization:
    """The unique (ell, m, delta) with x = ell * eps^m * generators^delta."""
    if x.N < 0:
        raise NotApplicable("canonical factorization needs a real field")
    if x.is_zero():
        raise ZeroElement("0 has no canonical factorization")
    if not is_dnumber(x):
        raise NotADNumber(f"{x} is not a d-number")
    fld = x.field
    gs = generator_set(fld)
    sig = squarefree_part(abs(x.norm()))
    delta = gs.signature_map.get(sig)
    if delta is None:
        raise InternalInconsistency(
            f"norm signature {sig} matches no generator product for N={fld.N}"
        )
    y = exact_divide(x, gs.evaluate_delta(delta))
    ny = abs(y.norm())
    s = math.isqrt(ny)
    if s * s != ny:
        raise InternalInconsistency(f"residual norm {ny} is not a square")
    ell = s if y.sign() > 0 else -s
    u = exact_divide(y, fld.integer(ell))
    m = _unit_exponent(u, fld)
    fact = CanonicalFactorization(fld.N, ell, m, delta, gs.case)
    if evaluate(fact) != x:
        raise InternalInconsistency(f"round trip failed for {x}")
    return fact


# ---------------------------------------------------------------------------
# divisibility with certificates


@dataclass(frozen=True)
class DivisibilityVerdict:
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
        gs = generator_set(x.field)
        mults = (x.N, gs.kappa1, gs.kappa2)
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


@dataclass(frozen=True)
class ComplexClassification:
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
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
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


def sqrt_class(c: int, j_parity: int, field_or_n) -> bool:
    """Is c * eps^j (c squarefree > 0) the square of a d-number in this field?

    Even j: c must be 1 or N.  Odd j with unit norm +1: c must be kappa_1 or
    kappa_2 (or N*kappa_i in the degenerate squarefree case, which collapses
    into the former).  Odd j with unit norm -1: never.
    """
    if c <= 0 or squarefree_part(c) != c:
        raise ValueError("c must be positive and squarefree")
    if j_parity not in (0, 1):
        raise ValueError("j_parity is 0 or 1")
    fld = field_or_n if isinstance(field_or_n, QuadField) else field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("square classes are a real-field notion")
    if j_parity == 0:
        return c in (1, fld.N)
    fu = fundamental_unit(fld)
    if fu.unit_norm == -1:
        return False
    k1, k2 = kappas(fld)
    allowed = {k1, k2}
    for nk in (fld.N * k1, fld.N * k2):
        if squarefree_part(nk) == nk:
            allowed.add(nk)
    return c in allowed
