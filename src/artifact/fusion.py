"""Arithmetic screens for candidate fusion-category dimensions.

Everything here is number theory on the global dimension: quantum
integers for a unit, the solver splitting a candidate global dimension
ell * eps^m into an integral part plus objects of squared dimension
c * eps^j, dimension formulas for the near-group / Haagerup-Izumi /
generalized near-group families, and the small-dimension screen that
matches a target against sums of 4cos^2(pi/n).  No category theory is
performed or implied; a survivor here has merely not been ruled out by
arithmetic.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_right
from typing import NamedTuple

from .dnumbers import (
    CanonicalFactorization,
    evaluate,
    generator_set,
    is_dnumber,
    sqrt_classes,
)
from .dplus import in_dplus
from .quadring import (
    InternalInconsistency,
    NotApplicable,
    NotInDPlus,
    QuadField,
    QuadInt,
    Rejected,
    _floor_quadratic,
    _mul,
    _power,
    _radical_sub,
    _sign,
    divisors,
    exact_divide,
    field,
    make,
    radical_sign,
    squarefree_decompose,
)
from .units import fundamental_unit

# ---------------------------------------------------------------------------
# quantum integers


class QuantumInt(NamedTuple):
    """[m] = (eps^m - eps^-m)/(eps - eps^-1), always an algebraic integer."""

    field: QuadField
    m: int
    value: QuadInt


def _quantum_ints(fld: QuadField):
    """Yield the doubled coordinates (p, q) of [0], [1], ... by the integer
    recurrence [k+1] = s*[k] - [k-1], from [-1] = -1 and [0] = 0, with s =
    eps + eps^-1 = t for unit norm +1, else u*sqrt(N); only the last two
    rows are kept.  Each [k] must be rational (q = 0) when the norm is +1
    or k is odd, else in Z*sqrt(N) (p = 0): InternalInconsistency if not."""
    fu = fundamental_unit(fld)
    N, s = fld.N, (2 * fu.t, 0) if fu.unit_norm == 1 else (0, 2 * fu.u)
    (p0, q0), (p, q) = (-2, 0), (0, 0)
    for k in itertools.count():
        if (q if fu.unit_norm == 1 or k % 2 else p) != 0:
            raise InternalInconsistency(f"[{k}] has the wrong shape for N={N}")
        yield p, q
        x, y = _mul(*s, p, q, N)
        (p0, q0), (p, q) = (p, q), (x - p0, y - q0)


def quantum_int(field_or_n, m: int) -> QuantumInt:
    """[m] = (eps^m - eps^-m)/(eps - eps^-1) = -[-m], the |m|-th row of
    _quantum_ints, which asserts each [k]'s shape on integers."""
    fld = field(field_or_n)
    if fld.N < 2:
        raise NotApplicable("quantum integers need a real field")
    p, q = next(itertools.islice(_quantum_ints(fld), abs(m), None))
    return QuantumInt(fld, m, make(fld, p, q) if m >= 0 else make(fld, -p, -q))


# ---------------------------------------------------------------------------
# global-dimension decomposition


class Decomposition(NamedTuple):
    """d_int + sum_j ell_j * eps^j = ell * eps^m with every ell_j >= 0."""

    field: QuadField
    target: CanonicalFactorization
    d_int: int
    coeffs: tuple[tuple[int, int], ...]  # (j, ell_j), ascending j, nonzero only


class DecompositionScan(NamedTuple):
    """Solver outcome plus the size of the raw search space it covered."""

    field: QuadField
    target: CanonicalFactorization
    candidates_scanned: int
    solutions: tuple[Decomposition, ...]


def _last_coefficients(
    rp: int, rq: int, terms: list[tuple[int, int, int]]
) -> list[list[tuple[int, int]]]:
    """Every list of ell_j >= 0, ascending j, with (rp + rq*sqrt(N))/2 =
    sum ell_j * eps^j over at most three terms (j, P, Q), eps^j = (P +
    Q*sqrt(N))/2; three terms a < b < c need b - a = c - b.

    Cramer's rule (det != 0: eps^a, eps^b are independent over Q) writes
    rem = X*eps^b + Y*eps^a, a solution for two terms when X, Y are
    integers >= 0.  For three, e = eps^(b-a) has norm 1 (b - a is even
    when N(eps) = -1), so eps^c + eps^a = (e + 1/e)*eps^b = T*eps^b with
    T = trace(e) = (P_a + P_c)/P_b, and rem - ell_c*eps^c = (X -
    T*ell_c)*eps^b + (Y + ell_c)*eps^a: integral for every ell_c or for
    none, and >= 0 exactly for ell_c in [max(0, -Y), floor(X/T)].  One
    term: (rp, rq) = ell_j * (P, Q).  No term: rem = 0.
    """
    if len(terms) >= 2:
        (a, p0, q0), (b, p1, q1), *rest = terms
        det = p0 * q1 - p1 * q0
        y, ry = divmod(rp * q1 - p1 * rq, det)
        x, rx = divmod(p0 * rq - rp * q0, det)
        if ry or rx:
            return []
        if not rest:
            return [[(a, y), (b, x)]] if x >= 0 and y >= 0 else []
        [(c, p2, _)] = rest
        T = (p0 + p2) // p1
        return [
            [(a, y + lc), (b, x - T * lc), (c, lc)]
            for lc in range(max(0, -y), x // T + 1)
        ]
    if terms:
        [(a, p, q)] = terms
        la, ra = divmod(rq, q)
        return [] if ra or la < 0 or la * p != rp else [[(a, la)]]
    return [] if rp or rq else [[]]


def decompose_global_dim(
    field_or_n, ell: int, m: int, divisor_constraint: int | None = None
) -> DecompositionScan:
    """All ways to write ell * eps^m as d_int + sum ell_j * eps^j.

    d_int ranges over the divisors of divisor_constraint (default, when it
    is None: of ell); j over every j >= 1 with eps^j <= target, even j only
    when the unit norm is -1, each eps^j built once on doubled coordinates.
    A walk fixes ell_j from the largest j down to the fourth smallest.
    Every j it visits has sigma(eps^j) = eps^-j > 0, so a remainder must
    stay >= 0 in both real embeddings: ell_j is capped by the floor of the
    smaller embedding of rem * eps^-j, and by r_q // Q_j for rem = (r_p +
    r_q*sqrt(N))/2, since every term has Q > 0 and the final remainder has
    q = 0, so sum ell_j * Q_j = r_q exactly.  _last_coefficients then lists
    the last three exactly, an interval of the third smallest per node.
    candidates_scanned is still the raw box size, the number of d_int times
    the product of the caps floor(target * eps^-j).  Every solution is
    re-checked on integer coordinates, both of them, against the target and
    against the quantum-integer identity [m]*d_int = sum ell_j * [j-m],
    with [0], ..., [K] taken from _quantum_ints.
    """
    fld = field(field_or_n)
    if ell < 1 or m < 0:
        raise ValueError("need ell >= 1 and m >= 0")
    if divisor_constraint is not None and divisor_constraint < 1:
        raise ValueError(
            f"divisor_constraint must be >= 1, got {divisor_constraint}"
        )
    fu = fundamental_unit(fld)
    fact = CanonicalFactorization(fld.N, ell, m, (0, 0, 0), generator_set(fld).case)
    target = evaluate(fact)
    if not in_dplus(target):
        raise NotInDPlus(f"{target} = {ell}*eps^{m} is not a dominant d-number")
    N, tp, tq = fld.N, target.p, target.q
    pool = divisors(ell if divisor_constraint is None else divisor_constraint)
    # (j, P, Q) with eps^j = (P + Q*sqrt(N))/2 <= target and, j being even
    # when the unit norm is -1, eps^-j = (P - Q*sqrt(N))/2; the first three
    # close the walk.  The box has one cap floor(target * eps^-j) per j.
    terms, scanned = [], len(pool)
    j, P, Q = 1, fu.t, fu.u
    while _sign(tp - P, tq - Q, N) >= 0:
        if fu.unit_norm == 1 or j % 2 == 0:
            terms.append((j, P, Q))
            scanned *= _floor_quadratic(*_mul(tp, tq, P, -Q, N), N, 2)
        j, (P, Q) = j + 1, _mul(P, Q, fu.t, fu.u, N)
    solutions: list[Decomposition] = []

    def walk(idx: int, rp: int, rq: int, chosen: list[tuple[int, int]]) -> None:
        # chosen holds the (j, ell_j) fixed so far, ascending j
        if idx < 3:
            for last in _last_coefficients(rp, rq, terms[: idx + 1]):
                coeffs = tuple((j, lj) for j, lj in last + chosen if lj)
                solutions.append(Decomposition(fld, fact, d, coeffs))
            return
        j, p, q = terms[idx]
        # rem * eps^-j = (x + y*sqrt(N))/2 with eps^-j = (p - q*sqrt(N))/2
        x, y = _mul(rp, rq, p, -q, N)
        top = min(_floor_quadratic(x, -abs(y), N, 2), rq // q)
        for lj in range(top, -1, -1):
            walk(idx - 1, rp - lj * p, rq - lj * q, [(j, lj)] + chosen)

    for d in pool:
        walk(len(terms) - 1, tp - 2 * d, tq, [])

    if solutions:  # [m] and every [j - m] a solution uses, from one table
        power = {j: (P, Q) for j, P, Q in terms}
        K = max([m] + [abs(j - m) for s in solutions for j, _ in s.coeffs])
        qint = list(itertools.islice(_quantum_ints(fld), K + 1))
        mp, mq = qint[m]
    for sol in solutions:  # d_int + sum ell_j*eps^j and sum ell_j*[j - m]
        rp, rq, sp, sq = 2 * sol.d_int, 0, 0, 0
        for j, lj in sol.coeffs:
            (P, Q), (qp, qq) = power[j], qint[abs(j - m)]
            lq = lj if j >= m else -lj
            rp, rq, sp, sq = rp + lj * P, rq + lj * Q, sp + lq * qp, sq + lq * qq
        if (rp, rq) != (tp, tq) or (mp * sol.d_int, mq * sol.d_int) != (sp, sq):
            raise InternalInconsistency(f"solver check failed on {sol}")
    solutions.sort(key=lambda s: (-s.d_int, s.coeffs))
    return DecompositionScan(fld, fact, scanned, tuple(solutions))


# ---------------------------------------------------------------------------
# simple-dimension refinement


class SimpleDimProfile(NamedTuple):
    """One way to split each ell_j into simple squared dimensions c*eps^j."""

    decomposition: Decomposition
    parts: tuple[tuple[int, int], ...]  # (c, j) per non-integral simple object


def _partitions(total: int, parts: list[int], j: int):
    """Yield the partitions of total into the distinct ascending parts as
    (c, j) pairs, c descending, in ascending order (see refine_simple_dims)."""

    def rec(rest: int, top: int, acc: tuple):
        for i in range(min(top, bisect_right(parts, rest))):  # largest part c
            c, pair = parts[i], ((parts[i], j),)
            for k in range(1, rest // c + 1):  # and its count
                if rest == k * c:
                    yield acc + pair * k
                elif i:  # parts below c remain
                    yield from rec(rest - k * c, i, acc + pair * k)

    return rec(total, len(parts), ())


def refine_simple_dims(
    d: Decomposition, apply_modular_filter: bool = False
) -> list[SimpleDimProfile]:
    """Split every ell_j into parts c with sqrt(c * eps^j) a d-number.

    The parts are the c = c0 * k^2 <= ell_j for the squarefree classes c0
    that sqrt_classes admits for the parity of j, so no part is factorized;
    the c0 are distinct and squarefree, so the c are distinct.  The
    optional filter additionally requires target/(c * eps^j) to be an
    algebraic integer.  The target is ell * eps^m and eps is a unit, so
    that is ell/c in the ring: a rational algebraic integer, so c | ell.
    Listed j by j with c descending, the profiles come in ascending order
    with no sort: each ell_j's partitions come in ascending order (by
    largest part, then by its count, since a longer run of it compares
    above a shorter run and a smaller part), and none is a prefix of
    another.
    """
    per_j = []
    for j, lj in d.coeffs:
        parts = sorted(
            c0 * k * k
            for c0 in sqrt_classes(j % 2, d.field)
            for k in range(1, math.isqrt(lj // c0) + 1)
        )
        if apply_modular_filter:
            parts = [c for c in parts if d.target.ell % c == 0]
        choices = list(_partitions(lj, parts, j))
        if not choices:
            return []
        per_j.append(choices)
    if len(per_j) == 1:  # one j: its partition reversed lists c ascending
        return [SimpleDimProfile(d, parts[::-1]) for parts in per_j[0]]
    return [
        SimpleDimProfile(d, tuple(sorted(sum(parts, ()))))
        for parts in itertools.product(*per_j)
    ]


# ---------------------------------------------------------------------------
# dimension formulas for known families


def tambara_yamagami_dim(group_order: int) -> int:
    """Global dimension 2|G| of the weakly integral n=0 near-group case."""
    if group_order < 1:
        raise ValueError("group order must be positive")
    return 2 * group_order


def near_group_dim(group_order: int, n: int) -> tuple[QuadInt, QuadInt, bool]:
    """(rho^2, global dimension, unit check) for a near-group fusion rule.

    rho is the largest root of x^2 - n|G|x - |G|; the global dimension is
    sqrt(n^2|G|^2 + 4|G|) * rho; the check confirms rho^2/|G| is a unit.
    """
    if group_order < 1:
        raise ValueError("group order must be positive")
    if n < 1:
        raise ValueError("n must be >= 1; the n=0 case is tambara_yamagami_dim")
    disc = n * n * group_order * group_order + 4 * group_order
    s, f = squarefree_decompose(disc)
    fld = field(f)
    rho = make(fld, n * group_order, s)
    rho_sq = rho * rho
    cat = make(fld, 0, 2 * s) * rho
    quotient = exact_divide(rho_sq, fld.integer(group_order))
    return rho_sq, cat, abs(quotient.norm()) == 1


def haagerup_izumi_dim(group_order: int) -> tuple[QuadInt, QuadInt]:
    """(rho, global dimension |G|(1 + rho^2)) with rho = (|G|+sqrt(|G|^2+4))/2.

    rho is always a unit of norm -1 in its field; asserted, along with the
    identity 1 + rho^2 = |G|*rho + 2.
    """
    if group_order < 1:
        raise ValueError("group order must be positive")
    s, f = squarefree_decompose(group_order * group_order + 4)
    fld = field(f)
    rho = make(fld, group_order, s)
    if rho.norm() != -1:
        raise InternalInconsistency(f"rho for |G|={group_order} is not norm -1")
    one_plus_sq = fld.one() + rho * rho
    if one_plus_sq != rho * group_order + 2:
        raise InternalInconsistency("1 + rho^2 != |G|*rho + 2")
    return rho, one_plus_sq * group_order


def generalized_near_group_check(
    group_order: int, stabilizer_order: int, big_k: int
):
    """(rho, global dimension) for the generalized near-group shape, or
    Rejected when the stabilizer order does not divide K^2.

    rho is the largest root of x^2 - Kx - |G_rho| and the dimension is
    [G : G_rho] * (rho^2 + |G_rho|).  rho degenerates to a rational
    integer when K^2 + 4|G_rho| is a perfect square.
    """
    if group_order < 1 or stabilizer_order < 1 or big_k < 0:
        raise ValueError("orders must be positive and K nonnegative")
    if group_order % stabilizer_order:
        raise ValueError("stabilizer order must divide the group order")
    if (big_k * big_k) % stabilizer_order:
        raise Rejected(
            f"|G_rho|={stabilizer_order} does not divide K^2={big_k * big_k}"
        )
    index = group_order // stabilizer_order
    s, f = squarefree_decompose(big_k * big_k + 4 * stabilizer_order)
    if f == 1:
        rho = (big_k + s) // 2
        return rho, index * (rho * rho + stabilizer_order)
    fld = field(f)
    rho = make(fld, big_k, s)
    if not is_dnumber(rho):
        raise InternalInconsistency(f"rho={rho} is not a d-number")
    return rho, (rho * rho + stabilizer_order) * index


# ---------------------------------------------------------------------------
# the small-dimension screen
#
# A value v is stored doubled, as {radicand: coefficient} integers with
# v = (sum c*sqrt(r))/2, radicand 1 holding the rational part.  The screen
# adds and subtracts such sums and asks only `radical_sign`, which is exact.
#
# Only n with phi(n) <= 4 can occur, by Lehmer (1933): 2cos(2pi/n) has
# degree phi(n)/2, so 4cos^2(pi/n) = 2 + 2cos(2pi/n) is rational or
# quadratic exactly for n in {3, 4, 5, 6, 8, 10, 12}, and 2cos(pi/n) =
# 2cos(2pi/(2n)) exactly for n <= 6.  No candidate is lost without the rest:
# - Every other n >= 7 gives a value of degree >= 3 and at least
#   4cos^2(pi/7) > 3.24.  With any second part (each part is >= 1) the sum
#   exceeds 4 > target - 1; alone it cannot equal the quadratic target - 1.
# - In the tensor-square test, the dims for n = 8, 10, 12 have degree 4 and
#   are above 1.84.  With any other dim (each is >= 1) they exceed every
#   need, the largest being 4cos^2(pi/12) - 1 = 1 + sqrt(3) < 2.74; alone
#   none of them equals a quadratic need.

# 4cos^2(pi/n), doubled
_EXACT_COS_SQUARES = {
    3: {1: 2},
    4: {1: 4},
    5: {1: 3, 5: 1},
    6: {1: 6},
    8: {1: 4, 2: 2},
    10: {1: 5, 5: 1},
    12: {1: 4, 3: 2},
}

# 2cos(pi/n), doubled
_EXACT_COS_DIMS = {
    3: {1: 2},
    4: {2: 2},
    5: {1: 1, 5: 1},
    6: {3: 2},
}


def _combinations(need: dict, parts: list[dict]):
    """Yield every tuple of counts k_i >= 0 with sum k_i * parts[i] == need,
    for positive parts, k_0 slowest and each k_i ascending."""

    def rec(idx: int, rest: dict, counts: tuple[int, ...]):
        # returns whether rest >= 0, so the caller stops raising k at False
        sign = radical_sign(rest)
        if sign < 0:
            return False
        if idx == len(parts):
            if sign == 0:
                yield counts
            return True
        k = 0
        while (yield from rec(idx + 1, rest, counts + (k,))):
            rest, k = _radical_sub(rest, parts[idx]), k + 1
        return True

    return rec(0, need, ())


def _tensor_square_consistent(members: tuple[int, ...]) -> bool:
    """Necessary fusion condition on a candidate simple-dimension multiset:
    for each member X, dim(X)^2 - 1 must be a nonnegative-integer
    combination of the members' dimensions (X (x) dual(X) minus the unit)."""
    kinds = sorted(set(members))
    dims = [_EXACT_COS_DIMS[n] for n in kinds if n <= 6]
    for n in kinds:
        need = _radical_sub(_EXACT_COS_SQUARES[n], {1: 2})
        if next(_combinations(need, dims), None) is None:
            return False
    return True


def kronecker_screen(
    target: QuadInt, apply_tensor_filter: bool = True
) -> list[tuple[int, ...]]:
    """Multisets {n_i} with 1 + sum 4cos^2(pi/n_i) = target, arithmetic-
    consistent under the tensor-square condition; empty means the target
    is eliminated as a global dimension built from dimensions below 2.

    Requires the target to be a dominant d-number with target - 1 < 4.
    """
    if not in_dplus(target):
        raise NotInDPlus(f"{target} is not a dominant d-number")
    if _sign(target.p - 10, target.q, target.N) >= 0:
        raise NotApplicable("screen needs target - 1 < 4")
    goal = {1: target.p - 2, target.N: target.q}  # target - 1, doubled
    ns = sorted(_EXACT_COS_SQUARES, reverse=True)
    survivors = [
        tuple(sorted(n for n, k in zip(ns, counts) for _ in range(k)))
        for counts in _combinations(goal, [_EXACT_COS_SQUARES[n] for n in ns])
    ]
    if apply_tensor_filter:
        survivors = [s for s in survivors if _tensor_square_consistent(s)]
    return sorted(survivors)


# ---------------------------------------------------------------------------
# the strictly quadratic quantum-group dimension table


class QuantumGroupDim(NamedTuple):
    """One strictly quadratic global dimension from the X_{n,k} table."""

    series: str
    n: int
    k: int
    ell: int
    unit_power: int
    N: int
    with_sqrt_n: bool
    value: QuadInt

    def label(self) -> str:
        return f"{self.series}{self.n},{self.k}"


_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "quantum_group_dims.tsv")


def quantum_group_table() -> list[QuantumGroupDim]:
    """Parse the shipped table of strictly quadratic X_{n,k} dimensions."""
    rows = []
    with open(_TABLE_PATH, encoding="utf-8") as table:
        text = table.read()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, *rest = line.split("\t")
        n, k, ell, power, big_n, flag = map(int, rest)
        fu = fundamental_unit(big_n)
        base = (0, 2 * ell) if flag else (2 * ell, 0)  # ell * sqrt(N)^flag
        value = make(big_n, *_power(*base, fu.t, fu.u, power, big_n))
        rows.append(QuantumGroupDim(series, n, k, ell, power, big_n, bool(flag), value))
    return rows
