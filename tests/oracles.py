"""Independent oracles for the tests; the library never runs them.

- Membership by characteristic polynomial (`is_dnumber_via_charpoly`).
- The shape classification of the d-numbers of an imaginary field
  (`complex_shape_member`), which `dnumbers.is_dnumber` must match.
- A brute-force scan of coordinate pairs for the enumerators, and the lower
  bounds of unit norm -1 fields.
- The trace walk over every divisor of p^2 (`trace_walk_all_divisors`),
  which the library's walk over 5 <= k <= p and the multiples p of root(k)
  (k = p^2/n, read from a smallest-prime-factor table) must match.
- The generators of each real field on QuadInt arithmetic (`GeneratorSet`,
  `generator_set`), kappa_1 and kappa_2 found among the divisors of 2N
  (`squarefree_part_dividing`) and square roots checked by QuadInt
  products, which the library's integer `FieldRecord` must match.
- The canonical factorization on those generators (`evaluate`,
  `canonical_factor`, `_unit_exponent`): generator products, exact_divide
  and a descent on QuadInt powers, which the library's integer-coordinate
  path must match.
- The continued fraction on its division-free recurrence
  (`cf_oracle_states`): the period by a dict of every state seen
  (`cf_period_by_seen_states`) and the unit by a norm test at every
  convergent (`unit_by_norm_test`), which `units.cf_expand` and
  `units.fundamental_unit`, stopping where Q returns to Q0, must match.
- The digits of an expansion, preamble then the period repeated
  (`cf_digits`).
- The residue search for the least negative-Pell witness
  (`pell_witness_search`), which the closed form `dnumbers.pell_witness`
  must match.
- The partitions of an integer by a recursion that opens one frame per part
  (`partitions_per_part`), which the multiplicity walk of
  `fusion._partitions` must match, each partition reversed (c ascending)
  and in the same order.
- The `dnum` grammar declared by hand in argparse (`dnum_parser`), which
  `cli._scan` and the parser that `cli._build_parser` builds from the
  command table must both match.
- A certificate that the unit is fundamental by power non-residues
  (`power_nonresidue_certificate`), which shares no code with the
  continued fraction of `units.fundamental_unit`.
- The order of two real values in any fields by integer brackets at a
  rising decimal scale (`compare_by_brackets`), which
  `quadring.compare_values` must match.

`squarefree_range` lists the fields the tests sweep.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import chain, cycle, islice

from artifact.dnumbers import (
    CASE_ELSE,
    CASE_KAPPA_PRODUCT_EQ_N,
    CASE_N_KAPPA1_EQ_KAPPA2,
    CASE_N_KAPPA2_EQ_KAPPA1,
    CASE_NORM_MINUS_ONE,
    CanonicalFactorization,
    is_dnumber,
)
from artifact.dplus import DPlusElement, in_dplus
from artifact.quadring import (
    HALF_ONE_PLUS_SQRT_N,
    InternalInconsistency,
    NotADNumber,
    NotApplicable,
    QuadField,
    QuadInt,
    ZeroElement,
    compare_values,
    divisors,
    exact_divide,
    field,
    is_square,
    make,
    squarefree_decompose,
)
from artifact.units import fundamental_unit


def squarefree_range(limit: int) -> list[int]:
    """Squarefree integers in [1, limit], by sieving square multiples."""
    flags = bytearray([1]) * (limit + 1)
    for d in range(2, math.isqrt(limit) + 1):
        flags[d * d :: d * d] = bytearray(len(flags[d * d :: d * d]))
    return [n for n in range(1, limit + 1) if flags[n]]


def is_dnumber_via_charpoly(x: QuadInt) -> bool:
    """Independent route: coefficient divisibility on the characteristic
    polynomial of multiplication by x over the integral basis (1, omega).

    Used by the test suite to cross-validate `is_dnumber`; deliberately
    avoids the norm() method.
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
        if tr % 2 or det % 4:
            raise InternalInconsistency(f"doubled matrix of {x} is not integral")
        tr, det = tr // 2, det // 4
    # monic lambda^2 + a1*lambda + a2: need a1^2 divisible by a2^1
    a1, a2 = -tr, det
    return (a1 * a1) % a2 == 0


def complex_shape_member(cls, x: QuadInt) -> bool:
    """The paper's shape classification of the d-numbers of an imaginary
    field, cls = `dnumbers.complex_classify(x.N)`: x = (p + q*sqrt(N))/2
    is one exactly when p = 0 or q = 0, or |p| = |q| in the Gaussian ring,
    or |p| = |q| or |p| = 3|q| in the Eisenstein ring.  `is_dnumber` must
    agree on every nonzero x."""
    p, q = abs(x.p), abs(x.q)
    if cls.kind == "Gaussian":
        return p == 0 or q == 0 or p == q
    if cls.kind == "Eisenstein":
        return p == 0 or q == 0 or p == q or p == 3 * q
    return p == 0 or q == 0


def norm_minus_one_field_filter(N: int, M) -> bool:
    """Can a field whose unit has norm -1 own any dominant d-number <= M?

    Necessary condition N + 2*sqrt(N) <= 4M - 1: every member is at least
    eps^2, and 2*eps >= 1 + sqrt(N).
    """
    b = 4 * Fraction(M) - 1 - N
    return b >= 0 and 4 * N <= b * b


def norm_minus_one_bounds(field_or_n, x: DPlusElement) -> dict:
    """Exact lower-bound checks special to unit norm -1 fields.

    Verifies ell >= eps^m / sqrt(N)^d0 and value >= eps^(2m) on one
    enumerated element; raises InternalInconsistency if either fails,
    NotApplicable when the unit norm is +1.
    """
    fld = field(field_or_n)
    fu = fundamental_unit(fld)
    if fu.unit_norm != -1:
        raise NotApplicable(f"unit norm is +1 for N={fld.N}")
    if x.factorization is None:
        ell, m, d0 = x.value, 0, 0
    else:
        f = x.factorization
        ell, m, d0 = f.ell, f.m, f.delta[0]
    lhs = fld.integer(ell) * (make(fld, 0, 2) if d0 else fld.one())
    if not lhs >= fu.eps**m:
        raise InternalInconsistency(f"ell lower bound fails on {x.value}")
    if compare_values(x.value, fu.eps ** (2 * m)) < 0:
        raise InternalInconsistency(f"eps^(2m) lower bound fails on {x.value}")
    return {"ell_bound": True, "value_bound": True}


def brute_force_oracle(field_or_n, M, include_integers: bool = False) -> list[QuadInt]:
    """Scan every coordinate pair up to the trace cutoff and keep what
    passes in_dplus and <= M.  No generator machinery; for cross-checks."""
    fld = field(field_or_n)
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


def trace_walk_all_divisors(a: int, b: int) -> list[tuple[int, int, int]]:
    """(N, p, q) of every dominant irrational d-number (p + q*sqrt(N))/2
    <= M = a/b, by a walk over every norm n | p^2 of every trace p.

    With D = q^2 * N the norm is n = (p^2 - D)/4.  sigma(x) >= 1 and x <= M
    bound sqrt(D) by p - 2 and by 2M - p >= 0, so b^2*D is at most both
    (b*(p - 2))^2 and (2a - b*p)^2.  x is a d-number iff n | p^2
    (x/sigma(x) has norm 1 and trace p^2/n - 2).  D = p^2 - 4n forces the
    parity of (p, q), so every hit is an algebraic integer.
    """
    found: list[tuple[int, int, int]] = []
    for p in range(3, 2 * a // b + 1):
        bound = min(b * (p - 2), 2 * a - b * p) ** 2
        for n in divisors(p * p):
            D = p * p - 4 * n
            if 0 < D and b * b * D <= bound and not is_square(D):
                q, N = squarefree_decompose(D)
                found.append((N, p, q))
    return found


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


def squarefree_part_dividing(a: int, n: int) -> int:
    """The squarefree d with a/d a perfect square, found among the divisors
    of n, with no factoring of a."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    for d in small + [n // d for d in small]:
        if a % d == 0 and math.isqrt(a // d) ** 2 == a // d and all(
            d % (k * k) for k in range(2, math.isqrt(d) + 1)
        ):
            return d
    raise InternalInconsistency(f"no divisor of {n} is the squarefree part of {a}")


@lru_cache(maxsize=None)
def generator_set(N: int) -> GeneratorSet:
    """The generators of a real field, as QuadInts.  (t+2)(t-2) = N*u^2 and
    gcd(t+2, t-2) | 4 put the squarefree parts kappa_1 of t+2 and kappa_2
    of t-2 among the divisors of 2N, where `squarefree_part_dividing`
    finds them."""
    fld = field(N)
    fu = fundamental_unit(fld)
    root_n = make(fld, 0, 2)
    if fu.unit_norm == -1:
        return GeneratorSet(
            N, CASE_NORM_MINUS_ONE, None, None,
            (root_n,), (0,),
            {1: (0, 0, 0), N: (1, 0, 0)},
        )
    k1, k2 = (squarefree_part_dividing(fu.t + d, 2 * N) for d in (2, -2))
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


def evaluate(fact: CanonicalFactorization) -> QuadInt:
    gs = generator_set(fact.N)
    eps = fundamental_unit(fact.N).eps
    return gs.evaluate_delta(fact.delta) * (eps**fact.m) * fact.ell


def _unit_exponent(u: QuadInt, fld: QuadField) -> int:
    """m with u = eps^m, for u a power of the fundamental unit.

    Exact bit descent on v = u or 1/u, whichever is > 1.  The trace of
    eps^j rises strictly with j >= 1, so traces order the powers: square
    eps^(2^k) until its trace passes v's, then take the bits of m from the
    top down, keeping each one whose product still has trace <= v's.  The
    power so built must equal v, or u was not a power of eps.
    """
    if u == 1:
        return 0
    inverted = u < 1
    v = u.inverse() if inverted else u
    powers = [fundamental_unit(fld).eps]
    while powers[-1].p <= v.p:
        powers.append(powers[-1] * powers[-1])
    m, acc = 0, None
    for k in range(len(powers) - 1, -1, -1):
        step = powers[k] if acc is None else acc * powers[k]
        if step.p <= v.p:
            m, acc = m + (1 << k), step
    if acc != v:
        raise InternalInconsistency(f"{u} is not a power of eps_{fld.N}")
    return -m if inverted else m


def canonical_factor(x: QuadInt) -> CanonicalFactorization:
    """The unique (ell, m, delta) with x = ell * eps^m * generators^delta.

    delta's key is the one of at most four distinct squarefree keys k with
    |N(x)| = k * a square (exact roots; |N(x)| is never factorized)."""
    if x.N < 0:
        raise NotApplicable("canonical factorization needs a real field")
    if x.is_zero():
        raise ZeroElement("0 has no canonical factorization")
    if not is_dnumber(x):
        raise NotADNumber(f"{x} is not a d-number")
    fld = x.field
    gs = generator_set(fld.N)
    n = abs(x.norm())
    for sig, delta in gs.signature_map.items():
        if n % sig == 0 and is_square(n // sig):
            break
    else:
        raise InternalInconsistency(
            f"norm {n} is no signature key times a square for N={fld.N}"
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


def cf_oracle_states(N: int, P0: int, Q0: int):
    """Yield (a_i, P_i, Q_i) forever for the expansion of (P0 + sqrt(N))/Q0,
    Q0 > 0 dividing N - P0^2, by the division-free form of the recurrence:
    Q_{i+1} = Q_{i-1} + a_i (P_i - P_{i+1}), from Q_{-1} = (N - P0^2)/Q0."""
    r = math.isqrt(N)
    P, Q, Q_prev = P0, Q0, (N - P0 * P0) // Q0
    while True:
        a = (P + r) // Q
        yield a, P, Q
        P_next = a * Q - P
        Q, Q_prev = Q_prev + a * (P - P_next), Q
        P = P_next


def cf_period_by_seen_states(N: int, P0: int, Q0: int) -> tuple[tuple, tuple]:
    """(preamble, period) of (P0 + sqrt(N))/Q0: the digits before and from
    the first state (P, Q) that repeats, found in a dict of every state."""
    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for a, P, Q in cf_oracle_states(N, P0, Q0):
        if (P, Q) in seen:
            j = seen[(P, Q)]
            return tuple(digits[:j]), tuple(digits[j:])
        seen[(P, Q)] = len(digits)
        digits.append(a)


def cf_digits(expansion, count: int) -> list[int]:
    """The first count digits of a CFExpansion: its preamble, then its
    period repeated."""
    return list(islice(chain(expansion.preamble, cycle(expansion.period)), count))


def unit_by_norm_test(N: int) -> tuple[int, int, int]:
    """(t, u, norm) of the fundamental unit (t + u sqrt(N))/2 of real N:
    the first convergent h/k of the integral basis element (sqrt(N), or
    (1 + sqrt(N))/2 when N = 1 mod 4) whose doubled coordinates p, q have
    p^2 - N q^2 = +-4, testing that norm at every convergent."""
    omega = N % 4 == 1
    h1, h2, k1, k2 = 1, 0, 0, 1
    for a, _, _ in cf_oracle_states(N, *((1, 2) if omega else (0, 1))):
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        p, q = (2 * h1 - k1, k1) if omega else (2 * h1, 2 * k1)
        d = p * p - N * q * q
        if d in (4, -4):
            return p, q, d // 4


def pell_witness_search(field_or_n, bound: int) -> tuple[int, int] | None:
    """Least (kappa, n) certifying unit norm +1, or None.

    A witness is squarefree kappa >= 2 and n >= 1 with kappa*n^2 - 4
    positive and not a perfect square, such that kappa*(kappa*n^2 - 4) is
    N times a perfect square.  Such a pair squares the scaled unit:
    ((kappa*n^2 - 2) + n*s*sqrt(N))/2 is a norm-one unit with an integral
    square root of norm kappa, which is impossible when the fundamental
    unit has norm -1.  Both kappa and n are capped by `bound`; pairs are
    scanned in lexicographic order, so the first hit is the least witness.
    """
    fld = field(field_or_n)
    if fld.N < 0:
        raise NotApplicable("witness search is a real-field operation")
    N = fld.N
    for kappa in squarefree_range(bound):
        if kappa < 2:
            continue
        # m = kappa*(kappa*n^2-4) = N * square needs N' | kappa*n^2 - 4
        # where N' = N / gcd(kappa, N); solve the quadratic residue first.
        n_mod = N // math.gcd(kappa, N)
        roots = [r for r in range(n_mod) if (kappa * r * r - 4) % n_mod == 0]
        if not roots:
            continue
        for n in range(1, bound + 1):
            if n % n_mod not in roots:
                continue
            v = kappa * n * n - 4
            if v <= 0 or is_square(v):
                continue
            m = kappa * v
            if m % N == 0 and is_square(m // N):
                return kappa, n
    return None


def _value_coordinates(x) -> tuple[int, int, int, int]:
    """(p, q, N, d) with x = (p + q*sqrt(N))/d: the doubled coordinates of a
    QuadInt, the numerator and denominator of an int or a Fraction."""
    if isinstance(x, QuadInt):
        return x.p, x.q, x.N, 2
    return x.numerator, 0, 0, x.denominator


def _scaled_bracket(p: int, q: int, N: int, k: int) -> tuple[int, int]:
    """Integers lo <= 10^k * (p + q*sqrt(N)) <= hi for N >= 0; lo = hi when
    q = 0, and N squarefree and > 1 otherwise."""
    scale = 10**k
    r = math.isqrt(q * q * scale * scale * N)  # r <= |q|*10^k*sqrt(N) < r + 1
    lo, hi = (r, r + (q != 0)) if q >= 0 else (-r - 1, -r)
    return p * scale + lo, p * scale + hi


def compare_by_brackets(a, b) -> int:
    """-1, 0 or 1 as a <, =, > b, for QuadInts of real fields, ints and
    Fractions, on integers only.  Equal values are told by their
    coordinates: square roots of distinct squarefree N are linearly
    independent over Q, so an irrational value equals only one of its own
    field.  Unequal values are bracketed at scale 10^k, k = 0, 1, ..., by
    math.isqrt, until the brackets separate."""
    pa, qa, Na, da = _value_coordinates(a)
    pb, qb, Nb, db = _value_coordinates(b)
    if pa * db == pb * da and qa * db == qb * da and (qa == 0 or Na == Nb):
        return 0
    k = 0
    while True:  # a in [la/da, ha/da] and b in [lb/db, hb/db], scaled by 10^k
        la, ha = _scaled_bracket(pa, qa, Na, k)
        lb, hb = _scaled_bracket(pb, qb, Nb, k)
        if ha * db < lb * da:
            return -1
        if la * db > hb * da:
            return 1
        k += 1


def partitions_per_part(total: int, parts: list[int]) -> list[tuple[int, ...]]:
    """Multiset partitions of total into the given parts (descending)."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, idx: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        for i in range(idx, len(parts)):
            if parts[i] <= rest:
                rec(rest - parts[i], i, acc + [parts[i]])

    rec(total, 0, [])
    return out


def dnum_parser():
    """The grammar of `dnum`, each argument declared by hand as cli declared
    it before its command table, with cli's handlers and value types.  It
    is an oracle of parsing only: it has no help texts."""
    import argparse

    from artifact import cli

    parser = argparse.ArgumentParser(prog="dnum")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--budget", type=cli.positive)
    sub = parser.add_subparsers(dest="command", required=True)
    integers = {
        "unit": "N", "kappa": "N", "generators": "N", "member": "N p q",
        "factor": "N p q", "divides": "N p1 q1 p2 q2", "enumerate": "",
        "pell": "N", "qint": "N m", "decompose": "N ell m", "screen": "N p q",
        "table": "", "complex": "N p q",
    }
    for name, names in integers.items():
        p = sub.add_parser(name)
        for arg in names.split():
            p.add_argument(arg, type=int)
        p.set_defaults(func=getattr(cli, f"_cmd_{name}"))
    p = sub.choices["enumerate"]
    p.add_argument("M", type=cli.fraction)
    p.add_argument("--field", type=int)
    p.add_argument("--no-integers", action="store_true")
    p = sub.choices["decompose"]
    p.add_argument("--dint-divides", type=int)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--modular-filter", action="store_true")
    sub.choices["table"].add_argument("name", choices=["units", "kappa", "fig3"])
    return parser


class NoPowerWitness(Exception):
    """The witness search for prime k reached its step cap: eps may be a
    k-th power (or the cap is too small)."""

    def __init__(self, k: int, steps: int):
        super().__init__(f"no witness for k={k} within {steps} steps")
        self.k = k


def _is_small_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def power_nonresidue_certificate(N: int, t: int, u: int, steps: int = 2000):
    """[(k, p, r)] proving that the unit eps = (t + u*sqrt(N))/2 > 1 of
    Q(sqrt(N)) is no k-th power of a unit for any k > 1, so that it is the
    fundamental unit; raises NoPowerWitness when the search for some prime
    k finds no witness among p = 1 + 2jk, j = 1 .. steps.

    If eps = eta^k with eta > 1 a unit, then eta = (a + b*sqrt(N))/2 with
    a, b >= 1 and a^2 = N*b^2 +- 4, so eta > L = isqrt(N - 4), and eps <
    t + 1 gives k < log(t + 1)/log(L) <= t.bit_length()/(L.bit_length() - 1).
    Below N = 20 (L of under 3 bits) eta is at least the golden ratio,
    whose log2 exceeds 1/2.  A composite k has a prime factor k' with eps
    a k'-th power, so the primes k up to the bound suffice.  For each,
    the witness is a prime p = 1 (mod 2k) with p not dividing N and
    r^2 = N (mod p): sqrt(N) -> r is a ring map from the integers of the
    field onto F_p (p is odd), and a k-th power maps to e with
    e^((p-1)/k) = 1, so e = (t + u*r)/2 with e^((p-1)/k) != 1 shows that
    eps is no k-th power."""
    if t * t - N * u * u not in (4, -4) or t < 1 or u < 1:
        raise ValueError(f"({t}, {u}) is no unit above 1 of Q(sqrt({N}))")
    L = math.isqrt(max(N - 4, 0))
    if L.bit_length() < 3:
        bound = 2 * t.bit_length() + 2
    else:
        bound = t.bit_length() // (L.bit_length() - 1) + 1
    witnesses = []
    for k in filter(_is_small_prime, range(2, bound + 1)):
        for j in range(1, steps + 1):
            p = 1 + 2 * j * k
            if N % p == 0 or not _is_small_prime(p) or pow(N % p, (p - 1) // 2, p) != 1:
                continue
            r = _sqrt_mod(N % p, p)
            e = (t + u * r) * pow(2, -1, p) % p
            if pow(e, (p - 1) // k, p) != 1:
                witnesses.append((k, p, r))
                break
        else:
            raise NoPowerWitness(k, steps)
    return witnesses
