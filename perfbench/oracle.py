"""Integer arithmetic the benchmark uses to make inputs and judge outputs.

Nothing here imports the package under test: values in Q(sqrt(N)) are
doubled coordinates (p, q) meaning (p + q*sqrt(N))/2, handled with plain
Python integers, so a check built from these helpers shares no code with
the routine it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("is_prime is only certain below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    """A prime drawn log-uniformly from [lo, hi)."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    while True:
        n = int(math.exp(rng.uniform(log_lo, log_hi))) | 1
        if lo <= n < hi and is_prime(n):
            return n


def is_squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def squarefree_upto(limit: int) -> list[int]:
    """Squarefree 2 <= N <= limit: the real fields the workloads draw from."""
    return [n for n in range(2, limit + 1) if is_squarefree(n)]


def mul(a: tuple[int, int], b: tuple[int, int], N: int) -> tuple[int, int]:
    """Product of two doubled-coordinate values of Q(sqrt(N))."""
    p = a[0] * b[0] + N * a[1] * b[1]
    q = a[0] * b[1] + a[1] * b[0]
    if p % 2 or q % 2:
        raise ValueError(f"{a} * {b} left the ring of Q(sqrt({N}))")
    return p // 2, q // 2


def power(a: tuple[int, int], k: int, N: int) -> tuple[int, int]:
    out = (2, 0)
    for _ in range(k):
        out = mul(out, a, N)
    return out


def small_unit(N: int, max_trace: int) -> tuple[int, int, int] | None:
    """(t, u, norm) of the fundamental unit (t + u*sqrt(N))/2 of Q(sqrt(N)),
    found by direct search, when t <= max_trace; else None.

    Units > 1 have t, u > 0, and among them the value grows with u, so the
    first u with N*u^2 +- 4 a square gives the fundamental unit.
    """
    u = 1
    while N * u * u - 4 < max_trace * max_trace:
        for s, nrm in ((-4, 1), (4, -1)):
            v = N * u * u + s
            t = math.isqrt(v) if v > 0 else -1
            if t * t == v and t <= max_trace:
                return t, u, nrm
        u += 1
    return None


def below(x: tuple[int, int], N: int, bound: Fraction, strict: bool) -> bool:
    """(p + q*sqrt(N))/2 < bound (strict) or <= bound, for q >= 0."""
    p, q = x
    a, b = bound.numerator, bound.denominator
    room = 2 * a - b * p  # b*q*sqrt(N) must stay below this
    if room < 0:
        return False
    lhs, rhs = b * b * q * q * N, room * room
    return lhs < rhs if strict else lhs <= rhs


def is_dominant_dnumber(p: int, q: int, N: int) -> bool:
    """Integral, a d-number (norm divides trace^2), and x >= sigma(x) >= 1."""
    if (p - q) % 2 or (N % 4 != 1 and p % 2):
        return False
    norm4 = p * p - N * q * q
    if norm4 == 0 or norm4 % 4:
        return False
    if (p * p) % (norm4 // 4):
        return False
    # x - sigma(x) = q*sqrt(N) >= 0, and sigma(x) = (p - q*sqrt(N))/2 >= 1
    return q >= 0 and p >= 2 and (p - 2) ** 2 >= N * q * q


def check_enumerate_records(text: str, M: Fraction) -> list[str]:
    """Problems with one `enumerate M` listing, judged element by element."""
    problems = []
    integers = 0
    for line in text.splitlines():
        N, p, q = (int(v) for v in line.split("\t")[:3])
        if N == 1:
            integers += 1
            ok = q == 0 and p % 2 == 0 and 2 <= p and Fraction(p, 2) <= M
        else:
            ok = is_dominant_dnumber(p, q, N) and below((p, q), N, M, False)
        if not ok:
            problems.append(f"M={M}: {line!r} is not a dominant d-number <= M")
    if integers != math.floor(M):
        problems.append(f"M={M}: {integers} rational integers, want {math.floor(M)}")
    return problems
