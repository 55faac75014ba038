"""Exact arithmetic in rings of quadratic integers.

Elements of the ring of integers of Q(sqrt(N)) are stored in doubled
coordinates: ``x = (p + q*sqrt(N)) / 2`` with ``p``, ``q`` integers of equal
parity, and both even when N is not 1 mod 4.  This gives one uniform code
path for both integral bases (sqrt(N) and (1+sqrt(N))/2).

Everything on a correctness path is integer arithmetic: the sign of
``a + b*sqrt(N)`` is decided by comparing a^2 against N*b^2 (`_sign`), every
floor of a value (P + Q*sqrt(N))/D -- decimals, cutoffs, caps, sort keys --
is the one ``math.isqrt`` floor `_floor_quadratic`, and floating point never
decides anything.  `_coordinates` is the one reader of an operand: it
turns a QuadInt of any N, an int or a `Fraction` into integers (P, Q, N,
D), so `==`, arithmetic and the order are integer-only, and a rational n/d
is cross-multiplied by d, not subtracted as a `Fraction`.  Only the
readers of a real value -- the order (`sign`, `<`, `compare`),
`compare_values` and `decimal_str` -- refuse N < 0, in `_real`.
`compare_values` is exact across fields: a difference of values in two
fields has at most the radicands 1, Na and Nb, and its sign takes at most
one squaring and two `_sign` calls, with no interval.  A `Fraction`
appears only where a rational cutoff enters.

Other modules build and scale pairs (p, q), but only this one multiplies
two pairs, so no other module halves a product: they call `_mul`,
`_quotient`, `_power` and its inverse `_unit_exponent`.  Only this module
checks parity, in `make` and `_quotient`; sums, products and powers
stay in the ring, so they come from the unchecked `_raw`.
"""

from __future__ import annotations

import math
from array import array
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from itertools import compress


# ---------------------------------------------------------------------------
# errors


class ParityError(ValueError):
    """Raw coordinates (p, q) do not describe an algebraic integer."""


class FieldMismatch(ValueError):
    """Operands live in different quadratic fields."""


class DivByZero(ZeroDivisionError):
    pass


class NotDivisible(ArithmeticError):
    """Exact division requested but the quotient is not integral."""


class FactorizationLimit(RuntimeError):
    """Factoring ran out of budget before finishing (never a wrong answer)."""


class ZeroElement(ValueError):
    """Operation undefined for zero."""


class NotADNumber(ValueError):
    pass


class NotInDPlus(ValueError):
    """Element is not in the positive cone (some real embedding < 1)."""


class NotApplicable(TypeError):
    """Operation undefined for this field (e.g. real order on N < 0)."""


class InternalInconsistency(AssertionError):
    """An internal check or certificate failed; a bug, not a domain error."""


class Rejected(ValueError):
    """A screening predicate failed; the reason is the message."""


# ---------------------------------------------------------------------------
# integer factorization (trial division by prime blocks + Miller-Rabin +
# perfect-power roots + Brent's rho)
#
# Trial division tries the primes below 100 one by one, which is cheaper
# than a block gcd for the small n that are done by then.  It walks the
# other primes below 10^6 in blocks and skips a block whose product is
# coprime to n, so a large cofactor costs one gcd per block rather than one
# division per prime.  A cofactor n it leaves below 10^12 is 1 or a prime,
# with no primality test: the scan stops only when the next sieve prime's
# square exceeds n, or after the last sieve prime, and two primes above
# 10^6 multiply to more than 10^12.  A larger cofactor takes Miller-Rabin
# and can be a perfect power (of a large prime in a user's ell): its exact
# integer root is taken before rho, and rho runs only on cofactors that
# are not perfect powers.  The pieces they split off keep every prime factor
# above 10^6, so a piece below 10^12 is prime by the same proof.

_SIEVE_BOUND = 10**6
_BELOW_100 = (  # the first 25 entries of _primes()
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)
_BLOCK = 256
# Every prime factor of a cofactor past trial division exceeds 10^6 > 2^19,
# so the cofactor can only be an r**k with k <= bit_length // 19.
_ROOT_BITS = 19

#: Iteration budget for Pollard rho.  set_factor_budget / CLI --budget set it
#: in the current context only (a ContextVar), so no caller leaks it to others.
DEFAULT_FACTOR_BUDGET = 10**7
_factor_budget: ContextVar[int] = ContextVar(
    "factor_budget", default=DEFAULT_FACTOR_BUDGET
)


def set_factor_budget(budget: int) -> None:
    if budget <= 0:
        raise ValueError("budget must be positive")
    _factor_budget.set(budget)


@lru_cache(maxsize=None)
def _primes() -> array:
    """The primes up to _SIEVE_BOUND, ascending (sieve of Eratosthenes), as
    an array of C ints: 0.3 MB for life, where a list of ints takes 2.8 MB."""
    sieve = bytearray([1]) * (_SIEVE_BOUND + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_SIEVE_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((_SIEVE_BOUND - i * i) // i + 1)
    return array("I", compress(range(_SIEVE_BOUND + 1), sieve))


@lru_cache(maxsize=None)
def _prime_block(start: int) -> tuple[int, array]:
    """Product and primes of the block of _BLOCK sieve primes from index
    start, built on first use, so that start-up pays only for the sieve."""
    block = _primes()[start : start + _BLOCK]
    return math.prod(block), block


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    # The first 13 primes as bases decide every n below psi_13 = 3.3e24, the
    # least strong pseudoprime to all of them (the first 12 are fooled by
    # psi_12 = 318665857834031151167461).  From psi_13 on, 64 more bases
    # from Random(n), fixed per n, give a probable prime: ~2^-128 is a bound
    # for random bases only (the ROADMAP plans Baillie-PSW).
    bases = list(_BELOW_100[:13])
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n >= 3_317_044_064_679_887_385_961_981:
        from random import Random  # here, so that start-up does not load it
        rng = Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(64)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m == r**k for the least prime k <= m.bit_length() // 19,
    found by exact integer roots; (m, 1) when there is none.  The bound
    finds every power of a cofactor whose prime factors exceed 2^19."""
    for k in _primes():
        if k > m.bit_length() // _ROOT_BITS:
            break
        if k == 2:
            r = math.isqrt(m)
        else:  # integer Newton iteration from above for floor(m^(1/k))
            r = 1 << -(-m.bit_length() // k)
            while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
                r = s
        if r**k == m:
            return r, k
    return m, 1


def _brent_rho(n: int, spent: list[int]) -> int:
    """One nontrivial factor of odd composite n, or raise FactorizationLimit
    once spent[0], the rho iterations of this factorization, reaches the
    budget of the current context."""
    from random import Random
    budget = _factor_budget.get()
    rng = Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                spent[0] += min(m, r - k)
                if spent[0] >= budget:
                    raise _budget_exhausted(n, spent[0], budget)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                spent[0] += 1
                if spent[0] >= budget:
                    raise _budget_exhausted(n, spent[0], budget)
        if g != n:
            return g


def _budget_exhausted(n: int, spent: int, budget: int) -> FactorizationLimit:
    return FactorizationLimit(
        f"factor budget {budget} exhausted after {spent} rho iterations "
        f"on a {n.bit_length()}-bit cofactor"
    )


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an exponent dict, ascending.

    Trial division by the primes up to 10^6, one gcd per block above 100,
    proves a cofactor below 10^12 prime; a larger one takes Miller-Rabin,
    exact perfect-power roots, and Brent's rho if not a perfect power.
    Raises FactorizationLimit if rho spends the budget of the current
    context (set_factor_budget).  A factor below psi_13 = 3.3e24 is proven
    prime, a larger one only probable (`_is_probable_prime`).
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _BELOW_100:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # below 97^2, what is left is 1 or a prime, so the sieve is not built
    primes = _primes() if n > _BELOW_100[-1] ** 2 else ()
    start = len(_BELOW_100)
    while start < len(primes) and primes[start] * primes[start] <= n:
        product, block = _prime_block(start)
        start += _BLOCK
        g = math.gcd(product % n, n)  # the block primes dividing n, squarefree
        for p in block:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
    if n < _SIEVE_BOUND**2:  # 1 or a prime, by the scan above
        return out if n == 1 else out | {n: 1}
    spent = [0]
    stack = [(n, 1)]  # (cofactor, exponent it carries)
    while stack:
        m, e = stack.pop()
        if m < _SIEVE_BOUND**2 or _is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, k * e))
            continue
        d = _brent_rho(m, spent)
        stack += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as s^2 * f with f squarefree; return (s, f)."""
    if n < 1:
        raise ValueError("squarefree_decompose expects n >= 1")
    s = f = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    if s * s * f != n:
        raise InternalInconsistency(f"{s}^2 * {f} != {n}")
    return s, f


def squarefree_part(n: int) -> int:
    return squarefree_decompose(n)[1]


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return squarefree_part(abs(n)) == abs(n)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# fields and elements

SQRT_N = "SqrtN"
HALF_ONE_PLUS_SQRT_N = "HalfOnePlusSqrtN"


class QuadField:
    """The ring of integers of Q(sqrt(N)), N squarefree and not 0 or 1."""

    __slots__ = ("N", "omega_kind")

    def __init__(self, N: int):
        if N in (0, 1) or not is_squarefree(N):
            raise ValueError(f"N must be squarefree and != 0, 1 (got {N})")
        object.__setattr__(self, "N", N)
        # Python's % is nonnegative for positive modulus, so -3 % 4 == 1 and
        # the Eisenstein case lands in the half-integer basis as it should.
        kind = HALF_ONE_PLUS_SQRT_N if N % 4 == 1 else SQRT_N
        object.__setattr__(self, "omega_kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("QuadField is immutable")

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.N == other.N

    def __hash__(self):
        return hash(("QuadField", self.N))

    def __repr__(self):
        return f"QuadField({self.N})"

    def one(self) -> "QuadInt":
        return _raw(self, 2, 0)

    def integer(self, k: int) -> "QuadInt":
        return _raw(self, 2 * k, 0)


_field = lru_cache(maxsize=None)(QuadField)


def field(field_or_n) -> QuadField:
    """The interned field of N; a QuadField is returned as it is."""
    return field_or_n if isinstance(field_or_n, QuadField) else _field(field_or_n)


def _check_parity(fld: QuadField, p: int, q: int) -> None:
    if (p - q) % 2 != 0:
        raise ParityError(
            f"(p={p}, q={q}) has mixed parity; (p + q*sqrt({fld.N}))/2 "
            "is not an algebraic integer"
        )
    if fld.omega_kind == SQRT_N and p % 2 != 0:
        raise ParityError(
            f"(p={p}, q={q}) must both be even: {fld.N} is not 1 mod 4, so "
            "half-integer coordinates are not integral"
        )


class QuadInt:
    """(p + q*sqrt(N)) / 2 with validated parity.  Immutable."""

    __slots__ = ("field", "p", "q")

    def __init__(self, fld: QuadField, p: int, q: int):
        if type(p) is not int or type(q) is not int:  # a bool is refused too
            raise TypeError("coordinates must be int")
        _check_parity(fld, p, q)
        _set_field(self, fld)
        _set_p(self, p)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError("QuadInt is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def N(self) -> int:
        return self.field.N

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def conjugate(self) -> "QuadInt":
        return _raw(self.field, self.p, -self.q)

    def norm(self) -> int:
        num = self.p * self.p - self.N * self.q * self.q
        if num % 4:
            raise InternalInconsistency(f"{self!r} has a non-integral norm")
        return num // 4

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """The doubled pair (p, q) of an int or a same-field QuadInt, else
        None: a Fraction is refused, as a sum or product with one may leave
        the ring."""
        if not isinstance(other, (int, QuadInt)):
            return None
        _same_field(self, other)
        P, Q, _, D = _coordinates(other)
        return 2 * P // D, 2 * Q // D

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _raw(self.field, self.p + o[0], self.q + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _raw(self.field, self.p - o[0], self.q - o[1])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _raw(self.field, o[0] - self.p, o[1] - self.q)

    def __neg__(self):
        return _raw(self.field, -self.p, -self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _raw(self.field, *_mul(self.p, self.q, *o, self.field.N))

    __rmul__ = __mul__

    def inverse(self) -> "QuadInt":
        n = self.norm()
        if abs(n) != 1:
            raise NotDivisible(f"{self} is not a unit (norm {n})")
        c = self.conjugate()
        return c if n == 1 else -c

    def __pow__(self, k: int) -> "QuadInt":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        return _raw(self.field, *_power(2, 0, base.p, base.q, abs(k), self.field.N))

    # -- comparisons (exact; real fields only for order) -------------------

    # The rationals of the ring are integers (q = 0 forces p even), so x
    # equals (P + Q*sqrt(M))/D exactly when p*D = 2P and q*D = 2Q, and, for
    # an irrational x, M = N: a rational is equal across fields.

    def __eq__(self, other):
        try:
            P, Q, M, D = _coordinates(other)
        except TypeError:
            return NotImplemented
        return self.p * D == 2 * P and self.q * D == 2 * Q and (Q == 0 or M == self.N)

    def __hash__(self):
        if self.q == 0:
            return hash(self.p // 2)  # equal to hash(Fraction(p, 2))
        return hash((self.N, self.p, self.q))

    def sign(self) -> int:
        """Sign of the real value; NotApplicable for imaginary fields."""
        return self._cmp(0)

    def _cmp(self, other) -> int:
        """Sign of 2*d*(self - other) on integer coordinates, d = other's
        denominator."""
        _same_field(self, other)
        P, Q, _, d = _real(other)
        p, q, N, _ = _real(self)
        return _sign(p * d - 2 * P, q * d - 2 * Q, N)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"QuadInt({self.N}, {self.p}, {self.q})"


# the slot setters; QuadInt.__setattr__ refuses every write
_set_field = QuadInt.field.__set__
_set_p = QuadInt.p.__set__
_set_q = QuadInt.q.__set__


def _same_field(x: QuadInt, y) -> None:
    """FieldMismatch if y is a QuadInt of another field."""
    # fields are interned by field(), so identity settles most calls
    if isinstance(y, QuadInt) and y.field is not x.field and y.field != x.field:
        raise FieldMismatch(f"{x.field} vs {y.field}")


def _mul(p: int, q: int, r: int, s: int, N: int) -> tuple[int, int]:
    """(p + q*sqrt(N))/2 * (r + s*sqrt(N))/2 on doubled coordinates."""
    return (p * r + N * q * s) // 2, (p * s + q * r) // 2


def _quotient(p: int, q: int, r: int, s: int, n: int, N: int) -> tuple[int, int] | None:
    """x/y on doubled coordinates for y = (r + s*sqrt(N))/2 of norm n, or None
    when x*conj(y) leaves a remainder mod n or the quotient is off the ring."""
    p, q = (p * r - N * q * s) // 2, (q * r - p * s) // 2  # x * conj(y), inline
    if p % n or q % n:
        return None
    p, q = p // n, q // n
    return None if (p - q) % 2 or (N % 4 != 1 and p % 2) else (p, q)


def _content(p: int, q: int, N: int, n: int) -> int:
    """The content of x = (p + q*sqrt(N))/2 != 0, n = |N(x)|: the largest
    integer c >= 1 with x/c in the ring.  Every integer dividing x divides c.

    x/c is in the ring exactly when p/c and q/c are integers with the ring's
    parity: equal mod 2, and both even unless N = 1 (mod 4).  So c divides
    G = gcd(p, q); write c = G/d.  p/G and q/G are coprime, so not both even.
    - N = 1 (mod 4) and p/G, q/G both odd: every d works, so c = G.
    - Otherwise d*p/G and d*q/G have the ring's parity exactly when d is
      even: for odd d they keep the parities of p/G and q/G, one of them
      odd, and the two differ when N = 1 (mod 4).  G is even here (p and q
      are, or p - q is even while (p - q)/G is odd), so c = G/2.
    So G is c or 2c.  c^2 divides n = c^2 * |N(x/c)|, so D = gcd(n, p, q),
    which c divides and which divides G, is c or 2c too: c exactly when x/D
    is in the ring.  For a small multiple of a huge unit's power, n is small
    and gcd(n, p, q) reduces p and q mod n at once, where gcd(p, q) would
    run on their full size."""
    d = math.gcd(n, p, q)
    return d if (p - q) % (2 * d) == 0 and (N % 4 == 1 or p % (2 * d) == 0) else d >> 1


def _power(p: int, q: int, t: int, u: int, m: int, N: int) -> tuple[int, int]:
    """x * e^m on doubled coordinates, x = (p + q*sqrt(N))/2, e = (t +
    u*sqrt(N))/2 and m >= 0, by right-to-left binary powering; a negative m
    is a caller's bug (its bits never run out)."""
    if m < 0:
        raise InternalInconsistency(f"_power needs m >= 0, got {m}")
    while m:
        if m & 1:
            p, q = (p * t + N * q * u) // 2, (p * u + q * t) // 2
        m >>= 1
        if m:
            t, u = (t * t + N * u * u) // 2, t * u
    return p, q


def _unit_exponent(p: int, q: int, N: int, t: int, u: int) -> int:
    """m with v = (p + q*sqrt(N))/2 = eps^m, eps = (t + u*sqrt(N))/2.

    A v < 1 becomes N(v)*conj(v) = N(v)^2/v, a power of eps only when v is
    a unit.  Traces of eps^j rise strictly with j >= 1 (not from j = 0:
    eps_5 has trace 1), so square eps^(2^k) until the trace passes v's,
    then keep the bits of m, top down, whose product still has trace <= v's.
    """
    if p == 2 and q == 0:
        return 0
    sign = _sign(p - 2, q, N)  # v > 1 or v < 1
    if sign < 0:
        n = (p * p - N * q * q) // 4
        p, q = n * p, -n * q
    ts, us = [t], [u]  # eps^(2^k) = (ts[k] + us[k]*sqrt(N))/2
    while t <= p:
        t, u = (t * t + N * u * u) // 2, t * u
        ts.append(t)
        us.append(u)
    m, ap, aq = 0, 2, 0
    k = len(ts)
    while k:
        k -= 1
        t, u = ts[k], us[k]
        sp = (ap * t + N * aq * u) // 2
        if sp <= p:
            m, ap, aq = m + (1 << k), sp, (ap * u + aq * t) // 2
    if ap != p or aq != q:
        raise InternalInconsistency(f"({p}, {q}) is no power of eps_{N}")
    return sign * m


def _raw(fld: QuadField, p: int, q: int) -> QuadInt:
    """QuadInt without the parity check, for results integral by closure.

    Callers outside this module go through `make`, which validates."""
    x = object.__new__(QuadInt)
    _set_field(x, fld)
    _set_p(x, p)
    _set_q(x, q)
    return x


def make(field_or_n, p: int, q: int) -> QuadInt:
    """Build (p + q*sqrt(N))/2, validating integrality of the coordinates."""
    return QuadInt(field(field_or_n), p, q)


def sign(x: QuadInt) -> int:
    return x.sign()


def compare(x: QuadInt, y) -> int:
    """-1, 0, or 1 as x <, =, > y.  Same field (or rational) only."""
    return x._cmp(y)


def exact_divide(x: QuadInt, y: QuadInt) -> QuadInt:
    """x / y when the quotient lies in the ring; NotDivisible otherwise."""
    _same_field(x, y)
    if y.is_zero():
        raise DivByZero("division by zero element")
    if (z := _quotient(x.p, x.q, y.p, y.q, y.norm(), x.N)) is None:
        raise NotDivisible(f"{y} does not divide {x}")
    return _raw(x.field, *z)


def divides(y: QuadInt, x: QuadInt) -> bool:
    try:
        exact_divide(x, y)
        return True
    except NotDivisible:
        return False


# ---------------------------------------------------------------------------
# exact signs and floors


def _sign(a: int, b: int, N: int) -> int:
    """Sign of a + b*sqrt(N) for integers a, b and N > 0 (any N if b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: the larger of a^2 and N*b^2 wins
    d = a * a - N * b * b
    if a < 0:
        d = -d
    return (d > 0) - (d < 0)


def _floor_quadratic(P: int, Q: int, N: int, D: int) -> int:
    """floor((P + Q*sqrt(N)) / D) for integers P, Q, N >= 0 and D > 0.

    floor(Q*sqrt(N)) is isqrt(Q^2*N), or minus its ceiling when Q < 0; P
    is an integer, so adding it and then flooring the quotient by D leaves
    the floor of the whole value unchanged."""
    m = Q * Q * N
    r = math.isqrt(m)
    if Q < 0:
        r = -r - (r * r != m)
    return (P + r) // D


def _coordinates(x) -> tuple[int, int, int, int]:
    """(P, Q, N, D) with x = (P + Q*sqrt(N))/D, all integers and D > 0: the
    doubled coordinates of a QuadInt of any N, numerator and denominator
    (N = 0) of an int or a Fraction.  The one reader of an operand."""
    if isinstance(x, QuadInt):
        return x.p, x.q, x.N, 2
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, 0, x.denominator
    raise TypeError(f"cannot interpret {type(x).__name__} as a real value")


def _real(x) -> tuple[int, int, int, int]:
    """`_coordinates` of a real value: NotApplicable for N < 0."""
    P, Q, N, D = _coordinates(x)
    if N < 0:
        raise NotApplicable("no real value for N < 0")
    return P, Q, N, D


def compare_values(a, b) -> int:
    """Exact three-way comparison of mixed QuadInt / int / Fraction values,
    in any fields: the sign of da*db*(a - b) = x + y*sqrt(Na) + z*sqrt(Nb)
    on integers, where an int or a Fraction has N = 0 and q = 0.  In one
    field, or for z = 0, that is one `_sign`.  Otherwise let s and t be the
    signs of X = x + y*sqrt(Na) and of z: when they differ, |X| against
    |z|*sqrt(Nb) is decided by their squares, X^2 - z^2*Nb = (x^2 + y^2*Na
    - z^2*Nb) + 2xy*sqrt(Na), one `_sign` again."""
    pa, qa, Na, da = _real(a)
    pb, qb, Nb, db = _real(b)
    x, y, z = pa * db - pb * da, qa * db, -qb * da
    if Na == Nb or z == 0:
        return _sign(x, y + z, Na)
    s, t = _sign(x, y, Na), 1 if z > 0 else -1
    if s * t >= 0:
        return s or t
    return s * _sign(x * x + y * y * Na - z * z * Nb, 2 * x * y, Na)


def decimal_str(x) -> str:
    """Floored to six decimal places, computed without floating point."""
    return _decimal(*_real(x))


def _decimal(p: int, q: int, N: int, d: int) -> str:
    """decimal_str of (p + q*sqrt(N))/d, for N >= 0 and d > 0."""
    v = _floor_quadratic(p * 10**6, q * 10**6, N, d)
    whole, frac = divmod(abs(v), 10**6)
    return f"{'-' if v < 0 else ''}{whole}.{frac:06d}"


# ---------------------------------------------------------------------------
# rendering


def render(x: QuadInt) -> str:
    """a+b√N without a coefficient 1 or an integer part 0; odd q over 2."""
    p, q, N = x.p, x.q, x.N
    if q == 0:
        return str(p // 2)
    a, b = (p, q) if q % 2 else (p // 2, q // 2)
    op = "-" if b < 0 else "+" if a else ""
    text = f"{a or ''}{op}{'' if abs(b) == 1 else abs(b)}√{N}"
    return f"({text})/2" if q % 2 else text
