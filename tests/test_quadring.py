import contextvars
import math
import random
import re
from fractions import Fraction

import pytest

from artifact import quadring as qr
from artifact.quadring import (
    DivByZero,
    FieldMismatch,
    NotApplicable,
    NotDivisible,
    ParityError,
    compare_values,
    decimal_str,
    exact_divide,
    field,
    make,
    render,
)
from artifact.units import fundamental_unit
from oracles import squarefree_range


def test_make_validates_parity():
    # (1+sqrt5)/2 is the golden ratio, a genuine algebraic integer
    phi = make(5, 1, 1)
    assert phi.norm() == -1 and phi.trace() == 1
    # but (1+sqrt3)/2 is not: N=3 needs both coordinates even
    with pytest.raises(ParityError):
        make(3, 1, 1)
    with pytest.raises(ParityError):
        make(2, 3, 1)
    with pytest.raises(ParityError):
        make(5, 2, 1)  # mixed parity fails in every basis
    # negative fields follow the same rule: -3 is 1 mod 4, -1 is not
    make(-3, 1, 1)
    with pytest.raises(ParityError):
        make(-1, 1, 1)


def test_field_validation():
    with pytest.raises(ValueError):
        field(12)  # not squarefree
    with pytest.raises(ValueError):
        field(1)
    with pytest.raises(ValueError):
        field(0)
    assert field(5).omega_kind == "HalfOnePlusSqrtN"
    assert field(-3).omega_kind == "HalfOnePlusSqrtN"
    assert field(2).omega_kind == "SqrtN"
    assert field(-1).omega_kind == "SqrtN"
    # the second basis element: (1+sqrt21)/2, of norm -5, and sqrt2 itself
    assert (make(21, 1, 1).trace(), make(21, 1, 1).norm()) == (1, -5)
    assert make(2, 0, 2) ** 2 == 2


def test_norm_trace_conjugate_basics():
    x = make(3, 6, 2)  # 3 + sqrt(3)
    assert x.trace() == 6
    assert x.norm() == 6
    assert x.conjugate() == make(3, 6, -2)
    assert x + x.conjugate() == x.trace()
    assert x * x.conjugate() == x.norm()


def test_arithmetic_random_sweep():
    """Ring axioms and norm/trace identities on random elements."""
    rng = random.Random(7)
    for N in (2, 3, 5, 13, 21, -1, -3, -7, 34):
        fld = field(N)
        for _ in range(150):
            if fld.omega_kind == "SqrtN":
                a = make(N, 2 * rng.randrange(-50, 51), 2 * rng.randrange(-50, 51))
                b = make(N, 2 * rng.randrange(-50, 51), 2 * rng.randrange(-50, 51))
            else:
                pa, qa = rng.randrange(-99, 100), rng.randrange(-99, 100)
                pb, qb = rng.randrange(-99, 100), rng.randrange(-99, 100)
                a = make(N, pa, qa + (pa - qa) % 2)
                b = make(N, pb, qb + (pb - qb) % 2)
            assert a + b == b + a
            assert (a - b) + b == a
            assert a * b == b * a
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a + b).trace() == a.trace() + b.trace()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a * (b + b) == a * b * 2
            k = rng.randrange(4)
            assert a**k == math.prod([a] * k, start=fld.one())


def test_int_coercion_and_equality():
    x = make(7, 6, 2)
    assert x + 1 == make(7, 8, 2)
    assert 1 + x == make(7, 8, 2)
    assert 3 * x == make(7, 18, 6)
    assert x - x == 0
    assert make(7, 10, 0) == 5
    assert make(5, 6, 0) == Fraction(3)
    assert hash(make(5, 6, 0)) == hash(3)
    assert make(7, 10, 0) == make(5, 10, 0)  # the same rational integer
    assert make(7, 6, 2) != make(5, 6, 2)  # irrational: ambient field matters


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        make(2, 2, 2) + make(3, 2, 2)
    with pytest.raises(FieldMismatch):
        make(2, 2, 2) * make(3, 2, 2)
    with pytest.raises(FieldMismatch):
        make(2, 2, 2) < make(3, 2, 2)
    with pytest.raises(FieldMismatch):
        exact_divide(make(2, 2, 2), make(3, 2, 2))


def test_exact_divide():
    x = make(3, 6, 2) * make(3, 10, 4)
    assert exact_divide(x, make(3, 6, 2)) == make(3, 10, 4)
    with pytest.raises(NotDivisible):
        exact_divide(make(3, 6, 2), make(3, 10, 4))
    with pytest.raises(DivByZero):
        exact_divide(make(3, 6, 2), make(3, 0, 0))
    # coordinates divide but the quotient is a half-integer point: 2+sqrt5
    # over 2 would need (2+sqrt5)/2, which has mixed parity
    with pytest.raises(NotDivisible):
        exact_divide(make(5, 4, 2), make(5, 4, 0))
    assert qr.divides(make(5, 1, 1), make(5, 4, 2))  # phi divides 2+sqrt5


def test_exact_divide_random_roundtrip():
    rng = random.Random(21)

    def rand_elt(N, kind):
        if kind == "SqrtN":
            return make(N, 2 * rng.randrange(-9, 10), 2 * rng.randrange(-9, 10))
        p, q = rng.randrange(-19, 20), rng.randrange(-19, 20)
        return make(N, p + (p - q) % 2, q)

    for _ in range(400):
        N = rng.choice([2, 3, 5, 13, 21, -1, -3])
        kind = field(N).omega_kind
        a, b = rand_elt(N, kind), rand_elt(N, kind)
        if b.is_zero():
            continue
        assert exact_divide(a * b, b) == a


def test_inverse_and_negative_powers():
    eps = make(2, 2, 2)  # 1 + sqrt2, norm -1
    assert eps.inverse() == make(2, -2, 2)
    assert eps * eps.inverse() == 1
    assert eps**-3 * eps**3 == 1
    with pytest.raises(NotDivisible):
        make(2, 6, 2).inverse()


def test_power_refuses_a_negative_exponent():
    """Binary powering ends because m's bits run out, which a negative m's
    never do: it is refused before the loop, not left to run forever."""
    assert qr._power(2, 0, 2, 2, 3, 2) == (14, 10)  # (1 + sqrt2)^3
    with pytest.raises(qr.InternalInconsistency, match="m >= 0"):
        qr._power(2, 0, 3, 1, -1, 2)


def test_sign_and_ordering_exact():
    assert make(2, 2, 2).sign() == 1
    assert make(2, -2, -2).sign() == -1
    assert make(2, 0, 0).sign() == 0
    # 1+sqrt2 vs 5/2: 2.414... < 2.5, a case where doubles are already shaky
    assert make(2, 2, 2) < Fraction(5, 2)
    # phi vs 13/8 = 1.625 and 1.618... on the other side
    assert make(5, 1, 1) < Fraction(13, 8)
    assert make(5, 1, 1) > Fraction(8, 5)
    # sqrt(2) vs 665857/470832 (a continued-fraction convergent, agrees to
    # eleven decimal places)
    assert make(2, 0, 2) < Fraction(665857, 470832)
    assert make(2, 0, 2) > Fraction(470832 * 2, 665857)
    with pytest.raises(NotApplicable):
        make(-1, 2, 2).sign()
    with pytest.raises(NotApplicable):
        make(-3, 1, 1) < make(-3, 3, 1)


def test_compare_values_cross_field():
    # 1+sqrt2 = 2.414..., 2+sqrt3 = 3.732...
    assert compare_values(make(2, 2, 2), make(3, 4, 2)) == -1
    assert compare_values(make(3, 4, 2), make(2, 2, 2)) == 1
    # sqrt2 + 1 vs sqrt3 + 0.68: 2.4142 vs 2.4120
    assert compare_values(make(2, 2, 2), Fraction(68, 100) + 1) == 1
    assert compare_values(make(2, 4, 0), 2) == 0
    assert compare_values(3, make(3, 6, 0)) == 0
    assert compare_values(Fraction(7, 2), make(13, 8, 0)) == -1
    # very close cross-field pair: sqrt(51) = 7.1414..., 5+sqrt(46)/pi-ish
    assert compare_values(make(51, 0, 2), make(2, 10, 2)) == 1  # vs 5+sqrt2


def test_decimal_str():
    assert decimal_str(make(5, 1, 1)) == "1.618033"
    assert decimal_str(make(2, 0, 2)) == "1.414213"
    assert decimal_str(make(3, 6, 2)) == "4.732050"
    assert decimal_str(make(2, -2, -2)) == "-2.414214"
    assert decimal_str(make(7, 6, 0)) == "3.000000"
    assert decimal_str(Fraction(1, 3), places=4) == "0.3333"
    assert decimal_str(7) == "7.000000"


def test_render():
    assert render(make(3, 6, 2)) == "3+√3"
    assert render(make(3, 6, -2)) == "3-√3"
    assert render(make(5, 1, 1)) == "(1+√5)/2"
    assert render(make(21, 7, -1)) == "(7-√21)/2"
    assert render(make(5, 0, 2)) == "√5"
    assert render(make(5, 0, -2)) == "-√5"
    assert render(make(2, 0, 4)) == "2√2"
    assert render(make(13, -6, 0)) == "-3"
    assert render(make(13, 0, 0)) == "0"
    assert render(make(-3, 1, 1)) == "(1+√-3)/2"
    assert str(make(2, 2, 2)) == "1+√2"


def test_squarefree_decompose():
    assert qr.squarefree_decompose(342) == (3, 38)
    assert qr.squarefree_decompose(48672) == (156, 2)
    assert qr.squarefree_decompose(1) == (1, 1)
    assert qr.squarefree_decompose(4) == (2, 1)
    assert qr.squarefree_decompose(97) == (1, 97)
    with pytest.raises(ValueError):
        qr.squarefree_decompose(0)
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        s, f = qr.squarefree_decompose(n)
        assert s * s * f == n
        assert qr.is_squarefree(f)


def test_squarefree_part_and_range():
    assert qr.squarefree_part(12) == 3
    assert qr.squarefree_part(50) == 2
    assert [n for n in squarefree_range(30)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30,
    ]
    brute = [n for n in range(1, 200) if all(n % (d * d) for d in range(2, 15))]
    assert squarefree_range(199) == brute


def test_factorize():
    assert qr.factorize(1) == {}
    assert qr.factorize(2**10) == {2: 10}
    assert qr.factorize(342) == {2: 1, 3: 2, 19: 1}
    assert qr.factorize(10**12 + 39) == {10**12 + 39: 1}  # prime
    # a product of two 12-digit primes exercises the rho path
    p, q = 999999999989, 999999999961
    assert qr.factorize(p * q) == {q: 1, p: 1}
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 10**9)
        fac = qr.factorize(n)
        assert math.prod(pr**e for pr, e in fac.items()) == n
        assert all(qr._is_probable_prime(pr) for pr in fac)


def _under_budget(budget, fn, *args):
    """fn(*args) with the factor budget set in a copy of the context."""

    def run():
        qr.set_factor_budget(budget)
        return fn(*args)

    return contextvars.copy_context().run(run)


def _trial_division(n):
    """Oracle for the block scan: divide by 2 and each odd d while d*d <= n."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 10**15 + 1)
        fac = qr.factorize(n)
        assert fac == sympy.factorint(n), n
        assert list(fac) == sorted(fac)


def test_block_scan_matches_trial_division():
    primes = qr._primes()
    # the last prime tried one by one and the first of the blocks, the last
    # prime of a block and the first of the next, then the largest prime of
    # the sieve and the first prime after it
    edges = [
        (primes[start - 1], primes[start])
        for start in range(len(qr._BELOW_100), len(primes), qr._BLOCK)
    ]
    edges = edges[:3] + edges[150:151] + edges[-1:]
    edges.append((999983, 1000003))
    cases = [999983 * 1000003, 999983**2 * 1000003**3]
    for lo, hi in edges:
        cases += [lo * hi, lo**2 * hi**2, 2 * lo * hi**3, 3**5 * lo * 1619 * hi]
    rng = random.Random(17)
    for _ in range(40):
        n = 2 ** rng.randrange(4)
        for _ in range(rng.randrange(1, 4)):
            n *= rng.choice(primes[: 3 * qr._BLOCK]) ** rng.randrange(1, 3)
        cases.append(n * rng.choice(primes) ** rng.randrange(1, 3))
    # what trial division leaves of these is 1, a prime or a prime power,
    # so a prime it missed would send a composite to rho, which a budget of
    # one iteration refuses
    for n in cases:
        assert _under_budget(1, qr.factorize, n) == _trial_division(n), n


def test_trial_division_proves_cofactors_below_the_sieve_square(monkeypatch):
    calls = []
    real = qr._is_probable_prime
    monkeypatch.setattr(qr, "_is_probable_prime", lambda n: calls.append(n) or real(n))
    # a cofactor below 10^12 that trial division leaves is prime, with no
    # Miller-Rabin; 1000003 is the least prime above the sieve
    for n in range(1, 20_000):
        assert qr.factorize(n) == _trial_division(n), n
    assert qr.factorize(1000003) == {1000003: 1}
    assert qr.factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert calls == []
    # from 10^12 on, a cofactor takes the tests: 1000003 * 1000033, two
    # primes above the sieve whose product no trial division can tell from
    # a prime, the square of 1000003, and a prime
    seen = {}
    for n in (1000003 * 1000033, 1000003**2, 10**12 + 39):
        calls.clear()
        seen[n] = qr.factorize(n), bool(calls)
    assert seen == {
        1000003 * 1000033: ({1000003: 1, 1000033: 1}, True),
        1000003**2: ({1000003: 2}, True),
        10**12 + 39: ({10**12 + 39: 1}, True),
    }
    # the pieces that rho or a perfect-power root split off such a cofactor
    # are below 10^12 here, so only the cofactor itself takes the test
    for n, want in [
        (100000007 * 99999989, {99999989: 1, 100000007: 1}),
        (1000003 * 1000033, {1000003: 1, 1000033: 1}),
        (1000003**2, {1000003: 2}),
        (1000003**3 * 7, {7: 1, 1000003: 3}),
    ]:
        calls.clear()
        assert qr.factorize(n) == want
        assert len(calls) == 1 and min(calls) >= 10**12, (n, calls)


def test_sieve_against_sympy():
    sympy = pytest.importorskip("sympy")
    assert list(qr._primes()) == list(sympy.primerange(2, 10**6 + 1))


def test_probable_prime_against_sympy():
    """_is_probable_prime against sympy's isprime: random n and random primes
    on both sides of psi_13 = 3.3e24, where the random rounds start; the
    strong pseudoprimes psi_12 and psi_13 to the first 12 and 13 prime
    bases; products of two primes near 10^15; Carmichael numbers, small and
    of Chernick's form (6k+1)(12k+1)(18k+1) with three prime factors; and
    strong Lucas and strong base-2 pseudoprimes, each of which fools one
    half of a Baillie-PSW test."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
    cases = [psi_12, psi_13, psi_13 + 2, 2047, 3215031751, 3825123056546413051]
    for lo, hi in ((2, psi_13), (psi_13, psi_13 << 40)):
        cases += [rng.randrange(lo, hi) | 1 for _ in range(200)]
        cases += [sympy.randprime(lo, hi) for _ in range(20)]
    for _ in range(20):
        p, q = (sympy.nextprime(10**15 + rng.randrange(10**12)) for _ in "pq")
        cases += [p * q, p * p]
    cases += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265]
    # strong Lucas pseudoprimes, then strong pseudoprimes to base 2
    cases += [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    cases += [3277, 4033, 4681, 8321, 15841, 29341]
    for start in (1, 10**6, 10**9):
        k, found = start, 0
        while found < 3:
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(sympy.isprime(f) for f in factors):
                cases.append(math.prod(factors))
                found += 1
            k += 1
    assert max(cases[-3:]) > psi_13
    for n in cases:
        assert qr._is_probable_prime(n) == sympy.isprime(n), n
    assert qr.factorize(psi_12) == sympy.factorint(psi_12)


def test_perfect_powers_are_rooted_before_rho():
    P = 37899087760762121  # prime: rho alone needs about sqrt(P) steps on P^k
    for k in range(2, 6):
        assert _under_budget(300_000, qr.factorize, P**k * 6) == {2: 1, 3: 1, P: k}
    # prime powers are split by exact roots only, so one rho iteration of
    # budget is enough; 17 * 19.93 bits is where a bit_length // 20 bound
    # would miss the root of 1000003^17
    for p, k in [(P, 7), (1000003, 6), (1000003, 17), (999999999989, 4)]:
        assert _under_budget(1, qr.factorize, 5 * p**k) == {5: 1, p: k}
    # a composite root goes on to rho with the exponent it carries
    p, q = 1000003, 1000033
    assert qr.factorize((p * q) ** 3 * 7) == {7: 1, p: 3, q: 3}
    assert qr.factorize(p**2 * q**3) == {p: 2, q: 3}


def test_factor_budget_is_per_context_and_reported():
    n = 999999999989 * 999999999961
    with pytest.raises(qr.FactorizationLimit) as err:
        _under_budget(1000, qr.factorize, n)
    found = re.fullmatch(
        r"factor budget (\d+) exhausted after (\d+) rho iterations "
        r"on a (\d+)-bit cofactor",
        str(err.value),
    )
    budget, spent, bits = map(int, found.groups())
    assert budget == 1000 and 1000 <= spent < 1000 + 128
    assert bits == n.bit_length()
    # the budget set in that context ends with it
    assert qr.factorize(n) == {999999999961: 1, 999999999989: 1}


def test_divisors():
    assert qr.divisors(21) == [1, 3, 7, 21]
    assert qr.divisors(1) == [1]
    assert qr.divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_is_square():
    assert qr.is_square(0) and qr.is_square(1) and qr.is_square(156**2)
    assert not qr.is_square(2) and not qr.is_square(-4)


# ---------------------------------------------------------------------------
# the integer order against an independent oracle


def test_floor_quadratic_against_mpmath():
    """floor((P + Q*sqrt(N))/D) against mpmath at 300 digits, for P and Q of
    both signs, D = 1, 2 and larger, N = 0, perfect squares Q^2*N (N a
    square, including 1) and values within 10^-40 of an integer."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    cases = [(5, -1, 0, 3), (-5, 3, 0, 2), (7, -3, 4, 2), (-7, -3, 9, 5)]
    for _ in range(3000):
        N = rng.choice([0, 1, 4, 9, 2, 3, 5, 6, 7, 13, 93, 10**6 + 3, 2 * 10**30])
        P, Q = (rng.randrange(-10**rng.randrange(1, 25), 10**20) for _ in "PQ")
        D = rng.choice([1, 2, rng.randrange(1, 10**rng.randrange(1, 20))])
        cases.append((P, Q, N, D))
    for _ in range(300):  # Q*sqrt(N) just off the integer -P
        N, Q = rng.choice([2, 3, 5, 7, 1001]), rng.randrange(-10**40, 10**40)
        with mpmath.workdps(300):
            P = -int(mpmath.floor(Q * mpmath.sqrt(N))) + rng.randrange(-1, 2)
        cases.append((P, Q, N, rng.choice([1, 2, 3])))
    with mpmath.workdps(300):
        for P, Q, N, D in cases:
            value = (P + Q * mpmath.sqrt(N)) / D
            want = int(mpmath.floor(value))
            assert qr._floor_quadratic(P, Q, N, D) == want, (P, Q, N, D)


def _oracle_sign(r: Fraction, s: Fraction, N: int) -> int:
    """Sign of r + s*sqrt(N) by Fraction arithmetic and isqrt brackets of
    sqrt(N), refined until the bracket excludes zero.  Zero only for s = 0:
    sqrt(N) is irrational for the squarefree N > 1 used here."""
    if s == 0:
        return (r > 0) - (r < 0)
    scale = 1 << 32
    while True:
        root = math.isqrt(N * scale * scale)
        ends = (r + s * Fraction(root, scale), r + s * Fraction(root + 1, scale))
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        scale <<= 32


def _oracle_value(x):
    """(rational part, coefficient of sqrt(N)) as Fractions."""
    if isinstance(x, qr.QuadInt):
        return Fraction(x.p, 2), Fraction(x.q, 2)
    return Fraction(x), Fraction(0)


def _random_element(rng, N, box):
    p, q = rng.randrange(-box, box + 1), rng.randrange(-box, box + 1)
    if field(N).omega_kind == "SqrtN":
        return make(N, 2 * p, 2 * q)
    return make(N, p, q + (p - q) % 2)


def _check_order(x, y):
    rx, sx = _oracle_value(x)
    ry, sy = _oracle_value(y)
    want = _oracle_sign(rx - ry, sx - sy, x.N)
    assert x.sign() == _oracle_sign(rx, sx, x.N)
    assert qr.compare(x, y) == want
    assert compare_values(x, y) == want
    assert (x < y, x <= y, x > y, x >= y, x == y) == (
        want < 0, want <= 0, want > 0, want >= 0, want == 0
    ), (x, y)


def test_integer_order_matches_oracle():
    """sign, compare, <, <=, >, >=, == against QuadInt, int and Fraction,
    for N = 1 mod 4 and N != 1 mod 4, agree with the Fraction oracle."""
    rng = random.Random(4)
    for N in (2, 3, 6, 7, 5, 13, 21, 93):
        for _ in range(120):
            x = _random_element(rng, N, 60)
            others = [
                x,
                _random_element(rng, N, 60),
                rng.randrange(-40, 41),
                Fraction(rng.randrange(-400, 401), rng.randrange(1, 30)),
            ]
            # a rational just beside the value, from its decimal floor
            f = qr._floor_quadratic(x.p * 10**6, x.q * 10**6, N, 2)
            lo, hi = Fraction(f, 10**6), Fraction(f + 1, 10**6)
            others += [lo, hi, int(math.floor(lo)), int(math.floor(lo)) + 1]
            for y in others:
                _check_order(x, y)


def test_integer_order_near_rationals():
    """Values within 1/k^2 of a rational h/k: sqrt2 against its convergents,
    the golden ratio against Fibonacci ratios, and the tiny h - k*sqrt2 and
    (2b - a) - a*sqrt5 against 0."""
    h, k = 1, 1
    for _ in range(40):
        for x in (make(2, 0, 2), make(2, 2 * h, -2 * k), make(2, -2 * h, 2 * k)):
            for y in (Fraction(h, k), Fraction(2 * k, h), 0, h, make(2, 2 * h, 0)):
                _check_order(x, y)
        h, k = h + 2 * k, h + k
    phi = make(5, 1, 1)
    a, b = 1, 1
    for _ in range(60):
        a, b = b, a + b
        _check_order(phi, Fraction(b, a))
        _check_order(phi**7, Fraction(b, a) ** 7)
        tiny = make(5, 2 * (2 * b - a), -2 * a)
        for y in (0, Fraction(1, a * a), Fraction(-1, a * a), make(5, 0, 0)):
            _check_order(tiny, y)


def test_rationals_of_the_ring_are_integers():
    """q = 0 forces p even, so == and hash agree with int and Fraction."""
    for N in (2, 3, 5, 13, -1, -3):
        for k in (-7, -1, 0, 1, 2, 10**30):
            x = make(N, 2 * k, 0)
            assert x == k == Fraction(k)
            assert x != Fraction(2 * k + 1, 2) and x != k + 1
            assert hash(x) == hash(k) == hash(Fraction(k))


# ---------------------------------------------------------------------------
# closure: results of ring operations pass make's parity check


def test_ring_operations_stay_integral():
    """Every ring operation builds its result without a parity check; each
    result must still pass make(N, p, q), in both integral bases."""
    rng = random.Random(12)
    for N in (2, 3, 7, 5, 13, 21, -1, -3, -7):
        units = [field(N).one(), -field(N).one()]
        if N > 0:
            eps = fundamental_unit(N).eps
            units += [eps, -eps, eps.conjugate()]
        for _ in range(80):
            a, b = _random_element(rng, N, 40), _random_element(rng, N, 40)
            results = [a + b, a - b, a * b, -a, a.conjugate(), a + 3, 3 - a, a * -5]
            results += [a**k for k in range(7)]
            u = rng.choice(units)
            results += [u.inverse()] + [u**k for k in range(-6, 7)]
            results += [field(N).integer(-4)]
            for z in results:
                assert make(N, z.p, z.q) == z



# ---------------------------------------------------------------------------
# the exact sign of a sum of square roots


_NINE_PRIMES = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
_RADICANDS = [2, 3, 5, 6, 7, 10, 30, 105, 1001, _NINE_PRIMES, _NINE_PRIMES // 6]


def _cleared(terms):
    """terms times the lcm of their denominators: integer coefficients and
    the same sign."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {r: int(c * d) for r, c in terms.items()}


def _mp_sign(mpmath, terms):
    """Sign of sum c*sqrt(r) at the working precision, which must leave no
    doubt: the value is asserted to be far above the rounding error."""
    value = mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
        for r, c in terms.items()
    )
    assert abs(value) > mpmath.mpf(10) ** -400
    return (value > 0) - (value < 0)


def test_radical_sign_against_mpmath():
    """Random sums over products of up to nine primes; in half of them the
    rational part cancels the irrational part to within 10^-40.  Then
    compare_values on near pairs from different fields."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(6)
    with mpmath.workdps(500):
        for i in range(300):
            terms = {
                r: Fraction(rng.randrange(-10**6, 10**6) or 1, rng.randrange(1, 1000))
                for r in rng.sample(_RADICANDS, rng.randrange(1, 6))
            }
            if i % 2:
                irrational = mpmath.fsum(
                    mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
                    for r, c in terms.items()
                )
                tip = int(mpmath.floor(-irrational * 10**40)) + rng.randrange(2)
                terms[1] = Fraction(tip, 10**40)
            else:
                terms[1] = Fraction(rng.randrange(-100, 100), rng.randrange(1, 9))
            assert qr.radical_sign(_cleared(terms)) == _mp_sign(mpmath, terms), terms
        for _ in range(200):
            N1, N2 = rng.sample([2, 3, 5, 6, 7, 30, 105, 1001], 2)
            x = make(N1, 0, 2 * rng.randrange(1, 10**6))
            # y = a + b*sqrt(N2) with a chosen so that y is within 1 of x
            b = rng.randrange(1, 10**3)
            a = qr._floor_quadratic(0, x.q, N1, 2)
            a -= qr._floor_quadratic(0, b, N2, 1)
            y = make(N2, 2 * (a + rng.randrange(-1, 2)), 2 * b)
            want = _mp_sign(mpmath, {N1: x.q, 1: -y.p, N2: -y.q})  # doubled
            assert compare_values(x, y) == want, (x, y)
            assert compare_values(y, x) == -want


def test_radical_sign_zero_and_near_zero_over_2_3_6():
    """Sums over {1, 2, 3, 6} that cancel or nearly cancel, with integer
    square-root brackets as the oracle.  Splitting off only the largest
    radical never ends on such sums; radical_sign must return."""
    assert qr.radical_sign({}) == 0
    assert qr.radical_sign({1: 0, 2: 0}) == 0
    square = {1: 6, 2: 2, 3: 2, 6: 2}  # (1 + sqrt2 + sqrt3)^2, by hand
    assert qr._radical_square({1: 1, 2: 1, 3: 1}) == square
    assert qr.radical_sign(qr._radical_sub(square, square)) == 0
    for k in range(1, 60):
        ten = 10**k
        root2, root3 = math.isqrt(2 * ten * ten), math.isqrt(3 * ten * ten)
        # (1 + sqrt2 + sqrt3) * ten lies in (s, s + 2); compare squares * ten^2
        s = ten + root2 + root3
        scaled = {r: c * ten * ten for r, c in square.items()}
        assert qr.radical_sign(qr._radical_sub(scaled, {1: s * s})) == 1
        assert qr.radical_sign(qr._radical_sub(scaled, {1: (s + 2) ** 2})) == -1
        # c < (sqrt2 + sqrt3)/sqrt6 = sqrt3/3 + sqrt2/2 < c + 1/ten, c = a/d
        a, d = 2 * root3 + 3 * root2, 6 * ten
        assert qr.radical_sign({2: d, 3: d, 6: -a}) == 1
        assert qr.radical_sign({2: d, 3: d, 6: -a - 6}) == -1
        assert qr.radical_sign({2: -d, 3: -d, 6: a}) == -1
