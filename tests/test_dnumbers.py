import itertools
import math
import random
from fractions import Fraction

import pytest

from artifact import dnumbers, quadring
from artifact.dnumbers import (
    CASE_ELSE,
    CASE_KAPPA_PRODUCT_EQ_N,
    CASE_N_KAPPA1_EQ_KAPPA2,
    CASE_N_KAPPA2_EQ_KAPPA1,
    CASE_NORM_MINUS_ONE,
    CanonicalFactorization,
    canonical_factor,
    complex_classify,
    dnumber_divides,
    dnumber_order,
    evaluate,
    generator_set,
    is_dnumber,
    kappas,
    sqrt_classes,
)
from artifact.dplus import enumerate_field
from artifact.fusion import quantum_int
from artifact.quadring import (
    FieldMismatch,
    InternalInconsistency,
    NotApplicable,
    ZeroElement,
    divides,
    field,
    make,
    render,
    squarefree_part,
)
from artifact.units import fundamental_unit
import oracles
from oracles import is_dnumber_via_charpoly, squarefree_range


def rand_element(rng, N):
    """A random nonzero element of O_N with coordinates in a small box."""
    kind = field(N).omega_kind
    while True:
        if kind == "SqrtN":
            p, q = 2 * rng.randrange(-40, 41), 2 * rng.randrange(-40, 41)
        else:
            p = rng.randrange(-80, 81)
            q = rng.randrange(-80, 81)
            p += (p - q) % 2
        if p or q:
            return make(N, p, q)


def test_is_dnumber_basics():
    assert is_dnumber(make(3, 6, 2))  # 3+sqrt3: 36 divisible by 6
    assert is_dnumber(make(7, 0, 10))  # 5*sqrt7: trace 0
    assert not is_dnumber(make(3, 2, 4))  # 1+2sqrt3: 4 over -11
    assert is_dnumber(make(3, 4, 4))  # 2+2sqrt3 = sqrt3 * eps_3 * ... check: 16 over -8
    with pytest.raises(ZeroElement):
        is_dnumber(make(5, 0, 0))


def test_criterion_equivalence_sweep():
    """Norm-divides-trace-squared agrees with the characteristic-polynomial
    coefficient test on random ring elements, real and imaginary."""
    rng = random.Random(5)
    for N in (2, 3, 5, 13, 21, 34, 97, -1, -2, -3, -7, -15):
        for _ in range(1500):
            x = rand_element(rng, N)
            assert is_dnumber(x) == is_dnumber_via_charpoly(x), repr(x)


def test_closure_under_multiplication():
    rng = random.Random(17)
    for N in (2, 3, 6, 7, 15, 21):
        gs = generator_set(N)
        eps = fundamental_unit(N).eps
        pool = [
            evaluate(CanonicalFactorization(N, ell, m, delta, gs.case))
            for ell in (1, 2, 5)
            for m in (0, 1)
            for delta in gs.delta_combos()
        ]
        for _ in range(120):
            a, b = rng.choice(pool), rng.choice(pool)
            assert is_dnumber(a * b)
            assert is_dnumber(a * b * eps)


def test_dnumber_order():
    e3 = fundamental_unit(3).eps
    assert dnumber_order(e3 * 24) == 1
    assert dnumber_order(make(3, 14, 0)) == 1  # plain integer 7
    assert dnumber_order(make(3, 6, 2)) == 2  # 3+sqrt3
    assert dnumber_order(make(13, 0, 2)) == 2  # sqrt13
    assert dnumber_order(-e3**2 * 7) == 1
    # (3+sqrt3)^2 = 6*eps_3 has order 1 again
    assert dnumber_order(make(3, 6, 2) ** 2) == 1


def test_kappas_table():
    """kappa_1 = sqf(t+2), kappa_2 = sqf(t-2) for every norm +1 field N <= 46."""
    expected = {
        3: (6, 2), 6: (3, 2), 7: (2, 14), 11: (22, 2), 14: (2, 7),
        15: (10, 6), 19: (38, 2), 21: (7, 3), 22: (11, 2), 23: (2, 46),
        30: (6, 5), 31: (2, 62), 33: (3, 11), 34: (2, 17), 35: (14, 10),
        38: (19, 2), 39: (13, 3), 42: (7, 6), 46: (2, 23),
    }
    for N, pair in expected.items():
        assert kappas(N) == pair, f"N={N}"
        # the defining property: kappa_i * (t -+ 2) is a perfect square
        t = fundamental_unit(N).t
        k1, k2 = pair
        from artifact.quadring import is_square

        assert is_square(k1 * (t + 2)) and is_square(k2 * (t - 2))
    for N in (2, 5, 10, 13, 17, 26, 29, 37, 41, 53):
        with pytest.raises(NotApplicable):
            kappas(N)
    with pytest.raises(NotApplicable):
        kappas(-7)


def test_kappas_against_squarefree_parts():
    """The gcd formula against factorization: kappa_i = sqf(t -+ 2) on all
    1420 norm +1 fields N <= 3000."""
    fields = 0
    for N in squarefree_range(3000)[1:]:
        fu = fundamental_unit(N)
        if fu.unit_norm == 1:
            want = squarefree_part(fu.t + 2), squarefree_part(fu.t - 2)
            assert kappas(N) == want, N
            fields += 1
    assert fields == 1420


@pytest.mark.parametrize("N", [99991, 199999, 1000003, 499979])
def test_kappas_certified_where_factoring_fails(N):
    """t -+ 2 has 301 to 1236 bits here, where factoring it exhausts rho's
    default budget or takes seconds; each kappa_i is squarefree and leaves
    a perfect square."""
    fu = fundamental_unit(N)
    for kappa, a in zip(kappas(N), (fu.t + 2, fu.t - 2)):
        assert squarefree_part(kappa) == kappa
        r = math.isqrt(a // kappa)
        assert a == kappa * r * r, (N, kappa)


def test_generator_sets_for_small_fields():
    expected = {
        2: ["√2"],
        3: ["√3", "1+√3"],
        5: ["√5"],
        6: ["3+√6", "2+√6"],
        7: ["√7", "3+√7"],
        10: ["√10"],
        11: ["√11", "3+√11"],
        13: ["√13"],
        14: ["4+√14", "7+2√14"],
        15: ["√15", "5+√15", "3+√15"],
        17: ["√17"],
        19: ["√19", "13+3√19"],
        21: ["(7+√21)/2", "(3+√21)/2"],
        22: ["33+7√22", "14+3√22"],
    }
    for N, gens in expected.items():
        gs = generator_set(N)
        assert [render(g) for g in gs.generators] == gens, f"N={N}"


def test_case_classification():
    assert generator_set(13).case == CASE_NORM_MINUS_ONE
    assert generator_set(21).case == CASE_KAPPA_PRODUCT_EQ_N
    assert generator_set(7).case == CASE_N_KAPPA1_EQ_KAPPA2
    assert generator_set(3).case == CASE_N_KAPPA2_EQ_KAPPA1
    assert generator_set(15).case == CASE_ELSE
    assert generator_set(35).case == CASE_ELSE  # 14*10 = 140 != 35
    with pytest.raises(NotApplicable):
        generator_set(-3)


def test_generator_square_invariant():
    """Every irrational generator squares to (integer)*eps^j with the
    integer's squarefree part one of {N, kappa_1, kappa_2} and j in {0,1}."""
    for N in squarefree_range(60):
        if N < 2:
            continue
        gs = generator_set(N)
        fu = fundamental_unit(N)
        for g in gs.generators:
            sq = g * g
            if sq.q == 0:
                c, j = sq.p // 2, 0
            else:
                from artifact.quadring import exact_divide

                c_elt = exact_divide(sq, fu.eps)
                assert c_elt.q == 0
                c, j = c_elt.p // 2, 1
            allowed = {N}
            if gs.kappa1 is not None:
                allowed |= {gs.kappa1, gs.kappa2}
            assert squarefree_part(c) in allowed
            assert j in (0, 1)


def test_canonical_factor_known_values():
    f = canonical_factor(make(3, 6, 2))  # 3+sqrt3 = sqrt3 * (1+sqrt3)
    assert (f.ell, f.m, f.delta) == (1, 0, (1, 0, 1))
    f = canonical_factor(fundamental_unit(3).eps * 24)
    assert (f.ell, f.m, f.delta) == (24, 1, (0, 0, 0))
    f = canonical_factor(make(13, 0, 2))
    assert (f.ell, f.m, f.delta) == (1, 0, (1, 0, 0))
    # (3+sqrt3)^2 collapses to 6*eps_3
    f = canonical_factor(make(3, 6, 2) ** 2)
    assert (f.ell, f.m, f.delta) == (6, 1, (0, 0, 0))
    # sign rides on ell; unit exponents may be negative
    f = canonical_factor(-make(3, 6, 2))
    assert (f.ell, f.m, f.delta) == (-1, 0, (1, 0, 1))
    f = canonical_factor(fundamental_unit(3).eps ** -4 * 7)
    assert (f.ell, f.m, f.delta) == (7, -4, (0, 0, 0))


def test_canonical_factor_rejects():
    with pytest.raises(ZeroElement):
        canonical_factor(make(5, 0, 0))
    from artifact.quadring import NotADNumber

    with pytest.raises(NotADNumber):
        canonical_factor(make(3, 2, 4))  # 1+2sqrt3
    with pytest.raises(NotADNumber):
        canonical_factor(make(13, 5, 1))  # (5+sqrt13)/2: 25 over 3
    with pytest.raises(NotADNumber):
        canonical_factor(make(2, 22, 12))  # (3+sqrt2)^2: norm 49 = 1*7^2, key 1
    with pytest.raises(NotApplicable):
        canonical_factor(make(-1, 2, 2))


@pytest.mark.parametrize("N", [-1, -2, -3, -5, -7, -15])
def test_real_field_operations_refuse_every_imaginary_argument(N):
    """The field record refuses N < 0 before any element is read: zero,
    the d-numbers 2 and sqrt(N), and 1 + 2*sqrt(N), not one, alike."""
    xs = [make(N, p, q) for p, q in ((0, 0), (4, 0), (0, 2), (2, 4))]
    assert [is_dnumber(x) for x in xs[1:]] == [True, True, False]
    calls = [
        lambda: kappas(N),
        lambda: sqrt_classes(0, N),
        lambda: sqrt_classes(1, N),
        *(lambda m=m: quantum_int(N, m) for m in (0, 3, -2)),
        *(lambda M=M: enumerate_field(N, M) for M in (5, Fraction(37, 10), 0)),
        *(lambda x=x: canonical_factor(x) for x in xs),
        *(lambda y=y, x=x: dnumber_divides(y, x) for y in xs for x in xs),
    ]
    for call in calls:
        with pytest.raises(NotApplicable):
            call()


def test_canonical_factor_roundtrip_sweep():
    """Construct ell * eps^m * (canonical generator product), factor it, and
    demand the exact parameters back; the unit exponent is additionally
    checked against a repeated-division oracle."""
    rng = random.Random(99)
    from artifact.quadring import exact_divide

    for N in (2, 3, 6, 7, 10, 15, 21, 31, 46):
        gs = generator_set(N)
        fu = fundamental_unit(N)
        for _ in range(200):
            ell = rng.choice([1, -1]) * rng.randrange(1, 60)
            m = rng.randrange(-5, 6)
            delta = rng.choice(gs.delta_combos())
            x = evaluate(CanonicalFactorization(N, ell, m, delta, gs.case))
            f = canonical_factor(x)
            assert (f.ell, f.m, f.delta) == (ell, m, delta), (N, ell, m, delta)
            # oracle for m: strip generators and ell, then divide by eps
            u = exact_divide(x, oracles.generator_set(N).evaluate_delta(delta) * ell)
            steps = 0
            while u != 1:
                u = exact_divide(u, fu.eps) if u > 1 else u * fu.eps
                steps += 1
                assert steps <= 8
            assert steps == abs(m)


def test_signature_key_is_the_squarefree_part_of_the_norm():
    """The delta that the square test picks is the one the definition keys
    by sqf(|N(x)|), on random canonical factorizations over every real
    field N <= 97 (the fields of the criterion 9 round trip)."""
    for N in squarefree_range(97)[1:]:
        gs = generator_set(N)
        keys = oracles.generator_set(N).signature_map
        combos = gs.delta_combos()
        rng = random.Random(N)
        for _ in range(300):
            x = evaluate(CanonicalFactorization(
                N, rng.randrange(1, 10_000), rng.randrange(0, 5),
                combos[rng.randrange(len(combos))], gs.case,
            ))
            want = keys[squarefree_part(abs(x.norm()))]
            assert canonical_factor(x).delta == want, (N, x)


def test_noncanonical_products_still_factor():
    """Products outside the canonical combo set (e.g. sqrt(N) times a kappa
    generator in the generic case) reduce with integer content but must
    still factor consistently by value."""
    for N in (15, 35):
        gs = oracles.generator_set(N)
        all_gens = dict(zip(gs.delta_slots, gs.generators))
        x = all_gens[0] * all_gens[1]  # sqrt(N) * sqrt(kappa1 eps)
        f = canonical_factor(x)
        assert evaluate(f) == x
        x = all_gens[0] * all_gens[1] * all_gens[2]
        f = canonical_factor(x)
        assert evaluate(f) == x


def test_nonnegative_coordinates_bound_unit_exponent():
    """For d-numbers with both coordinates >= 0 the squared factorization
    alpha^2 = q * eps^(2m + d1 + d2) forces 2m + d1 + d2 >= 0.  (The plain
    bound m >= 0 fails: 6*sqrt21 = 6 * eps^-1 * sqrt(7 eps) * sqrt(3 eps).)"""
    rng = random.Random(31)
    for N in (2, 3, 7, 15, 21):
        gs = generator_set(N)
        for _ in range(300):
            ell = rng.randrange(1, 40)
            m = rng.randrange(-4, 5)
            delta = rng.choice(gs.delta_combos())
            x = evaluate(CanonicalFactorization(N, ell, m, delta, gs.case))
            if x.p >= 0 and x.q >= 0:
                f = canonical_factor(x)
                assert 2 * f.m + f.delta[1] + f.delta[2] >= 0
                if f.delta[1] + f.delta[2] == 0:
                    assert f.m >= 0
    # the witness for why the stronger bound fails
    f = canonical_factor(make(21, 0, 12))
    assert (f.ell, f.m, f.delta) == (6, -1, (0, 1, 1))


def test_unit_exponent_exact_for_large_powers():
    """canonical_factor recovers m exactly for far powers of eps, also
    where t > 4 (N = 6, 7), which a log estimate taking eps ~ t/2 missed."""
    for N in (2, 5, 6, 7):
        eps = fundamental_unit(N).eps
        for m in (1, -1, 2, -2, 400, -400, 1000):
            for ell in (1, 3, -7):
                f = canonical_factor(eps**m * ell)
                assert (f.ell, f.m, f.delta) == (ell, m, (0, 0, 0)), (N, m, ell)


def test_unit_exponent_rejects_non_powers():
    t, u = fundamental_unit(3).t, fundamental_unit(3).u
    with pytest.raises(InternalInconsistency):
        quadring._unit_exponent(-t, -u, 3, t, u)  # -eps
    with pytest.raises(InternalInconsistency):
        quadring._unit_exponent(6, 2, 3, t, u)  # make(3, 6, 2): norm 6, no unit
    with pytest.raises(InternalInconsistency):
        quadring._unit_exponent(-2, 2, 3, t, u)  # sqrt3 - 1 < 1: norm -2, no unit


def test_unit_exponent_small_m_order_trap():
    """eps_5 = (1+sqrt5)/2 has trace 1, below the trace 2 of eps^0, so
    traces order the powers of eps only from j = 1 on."""
    fu = fundamental_unit(5)
    gs = generator_set(5)
    for m in range(-2, 3):
        e = fu.eps**m
        assert quadring._unit_exponent(e.p, e.q, 5, fu.t, fu.u) == m
        for ell in (1, -3):
            for delta in gs.delta_combos():
                f = CanonicalFactorization(5, ell, m, delta, gs.case)
                x = evaluate(f)
                assert x == oracles.evaluate(f)
                assert canonical_factor(x) == f, f


def _oracle_cases():
    """(N, ell, m) over every N <= 97, with negative ell and m and
    |m| = 400, and a few factorizations in two large fields."""
    for N in squarefree_range(97)[1:]:
        for m in (*range(-4, 5), 400, -400):
            for ell in (1, -3, 7):
                yield N, ell, m
    for N in (99991, 1000003):
        for m in (-2, -1, 0, 1, 3):
            for ell in (1, -5, 12):
                yield N, ell, m


def test_integer_path_matches_quadint_oracle():
    """evaluate and canonical_factor on table coordinates agree with the
    QuadInt generator products, exact_divide and descent of the oracle, for
    every delta of each field."""
    for N, ell, m in _oracle_cases():
        gs = generator_set(N)
        for delta in gs.delta_combos():
            f = CanonicalFactorization(N, ell, m, delta, gs.case)
            x = oracles.evaluate(f)
            assert evaluate(f) == x, f
            assert canonical_factor(x) == oracles.canonical_factor(x) == f, f
    for N in (6, 7):
        x = fundamental_unit(N).eps ** 400 * 3
        assert canonical_factor(x) == oracles.canonical_factor(x)
        assert (canonical_factor(x).ell, canonical_factor(x).m) == (3, 400)


def _large_ells(rng):
    """+-ell built as the benchmark's factor requests build theirs: a prime
    of 10^8..10^9, two of 10^7..10^8, two of 10^8..10^9 (up to 10^18), a
    squared prime of 10^6..10^7 times one of 10^8..10^9, three of 10^6..10^7."""
    def prime(lo, hi):
        return next(n for n in itertools.count(rng.randrange(lo, hi) | 1, 2)
                    if quadring._is_probable_prime(n))
    while True:
        a, b, c = prime(10**6, 10**7), prime(10**6, 10**7), prime(10**8, 10**9)
        for ell in (c, prime(10**7, 10**8) * prime(10**7, 10**8),
                    c * prime(10**8, 10**9), a * a * c, a * b * prime(10**6, 10**7)):
            yield rng.choice((1, -1)) * ell


def test_large_ell_matches_quadint_oracle():
    """ell of the size of the factor requests (about 10^9 to 10^23, squared
    primes included) with m in -6..6, negative m and negative ell included,
    over every delta of three fields of each case <= 97: the integer path and
    the QuadInt oracle both give f back, and x has order 1 exactly when
    delta = 0."""
    rng = random.Random(32)
    ells = _large_ells(rng)
    by_case = {}
    for N in squarefree_range(97)[1:]:
        by_case.setdefault(generator_set(N).case, []).append(N)
    assert len(by_case) == 5
    for N in (N for fields in by_case.values() for N in rng.sample(fields, 3)):
        gs = generator_set(N)
        for delta in gs.delta_combos():
            for m in range(-6, 7):
                f = CanonicalFactorization(N, next(ells), m, delta, gs.case)
                x = evaluate(f)
                assert canonical_factor(x) == f == oracles.canonical_factor(x), f
                assert (dnumber_order(x) == 1) == (delta == (0, 0, 0)), f


def test_roundtrip_at_a_large_unit():
    """canonical_factor(evaluate(f)) == f at N = 10^11 + 3, whose unit has a
    121,977-bit trace, over every delta and m in -2..2 (m = 0 with delta = 0
    is a plain integer) with ell of both signs up to 10^6."""
    N = 10**11 + 3
    rng = random.Random(1011)
    gs = generator_set(N)
    assert gs.case == CASE_N_KAPPA2_EQ_KAPPA1 and gs.eps[0].bit_length() == 121_977
    trips = 0
    for delta in gs.delta_combos():
        for m in range(-2, 3):
            if m == 0 and delta == (0, 0, 0):
                continue
            ell = rng.choice((1, -1)) * rng.randrange(1, 10**6 + 1)
            f = CanonicalFactorization(N, ell, m, delta, gs.case)
            assert canonical_factor(evaluate(f)) == f, f
            trips += 1
    assert trips == 19


def test_field_record_matches_quadint_oracle():
    """The integer record against the oracle's QuadInt generator set on
    every real field N <= 3000, which covers all five cases and both unit
    norms: case, kappas, keys, deltas, rows (g^delta and its norm, which is
    +-key) and generators; eps and its norm are the unit's, and evaluate
    at m = -1 times eps is 1."""
    cases = set()
    for N in squarefree_range(3000)[1:]:
        rec, gs, fu = generator_set(N), oracles.generator_set(N), fundamental_unit(N)
        assert (rec.N, rec.field, rec.case) == (N, field(N), gs.case)
        assert (rec.kappa1, rec.kappa2) == (gs.kappa1, gs.kappa2)
        assert (rec.eps, rec.unit_norm) == ((fu.t, fu.u), fu.unit_norm)
        inverse = evaluate(CanonicalFactorization(N, 1, -1, (0, 0, 0), rec.case))
        assert inverse * make(N, *rec.eps) == 1
        assert rec.deltas == gs.delta_combos()
        assert tuple(key for key, _, _, _ in rec.rows) == tuple(gs.signature_map)
        for delta, (key, p, q, n) in zip(rec.deltas, rec.rows):
            g = gs.evaluate_delta(delta)
            assert (p, q, n) == (g.p, g.q, g.norm()), (N, delta)
            assert abs(n) == key, (N, delta)
        assert rec.generators == gs.generators
        cases.add((rec.case, fu.unit_norm))
    assert len(cases) == 5


def test_field_record_rejects_a_corrupt_unit(monkeypatch):
    """The record's integer checks raise InternalInconsistency: a unit with
    a wrong u fails the square of sqrt(kappa*eps), and eps_3^2 = 7+4sqrt3,
    no fundamental unit, passes its roots (kappa_1 = 1, kappa_2 = 3 = N)
    but gives colliding keys."""
    fu = fundamental_unit(3)
    eps2 = fu.eps * fu.eps
    for unit, message in (
        (fu._replace(u=fu.u + 2), "no square root"),
        (fu._replace(eps=eps2, t=eps2.p, u=eps2.q), "collide"),
    ):
        monkeypatch.setattr(dnumbers, "fundamental_unit", lambda N: unit)
        dnumbers._field_record.cache_clear()
        with pytest.raises(InternalInconsistency, match=message):
            generator_set(3)
    monkeypatch.undo()
    dnumbers._field_record.cache_clear()
    assert generator_set(3).case == CASE_N_KAPPA2_EQ_KAPPA1


def test_failed_table_division_is_a_bug(monkeypatch):
    """The quotient the canonical form relies on is None when it leaves a
    remainder or a point off the ring, and a corrupted record makes
    canonical_factor raise InternalInconsistency, never a bare
    ZeroDivisionError or ValueError.  A caller's delta outside the record
    is a ValueError in evaluate."""
    assert quadring._quotient(2, 0, 0, 2, -3, 3) is None  # 1 / sqrt3
    assert quadring._quotient(2, 2, 4, 0, 4, 3) is None  # (1+sqrt3)/2 not in Z[sqrt3]
    assert quadring._quotient(6, 2, 2, 2, -2, 3) == (0, 2)  # (3+sqrt3)/(1+sqrt3)
    with pytest.raises(ValueError):
        evaluate(CanonicalFactorization(15, 1, 0, (1, 1, 0), CASE_ELSE))
    rec = generator_set(3)
    doubled = tuple((key, 2 * p, 2 * q, 4 * n) for key, p, q, n in rec.rows)
    corrupt = rec._replace(rows=doubled)
    monkeypatch.setattr(dnumbers, "_field_record", lambda N: corrupt)
    for x in (make(3, 6, 2), make(3, 4, 2), make(3, 0, 2)):
        with pytest.raises(InternalInconsistency):
            canonical_factor(x)


def test_corrupt_record_fails_at_ell(monkeypatch):
    """ell is the content of x, and the row of key |N(x)|/ell^2 must have
    norm +-key before any division: for x = 3 (key 1), a row whose norm 4
    is not its key, a zero row, or a record with no row of key 1 raises
    InternalInconsistency, never a bare ZeroDivisionError."""
    rec = generator_set(3)
    for corrupt in (
        rec._replace(rows=((1, 4, 0, 4), *rec.rows[1:])),
        rec._replace(rows=((1, 0, 0, 0), *rec.rows[1:])),
        rec._replace(deltas=rec.deltas[1:], rows=rec.rows[1:]),
    ):
        monkeypatch.setattr(dnumbers, "_field_record", lambda N: corrupt)
        with pytest.raises(InternalInconsistency, match="no row"):
            canonical_factor(make(3, 6, 0))


def test_dnumber_divides_examples():
    v = dnumber_divides(make(3, 2, 2), make(3, 6, 2))
    assert v.divides and v.rejected_by is None
    v = dnumber_divides(make(3, 6, 2), make(3, 2, 2))
    assert not v.divides
    v = dnumber_divides(make(3, 10, 0), fundamental_unit(3).eps * 24)
    assert not v.divides and v.rejected_by == "ell"
    with pytest.raises(FieldMismatch):
        dnumber_divides(make(2, 2, 2), make(3, 6, 2))


def test_divides_lets_bugs_propagate(monkeypatch):
    """Only NotDivisible means "no quotient"; any other error out of
    exact_divide is a bug and must not turn into an answer."""
    real = dnumbers.exact_divide
    beta, alpha = make(3, 2, 2), make(3, 6, 2)

    def broken(x, y):
        if (x, y) == (alpha, beta):
            raise InternalInconsistency("injected")
        return real(x, y)

    monkeypatch.setattr(dnumbers, "exact_divide", broken)
    with pytest.raises(InternalInconsistency):
        dnumber_divides(beta, alpha)


def test_divisibility_corollary_counterexample():
    """In the generic case the kappa-corollary bound is not a valid filter:
    5+sqrt15 divides 30+8sqrt15 = 2*eps_15*sqrt15 although kappa_1 = 10
    does not divide ell_alpha = 2.  The filter must stay off there."""
    beta = make(15, 10, 2)
    alpha = make(15, 60, 16)
    fb, fa = canonical_factor(beta), canonical_factor(alpha)
    assert (fb.ell, fb.delta) == (1, (0, 1, 0))
    assert (fa.ell, fa.delta) == (2, (1, 0, 0))
    k1 = generator_set(15).kappa1
    assert k1 == 10 and fa.ell % k1 != 0  # corollary bound would misfire
    v = dnumber_divides(beta, alpha)
    assert v.divides  # ground truth
    assert divides(beta, alpha)


def test_divides_filters_never_reject_true_divisors():
    """Verdicts agree with exact division across a constructed corpus."""
    rng = random.Random(8)
    for N in (3, 6, 7, 13, 15, 21):
        gs = generator_set(N)
        pool = [
            evaluate(CanonicalFactorization(N, ell, m, delta, gs.case))
            for ell in (1, 2, 3, 6, 10)
            for m in (0, 1, 2)
            for delta in gs.delta_combos()
        ]
        rng.shuffle(pool)
        pool = pool[:15]
        for y in pool:
            for x in pool:
                assert dnumber_divides(y, x).divides == divides(y, x)


def test_complex_classify():
    shape = oracles.complex_shape_member
    c = complex_classify(-7)
    assert c.kind == "Generic"
    assert shape(c, make(-7, 0, 4))  # 2*sqrt(-7)
    assert not shape(c, make(-7, 2, 2))  # 1+sqrt(-7)
    c = complex_classify(-1)
    assert c.kind == "Gaussian"
    assert shape(c, make(-1, 6, 6))  # 3+3i
    assert shape(c, make(-1, 6, 0)) and shape(c, make(-1, 0, U := 6))
    assert not shape(c, make(-1, 4, 2))  # 2+i
    c = complex_classify(-3)
    assert c.kind == "Eisenstein"
    assert shape(c, make(-3, 3, 1))  # (3+sqrt-3)/2
    assert shape(c, make(-3, 1, 1)) and shape(c, make(-3, 0, 2))
    assert not shape(c, make(-3, 5, 1))
    with pytest.raises(NotApplicable):
        complex_classify(7)


def test_complex_classify_agrees_with_criterion():
    """The closed-form membership shapes match norm-divides-trace-squared."""
    for N in (-1, -2, -3, -7, -11, -15, -19):
        c = complex_classify(N)
        kind = field(N).omega_kind
        for p in range(-24, 25):
            for q in range(-24, 25):
                if (p - q) % 2 or (kind == "SqrtN" and p % 2):
                    continue
                if p == 0 and q == 0:
                    continue
                x = make(N, p, q)
                assert oracles.complex_shape_member(c, x) == is_dnumber(x), repr(x)


def test_sqrt_class():
    assert 3 in sqrt_classes(1, 21)
    assert 2 not in sqrt_classes(1, 21)
    assert 1 in sqrt_classes(0, 21) and 21 in sqrt_classes(0, 21)
    assert 3 not in sqrt_classes(0, 21)
    assert 7 in sqrt_classes(1, 21)
    # norm -1 fields admit no odd-power square roots
    assert 5 not in sqrt_classes(1, 5) and 1 not in sqrt_classes(1, 5)
    assert 5 in sqrt_classes(0, 5)
    # kappa values for N=3 are 6 and 2
    assert 6 in sqrt_classes(1, 3) and 2 in sqrt_classes(1, 3)
    assert 3 not in sqrt_classes(1, 3)


def test_sqrt_classes():
    """The admitted classes are one small set per parity, and agree with
    the definition by squarefree parts on every real field N <= 300."""
    assert sqrt_classes(0, 21) == {1, 21}
    assert sqrt_classes(1, 21) == {3, 7}
    assert sqrt_classes(1, 5) == frozenset()
    assert sqrt_classes(1, 3) == {2, 6}
    with pytest.raises(ValueError):
        sqrt_classes(2, 3)
    with pytest.raises(NotApplicable):
        sqrt_classes(0, -1)
    for N in squarefree_range(300)[1:]:
        assert sqrt_classes(0, N) == {1, N}
        if fundamental_unit(N).unit_norm == -1:
            assert sqrt_classes(1, N) == frozenset()
            continue
        k1, k2 = kappas(N)
        want = {k1, k2} | {N * k for k in (k1, k2) if squarefree_part(N * k) == N * k}
        assert sqrt_classes(1, N) == want, N


def test_sqrt_class_constructive():
    """Whenever sqrt_classes(1, N) holds c, c*eps really is a square in the
    ring — found directly from the trace identity trace(root)^2 = c*(t +- 2)."""
    import math

    def exact_root_of_c_eps(N, c):
        fu = fundamental_unit(N)
        for t2 in (fu.t + 2, fu.t - 2):
            p = math.isqrt(c * t2)
            if p == 0 or p * p != c * t2 or (c * fu.u) % p:
                continue
            try:
                root = make(N, p, c * fu.u // p)
            except Exception:
                continue
            if root * root == fu.eps * c:
                return root
        return None

    for N in (3, 6, 7, 15, 21, 22):
        gs = generator_set(N)
        for c in (gs.kappa1, gs.kappa2):
            assert c in sqrt_classes(1, N)
            assert exact_root_of_c_eps(N, c) is not None
        # and an accepted value that is *not* a kappa: N*kappa collapses
        if gs.case == CASE_N_KAPPA1_EQ_KAPPA2:
            assert N * gs.kappa1 in sqrt_classes(1, N)  # equals kappa_2
    # a rejected value really has no root
    assert exact_root_of_c_eps(21, 2) is None and 2 not in sqrt_classes(1, 21)
    assert exact_root_of_c_eps(3, 3) is None and 3 not in sqrt_classes(1, 3)
