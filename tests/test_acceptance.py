"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line under pytest -v.

Criterion 6 certifies the size of the N = 2593 unit exactly:
floor(eps^2) = 4T^2 + 1, a 48-digit integer, so 10^47 < eps^2 < 10^48.
The bounds come from the pinned coefficient T, never from the value
under test.
"""

import random
import time

import pytest

from artifact.dnumbers import (
    CanonicalFactorization,
    canonical_factor,
    evaluate,
    generator_set,
    is_dnumber,
    kappas,
)
from artifact.dplus import (
    cardinality_bound,
    enumerate_all,
    enumerate_field,
    in_dplus,
)
from artifact.fusion import (
    decompose_global_dim,
    kronecker_screen,
    quantum_group_table,
    quantum_int,
    refine_simple_dims,
)
from artifact.quadring import (
    HALF_ONE_PLUS_SQRT_N,
    exact_divide,
    field,
    make,
    render,
)
from artifact.units import cf_expand, fundamental_unit
from oracles import brute_force_oracle, is_dnumber_via_charpoly, squarefree_range


def test_criterion_01_fundamental_unit_table():
    """All 34 fundamental units (t, u, norm) for squarefree N <= 57; < 1 s."""
    expected = [
        (2, 2, 2, -1), (3, 4, 2, 1), (5, 1, 1, -1), (6, 10, 4, 1),
        (7, 16, 6, 1), (10, 6, 2, -1), (11, 20, 6, 1), (13, 3, 1, -1),
        (14, 30, 8, 1), (15, 8, 2, 1), (17, 8, 2, -1), (19, 340, 78, 1),
        (21, 5, 1, 1), (22, 394, 84, 1), (23, 48, 10, 1), (26, 10, 2, -1),
        (29, 5, 1, -1), (30, 22, 4, 1), (31, 3040, 546, 1), (33, 46, 8, 1),
        (34, 70, 12, 1), (35, 12, 2, 1), (37, 12, 2, -1), (38, 74, 12, 1),
        (39, 50, 8, 1), (41, 64, 10, -1), (42, 26, 4, 1), (43, 6964, 1062, 1),
        (46, 48670, 7176, 1), (47, 96, 14, 1), (51, 100, 14, 1),
        (53, 7, 1, -1), (55, 178, 24, 1), (57, 302, 40, 1),
    ]
    assert len(expected) == 34
    start = time.perf_counter()
    for N, t, u, nrm in expected:
        fu = fundamental_unit(N)
        assert (fu.t, fu.u, fu.unit_norm) == (t, u, nrm), f"N={N}"
    assert time.perf_counter() - start < 1.0


def test_criterion_02_kappa_table():
    """The 19 reference (kappa_1, kappa_2) pairs for norm +1 fields N <= 46;
    < 1 s.  They are every such field but N = 43 (kappa = (86, 2)), which
    has no reference row; the test pins that omission.

    The N = 15 reference row circulates with the pair printed as (6, 10);
    the definition fixes kappa_1 = squarefree part of t+2 = 10 and
    kappa_2 of t-2 = 6, so the computed order is (10, 6) and the row is
    checked as an unordered pair.
    """
    printed = {
        3: (6, 2), 6: (3, 2), 7: (2, 14), 11: (22, 2), 14: (2, 7),
        15: (6, 10), 19: (38, 2), 21: (7, 3), 22: (11, 2), 23: (2, 46),
        30: (6, 5), 31: (2, 62), 33: (3, 11), 34: (2, 17), 35: (14, 10),
        38: (19, 2), 39: (13, 3), 42: (7, 6), 46: (2, 23),
    }
    assert len(printed) == 19
    norm_plus_one = {
        N for N in squarefree_range(46)
        if N >= 2 and fundamental_unit(N).unit_norm == 1
    }
    assert norm_plus_one == set(printed) | {43}  # 43: no reference row
    start = time.perf_counter()
    for N, pair in printed.items():
        got = kappas(N)
        if N == 15:
            assert set(got) == set(pair) and got == (10, 6)
        else:
            assert got == pair, f"N={N}"
    assert time.perf_counter() - start < 1.0


def test_criterion_03_generator_sets():
    """Monoid generator sets for every squarefree 2 <= N <= 22, rendered."""
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
    squarefree = [N for N in squarefree_range(22) if N >= 2]
    assert sorted(expected) == squarefree and len(expected) == 14
    for N, gens in expected.items():
        got = [render(g) for g in generator_set(N).generators]
        if N == 15:  # three generators, no canonical order among kappas
            assert set(got) == set(gens)
        else:
            assert got == gens, f"N={N}"


def test_criterion_04_enumerate_to_five():
    """The dominant d-numbers up to 5 are exactly
    1, 2, 3, (5+sqrt5)/2, 4, 3+sqrt3, 5; full scan over N <= 81 in < 10 s."""
    start = time.perf_counter()
    got = enumerate_all(5, include_integers=True)
    elapsed = time.perf_counter() - start
    expected = [1, 2, 3, make(5, 5, 1), 4, make(3, 6, 2), 5]
    assert [el.value for el in got] == expected
    assert (2 * 5 - 1) ** 2 == 81  # the induced field cutoff
    assert elapsed < 10.0


def test_criterion_05_norm_minus_one_count():
    """Exactly 57 irrational dominant d-numbers <= 50 live in norm -1
    fields, and those fields are N in {2, 5, 10, 13, 29}; < 30 s."""
    start = time.perf_counter()
    got = enumerate_all(50)
    elapsed = time.perf_counter() - start
    minus = [
        el for el in got
        if el.value.q != 0 and fundamental_unit(el.value.N).unit_norm == -1
    ]
    assert len(minus) == 57
    assert {el.value.N for el in minus} == {2, 5, 10, 13, 29}
    assert elapsed < 30.0


def test_criterion_06_large_unit_bound():
    """N = 2593: the 24-digit unit coefficients are exact and the size
    certificate 4T^2 + 1 < eps^2 < 4T^2 + 2 holds; < 5 s.

    eps = T + U sqrt(2593) has norm -1, so eps^2 has norm +1 and trace
    eps^2 + eps^-2 = 2(T^2 + 2593 U^2) = 4T^2 + 2.  As 0 < eps^-2 < 1,
    floor(eps^2) = 4T^2 + 1, a 48-digit integer: 10^47 < eps^2 < 10^48.
    """
    T = 229004858046909225648456
    start = time.perf_counter()
    fu = fundamental_unit(2593)
    assert fu.t == 2 * 229004858046909225648456
    assert fu.u == 2 * 4497212789358213431953
    assert fu.unit_norm == -1
    assert time.perf_counter() - start < 5.0
    assert 4 * T * T + 1 < fu.eps**2 < 4 * T * T + 2
    assert 10**47 < fu.eps**2 < 10**48


def test_criterion_07_decomposition_scan():
    """21*eps_21 decomposes over a 336-candidate space into exactly two
    solutions, each with a unique simple-dimension refinement; < 1 s."""
    start = time.perf_counter()
    scan = decompose_global_dim(21, 21, 1, divisor_constraint=21)
    assert scan.candidates_scanned == 336
    assert [(s.d_int, s.coeffs) for s in scan.solutions] == [
        (3, ((1, 6), (2, 3))),
        (1, ((1, 16), (2, 1))),
    ]
    refinements = [refine_simple_dims(s) for s in scan.solutions]
    assert [len(r) for r in refinements] == [1, 1]
    assert refinements[0][0].parts == ((1, 2), (1, 2), (1, 2), (3, 1), (3, 1))
    assert refinements[1][0].parts == ((1, 2), (3, 1), (3, 1), (3, 1), (7, 1))
    assert time.perf_counter() - start < 1.0


def test_criterion_08_kronecker_screen():
    """3+sqrt3 is eliminated; 2 and (5+sqrt5)/2 keep their known
    realizations; < 1 s."""
    start = time.perf_counter()
    assert kronecker_screen(make(3, 6, 2)) == []
    assert kronecker_screen(field(5).integer(2)) == [(3,)]
    assert kronecker_screen(make(5, 5, 1)) == [(5,)]
    assert time.perf_counter() - start < 1.0


def test_criterion_09_property_suites():
    """Oracle-backed property suites at full scale; < 5 min total."""
    start = time.perf_counter()
    fields = [N for N in squarefree_range(97) if N >= 2]

    # canonical factorization round-trips 10^4 random d-numbers per field
    for N in fields:
        gs = generator_set(N)
        combos = gs.delta_combos()
        rng = random.Random(N)
        for _ in range(10_000):
            fact = CanonicalFactorization(
                N, rng.randrange(1, 10_000), rng.randrange(0, 5),
                combos[rng.randrange(len(combos))], gs.case,
            )
            if fact.m == 0 and fact.delta == (0, 0, 0):
                continue
            assert canonical_factor(evaluate(fact)) == fact

    # norm-divides-trace-squared agrees with the characteristic-polynomial
    # membership test on 10^4 random ring elements per field
    for N in fields:
        fld = field(N)
        rng = random.Random(-N)
        half = fld.omega_kind == HALF_ONE_PLUS_SQRT_N
        for _ in range(10_000):
            if half:  # p and q need only share parity
                q = rng.randrange(-300, 301)
                p = rng.randrange(-300, 301) * 2 + q % 2
            else:  # both coordinates even
                q = rng.randrange(-150, 151) * 2
                p = rng.randrange(-150, 151) * 2
            if p == 0 and q == 0:
                continue
            x = make(fld, p, q)
            assert is_dnumber(x) == is_dnumber_via_charpoly(x)

    # enumeration matches the brute-force oracle for N <= 50, M <= 30
    for N in squarefree_range(50):
        if N < 2:
            continue
        oracle = brute_force_oracle(N, 30)
        for M in range(1, 31):
            got = [el.value for el in enumerate_field(N, M)]
            assert got == [x for x in oracle if x <= M], (N, M)

    # the d-numbers form a monoid: products of random members stay inside
    for N in fields:
        gs = generator_set(N)
        combos = gs.delta_combos()
        rng = random.Random(N * 3 + 1)
        for _ in range(500):
            a, b = (
                evaluate(
                    CanonicalFactorization(
                        N, rng.randrange(1, 50), rng.randrange(0, 3),
                        combos[rng.randrange(len(combos))], gs.case,
                    )
                )
                for _ in range(2)
            )
            assert is_dnumber(a * b)

    # quantum-integer recurrence equals the defining quotient
    for N in squarefree_range(50):
        if N < 2:
            continue
        fu = fundamental_unit(N)
        denom = fu.eps - fu.eps**-1
        for m in range(-12, 13):
            want = exact_divide(fu.eps**m - fu.eps**-m, denom)
            assert quantum_int(N, m) == want

    # negative Pell solvable exactly when the unit norm is -1
    for N in squarefree_range(500):
        if N < 2:
            continue
        by_period = len(cf_expand(N).period) % 2 == 1
        assert by_period == (fundamental_unit(N).unit_norm == -1), N

    # the cardinality bound strictly exceeds every enumerated count
    for M in range(1, 21):
        count = len(enumerate_all(M, include_integers=True))
        assert count < cardinality_bound(M), M

    assert time.perf_counter() - start < 300.0


def test_criterion_10_dimension_table():
    """Every strictly quadratic dimension row parses, is a dominant
    d-number, and refactors to its printed form; < 1 s.  The shipped
    table has 30 rows (the reference list's own count of 32 is a
    miscount of its three columns)."""
    start = time.perf_counter()
    rows = quantum_group_table()
    assert len(rows) == 30
    for row in rows:
        assert is_dnumber(row.value) and in_dplus(row.value)
        fact = canonical_factor(row.value)
        assert (fact.ell, fact.m) == (row.ell, row.unit_power)
        assert fact.delta == ((1 if row.with_sqrt_n else 0), 0, 0)
    assert time.perf_counter() - start < 1.0
