"""Tests for the dominant d-number enumerators."""

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from artifact import dplus
from artifact.dnumbers import CanonicalFactorization, canonical_factor
from artifact.dplus import (
    DPlusElement,
    brute_force_oracle,
    cardinality_bound,
    enumerate_all,
    enumerate_field,
    in_dplus,
    norm_minus_one_bounds,
    norm_minus_one_field_filter,
)
from artifact.quadring import (
    InternalInconsistency,
    NotApplicable,
    compare_values,
    decimal_str,
    field,
    make,
    squarefree_range,
)
from artifact.units import fundamental_unit


def test_in_dplus_examples():
    assert in_dplus(make(3, 6, 2))  # 3+sqrt(3)
    assert not in_dplus(make(3, 4, 2))  # eps_3 = 2+sqrt(3): conjugate < 1
    assert in_dplus(make(3, 2, 0))  # 1
    assert not in_dplus(make(3, 2, 4))  # 1+2sqrt(3) is not a d-number
    with pytest.raises(NotApplicable):
        in_dplus(make(-3, 2, 0))


def test_in_dplus_needs_dominance_not_just_positivity():
    # 6*eps_2^(-2) = 18-12*sqrt(2) ~ 1.029: both embeddings are >= 1, but the
    # conjugate is the bigger one, so it is not dominant.  Admitting it (and
    # its kin with m < 0) would make the enumeration miss its own spec.
    x = make(2, 36, -24)
    assert (x - 1).sign() > 0 and (x.conjugate() - 1).sign() > 0
    assert not in_dplus(x)


def test_enumerate_field_examples():
    assert [e.value for e in enumerate_field(5, 5)] == [make(5, 5, 1)]
    assert [e.value for e in enumerate_field(3, 5)] == [make(3, 6, 2)]
    assert enumerate_field(7, 5) == []
    assert enumerate_field(2, 5) == []  # eps^2 > 5 in the norm -1 field N=2
    assert [e.value for e in enumerate_field(5, Fraction(37, 10))] == [make(5, 5, 1)]
    with pytest.raises(NotApplicable):
        enumerate_field(field(-7), 5)
    with pytest.raises(ValueError):
        enumerate_field(5, Fraction(1, 2))


def test_enumerate_all_up_to_five():
    out = enumerate_all(5, include_integers=True)
    expected = [1, 2, 3, make(5, 5, 1), 4, make(3, 6, 2), 5]
    assert [e.value for e in out] == expected
    assert [e.value for e in enumerate_all(1, include_integers=True)] == [1]
    assert enumerate_all(1) == []


def test_enumerate_all_records():
    lines = [e.record() for e in enumerate_all(5, include_integers=True)]
    assert lines == [
        "1\t2\t0\t1\t0\t000\t1.000000",
        "1\t4\t0\t2\t0\t000\t2.000000",
        "1\t6\t0\t3\t0\t000\t3.000000",
        "5\t5\t1\t1\t1\t100\t3.618033",
        "1\t8\t0\t4\t0\t000\t4.000000",
        "3\t6\t2\t1\t0\t101\t4.732050",
        "1\t10\t0\t5\t0\t000\t5.000000",
    ]


def test_fifty_seven_norm_minus_one_elements_below_fifty():
    out = enumerate_all(50)
    assert len(out) == 163
    nm1 = [e for e in out if fundamental_unit(e.value.N).unit_norm == -1]
    assert len(nm1) == 57
    assert sorted({e.value.N for e in nm1}) == [2, 5, 10, 13, 29]
    families = Counter(
        (e.value.N, e.factorization.m, e.factorization.delta[0]) for e in nm1
    )
    assert families == {
        (2, 1, 1): 13,
        (2, 2, 0): 3,
        (5, 1, 1): 13,
        (5, 2, 0): 17,
        (5, 3, 1): 4,
        (5, 4, 0): 1,
        (10, 1, 1): 1,
        (13, 1, 1): 4,
        (29, 1, 1): 1,
    }
    ells = sorted(
        e.factorization.ell
        for e in nm1
        if (e.value.N, e.factorization.m) == (5, 1)
    )
    assert ells == list(range(1, 14))
    assert [
        e.factorization.ell
        for e in nm1
        if (e.value.N, e.factorization.m) == (2, 2)
    ] == [6, 7, 8]


def test_oracle_equivalence():
    for N in squarefree_range(50):
        if N < 2:
            continue
        widest = brute_force_oracle(N, 30)
        for M in range(1, 31):
            expect = [x for x in widest if x <= M]
            assert [e.value for e in enumerate_field(N, M)] == expect, (N, M)


def _squarefree_fields(M):
    """Squarefree 2 <= N <= (2M-1)^2: beyond, 2*eps >= 1 + sqrt(N) > 2M."""
    return [N for N in squarefree_range(math.floor((2 * M - 1) ** 2)) if N > 1]


@pytest.mark.parametrize(
    "M", [1, Fraction(37, 10), 5, 12, 20, Fraction(121, 4), 60]
)
def test_trace_walk_matches_field_sweep(M):
    M = Fraction(M)
    swept = [
        e
        for N in _squarefree_fields(M)
        if fundamental_unit(N).unit_norm == 1 or norm_minus_one_field_filter(N, M)
        for e in enumerate_field(N, M)
    ]
    swept += [
        DPlusElement(k, None, decimal_str(k)) for k in range(1, math.floor(M) + 1)
    ]
    swept.sort(key=cmp_to_key(lambda a, b: compare_values(a.value, b.value)))
    walked = enumerate_all(M, include_integers=True)
    assert [e.record() for e in walked] == [e.record() for e in swept]
    if M <= 12:
        brute = [x for N in _squarefree_fields(M) for x in brute_force_oracle(N, M)]
        brute.sort(key=cmp_to_key(compare_values))
        assert [e.value for e in walked if e.factorization] == brute


@pytest.mark.parametrize(
    "corrupt", [lambda xs: xs[1:], lambda xs: xs + xs[:1]], ids=["drop", "duplicate"]
)
def test_trace_walk_checks_cell_walk(monkeypatch, corrupt):
    real = dplus.enumerate_field
    monkeypatch.setattr(dplus, "enumerate_field", lambda N, M: corrupt(real(N, M)))
    with pytest.raises(InternalInconsistency):
        enumerate_all(5)


def test_oracle_integer_handling():
    assert brute_force_oracle(5, 1, include_integers=True) == [field(5).one()]
    assert brute_force_oracle(5, 1) == []
    assert [str(x) for x in brute_force_oracle(3, 5)] == ["3+√3"]


def test_monotonicity():
    small = {e.value for e in enumerate_all(3, include_integers=True)}
    mid = {e.value for e in enumerate_all(5, include_integers=True)}
    big = {e.value for e in enumerate_all(8, include_integers=True)}
    assert small <= mid <= big


def test_cardinality_bound():
    assert cardinality_bound(5) == 19440
    assert cardinality_bound(1) == 16
    assert cardinality_bound(50) == 199_940_400
    assert len(enumerate_all(50)) + 50 < cardinality_bound(50)
    for M in range(1, 21):
        assert len(enumerate_all(M, include_integers=True)) < cardinality_bound(M)
    with pytest.raises(ValueError):
        cardinality_bound(0)


def test_norm_minus_one_bounds():
    golden = [e for e in enumerate_all(5) if e.value.N == 5][0]
    assert norm_minus_one_bounds(5, golden) == {
        "ell_bound": True,
        "value_bound": True,
    }
    for e in enumerate_all(20):
        if fundamental_unit(e.value.N).unit_norm == -1:
            norm_minus_one_bounds(e.value.N, e)
    with pytest.raises(NotApplicable):
        norm_minus_one_bounds(3, golden)
    # integer elements sit at m = 0 where both bounds are trivial
    norm_minus_one_bounds(5, DPlusElement(7, None, "7.000000"))
    bogus = DPlusElement(
        make(5, 5, 1),
        CanonicalFactorization(5, 1, 3, (1, 0, 0), "NormMinusOne"),
        "3.618033",
    )
    with pytest.raises(InternalInconsistency):
        norm_minus_one_bounds(5, bogus)


def test_norm_minus_one_field_filter():
    # at M=50 the cutoff is N + 2*sqrt(N) <= 199
    assert norm_minus_one_field_filter(172, 50)
    assert all(not norm_minus_one_field_filter(N, 50) for N in range(173, 400))
    contributing = {e.value.N for e in enumerate_all(50)}
    nm1 = {
        N
        for N in contributing
        if fundamental_unit(N).unit_norm == -1
    }
    assert nm1 == {2, 5, 10, 13, 29}
    assert all(norm_minus_one_field_filter(N, 50) for N in nm1)


def test_no_sqrt_n_multiples_in_norm_plus_one_fields():
    # ell * eps^m * sqrt(N) has a negative conjugate when the unit norm is
    # +1, so such elements never enumerate; check outputs and directly.
    for e in enumerate_all(30):
        if fundamental_unit(e.value.N).unit_norm == 1:
            assert e.factorization.delta != (1, 0, 0)
    for N in (3, 6, 7, 15, 21):
        eps = fundamental_unit(N).eps
        root = field(N).sqrt_n()
        for m in range(3):
            for ell in (1, 2, 7):
                assert not in_dplus(root * eps**m * ell)


def test_factorizations_agree_with_canonical_factor():
    for e in enumerate_all(20):
        assert canonical_factor(e.value) == e.factorization
        assert in_dplus(e.value)


def test_integers_reported_once():
    values = [e.value for e in enumerate_all(10, include_integers=True)]
    assert values.count(1) == 1 and values.count(4) == 1
    assert len(values) == len(set(values))
