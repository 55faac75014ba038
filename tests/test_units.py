import math
from collections import Counter

import pytest

from artifact import dnumbers, quadring, units
from artifact.cli import main
from artifact.dnumbers import kappas, pell_witness, sqrt_classes
from artifact.dplus import enumerate_all
from artifact.fusion import decompose_global_dim, quantum_group_table, refine_simple_dims
from artifact.quadring import InternalInconsistency, NotApplicable, is_square, make
from artifact.units import cf_expand, fundamental_unit
from oracles import (
    NoPowerWitness,
    cf_digits,
    cf_period_by_seen_states,
    pell_witness_search,
    power_nonresidue_certificate,
    squarefree_range,
    unit_by_norm_test,
)

# Fundamental units eps = (t + u sqrt(N))/2 for every squarefree N <= 57,
# independently recomputed and frozen.  The final column is the unit norm.
UNITS_TABLE = [
    (2, 2, 2, -1),
    (3, 4, 2, 1),
    (5, 1, 1, -1),
    (6, 10, 4, 1),
    (7, 16, 6, 1),
    (10, 6, 2, -1),
    (11, 20, 6, 1),
    (13, 3, 1, -1),
    (14, 30, 8, 1),
    (15, 8, 2, 1),
    (17, 8, 2, -1),
    (19, 340, 78, 1),
    (21, 5, 1, 1),
    (22, 394, 84, 1),
    (23, 48, 10, 1),
    (26, 10, 2, -1),
    (29, 5, 1, -1),
    (30, 22, 4, 1),
    (31, 3040, 546, 1),
    (33, 46, 8, 1),
    (34, 70, 12, 1),
    (35, 12, 2, 1),
    (37, 12, 2, -1),
    (38, 74, 12, 1),
    (39, 50, 8, 1),
    (41, 64, 10, -1),
    (42, 26, 4, 1),
    (43, 6964, 1062, 1),
    (46, 48670, 7176, 1),
    (47, 96, 14, 1),
    (51, 100, 14, 1),
    (53, 7, 1, -1),
    (55, 178, 24, 1),
    (57, 302, 40, 1),
]


def test_fundamental_units_table():
    for N, t, u, nrm in UNITS_TABLE:
        fu = fundamental_unit(N)
        assert (fu.t, fu.u, fu.unit_norm) == (t, u, nrm), f"N={N}"
        assert fu.eps.norm() == nrm
        assert fu.eps > 1


def test_unit_is_fundamental():
    """No smaller unit > 1 exists (brute scan over trace values)."""
    for N, t, u, _ in UNITS_TABLE:
        if t > 2000:
            continue
        for p in range(1, t):
            for q in range(1, p + 1):
                if (p - q) % 2 or (N % 4 != 1 and p % 2):
                    continue
                d = p * p - N * q * q
                # any unit (p+q sqrtN)/2 > 1 with both parts positive would
                # be a unit smaller than eps
                assert d != 4 and d != -4


def test_unit_certified_by_power_nonresidues():
    """The unit of each field, up to N = 10^11+3, is no k-th power for any
    prime k up to the certificate's bound (24 primes at 10^6+3, 146 at
    10^8+7, 871 at 10^11+3), each by a witness (k, p, r) checked here by
    pow alone; eps^2 has no witness at k = 2, nor eps^3 at k = 3."""
    primes_k = {}
    for N in (2, 3, 5, 13, 94, 10**6 + 3, 10**8 + 7, 10**11 + 3):
        fu = fundamental_unit(N)
        witnesses = power_nonresidue_certificate(N, fu.t, fu.u)
        for k, p, r in witnesses:
            assert (p - 1) % (2 * k) == 0 and (r * r - N) % p == 0, (N, k)
            assert pow((fu.t + fu.u * r) * pow(2, -1, p), (p - 1) // k, p) != 1
        primes_k[N] = len(witnesses)
        eps = make(N, fu.t, fu.u)
        for k in (2, 3):
            with pytest.raises(NoPowerWitness) as failed:
                power_nonresidue_certificate(N, (eps**k).p, (eps**k).q)
            assert failed.value.k == k
    assert [primes_k[N] for N in (10**6 + 3, 10**8 + 7, 10**11 + 3)] == [24, 146, 871]


def test_cf_expand_sqrt():
    e = cf_expand(2)
    assert (e.preamble, e.period) == ((1,), (2,))
    e = cf_expand(7)
    assert (e.preamble, e.period) == ((2,), (1, 1, 1, 4))
    assert cf_expand(3).period == (1, 2)
    assert cf_expand(13).period == (1, 1, 1, 1, 6)
    assert cf_expand(19).period == (2, 1, 3, 1, 2, 8)
    # digits stream: preamble then cycling period
    assert cf_digits(cf_expand(7), 9) == [2, 1, 1, 1, 4, 1, 1, 1, 4]


def test_cf_expand_omega():
    e = cf_expand(5, "Omega")
    # purely periodic: (1+sqrt5)/2 is reduced
    assert (e.preamble, e.period) == ((), (1,))
    # (1+sqrt13)/2 is not reduced (conjugate < -1), so a preamble appears
    e = cf_expand(13, "Omega")
    assert e.preamble == (2,) and e.period == (3,)
    assert cf_digits(e, 4) == [2, 3, 3, 3]
    with pytest.raises(NotApplicable):
        cf_expand(7, "Omega")
    with pytest.raises(ValueError):
        cf_expand(7, "bogus")


def test_cf_expand_long_period():
    """A period of 1,605,386 digits is an answer, not a bug: the step bound
    isqrt(N)*(isqrt(N) + 1) of `_cf_states` grows with N.  The period of
    sqrt(N) ends in 2*isqrt(N), and the digits before it are a palindrome."""
    N = 10**13 + 39
    e = cf_expand(N)
    assert e.preamble == (math.isqrt(N),) and len(e.period) == 1_605_386
    assert e.period[-1] == 2 * math.isqrt(N)
    assert e.period[:-1] == e.period[-2::-1]


def test_cf_not_applicable_imaginary():
    with pytest.raises(NotApplicable):
        cf_expand(-1)
    with pytest.raises(NotApplicable):
        fundamental_unit(-3)
    with pytest.raises(NotApplicable):
        pell_witness(-2)


def test_large_unit_2593():
    fu = fundamental_unit(2593)
    assert fu.t == 2 * 229004858046909225648456
    assert fu.u == 2 * 4497212789358213431953
    assert fu.unit_norm == -1
    # eps^2 has a 48-digit integer part: above 1e47, below 1e48
    assert 10**47 < fu.eps**2 < 10**48


def test_large_unit_2593_against_sympy():
    """sympy's diop_DN shares no code with units: its least solution of
    x^2 - 2593 y^2 = -4 is the unit's doubled coordinates, and its least
    solution of x^2 - 2593 y^2 = 4 is those of eps^2."""
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    fu = fundamental_unit(2593)
    assert diop_DN(2593, -4) == [(fu.t, fu.u)]
    sq = fu.eps**2
    assert diop_DN(2593, 4)[0] == (sq.p, sq.q)


def test_fundamental_unit_against_sympy_diop_dn():
    """For every squarefree N <= 10^4 the unit is the least positive
    solution of x^2 - N y^2 = +-4, ordered by y and then x (only N = 5 has
    a tie: eps and eps^2 both have y = 1).  diop_DN shares no code with the
    continued-fraction walk; its x may come back negative."""
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    for N in squarefree_range(10**4):
        if N < 2:
            continue
        fu = fundamental_unit(N)
        sols = [(y, abs(x)) for d in (4, -4) for x, y in diop_DN(N, d) if y > 0]
        u, t = min(sols)
        assert (fu.t, fu.u) == (t, u), N
        assert fu.unit_norm == (t * t - N * u * u) // 4, N


def test_cf_expand_against_sympy():
    """sympy's continued_fraction_periodic(P, Q, N) expands (P + sqrt(N))/Q
    as preamble digits followed by the period as a list, in both kinds."""
    pytest.importorskip("sympy")
    from sympy import continued_fraction_periodic

    for N in squarefree_range(200):
        if N < 2:
            continue
        kinds = (("SqrtN", 0, 1), ("Omega", 1, 2)) if N % 4 == 1 else (("SqrtN", 0, 1),)
        for kind, P, Q in kinds:
            e = cf_expand(N, kind)
            assert continued_fraction_periodic(P, Q, N) == [*e.preamble, list(e.period)]


def test_large_unit_1054721():
    fu = fundamental_unit(1054721)
    assert fu.t == 2 * 653902179520607163438825746432
    assert fu.u == 2 * 636713397684223825329255425
    assert fu.unit_norm == -1
    assert fu.eps**2 > 10**60


def test_negative_pell_matches_table():
    """Negative Pell is solvable exactly when the sqrt(N) period is odd."""
    for N, _, _, nrm in UNITS_TABLE:
        assert (len(cf_expand(N).period) % 2 == 1) == (nrm == -1)
        assert fundamental_unit(N).unit_norm == nrm


def test_negative_pell_period_parity_sweep():
    """The unit's norm and the parity of the sqrt(N) period of the oracle,
    which shares no code with `units`, agree everywhere."""
    for N in squarefree_range(500):
        if N < 2:
            continue
        solvable = fundamental_unit(N).unit_norm == -1
        assert solvable == (len(cf_period_by_seen_states(N, 0, 1)[1]) % 2 == 1)


def test_stop_rule_matches_seen_states_and_norm_tests():
    """Stopping where Q returns to Q0 gives the period that a dict of seen
    states finds and the unit that a norm test at every convergent finds,
    both on the oracle's own recurrence: every squarefree N < 3000 in both
    kinds, and the units of two large fields."""
    for N in squarefree_range(2999)[1:]:
        fu = fundamental_unit(N)
        assert (fu.t, fu.u, fu.unit_norm) == unit_by_norm_test(N), N
        kinds = (("SqrtN", 0, 1), ("Omega", 1, 2)) if N % 4 == 1 else (("SqrtN", 0, 1),)
        for kind, P0, Q0 in kinds:
            e = cf_expand(N, kind)
            assert (e.preamble, e.period) == cf_period_by_seen_states(N, P0, Q0), N
    for N in (1000003, 100000007):
        fu = fundamental_unit(N)
        assert (fu.t, fu.u, fu.unit_norm) == unit_by_norm_test(N), N


_true_states = units._cf_states


def _early_return(N, P0, Q0):
    """The true stream of (a_{i-1}, P_i, Q_i), except that Q_1 = Q0."""
    for i, (a, P, Q) in enumerate(_true_states(N, P0, Q0), 1):
        yield a, P, Q0 if i == 1 else Q


def _wrong_digit(N, P0, Q0):
    """The true stream of (a_{i-1}, P_i, Q_i), except that a_1 is one too
    large."""
    for i, (a, P, Q) in enumerate(_true_states(N, P0, Q0), 1):
        yield a + (i == 2), P, Q


@pytest.mark.parametrize("stream", [_early_return, _wrong_digit])
def test_certificate_guards_the_stop(capsys, monkeypatch, stream):
    """A state stream that stops the unit loop at a convergent that is no
    unit makes `fundamental_unit` raise, and `dnum unit` exit 4, rather than
    return it: the +-4 check at the stop is what catches it."""
    monkeypatch.setattr(units, "_cf_states", stream)
    for N in (19, 21):  # the sqrt(N) and the omega basis
        with pytest.raises(InternalInconsistency, match="at the stop"):
            fundamental_unit(N)
    assert main(["unit", "19"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("InternalInconsistency: N=19: p^2 - N q^2 = ")


def test_each_field_expands_once(capsys, monkeypatch):
    """From empty per-field caches, as in a new process, every layer reads
    eps from the field record, so no field's continued fraction runs twice:
    enumeration, decomposition with the filtered refinement, the
    quantum-group table twice, the square classes and Pell witnesses of the
    same fields, and `dnum pell` on a norm +1 and a norm -1 field."""
    quadring._field.cache_clear()
    dnumbers._field_record.cache_clear()
    expanded = Counter()

    def spy(N, P0, Q0):
        expanded[N] += 1
        return _true_states(N, P0, Q0)

    monkeypatch.setattr(units, "_cf_states", spy)
    enumerate_all(33, include_integers=True)
    for N, ell, m in ((5, 76, 2), (3, 40, 2), (2, 12, 2), (21, 21, 1)):
        for sol in decompose_global_dim(N, ell, m).solutions:
            refine_simple_dims(sol, apply_modular_filter=True)
    quantum_group_table()
    quantum_group_table()
    for N in list(expanded):
        sqrt_classes(1, N)
        pell_witness(N)
    assert main(["pell", "46"]) == main(["pell", "13"]) == 0
    capsys.readouterr()
    assert {2, 3, 5, 13, 21, 46} <= set(expanded) and len(expanded) > 20
    assert [N for N, count in expanded.items() if count > 1] == []


def test_pell_witness_known_values():
    assert pell_witness(3) == (6, 1)
    assert pell_witness(7) == (2, 3)
    # kappa_1 = 2 with n = 156 squares into eps_46: 2*(2*156^2 - 4) = 46*46^2
    assert pell_witness(46) == (2, 156)


def _witness_edge(N):
    """(M, M - 1) for M = max(kappa_1, r), t + 2 = kappa_1*r^2: the bounds
    where the least witness appears and vanishes; () for norm -1."""
    fu = fundamental_unit(N)
    if fu.unit_norm == -1:
        return ()
    k1 = kappas(N)[0]
    M = max(k1, math.isqrt((fu.t + 2) // k1))
    return M, M - 1


def _in_bound(N, bound):
    """pell_witness(N) where max(kappa, n) <= bound, else None."""
    found = pell_witness(N)
    return found if found is not None and max(found) <= bound else None


def test_pell_witness_matches_search_oracle():
    """The residue search, capped by a bound, finds the closed form's witness
    exactly when it is in bound, and none otherwise: on every field N <= 400
    at bounds 0, 1, 2, 100 and the witness edge (searches above 300
    skipped), and on the fields 400 < N <= 1200 whose edge is at most 400."""
    for N in squarefree_range(400)[1:]:
        for bound in {0, 1, 2, 100, *_witness_edge(N)}:
            if bound <= 300:
                assert pell_witness_search(N, bound) == _in_bound(N, bound), N
    for N in [N for N in squarefree_range(1200) if N > 400]:
        edge = _witness_edge(N)
        if edge and edge[0] <= 400:
            for bound in edge:
                assert pell_witness_search(N, bound) == _in_bound(N, bound), N


def test_pell_witness_certificate_and_minimality():
    for N, bound in ((3, 50), (6, 50), (7, 50), (11, 50), (21, 50), (33, 60)):
        kappa, n = pell_witness(N)
        v = kappa * n * n - 4
        assert v > 0 and not is_square(v)
        m = kappa * v
        assert m % N == 0 and is_square(m // N)
        # nothing lexicographically smaller qualifies (kappa squarefree)
        from artifact.quadring import is_squarefree

        for k2 in range(2, kappa + 1):
            if not is_squarefree(k2):
                continue
            for n2 in range(1, bound + 1):
                if (k2, n2) >= (kappa, n):
                    break
                v2 = k2 * n2 * n2 - 4
                if v2 <= 0 or is_square(v2):
                    continue
                m2 = k2 * v2
                assert not (m2 % N == 0 and is_square(m2 // N))


def test_pell_witness_none_for_negative_pell_fields():
    """A witness certifies norm +1, so norm -1 fields (odd period) must
    come up empty."""
    for N in squarefree_range(100):
        if N < 2 or len(cf_expand(N).period) % 2 == 0:
            continue
        assert pell_witness(N) is None


def test_pell_witness_found_for_norm_plus_one_fields():
    for N, _, _, nrm in UNITS_TABLE:
        if nrm == 1:
            w = pell_witness(N)
            assert w is not None, f"N={N}"
