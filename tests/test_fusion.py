"""Tests for quantum integers, the global-dimension solver, family
dimension formulas, and the small-dimension screen."""

import itertools
import math
import tracemalloc

import pytest

from artifact import fusion
from artifact.dnumbers import canonical_factor, evaluate, is_dnumber, sqrt_classes
from artifact.dplus import enumerate_field, in_dplus
from artifact.fusion import (
    _EXACT_COS_DIMS,
    _EXACT_COS_SQUARES,
    _last_coefficients,
    _partitions,
    decompose_global_dim,
    generalized_near_group_check,
    haagerup_izumi_dim,
    kronecker_screen,
    near_group_dim,
    quantum_group_table,
    quantum_int,
    refine_simple_dims,
    tambara_yamagami_dim,
)
from artifact.quadring import (
    InternalInconsistency,
    NotApplicable,
    NotInDPlus,
    Rejected,
    divides,
    divisors,
    exact_divide,
    field,
    make,
    squarefree_decompose,
)
from artifact.units import fundamental_unit
from oracles import partitions_per_part, squarefree_range


def test_quantum_int_small_values():
    assert quantum_int(21, 0) == 0
    assert quantum_int(21, 1) == 1
    assert quantum_int(21, 2) == 5
    assert quantum_int(21, 3) == 24
    assert quantum_int(21, -3) == -24
    # norm -1 field: even index values live in Z*sqrt(N)
    assert quantum_int(2, 2) == make(2, 0, 4)  # 2*sqrt(2)
    assert quantum_int(2, -2) == make(2, 0, -4)
    assert quantum_int(2, 3) == 7  # (2*sqrt2)^2 - 1
    with pytest.raises(NotApplicable):
        quantum_int(-1, 2)


def test_quantum_int_keeps_two_rows():
    """quantum_int takes the |m|-th row of the recurrence and keeps only the
    last two: [20000] in Z[sqrt2] has a 7,656-digit coordinate, and the
    whole table [0], ..., [20000] would hold about 36 MB."""
    fundamental_unit(2)  # cached before tracing starts
    tracemalloc.start()
    try:
        value = quantum_int(2, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.p == 0 and 10**7655 <= value.q // 2 < 10**7656
    assert peak < 2**20


def test_quantum_int_matches_direct_formula():
    """The recurrence agrees with (eps^m - eps^-m)/(eps - eps^-1) and the
    value is integral of the predicted shape."""
    for N in squarefree_range(200):
        if N < 2:
            continue
        fu = fundamental_unit(N)
        denom = fu.eps - fu.eps**-1
        for m in range(-20, 21):
            got = quantum_int(N, m)
            want = exact_divide(fu.eps**m - fu.eps**-m, denom)
            assert got == want, (N, m)
            if fu.unit_norm == 1 or m % 2:
                assert got.q == 0
            else:
                assert got.p == 0


def test_decompose_example_target():
    scan = decompose_global_dim(21, 21, 1, divisor_constraint=21)
    assert scan.candidates_scanned == 336
    assert [(s.d_int, s.coeffs) for s in scan.solutions] == [
        (3, ((1, 6), (2, 3))),
        (1, ((1, 16), (2, 1))),
    ]
    # each solution refines uniquely
    first, second = scan.solutions
    profs = refine_simple_dims(first)
    assert [p.parts for p in profs] == [((1, 2), (1, 2), (1, 2), (3, 1), (3, 1))]
    profs = refine_simple_dims(second)
    assert [p.parts for p in profs] == [((1, 2), (3, 1), (3, 1), (3, 1), (7, 1))]


def test_decompose_trivial_and_rational_targets():
    scan = decompose_global_dim(21, 1, 0)
    assert scan.candidates_scanned == 1
    assert len(scan.solutions) == 1
    assert scan.solutions[0].d_int == 1
    assert scan.solutions[0].coeffs == ()
    # rational target below eps: everything must sit in d_int
    scan = decompose_global_dim(3, 2, 0)
    assert [(s.d_int, s.coeffs) for s in scan.solutions] == [(2, ())]


def test_decompose_rejects_non_dominant_targets():
    with pytest.raises(NotInDPlus):
        decompose_global_dim(2, 3, 1)  # odd power of a norm -1 unit
    with pytest.raises(NotInDPlus):
        decompose_global_dim(5, 2, 1)
    with pytest.raises(ValueError):
        decompose_global_dim(3, 0, 1)


def test_decompose_solutions_satisfy_both_identities():
    for N, ell, m in [(3, 10, 1), (21, 21, 1), (2, 6, 2), (5, 4, 2)]:
        fu = fundamental_unit(N)
        scan = decompose_global_dim(N, ell, m)
        assert scan.solutions, (N, ell, m)
        target = fu.eps**m * ell
        for sol in scan.solutions:
            total = sol.field.integer(sol.d_int)
            rhs = sol.field.integer(0)
            for j, lj in sol.coeffs:
                assert lj > 0
                total = total + fu.eps**j * lj
                rhs = rhs + quantum_int(N, j - m) * lj
            assert total == target
            assert quantum_int(N, m) * sol.d_int == rhs
            if fu.unit_norm == -1:
                assert all(j % 2 == 0 for j, _ in sol.coeffs)


def test_decompose_recheck_rejects_a_corrupt_quantum_integer(monkeypatch):
    """The re-check on integers is not vacuous: [k] raised by 1 in the table,
    at a k != m that a solution's [j - m] reads, fails it."""
    scan = decompose_global_dim(5, 72, 2)
    used = {abs(j - 2) for s in scan.solutions for j, _ in s.coeffs}
    k = max(used - {2})
    real = fusion._quantum_ints

    def shifted(fld):
        for i, (p, q) in enumerate(real(fld)):
            yield (p + 2, q) if i == k else (p, q)

    monkeypatch.setattr(fusion, "_quantum_ints", shifted)
    with pytest.raises(InternalInconsistency, match="solver check failed"):
        decompose_global_dim(5, 72, 2)


def test_decompose_makes_no_quadint_arithmetic(quadint_calls):
    """The walk, the target and the re-check run on integer coordinates:
    no QuadInt operator or order on two targets with many solutions."""
    for (N, ell, m), count in [((5, 72, 2), 58), ((5, 60, 2), 46)]:
        assert len(decompose_global_dim(N, ell, m).solutions) == count
    assert not quadint_calls


def test_decompose_work_follows_the_output(monkeypatch):
    """The cap ell_j <= r_q // Q_j keeps the walk output-sensitive: 2 *
    eps_2^0 = 199999 has one solution, d_int = ell, and the walk closes 2
    nodes over three terms for it (1,702,640 two-term solves with the
    embedding cap alone), while the raw box stays the same size.  Closing
    at the third-smallest term lists a whole interval of ell_c per node:
    1000 * eps_3 has 2,267 solutions from 826 closings (20,062 two-term
    solves when the walk also tried every ell_c)."""
    calls = []

    def spy(rp, rq, terms):
        calls.append(len(terms))
        return _last_coefficients(rp, rq, terms)

    monkeypatch.setattr(fusion, "_last_coefficients", spy)
    scan = decompose_global_dim(2, 199999, 0)
    assert [(s.d_int, s.coeffs) for s in scan.solutions] == [(199999, ())]
    assert scan.candidates_scanned == 10236013678140600
    assert calls == [3, 3]
    calls.clear()
    assert len(decompose_global_dim(3, 1000, 1).solutions) == 2267
    assert calls == [3] * 826


def full_walk(N, ell, m, divisor_constraint=None):
    """Oracle for decompose_global_dim: every ell_j walked from its cap down
    to 0, largest j first, and a solution wherever the remainder is exactly
    zero.  No conjugate pruning and no linear solve.  Returns the sorted
    (d_int, coeffs) pairs and the box size: the number of d_int times the
    product over j of floor(target * eps^-j), all in QuadInt arithmetic."""
    fu = fundamental_unit(N)
    target = fu.eps**m * ell
    step = 2 if fu.unit_norm == -1 else 1
    js = []
    while fu.eps ** ((len(js) + 1) * step) <= target:
        js.append((len(js) + 1) * step)
    power = {j: fu.eps**j for j in js}

    def floor_of(x):  # floor((p + q*sqrt(N))/2) by an integer square root
        r = math.isqrt(x.q * x.q * N)
        if x.q < 0:
            r = -r if r * r == x.q * x.q * N else -r - 1
        return (x.p + r) // 2

    found = []

    def walk(idx, rem, chosen):
        if idx < 0:
            if rem.is_zero():
                found.append((d, tuple(sorted((j, lj) for j, lj in chosen if lj))))
            return
        j = js[idx]
        top = 0 if rem.sign() <= 0 else floor_of(rem * fu.eps**-j)
        for lj in range(top, -1, -1):
            walk(idx - 1, rem - power[j] * lj, chosen + [(j, lj)])

    pool = divisors(ell if divisor_constraint is None else divisor_constraint)
    for d in pool:
        if (target - d).sign() >= 0:
            walk(len(js) - 1, target - d, [])
    box = math.prod(floor_of(target * fu.eps**-j) for j in js) * len(pool)
    return sorted(found, key=lambda s: (-s[0], s[1])), box


def small_targets():
    """Every dominant ell*eps^m <= 200 with 1 <= m <= 3 over N <= 60."""
    out = []
    for N in squarefree_range(60)[1:]:
        eps = fundamental_unit(N).eps
        for m in range(1, 4):
            ell = 1
            while eps**m * ell <= 200:
                if in_dplus(eps**m * ell):
                    out.append((N, ell, m))
                ell += 1
    return out


def test_decompose_matches_full_walk_oracle():
    """The exact last two levels and the conjugate prune find exactly the
    solutions of the full walk, and the box size matches the one from the
    oracle's own caps: on every small target, and with pools of d_int that
    differ from the divisors of ell."""
    targets = small_targets()
    assert len(targets) == 233
    total = 0
    for N, ell, m in targets:
        scan = decompose_global_dim(N, ell, m)
        got = [(s.d_int, s.coeffs) for s in scan.solutions]
        assert (got, scan.candidates_scanned) == full_walk(N, ell, m), (N, ell, m)
        total += len(got)
    assert total == 1033
    for N, ell, m in [(21, 21, 1), (3, 10, 1), (5, 4, 2), (2, 6, 2)]:
        for dc in (1, 7, 12, 30, 60):
            scan = decompose_global_dim(N, ell, m, divisor_constraint=dc)
            got = [(s.d_int, s.coeffs) for s in scan.solutions]
            want = full_walk(N, ell, m, divisor_constraint=dc)
            assert (got, scan.candidates_scanned) == want, (N, ell, m, dc)


def test_last_coefficients_against_brute_force():
    """The exact last step of the solver, on every remainder of value <= 30
    in a box of doubled coordinates, including those outside Z[eps] (the
    decompose targets never leave it) and those with a negative or
    fractional coordinate; the expected solutions come from a table of all
    sums with l_j * eps^j <= 30, over up to three consecutive powers."""
    bound = 30
    for N in (2, 3, 5, 13, 21):
        fu = fundamental_unit(N)
        step = 2 if fu.unit_norm == -1 else 1
        for js in ([], [step], [step, 2 * step], [step, 3 * step],
                   [step, 2 * step, 3 * step], [2 * step, 3 * step, 4 * step]):
            powers = [fu.eps**j for j in js]
            caps = [max(k for k in range(bound + 1) if e * k <= bound) for e in powers]
            table = {}
            for ls in itertools.product(*(range(c + 1) for c in caps)):
                x = sum((e * lj for e, lj in zip(powers, ls)), field(N).integer(0))
                table.setdefault((x.p, x.q), []).append(list(zip(js, ls)))
            terms = [(j, e.p, e.q) for j, e in zip(js, powers)]
            for rq in range(-12, 13):
                for rp in range(-2 * bound, 2 * bound + 1):
                    if (rp - rq) % 2 or (N % 4 != 1 and rp % 2):
                        continue  # not a ring element
                    if make(N, rp, rq) > bound:
                        continue
                    got = _last_coefficients(rp, rq, terms)
                    assert sorted(got) == table.get((rp, rq), []), (N, js, rp, rq)


def refine_per_part(d, apply_modular_filter):
    """Oracle for refine_simple_dims: each part c factorized and its
    squarefree part looked up in sqrt_classes, the filter as one exact
    division per part, and the profiles built by a separate recursion."""
    fu = fundamental_unit(d.field)
    target_value = evaluate(d.target)
    per_j = []
    for j, lj in d.coeffs:
        allowed = [
            c for c in range(1, lj + 1)
            if squarefree_decompose(c)[1] in sqrt_classes(j % 2, d.field)
            and (not apply_modular_filter or divides(fu.eps**j * c, target_value))
        ]

        def splits(rest, largest):  # partitions of rest, parts <= largest
            if rest == 0:
                return [()]
            return [
                (c,) + more
                for c in allowed if c <= min(rest, largest)
                for more in splits(rest - c, c)
            ]

        per_j.append([tuple((c, j) for c in p) for p in splits(lj, lj)])
    profiles = [()]
    for choices in per_j:
        profiles = [got + extra for got in profiles for extra in choices]
    return [tuple(sorted(parts)) for parts in sorted(profiles)]


def test_refine_matches_per_part_oracle():
    """Every solution of the small targets with the filter on; with it off,
    those whose ell_j are all <= 24 (beyond that the unfiltered profiles
    run into the thousands per solution)."""
    checked = 0
    for N, ell, m in small_targets():
        for sol in decompose_global_dim(N, ell, m).solutions:
            for apply in (True, False):
                if not apply and any(lj > 24 for _, lj in sol.coeffs):
                    continue
                got = [p.parts for p in refine_simple_dims(sol, apply)]
                assert got == refine_per_part(sol, apply), (N, ell, m, sol, apply)
                checked += 1
    assert checked == 1737  # 1033 filtered, 704 unfiltered


def test_refine_matches_per_part_oracle_at_workload_sizes():
    """The largest refinements of the fusion workload: every solution of
    72*eps^2 and 60*eps^2 in N = 5 with the filter on, and the 1,992
    unfiltered profiles of ell_2 = 73, ell_4 = 1 of 76*eps^2."""
    checked = []
    for ell, apply in ((72, True), (60, True), (76, False)):
        for sol in decompose_global_dim(5, ell, 2).solutions:
            if apply or sol.coeffs == ((2, 73), (4, 1)):
                got = [p.parts for p in refine_simple_dims(sol, apply)]
                assert got == refine_per_part(sol, apply), (ell, sol, apply)
                checked.append(len(got))
    assert (len(checked), sum(checked), checked[-1]) == (105, 7883, 1992)


def test_partitions_match_recursion_oracle():
    """The multiplicity walk gives the partitions of the recursion that
    takes one part per frame, each with c ascending, listed in ascending
    order of the c-descending form; on part sets with and without 1, where
    the search can dead-end, and with a part equal to the total."""
    part_sets = [
        [1], [1, 2], [1, 2, 3, 5, 8], [1, 4, 9, 16, 25, 36], [1, 3, 12, 27],
        [2], [2, 3], [2, 8, 18, 32], [3, 4, 12], [5, 7, 20, 28, 45], [6, 24], [],
    ]
    for parts in part_sets:
        for total in range(1, 41):
            want = sorted(
                tuple((c, 3) for c in p)
                for p in partitions_per_part(total, sorted(parts, reverse=True))
            )
            got = _partitions(total, parts, 3)
            assert got == [p[::-1] for p in want], (parts, total)


def test_refine_lists_each_parity_once_and_stops_at_the_first_empty_j(
    monkeypatch,
):
    """One sqrt_classes call per parity of the j reached, made when the
    first j of that parity is reached, and no j partitioned after the first
    one with no partition.  60*eps_5^2 (norm -1, even j only) has solutions
    with several j of one parity; in 30*eps_3^2 (norm +1) the odd classes
    are 2 and 6, so an odd ell_1 has no partition and the even j after it
    are never reached."""
    classes, walked = [], []
    real_classes, real_partitions = fusion.sqrt_classes, fusion._partitions

    def counted_classes(parity, fld):
        classes.append(parity)
        return real_classes(parity, fld)

    def counted_partitions(total, parts, j):
        walked.append(real_partitions(total, parts, j))
        return walked[-1]

    monkeypatch.setattr(fusion, "sqrt_classes", counted_classes)
    monkeypatch.setattr(fusion, "_partitions", counted_partitions)
    shared = early = 0
    for N, ell, m in ((5, 60, 2), (3, 30, 2)):
        for sol in decompose_global_dim(N, ell, m).solutions:
            for apply in (True, False):
                classes.clear()
                walked.clear()
                refine_simple_dims(sol, apply)
                empty = [i for i, got in enumerate(walked) if not got]
                reached = [j % 2 for j, _ in sol.coeffs[: len(walked)]]
                assert len(walked) == (empty[0] + 1 if empty else len(sol.coeffs))
                assert sorted(classes) == sorted(set(reached))
                shared += len(reached) > len(set(reached))
                early += any(j % 2 not in reached for j, _ in sol.coeffs)
    assert (shared, early) == (104, 8)


def test_refine_modular_filter_effect():
    """For 10*eps_3 the unfiltered refinement allows a single object of
    squared dimension 6*eps, but 10*eps/(6*eps) = 5/3 is not an algebraic
    integer, so the filter removes it."""
    scan = decompose_global_dim(3, 10, 1)
    sol = next(s for s in scan.solutions if s.d_int == 1)
    assert sol.coeffs == ((1, 6), (2, 1))
    loose = refine_simple_dims(sol)
    tight = refine_simple_dims(sol, apply_modular_filter=True)
    assert [p.parts for p in tight] == [((1, 2), (2, 1), (2, 1), (2, 1))]
    assert len(loose) > len(tight)
    assert ((1, 2), (6, 1)) in [p.parts for p in loose]


def test_refine_empty_coeffs_gives_empty_profile():
    scan = decompose_global_dim(21, 1, 0)
    profs = refine_simple_dims(scan.solutions[0])
    assert len(profs) == 1
    assert profs[0].parts == ()


def test_near_group_dim():
    rho_sq, cat, ok = near_group_dim(1, 1)
    assert rho_sq == make(5, 3, 1)  # golden ratio squared
    assert cat == make(5, 5, 1)
    assert ok
    rho_sq, cat, ok = near_group_dim(3, 1)
    assert rho_sq.field == field(21)
    assert rho_sq == fundamental_unit(21).eps * 3
    assert cat == make(21, 21, 3)
    assert ok
    rho_sq, cat, ok = near_group_dim(2, 1)
    assert cat == make(3, 12, 4)  # 6 + 2*sqrt(3)
    assert ok
    with pytest.raises(ValueError):
        near_group_dim(2, 0)
    assert tambara_yamagami_dim(2) == 4
    assert tambara_yamagami_dim(1) == 2


def test_haagerup_izumi_dim():
    rho, cat = haagerup_izumi_dim(1)
    assert rho == make(5, 1, 1)
    assert cat == make(5, 5, 1)
    rho, cat = haagerup_izumi_dim(3)
    assert rho == fundamental_unit(13).eps
    assert cat == make(13, 39, 9)
    rho, cat = haagerup_izumi_dim(2)
    assert rho == fundamental_unit(2).eps
    assert cat == make(2, 16, 8)  # 8 + 4*sqrt(2)
    # |G| = 11: rho = eps_5^5, so the dimension is 55*eps_5^5*sqrt(5)
    rho, cat = haagerup_izumi_dim(11)
    assert rho == fundamental_unit(5).eps ** 5
    assert cat == make(5, 1375, 605)
    assert cat == fundamental_unit(5).eps ** 5 * make(5, 0, 2) * 55


def test_generalized_near_group_check():
    with pytest.raises(Rejected):
        generalized_near_group_check(4, 2, 3)  # 2 does not divide 9
    rho, cat = generalized_near_group_check(2, 2, 2)
    assert rho == make(3, 2, 2)  # 1 + sqrt(3)
    assert cat == make(3, 12, 4)
    assert is_dnumber(rho)
    rho, cat = generalized_near_group_check(1, 1, 1)
    assert rho == make(5, 1, 1)
    assert cat == make(5, 5, 1)
    assert generalized_near_group_check(1, 1, 0) == (1, 2)
    # index [G : G_rho] scales the dimension
    rho, cat = generalized_near_group_check(4, 2, 2)
    assert cat == make(3, 24, 8)
    with pytest.raises(ValueError):
        generalized_near_group_check(3, 2, 2)  # stabilizer must divide


def test_kronecker_screen_eliminates_three_plus_sqrt_three():
    target = make(3, 6, 2)
    assert kronecker_screen(target) == []
    # without the tensor-square condition one sum survives: 4cos^2(pi/12)
    assert kronecker_screen(target, apply_tensor_filter=False) == [(12,)]


def test_kronecker_screen_known_realizations():
    f = field(3)
    assert kronecker_screen(f.integer(2)) == [(3,)]
    assert kronecker_screen(make(5, 5, 1)) == [(5,)]
    assert kronecker_screen(f.integer(3)) == [(3, 3)]
    assert kronecker_screen(f.integer(4)) == [(3, 3, 3), (3, 4)]
    assert kronecker_screen(f.integer(1)) == [()]
    # the unfiltered list is strictly larger for 3 and 4: a single object
    # of dimension sqrt(2) or sqrt(3) sum-matches but has no consistent
    # tensor square
    assert kronecker_screen(f.integer(3), apply_tensor_filter=False) == [
        (3, 3),
        (4,),
    ]
    assert (6,) in kronecker_screen(f.integer(4), apply_tensor_filter=False)


def test_kronecker_screen_preconditions():
    with pytest.raises(NotInDPlus):
        kronecker_screen(make(3, 2, 2))  # 1+sqrt(3): conjugate below 1
    with pytest.raises(NotApplicable):
        kronecker_screen(field(3).integer(5))  # needs target - 1 < 4
    with pytest.raises(NotApplicable):
        kronecker_screen(make(5, 10, 2))  # 5+sqrt(5): dominant but too big


def test_kronecker_screen_makes_no_quadint_arithmetic(quadint_calls):
    """The bound target - 1 < 4 and the search run on integer coordinates."""
    for N, p, q in [(5, 2, 0), (5, 4, 0), (5, 6, 0), (5, 5, 1), (5, 8, 0), (3, 6, 2)]:
        kronecker_screen(make(N, p, q))
    assert not quadint_calls


# the screen's answers, filter on and off, by the target's value
SCREEN_ANSWERS = {
    "1": ([()], [()]),
    "2": ([(3,)], [(3,)]),
    "3": ([(3, 3)], [(3, 3), (4,)]),
    "(5+√5)/2": ([(5,)], [(5,)]),
    "4": ([(3, 3, 3), (3, 4)], [(3, 3, 3), (3, 4), (6,)]),
    "3+√3": ([], [(12,)]),
}


def screen_targets():
    """Every dominant d-number below 5 in a field with N <= 40, the
    integers 1..4 included once per field."""
    targets = []
    for N in squarefree_range(40)[1:]:
        targets += [field(N).integer(k) for k in range(1, 5)]
        targets += [e.value for e in enumerate_field(N, 5) if e.value < 5]
    return targets


def test_kronecker_screen_depends_only_on_the_value():
    """The field a value comes in changes no answer, with the filter on and
    off: 102 targets over N <= 40, six distinct values."""
    targets = screen_targets()
    assert len(targets) == 102
    assert {str(t) for t in targets} == set(SCREEN_ANSWERS)
    for target in targets:
        on, off = SCREEN_ANSWERS[str(target)]
        assert kronecker_screen(target) == on, target
        assert kronecker_screen(target, apply_tensor_filter=False) == off, target


def _phi(n):
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def test_exact_cos_tables_and_the_screen_lemma():
    """The tables hold exactly the n whose value is rational or quadratic
    (degree phi(n)/2 for 2cos(2pi/n)), each value right to 50 digits, and
    the bounds that the proof in fusion.py's screen section uses hold."""
    mpmath = pytest.importorskip("mpmath")
    assert set(_EXACT_COS_SQUARES) == {n for n in range(3, 41) if _phi(n) <= 4}
    assert set(_EXACT_COS_DIMS) == {n for n in range(3, 41) if _phi(2 * n) <= 4}
    with mpmath.workdps(60):
        def half(terms):
            return mpmath.fsum(c * mpmath.sqrt(r) for r, c in terms.items()) / 2

        tol = mpmath.mpf(10) ** -50
        for n, terms in _EXACT_COS_SQUARES.items():
            assert abs(half(terms) - 4 * mpmath.cos(mpmath.pi / n) ** 2) < tol, n
        for n, terms in _EXACT_COS_DIMS.items():
            assert abs(half(terms) - 2 * mpmath.cos(mpmath.pi / n)) < tol, n
        assert 4 * mpmath.cos(mpmath.pi / 7) ** 2 > mpmath.mpf("3.24")
        assert min(2 * mpmath.cos(mpmath.pi / n) for n in (8, 10, 12)) > 1.84
        assert 1 + mpmath.sqrt(3) < mpmath.mpf("2.74")
        # 1 + sqrt(3) is the largest need of the tensor-square test
        largest = max(half(t) for t in _EXACT_COS_SQUARES.values()) - 1
        assert abs(largest - 1 - mpmath.sqrt(3)) < tol


def test_kronecker_screen_against_brute_force():
    """Every multiset of up to 3 values 4cos^2(pi/n), n = 3..40, at 60
    digits: each sum is within 10^-50 of target - 1 or farther than 10^-8,
    and the hits are the unfiltered screen.  Enough for targets below 5:
    each value is >= 1, and the values with n > 40 lie above 3.97, beyond
    every target - 1 here.  The tensor-square filter is checked the same
    way, on sums of 2cos(pi/n) over each survivor's members."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        near, far = mpmath.mpf(10) ** -50, mpmath.mpf(10) ** -8

        def hits(value, ns, values):
            found = []
            for size in range(4):
                for combo in itertools.combinations_with_replacement(ns, size):
                    gap = abs(mpmath.fsum(values[n] for n in combo) - value)
                    assert gap < near or gap > far, (value, combo)
                    if gap < near:
                        found.append(combo)
            return sorted(found)

        squares = {n: 4 * mpmath.cos(mpmath.pi / n) ** 2 for n in range(3, 41)}
        dims = {n: 2 * mpmath.cos(mpmath.pi / n) for n in range(3, 41)}
        for target in {str(t): t for t in screen_targets()}.values():
            value = (target.p + target.q * mpmath.sqrt(target.N)) / 2 - 1
            survivors = hits(value, range(3, 41), squares)
            assert kronecker_screen(target, apply_tensor_filter=False) == survivors
            consistent = [
                s for s in survivors
                if all(hits(squares[n] - 1, sorted(set(s)), dims) for n in s)
            ]
            assert kronecker_screen(target) == consistent, target


def test_quantum_group_table(quadint_calls):
    """The shipped rows, each value built on the unit's (t, u), ell and
    sqrt(N) with no QuadInt arithmetic."""
    rows = quantum_group_table()
    assert not quadint_calls
    assert len(rows) == 30
    assert sorted({r.N for r in rows}) == [2, 3, 5, 6, 21]
    by_label = {r.label(): r for r in rows}
    assert by_label["A1,3"].value == make(5, 10, 2)  # 2*eps_5*sqrt(5) = 5+sqrt(5)
    assert by_label["F4,3"].value == fundamental_unit(6).eps * 48
    assert by_label["G2,3"].value == make(21, 105, 21)
    for r in rows:
        assert is_dnumber(r.value)
        assert in_dplus(r.value)
        cf = canonical_factor(r.value)
        assert cf.ell == r.ell
        assert cf.m == r.unit_power
        assert cf.delta == ((1 if r.with_sqrt_n else 0), 0, 0)
