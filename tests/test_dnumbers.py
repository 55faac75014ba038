import random

import pytest

from artifact import dnumbers
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
    is_dnumber_via_charpoly,
    kappas,
    sqrt_class,
)
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
    squarefree_range,
)
from artifact.units import fundamental_unit


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
            for j, cofactor in ((0, sq), (1, None)):
                pass
            if sq.is_rational():
                c, j = int(sq.as_fraction()), 0
            else:
                from artifact.quadring import exact_divide

                c_elt = exact_divide(sq, fu.eps)
                assert c_elt.is_rational()
                c, j = int(c_elt.as_fraction()), 1
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
    with pytest.raises(NotApplicable):
        canonical_factor(make(-1, 2, 2))


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
            u = exact_divide(x, gs.evaluate_delta(delta) * ell)
            steps = 0
            while u != 1:
                u = exact_divide(u, fu.eps) if u > 1 else u * fu.eps
                steps += 1
                assert steps <= 8
            assert steps == abs(m)


def test_noncanonical_products_still_factor():
    """Products outside the canonical combo set (e.g. sqrt(N) times a kappa
    generator in the generic case) reduce with integer content but must
    still factor consistently by value."""
    for N in (15, 35):
        gs = generator_set(N)
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


def test_dnumber_divides_examples():
    v = dnumber_divides(make(3, 2, 2), make(3, 6, 2))
    assert v.divides and v.rejected_by is None
    v = dnumber_divides(make(3, 6, 2), make(3, 2, 2))
    assert not v.divides
    v = dnumber_divides(make(3, 10, 0), fundamental_unit(3).eps * 24)
    assert not v.divides and v.rejected_by == "ell"
    with pytest.raises(FieldMismatch):
        dnumber_divides(make(2, 2, 2), make(3, 6, 2))


def test_order_and_divides_let_bugs_propagate(monkeypatch):
    """Only NotDivisible means "no quotient"; any other error out of
    exact_divide is a bug and must not turn into an answer."""
    real = dnumbers.exact_divide
    seven, beta, alpha = make(3, 14, 0), make(3, 2, 2), make(3, 6, 2)

    def broken(x, y):
        if (x, y) in ((seven, field(3).integer(7)), (alpha, beta)):
            raise InternalInconsistency("injected")
        return real(x, y)

    monkeypatch.setattr(dnumbers, "exact_divide", broken)
    with pytest.raises(InternalInconsistency):
        dnumber_order(seven)  # norm 49 is a square, so it tries 7 | x
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
    c = complex_classify(-7)
    assert c.kind == "Generic"
    assert c.member(make(-7, 0, 4))  # 2*sqrt(-7)
    assert not c.member(make(-7, 2, 2))  # 1+sqrt(-7)
    c = complex_classify(-1)
    assert c.kind == "Gaussian"
    assert c.member(make(-1, 6, 6))  # 3+3i
    assert c.member(make(-1, 6, 0)) and c.member(make(-1, 0, U := 6))
    assert not c.member(make(-1, 4, 2))  # 2+i
    c = complex_classify(-3)
    assert c.kind == "Eisenstein"
    assert c.member(make(-3, 3, 1))  # (3+sqrt-3)/2
    assert c.member(make(-3, 1, 1)) and c.member(make(-3, 0, 2))
    assert not c.member(make(-3, 5, 1))
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
                assert c.member(x) == is_dnumber(x), repr(x)


def test_sqrt_class():
    assert sqrt_class(3, 1, 21)
    assert not sqrt_class(2, 1, 21)
    assert sqrt_class(1, 0, 21) and sqrt_class(21, 0, 21)
    assert not sqrt_class(3, 0, 21)
    assert sqrt_class(7, 1, 21)
    # norm -1 fields admit no odd-power square roots
    assert not sqrt_class(5, 1, 5) and not sqrt_class(1, 1, 5)
    assert sqrt_class(5, 0, 5)
    # kappa values for N=3 are 6 and 2
    assert sqrt_class(6, 1, 3) and sqrt_class(2, 1, 3) and not sqrt_class(3, 1, 3)
    with pytest.raises(ValueError):
        sqrt_class(12, 1, 3)  # not squarefree


def test_sqrt_class_constructive():
    """Whenever sqrt_class accepts (c, odd), c*eps really is a square in the
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
            assert sqrt_class(c, 1, N)
            assert exact_root_of_c_eps(N, c) is not None
        # and an accepted value that is *not* a kappa: N*kappa collapses
        if gs.case == CASE_N_KAPPA1_EQ_KAPPA2:
            assert sqrt_class(N * gs.kappa1, 1, N)  # equals kappa_2
    # a rejected value really has no root
    assert exact_root_of_c_eps(21, 2) is None and not sqrt_class(2, 1, 21)
    assert exact_root_of_c_eps(3, 3) is None and not sqrt_class(3, 1, 3)
