import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zebraperc import (
    FIXED_POINT_CONFIG,
    NonConvergenceError,
    RootMode,
    SolverConfig,
    TreeParams,
    UnsupportedOrderError,
    expected_zebra_count,
    open_ray_probability,
    path_probability,
    standard_critical,
    theta_branch_fixed_point,
    theta_closed_form,
    theta_fixed_point,
    theta_inverse,
    zebra_critical_pair,
    zebra_dp,
    zebra_limit,
    zebra_via_relation,
)
from zebraperc.analytic import _even_level_limit, zebra_dp_state

probs = st.floats(min_value=0.0, max_value=1.0)
orders = st.integers(min_value=2, max_value=8)

# frozen: theta_3 closed form at p = 1/2, evaluated by hand from
# 2(3p-1) / (p(3p + sqrt(p(4-3p)))) = 1 / 1.3090169943749475
THETA3_HALF = 0.7639320225002103


class TestPathProbability:
    def test_examples(self):
        assert path_probability(0.3, 1) == 1.0
        assert path_probability(0.5, 2) == 0.5
        assert path_probability(0.0, 3) == 0.0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            path_probability(0.5, 0)

    @given(probs, st.integers(1, 40))
    def test_bounds(self, p, n):
        value = path_probability(p, n)
        assert 0.0 <= value <= 1.0

    @given(st.floats(0.0, 1.0), st.integers(1, 20))
    def test_even_is_twice_the_half_power(self, p, n):
        even = path_probability(p, 2 * n)
        assert even == 2.0 * (p * (1.0 - p)) ** n


class TestCriticalValues:
    def test_standard(self):
        assert standard_critical(TreeParams(2)) == 0.5
        assert standard_critical(TreeParams(3)) == pytest.approx(1 / 3, abs=1e-15)
        assert standard_critical(TreeParams(10)) == pytest.approx(0.1, abs=1e-15)
        assert standard_critical(TreeParams(3, RootMode.FULL_CAYLEY)) == standard_critical(
            TreeParams(3)
        )

    def test_zebra_pair_k2_degenerate(self):
        pair = zebra_critical_pair(TreeParams(2))
        assert pair.p_low == 0.5 and pair.p_high == 0.5

    def test_zebra_pair_k3(self):
        pair = zebra_critical_pair(TreeParams(3))
        # roots of 9 p (1-p) = 1: (3 -+ sqrt(5)) / 6
        assert pair.p_low == pytest.approx((3 - math.sqrt(5)) / 6, abs=1e-15)
        assert pair.p_high == pytest.approx((3 + math.sqrt(5)) / 6, abs=1e-15)

    @pytest.mark.parametrize("k", [*range(2, 11), *(10**e for e in range(2, 10))])
    def test_zebra_pair_matches_60_digit_reference(self, k):
        """Both roots within about one ulp, however large k: p_low does not cancel."""
        with localcontext() as ctx:
            ctx.prec = 60
            dk = Decimal(k)
            low = (dk - (dk * dk - 4).sqrt()) / (2 * dk)
            pair = zebra_critical_pair(TreeParams(k))
            for value, ref in zip(pair, (low, 1 - low)):
                assert abs(Decimal(value) - ref) <= Decimal("2.5e-16") * ref, (value, ref)

    @given(st.integers(2, 60))
    def test_pair_sums_to_one_and_solves_the_quadratic(self, k):
        pair = zebra_critical_pair(TreeParams(k))
        assert pair.p_low + pair.p_high == 1.0
        assert k * k * pair.p_low * (1 - pair.p_low) == pytest.approx(1.0, abs=1e-9)
        if k >= 3:
            assert 0.0 < pair.p_low < 1.0 / k < 0.5 < pair.p_high < 1.0


class TestThetaFixedPoint:
    def test_k2_closed_form_point(self):
        assert theta_fixed_point(TreeParams(2), 0.75) == pytest.approx(8 / 9, abs=1e-9)

    def test_subcritical_is_exactly_zero(self):
        assert theta_fixed_point(TreeParams(3), 0.25) == 0.0
        assert theta_fixed_point(TreeParams(3), 1 / 3) == 0.0

    def test_boundaries(self):
        for k in (2, 3, 5):
            assert theta_fixed_point(TreeParams(k), 0.0) == 0.0
            assert theta_fixed_point(TreeParams(k), 1.0) == 1.0

    @given(orders, probs)
    @settings(max_examples=60)
    def test_branch_residual(self, k, p):
        theta = theta_branch_fixed_point(k, p)
        if theta > 0.0:
            residual = abs(theta - (1.0 - (1.0 - p * theta) ** k))
            assert residual < 10 * 1e-12

    @given(orders, probs)
    @example(5, 0.2)  # the double 0.2 exceeds 1/5
    @example(3, 1 / 3)  # the double 1/3 falls short of 1/3
    @settings(max_examples=60)
    def test_range_and_subcritical_zero(self, k, p):
        value = theta_fixed_point(TreeParams(k), p)
        assert 0.0 <= value <= 1.0
        num, den = p.as_integer_ratio()  # the exact value of the double p
        assert (value == 0.0) == (k * num <= den)

    def test_full_cayley_root_correction(self):
        k, p = 3, 0.6
        branch = theta_branch_fixed_point(k, p)
        full = theta_fixed_point(TreeParams(k, RootMode.FULL_CAYLEY), p)
        assert full == pytest.approx(1.0 - (1.0 - p * branch) ** (k + 1), abs=1e-15)
        assert full > theta_fixed_point(TreeParams(k), p)

    def test_accurate_just_above_criticality(self):
        # frozen: the largest root at the double nearest each p, in 50-digit
        # mpmath; for k = 2 it equals (2p - 1) / p^2 evaluated exactly. The
        # k = 4, 5, 6 roots have no closed form: Newton's method from 1 on
        # 1 - (1 - p x)^k - x in 50-digit mpmath, rounded to the nearest double.
        for k, p, expected in (
            (2, 0.500001, 7.99996800032604e-06),
            (3, 0.3333343333333333, 8.99995499977267e-06),
            (4, 0.25001, 0.00010666002996894663),
            (4, 0.250001, 1.0666600296350132e-05),
            (5, 0.20001000000000002, 0.00012499062558616727),
            (5, 0.200001, 1.2499906250737211e-05),
            (5, 0.2, 1.3877787807814457e-16),
            (6, 0.16667666666666667, 0.00014398732893767415),
            (6, 0.16666766666666666, 1.4399873280818898e-05),
        ):
            value = theta_fixed_point(TreeParams(k), p)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        for e in range(1, 16):
            p = 0.5 + 10.0**-e
            exact = (2 * Fraction(p) - 1) / Fraction(p) ** 2
            value = theta_fixed_point(TreeParams(2), p)
            assert value == pytest.approx(float(exact), rel=1e-14, abs=0.0), p

    def test_non_convergence_carries_last_value(self):
        with pytest.raises(NonConvergenceError) as err:
            theta_branch_fixed_point(2, 0.9, SolverConfig(tol=1e-12, max_iter=3))
        assert 0.0 < err.value.last_value <= 1.0
        assert err.value.iterations == 3
        assert 1e-12 * err.value.last_value < err.value.residual < 1.0

    def test_monotone_in_p(self):
        for k in (2, 3, 4):
            params = TreeParams(k)
            values = [theta_fixed_point(params, j / 200) for j in range(201)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestThetaClosedForm:
    def test_examples(self):
        assert theta_closed_form(2, 0.75) == pytest.approx(8 / 9, abs=1e-15)
        assert theta_closed_form(3, 0.5) == pytest.approx(THETA3_HALF, abs=1e-15)
        assert theta_closed_form(3, 1 / 3) == 0.0
        assert theta_closed_form(2, 0.5) == 0.0

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            theta_closed_form(4, 0.5)

    @pytest.mark.parametrize("e", range(1, 16))
    def test_k3_matches_60_digit_reference_near_one_third(self, e):
        """3p - 1 does not cancel: full accuracy at p = 1/3 + 10^-e."""
        p = 1 / 3 + 10.0**-e
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(p)
            ref = 2 * (3 * d - 1) / (d * (3 * d + (d * (4 - 3 * d)).sqrt()))
            assert abs(Decimal(theta_closed_form(3, p)) - ref) <= Decimal("4e-16") * ref

    def test_k3_zero_below_one_third_exactly(self):
        third = 1 / 3  # just below 1/3: 3p - 1 < 0 exactly
        assert theta_closed_form(3, third) == 0.0
        assert theta_closed_form(3, math.nextafter(third, 1.0)) > 0.0

    def test_agreement_with_fixed_point(self):
        for k in (2, 3):
            params = TreeParams(k)
            for j in range(1, 201):
                p = 1 / k + j * (1 - 1 / k) / 200
                gap = abs(theta_fixed_point(params, p) - theta_closed_form(k, p))
                assert gap < 1e-9, (k, p, gap)


class TestThetaInverse:
    def test_examples(self):
        assert theta_inverse(2, 8 / 9) == pytest.approx(0.75, abs=1e-12)
        assert theta_inverse(3, 1.0) == 1.0
        assert theta_inverse(5, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_limit_is_continuous(self):
        for k in (2, 5):
            assert theta_inverse(k, 1e-9) == pytest.approx(1.0 / k, rel=1e-6)

    @given(st.integers(2, 6), st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=80)
    def test_inverse_identity(self, k, t):
        p = 1 / k + t * (1 - 1 / k)
        params = TreeParams(k)
        theta = theta_fixed_point(params, p)
        if theta > 0.0:
            inverse = theta_inverse(k, theta)
            assert theta_fixed_point(params, inverse) == pytest.approx(theta, abs=1e-12)
            # As theta -> 1 one ulp of theta moves its inverse by more than 1e-7
            # (~4e-6 at 1 - theta = 9e-15), so p is checked only below 1 - 1e-6.
            if theta <= 1.0 - 1e-6:
                assert inverse == pytest.approx(p, abs=1e-7)

    def test_small_argument_does_not_cancel(self):
        # (1 - (1-x)^(1/k)) / x = 1/k + (k-1) x / (2 k^2) + O(x^2)
        for k in (2, 3, 6):
            for x in (1e-15, 1e-12, 1e-9):
                expected = 1 / k + (k - 1) * x / (2 * k * k)
                assert theta_inverse(k, x) == pytest.approx(expected, abs=1e-15)


class TestZebraDP:
    def test_depth_zero_and_one(self):
        states = zebra_dp(TreeParams(2), 0.3, 1)
        assert (states[0].a, states[0].b, states[0].z) == (1.0, 1.0, 1.0)
        assert states[1].z == 1.0  # any first edge starts an alternating path

    def test_known_value_depth2(self):
        assert zebra_dp(TreeParams(2), 0.5, 2)[2].z == 0.9375  # 15/16, brute forced

    def test_all_open_kills_alternation(self):
        assert zebra_dp(TreeParams(3), 1.0, 2)[2].z == 0.0
        assert zebra_dp(TreeParams(3), 0.0, 2)[2].z == 0.0

    @given(orders, probs, st.integers(0, 30))
    @settings(max_examples=60)
    def test_depth_monotone(self, k, p, n):
        states = zebra_dp(TreeParams(k), p, n)
        for earlier, later in zip(states, states[1:]):
            assert later.a <= earlier.a
            assert later.b <= earlier.b
            assert later.z <= earlier.z

    @given(orders, st.floats(0.5, 1.0), st.integers(0, 30))
    @settings(max_examples=60)
    def test_symmetry_is_bitwise(self, k, p, n):
        upper = zebra_dp(TreeParams(k), p, n)
        lower = zebra_dp(TreeParams(k), 1.0 - p, n)
        for su, sl in zip(upper, lower):
            assert su.z == sl.z
            assert su.a == sl.b and su.b == sl.a

    @given(orders, st.integers(0, 20))
    def test_equal_parities_at_half(self, k, n):
        for state in zebra_dp(TreeParams(k), 0.5, n):
            assert state.a == state.b


class TestZebraDPState:
    """The depth-n state alone, stopped at the first exact repeat of (a, b), is
    the full iteration's state at depth n."""

    @pytest.mark.parametrize("params", [TreeParams(k, mode) for k in (3, 4) for mode in RootMode])
    @pytest.mark.parametrize("where", ["0.5", "0.2", "0.13", "0.9", "p_low-", "p_low+"])
    def test_equals_the_full_iteration(self, params, where):
        low = zebra_critical_pair(params).p_low
        p = {"p_low-": low - 1e-3, "p_low+": low + 1e-3}.get(where) or float(where)
        states = zebra_dp(params, p, 20000)
        repeat = next(m for m in range(1, len(states))
                      if states[m][1:3] == states[m - 1][1:3])
        for n in (0, 1, repeat - 1, repeat, repeat + 1, 2 * repeat, 20000):
            assert zebra_dp_state(params, p, n) == states[n], n

    def test_constant_time_past_the_repeat(self):
        # at k = 3, p = 1/2 the state repeats from depth 62
        assert zebra_dp_state(TreeParams(3), 0.5, 10**12) == \
            zebra_dp(TreeParams(3), 0.5, 62)[62]._replace(depth=10**12)

    def test_checks(self):
        with pytest.raises(ValueError):
            zebra_dp_state(TreeParams(3), 1.5, 3)
        with pytest.raises(ValueError):
            zebra_dp_state(TreeParams(3), 0.5, -1)


class TestZebraLimit:
    def test_k2_never_percolates(self):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert zebra_limit(TreeParams(2), p) == 0.0

    def test_subcritical_zero(self):
        assert zebra_limit(TreeParams(3), 0.1) == 0.0

    def test_supercritical_matches_independent_iteration(self):
        k, p = 3, 0.5
        value = zebra_limit(TreeParams(k), p, SolverConfig(tol=1e-12, max_iter=10**6))
        # independent oracle: iterate the coupled pair recursion directly
        a = b = 1.0
        for _ in range(4000):
            a, b = 1.0 - (1.0 - p * b) ** k, 1.0 - (1.0 - (1 - p) * a) ** k
        expected = 1.0 - (1.0 - (p * b + (1 - p) * a)) ** k
        assert value == pytest.approx(expected, abs=1e-9)
        assert value > 0.9

    def test_non_convergence_carries_its_state(self):
        with pytest.raises(NonConvergenceError) as err:
            zebra_limit(TreeParams(3), 0.5, SolverConfig(tol=1e-12, max_iter=4))
        assert 0.9 < err.value.last_value <= 1.0
        assert err.value.iterations == 4
        assert 1e-12 <= err.value.residual < 1.0

    def test_threshold_consistency(self):
        for k in (3, 4, 5):
            params = TreeParams(k)
            pair = zebra_critical_pair(params)
            for j in range(41):
                p = j / 40
                inside = pair.p_low < p < pair.p_high
                assert (zebra_limit(params, p) > 0.0) == inside

    def test_boundaries(self):
        for k in (3, 4):
            assert zebra_limit(TreeParams(k), 0.0) == 0.0
            assert zebra_limit(TreeParams(k), 1.0) == 0.0

    @staticmethod
    def decimal_limit(k, p, degrees):
        """Root values at 50 digits over each root degree, from a bisection for
        the largest fixed point a of a -> F(G(a)) on (0, 1]."""
        with localcontext() as ctx:
            ctx.prec = 50
            p = Decimal(p)
            q = 1 - p

            def g(a):
                return 1 - (1 - q * a) ** k

            lo, hi = Decimal(0), Decimal(1)
            for _ in range(170):
                mid = (lo + hi) / 2
                if 1 - (1 - p * g(mid)) ** k > mid:
                    lo = mid
                else:
                    hi = mid
            return [float(1 - (1 - (p * g(lo) + q * lo)) ** d) for d in degrees]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_matches_50_digit_reference_near_thresholds(self, k):
        cfg = SolverConfig(tol=1e-10, max_iter=60)  # LIMIT_CONFIG's tol, 60 Newton steps
        pair = zebra_critical_pair(TreeParams(k))
        modes = list(RootMode)
        for j in range(2, 11):
            for p in (pair.p_low + 10.0**-j, pair.p_high - 10.0**-j):
                refs = self.decimal_limit(k, p, [TreeParams(k, m).root_degree for m in modes])
                for mode, ref in zip(modes, refs):
                    value = zebra_limit(TreeParams(k, mode), p, cfg)
                    assert abs(value - ref) <= 1e-12 * ref, (mode, p, value, ref)

    def test_exact_threshold(self):
        # the first float with k^2 p (1-p) > 1 in exact arithmetic is inside
        for k in (3, 4, 5, 6):
            p = zebra_critical_pair(TreeParams(k)).p_low * (1.0 - 1e-14)
            while k * k * Fraction(p) * (1 - Fraction(p)) <= 1:
                p = math.nextafter(p, 1.0)
            assert 0.0 < zebra_limit(TreeParams(k), p) < 1e-12
            assert zebra_limit(TreeParams(k), math.nextafter(p, 0.0)) == 0.0


class TestEvenLevelLimit:
    def test_zebra_below_the_relation(self):
        # Jensen: the even-level limit of alternating paths never exceeds
        # theta_{k^2}'s branch value at p (1-p)
        positive = 0
        for k in (3, 4, 5, 8):
            for j in range(1, 200):
                p = j / 200
                a = _even_level_limit(k, p, True, FIXED_POINT_CONFIG)
                assert a <= theta_branch_fixed_point(k * k, p * (1 - p)), (k, p)
                positive += a > 0.0
        assert positive == 698


class TestZebraViaRelation:
    def test_subcritical_points(self):
        assert zebra_via_relation(TreeParams(3), 0.1) == 0.0
        assert zebra_via_relation(TreeParams(2), 0.5) == 0.0

    def test_matches_order_k_squared_fixed_point(self):
        # independent oracle: iterate x -> 1 - (1 - x/4)^9 directly
        x = 1.0
        for _ in range(2000):
            x = 1.0 - (1.0 - 0.25 * x) ** 9
        assert zebra_via_relation(TreeParams(3), 0.5) == pytest.approx(x, abs=1e-9)
        assert x == pytest.approx(0.8987843130558182, abs=1e-12)

    @given(st.integers(2, 5), probs)
    @settings(max_examples=40)
    def test_symmetric_in_p(self, k, p):
        params = TreeParams(k)
        assert zebra_via_relation(params, p) == pytest.approx(
            zebra_via_relation(params, 1.0 - p), abs=1e-9
        )


class TestCountsAndRays:
    def test_expected_zebra_count_examples(self):
        assert expected_zebra_count(TreeParams(2), 0.5, 2) == 2.0
        assert expected_zebra_count(TreeParams(3, RootMode.FULL_CAYLEY), 0.5, 1) == 4.0
        assert expected_zebra_count(TreeParams(3), 0.0, 2) == 0.0

    @pytest.mark.parametrize("params", [TreeParams(3), TreeParams(2, RootMode.FULL_CAYLEY)])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("n", [699, 700])
    def test_expected_zebra_count_deep(self, params, p, n):
        # level_size * path_probability in exact arithmetic; k^(n-1) alone passes 1e308
        pq = Fraction(p) * (1 - Fraction(p))
        paths = 2 * pq ** (n // 2) if n % 2 == 0 else pq ** (n // 2)
        exact = params.root_degree * params.k ** (n - 1) * paths
        assert expected_zebra_count(params, p, n) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("params,p,n", [
        (TreeParams(3), 0.5, 2000), (TreeParams(3), 0.5, 2001),
        (TreeParams(4), 0.5, 2000),
    ])
    def test_expected_zebra_count_past_the_float_range(self, params, p, n):
        assert expected_zebra_count(params, p, n) == math.inf

    def test_expected_zebra_count_near_the_float_range(self):
        # root_degree * (k^2 p (1-p))^(n//2) = 4 * 2.25^873 lies above half the largest
        # float; times 2/k, even n stays finite
        value = expected_zebra_count(TreeParams(3, RootMode.FULL_CAYLEY), 0.5, 1746)
        exact = 4 * Fraction(9, 4) ** 873 * 2 / 3
        assert 4 * Fraction(9, 4) ** 873 > Fraction(2) ** 1023
        assert value == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("params", [TreeParams(k, mode) for k in (2, 3, 7)
                                        for mode in RootMode])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3334, 0.5, 0.9, 1.0])
    def test_open_ray_probability_equals_the_full_iteration(self, params, p):
        """Stopped at the first exact repeat of the branch value, every depth is
        the value of all n - 1 steps."""
        values, s = [], 1.0
        for _ in range(3000):
            values.append(1.0 - (1.0 - p * s) ** params.root_degree)
            s = 1.0 - (1.0 - p * s) ** params.k
        assert [open_ray_probability(params, p, n) for n in range(1, 3001)] == values

    def test_open_ray_probability_in_constant_time_past_the_repeat(self):
        # at k = 3, p = 1/2 the 62nd step repeats the branch value
        assert open_ray_probability(TreeParams(3), 0.5, 10**12) == \
            open_ray_probability(TreeParams(3), 0.5, 63)

    def test_open_ray_probability(self):
        assert open_ray_probability(TreeParams(2), 0.5, 1) == 0.75
        assert open_ray_probability(TreeParams(2), 1.0, 7) == 1.0
        assert open_ray_probability(TreeParams(2), 0.0, 1) == 0.0
        # full-cayley root sees one more child
        assert open_ray_probability(
            TreeParams(2, RootMode.FULL_CAYLEY), 0.5, 1
        ) == pytest.approx(1 - 0.5**3, abs=1e-15)
