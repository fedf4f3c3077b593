import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zebraperc import RootMode, TreeParams, kernel, montecarlo
from zebraperc.analytic import (
    expected_zebra_count,
    open_ray_probability,
    zebra_critical_pair,
    zebra_dp,
)
from zebraperc.kernel import ray_hits, zebra_counts
from zebraperc.montecarlo import (
    Estimate,
    EventKind,
    EventSpec,
    NoBracketError,
    brute_force_probability,
    chunk_bases,
    estimate_event,
    find_critical_dp,
    find_critical_mc,
    mc_indicator_threshold,
    open_ray,
    sample_sigma,
    sample_tables,
    wilson_interval,
    zebra_count,
    zebra_ray,
)
from zebraperc.rng import TrialStream
from zebraperc.tree import (
    EdgeState,
    TooLargeError,
    edge_count,
    enumerate_configs,
    open_ray_witness,
    transform_check,
    zebra_connected_count,
    zebra_ray_witness,
)

P2 = TreeParams(2)
P3 = TreeParams(3)


def open_hit(params, p, n, stream):
    """The kernel's open-ray outcome for the one trial of `stream`."""
    return bool(ray_hits(params, p, n, [stream.base], alternate=False))


def zebra_hit(params, p, n, stream):
    return bool(ray_hits(params, p, n, [stream.base], alternate=True))


def zebra_number(params, p, n, stream):
    return zebra_counts(params, p, n, [stream.base])[stream.base]


class TestSamplers:
    def test_open_ray_degenerate(self):
        for n in (1, 3, 8):
            assert open_hit(P2, 1.0, n, TrialStream(0, 0)) is True
            assert open_hit(P2, 0.0, n, TrialStream(0, 0)) is False

    def test_zebra_ray_degenerate(self):
        for trial in range(50):
            assert zebra_hit(P3, 0.37, 1, TrialStream(1, trial)) is True
            assert zebra_hit(P3, 1.0, 2, TrialStream(1, trial)) is False
            assert zebra_hit(P3, 0.0, 2, TrialStream(1, trial)) is False

    def test_count_degenerate(self):
        for trial in range(50):
            assert zebra_number(P2, 1.0, 2, TrialStream(2, trial)) == 0
            assert zebra_number(P2, 0.5, 1, TrialStream(2, trial)) == 2

    @given(st.integers(0, 10**5))
    @settings(max_examples=150)
    def test_lazy_agrees_with_materialized_config(self, trial):
        p = 0.35
        for params in (P3, TreeParams(2, RootMode.FULL_CAYLEY)):
            sigma = sample_sigma(params, 4, p, TrialStream(5, trial))
            assert zebra_hit(params, p, 4, TrialStream(5, trial)) == (
                zebra_ray_witness(params, sigma, 4) is not None
            )
            assert open_hit(params, p, 4, TrialStream(5, trial)) == (
                open_ray_witness(params, sigma, 4) is not None
            )
            assert zebra_number(params, p, 4, TrialStream(5, trial)) == (
                zebra_connected_count(params, sigma, 4)
            )


class TestWilson:
    def test_degenerate_single_trial(self):
        low, high = wilson_interval(0, 1)
        assert low == 0.0 and 0.0 < high < 1.0
        low, high = wilson_interval(1, 1)
        assert 0.0 < low < 1.0 and high == 1.0

    @given(st.integers(1, 10**6), st.data())
    def test_contains_the_point_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


class TestEstimators:
    def test_single_trial(self):
        est = estimate_event(P2, 0.5, zebra_ray(2), 1, 0)
        assert est.mean in (0.0, 1.0)
        assert 0.0 <= est.ci95_low <= est.mean <= est.ci95_high <= 1.0

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(params=P3, p=0.4, event=zebra_ray(6), trials=2000, seed=31)
        a = estimate_event(**kwargs, workers=1)
        b = estimate_event(**kwargs, workers=1)
        c = estimate_event(**kwargs, workers=2)
        assert a == b == c

    def test_open_ray_level_one(self):
        est = estimate_event(P2, 0.5, open_ray(1), 20000, 17)
        assert abs(est.mean - 0.75) <= 3 * est.stderr

    def test_zebra_ray_matches_recursion(self):
        exact = zebra_dp(P3, 0.5, 6)[6].z
        est = estimate_event(P3, 0.5, zebra_ray(6), 20000, 23)
        assert abs(est.mean - exact) <= 3 * max(est.stderr, 1e-9)

    def test_open_ray_matches_recursion(self):
        exact = open_ray_probability(P3, 0.6, 6)
        est = estimate_event(P3, 0.6, open_ray(6), 20000, 29)
        assert abs(est.mean - exact) <= 3 * est.stderr

    def test_count_mean_matches_first_moment(self):
        expected = expected_zebra_count(P2, 0.3, 3)
        est = estimate_event(P2, 0.3, zebra_count(3), 10000, 37, workers=2)
        assert abs(est.mean - expected) <= 3 * est.stderr
        assert est == estimate_event(P2, 0.3, zebra_count(3), 10000, 37)

    def test_kind_routing(self):
        # X_1 is the root degree in every trial: a normal interval of width 0,
        # where a Wilson interval would be clipped to [0, 1]
        assert estimate_event(P2, 0.5, zebra_count(1), 10, 0) == Estimate(2.0, 0.0, 2.0, 2.0, 10, 0)
        est = estimate_event(P2, 0.5, zebra_ray(3), 10, 0)
        assert (est.ci95_low, est.ci95_high) == wilson_interval(round(est.mean * 10), 10)

    def test_three_sigma_coverage_over_seeds(self):
        # statistical, not absolute: ~99.7% of seeds should cover the exact value
        exact = 15 / 16
        covered = 0
        for seed in range(30):
            est = estimate_event(P2, 0.5, zebra_ray(2), 1000, seed)
            if abs(est.mean - exact) <= 3 * max(est.stderr, 1e-9):
                covered += 1
        assert covered >= 28


def witness_sum(params, p, event):
    """The oracle's exact sum the long way: explicit configurations, each path judged in the test.

    Each last-level address's root path is read from sigma.states. The
    oracle's float result must equal float() of this Fraction, its correct
    rounding.
    """
    pf = Fraction(p)
    n_edges = edge_count(params, event.depth)
    weights = [pf**h * (1 - pf) ** (n_edges - h) for h in range(n_edges + 1)]

    def follows(states):
        if event.kind is EventKind.OPEN_RAY:
            return all(s is EdgeState.OPEN for s in states)
        return all(a is not b for a, b in zip(states, states[1:]))

    total = Fraction(0)
    for sigma in enumerate_configs(params, event.depth):
        ends = [v for v in sigma.states if len(v) == event.depth]
        hits = sum(follows([sigma.states[v[:i]] for i in range(1, event.depth + 1)]) for v in ends)
        mult = hits if event.kind is EventKind.ZEBRA_COUNT else int(hits > 0)
        if mult:
            opens = sum(sigma.states.values())
            total += mult * weights[opens]
    return total


class TestBruteForce:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("params,depth", [
        (P2, 1), (P2, 2), (P3, 1), (TreeParams(2, RootMode.FULL_CAYLEY), 1),
    ])
    def test_equals_witness_sum(self, params, depth, kind, exact):
        event = EventSpec(kind, depth)
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            value = brute_force_probability(params, p, event, exact=exact)
            assert type(value) is (Fraction if exact else float)
            want = witness_sum(params, p, event)
            assert value == (want if exact else float(want))

    @pytest.mark.parametrize("kind,p,exact", [
        (EventKind.ZEBRA_COUNT, 0.8, False), (EventKind.ZEBRA_RAY, 0.5, True),
    ])
    def test_equals_witness_sum_on_2_pow_14_configs(self, kind, p, exact):
        event = EventSpec(kind, 3)
        value = brute_force_probability(P2, p, event, exact=exact)
        assert type(value) is (Fraction if exact else float)
        want = witness_sum(P2, p, event)
        assert value == (want if exact else float(want))

    def test_cap_is_checked_before_any_edge_is_listed(self, monkeypatch):
        from zebraperc import tree

        def refuse(*args):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(tree, "edges", refuse)
        with pytest.raises(TooLargeError):
            brute_force_probability(P3, 0.5, zebra_ray(3))  # 39 edges

    def test_exact_reference_value(self):
        assert brute_force_probability(P2, 0.5, zebra_ray(2), exact=True) == Fraction(15, 16)

    def test_open_ray_level_one(self):
        assert brute_force_probability(P2, 0.5, open_ray(1)) == pytest.approx(0.75, abs=1e-15)

    def test_zero_probability_cases(self):
        assert brute_force_probability(P2, 0.0, zebra_ray(2)) == 0.0
        assert brute_force_probability(P2, 1.0, zebra_ray(2)) == 0.0

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_recursions(self, depth, p):
        zebra_exact = brute_force_probability(P2, p, zebra_ray(depth))
        assert zebra_exact == pytest.approx(zebra_dp(P2, p, depth)[depth].z, abs=1e-12)
        open_exact = brute_force_probability(P2, p, open_ray(depth))
        assert open_exact == pytest.approx(open_ray_probability(P2, p, depth), abs=1e-12)

    def test_count_expectation(self):
        value = brute_force_probability(P2, 0.3, zebra_count(2))
        assert value == pytest.approx(expected_zebra_count(P2, 0.3, 2), abs=1e-12)

    def test_full_cayley_mode(self):
        params = TreeParams(2, RootMode.FULL_CAYLEY)
        value = brute_force_probability(params, 0.5, zebra_ray(2))
        assert value == pytest.approx(zebra_dp(params, 0.5, 2)[2].z, abs=1e-12)

    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("params,depth", [
        (TreeParams(4), 2), (TreeParams(2, RootMode.FULL_CAYLEY), 3),  # 20 and 21 edges
    ])
    def test_several_blocks_match_the_recursions(self, params, depth, kind):
        n_edges = edge_count(params, depth)
        assert n_edges > montecarlo.ORACLE_BLOCK_BITS
        p = 0.3
        want = {
            EventKind.OPEN_RAY: lambda: open_ray_probability(params, p, depth),
            EventKind.ZEBRA_RAY: lambda: zebra_dp(params, p, depth)[depth].z,
            EventKind.ZEBRA_COUNT: lambda: expected_zebra_count(params, p, depth),
        }[kind]()
        event = EventSpec(kind, depth)
        exact = brute_force_probability(params, p, event, exact=True)
        assert float(exact) == pytest.approx(want, abs=1e-12)
        # the float result is the exact sum, rounded once
        assert brute_force_probability(params, p, event) == float(exact)

    @pytest.mark.parametrize("bits", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("kind", list(EventKind))
    @pytest.mark.parametrize("params,depth", [
        (P2, 2), (P3, 1), (TreeParams(2, RootMode.FULL_CAYLEY), 2),
    ])
    def test_small_blocks_equal_witness_sum(self, monkeypatch, params, depth, kind, bits):
        monkeypatch.setattr(montecarlo, "ORACLE_BLOCK_BITS", bits)
        event = EventSpec(kind, depth)
        for p in (0.2, 1 / 3, 0.8):
            want = witness_sum(params, p, event)
            assert brute_force_probability(params, p, event, exact=True) == want
            assert brute_force_probability(params, p, event) == float(want)

    @pytest.mark.parametrize("bits", range(11))
    def test_block_tables(self, bits):
        tables = montecarlo._block_tables(bits)
        codes = range(1 << bits)
        assert [[t >> c & 1 for c in codes] for t in tables] == [
            [c >> j & 1 for c in codes] for j in range(bits)]
        classes = montecarlo._popcount_classes(bits)
        assert [[m >> c & 1 for c in codes] for m in classes] == [
            [c.bit_count() == h for c in codes] for h in range(bits + 1)]


class TestChunkBases:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("start,stop", [
        (0, 1024), (1000, 1003), (5, 6),
        (1000, 1000 + kernel.TRIAL_BATCH + 3),  # across a batch boundary
    ])
    def test_words_are_the_trial_stream_bases(self, seed, start, stop):
        batches = list(chunk_bases(seed, start, stop))
        assert all(len(bases) == kernel.TRIAL_BATCH for bases in batches[:-1])
        assert [w for bases in batches for w in bases] == [
            TrialStream(seed, t).base for t in range(start, stop)]


def transform_failures(params, p, m, batches):
    """Per batch of trial base words, the sampled trials where the pair-transform
    correspondence fails; the check is built once for all the batches."""
    failures = transform_check(params, m)
    return [failures(sample_tables(params, 2 * m, p, bases), (1 << len(bases)) - 1)
            for bases in batches]


class TestTransformEquivalence:
    @pytest.mark.parametrize("params,m", [(P2, 2), (P2, 3), (P3, 2)])
    def test_sampled_trials_hold(self, params, m):
        batches = ([TrialStream(0, t).base] for t in range(300))
        assert not any(transform_failures(params, 0.5, m, batches))

    @pytest.mark.parametrize("params,m", [(P2, 2), (P3, 2), (TreeParams(2, RootMode.FULL_CAYLEY), 2)])
    def test_batched_check_holds(self, params, m):
        assert not any(transform_failures(params, 0.5, m, chunk_bases(2, 0, 3000)))

    def test_biased_probabilities_hold(self):
        for p in (0.1, 0.9):
            batches = ([TrialStream(1, t).base] for t in range(200))
            assert not any(transform_failures(P2, p, 2, batches))


class TestCriticalFinders:
    def test_dp_matches_formula(self):
        for k in (3, 4):
            params = TreeParams(k)
            pair = zebra_critical_pair(params)
            located = find_critical_dp(params, 1e-3)
            assert located.p_low == pytest.approx(pair.p_low, abs=0.01)
            assert located.p_high == pytest.approx(pair.p_high, abs=0.01)

    def test_dp_stops_at_float_resolution(self):
        # a tolerance below the spacing of floats near the thresholds ends the search
        pair = zebra_critical_pair(P3)
        located = find_critical_dp(P3, 1e-300)
        assert located.p_low == pytest.approx(pair.p_low, abs=1e-6)
        assert located.p_high == pytest.approx(pair.p_high, abs=1e-6)

    def test_dp_no_bracket_for_k2(self):
        with pytest.raises(NoBracketError, match=r"inside \(0.0, 0.5\) for k=2"):
            find_critical_dp(P2)

    def test_probes_count_from_zero_on_each_side(self):
        calls = []

        def positive(p, probe):
            calls.append((p, probe))
            return 0.25 <= p <= 0.75

        located = [montecarlo._bisect_indicator(P3, positive, lo, hi, 1 / 8)
                   for lo, hi in montecarlo.SIDES]
        assert located == [0.1875, 0.8125]
        assert calls == [(0.0, 0), (0.5, 1), (0.25, 2), (0.125, 3),
                         (0.5, 0), (1.0, 1), (0.75, 2), (0.875, 3)]

    def test_upper_side_without_a_bracket(self):
        with pytest.raises(NoBracketError, match=r"inside \(0.5, 1.0\) for k=3"):
            montecarlo._bisect_indicator(P3, lambda p, _: p >= 0.25, 0.5, 1.0, 1 / 8)

    def test_mc_threshold_rule(self):
        assert mc_indicator_threshold(P2, 16) == pytest.approx(0.5, abs=1e-12)
        assert mc_indicator_threshold(P3, 16) == pytest.approx(6 / (16 * 8 / 9), abs=1e-12)

    def test_mc_smoke(self):
        pair = zebra_critical_pair(P3)
        located = find_critical_mc(P3, 12, 2000, 77)
        assert located.p_low == pytest.approx(pair.p_low, abs=0.08)
        assert located.p_high == pytest.approx(pair.p_high, abs=0.08)

    def test_mc_no_bracket_for_k2(self):
        with pytest.raises(NoBracketError, match=r"inside \(0.0, 0.5\) for k=2"):
            find_critical_mc(P2, 12, 2000, 77)

    @pytest.mark.parametrize("depth,trials", [(0, 2000), (-1, 2000), (12, 0), (12, -5)])
    def test_mc_inputs_refused_before_any_bond(self, monkeypatch, depth, trials):
        refuse_bonds(monkeypatch)
        with pytest.raises(ValueError, match="must be >= 1"):
            find_critical_mc(P3, depth, trials, 77)

    @pytest.mark.parametrize("params,depth,level", [(P3, 6, "1.125"), (P2, 8, "1")])
    def test_mc_level_of_one_refused_before_any_bond(self, monkeypatch, params, depth, level):
        # no estimate exceeds a detection level of 1, so no probe could be positive
        def refuse(*args, **kwargs):
            raise AssertionError("ray_hits called")

        monkeypatch.setattr(kernel, "ray_hits", refuse)
        assert mc_indicator_threshold(params, depth) >= 1.0
        with pytest.raises(NoBracketError, match=rf"at depth {depth} for k={params.k}: "
                                                 rf"the detection level {level} is not below 1"):
            find_critical_mc(params, depth, 2000, 77, workers=2)


def _estimate_means(params, p, depth, seed, counts):
    """estimate_event(params, p, zebra_ray(depth), trials, seed).mean for each trials in counts.

    The estimate is the hit count of trials 0 .. trials-1 over trials (see
    test_kernel's TestEstimatorBatches), so one search over the longest
    prefix gives every mean.
    """
    outcomes = []
    for bases in chunk_bases(seed, 0, max(counts)):
        hits = ray_hits(params, p, depth, bases, alternate=True)
        outcomes += [base in hits for base in bases]
    return {trials: sum(outcomes[:trials]) / trials for trials in counts}


class TestExactDecision:
    """A bisection probe stops once its count settles, with the full estimate's answer."""

    def test_hits_needed_equals_a_scan(self):
        levels = {mc_indicator_threshold(TreeParams(k), depth)
                  for k in range(2, 9) for depth in range(1, 41)}
        for trials in range(1, 3001):
            rates = [h / trials for h in range(trials + 1)]
            # each level and the rate h / trials at or just below it, exactly
            taus = levels | {rates[min(math.floor(tau * trials), trials)] for tau in levels}
            h = 0  # one upward scan: the least h with h / trials > tau, levels in order
            for tau in sorted(taus):
                while h <= trials and rates[h] <= tau:
                    h += 1
                assert montecarlo._hits_needed(trials, tau) == h, (trials, tau)

    @pytest.mark.parametrize("depth", [7, 12])
    @pytest.mark.parametrize("mode", list(RootMode))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_decision_equals_the_estimate(self, k, mode, depth):
        params = TreeParams(k, mode)
        tau = mc_indicator_threshold(params, depth)
        pair = zebra_critical_pair(params)
        counts = (1, 2, 999, 1025, 2049)  # around and across batches of kernel.TRIAL_BATCH
        ps = (0.0, 0.05, pair.p_low - 0.01, pair.p_low + 0.01,
              0.5, pair.p_high - 0.01, pair.p_high + 0.01, 1.0)
        for i, p in enumerate(ps):
            seed = (5, 41, 77)[i % 3]  # three seeds over the points of each tree
            for trials, mean in _estimate_means(params, p, depth, seed, counts).items():
                assert montecarlo._rate_above(params, p, depth, trials, seed,
                                              tau) is (mean > tau), (p, trials)


class TestEventSpec:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            EventSpec(EventKind.ZEBRA_RAY, 0)


class TestCountBudget:
    @pytest.mark.parametrize("params", [P2, P3, TreeParams(3, RootMode.FULL_CAYLEY)])
    @pytest.mark.parametrize("p", [0.0, 0.1, 1 / 3, 0.5, 0.8, 1.0])
    def test_expected_lanes_sum_the_first_moments(self, params, p):
        # P2 at p = 1/2 has k^2 p (1-p) = 1 exactly, the series' special case
        for n in range(1, 16):
            lanes = params.root_degree + params.k * sum(
                expected_zebra_count(params, p, m) for m in range(1, n))
            assert montecarlo._expected_lanes(params, p, n) == pytest.approx(lanes, rel=1e-12)

    def test_runaway_cone_is_infinite(self):
        assert montecarlo._expected_lanes(P3, 0.5, 2000) == float("inf")

    @pytest.mark.parametrize("depth,trials", [(40, 100000), (40, 10), (2000, 1)])
    def test_refused_before_any_bond(self, monkeypatch, depth, trials):
        def refuse(*args):
            raise AssertionError("a bond was drawn")

        monkeypatch.setattr(kernel, "zebra_counts", refuse)
        with pytest.raises(TooLargeError, match=f"depth {depth}"):
            estimate_event(P3, 0.5, zebra_count(depth), trials, 0)

    def test_estimates_within_the_budget_run(self, monkeypatch):
        lanes = 1000 * montecarlo._expected_lanes(P3, 0.5, 8)
        monkeypatch.setattr(montecarlo, "MAX_COUNT_LANES", lanes)
        assert estimate_event(P3, 0.5, zebra_count(8), 1000, 0).trials == 1000
        with pytest.raises(TooLargeError):
            estimate_event(P3, 0.5, zebra_count(8), 1001, 0)

    def test_existence_events_have_no_budget(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_COUNT_LANES", 0)
        assert estimate_event(P2, 1.0, open_ray(2000), 1, 0).mean == 1.0
        assert estimate_event(P3, 0.5, zebra_ray(40), 10, 0).trials == 10


def refuse_bonds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bond was drawn")

    monkeypatch.setattr(kernel, "ray_hits", refuse)
    monkeypatch.setattr(kernel, "zebra_counts", refuse)


class TestRoundWidth:
    """A kernel round wider than MAX_ROUND_LANES is refused before any bond is drawn."""

    CASES = [
        (P3, zebra_ray(4), 10, 30),
        (P3, open_ray(4), 5000, 3 * kernel.TRIAL_BATCH),
        (TreeParams(3, RootMode.FULL_CAYLEY), zebra_ray(4), 10, 40),
        (P3, zebra_count(4), 1, 3 * kernel.COUNT_LANES),
    ]

    @pytest.mark.parametrize("params,event,trials,lanes", CASES)
    def test_refused_past_the_bound(self, monkeypatch, params, event, trials, lanes):
        refuse_bonds(monkeypatch)
        monkeypatch.setattr(montecarlo, "MAX_ROUND_LANES", lanes - 1)
        with pytest.raises(TooLargeError, match=f"spans {lanes} lanes"):
            estimate_event(params, 0.5, event, trials, 0)

    @pytest.mark.parametrize("params,event,trials,lanes", CASES)
    def test_runs_at_the_bound(self, monkeypatch, params, event, trials, lanes):
        monkeypatch.setattr(montecarlo, "MAX_ROUND_LANES", lanes)
        assert estimate_event(params, 0.5, event, trials, 0).trials == trials

    def test_critical_refused(self, monkeypatch):
        refuse_bonds(monkeypatch)
        monkeypatch.setattr(montecarlo, "MAX_ROUND_LANES", 3 * 1000 - 1)
        with pytest.raises(TooLargeError, match="spans 3000 lanes"):
            find_critical_mc(P3, 12, 1000, 77, workers=2)

    def test_cli_exits_4(self, monkeypatch, capsys):
        from zebraperc import cli

        refuse_bonds(monkeypatch)
        monkeypatch.setattr(montecarlo, "MAX_ROUND_LANES", 29)
        assert cli.main(["eval", "--k", "3", "--p", "0.5", "--method", "mc", "--depth", "4",
                         "--trials", "10"]) == 4
        assert cli.main(["critical", "--mode", "zebra-mc", "--k", "3", "--depth", "12",
                         "--trials", "10"]) == 4
        assert capsys.readouterr().out == ""


class TestWorkerCap:
    """However many workers are asked for, no more pool processes start than the
    CPUs this process may run on; 0 asks for all of them."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records its size and maps in this process, so no process starts."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            map = staticmethod(map)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return sizes

    @pytest.mark.parametrize("event", [zebra_ray(6), zebra_count(4)])
    @pytest.mark.parametrize("workers", [0, 2, 3, 5000])
    def test_estimates_capped(self, sizes, event, workers):
        one = estimate_event(P3, 0.5, event, 300, 5)
        assert estimate_event(P3, 0.5, event, 300, 5, workers=workers) == one
        assert sizes == [2]

    def test_sweep_capped(self, sizes, monkeypatch, capsys):
        from zebraperc import cli

        argv = ["sweep", "--k", "3", "--methods", "mc", "--event", "zebra-count", "--depth", "6",
                "--trials", "300", "--steps", "3", "--seed", "5"]
        outputs = []
        for threads in ("1", "5000"):
            monkeypatch.setenv("ZEBRA_PERC_THREADS", threads)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert sizes == [2] and outputs[0] == outputs[1]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [montecarlo._resolve_workers(w) for w in (0, 1, 3, 4, 5000)] == [3, 1, 3, 3, 3]
