import math
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from zebraperc import RootMode, TreeParams, cli, kernel, montecarlo
from zebraperc.analytic import (
    expected_zebra_count,
    open_ray_probability,
    zebra_critical_pair,
    zebra_dp,
)
from zebraperc.kernel import ray_hits, zebra_counts
from zebraperc.montecarlo import (
    Estimate,
    NoBracketError,
    chunk_bases,
    estimate_event,
    estimate_grid,
    find_critical_dp,
    find_critical_mc,
    mc_indicator_threshold,
    sample_tables,
    wilson_interval,
)
from zebraperc.params import EventKind, EventSpec, open_ray, zebra_count, zebra_ray
from zebraperc.rng import TrialStream
from zebraperc.tree import TooLargeError, edges, transform_check

P2 = TreeParams(2)
P3 = TreeParams(3)


def open_hit(params, p, n, stream):
    """The kernel's open-ray outcome for the one trial of `stream`."""
    return bool(ray_hits(params, p, n, [stream.base], alternate=False))


def zebra_hit(params, p, n, stream):
    return bool(ray_hits(params, p, n, [stream.base], alternate=True))


def zebra_number(params, p, n, stream):
    return zebra_counts(params, [p], n, [stream.base])[0][stream.base]


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
            edge_list = edges(params, 4)
            states = dict(zip(edge_list, sample_tables(params, 4, p, [TrialStream(5, trial).base])))
            paths = [[states[v[:i]] for i in range(1, 5)] for v in edge_list if len(v) == 4]
            zebra = sum(all(a != b for a, b in zip(s, s[1:])) for s in paths)
            assert zebra_hit(params, p, 4, TrialStream(5, trial)) == (zebra > 0)
            assert open_hit(params, p, 4, TrialStream(5, trial)) == any(all(s) for s in paths)
            assert zebra_number(params, p, 4, TrialStream(5, trial)) == zebra


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


class TestChunkBases:
    @pytest.mark.parametrize("lanes,batch", [
        (kernel.MAX_ROUND_LANES, kernel.TRIAL_BATCH),
        (3 * 100 + 2, 100),  # a bound that narrows the batches at k = 3
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("start,stop", [
        (0, 1024), (1000, 1003), (5, 6),
        (1000, 1000 + kernel.TRIAL_BATCH + 3),  # across a batch boundary
    ])
    def test_words_are_the_trial_stream_bases(self, monkeypatch, seed, start, stop, lanes, batch):
        monkeypatch.setattr(kernel, "MAX_ROUND_LANES", lanes)
        batches = list(chunk_bases(P3, seed, start, stop))
        assert all(len(bases) == batch for bases in batches[:-1])
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
        assert not any(transform_failures(params, 0.5, m, chunk_bases(params, 2, 0, 3000)))

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
    for bases in chunk_bases(params, seed, 0, max(counts)):
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

    @pytest.mark.parametrize("mode", list(RootMode))
    def test_zero_p_draws_no_bond(self, monkeypatch, mode):
        # every bond is closed at p = 0, so no zebra path of two or more edges exists
        def no_draw(*args, **kwargs):
            raise AssertionError("bonds drawn at p = 0")

        monkeypatch.setattr(kernel, "ray_hits", no_draw)
        for k in (2, 3, 4):
            params = TreeParams(k, mode)
            for depth, tau in ((2, 0.001), (7, None), (12, None), (16, None)):
                tau = tau or mc_indicator_threshold(params, depth)
                for seed in (0, 5, 41):
                    assert montecarlo._rate_above(params, 0.0, depth, 500, seed, tau) is False


class TestGridStream:
    """estimate_grid streams a grid's estimates in groups of kernel.GROUP points."""

    #: The 18 points of sweep --pmin 0.2 --pmax 0.6, in groups of 8, 8 and 2.
    GRID = cli._grid(0.2, 0.6, 18)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_stream_equals_the_points(self, kind, workers):
        params, event = TreeParams(3, RootMode.FULL_CAYLEY), EventSpec(kind, 6)
        assert list(estimate_grid(params, self.GRID, event, 400, 7, workers)) == [
            estimate_event(params, p, event, 400, 7) for p in self.GRID]

    def test_refusal_after_the_estimates_before_it(self, monkeypatch):
        """ps[10], 3rd of the second group, is past the count budget: the ten
        estimates before it come from walks that never see it, then it raises."""
        refused = 10
        monkeypatch.setattr(montecarlo, "MAX_COUNT_LANES",
                            300 * montecarlo._expected_lanes(P3, self.GRID[refused - 1], 6))
        before = [estimate_event(P3, p, zebra_count(6), 300, 5) for p in self.GRID[:refused]]
        groups = []

        def recording(params, group, n, bases):
            groups.append(list(group))
            return walk(params, group, n, bases)

        walk = kernel.zebra_counts
        monkeypatch.setattr(kernel, "zebra_counts", recording)
        stream = estimate_grid(P3, self.GRID, zebra_count(6), 300, 5)
        assert [next(stream) for _ in range(refused)] == before
        with pytest.raises(TooLargeError, match=f"at p={self.GRID[refused]} "):
            next(stream)
        assert {tuple(group) for group in groups} == {tuple(self.GRID[:8]),
                                                      tuple(self.GRID[8:refused])}


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
    """The kernel narrows each round to MAX_ROUND_LANES lanes, and refuses, before
    any bond is drawn, only a tree whose vertices' children alone pass it."""

    CASES = [
        (P3, zebra_ray(4), 10),
        (P3, open_ray(4), 300),
        (TreeParams(3, RootMode.FULL_CAYLEY), zebra_ray(4), 10),
        (P3, zebra_count(4), 1),
    ]

    @pytest.mark.parametrize("params,event,trials", CASES)
    def test_refused_past_the_bound(self, monkeypatch, params, event, trials):
        refuse_bonds(monkeypatch)
        arity = max(params.k, params.root_degree)
        monkeypatch.setattr(kernel, "MAX_ROUND_LANES", arity - 1)
        with pytest.raises(TooLargeError, match=f"has {arity} children"):
            estimate_event(params, 0.5, event, trials, 0)

    @pytest.mark.parametrize("params,event,trials", CASES)
    def test_runs_at_the_bound(self, monkeypatch, params, event, trials):
        want = estimate_event(params, 0.5, event, trials, 0)
        monkeypatch.setattr(kernel, "MAX_ROUND_LANES", max(params.k, params.root_degree))
        assert estimate_event(params, 0.5, event, trials, 0) == want

    @pytest.mark.parametrize("params", [TreeParams(2**19 + 1),
                                        TreeParams(2**19, RootMode.FULL_CAYLEY)])
    @pytest.mark.parametrize("event", [zebra_ray(1), open_ray(1), zebra_count(1)])
    def test_refused_past_the_kernel_bound(self, monkeypatch, params, event):
        refuse_bonds(monkeypatch)
        with pytest.raises(TooLargeError, match=f"has {2**19 + 1} children"):
            estimate_event(params, 0.5, event, 1, 0)

    def test_critical_refused(self, monkeypatch):
        refuse_bonds(monkeypatch)
        monkeypatch.setattr(kernel, "MAX_ROUND_LANES", 2)
        with pytest.raises(TooLargeError, match="has 3 children"):
            find_critical_mc(P3, 12, 1000, 77, workers=2)

    def test_cli_exits_4(self, monkeypatch, capsys):
        from zebraperc import cli

        refuse_bonds(monkeypatch)
        assert cli.main(["eval", "--k", str(2**19 + 1), "--p", "0.5", "--method", "mc",
                         "--depth", "1", "--trials", "1"]) == 4
        monkeypatch.setattr(kernel, "MAX_ROUND_LANES", 2)
        assert cli.main(["eval", "--k", "3", "--p", "0.5", "--method", "mc", "--depth", "4",
                         "--trials", "10"]) == 4
        assert cli.main(["critical", "--mode", "zebra-mc", "--k", "3", "--depth", "12",
                         "--trials", "10"]) == 4
        assert capsys.readouterr().out == ""


class TestNarrowRounds:
    """Rounds narrowed by a low MAX_ROUND_LANES or a small TRIAL_BATCH give the
    full-width results: the estimates of all three events, a probe's decision
    and both thresholds."""

    @staticmethod
    def results(params):
        return (
            [estimate_event(params, 0.5, event, 150, 7) for event in (
                zebra_ray(6), open_ray(6), zebra_count(5))],
            [montecarlo._rate_above(params, p, 8, 150, 9, tau)
             for p in (0.2, 0.5) for tau in (0.1, 0.5, 0.9)],
            [find_critical_mc(params, 8, 100, 5, 1 / 16, workers) for workers in (1, 2)],
        )

    @pytest.mark.parametrize("bound,value", [
        *(pytest.param("MAX_ROUND_LANES", lanes, id=str(lanes)) for lanes in (4, 29, 100)),
        *(pytest.param("TRIAL_BATCH", batch, id=f"batch-{batch}") for batch in (1, 7, 100)),
    ])
    @pytest.mark.parametrize("mode", list(RootMode))
    def test_narrow_rounds_equal_full_rounds(self, monkeypatch, mode, bound, value):
        params = TreeParams(3, mode)
        full = self.results(params)
        monkeypatch.setattr(kernel, bound, value)
        assert self.results(params) == full


class TestWorkerCap:
    """However many workers are asked for, no more processes run than the CPUs
    this process may run on; 0 asks for all of them."""

    @pytest.fixture
    def sets(self, monkeypatch, fork_sets):
        """The children of each fork map, on a machine of two CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return fork_sets

    @pytest.mark.parametrize("event", [zebra_ray(6), zebra_count(4)])
    @pytest.mark.parametrize("workers", [0, 2, 3, 5000])
    def test_estimates_capped(self, sets, event, workers):
        one = estimate_event(P3, 0.5, event, 300, 5)
        assert estimate_event(P3, 0.5, event, 300, 5, workers=workers) == one
        assert [len(pids) for pids in sets] == [0, 1]  # none at one worker, then one child

    def test_sweep_capped(self, sets, monkeypatch, capsys):
        argv = ["sweep", "--k", "3", "--methods", "mc", "--event", "zebra-count", "--depth", "6",
                "--trials", "300", "--steps", "3", "--seed", "5"]
        outputs = []
        for threads in ("1", "5000"):
            monkeypatch.setenv("ZEBRA_PERC_THREADS", threads)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert [len(pids) for pids in sets] == [0, 1] and outputs[0] == outputs[1]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [montecarlo._resolve_workers(w) for w in (0, 1, 3, 4, 5000)] == [3, 1, 3, 3, 3]


class TestForkMap:
    """Jobs in forked children: their results and failures reach the parent in job
    order, and no child outlives a call (fork_sets checks that none is left)."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch, fork_sets):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        self.sets = fork_sets

    @staticmethod
    def job(n):
        if n < 0:
            raise ValueError(f"job {n} failed")
        if n == 99:
            os._exit(3)  # a child that dies without sending anything
        if n == 1000:
            time.sleep(60)  # a child that would outlive a failed parent
        return n * n

    def test_results_in_job_order(self):
        assert montecarlo._fork_map(self.job, [3, 1, 2, 7], 4) == [9, 1, 4, 49]
        assert [len(pids) for pids in self.sets] == [3]

    def test_without_fork_the_jobs_run_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")  # as on Windows
        assert montecarlo._fork_map(self.job, [3, 1, 2, 7], 4) == [9, 1, 4, 49]
        with pytest.raises(ValueError, match="job -1 failed"):
            montecarlo._fork_map(self.job, [3, -1, -2], 3)
        assert self.sets == [[], []]

    def test_a_child_exception_reaches_the_parent(self):
        with pytest.raises(ValueError, match="job -1 failed"):
            montecarlo._fork_map(self.job, [3, -1, -2], 3)  # the first failure in job order

    def test_a_child_that_sends_nothing_is_named(self):
        with pytest.raises(ChildProcessError, match="wait status 768"):
            montecarlo._fork_map(self.job, [3, 99], 2)

    def test_a_parent_failure_kills_its_children(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="job -3 failed"):
            montecarlo._fork_map(self.job, [-3, 1000, 1000], 3)
        assert time.monotonic() - start < 30
        assert [len(pids) for pids in self.sets] == [2]
