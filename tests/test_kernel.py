"""The packed-lane kernel against the scalar stream and recursive reference searches."""

import math
import random
from array import array

import pytest

from zebraperc import RootMode, TreeParams, montecarlo
from zebraperc.analytic import zebra_critical_pair
from zebraperc.kernel import (
    COUNT_LANES,
    TRIAL_BATCH,
    Rounds,
    lane_flags,
    lane_keys,
    lane_mask,
    mix_lanes,
    open_threshold,
    ray_hits,
    zebra_counts,
)
from zebraperc.montecarlo import (
    count_zebra_connected,
    estimate_count,
    estimate_probability,
    find_critical_mc,
    open_ray,
    sample_open_ray,
    sample_zebra_ray,
    zebra_count,
    zebra_ray,
)
from zebraperc.params import SolverConfig
from zebraperc.rng import ROOT_KEY, TrialStream, child_key, mix64

MASK = 2**64 - 1


def pack_lanes(words):
    """Word j in bits [128j, 128j+64) of one int, the kernel's lane layout."""
    return sum(w << 128 * j for j, w in enumerate(words))


def unpack_lanes(x, n):
    return array("Q", [x >> 128 * j & MASK for j in range(n)])


def unmix64(z: int) -> int:
    """Inverse of mix64: the word whose mix is z."""

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = unshift(z, 31)
    x = unshift(x * pow(0x94D049BB133111EB, -1, 2**64) & MASK, 27)
    return unshift(x * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK, 30)


# ---------------------------------------------------------------------------
# recursive depth-first searches over the scalar stream: the reference

def ref_open_ray(params, p, n, stream):
    def search(key, arity, remaining):
        for i in range(arity):
            ck = child_key(key, i)
            if stream.is_open(ck, p) and (remaining == 1 or search(ck, params.k, remaining - 1)):
                return True
        return False

    return search(ROOT_KEY, params.root_degree, n)


def ref_zebra_ray(params, p, n, stream):
    def search(key, arity, want_open, remaining):
        for i in range(arity):
            ck = child_key(key, i)
            o = stream.is_open(ck, p)
            if want_open is None or o is want_open:
                if remaining == 1 or search(ck, params.k, not o, remaining - 1):
                    return True
        return False

    return search(ROOT_KEY, params.root_degree, None, n)


def ref_zebra_count(params, p, n, stream):
    def walk(key, arity, want_open, remaining):
        total = 0
        for i in range(arity):
            ck = child_key(key, i)
            o = stream.is_open(ck, p)
            if want_open is None or o is want_open:
                total += 1 if remaining == 1 else walk(ck, params.k, not o, remaining - 1)
        return total

    return walk(ROOT_KEY, params.root_degree, None, n)


def bases_of(seed, trials):
    return array("Q", [TrialStream(seed, t).base for t in range(trials)])


class TestOpenThreshold:
    P_LOW_3 = 0.12732200375003502

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2**-64, 1 / 3, 0.5, P_LOW_3, 1 - 2**-53, 1.0])
    def test_is_open_iff_word_below_threshold(self, p):
        y = open_threshold(p)
        assert 0 <= y < 2**64
        stream = TrialStream(3, 4)
        for word in (y - 1, y):
            if 0 <= word < 2**64:
                key = stream.base ^ unmix64(word)
                assert mix64(stream.base ^ key) == word
                assert stream.is_open(key, p) is (word < y)

    def test_endpoints(self):
        assert open_threshold(0.0) == 0
        assert open_threshold(5e-324) == 1
        # words within 2**10 of 2**64 round to 1.0 and are closed even at p = 1
        assert open_threshold(1.0) == 2**64 - 2**10

    def test_agrees_with_full_bisection(self):
        def full(p):
            lo, hi = 0, MASK
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if mid * 2.0**-64 >= p else (mid + 1, hi)
            return lo

        rng = random.Random(5)
        for _ in range(300):
            p = rng.random() * 2.0 ** -rng.randrange(0, 80)
            assert open_threshold(p) == full(p)


class TestLanes:
    def test_adjacent_lanes_stay_isolated(self):
        rng = random.Random(7)
        words = array("Q", [0, MASK, 0, MASK, MASK, rng.getrandbits(64), 0,
                            rng.getrandbits(64), MASK] + [rng.getrandbits(64) for _ in range(40)])
        n = len(words)
        want = array("Q", [mix64(w) for w in words])
        assert unpack_lanes(mix_lanes(pack_lanes(words), lane_mask(n)), n) == want
        # a mask with more lanes than the operand gives the same words
        assert unpack_lanes(mix_lanes(pack_lanes(words), lane_mask(n + 9)), n) == want

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_expand_matches_the_scalar_stream(self, p):
        params = TreeParams(3)
        streams = [TrialStream(11, t) for t in range(20)]
        keys = array("Q", [ROOT_KEY, MASK, 0] + [random.Random(t).getrandbits(64) for t in range(17)])
        lanes = Rounds(p, 4 * len(keys), (params.k,)).expand(
            keys, array("Q", [s.base for s in streams]), params.k)
        want_keys = [child_key(key, i) for key in keys for i in range(params.k)]
        want_flags = [int(s.is_open(child_key(key, i), p))
                      for key, s in zip(keys, streams) for i in range(params.k)]
        assert list(lane_keys(lanes)) == want_keys
        assert list(lane_flags(lanes)) == want_flags


def _cases():
    for k in (2, 3, 4):
        p_low = zebra_critical_pair(TreeParams(k)).p_low
        for mode in RootMode:
            for p in (0.0, 1.0, 1 / k, math.nextafter(p_low, 1.0)):
                yield TreeParams(k, mode), p


class TestAgainstRecursiveSearch:
    @pytest.mark.parametrize("params,p", list(_cases()))
    def test_per_trial_outcomes(self, params, p):
        trials = 24
        for n in range(1, 9):
            streams = [TrialStream(n, t) for t in range(trials)]
            bases = array("Q", [s.base for s in streams])
            opened = ray_hits(params, p, n, bases, alternate=False)
            zebra = ray_hits(params, p, n, bases, alternate=True)
            counts = zebra_counts(params, p, n, bases)
            for s in streams:
                assert (s.base in opened) == ref_open_ray(params, p, n, s)
                assert (s.base in zebra) == ref_zebra_ray(params, p, n, s)
                assert counts.get(s.base, 0) == ref_zebra_count(params, p, n, s)

    def test_one_trial_samplers(self):
        for params in (TreeParams(3), TreeParams(2, RootMode.FULL_CAYLEY)):
            for t in range(60):
                s = TrialStream(21, t)
                for p in (0.2, 0.5, 0.7):
                    assert sample_open_ray(params, p, 6, s) is ref_open_ray(params, p, 6, s)
                    assert sample_zebra_ray(params, p, 6, s) is ref_zebra_ray(params, p, 6, s)
                    assert count_zebra_connected(params, p, 6, s) == ref_zebra_count(params, p, 6, s)

    def test_count_pool_larger_than_a_round(self):
        params, p, n = TreeParams(3), 0.5, 8
        bases = bases_of(2, 300)
        counts = zebra_counts(params, p, n, bases)
        assert sum(counts.values()) > 4 * COUNT_LANES
        for t in range(300):
            assert counts.get(bases[t], 0) == ref_zebra_count(params, p, n, TrialStream(2, t))


class TestEstimatorBatches:
    TRIALS = TRIAL_BATCH + 3  # neither chunk of two workers is a whole batch either

    def test_existence_is_the_sum_of_per_trial_outcomes(self):
        params, p, n, seed = TreeParams(2), 0.5, 3, 41
        a = estimate_probability(params, p, zebra_ray(n), self.TRIALS, seed, workers=1)
        b = estimate_probability(params, p, zebra_ray(n), self.TRIALS, seed, workers=2)
        assert a == b
        hits = sum(ref_zebra_ray(params, p, n, TrialStream(seed, t)) for t in range(self.TRIALS))
        assert a.mean == hits / self.TRIALS
        c = estimate_probability(params, 0.6, open_ray(n), self.TRIALS, seed, workers=1)
        assert c == estimate_probability(params, 0.6, open_ray(n), self.TRIALS, seed, workers=2)

    def test_count_is_the_sum_of_per_trial_outcomes(self):
        params, p, n, seed = TreeParams(2, RootMode.FULL_CAYLEY), 0.5, 3, 43
        a = estimate_count(params, p, zebra_count(n), self.TRIALS, seed, workers=1)
        b = estimate_count(params, p, zebra_count(n), self.TRIALS, seed, workers=2)
        assert a == b
        total = sum(ref_zebra_count(params, p, n, TrialStream(seed, t)) for t in range(self.TRIALS))
        assert a.mean == total / self.TRIALS


class TestOnePoolPerBisection:
    def test_one_pool_serves_every_probe(self, monkeypatch):
        base = montecarlo._pool_class()
        starts = []

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool, raising=False)
        cfg = SolverConfig(tol=1 / 32, max_iter=100)
        params = TreeParams(3)
        located = find_critical_mc(params, montecarlo.Side.LOWER, 8, 300, 5, cfg, workers=2)
        assert starts == [2]
        assert located == find_critical_mc(params, montecarlo.Side.LOWER, 8, 300, 5, cfg, workers=1)
        assert starts == [2]
