"""The packed-lane kernel against the scalar stream and recursive reference searches."""

import math
import random
from array import array

import pytest

from zebraperc import RootMode, TreeParams, montecarlo
from zebraperc.analytic import zebra_critical_pair
from zebraperc.kernel import (
    GROUP,
    TRIAL_BATCH,
    OpenTable,
    Rounds,
    lane_keys,
    lane_mask,
    mix_lanes,
    open_threshold,
    ray_hits,
    zebra_counts,
)
from zebraperc.montecarlo import Z95, Estimate, estimate_event, find_critical_mc, wilson_interval
from zebraperc.params import open_ray, zebra_count, zebra_ray
from zebraperc.rng import ROOT_KEY, TrialStream, child_key, mix64, vertex_key
from zebraperc.tree import edges

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


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

    @pytest.mark.parametrize("p", [0.0, 0.3, TestOpenThreshold.P_LOW_3, 0.5, 1.0])
    def test_expand_matches_the_scalar_stream(self, p):
        params = TreeParams(3)
        streams = [TrialStream(11, t) for t in range(20)]
        keys = array("Q", [ROOT_KEY, MASK, 0] + [random.Random(t).getrandbits(64) for t in range(17)])
        # vertices whose first child's word is y - 1 or y, for y = open_threshold(p): for
        # every p here but 0 both lie in y's undecided top byte, so they are tested whole
        y = open_threshold(p)
        for word in (y - 1, y):
            if word >= 0:
                child = streams[0].base ^ unmix64(word)
                keys.append(unmix64(child) ^ GOLDEN)
                assert mix64(streams[0].base ^ child_key(keys[-1], 0)) == word
                streams.append(streams[0])
        lanes, flags = Rounds([p]).expand(
            keys, array("Q", [s.base for s in streams]), params.k)
        want_keys = [child_key(key, i) for key in keys for i in range(params.k)]
        want_flags = [int(s.is_open(child_key(key, i), p))
                      for key, s in zip(keys, streams) for i in range(params.k)]
        assert list(lane_keys(lanes)) == want_keys
        assert list(flags) == want_flags

    @pytest.mark.parametrize("params,depth", [
        (TreeParams(2), 4), (TreeParams(3), 3), (TreeParams(2, RootMode.FULL_CAYLEY), 5),
    ])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_sampled_tables_match_the_scalar_stream(self, params, depth, p):
        """Bit t of table j is edge j of tree.edges in trial t, drawn by TrialStream.is_open."""
        streams = [TrialStream(4, t) for t in range(40)]
        tables = montecarlo.sample_tables(params, depth, p, [s.base for s in streams])
        edge_keys = [vertex_key(e) for e in edges(params, depth)]
        assert tables == [sum(s.is_open(key, p) << t for t, s in enumerate(streams))
                          for key in edge_keys]

    def test_batches_of_equal_size_at_another_p(self):
        """The lanes kept from one batch serve the next at another p as well, and a
        batch of other edges in as many lanes builds its own: 14 edges x 8 trials,
        then 16 x 7."""
        k2, full3 = (TreeParams(2), 3, 8), (TreeParams(3, RootMode.FULL_CAYLEY), 2, 7)
        for (params, depth, trials), p in ((k2, 0.2), (k2, 0.2), (k2, 0.8), (full3, 0.8), (k2, 0.2)):
            edge_keys = [vertex_key(e) for e in edges(params, depth)]
            streams = [TrialStream(5, t) for t in range(trials)]
            tables = montecarlo.sample_tables(params, depth, p, [s.base for s in streams])
            assert tables == [sum(s.is_open(key, p) << t for t, s in enumerate(streams))
                              for key in edge_keys]


def _cases():
    for k in (2, 3, 4):
        p_low = zebra_critical_pair(TreeParams(k)).p_low
        for mode in RootMode:
            for p in (0.0, 1.0, 1 / k, math.nextafter(p_low, 1.0)):
                yield TreeParams(k, mode), p


def _deep_cases():
    """p just inside each zebra threshold, and p = 1/k, for k = 3, 4 in both root modes."""
    for k in (3, 4):
        pair = zebra_critical_pair(TreeParams(k))
        for mode in RootMode:
            for p in (math.nextafter(pair.p_low, 1.0), math.nextafter(pair.p_high, 0.0), 1 / k):
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
            [counts] = zebra_counts(params, [p], n, bases)
            for s in streams:
                assert (s.base in opened) == ref_open_ray(params, p, n, s)
                assert (s.base in zebra) == ref_zebra_ray(params, p, n, s)
                assert counts.get(s.base, 0) == ref_zebra_count(params, p, n, s)

    @pytest.mark.parametrize("params,p", list(_deep_cases()))
    @pytest.mark.parametrize("n", [12, 16])
    def test_deep_searches(self, params, p, n):
        # near the thresholds the stacks are deepest and the searches backtrack most
        streams = [TrialStream(n, t) for t in range(40)]
        bases = [s.base for s in streams]
        opened = ray_hits(params, p, n, bases, alternate=False)
        zebra = ray_hits(params, p, n, bases, alternate=True)
        for s in streams:
            assert (s.base in opened) == ref_open_ray(params, p, n, s)
            assert (s.base in zebra) == ref_zebra_ray(params, p, n, s)

    def test_wide_first_round(self):
        # compress over a lane index shorter than its round would stop early and
        # drop lanes without an error; the first round here spans 1,500 lanes
        params, n, trials = TreeParams(4, RootMode.FULL_CAYLEY), 12, 300
        streams = [TrialStream(3, t) for t in range(trials)]
        bases = [s.base for s in streams]
        opened = ray_hits(params, 0.3, n, bases, alternate=False)
        zebra = ray_hits(params, 0.1, n, bases, alternate=True)
        assert 0 < len(opened) < trials and 0 < len(zebra) < trials
        for s in streams:
            assert (s.base in opened) == ref_open_ray(params, 0.3, n, s)
            assert (s.base in zebra) == ref_zebra_ray(params, 0.1, n, s)

    def test_one_trial_samplers(self):
        # a batch of one base word: no other trial shares the rounds
        for params in (TreeParams(3), TreeParams(2, RootMode.FULL_CAYLEY)):
            for t in range(60):
                s = TrialStream(21, t)
                for p in (0.2, 0.5, 0.7):
                    assert bool(ray_hits(params, p, 6, [s.base], False)) is ref_open_ray(params, p, 6, s)
                    assert bool(ray_hits(params, p, 6, [s.base], True)) is ref_zebra_ray(params, p, 6, s)
                    assert zebra_counts(params, [p], 6, [s.base])[0][s.base] == ref_zebra_count(params, p, 6, s)

    def test_count_pool_larger_than_a_round(self):
        params, p, n = TreeParams(3), 0.5, 8
        bases = bases_of(2, 300)
        [counts] = zebra_counts(params, [p], n, bases)
        assert sum(counts.values()) > 8 * TRIAL_BATCH
        for t in range(300):
            assert counts.get(bases[t], 0) == ref_zebra_count(params, p, n, TrialStream(2, t))


#: Eight probabilities for one grouped walk: p = 0 (threshold 0, no undecided
#: byte), p = 1, a repeated p, two thresholds in one top byte, and thresholds
#: just below a byte boundary, 2**56 - 4 at p = 2**-8 and 2**63 - 512 at p = 1/2.
GROUP_PS = (0.0, 1.0, 0.6, 0.6, 0.3, 0.3 + 1e-9, 2.0**-8, 0.5)


class TestGroupedWalk:
    """One walk for a group of probabilities counts each p as its own walk does."""

    @pytest.mark.parametrize("params", [TreeParams(k, mode) for k in (2, 3, 4) for mode in RootMode])
    def test_group_equals_one_point_walks(self, params):
        assert len(GROUP_PS) == GROUP
        for n in range(1, 9):
            bases = bases_of(n, 12)
            group = zebra_counts(params, GROUP_PS, n, bases)
            assert group == [zebra_counts(params, [p], n, bases)[0] for p in GROUP_PS]
            assert group[2] == group[3]

    @pytest.mark.parametrize("params", [TreeParams(3), TreeParams(2, RootMode.FULL_CAYLEY)])
    def test_one_point_walks_match_the_reference(self, params):
        for n in (1, 4, 7):
            streams = [TrialStream(n, t) for t in range(12)]
            for p in GROUP_PS:
                [counts] = zebra_counts(params, [p], n, [s.base for s in streams])
                for s in streams:
                    assert counts.get(s.base, 0) == ref_zebra_count(params, p, n, s)

    def test_thresholds_of_the_group(self):
        y = [open_threshold(p) for p in GROUP_PS]
        assert y[0] == 0 and y[6] == 2**56 - 4 and y[7] == 2**63 - 512
        assert y[4] >> 56 == y[5] >> 56 and y[4] < y[5]

    def test_table_and_fix_up_match_is_open(self):
        """Bit j of the group's open bits, at the words around each threshold y and
        at the ends of its undecided byte t, is TrialStream.is_open at GROUP_PS[j]."""
        stream = TrialStream(8, 2)
        words = set()
        for y in map(open_threshold, GROUP_PS):
            t = y >> 56
            words.update(w for w in (y - 1, y, t << 56, ((t + 1) << 56) - 1) if 0 <= w <= MASK)
        words = sorted(words)
        keys = [stream.base ^ unmix64(w) for w in words]
        lanes = b"".join(key.to_bytes(8, "little") + w.to_bytes(8, "little")
                         for key, w in zip(keys, words))
        bits = OpenTable(GROUP_PS)(lanes)
        for i, key in enumerate(keys):
            for j, p in enumerate(GROUP_PS):
                assert bool(bits[i] >> j & 1) is stream.is_open(key, p), (hex(words[i]), p)

    @pytest.mark.parametrize("ps", [[], [0.5] * (GROUP + 1)])
    def test_group_width(self, ps):
        with pytest.raises(ValueError, match="a group holds 1 to 8"):
            zebra_counts(TreeParams(3), ps, 2, bases_of(0, 3))

    def test_no_trials(self):
        assert zebra_counts(TreeParams(3), GROUP_PS, 3, []) == [{}] * GROUP
        assert ray_hits(TreeParams(3), 0.5, 3, [], alternate=True) == set()


class TestStoppedSearch:
    @pytest.mark.parametrize("params,p", list(_cases()))
    def test_stopped_hits_are_a_subset(self, params, p):
        trials, n = 200, 8
        bases = bases_of(9, trials)
        never = trials + 1
        for alternate in (False, True):
            full = ray_hits(params, p, n, bases, alternate)
            assert ray_hits(params, p, n, bases, alternate, (never, never)) == full
            for hits in range(1, len(full) + 1, 7):
                part = ray_hits(params, p, n, bases, alternate, (hits, never))
                assert hits <= len(part) and part <= full
            for misses in (1, 2, trials - len(full)):
                assert ray_hits(params, p, n, bases, alternate, (never, misses)) <= full

    def test_a_stop_ends_the_search_early(self):
        # at p = 1/2 on k = 3 most trials hit; a stop at the first hit leaves most unfound
        params, p, n = TreeParams(3), 0.5, 12
        bases = bases_of(4, 300)
        full = ray_hits(params, p, n, bases, True)
        part = ray_hits(params, p, n, bases, True, (1, len(bases) + 1))
        assert 1 <= len(part) < len(full) // 2


class TestEstimatorBatches:
    TRIALS = TRIAL_BATCH + 3  # neither chunk of two workers is a whole batch either

    def estimates(self, params, p, event, seed):
        """The estimates with one and with two workers, which must be equal."""
        a, b = (estimate_event(params, p, event, self.TRIALS, seed, workers=w) for w in (1, 2))
        assert a == b
        return a

    def test_existence_is_the_sum_of_per_trial_outcomes(self):
        params, n, seed = TreeParams(2), 3, 41
        for event, p, ref in ((zebra_ray(n), 0.5, ref_zebra_ray), (open_ray(n), 0.6, ref_open_ray)):
            hits = sum(ref(params, p, n, TrialStream(seed, t)) for t in range(self.TRIALS))
            mean = hits / self.TRIALS
            want = Estimate(mean, math.sqrt(mean * (1 - mean) / self.TRIALS),
                            *wilson_interval(hits, self.TRIALS), self.TRIALS, seed)
            assert 0 < hits < self.TRIALS
            assert self.estimates(params, p, event, seed) == pytest.approx(want, rel=1e-12)

    def test_count_is_the_sum_of_per_trial_outcomes(self):
        params, p, n, seed = TreeParams(2, RootMode.FULL_CAYLEY), 0.5, 3, 43
        counts = [ref_zebra_count(params, p, n, TrialStream(seed, t)) for t in range(self.TRIALS)]
        mean = sum(counts) / self.TRIALS
        stderr = math.sqrt(sum((x - mean) ** 2 for x in counts) / (self.TRIALS - 1) / self.TRIALS)
        want = Estimate(mean, stderr, mean - Z95 * stderr, mean + Z95 * stderr, self.TRIALS, seed)
        assert stderr > 0
        assert self.estimates(params, p, zebra_count(n), seed) == pytest.approx(want, rel=1e-12)


class TestOneForkPerBisection:
    def test_one_child_serves_the_upper_side(self, fork_sets):
        tol = 1 / 32
        params = TreeParams(3)
        located = find_critical_mc(params, 8, 300, 5, tol, workers=2)
        assert [len(pids) for pids in fork_sets] == [1]
        assert located == find_critical_mc(params, 8, 300, 5, tol, workers=1)
        assert [len(pids) for pids in fork_sets] == [1, 0]
        assert 0.0 < located.p_low < 0.5 < located.p_high < 1.0
