import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zebraperc import RootMode, TreeParams, tree
from zebraperc.analytic import expected_zebra_count, open_ray_probability, zebra_dp
from zebraperc.montecarlo import sample_tables
from zebraperc.params import EventKind, EventSpec, open_ray, zebra_count, zebra_ray
from zebraperc.rng import TrialStream
from zebraperc.tree import (
    ROOT,
    InvalidHatEdgeError,
    TooLargeError,
    block_tables,
    brute_force_probability,
    check_enumerable,
    children,
    config_text,
    edge_count,
    edge_lists,
    edges,
    first_path,
    format_address,
    hat_edge_decompose,
    hat_shape,
    hat_to_base,
    level_size,
    load_tables,
    pair_transform,
    parse_address,
    reach,
    transform_check,
    vertices_at_level,
)

P2 = TreeParams(2)
P3 = TreeParams(3)

params_strategy = st.builds(
    TreeParams, st.integers(2, 4), st.sampled_from(list(RootMode))
)


class TestAddressing:
    def test_level_size_examples(self):
        assert level_size(TreeParams(2, RootMode.FULL_CAYLEY), 3) == 12
        assert level_size(TreeParams(3), 2) == 9
        assert level_size(TreeParams(5), 0) == 1
        assert level_size(TreeParams(5, RootMode.FULL_CAYLEY), 0) == 1

    def test_children_arity(self):
        assert len(children(TreeParams(2), ROOT)) == 2
        assert len(children(TreeParams(2, RootMode.FULL_CAYLEY), ROOT)) == 3
        assert len(children(TreeParams(3, RootMode.FULL_CAYLEY), (0, 1))) == 3

    @given(params_strategy, st.integers(0, 4))
    def test_level_counts_match(self, params, n):
        assert sum(1 for _ in vertices_at_level(params, n)) == level_size(params, n)

    @given(params_strategy, st.integers(0, 3))
    @settings(max_examples=30)
    def test_parent_child_round_trip(self, params, n):
        for v in vertices_at_level(params, n):
            for c in children(params, v):
                assert c[:-1] == v

    def test_edges_sorted_and_counted(self):
        params = TreeParams(2)
        edge_list = edges(params, 2)
        assert len(edge_list) == edge_count(params, 2) == 6
        assert edge_list == sorted(edge_list)
        assert edge_list[0] == (0,)

    @given(params_strategy, st.integers(0, 60))
    def test_edge_count_sums_the_levels(self, params, depth):
        assert edge_count(params, depth) == sum(level_size(params, n) for n in range(1, depth + 1))


class TestEnumeration:
    """The oracle's configurations: code c sets edge j when bit j of c is set."""

    def test_counts(self):
        assert check_enumerable(TreeParams(2), 2) == 6  # 64 configurations

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            check_enumerable(TreeParams(3), 3)  # 39 edges

    def test_binary_counting_order(self):
        tables = block_tables(check_enumerable(TreeParams(2), 1))
        assert [tuple(t >> code & 1 for t in tables) for code in range(4)] == [
            (0, 0), (1, 0), (0, 1), (1, 1),
        ]

    def test_deterministic(self):
        assert block_tables.__wrapped__(6) == block_tables(6)


def witness_sum(params, p, event):
    """The oracle's exact sum the long way: explicit configurations, each path judged in the test.

    Configuration `code` opens edge j of tree.edges when bit j of code is set,
    and each last-level address's root path is read from its states. The
    oracle's float result must equal float() of this Fraction, its correct
    rounding.
    """
    pf = Fraction(p)
    edge_list = edges(params, event.depth)
    n_edges = len(edge_list)
    weights = [pf**h * (1 - pf) ** (n_edges - h) for h in range(n_edges + 1)]
    ends = [v for v in edge_list if len(v) == event.depth]

    def follows(states):
        if event.kind is EventKind.OPEN_RAY:
            return all(states)
        return all(a != b for a, b in zip(states, states[1:]))

    total = Fraction(0)
    for code in range(1 << n_edges):
        states = {e: code >> j & 1 for j, e in enumerate(edge_list)}
        hits = sum(follows([states[v[:i]] for i in range(1, event.depth + 1)]) for v in ends)
        mult = hits if event.kind is EventKind.ZEBRA_COUNT else int(hits > 0)
        if mult:
            total += mult * weights[code.bit_count()]
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
        assert n_edges > tree.ORACLE_BLOCK_BITS
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
        monkeypatch.setattr(tree, "ORACLE_BLOCK_BITS", bits)
        event = EventSpec(kind, depth)
        for p in (0.2, 1 / 3, 0.8):
            want = witness_sum(params, p, event)
            assert brute_force_probability(params, p, event, exact=True) == want
            assert brute_force_probability(params, p, event) == float(want)

    @pytest.mark.parametrize("bits", range(11))
    def test_block_tables(self, bits):
        tables = block_tables(bits)
        codes = range(1 << bits)
        assert [[t >> c & 1 for c in codes] for t in tables] == [
            [c >> j & 1 for c in codes] for j in range(bits)]
        classes = tree._popcount_classes(bits)
        assert [[m >> c & 1 for c in codes] for m in classes] == [
            [c.bit_count() == h for c in codes] for h in range(bits + 1)]


class TestHatAddressing:
    @given(params_strategy, st.integers(0, 3))
    @settings(max_examples=30)
    def test_round_trip(self, params, m):
        k = params.k
        for hv in itertools.islice(vertices_at_level(hat_shape(params), m), 200):
            base = hat_to_base(params, hv)
            assert len(base) == 2 * len(hv)
            assert tuple(base[i] * k + base[i + 1] for i in range(0, len(base), 2)) == hv

    def test_hat_root_degree(self):
        assert hat_shape(TreeParams(2)).root_degree == 4
        assert hat_shape(TreeParams(2, RootMode.FULL_CAYLEY)).root_degree == 6
        # interior branching order is k^2
        assert len(children(hat_shape(TreeParams(3)), (0,))) == 9

    def test_decompose_examples(self):
        params = TreeParams(2)
        l1, l2 = hat_edge_decompose(params, ROOT, (0, 1))
        assert l1 == (0,) and l2 == (0, 1)
        l1, l2 = hat_edge_decompose(params, (1, 0), (1, 0, 1, 1))
        assert l1 == (1, 0, 1) and l2 == (1, 0, 1, 1)

    def test_decompose_rejects_non_grandchild(self):
        params = TreeParams(2)
        with pytest.raises(InvalidHatEdgeError):
            hat_edge_decompose(params, ROOT, (0,))
        with pytest.raises(InvalidHatEdgeError):
            hat_edge_decompose(params, (0,), (0, 1, 1))  # odd-level upper endpoint
        with pytest.raises(InvalidHatEdgeError):
            hat_edge_decompose(params, ROOT, (5, 1))  # index out of arity


def _tables(edge_list, states):
    """One one-bit table per edge: states[e], or 0 for an edge states does not name."""
    return [states.get(e, 0) for e in edge_list]


def _image(params, m, states):
    """The depth-m image of a one-configuration depth-2m table set, by transformed edge."""
    (edge_list, _, _), (hat_edges, _, _), image = pair_transform(params, m)
    plus, minus = image(_tables(edge_list, states))
    return dict(zip(hat_edges, ("0+-"[u + 2 * v] for u, v in zip(plus, minus))))


def _path(params, length, states, first=None, alternate=True):
    """first_path of reach over the length-truncation of a one-configuration dict,
    the first edge pinned open (1), closed (0) or free (None)."""
    edge_list, roots, below = edge_lists(params, length)
    tables = _tables(edge_list, states)
    start = [(j, 1 if first is None else int(tables[j] == first)) for j in roots]
    return first_path(edge_list, reach(below, start, tables, alternate))


class TestPhi:
    def test_table(self):
        params = TreeParams(2)
        phi = _image(params, 1, {(0,): 1})  # l1 open, l2 closed under child 0
        assert phi[(0,)] == "+"
        assert phi[(1,)] == "+"
        assert phi[(2,)] == "0"  # both closed below child 1

        phi = _image(params, 1, {(0, 1): 1})  # l1 closed, l2 open
        assert phi[(1,)] == "-"
        assert phi[(0,)] == "0"

    def test_all_open_maps_to_all_zero(self):
        params = TreeParams(2)
        phi = _image(params, 2, dict.fromkeys(edges(params, 4), 1))
        assert set(phi.values()) == {"0"}
        assert max(map(len, phi)) == 2

    def test_half_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="half-depth must be >= 1, got 0"):
            pair_transform(TreeParams(2), 0)

    def test_domain_is_the_hat_edge_set(self):
        for mode in RootMode:
            params = TreeParams(2, mode)
            phi = _image(params, 2, dict.fromkeys(edges(params, 4), 1))
            d_hat = hat_shape(params).root_degree
            assert len(phi) == d_hat + d_hat * 4
            assert list(phi) == edges(hat_shape(params), 2)

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_deterministic(self, trial):
        params = TreeParams(2)
        image = pair_transform(params, 2)[2]
        first, second = (image(sample_tables(params, 4, 0.5, [TrialStream(3, trial).base]))
                         for _ in range(2))
        assert first == second


class TestWitnesses:
    def test_alternating_ray_fixture(self):
        params = TreeParams(2)
        states = dict.fromkeys(edges(params, 4), 1)
        for e in ((0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)):
            states[e] = 0 if len(e) % 2 else 1
        # ray under child 0 now alternates closed/open/closed/open
        assert _path(params, 4, states, first=0) == [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]
        minus = {e: int(sign == "-") for e, sign in _image(params, 2, states).items()}
        assert _path(hat_shape(params), 2, minus, alternate=False) == [(0,), (0, 0)]
        assert transform_check(params, 2)(_tables(edges(params, 4), states), 1) == 0

    def test_open_ray_and_count(self):
        params = TreeParams(2)
        states = dict.fromkeys(edges(params, 2), 1)
        assert _path(params, 2, states, alternate=False) == [(0,), (0, 0)]
        # all open: every depth-1 vertex is zebra-connected, no depth-2 vertex is
        for depth, count in ((1, 2), (2, 0)):
            edge_list, roots, below = edge_lists(params, depth)
            tables = _tables(edge_list, states)
            assert len(reach(below, [(j, 1) for j in roots], tables, True)) == count

    def test_no_witness(self):
        params = TreeParams(2)
        states = dict.fromkeys(edges(params, 2), 0)
        assert _path(params, 1, states, alternate=False) is None
        assert _path(params, 2, states, first=1) is None

    def test_exhaustive_correspondence_depth2(self):
        # 64, 4,096 and 512 configurations
        for params in (TreeParams(2), TreeParams(3), TreeParams(2, RootMode.FULL_CAYLEY)):
            n_edges = edge_count(params, 2)
            full = (1 << (1 << n_edges)) - 1
            assert transform_check(params, 1)(block_tables(n_edges), full) == 0

    def test_exhaustive_check_flags_a_wrong_transform(self, monkeypatch):
        """With the upper and lower base edges swapped, the check flags configurations."""
        decompose = tree.hat_edge_decompose
        monkeypatch.setattr(tree, "hat_edge_decompose", lambda *args: decompose(*args)[::-1])
        params = TreeParams(2)
        bad = transform_check(params, 1)(block_tables(edge_count(params, 2)), (1 << 64) - 1)
        assert bad.bit_count() == 42

    @pytest.mark.parametrize("params,depth,configs", [
        (TreeParams(2), 2, None),
        (TreeParams(3, RootMode.FULL_CAYLEY), 4, 150),
    ])
    def test_first_path_in_child_order(self, params, depth, configs):
        """Each witness is the lexicographically first matching path of its length."""
        edge_list = edges(params, depth)
        if configs is None:
            codes = range(1 << len(edge_list))
            sigmas = [{e: code >> j & 1 for j, e in enumerate(edge_list)} for code in codes]
        else:
            sigmas = [dict(zip(edge_list, sample_tables(params, depth, 0.5,
                                                        [TrialStream(5, t).base])))
                      for t in range(configs)]

        def brute_first_path(labels, length, ok):
            for v in sorted(a for a in labels if len(a) == length):
                path = [v[:i] for i in range(1, length + 1)]
                if ok([labels[e] for e in path]):
                    return path
            return None

        def alternates(first):
            return lambda s: (first is None or s[0] == first) and all(
                a != b for a, b in zip(s, s[1:]))

        hat = hat_shape(params)
        for sigma in sigmas:
            phi = _image(params, depth // 2, sigma)
            for length in range(1, depth + 1):
                assert _path(params, length, sigma, alternate=False) == brute_first_path(
                    sigma, length, lambda s: all(x == 1 for x in s))
                for first in (None, 1, 0):
                    assert _path(params, length, sigma, first) == brute_first_path(
                        sigma, length, alternates(first))
            for length in range(1, depth // 2 + 1):
                for sign in "+0-":
                    signed = {e: int(x == sign) for e, x in phi.items()}
                    assert _path(hat, length, signed, alternate=False) == brute_first_path(
                        phi, length, lambda s: all(x == sign for x in s))


class TestSerialization:
    def test_address_format(self):
        assert format_address((0, 2, 1)) == "0/2/1"
        assert parse_address("0/2/1") == (0, 2, 1)
        with pytest.raises(ValueError):
            parse_address("0/x")
        with pytest.raises(ValueError):
            parse_address("-1/0")

    def test_dump_format(self):
        assert config_text(edges(TreeParams(2), 1), "OC") == "0,O\n1,C"

    def test_dump_phi_format(self):
        params = TreeParams(2)
        (_, _, _), (hat_edges, _, _), image = pair_transform(params, 1)
        plus, minus = image(_tables(edges(params, 2), {(0,): 1}))
        text = config_text(hat_edges, ("0+-"[u + 2 * v] for u, v in zip(plus, minus)))
        assert text.splitlines()[0] == "0,+"

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_round_trip(self, trial, depth):
        params = TreeParams(2, RootMode.FULL_CAYLEY)
        tables = sample_tables(params, depth, 0.4, [TrialStream(9, trial).base])
        text = config_text(edges(params, depth), ("CO"[t] for t in tables))
        assert load_tables(text, params) == (depth, tables)

    def test_load_rejects_incomplete_domain(self):
        with pytest.raises(ValueError):
            load_tables("0,O\n", TreeParams(2))  # missing edge 1

    def test_load_counts_edges_before_listing_them(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(tree, "edges", refuse)
        deep = "/".join(["0"] * 40) + ",O\n"  # 2^41 - 2 edges in its truncation
        with pytest.raises(ValueError, match="1 edges, but the depth-40 truncation has 2199023255550"):
            load_tables(deep, TreeParams(2))

    def test_load_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            load_tables("0,X\n1,O\n", TreeParams(2))
        with pytest.raises(ValueError):
            load_tables("0,O\n0,C\n1,O\n", TreeParams(2))
