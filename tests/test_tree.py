import pytest
from hypothesis import given, settings, strategies as st

from zebraperc import RootMode, TreeParams
from zebraperc.montecarlo import sample_sigma
from zebraperc.rng import TrialStream
from zebraperc.tree import (
    ROOT,
    EdgeState,
    InvalidHatEdgeError,
    OddDepthError,
    PhiValue,
    SigmaConfig,
    TooLargeError,
    base_to_hat,
    children,
    correspondence_holds,
    degree,
    dump_phi,
    dump_sigma,
    edge_count,
    edges,
    enumerate_configs,
    format_address,
    hat_children,
    hat_edge_decompose,
    hat_root_degree,
    hat_to_base,
    level_size,
    load_sigma,
    open_ray_witness,
    parent,
    parse_address,
    phi_of_sigma,
    signed_path_witness,
    vertices_at_level,
    zebra_connected_count,
    zebra_ray_witness,
)

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
                assert parent(c) == v

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            parent(ROOT)

    def test_edges_sorted_and_counted(self):
        params = TreeParams(2)
        edge_list = edges(params, 2)
        assert len(edge_list) == edge_count(params, 2) == 6
        assert edge_list == sorted(edge_list)
        assert edge_list[0] == (0,)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_configs(TreeParams(2), 2)) == 64

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            next(iter(enumerate_configs(TreeParams(3), 3)))  # 39 edges

    def test_binary_counting_order(self):
        configs = list(enumerate_configs(TreeParams(2), 1))
        assert [tuple(c.states.values()) for c in configs] == [
            (EdgeState.CLOSED, EdgeState.CLOSED),
            (EdgeState.OPEN, EdgeState.CLOSED),
            (EdgeState.CLOSED, EdgeState.OPEN),
            (EdgeState.OPEN, EdgeState.OPEN),
        ]

    def test_deterministic(self):
        first = [c.states for c in enumerate_configs(TreeParams(2), 2)]
        second = [c.states for c in enumerate_configs(TreeParams(2), 2)]
        assert first == second


class TestHatAddressing:
    @given(params_strategy, st.integers(0, 3))
    @settings(max_examples=30)
    def test_round_trip(self, params, m):
        import itertools

        from zebraperc.tree import hat_vertices_at_level

        for hv in itertools.islice(hat_vertices_at_level(params, m), 200):
            base = hat_to_base(params, hv)
            assert len(base) == 2 * len(hv)
            assert base_to_hat(params, base) == hv

    def test_base_to_hat_rejects_odd(self):
        with pytest.raises(OddDepthError):
            base_to_hat(TreeParams(2), (0, 1, 0))

    def test_hat_root_degree(self):
        assert hat_root_degree(TreeParams(2)) == 4
        assert hat_root_degree(TreeParams(2, RootMode.FULL_CAYLEY)) == 6
        # interior branching order is k^2
        assert len(hat_children(TreeParams(3), (0,))) == 9

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


def _uniform_sigma(params, depth, state):
    return SigmaConfig(
        depth=depth, states={e: state for e in edges(params, depth)}
    )


class TestPhi:
    def test_table(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 2, EdgeState.CLOSED)
        sigma.states[(0,)] = EdgeState.OPEN  # l1 open, l2 closed under child 0
        phi = phi_of_sigma(params, sigma)
        assert phi.values[(0,)] == PhiValue.PLUS
        assert phi.values[(1,)] == PhiValue.PLUS
        assert phi.values[(2,)] == PhiValue.ZERO  # both closed below child 1

        sigma = _uniform_sigma(params, 2, EdgeState.CLOSED)
        sigma.states[(0, 1)] = EdgeState.OPEN  # l1 closed, l2 open
        phi = phi_of_sigma(params, sigma)
        assert phi.values[(1,)] == PhiValue.MINUS
        assert phi.values[(0,)] == PhiValue.ZERO

    def test_all_open_maps_to_all_zero(self):
        params = TreeParams(2)
        phi = phi_of_sigma(params, _uniform_sigma(params, 4, EdgeState.OPEN))
        assert set(phi.values.values()) == {PhiValue.ZERO}
        assert phi.depth == 2

    def test_odd_depth_rejected(self):
        params = TreeParams(2)
        with pytest.raises(OddDepthError):
            phi_of_sigma(params, _uniform_sigma(params, 3, EdgeState.OPEN))

    def test_domain_is_the_hat_edge_set(self):
        for mode in RootMode:
            params = TreeParams(2, mode)
            phi = phi_of_sigma(params, _uniform_sigma(params, 4, EdgeState.OPEN))
            d_hat = hat_root_degree(params)
            assert len(phi.values) == d_hat + d_hat * 4

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_deterministic(self, trial):
        params = TreeParams(2)
        sigma = sample_sigma(params, 4, 0.5, TrialStream(3, trial))
        assert phi_of_sigma(params, sigma) == phi_of_sigma(params, sigma)


class TestWitnesses:
    def test_alternating_ray_fixture(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 4, EdgeState.OPEN)
        for e in ((0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)):
            sigma.states[e] = EdgeState.CLOSED if len(e) % 2 else EdgeState.OPEN
        # ray under child 0 now alternates closed/open/closed/open
        witness = zebra_ray_witness(params, sigma, 4, first=EdgeState.CLOSED)
        assert witness == [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]
        phi = phi_of_sigma(params, sigma)
        assert signed_path_witness(params, phi, 2, PhiValue.MINUS) == [(0,), (0, 0)]
        assert correspondence_holds(params, sigma)

    def test_open_ray_and_count(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 2, EdgeState.OPEN)
        assert open_ray_witness(params, sigma, 2) == [(0,), (0, 0)]
        # all open: every depth-1 vertex is zebra-connected, no depth-2 vertex is
        assert zebra_connected_count(params, sigma, 1) == 2
        assert zebra_connected_count(params, sigma, 2) == 0

    def test_no_witness(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 2, EdgeState.CLOSED)
        assert open_ray_witness(params, sigma, 1) is None
        assert zebra_ray_witness(params, sigma, 2, first=EdgeState.OPEN) is None

    def test_exhaustive_correspondence_depth2(self):
        params = TreeParams(2)
        assert all(
            correspondence_holds(params, sigma)
            for sigma in enumerate_configs(params, 2)
        )

    @pytest.mark.parametrize("params,depth,configs", [
        (TreeParams(2), 2, None),
        (TreeParams(3, RootMode.FULL_CAYLEY), 4, 150),
    ])
    def test_first_path_in_child_order(self, params, depth, configs):
        """Each witness is the lexicographically first matching path of its length."""
        if configs is None:
            sigmas = list(enumerate_configs(params, depth))
        else:
            sigmas = [sample_sigma(params, depth, 0.5, TrialStream(5, t)) for t in range(configs)]

        def first_path(labels, length, ok):
            for v in sorted(a for a in labels if len(a) == length):
                path = [v[:i] for i in range(1, length + 1)]
                if ok([labels[e] for e in path]):
                    return path
            return None

        def alternates(first):
            return lambda s: (first is None or s[0] is first) and all(
                a is not b for a, b in zip(s, s[1:]))

        for sigma in sigmas:
            phi = phi_of_sigma(params, sigma)
            for length in range(1, depth + 1):
                assert open_ray_witness(params, sigma, length) == first_path(
                    sigma.states, length, lambda s: all(x is EdgeState.OPEN for x in s))
                for first in (None, EdgeState.OPEN, EdgeState.CLOSED):
                    assert zebra_ray_witness(params, sigma, length, first) == first_path(
                        sigma.states, length, alternates(first))
            for length in range(1, phi.depth + 1):
                for sign in PhiValue:
                    assert signed_path_witness(params, phi, length, sign) == first_path(
                        phi.values, length, lambda s: all(x is sign for x in s))


class TestSerialization:
    def test_address_format(self):
        assert format_address((0, 2, 1)) == "0/2/1"
        assert parse_address("0/2/1") == (0, 2, 1)
        with pytest.raises(ValueError):
            parse_address("0/x")
        with pytest.raises(ValueError):
            parse_address("-1/0")

    def test_dump_format(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 1, EdgeState.OPEN)
        sigma.states[(1,)] = EdgeState.CLOSED
        assert dump_sigma(sigma) == "0,O\n1,C\n"

    def test_dump_phi_format(self):
        params = TreeParams(2)
        sigma = _uniform_sigma(params, 2, EdgeState.CLOSED)
        sigma.states[(0,)] = EdgeState.OPEN
        text = dump_phi(phi_of_sigma(params, sigma))
        assert text.splitlines()[0] == "0,+"

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_round_trip(self, trial, depth):
        params = TreeParams(2, RootMode.FULL_CAYLEY)
        sigma = sample_sigma(params, depth, 0.4, TrialStream(9, trial))
        assert load_sigma(dump_sigma(sigma), params) == sigma

    def test_load_rejects_incomplete_domain(self):
        with pytest.raises(ValueError):
            load_sigma("0,O\n", TreeParams(2))  # missing edge 1

    def test_load_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            load_sigma("0,X\n1,O\n", TreeParams(2))
        with pytest.raises(ValueError):
            load_sigma("0,O\n0,C\n1,O\n", TreeParams(2))
