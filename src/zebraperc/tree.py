"""Configurations of truncated rooted trees as truth tables, and the even-level pair transform.

A vertex is a tuple of child indices (the root is the empty tuple) and an edge
is identified by its lower endpoint. Configurations are computed on as truth
tables, one int per edge j of edges(params, depth) whose bit c is the edge's
state, 1 open, in configuration c; reach applies the path rule to all of them
at once, walking the child-edge indices of edge_lists. SigmaConfig and
PhiConfig, dicts from address to state, are input/output only: what
enumerate_configs and montecarlo.sample_sigma return, what dump_*/load_sigma
write and read.

The transform maps bond configurations on the order-k tree to signed
configurations on the tree over its even levels, whose interior branching
order is k^2; each transformed edge covers two consecutive base edges. On
truth tables the image is two tables per transformed edge, plus and minus.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from collections.abc import Iterator

from .params import TooLargeError, TreeParams

Address = tuple[int, ...]

ROOT: Address = ()

#: Exhaustive enumeration is capped at this many edges (2**22 configurations).
MAX_ENUM_EDGES = 22


class InvalidHatEdgeError(ValueError):
    """The vertex pair is not an edge of the transformed tree."""


class OddDepthError(ValueError):
    """The transform is defined on even-depth truncations only."""


class EdgeState(enum.IntEnum):
    CLOSED = 0
    OPEN = 1


class PhiValue(enum.IntEnum):
    MINUS = -1
    ZERO = 0
    PLUS = 1


class SigmaConfig(namedtuple("SigmaConfig", "depth states")):
    """Bond states over every edge of a depth-truncated tree.

    depth: int; states: dict[Address, EdgeState].
    """

    __slots__ = ()


class PhiConfig(namedtuple("PhiConfig", "depth values")):
    """Signed pair states over every edge of the depth-truncated transformed tree.

    depth: int; values: dict[Address, PhiValue].
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# base-tree addressing

def level_size(params: TreeParams, n: int) -> int:
    """Number of vertices at distance n from the root."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n == 0:
        return 1
    return params.root_degree * params.k ** (n - 1)


def degree(params: TreeParams, v: Address) -> int:
    return params.root_degree if not v else params.k


def children(params: TreeParams, v: Address) -> list[Address]:
    """Direct successors of v: root degree many at the root, k elsewhere."""
    return [v + (i,) for i in range(degree(params, v))]


def parent(v: Address) -> Address:
    if not v:
        raise ValueError("the root has no parent")
    return v[:-1]


def vertices_at_level(params: TreeParams, n: int) -> Iterator[Address]:
    """All level-n addresses in lexicographic order."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n == 0:
        yield ROOT
        return
    ranges = [range(params.root_degree)] + [range(params.k)] * (n - 1)
    yield from itertools.product(*ranges)


def edge_count(params: TreeParams, depth: int) -> int:
    """Edges of the depth-truncation, the level sizes summed in closed form."""
    return params.root_degree * (params.k**depth - 1) // (params.k - 1)


def edges(params: TreeParams, depth: int) -> list[Address]:
    """Every edge of the depth-truncation as lower endpoints, lexicographic."""
    out: list[Address] = []
    for n in range(1, depth + 1):
        out.extend(vertices_at_level(params, n))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# transformed-tree addressing

#: Interior order and root degree: all that the addressing functions read of TreeParams.
_Shape = namedtuple("_Shape", "k root_degree")


def hat_shape(params: TreeParams) -> _Shape:
    """The transformed tree in the form children, edges and edge_lists take: its
    root has root_degree * k children and every other vertex k^2."""
    return _Shape(params.k * params.k, params.root_degree * params.k)


def hat_to_base(params: TreeParams, hv: Address) -> Address:
    """Even-level base address of a transformed-tree vertex.

    Each transformed index h expands into the child pair (h // k, h % k).
    """
    k = params.k
    out: list[int] = []
    for h in hv:
        out.append(h // k)
        out.append(h % k)
    return tuple(out)


def base_to_hat(params: TreeParams, v: Address) -> Address:
    """Inverse of hat_to_base; requires an even-level base address."""
    if len(v) % 2:
        raise OddDepthError(f"even base level required, got level {len(v)}")
    k = params.k
    return tuple(v[i] * k + v[i + 1] for i in range(0, len(v), 2))


def hat_edge_decompose(params: TreeParams, x: Address, z: Address) -> tuple[Address, Address]:
    """Split the transformed edge (x, z) into its two consecutive base edges.

    x must sit on an even level and z must be a grandchild of x. Returns the
    base edges as lower endpoints, the one closer to the root first.
    """
    if len(x) % 2 != 0:
        raise InvalidHatEdgeError(f"upper endpoint {x} is not on an even level")
    if len(z) != len(x) + 2 or z[: len(x)] != x:
        raise InvalidHatEdgeError(f"{z} is not a grandchild of {x}")
    if not 0 <= z[-2] < degree(params, x) or not 0 <= z[-1] < params.k:
        raise InvalidHatEdgeError(f"child indices of {z} exceed the arity bounds")
    return z[:-1], z


# ---------------------------------------------------------------------------
# edge indices, codes and truth tables

def edge_lists(params: TreeParams, depth: int) -> tuple[list[int], list[list[int]]]:
    """Child-edge indices of the depth-truncation, for configurations held as truth tables.

    Edge j is edges(params, depth)[j]. Returns the indices of the edges below
    the root and, for each edge j, the indices of the edges just below its
    lower endpoint (empty on the last level).
    """
    edge_list = edges(params, depth)
    index = dict(zip(edge_list, itertools.count()))
    below = [
        [index[c] for c in children(params, e)] if len(e) < depth else []
        for e in edge_list
    ]
    return [index[c] for c in children(params, ROOT)], below


def check_enumerable(params: TreeParams, depth: int) -> int:
    """Edge count of the depth-truncation; TooLargeError past MAX_ENUM_EDGES."""
    n_edges = edge_count(params, depth)
    if n_edges > MAX_ENUM_EDGES:
        raise TooLargeError(f"{n_edges} edges exceeds the enumeration cap of {MAX_ENUM_EDGES}")
    return n_edges


def enumerate_configs(params: TreeParams, depth: int) -> Iterator[SigmaConfig]:
    """Yield every bond configuration of the depth-truncation exactly once, as dicts.

    The configurations are the codes 0 .. 2**edge_count - 1 in increasing
    order, each turned into its SigmaConfig: code bit j (least significant
    first) is the state, 1 open, of edge j of edges(params, depth). The
    code-th configuration yielded is configuration `code` of the brute-force
    oracle's truth tables. Raises TooLargeError past MAX_ENUM_EDGES edges.
    """
    check_enumerable(params, depth)
    edge_list = edges(params, depth)
    for code in range(1 << len(edge_list)):
        yield SigmaConfig(depth, {e: EdgeState(code >> j & 1) for j, e in enumerate(edge_list)})


def reach(below: list[list[int]], start, tables, alternate: bool) -> list[tuple[int, int]]:
    """The last-level edges that some path from the root reaches by the rule, and in which configurations.

    Bit c of tables[j] is the state, 1 open, of edge j in configuration c,
    whatever indexes the configurations: the codes of an enumeration block,
    the trials of a batch, or the one configuration of a one-bit table.
    `start` pairs each first edge with the configurations in which a path may
    start there, and `below` comes from edge_lists. With alternate=False every
    edge of the path must be open (an open ray); with alternate=True the first
    edge may take either state and every later edge the opposite of the one
    above it (a zebra path). Returns (edge, configurations) pairs in child
    order, for the edges reached in at least one configuration.
    """
    frontier = [(j, r) for j, m in start if (r := m if alternate else m & tables[j])]
    while frontier and below[frontier[0][0]]:
        frontier = [(c, r) for j, m in frontier for c in below[j]
                    if (r := m & (tables[c] ^ tables[j] if alternate else tables[c]))]
    return frontier


def any_reached(ends: list[tuple[int, int]]) -> int:
    """The configurations in which reach reached at least one last-level edge."""
    out = 0
    for _, configs in ends:
        out |= configs
    return out


# ---------------------------------------------------------------------------
# the pair transform

def _base_pair(params: TreeParams, hv: Address) -> tuple[Address, Address]:
    """The base edges, upper first, that the transformed edge with lower endpoint hv covers."""
    return hat_edge_decompose(params, hat_to_base(params, hv[:-1]), hat_to_base(params, hv))


def transform_check(params: TreeParams, m: int):
    """The alternating-ray / constant-sign-path correspondence as a test on depth-2m truth tables.

    failures(tables, full) takes one table per edge of edges(params, 2m), bit
    c the edge's state in configuration c, and `full`, the configurations
    checked. It returns the configurations where an alternating ray of length
    2m whose first edge is open exists and a length-m all-plus path in the
    image does not, or the other way round, and likewise closed/minus. A
    transformed edge is + where its base pair (_base_pair) is (open, closed)
    and - where it is (closed, open). The indices are built once, here.
    """
    if m < 1:
        raise ValueError(f"half-depth must be >= 1, got {m}")
    index = dict(zip(edges(params, 2 * m), itertools.count()))
    pairs = [[index[e] for e in _base_pair(params, hv)] for hv in edges(hat_shape(params), m)]
    roots, below = edge_lists(params, 2 * m)
    hat_roots, hat_below = edge_lists(hat_shape(params), m)

    def failures(tables, full: int) -> int:
        plus = [tables[u] & ~tables[v] for u, v in pairs]
        minus = [tables[v] & ~tables[u] for u, v in pairs]
        bad = 0
        for first, signed in (([tables[j] for j in roots], plus),
                              ([full & ~tables[j] for j in roots], minus)):
            rays = reach(below, list(zip(roots, first)), tables, True)
            paths = reach(hat_below, [(j, full) for j in hat_roots], signed, False)
            bad |= any_reached(rays) ^ any_reached(paths)
        return bad

    return failures


def phi_of_sigma(params: TreeParams, sigma: SigmaConfig) -> PhiConfig:
    """Image of a bond configuration on the transformed tree, as a dict.

    Each transformed edge takes the state of its upper base edge minus that of
    its lower one: + for (open, closed), - for (closed, open), 0 otherwise.
    """
    if sigma.depth % 2:
        raise OddDepthError(f"even depth required, got {sigma.depth}")
    m = sigma.depth // 2
    values = {}
    for hv in edges(hat_shape(params), m):
        upper, lower = _base_pair(params, hv)
        values[hv] = PhiValue(sigma.states[upper] - sigma.states[lower])
    return PhiConfig(depth=m, values=values)


# ---------------------------------------------------------------------------
# path witnesses and counts on explicit configurations

def _ends(shape, length: int, depth: int, labels: dict, label, first,
          alternate: bool) -> list[Address]:
    """The last-level edges, in child order, of the length-`length` paths that follow reach's rule.

    The configuration has depth `depth`; an edge is set when it carries
    `label`, and `first`, 1 or 0, pins the first edge as set or clear. Raises
    ValueError unless 1 <= length <= depth.
    """
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    if length > depth:
        raise ValueError(f"path length {length} exceeds the configuration depth {depth}")
    edge_list = edges(shape, length)
    roots, below = edge_lists(shape, length)
    tables = [int(labels[e] is label) for e in edge_list]
    start = [(j, 1 if first is None else int(tables[j] == first)) for j in roots]
    return [edge_list[j] for j, _ in reach(below, start, tables, alternate)]


def _witness(*args) -> list[Address] | None:
    """Vertices of the first of _ends' paths, or None."""
    ends = _ends(*args)
    return [ends[0][:n] for n in range(1, len(ends[0]) + 1)] if ends else None


def open_ray_witness(params: TreeParams, sigma: SigmaConfig, length: int) -> list[Address] | None:
    """Vertices of one descending all-open path of the given length, or None."""
    return _witness(params, length, sigma.depth, sigma.states, EdgeState.OPEN, None, False)


def zebra_ray_witness(
    params: TreeParams,
    sigma: SigmaConfig,
    length: int,
    first: EdgeState | None = None,
) -> list[Address] | None:
    """Vertices of one descending alternating path, or None.

    `first` pins the state of the first edge; None admits either state.
    """
    return _witness(params, length, sigma.depth, sigma.states, EdgeState.OPEN, first, True)


def signed_path_witness(
    params: TreeParams, phi: PhiConfig, length: int, sign: PhiValue
) -> list[Address] | None:
    """Descending constant-`sign` path of the given length in a transformed config."""
    return _witness(hat_shape(params), length, phi.depth, phi.values, sign, None, False)


def zebra_connected_count(params: TreeParams, sigma: SigmaConfig, depth: int) -> int:
    """Number of depth-`depth` vertices whose root path alternates open/closed."""
    return len(_ends(params, depth, sigma.depth, sigma.states, EdgeState.OPEN, None, True))


# ---------------------------------------------------------------------------
# serialization: one line per edge, "address,state", slash-separated indices

_STATE_CHARS = {EdgeState.OPEN: "O", EdgeState.CLOSED: "C"}
_CHAR_STATES = {"O": EdgeState.OPEN, "C": EdgeState.CLOSED}
_PHI_CHARS = {PhiValue.PLUS: "+", PhiValue.ZERO: "0", PhiValue.MINUS: "-"}


def format_address(v: Address) -> str:
    return "/".join(str(i) for i in v)


def parse_address(text: str) -> Address:
    parts = text.split("/")
    try:
        addr = tuple(int(t) for t in parts)
    except ValueError as exc:
        raise ValueError(f"bad address {text!r}") from exc
    if any(i < 0 for i in addr):
        raise ValueError(f"bad address {text!r}")
    return addr


def dump_sigma(sigma: SigmaConfig) -> str:
    lines = [
        f"{format_address(e)},{_STATE_CHARS[sigma.states[e]]}"
        for e in sorted(sigma.states)
    ]
    return "\n".join(lines) + "\n"


def dump_phi(phi: PhiConfig) -> str:
    lines = [
        f"{format_address(e)},{_PHI_CHARS[phi.values[e]]}" for e in sorted(phi.values)
    ]
    return "\n".join(lines) + "\n"


def load_sigma(text: str, params: TreeParams) -> SigmaConfig:
    """Parse a serialized configuration and validate it against the edge set."""
    states: dict[Address, EdgeState] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        addr_text, sep, state_text = line.partition(",")
        if not sep or state_text not in _CHAR_STATES:
            raise ValueError(f"line {lineno}: expected 'address,O|C', got {raw!r}")
        addr = parse_address(addr_text)
        if addr in states:
            raise ValueError(f"line {lineno}: duplicate edge {addr_text}")
        states[addr] = _CHAR_STATES[state_text]
    if not states:
        raise ValueError("no edges found")
    depth = max(len(a) for a in states)
    if len(states) != edge_count(params, depth):  # before the truncation's edges are listed
        raise ValueError(f"{len(states)} edges, but the depth-{depth} truncation has "
                         f"{edge_count(params, depth)}")
    expected = set(edges(params, depth))
    if set(states) != expected:
        missing = sorted(expected - set(states))[:3]
        extra = sorted(set(states) - expected)[:3]
        raise ValueError(
            f"edge set does not match the depth-{depth} truncation "
            f"(missing e.g. {missing}, extra e.g. {extra})"
        )
    return SigmaConfig(depth=depth, states=states)
