"""Address arithmetic on truncated rooted trees and the even-level pair transform.

A vertex is a tuple of child indices (the root is the empty tuple) and an edge
is identified by its lower endpoint, so the tree is never materialized: every
structural question is answered by arithmetic on addresses. The transform maps
bond configurations on the order-k tree to signed configurations on the tree
over its even levels, whose interior branching order is k^2; each transformed
edge covers two consecutive base edges.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .params import TreeParams

Address = tuple[int, ...]

ROOT: Address = ()

#: Exhaustive enumeration is capped at this many edges (2**22 configurations).
MAX_ENUM_EDGES = 22


class TooLargeError(ValueError):
    """The truncation is too large for exhaustive treatment."""


class InvalidHatEdgeError(ValueError):
    """The vertex pair is not an edge of the transformed tree."""


class OddDepthError(ValueError):
    """The transform is defined on even-depth truncations only."""


class EdgeState(enum.IntEnum):
    CLOSED = 0
    OPEN = 1

    def flipped(self) -> "EdgeState":
        return EdgeState.CLOSED if self is EdgeState.OPEN else EdgeState.OPEN


class PhiValue(enum.IntEnum):
    MINUS = -1
    ZERO = 0
    PLUS = 1


@dataclass
class SigmaConfig:
    """Bond states over every edge of a depth-truncated tree."""

    depth: int
    states: dict[Address, EdgeState]


@dataclass
class PhiConfig:
    """Signed pair states over every edge of the depth-truncated transformed tree."""

    depth: int
    values: dict[Address, PhiValue]


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
    return sum(level_size(params, n) for n in range(1, depth + 1))


def edges(params: TreeParams, depth: int) -> list[Address]:
    """Every edge of the depth-truncation as lower endpoints, lexicographic."""
    out: list[Address] = []
    for n in range(1, depth + 1):
        out.extend(vertices_at_level(params, n))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# transformed-tree addressing

def hat_root_degree(params: TreeParams) -> int:
    return params.root_degree * params.k


def hat_degree(params: TreeParams, hv: Address) -> int:
    return hat_root_degree(params) if not hv else params.k * params.k


def hat_children(params: TreeParams, hv: Address) -> list[Address]:
    return [hv + (i,) for i in range(hat_degree(params, hv))]


def hat_vertices_at_level(params: TreeParams, m: int) -> Iterator[Address]:
    if m == 0:
        yield ROOT
        return
    ranges = [range(hat_root_degree(params))]
    ranges += [range(params.k * params.k)] * (m - 1)
    yield from itertools.product(*ranges)


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


def phi_of_sigma(params: TreeParams, sigma: SigmaConfig) -> PhiConfig:
    """Image of a bond configuration on the transformed tree.

    A transformed edge takes +1 when its base pair is (open, closed), -1 for
    (closed, open), and 0 when the two base states agree; the first member of
    the pair is the base edge closer to the root.
    """
    if sigma.depth % 2:
        raise OddDepthError(f"even depth required, got {sigma.depth}")
    if sigma.depth < 2:
        raise ValueError(f"depth must be >= 2, got {sigma.depth}")
    states = sigma.states
    values: dict[Address, PhiValue] = {}
    for m in range(1, sigma.depth // 2 + 1):
        for hv in hat_vertices_at_level(params, m):
            z = hat_to_base(params, hv)
            s1 = states[z[:-1]]
            s2 = states[z]
            if s1 == s2:
                values[hv] = PhiValue.ZERO
            elif s1 is EdgeState.OPEN:
                values[hv] = PhiValue.PLUS
            else:
                values[hv] = PhiValue.MINUS
    return PhiConfig(depth=sigma.depth // 2, values=values)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def _enumerable_edges(params: TreeParams, depth: int) -> list[Address]:
    n_edges = edge_count(params, depth)
    if n_edges > MAX_ENUM_EDGES:
        raise TooLargeError(
            f"{n_edges} edges exceeds the enumeration cap of {MAX_ENUM_EDGES}"
        )
    return edges(params, depth)


def enumerate_configs(params: TreeParams, depth: int) -> Iterator[SigmaConfig]:
    """Yield every bond configuration of the depth-truncation exactly once.

    Reproducibility contract: the configurations come in increasing order of
    their code, an integer below 2**edge_count whose bit j (least significant
    first) is the state, 1 open, of edge j of edges(params, depth), the
    lexicographically sorted edge list. The code-th configuration yielded is
    the one path_ends and brute-force sums see as `code`.
    """
    edge_list = _enumerable_edges(params, depth)
    for code in range(1 << len(edge_list)):
        states = {e: EdgeState((code >> j) & 1) for j, e in enumerate(edge_list)}
        yield SigmaConfig(depth=depth, states=states)


def edge_lists(params: TreeParams, depth: int) -> tuple[list[int], list[list[int]]]:
    """Child-edge indices of the depth-truncation, for configurations held as codes.

    Edge j is edges(params, depth)[j]. Returns the indices of the edges below
    the root and, for each edge j, the indices of the edges just below its
    lower endpoint (empty on the last level). Raises TooLargeError past
    MAX_ENUM_EDGES edges, before any edge is listed.
    """
    edge_list = _enumerable_edges(params, depth)
    index = {e: j for j, e in enumerate(edge_list)}
    below = [
        [index[c] for c in children(params, e)] if len(e) < depth else []
        for e in edge_list
    ]
    return [index[c] for c in children(params, ROOT)], below


def path_ends(roots: list[int], below: list[list[int]], code: int, alternate: bool) -> int:
    """Number of last-level edges whose path from the root follows the rule in `code`.

    `roots` and `below` come from edge_lists and `code` is a configuration
    (bit j is the state of edge j). With alternate=False every edge of the
    path must be open (an open ray); with alternate=True the first edge may
    take either state and every later edge the opposite of the one above it
    (a zebra path). The walk goes one level at a time.
    """
    if alternate:
        frontier = roots
        while frontier and below[frontier[0]]:
            frontier = [c for j in frontier for c in below[j] if (code >> c ^ code >> j) & 1]
    else:
        frontier = [j for j in roots if code >> j & 1]
        while frontier and below[frontier[0]]:
            frontier = [c for j in frontier for c in below[j] if code >> c & 1]
    return len(frontier)


# ---------------------------------------------------------------------------
# path witnesses on explicit configurations

def _first_path(kids, labels, length: int, want, follow) -> list[Address] | None:
    """Vertices of the first descending path of `length` edges, in child order, or None.

    `kids(v)` lists the children of v and `labels` maps each edge (its lower
    endpoint) to its state. The first edge must carry `want` (None admits any
    state); below an edge carrying s, the next edge must carry follow(s).
    """
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")

    def search(v: Address, want, remaining: int) -> list[Address] | None:
        for c in kids(v):
            s = labels[c]
            if want is None or s is want:
                if remaining == 1:
                    return [c]
                tail = search(c, follow(s), remaining - 1)
                if tail is not None:
                    return [c] + tail
        return None

    return search(ROOT, want, length)


def open_ray_witness(params: TreeParams, sigma: SigmaConfig, length: int) -> list[Address] | None:
    """Vertices of one descending all-open path of the given length, or None."""
    return _first_path(partial(children, params), sigma.states, length, EdgeState.OPEN,
                       lambda s: s)


def zebra_ray_witness(
    params: TreeParams,
    sigma: SigmaConfig,
    length: int,
    first: EdgeState | None = None,
) -> list[Address] | None:
    """Vertices of one descending alternating path, or None.

    `first` pins the state of the first edge; None admits either state.
    """
    return _first_path(partial(children, params), sigma.states, length, first,
                       EdgeState.flipped)


def zebra_connected_count(params: TreeParams, sigma: SigmaConfig, depth: int) -> int:
    """Number of depth-`depth` vertices whose root path alternates open/closed."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    states = sigma.states

    def walk(v: Address, required: EdgeState | None, remaining: int) -> int:
        total = 0
        for c in children(params, v):
            s = states[c]
            if required is None or s is required:
                if remaining == 1:
                    total += 1
                else:
                    total += walk(c, s.flipped(), remaining - 1)
        return total

    return walk(ROOT, None, depth)


def signed_path_witness(
    params: TreeParams, phi: PhiConfig, length: int, sign: PhiValue
) -> list[Address] | None:
    """Descending constant-`sign` path of the given length in a transformed config."""
    return _first_path(partial(hat_children, params), phi.values, length, sign,
                       lambda s: s)


def correspondence_holds(params: TreeParams, sigma: SigmaConfig) -> bool:
    """Check the alternating-ray / constant-sign-path correspondence for one config.

    For a depth-2m configuration: an alternating ray of length 2m whose first
    edge is open exists exactly when a length-m all-plus path exists in the
    image, and likewise closed/minus.
    """
    phi = phi_of_sigma(params, sigma)
    m = phi.depth
    open_ray = zebra_ray_witness(params, sigma, 2 * m, first=EdgeState.OPEN) is not None
    plus_path = signed_path_witness(params, phi, m, PhiValue.PLUS) is not None
    closed_ray = zebra_ray_witness(params, sigma, 2 * m, first=EdgeState.CLOSED) is not None
    minus_path = signed_path_witness(params, phi, m, PhiValue.MINUS) is not None
    return open_ray == plus_path and closed_ray == minus_path


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
    expected = set(edges(params, depth))
    if set(states) != expected:
        missing = sorted(expected - set(states))[:3]
        extra = sorted(set(states) - expected)[:3]
        raise ValueError(
            f"edge set does not match the depth-{depth} truncation "
            f"(missing e.g. {missing}, extra e.g. {extra})"
        )
    return SigmaConfig(depth=depth, states=states)
