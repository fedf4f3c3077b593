"""Truncated rooted trees as truth tables: the exhaustive oracle and the even-level pair transform.

A vertex is a tuple of child indices (the root is the empty tuple) and an edge
is identified by its lower endpoint. A configuration set is one truth table
per edge j of edges(params, depth), an int whose bit c is the edge's state, 1
open, in configuration c; reach applies the path rule to all of them at once,
walking the child-edge indices of edge_lists. A single configuration is a set
of one-bit tables, as load_tables reads it and config_text writes it.

brute_force_probability, the oracle, sums an event over every configuration
of a small truncation, a block of codes per reach.

The transform maps bond configurations on the order-k tree to signed
configurations on the tree over its even levels, whose interior branching
order is k^2; each transformed edge covers two consecutive base edges. On
truth tables the image is two tables per transformed edge, plus and minus
(pair_transform).
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Iterator

from .params import EventKind, EventSpec, TooLargeError, TreeParams, check_probability

Address = tuple[int, ...]

ROOT: Address = ()

#: Exhaustive enumeration is capped at this many edges (2**22 configurations).
MAX_ENUM_EDGES = 22


class InvalidHatEdgeError(ValueError):
    """The vertex pair is not an edge of the transformed tree."""


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
    return tuple(i for h in hv for i in divmod(h, params.k))


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

def edge_lists(params: TreeParams, depth: int) -> tuple[list[Address], list[int], list[list[int]]]:
    """The edges of the depth-truncation and their child-edge indices, for truth tables.

    Returns edges(params, depth), whose edge j is table j, the indices of the
    edges below the root and, for each edge j, the indices of the edges just
    below its lower endpoint (empty on the last level).
    """
    edge_list = edges(params, depth)
    index = dict(zip(edge_list, itertools.count()))
    below = [
        [index[c] for c in children(params, e)] if len(e) < depth else []
        for e in edge_list
    ]
    return edge_list, [index[c] for c in children(params, ROOT)], below


def check_enumerable(params: TreeParams, depth: int) -> int:
    """Edge count of the depth-truncation; TooLargeError past MAX_ENUM_EDGES."""
    n_edges = edge_count(params, depth)
    if n_edges > MAX_ENUM_EDGES:
        raise TooLargeError(f"{n_edges} edges exceeds the enumeration cap of {MAX_ENUM_EDGES}")
    return n_edges


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
# exhaustive-enumeration oracle

#: Codes judged per truth-table pass: the low ORACLE_BLOCK_BITS edges take every
#: state inside a block of 2**ORACLE_BLOCK_BITS codes, the higher edges one.
ORACLE_BLOCK_BITS = 16


@functools.lru_cache(maxsize=None)
def block_tables(bits: int) -> tuple[int, ...]:
    """Truth tables of the low `bits` edges over a block of 2**bits codes: bit c of table j is bit j of c.

    Built by doubling: codes 2**j .. 2**(j+1)-1 repeat codes 0 .. 2**j-1 with
    edge j set. Independent of the tree, the event and p, so one build serves
    every oracle call.
    """
    tables: list[int] = []
    for j in range(bits):
        half = 1 << j
        tables = [t | t << half for t in tables] + [((1 << half) - 1) << half]
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def _popcount_classes(bits: int) -> tuple[int, ...]:
    """For h = 0 .. bits, the table of the codes of a block of 2**bits codes with h bits set.

    Built by doubling: a code 2**j + c has one bit more than c, so
    C'_h = C_h | C_{h-1} << 2**j.
    """
    classes = [1]
    for j in range(bits):
        classes = [low | high << (1 << j) for low, high in zip(classes + [0], [0] + classes)]
    return tuple(classes)


def _multiplicity_planes(params: TreeParams, event: EventSpec, n_edges: int, bits: int):
    """Each block's multiplicities, every code of the block judged in one pass over the edges.

    Blocks come in code order; block b holds the codes b * 2**bits + c for
    c < 2**bits, and reach runs on their truth tables. Yields per block the
    popcount of b and the multiplicity planes: bit c of plane i is bit i of
    the multiplicity of code c, 1 or 0 for a ray event and the number of
    zebra-connected last-level edges for the counting event.
    """
    _, roots, below = edge_lists(params, event.depth)
    low = block_tables(bits)
    full = (1 << (1 << bits)) - 1
    start = [(j, full) for j in roots]
    alternate = event.kind is not EventKind.OPEN_RAY
    count = event.kind is EventKind.ZEBRA_COUNT
    for block in range(1 << (n_edges - bits)):
        tables = low + tuple(full if block >> i & 1 else 0 for i in range(n_edges - bits))
        ends = reach(below, start, tables, alternate)
        planes: list[int] = []
        if count:
            for _, carry in ends:  # bit-sliced ripple-carry add of one bit per code
                for i, plane in enumerate(planes):
                    planes[i], carry = plane ^ carry, plane & carry
                if carry:
                    planes.append(carry)
        else:
            planes.append(any_reached(ends))
        yield block.bit_count(), planes


def brute_force_probability(
    params: TreeParams, p: float, event: EventSpec, exact: bool = False
):
    """Event probability by summation over all configurations of the truncation.

    For the counting event the exact expectation of X_n is returned instead of
    a probability. The result is the correctly rounded exact sum for the
    binary expansion of p = a / b, or with exact=True that sum as a Fraction:
    a configuration with h of its n edges open weighs a**h * (b-a)**(n-h) /
    b**n, so the multiplicities, tallied as integers by h, make one integer
    numerator over b**n, divided once.

    Configuration `code` runs over 0 .. 2**n - 1 in counting order, bit j of
    `code` (least significant first) holding the state, 1 open, of edge j of
    edges. The truth tables of a block of codes go through reach in one
    big-int step per edge (_multiplicity_planes), and the multiplicities are
    tallied by popcount class.
    """
    check_probability(p)
    n_edges = check_enumerable(params, event.depth)
    bits = min(n_edges, ORACLE_BLOCK_BITS)
    classes = _popcount_classes(bits)
    tally = [0] * (n_edges + 1)
    for high, planes in _multiplicity_planes(params, event, n_edges, bits):
        for h, members in enumerate(classes):
            tally[high + h] += sum((plane & members).bit_count() << i
                                   for i, plane in enumerate(planes))
    a, b = p.as_integer_ratio()
    num = sum(mult * a**opens * (b - a) ** (n_edges - opens)
              for opens, mult in enumerate(tally) if mult)
    if exact:
        from fractions import Fraction

        return Fraction(num, b**n_edges)
    return num / b**n_edges


# ---------------------------------------------------------------------------
# the pair transform

def _base_pair(params: TreeParams, hv: Address) -> tuple[Address, Address]:
    """The base edges, upper first, that the transformed edge with lower endpoint hv covers."""
    return hat_edge_decompose(params, hat_to_base(params, hv[:-1]), hat_to_base(params, hv))


def pair_transform(params: TreeParams, m: int):
    """The depth-2m truncation, its depth-m image and the map between their truth tables.

    Returns edge_lists(params, 2m), edge_lists(hat_shape(params), m) and
    image(tables), which maps one table per base edge to a plus and a minus
    table per transformed edge: + where its base pair (_base_pair) is (open,
    closed), - where it is (closed, open). The pair indices are built once, here.
    """
    if m < 1:
        raise ValueError(f"half-depth must be >= 1, got {m}")
    base, hat = edge_lists(params, 2 * m), edge_lists(hat_shape(params), m)
    index = dict(zip(base[0], itertools.count()))
    pairs = [[index[e] for e in _base_pair(params, hv)] for hv in hat[0]]

    def image(tables) -> tuple[list[int], list[int]]:
        return ([tables[u] & ~tables[v] for u, v in pairs],
                [tables[v] & ~tables[u] for u, v in pairs])

    return base, hat, image


def correspondence_searches(params: TreeParams, m: int):
    """The four searches that the alternating-ray / constant-sign-path correspondence pairs.

    Returns the edges of the depth-2m truncation, those of its depth-m image
    (pair_transform) and searches(tables, full). That takes one table per base
    edge, bit c the edge's state in configuration c, and `full`, the
    configurations searched. It returns the image's plus and minus tables, and
    reach's ends for alternating rays of length 2m whose first edge is open,
    those whose first edge is closed, and length-m all-plus and all-minus
    paths in the image: the correspondence pairs the first with the third and
    the second with the fourth.
    """
    (edge_list, roots, below), (hat_edges, hat_roots, hat_below), image = pair_transform(params, m)

    def searches(tables, full: int):
        plus, minus = image(tables)
        hat_start = [(j, full) for j in hat_roots]
        return (plus, minus), (
            reach(below, [(j, tables[j]) for j in roots], tables, True),
            reach(below, [(j, full & ~tables[j]) for j in roots], tables, True),
            reach(hat_below, hat_start, plus, False),
            reach(hat_below, hat_start, minus, False),
        )

    return edge_list, hat_edges, searches


def transform_check(params: TreeParams, m: int):
    """The correspondence as a test: failures(tables, full), on the arguments of
    correspondence_searches' searches, returns the configurations where an
    alternating ray with open first edge exists and an all-plus path does not,
    or the other way round, and likewise closed/minus.
    """
    searches = correspondence_searches(params, m)[2]

    def failures(tables, full: int) -> int:
        zebra_open, zebra_closed, plus, minus = map(any_reached, searches(tables, full)[1])
        return (zebra_open ^ plus) | (zebra_closed ^ minus)

    return failures


def first_path(edge_list: list[Address], ends: list[tuple[int, int]]) -> list[Address] | None:
    """The vertices, nearest the root first, of the path to the first edge that reach
    reached, in child order, or None when it reached none."""
    if not ends:
        return None
    end = edge_list[ends[0][0]]
    return [end[:n] for n in range(1, len(end) + 1)]


# ---------------------------------------------------------------------------
# serialization: one line per edge, "address,state", slash-separated indices

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


def config_text(edge_list: list[Address], states) -> str:
    """One "address,state" line per edge of edge_list, each with its state character, in order."""
    return "\n".join(f"{format_address(e)},{c}" for e, c in zip(edge_list, states))


def load_tables(text: str, params: TreeParams) -> tuple[int, list[int]]:
    """Parse "address,O|C" lines into the depth of their truncation and its one-bit tables.

    The edges must be those of a depth-truncation, each listed once, in any
    order; table j is the state, 1 open, of edge j of edges(params, depth).
    """
    states: dict[Address, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        addr_text, sep, state_text = line.partition(",")
        if not sep or state_text not in ("O", "C"):
            raise ValueError(f"line {lineno}: expected 'address,O|C', got {raw!r}")
        addr = parse_address(addr_text)
        if addr in states:
            raise ValueError(f"line {lineno}: duplicate edge {addr_text}")
        states[addr] = int(state_text == "O")
    if not states:
        raise ValueError("no edges found")
    depth = max(len(a) for a in states)
    if len(states) != edge_count(params, depth):  # before the truncation's edges are listed
        raise ValueError(f"{len(states)} edges, but the depth-{depth} truncation has "
                         f"{edge_count(params, depth)}")
    edge_list = edges(params, depth)
    if set(states) != set(edge_list):
        missing = sorted(set(edge_list) - set(states))[:3]
        extra = sorted(set(states) - set(edge_list))[:3]
        raise ValueError(
            f"edge set does not match the depth-{depth} truncation "
            f"(missing e.g. {missing}, extra e.g. {extra})"
        )
    return depth, [states[e] for e in edge_list]
