"""Packed-lane SplitMix64 kernel: the bonds of many trials per big-integer step.

Lane j of a packed int holds one 64-bit word in bits [128j, 128j+64). The 64
bits above each word are cleared after every step, so the product of a word
and a 64-bit constant never reaches the next lane, and each step of the
SplitMix64 finalizer runs once, in C, over all the lanes of a round. Words go
in and come out through array('Q') buffers.

A round expands a list of vertices, each in its own trial: for child i of a
vertex with address key x in the trial with base word b, the child's key is
rng.child_key(x, i) and its bond is open exactly when rng.TrialStream.is_open
says so (see open_threshold). Outcomes are therefore those of the rng
contract, bond for bond: a trial's outcome depends neither on the other
trials that share its rounds nor on the order in which its vertices are
expanded.

Only the open test depends on p, never a word, and it is made in one place:
OpenTable reads the open bits of a group of up to GROUP probabilities from
each word's top byte. Both walks take their rounds through Rounds.expand, the
existence search with a group of one p, the counting walk with a group of
grid points, so one walk over the union of their zebra cones counts them all.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Sequence
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter, not_, sub

from .params import TooLargeError, TreeParams
from .rng import _GOLDEN, _MASK, _TO_UNIT, ROOT_KEY, mix64

#: Vertices expanded per round of either walk at most (see round_width). An
#: existence search expands one vertex of each trial of a batch per round, so
#: this is also the trials it searches together (search_batch); a longer chunk
#: runs in several batches. A batch advances its trials in lockstep, so it must
#: hold many trials to spread the fixed cost of a round; its per-trial stacks
#: and its lanes grow with the batch.
TRIAL_BATCH = 1024
#: Lanes one round may span, unless one vertex's children alone span more. A
#: search batch holds at most about MAX_ROUND_LANES x depth stack entries, and
#: the counting walk's pool, expanded deepest first, about as many vertices.
#: A 1,024-trial zebra-ray estimate at p = 1/2 peaked at 212 MB at k = 512,
#: 204 MB at k = 2,048 and 215 MB at k = 20,000 to depth 2, and at 476 MB at
#: k = 512 and 506 MB at k = 2,048 to depth 8 (Python 3.11).
MAX_ROUND_LANES = 2**19
#: Probabilities one counting walk serves: the bits of a byte.
GROUP = 8

_LANE = 16  # bytes per lane
_SWAP = sys.byteorder != "little"
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_LOW = (1 << 56) - 1  # the bits of a word below its top byte
_BITS = [bytes(b >> j & 1 for b in range(256)) for j in range(GROUP)]  # bit j of a byte


def round_width(arity: int) -> int:
    """Vertices per round of a walk whose vertices have `arity` children: at most
    TRIAL_BATCH, and at most MAX_ROUND_LANES lanes, but one vertex at least."""
    return max(1, min(TRIAL_BATCH, MAX_ROUND_LANES // arity))


def search_batch(params: TreeParams) -> int:
    """Trials per batch of an existence search, whose widest round expands one
    vertex of every trial of the batch. TooLargeError when one vertex's
    children alone pass MAX_ROUND_LANES."""
    arity = max(params.k, params.root_degree)
    if arity > MAX_ROUND_LANES:
        raise TooLargeError(f"a vertex at k={params.k} has {arity} children, past the bound "
                            f"of {MAX_ROUND_LANES} lanes per round")
    return round_width(arity)


def open_threshold(p: float) -> int:
    """The least integer y with y * 2**-64 >= p, in the float arithmetic of is_open.

    TrialStream.is_open(key, p) tests word * 2**-64 < p with the word rounded
    to a double. Rounding is monotone, so the open words are exactly 0 .. y-1:
    is_open holds if and only if word < y. y = 0 at p = 0, and y < 2**64 for
    every p <= 1, since (2**64 - 1) * 2**-64 rounds to 1.0.

    p * 2**64 is exact, and its ceiling c passes the test. A word rounds by at
    most 2**10 (half the spacing of doubles below 2**64), so every word below
    c - 2**11 fails it; y is found by bisection between the two.
    """
    hi = math.ceil(p * 2.0**64)
    lo = max(0, hi - 2**11)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * _TO_UNIT >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _lane_bytes(*words: int) -> bytes:
    return b"".join(w.to_bytes(_LANE, "little") for w in words)


def lane_keys(lanes: bytes) -> array:
    """The low words of 16-byte lanes: the child keys of Rounds.expand's lanes."""
    buf = array("Q")
    buf.frombytes(lanes)
    if _SWAP:
        buf.byteswap()
    return buf[::2]


def lane_mask(n: int) -> int:
    """2**64 - 1 in each of n lanes."""
    return int.from_bytes(_lane_bytes(_MASK) * n, "little")


def mix_lanes(x: int, mask: int) -> int:
    """rng.mix64 of every lane of x, for a mask of at least as many lanes.

    Each xor-shift pulls bits of the next lane into the gap above a word and
    each product fills the gap, so both are masked back to 64 bits. An & is
    as long as its shorter operand, so a longer mask costs nothing.
    """
    x = ((x ^ x >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ x >> 27) & mask) * 0x94D049BB133111EB & mask
    return (x ^ x >> 31) & mask


class OpenTable:
    """The open bits of a group of at most GROUP probabilities, bit j for ps[j],
    from the bond words in bytes 8-15 of 16-byte lanes: the kernel's open test.

    Bit j of table[b] is set when every word with top byte b is below
    y_j = open_threshold(ps[j]). The words with top byte y_j >> 56 lie on both
    sides of y_j unless y_j is a multiple of 2**56, so that byte is undecided
    for bit j: its lanes are tested whole, word < y_j. A round of random words
    has about len(ps) / 256 of its lanes undecided.
    """

    def __init__(self, ps: Sequence[float]) -> None:
        if not 1 <= len(ps) <= GROUP:
            raise ValueError(f"a group holds 1 to {GROUP} probabilities, got {len(ps)}")
        ys = list(map(open_threshold, ps))
        self.table = bytes(sum(1 << j for j, y in enumerate(ys) if (b + 1) << 56 <= y)
                           for b in range(256))
        self.undecided: defaultdict[int, list] = defaultdict(list)
        for j, y in enumerate(ys):
            if y & _LOW:
                self.undecided[y >> 56].append((1 << j, y))

    def __call__(self, lanes: bytes) -> bytearray:
        top = bytearray(lanes[15::_LANE])
        bits = top.translate(self.table)
        for byte, tests in self.undecided.items():
            i = top.find(byte)
            while i >= 0:
                word = int.from_bytes(lanes[_LANE * i + 8 : _LANE * i + 16], "little")
                for bit, y in tests:
                    if word < y:
                        bits[i] |= bit
                i = top.find(byte, i + 1)
        return bits


class Rounds:
    """Expands vertex lists for one walk over a group of probabilities ps. Its
    lane constants are built for the widest round expanded so far, doubling as
    the rounds grow, and cut down to each round."""

    def __init__(self, ps: Sequence[float]) -> None:
        self.opens = OpenTable(ps)
        self.lanes = self.mask = 0
        self.steps: dict[int, int] = {}

    def fit(self, n: int) -> None:
        """Grow the constants to at least n lanes, to twice their width or more."""
        if n <= self.lanes:
            return
        self.lanes = max(n, 2 * self.lanes)
        self.mask = lane_mask(self.lanes)
        self.steps = {}

    def expand(self, keys: array, bases: array, arity: int) -> tuple[bytes, bytearray]:
        """Every child of the vertices as a 16-byte lane, in parent-major order, and its open bits.

        Vertex j has address key keys[j] in the trial with base word bases[j].
        Lane j*arity + i holds its child i's key, child_key(keys[j], i), in
        bytes 0-7 and that child's bond word, mix64(bases[j] ^ key), in bytes
        8-15; byte j*arity + i of the open bits is the OpenTable of ps there.
        """
        n = len(keys) * arity
        self.fit(n)
        buf = array("Q", bytes(_LANE * n))
        for i in range(arity):
            buf[2 * i :: 2 * arity] = keys
            buf[2 * i + 1 :: 2 * arity] = bases
        if _SWAP:
            buf.byteswap()
        both = int.from_bytes(buf, "little")
        mask = self.mask
        steps = self.steps.get(arity)
        if steps is None:
            per = _lane_bytes(*((i + 1) * _GOLDEN & _MASK for i in range(arity)))
            steps = self.steps[arity] = int.from_bytes(per * (self.lanes // arity), "little")
        child = mix_lanes((both & mask) ^ (steps >> 128 * (self.lanes // arity * arity - n)), mask)
        word = mix_lanes((both >> 64 & mask) ^ child, mask)
        lanes = (child | word << 64).to_bytes(_LANE * n, "little")
        return lanes, self.opens(lanes)


def _int(flags: bytes) -> int:
    return int.from_bytes(flags, "little")


def _repeat(items, times: int):
    """Each item of a list, an array or a bytes-like once per child; bytes come back as a
    bytearray."""
    out = (bytearray(items) if isinstance(items, bytes) else items) * times
    for i in range(times):
        out[i::times] = items
    return out


def _wanted(flags: bytes, states: bytes, arity: int) -> bytes:
    """1 for each child whose bond is the opposite of its parent's edge."""
    return (_int(flags) ^ _int(_repeat(states, arity))).to_bytes(len(flags), "little")


def ray_hits(params: TreeParams, p: float, n: int, bases: Sequence[int],
             alternate: bool, stop: tuple[int, int] | None = None) -> set[int]:
    """Base words of the trials with a descending path of n edges that follows the rule.

    With alternate=False every edge of the path is open (an open ray); with
    alternate=True the first edge takes either state and each later edge the
    opposite of the one above it (a zebra ray).

    A lockstep depth-first search: each round expands one vertex, the hot
    lane, of every trial still searching, by Rounds.expand with the group
    [p]. The hot lane moves to its first wanted child, and the other wanted
    children go on the trial's stack, deepest on top, as (key, state, edges
    left below it) entries. A trial whose hot lane has no wanted child
    resumes from its stack, and a trial stops at its first path; one whose
    stack is empty as well is a miss.

    A round makes Python objects only for the lanes it keeps. Byte masks mark
    the descend lanes (each vertex's first wanted child) and the push lanes
    (its other wanted children); compress over a list of lane indices turns
    each mask into indices without making an int per lane, and one itemgetter
    of those indices gathers the kept keys and open bits. A trial has at most
    one hot lane and k <= root_degree, so the first round is the widest and
    the list is built once, to its width. Each hot lane's trial (its base
    word), that trial's stack and the edges left below the lane's children
    are held in lists, and a stack entry needs no owner.

    With stop = (hits, misses) the search ends after the first round by which
    at least `hits` trials have hit or at least `misses` have missed, and the
    hits so far, a subset of the full result, are returned.
    """
    k, root_degree = params.k, params.root_degree
    rounds = Rounds([p])
    stop_hits, stop_misses = stop or (len(bases) + 1, len(bases) + 1)
    misses = 0
    hit: set[int] = set()
    owners = list(bases)  # the trial of each hot lane
    piles = [[] for _ in owners]  # and that trial's stack
    keys = array("Q", [ROOT_KEY]) * len(owners)
    states = bytearray()  # the state of each hot lane's own edge; none at the root
    left = [n - 1] * len(owners)  # edges left below each hot lane's children
    index = list(range(len(bases) * root_degree))  # the lanes of the widest round, the first
    arity = root_degree
    while keys:
        m = len(keys)
        width = m * arity
        lanes, flags = rounds.expand(keys, array("Q", owners), arity)
        child = lane_keys(lanes)
        del lanes  # not held while the next round is expanded
        if not alternate:
            wanted = flags
        elif states:
            wanted = _wanted(flags, states, arity)
        else:  # below the root either state starts a zebra path
            wanted = b"\x01" * width
        first = bytearray(width)  # each vertex's first wanted child
        seen = 0  # vertices with a wanted child
        for i in range(arity):
            lane = _int(wanted[i::arity])
            first[i::arity] = (lane & ~seen).to_bytes(m, "little")
            seen |= lane
        first = _int(first)
        rest = _int(wanted) ^ first  # each vertex's other wanted children
        leaf = _int(bytes(map(not_, left))) if 0 in left else 0
        going = seen & ~leaf
        if leaf:  # a wanted child of a leaf ends a path, and no child of a leaf is kept
            hit.update(compress(owners, (seen & leaf).to_bytes(m, "little")))
            below = _int(_repeat(going.to_bytes(m, "little"), arity))
            first &= below
            rest &= below
        going = going.to_bytes(m, "little")
        # two leading 0s make even one lane's gather a tuple: [2:] drops them, and
        # [:1:-1] drops them and reverses
        if rest:  # pushed last sibling first, so that the first is resumed first
            get = itemgetter(0, 0, *compress(index, rest.to_bytes(width, "little")))
            entries = zip(get(child)[:1:-1], get(flags)[:1:-1], get(_repeat(left, arity))[:1:-1])
            any(map(list.append, get(_repeat(piles, arity))[:1:-1], entries))
        get = itemgetter(0, 0, *compress(index, first.to_bytes(width, "little")))
        stuck = seen.to_bytes(m, "little").translate(_FLIP)
        resumed = []  # the stacks that trials with no wanted child resume from
        if 1 in stuck:
            stuck_piles = list(compress(piles, stuck))
            resumed_owners = list(compress(compress(owners, stuck), stuck_piles))
            resumed = list(filter(None, stuck_piles))
            misses += len(stuck_piles) - len(resumed)  # an empty stack is a miss
        keys = array("Q", get(child)[2:])
        states = bytearray(get(flags)[2:])
        owners = list(compress(owners, going))
        piles = list(compress(piles, going))
        left = list(compress(left, going))
        if resumed:
            owners.extend(resumed_owners)
            piles += resumed
            popped_keys, popped_states, popped_left = zip(*map(list.pop, resumed))
            keys.extend(popped_keys)
            states.extend(popped_states)
            left.extend(popped_left)
        left = list(map(sub, left, repeat(1)))
        if len(hit) >= stop_hits or misses >= stop_misses:
            break
        arity = k
    return hit


def zebra_counts(params: TreeParams, ps: Sequence[float], n: int,
                 bases: Sequence[int]) -> list[Counter]:
    """For each p of ps and each trial, by base word, the depth-n vertices joined
    to the root by a zebra path; trials with no such vertex are absent.

    One walk serves the group: a bond's word does not depend on p, only its
    open threshold does, so each round (Rounds.expand) mixes every child key
    and bond word once and reads the open bits of all of ps from it. A pending
    vertex carries a mask byte, bit j set when a zebra path at ps[j] reaches
    it, and a state byte, bit j its own edge's state at ps[j], side by side
    in one 'H' item; a child is pending when its mask is not empty. The
    pending vertices of all trials, roots included, are pooled by the edges
    left below them and expanded deepest first, at most round_width(arity) per
    round, so the pool stays small.
    """
    k, root_degree = params.k, params.root_degree
    root_width, width = round_width(root_degree), round_width(k)
    rounds = Rounds(ps)
    counts = [Counter() for _ in ps]
    index = []  # lane indices, grown to the widest round that keeps lanes
    bases = array("Q", bases)
    pending = {n: (array("Q", [ROOT_KEY]) * len(bases), bases,
                   array("H", bytes([(1 << len(ps)) - 1, 0])) * len(bases))}
    while pending:
        remaining = min(pending)
        arity, take = (root_degree, root_width) if remaining == n else (k, width)
        pool = pending[remaining]
        keys, owners, marks = (part[-take:] for part in pool)
        if len(keys) == len(pool[0]):
            del pending[remaining]
        else:
            for part in pool:
                del part[-take:]
        lanes, flags = rounds.expand(keys, owners, arity)
        marks = marks.tobytes()
        masks = _repeat(marks[0::2], arity)
        if remaining == n:  # below the root either state starts a zebra path
            wanted = masks
        else:
            states = _repeat(marks[1::2], arity)
            wanted = (_int(masks) & (_int(flags) ^ _int(states))).to_bytes(len(flags), "little")
        if remaining == 1:  # a leaf lane's owner, boxed once for all of ps
            owners = _repeat(owners.tolist(), arity)
            for bit, counter in zip(_BITS, counts):
                counter.update(compress(owners, wanted.translate(bit)))
            continue
        if any(wanted):  # compress keeps the lanes of a nonzero mask
            index += range(len(index), len(flags))
            get = itemgetter(0, 0, *compress(index, wanted))  # [2:] as in ray_hits
            marks = bytearray(2 * len(flags))
            marks[0::2], marks[1::2] = wanted, flags
            store = pending.setdefault(remaining - 1, (array("Q"), array("Q"), array("H")))
            for part, items in zip(store, (lane_keys(lanes), _repeat(owners, arity),
                                           array("H", marks))):
                part.extend(array(part.typecode, get(items)[2:]))  # sized once
    return counts


def trial_bases(seed: int, first: int, last: int) -> list[int]:
    """rng.TrialStream(seed, t).base for the trials t = first .. last-1, in one step."""
    start = mix64(seed & _MASK)
    words = _lane_bytes(*((start + (t + 1) * _GOLDEN) & _MASK for t in range(first, last)))
    mixed = mix_lanes(_int(words), lane_mask(last - first))
    return lane_keys(mixed.to_bytes(len(words), "little")).tolist()


def _lanes_int(buf: array) -> int:
    """The words of buf as one int, word i in bits [64i, 64i + 64), so that a
    16-byte lane holds buf[2j] and then buf[2j + 1]."""
    if _SWAP:
        buf.byteswap()
    return int.from_bytes(buf, "little")


#: The lane mask and key lanes of edge_flags for the edges keys in each of trials
#: trials, lane t*len(keys) + j holding keys[j]; the last batch's are kept for the
#: next batch of those edges and that size.
@lru_cache(maxsize=1)
def _key_lanes(keys: tuple[int, ...], trials: int) -> tuple[int, int]:
    lanes = array("Q", bytes(_LANE * len(keys) * trials))
    lanes[0::2] = array("Q", keys) * trials
    return lane_mask(len(keys) * trials), _lanes_int(lanes)


def edge_flags(p: float, keys: Sequence[int], bases: Sequence[int]) -> bytearray:
    """Open flags of a fixed list of edges in every trial of a batch, in one step.

    keys[j] is the address key of edge j (rng.vertex_key). Byte t*len(keys) + j
    is 1 when edge j is open in the trial with base word bases[t]: the
    OpenTable of [p] at its bond word mix64(bases[t] ^ keys[j]).
    """
    edges, n = len(keys), len(keys) * len(bases)
    mask, key_lanes = _key_lanes(tuple(keys), len(bases))
    lanes = array("Q", bytes(_LANE * n))  # lane t*edges + j holds bases[t]
    bases = array("Q", bases)
    for j in range(edges):
        lanes[2 * j :: 2 * edges] = bases
    word = mix_lanes(_lanes_int(lanes) ^ key_lanes, mask)
    return OpenTable([p])((word << 64).to_bytes(_LANE * n, "little"))
