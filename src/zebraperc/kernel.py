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
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Sequence
from itertools import compress

from .params import TreeParams
from .rng import _GOLDEN, _MASK, _TO_UNIT, ROOT_KEY, mix64

#: Trials searched together; a longer chunk runs in several batches. An
#: existence search advances every trial of a batch in lockstep, so a batch
#: must hold many trials to spread the fixed cost of a round; its per-trial
#: stacks and its lanes grow with the batch.
TRIAL_BATCH = 1024
#: Vertices expanded per round of the counting walk.
COUNT_LANES = 2048

_LANE = 16  # bytes per lane
_SWAP = sys.byteorder != "little"
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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
    """The child keys (low words) of the lanes Rounds.expand returns."""
    buf = array("Q")
    buf.frombytes(lanes)
    if _SWAP:
        buf.byteswap()
    return buf[::2]


def lane_flags(lanes: bytes) -> bytes:
    """The open flags (byte 8) of the lanes Rounds.expand returns."""
    return lanes[8::_LANE]


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


class Rounds:
    """Expands vertex lists for one search at one p; its constants are built
    once, for the search's largest round, and cut down to each round."""

    def __init__(self, p: float, lanes: int, arities: tuple[int, ...]) -> None:
        self.lanes = lanes
        self.mask = lane_mask(lanes)
        self.guard = int.from_bytes(_lane_bytes(open_threshold(p) + _MASK) * lanes, "little")
        self.steps = {}
        for arity in arities:
            per = _lane_bytes(*((i + 1) * _GOLDEN & _MASK for i in range(arity)))
            self.steps[arity] = (int.from_bytes(per * (lanes // arity), "little"),
                                 lanes // arity * arity)

    def open_bits(self, word: int, n: int) -> int:
        """Guard bits of the first n lanes of `word`, each lane a bond's word mix64(base ^ key).

        Bit 64 of a lane is set when the bond is open, its word below
        y = open_threshold(p): (y - 1 + 2**64) - word has bit 64 set exactly
        when word < y, and never borrows from the next lane. The caller mixes
        the words, so that the unmixed lanes are not kept alive through the mix.
        """
        diff = (self.guard >> 128 * (self.lanes - n)) - word
        return diff ^ (diff & self.mask)

    def expand(self, keys: array, bases: array, arity: int) -> bytes:
        """Every child of the vertices, as 16-byte lanes in parent-major order.

        Vertex j has address key keys[j] in the trial with base word bases[j].
        Its child i is lane j*arity + i: bytes 0-7 hold the child's key,
        child_key(keys[j], i), and byte 8 its open flag (open_bits of the
        child's word, mix64(bases[j] ^ key)).
        """
        n = len(keys) * arity
        buf = array("Q", bytes(_LANE * n))
        for i in range(arity):
            buf[2 * i :: 2 * arity] = keys
            buf[2 * i + 1 :: 2 * arity] = bases
        if _SWAP:
            buf.byteswap()
        both = int.from_bytes(buf, "little")
        mask = self.mask
        steps, stepped = self.steps[arity]
        child = mix_lanes((both & mask) ^ (steps >> 128 * (stepped - n)), mask)
        word = mix_lanes((both >> 64 & mask) ^ child, mask)
        return (child | self.open_bits(word, n)).to_bytes(_LANE * n, "little")


def _int(flags: bytes) -> int:
    return int.from_bytes(flags, "little")


def _repeat(items, times: int):
    """Each item of an array or a bytes-like once per child; bytes come back as a bytearray."""
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
    lane, of every trial still searching. The hot lane moves to its first
    wanted child, picked with byte masks, and the other wanted children go on
    the trial's stack, deepest on top. A trial whose hot lane has no wanted
    child resumes from its stack, and a trial stops at its first path; one
    whose stack is empty as well is a miss.

    With stop = (hits, misses) the search ends after the first round by which
    at least `hits` trials have hit or at least `misses` have missed, and the
    hits so far, a subset of the full result, are returned.
    """
    k, root_degree = params.k, params.root_degree
    rounds = Rounds(p, len(bases) * max(k, root_degree), (root_degree, k))
    stop_hits, stop_misses = stop or (len(bases) + 1, len(bases) + 1)
    misses = 0
    hit: set[int] = set()
    stacks: defaultdict[int, list] = defaultdict(list)
    owners = array("Q", bases)
    keys = array("Q", [ROOT_KEY]) * len(owners)
    states = bytearray()  # the state of each hot lane's own edge; none at the root
    left = array("l", [n]) * len(bases)  # edges left below each hot lane
    arity = root_degree
    while keys:
        m = len(keys)
        lanes = rounds.expand(keys, owners, arity)
        flags = lane_flags(lanes)
        if not alternate:
            wanted = flags
        elif states:
            wanted = _wanted(flags, states, arity)
        else:  # below the root either state starts a zebra path
            wanted = b"\x01" * len(flags)
        first = bytearray(len(flags))  # each vertex's first wanted child
        seen = 0  # vertices with a wanted child
        for i in range(arity):
            lane = _int(wanted[i::arity])
            first[i::arity] = (lane & ~seen).to_bytes(m, "little")
            seen |= lane
        leaf = _int(bytes(map((1).__eq__, left)))
        hit.update(compress(owners, (seen & leaf).to_bytes(m, "little")))
        going = (seen & ~leaf).to_bytes(m, "little")
        below = _int(_repeat(going, arity))
        child = lane_keys(lanes)
        rest = ((_int(wanted) ^ _int(first)) & below).to_bytes(len(flags), "little")
        if 1 in rest:  # pushed last sibling first, so that the first is resumed first
            entries = zip(compress(_repeat(owners, arity), rest), compress(child, rest),
                          compress(flags, rest), compress(_repeat(left, arity), rest))
            for entry in reversed(list(entries)):
                stacks[entry[0]].append(entry)
        descend = (_int(first) & below).to_bytes(len(flags), "little")
        stuck_owners = compress(owners, seen.to_bytes(m, "little").translate(_FLIP))
        keys = array("Q", compress(child, descend))
        owners = array("Q", compress(owners, going))
        states = bytearray(compress(flags, descend))
        left = array("l", map((-1).__add__, compress(left, going)))
        for owner in stuck_owners:
            stack = stacks.get(owner)
            if stack:
                _, key, state, parent_left = stack.pop()
                keys.append(key)
                owners.append(owner)
                states.append(state)
                left.append(parent_left - 1)
            else:
                misses += 1
        if len(hit) >= stop_hits or misses >= stop_misses:
            break
        arity = k
    return hit


def zebra_counts(params: TreeParams, p: float, n: int, bases: Sequence[int]) -> Counter:
    """For each trial, by base word, the depth-n vertices joined to the root by a zebra path.

    Trials with no such vertex are absent. The pending vertices of all trials,
    roots included, are pooled by the edges left below them and expanded
    deepest first, at most COUNT_LANES per round, so the pool stays small.
    """
    k, root_degree = params.k, params.root_degree
    rounds = Rounds(p, COUNT_LANES * max(k, root_degree), (root_degree, k))
    counts: Counter = Counter()
    bases = array("Q", bases)
    pending = {n: (array("Q", [ROOT_KEY]) * len(bases), bases, bytearray(len(bases)))}
    while pending:
        remaining = min(pending)
        pool = pending[remaining]
        keys, owners, states = (part[-COUNT_LANES:] for part in pool)
        if len(keys) == len(pool[0]):
            del pending[remaining]
        else:
            for part in pool:
                del part[-COUNT_LANES:]
        arity = root_degree if remaining == n else k
        lanes = rounds.expand(keys, owners, arity)
        flags = lane_flags(lanes)
        if remaining == n:  # below the root either state starts a zebra path
            wanted = b"\x01" * len(flags)
        else:
            wanted = _wanted(flags, states, arity)
        owners = _repeat(owners, arity)
        if remaining == 1:
            counts.update(compress(owners, wanted))
        elif 1 in wanted:
            store = pending.setdefault(remaining - 1, (array("Q"), array("Q"), bytearray()))
            store[0].extend(compress(lane_keys(lanes), wanted))
            store[1].extend(compress(owners, wanted))
            store[2].extend(compress(flags, wanted))
    return counts


def trial_bases(seed: int, first: int, last: int) -> list[int]:
    """rng.TrialStream(seed, t).base for the trials t = first .. last-1, in one step."""
    start = mix64(seed & _MASK)
    words = _lane_bytes(*((start + (t + 1) * _GOLDEN) & _MASK for t in range(first, last)))
    mixed = mix_lanes(_int(words), lane_mask(last - first))
    return lane_keys(mixed.to_bytes(len(words), "little")).tolist()


#: The Rounds of edge_flags, kept for the next batch of as many lanes at the same p.
_flag_rounds = functools.lru_cache(maxsize=1)(Rounds)


def edge_flags(p: float, keys: Sequence[int], bases: Sequence[int]) -> bytes:
    """Open flags of a fixed list of edges in every trial of a batch, in one step.

    keys[j] is the address key of edge j (rng.vertex_key). Byte t*len(keys) + j
    is 1 when edge j is open in the trial with base word bases[t], the
    Rounds.open_bits of mix64(bases[t] ^ keys[j]).
    """
    n = len(keys) * len(bases)
    rounds = _flag_rounds(p, n, ())
    trial_words = b"".join(_lane_bytes(base) * len(keys) for base in bases)
    word = mix_lanes(_int(_lane_bytes(*keys) * len(bases)) ^ _int(trial_words), rounds.mask)
    return lane_flags(rounds.open_bits(word, n).to_bytes(_LANE * n, "little"))
