"""Randomized estimation of tree-percolation events with reproducible streams.

Every outcome is a pure function of (seed, trial index, bond address). Trials
run in batches through the packed-lane kernel (kernel.py), which draws the
bonds of many trials per big-integer step: existence events by a lockstep
depth-first search that stops each trial at its first witness, the counting
event by a walk over the whole zebra cone. estimate_event folds the outcomes
of every event with integer merges, so estimates are identical for any worker
count, any batch size and any execution order. The work of a search grows
about linearly in depth, but the zebra cone grows geometrically between p_c1
and p_c2, so a counting estimate must fit a budget of expected lanes.

A bisection probe needs one bit, whether the estimate exceeds a level, so it
runs its trials in one process and stops as soon as their count settles that
bit; find_critical_mc runs its two sides in parallel instead of its chunks.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import functools
import itertools
import math
import os
from collections import namedtuple

from . import tree
from .analytic import CriticalPair, zebra_limit
from .params import (
    BISECTION_TOL,
    MC_BISECTION_TOL,
    NoBracketError,
    TooLargeError,
    TreeParams,
    check_probability,
)
from .rng import TrialStream, derive_seed, vertex_key

#: Open flags (bytes 0 and 1) as binary digits.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
#: Normal quantile for two-sided 95% intervals.
Z95 = 1.959963984540054
#: Expected lanes one counting estimate may expand: eight to nine minutes at the
#: walk's 1.9 M lanes/s (one core of a 2-core machine, k = 3, p = 1/2, depths 16-24).
MAX_COUNT_LANES = 10**9
#: Lanes one kernel round may span: TRIAL_BATCH trials of an existence search,
#: or COUNT_LANES vertices of the counting walk, times max(k, root degree). At
#: this bound 1,024 zebra-ray trials at k = 512 peaked at 234 MB (Python 3.11).
MAX_ROUND_LANES = 2**19


class EventKind(enum.Enum):
    OPEN_RAY = "open"
    ZEBRA_RAY = "zebra"
    ZEBRA_COUNT = "zebra-count"


class EventSpec(namedtuple("EventSpec", "kind depth")):
    """A depth-truncated percolation event from the root."""

    __slots__ = ()

    def __new__(cls, kind: EventKind, depth: int):
        if depth < 1:
            raise ValueError(f"event depth must be >= 1, got {depth}")
        return super().__new__(cls, kind, depth)


def open_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.OPEN_RAY, depth)


def zebra_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_RAY, depth)


def zebra_count(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_COUNT, depth)


class Estimate(namedtuple("Estimate", "mean stderr ci95_low ci95_high trials seed")):
    """Monte-Carlo estimate with standard error and a 95% interval."""

    __slots__ = ()


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a Bernoulli proportion; well behaved near 0 and 1.

    The interval always contains the point estimate successes / trials. Its
    lower end is exactly 0 when successes == 0 and its upper end exactly 1
    when successes == trials, where center -+ half would miss by rounding.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = trials
    phat = successes / n
    denom = 1.0 + Z95 * Z95 / n
    center = (phat + Z95 * Z95 / (2.0 * n)) / denom
    half = (Z95 / denom) * math.sqrt(phat * (1.0 - phat) / n + Z95 * Z95 / (4.0 * n * n))
    low = 0.0 if successes == 0 else max(0.0, min(phat, center - half))
    high = 1.0 if successes == n else min(1.0, max(phat, center + half))
    return low, high


# ---------------------------------------------------------------------------
# configurations

def sample_tables(params: TreeParams, depth: int, p: float, bases: list[int]) -> list[int]:
    """Truth tables of the depth-truncation over a batch of trials, in one kernel step.

    Bit t of table j is the state, 1 open, of edge j of tree.edges(params,
    depth) in the trial with base word bases[t], drawn from its address key by
    the rng contract, as the kernel's walks draw it.
    """
    from . import kernel

    keys = list(map(vertex_key, tree.edges(params, depth)))
    n = len(keys)
    digits = kernel.edge_flags(p, keys, bases).translate(_DIGITS)
    return [int(digits[j::n][::-1], 2) for j in range(n)]


def sample_sigma(params: TreeParams, depth: int, p: float, stream: TrialStream) -> tree.SigmaConfig:
    """A full bond configuration of the depth-truncation as a dict, the input/output form of
    sample_tables for the one trial of `stream`."""
    check_probability(p)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    tables = sample_tables(params, depth, p, [stream.base])
    return tree.SigmaConfig(depth, dict(zip(tree.edges(params, depth), map(tree.EdgeState, tables))))


# ---------------------------------------------------------------------------
# estimators

def chunk_bases(seed: int, start: int, stop: int):
    """Trial base words of trials start .. stop-1, in kernel batches."""
    from . import kernel

    for first in range(start, stop, kernel.TRIAL_BATCH):
        yield kernel.trial_bases(seed, first, min(first + kernel.TRIAL_BATCH, stop))


def _chunk(args) -> tuple[int, int]:
    """Sum and sum of squares of the outcomes of trials start .. stop-1: X_n, or hit 1 / miss 0."""
    params, p, event, seed, start, stop = args
    from . import kernel

    total = total_sq = 0
    for bases in chunk_bases(seed, start, stop):
        if event.kind is EventKind.ZEBRA_COUNT:
            counts = kernel.zebra_counts(params, p, event.depth, bases).values()
            total += sum(counts)
            total_sq += sum(x * x for x in counts)
        else:
            alternate = event.kind is EventKind.ZEBRA_RAY
            hits = len(kernel.ray_hits(params, p, event.depth, bases, alternate))
            total += hits
            total_sq += hits
    return total, total_sq


def _check_rounds(params: TreeParams, event: EventSpec, trials: int) -> None:
    """ValueError below one trial; TooLargeError for rounds wider than MAX_ROUND_LANES."""
    from . import kernel

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    count = event.kind is EventKind.ZEBRA_COUNT
    batch = kernel.COUNT_LANES if count else min(trials, kernel.TRIAL_BATCH)
    lanes = batch * max(params.k, params.root_degree)
    if lanes > MAX_ROUND_LANES:
        raise TooLargeError(f"a round of {batch} vertices at k={params.k} spans {lanes} "
                            f"lanes, past the bound of {MAX_ROUND_LANES}")


def _expected_lanes(params: TreeParams, p: float, n: int) -> float:
    """Expected lanes of one counting walk to depth n: root_degree + k * sum_{m<n} E[X_m].

    With r = k^2 p (1-p), E[X_m] is root_degree r^(m//2), times 2/k for even m,
    so the sum is two geometric series. inf past the float range.
    """
    r = params.k * params.k * p * (1.0 - p)
    odd, even = n // 2, (n - 1) // 2  # levels 1 .. n-1 of each parity
    try:
        if r != 1.0:
            odd, even = (r**odd - 1.0) / (r - 1.0), (r**even - 1.0) / (r - 1.0)
    except OverflowError:
        return math.inf
    return params.root_degree * (1.0 + params.k * odd + 2.0 * r * even)


def _resolve_workers(workers: int) -> int:
    """The worker count, at most the CPUs this process may run on; 0 means all of them."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(workers, cpus) if workers > 0 else cpus


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first use (PEP 562).

    Importing concurrent.futures adds to the start-up of every command, and
    only runs with more than one worker use the pool. Once imported, the class
    is an ordinary module attribute, which _pool_class looks up on each call,
    so a class set on the module in its place (say, one that counts pool
    starts) is the one used.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _pool_class():
    return globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")


@contextlib.contextmanager
def _chunk_map(workers: int, jobs: int):
    """The map for `jobs` independent jobs: the builtin map for one process, else
    the map of a pool of min(workers, jobs) processes, shut down on exit."""
    size = min(_resolve_workers(workers), jobs)
    if size <= 1:
        yield map
    else:
        with _pool_class()(max_workers=size) as pool:
            yield pool.map


def estimate_event(
    params: TreeParams,
    p: float,
    event: EventSpec,
    trials: int,
    seed: int,
    workers: int = 1,
    chunk_map=None,
) -> Estimate:
    """Hit rate with a Wilson 95% interval, or for the counting event mean X_n with a normal one.

    Trial t draws its bonds from the (seed, t) stream; the result is a pure
    function of (params, p, event, trials, seed) and `workers` only changes
    wall time. The chunks, one per worker, run through `chunk_map` (the map of
    a pool the caller holds open) or else through _chunk_map's. Rounds wider
    than MAX_ROUND_LANES, and a counting estimate that expects more than
    MAX_COUNT_LANES lanes, raise TooLargeError before any bond is drawn.
    """
    check_probability(p)
    _check_rounds(params, event, trials)
    count = event.kind is EventKind.ZEBRA_COUNT
    lanes = trials * _expected_lanes(params, p, event.depth) if count else 0
    if lanes > MAX_COUNT_LANES:
        raise TooLargeError(f"zebra-count to depth {event.depth} at p={p} expects {lanes:.3g} "
                            f"lanes over {trials} trials, past the budget of {MAX_COUNT_LANES:.3g}")
    workers = min(_resolve_workers(workers), trials)
    step = (trials + workers - 1) // workers
    jobs = [(params, p, event, seed, start, min(start + step, trials))
            for start in range(0, trials, step)]
    with contextlib.nullcontext(chunk_map) if chunk_map else _chunk_map(workers, len(jobs)) as run:
        parts = list(run(_chunk, jobs))
    total, total_sq = map(sum, zip(*parts))
    mean = total / trials
    if not count:
        stderr = math.sqrt(mean * (1.0 - mean) / trials)
        low, high = wilson_interval(total, trials)
    else:
        # sample variance; one trial has a zero numerator
        var = max(total_sq - total * total / trials, 0.0) / max(trials - 1, 1)
        stderr = math.sqrt(var / trials)
        low, high = mean - Z95 * stderr, mean + Z95 * stderr
    return Estimate(mean, stderr, low, high, trials, seed)


# ---------------------------------------------------------------------------
# exhaustive-enumeration oracle

#: Codes judged per truth-table pass: the low ORACLE_BLOCK_BITS edges take every
#: state inside a block of 2**ORACLE_BLOCK_BITS codes, the higher edges one.
ORACLE_BLOCK_BITS = 16


@functools.lru_cache(maxsize=None)
def _block_tables(bits: int) -> tuple[int, ...]:
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
    c < 2**bits, and tree.reach runs on their truth tables. Yields per block
    the popcount of b and the multiplicity planes: bit c of plane i is bit i
    of the multiplicity of code c, 1 or 0 for a ray event and the number of
    zebra-connected last-level edges for the counting event.
    """
    _, roots, below = tree.edge_lists(params, event.depth)
    low = _block_tables(bits)
    full = (1 << (1 << bits)) - 1
    start = [(j, full) for j in roots]
    alternate = event.kind is not EventKind.OPEN_RAY
    count = event.kind is EventKind.ZEBRA_COUNT
    for block in range(1 << (n_edges - bits)):
        tables = low + tuple(full if block >> i & 1 else 0 for i in range(n_edges - bits))
        ends = tree.reach(below, start, tables, alternate)
        planes: list[int] = []
        if count:
            for _, carry in ends:  # bit-sliced ripple-carry add of one bit per code
                for i, plane in enumerate(planes):
                    planes[i], carry = plane ^ carry, plane & carry
                if carry:
                    planes.append(carry)
        else:
            planes.append(tree.any_reached(ends))
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

    Configuration `code` runs over 0 .. 2**n - 1, bit j of `code` (least
    significant first) holding the state, 1 open, of edge j of tree.edges (the
    order of tree.enumerate_configs). The truth tables of a block of codes go
    through tree.reach in one big-int step per edge (_multiplicity_planes),
    and the multiplicities are tallied by popcount class.
    """
    check_probability(p)
    n_edges = tree.check_enumerable(params, event.depth)
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
# critical-point location

#: Indicator level on the depth limit for deterministic bisection.
DP_THRESHOLD = 1e-6


#: The two sides of p = 1/2, each holding one zebra threshold.
SIDES = ((0.0, 0.5), (0.5, 1.0))


def find_critical_dp(params: TreeParams, tol: float = BISECTION_TOL) -> CriticalPair:
    """Locate both zebra-percolation thresholds by bisecting the depth limit.

    The indicator is 'zebra_limit > DP_THRESHOLD'; the limit converges at every
    p, however close to a threshold. Raises NoBracket when the indicator does
    not change over a side's initial bracket (k = 2).
    """
    def positive(p, _):
        return zebra_limit(params, p) > DP_THRESHOLD

    return CriticalPair(*(_bisect_indicator(params, positive, lo, hi, tol) for lo, hi in SIDES))


def mc_indicator_threshold(params: TreeParams, depth: int) -> float:
    """Detection level for the finite-depth estimate: 1.5x the critical scale.

    A critical alternating-path process survives to depth n with probability
    about 4 / ((1 - k^-2) n); anything materially above that at the probe
    depth is treated as supercritical.
    """
    return 6.0 / (depth * (1.0 - 1.0 / (params.k * params.k)))


def _hits_needed(trials: int, tau: float) -> int:
    """The least h with h / trials > tau in float arithmetic; trials + 1 when tau >= 1."""
    return bisect.bisect_right(range(trials + 1), tau, key=lambda h: h / trials)


def _rate_above(params: TreeParams, p: float, depth: int, trials: int, seed: int,
                tau: float) -> bool:
    """Whether estimate_event(params, p, zebra_ray(depth), trials, seed).mean > tau.

    The mean exceeds tau exactly when at least _hits_needed(trials, tau) trials
    hit, and falls short once more than trials minus that many miss. The
    batches of chunk_bases run in order, each told the hits and misses still
    lacking, so a batch stops at the round that settles the answer and the
    batches after it are skipped.
    """
    from . import kernel

    need = _hits_needed(trials, tau)
    misses_left = trials - need + 1
    hits = 0
    for bases in chunk_bases(seed, 0, trials):
        found = len(kernel.ray_hits(params, p, depth, bases, alternate=True,
                                    stop=(need - hits, misses_left)))
        hits += found
        misses_left -= len(bases) - found  # an overcount only in a batch that stopped
        if hits >= need or misses_left <= 0:
            break
    return hits >= need


def find_critical_mc(
    params: TreeParams,
    depth: int,
    trials: int,
    seed: int,
    tol: float = MC_BISECTION_TOL,
    workers: int = 1,
) -> CriticalPair:
    """Monte-Carlo counterpart of find_critical_dp, a finite-depth proxy.

    Bisects the indicator 'estimated P(alternating ray to `depth`) above the
    depth-dependent detection level'. The located points sit slightly inside
    the true interval, with bias shrinking as the probe depth grows. Probe i
    of each side draws from sub-seed derive_seed(seed, i), and _rate_above
    decides it exactly, so the search is reproducible. A probe stops once its
    answer is certain, so it runs all of its trials in one process: with more
    than one worker the two sides run in a pool of two processes, shut down
    when the search returns. Before any bond is drawn, depth or trials below
    1 raise ValueError, rounds wider than MAX_ROUND_LANES TooLargeError, and
    a detection level of 1 or more, which no estimate exceeds, NoBracketError.
    """
    _check_rounds(params, zebra_ray(depth), trials)
    tau = mc_indicator_threshold(params, depth)
    if tau >= 1.0:
        raise NoBracketError(f"no zebra-percolation transition detectable at depth {depth} "
                             f"for k={params.k}: the detection level {tau:.6g} is not below 1")
    jobs = [(params, depth, trials, seed, tau, tol, side) for side in SIDES]
    with _chunk_map(workers, len(jobs)) as run:
        return CriticalPair(*run(_mc_side, jobs))


def _mc_side(job) -> float:
    """One side of find_critical_mc, all of its probes in this process."""
    params, depth, trials, seed, tau, tol, (lo, hi) = job
    return _bisect_indicator(params, lambda p, probe: _rate_above(
        params, p, depth, trials, derive_seed(seed, probe), tau), lo, hi, tol)


def _bisect_indicator(params: TreeParams, positive, lo: float, hi: float, tol: float) -> float:
    """Bisect positive(p, probe) on (lo, hi), probe counting from 0; raises
    NoBracketError when positive takes the same value at both ends."""
    probes = itertools.count()
    lo_pos, hi_pos = positive(lo, next(probes)), positive(hi, next(probes))
    if lo_pos == hi_pos:
        raise NoBracketError(
            f"no zebra-percolation transition inside ({lo}, {hi}) for k={params.k}"
        )
    # the midpoint test also ends a tol below the spacing of floats at lo and hi
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if positive(mid, next(probes)) == hi_pos:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
