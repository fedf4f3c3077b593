"""Randomized estimation of tree-percolation events with reproducible streams.

Every outcome is a pure function of (seed, trial index, bond address). Trials
run in batches through the packed-lane kernel (kernel.py), which draws the
bonds of many trials per big-integer step: existence events by a lockstep
depth-first search that stops each trial at its first witness, the counting
event by a walk over the whole zebra cone. estimate_grid folds the outcomes
of every event with integer merges, so estimates are identical for any worker
count, any batch size and any execution order. It streams the estimates of a
whole grid of one seed in groups of consecutive points whose chunks, run in
forked children and in the calling process, carry the whole group, so the
counting walk draws each bond word once for all of its points;
estimate_event is its one-point call. The work of a search grows about
linearly in depth, but the zebra cone grows geometrically between p_c1 and
p_c2, so a counting estimate must fit a budget of expected lanes.

A bisection probe needs one bit, whether the estimate exceeds a level, so it
runs its trials in one process and stops as soon as their count settles that
bit; find_critical_mc runs its two sides in parallel instead of its chunks.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from collections import namedtuple

from .analytic import CriticalPair, zebra_limit
from .params import (
    BISECTION_TOL,
    MC_BISECTION_TOL,
    EventKind,
    EventSpec,
    NoBracketError,
    TooLargeError,
    TreeParams,
    check_probability,
    zebra_ray,
)
from .rng import derive_seed, vertex_key

# kernel and tree are imported by the functions that use them, so that a
# command loads only the layers it runs.

#: Open flags (bytes 0 and 1) as binary digits.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
#: Normal quantile for two-sided 95% intervals.
Z95 = 1.959963984540054
#: Expected lanes one counting estimate may expand: about four minutes at the
#: walk's 3.6-4.4 M lanes/s (one core of a 2-core machine, Python 3.11, one p;
#: k = 3, p = 1/2, depths 16, 20 and 24).
MAX_COUNT_LANES = 10**9


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
    from . import kernel, tree

    keys = list(map(vertex_key, tree.edges(params, depth)))
    n = len(keys)
    digits = kernel.edge_flags(p, keys, bases).translate(_DIGITS)
    return [int(digits[j::n][::-1], 2) for j in range(n)]


# ---------------------------------------------------------------------------
# estimators

def chunk_bases(params: TreeParams, seed: int, start: int, stop: int):
    """Trial base words of trials start .. stop-1, in batches of kernel.search_batch(params)."""
    from . import kernel

    batch = kernel.search_batch(params)
    for first in range(start, stop, batch):
        yield kernel.trial_bases(seed, first, min(first + batch, stop))


def _chunk(args) -> list[list[int]]:
    """For each p of the group, the sum and sum of squares of the outcomes of trials
    start .. stop-1: X_n, or hit 1 / miss 0."""
    params, ps, event, seed, start, stop = args
    from . import kernel

    sums = [[0, 0] for _ in ps]
    for bases in chunk_bases(params, seed, start, stop):
        if event.kind is EventKind.ZEBRA_COUNT:
            outcomes = [c.values() for c in kernel.zebra_counts(params, ps, event.depth, bases)]
        else:  # an existence search stops at another vertex for each p: one search per p
            alternate = event.kind is EventKind.ZEBRA_RAY
            outcomes = [[1] * len(kernel.ray_hits(params, p, event.depth, bases, alternate))
                        for p in ps]
        for part, values in zip(sums, outcomes):
            part[0] += sum(values)
            part[1] += sum(x * x for x in values)
    return sums


def _check_rounds(params: TreeParams, trials: int) -> None:
    """ValueError below one trial; TooLargeError when one vertex's children alone
    span more lanes than a kernel round may (kernel.search_batch). The kernel
    narrows every other round to fit."""
    from . import kernel

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    kernel.search_batch(params)


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
    """The processes of a _fork_map, at most the CPUs this one may run on; 0 means all of them."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(workers, cpus) if workers > 0 else cpus


def _fork_map(fn, jobs: list, workers: int) -> list:
    """fn of each job, in job order. With more than one worker, more than one job and
    os.fork (not on Windows), each job after the first runs in its own forked child (_child)
    while this process runs job 0; every child is reaped, and killed first if job 0 raises.
    The first failure in job order is raised, the one a serial run raises first."""
    if _resolve_workers(workers) <= 1 or len(jobs) <= 1 or not hasattr(os, "fork"):
        return list(map(fn, jobs))
    import pickle  # here, so that a serial run does not load it
    import signal
    children, statuses, sent = [], [], None  # (pid, the read end of its pipe)
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _child(fn, job, write)
            os.close(write)  # a later child must not hold it open
            children.append((pid, os.fdopen(read, "rb")))
        results = [fn(jobs[0])]
        sent = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            if sent is None:
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), status, data in zip(children, statuses, sent):
        if status:
            raise ChildProcessError(f"worker process {pid} sent no result: wait status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(fn, job, write: int) -> None:
    """Send (ok, result or exception) of fn(job) pickled on `write`, and leave by os._exit,
    status 0 once sent: nothing of the parent's, such as buffered stdout, is flushed."""
    try:
        import pickle  # loaded by _fork_map before the fork
        try:
            sent = (True, fn(job))
        except BaseException as exc:  # raised in the parent
            sent = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(sent, pipe)
        os._exit(0)
    finally:  # nothing sent
        os._exit(1)


def estimate_event(params: TreeParams, p: float, event: EventSpec, trials: int, seed: int,
                   workers: int = 1) -> Estimate:
    """Hit rate with a Wilson 95% interval, or for the counting event mean X_n with a normal one.

    Trial t draws its bonds from the (seed, t) stream; the result is a pure
    function of (params, p, event, trials, seed) and `workers` only changes
    wall time. This is estimate_grid at the one point p: a tree whose vertices
    have more children than a kernel round may span, and a counting estimate
    that expects more than MAX_COUNT_LANES lanes, raise TooLargeError before
    any bond is drawn.
    """
    [estimate] = estimate_grid(params, [p], event, trials, seed, workers)
    return estimate


def _check_point(params: TreeParams, p: float, event: EventSpec, trials: int) -> None:
    """ValueError for a p outside [0, 1]; TooLargeError for a counting estimate past MAX_COUNT_LANES."""
    check_probability(p)
    if event.kind is EventKind.ZEBRA_COUNT:
        lanes = trials * _expected_lanes(params, p, event.depth)
        if lanes > MAX_COUNT_LANES:
            raise TooLargeError(f"zebra-count to depth {event.depth} at p={p} expects "
                                f"{lanes:.3g} lanes over {trials} trials, past the budget of "
                                f"{MAX_COUNT_LANES:.3g}")


def estimate_grid(params: TreeParams, ps: list[float], event: EventSpec, trials: int, seed: int,
                  workers: int = 1):
    """Yield estimate_event at each p of the grid ps, in order.

    The grid runs in groups of at most kernel.GROUP consecutive points, whose
    chunks, one per worker, carry the whole group: every p draws the same
    bond words from the same seed, so one counting walk per batch serves all
    of them; an existence event runs one search per p. Each group's points
    are checked before any of its bonds are drawn, and the first refused
    point ends its group: the estimates before it are yielded, and its
    refusal is raised in its place. Each group's chunks run through one
    _fork_map, so no worker process outlives a group.
    """
    from . import kernel

    _check_rounds(params, trials)
    workers = min(_resolve_workers(workers), trials)
    step = (trials + workers - 1) // workers
    spans = [(start, min(start + step, trials)) for start in range(0, trials, step)]
    for first in range(0, len(ps), kernel.GROUP):
        group, refusal = ps[first:first + kernel.GROUP], None
        for i, p in enumerate(group):
            try:
                _check_point(params, p, event, trials)
            except ValueError as exc:  # TooLargeError included
                group, refusal = group[:i], exc
                break
        if group:
            parts = _fork_map(_chunk, [(params, group, event, seed, *span) for span in spans],
                              workers)
            for point in zip(*parts):
                yield _estimate(event, trials, seed, *map(sum, zip(*point)))
        if refusal:
            raise refusal


def _estimate(event: EventSpec, trials: int, seed: int, total: int, total_sq: int) -> Estimate:
    mean = total / trials
    if event.kind is not EventKind.ZEBRA_COUNT:
        stderr = math.sqrt(mean * (1.0 - mean) / trials)
        low, high = wilson_interval(total, trials)
    else:
        # sample variance; one trial has a zero numerator
        var = max(total_sq - total * total / trials, 0.0) / max(trials - 1, 1)
        stderr = math.sqrt(var / trials)
        low, high = mean - Z95 * stderr, mean + Z95 * stderr
    return Estimate(mean, stderr, low, high, trials, seed)


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
    """Detection level tau = 6 / ((1 - k^-2) n) for the zebra-ray estimate at depth n.

    An estimate above tau at the probe depth counts as supercritical. tau is
    not a fixed multiple of the critical survival probability z_n(p_c): by
    the exact recursion, n z_n(p_c) tends to 4d / (k - 1), d the root degree,
    so for large n tau is about 1.13 z_n(p_c) at k = 3 and 1.20 z_n(p_c) at
    k = 4 in rooted-k mode, but 0.85 z_n(p_c) and 0.96 z_n(p_c) in
    full-Cayley mode.
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
    batches after it are skipped; the decision is the same for any batch
    width.
    """
    from . import kernel

    need = _hits_needed(trials, tau)
    if p == 0.0 and depth > 1:  # open_threshold(0) is 0, so no bond is open and no zebra
        # path of 2+ edges exists; find_critical_mc probes depths 7+ (tau < 1), need >= 1
        return need == 0
    misses_left = trials - need + 1
    hits = 0
    for bases in chunk_bases(params, seed, 0, trials):
        found = len(kernel.ray_hits(params, p, depth, bases, alternate=True,
                                    stop=(need - hits, misses_left)))
        hits += found
        misses_left -= len(bases) - found  # an overcount only in a batch that stopped
        if hits >= need or misses_left <= 0:
            break
    return hits >= need


def find_critical_mc(params: TreeParams, depth: int, trials: int, seed: int,
                     tol: float = MC_BISECTION_TOL, workers: int = 1) -> CriticalPair:
    """Monte-Carlo counterpart of find_critical_dp, a finite-depth proxy.

    Bisects the indicator 'estimated P(alternating ray to `depth`) above the
    depth-dependent detection level'. The located points carry a finite-depth
    bias that shrinks as the probe depth grows. Its sign depends on how the
    detection level compares with the critical survival probability (see
    mc_indicator_threshold): inward, into (p_c1, p_c2), where the level is
    above it, as in rooted-k mode; outward where it is below, as in
    full-Cayley mode at k = 3 from about depth 64 and at k = 4 from about
    depth 256. The default resolution, 1/256, is coarser than that outward
    bias. Probe i of each side draws from sub-seed derive_seed(seed, i), and
    _rate_above decides it exactly, so the search is reproducible. A probe
    stops once its answer is certain, so it runs all of its trials in one
    process: with more than one worker the upper side runs in a forked child
    and the lower one in this process (_fork_map). Before any bond is drawn,
    depth or trials below 1 raise ValueError, a tree whose vertices have more
    children than a kernel round may span TooLargeError, and a detection level
    of 1 or more, which no estimate exceeds, NoBracketError.
    """
    zebra_ray(depth)  # ValueError for a depth below 1
    _check_rounds(params, trials)
    tau = mc_indicator_threshold(params, depth)
    if tau >= 1.0:
        raise NoBracketError(f"no zebra-percolation transition detectable at depth {depth} "
                             f"for k={params.k}: the detection level {tau:.6g} is not below 1")
    jobs = [(params, depth, trials, seed, tau, tol, side) for side in SIDES]
    return CriticalPair(*_fork_map(_mc_side, jobs, workers))


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
