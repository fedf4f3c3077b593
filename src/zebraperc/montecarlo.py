"""Randomized estimation of tree-percolation events with reproducible streams.

Every outcome is a pure function of (seed, trial index, bond address). Trials
run in batches through the packed-lane kernel (kernel.py), which draws the
bonds of many trials per big-integer step: existence events by a lockstep
depth-first search that stops each trial at its first witness, the counting
event by a walk over the whole zebra cone. Estimates are folds over per-trial
outcomes with integer merges, so they are identical for any worker count,
any batch size and any execution order.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import tree
from .analytic import NonConvergenceError, zebra_limit
from .params import (
    BISECTION_CONFIG,
    MC_BISECTION_CONFIG,
    SolverConfig,
    TreeParams,
    check_probability,
)
from .rng import TrialStream, derive_seed
from .tree import EdgeState, SigmaConfig, TooLargeError

#: Normal quantile for two-sided 95% intervals.
Z95 = 1.959963984540054

#: The samplers refuse depths above the recursion limit less this margin.
SAMPLER_STACK_MARGIN = 200


class EventKind(enum.Enum):
    OPEN_RAY = "open"
    ZEBRA_RAY = "zebra"
    ZEBRA_COUNT = "zebra-count"


@dataclass(frozen=True)
class EventSpec:
    """A depth-truncated percolation event from the root."""

    kind: EventKind
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"event depth must be >= 1, got {self.depth}")


def open_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.OPEN_RAY, depth)


def zebra_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_RAY, depth)


def zebra_count(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_COUNT, depth)


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class NoBracketError(RuntimeError):
    """The transition indicator does not change over the initial bracket."""


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate with standard error and a 95% interval."""

    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    trials: int
    seed: int


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Score interval for a Bernoulli proportion; well behaved near 0 and 1.

    The interval always contains the point estimate successes / trials. Its
    lower end is exactly 0 when successes == 0 and its upper end exactly 1
    when successes == trials, where center -+ half would miss by rounding.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = trials
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    low = 0.0 if successes == 0 else max(0.0, min(phat, center - half))
    high = 1.0 if successes == n else min(1.0, max(phat, center + half))
    return low, high


# ---------------------------------------------------------------------------
# single-trial samplers

def _check_sampler_depth(n: int) -> None:
    """Refuse Monte-Carlo depths past the samplers' level limit, before any bond is drawn."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    limit = sys.getrecursionlimit() - SAMPLER_STACK_MARGIN
    if n > limit:
        raise TooLargeError(
            f"depth {n} exceeds the Monte-Carlo samplers' limit of {limit} levels "
            f"(the recursion limit {sys.getrecursionlimit()} less {SAMPLER_STACK_MARGIN})"
        )


def _one_trial_hit(params: TreeParams, p: float, n: int, stream: TrialStream,
                   alternate: bool) -> bool:
    check_probability(p)
    _check_sampler_depth(n)
    from . import kernel

    return bool(kernel.ray_hits(params, p, n, [stream.base], alternate))


def sample_open_ray(params: TreeParams, p: float, n: int, stream: TrialStream) -> bool:
    """One Bernoulli sample of 'a descending all-open path of length n exists'.

    The search stops at the first witness ray.
    """
    return _one_trial_hit(params, p, n, stream, False)


def sample_zebra_ray(params: TreeParams, p: float, n: int, stream: TrialStream) -> bool:
    """One Bernoulli sample of 'a descending alternating path of length n exists'.

    The first edge may take either state; below the root each edge must take
    the opposite of its predecessor's sampled state.
    """
    return _one_trial_hit(params, p, n, stream, True)


def count_zebra_connected(params: TreeParams, p: float, n: int, stream: TrialStream) -> int:
    """Exhaustive sample of X_n: depth-n vertices joined to the root by a zebra path.

    Traverses the whole zebra-reachable cone (no early stop).
    """
    check_probability(p)
    _check_sampler_depth(n)
    from . import kernel

    return kernel.zebra_counts(params, p, n, [stream.base])[stream.base]


_EDGE_STATES = (EdgeState.CLOSED, EdgeState.OPEN)


def sample_sigma(params: TreeParams, depth: int, p: float, stream: TrialStream) -> SigmaConfig:
    """Materialize a full bond configuration of the depth-truncation.

    Each level is one kernel expansion of the level above, so the explicit
    configuration agrees bond for bond with what a sampler would have drawn.
    """
    check_probability(p)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    from . import kernel

    states: dict[tree.Address, EdgeState] = {}
    for level, flags in enumerate(kernel.level_flags(params, p, depth, stream.base), start=1):
        states.update(zip(tree.vertices_at_level(params, level),
                          map(_EDGE_STATES.__getitem__, flags)))
    return SigmaConfig(depth=depth, states=states)


# ---------------------------------------------------------------------------
# estimators

def _chunk_bases(seed: int, start: int, stop: int):
    """Trial base words of trials start .. stop-1, in kernel batches."""
    from . import kernel

    for first in range(start, stop, kernel.TRIAL_BATCH):
        last = min(first + kernel.TRIAL_BATCH, stop)
        yield [TrialStream(seed, t).base for t in range(first, last)]


def _bernoulli_chunk(args) -> int:
    params, p, event, seed, start, stop = args
    from . import kernel

    alternate = event.kind is EventKind.ZEBRA_RAY
    return sum(len(kernel.ray_hits(params, p, event.depth, bases, alternate))
               for bases in _chunk_bases(seed, start, stop))


def _count_chunk(args) -> tuple[int, int]:
    params, p, event, seed, start, stop = args
    from . import kernel

    total = total_sq = 0
    for bases in _chunk_bases(seed, start, stop):
        counts = kernel.zebra_counts(params, p, event.depth, bases).values()
        total += sum(counts)
        total_sq += sum(x * x for x in counts)
    return total, total_sq


def _resolve_workers(workers: int) -> int:
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


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


def _map_chunks(fn, params, p, event, seed, trials: int, workers: int, executor=None) -> list:
    _check_sampler_depth(event.depth)
    workers = min(_resolve_workers(workers), trials)
    if workers <= 1:
        return [fn((params, p, event, seed, 0, trials))]
    step = (trials + workers - 1) // workers
    jobs = [
        (params, p, event, seed, start, min(start + step, trials))
        for start in range(0, trials, step)
    ]
    if executor is not None:
        return list(executor.map(fn, jobs))
    with _pool_class()(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def estimate_probability(
    params: TreeParams,
    p: float,
    event: EventSpec,
    trials: int,
    seed: int,
    workers: int = 1,
    executor=None,
) -> Estimate:
    """Monte-Carlo estimate of an existence event with a Wilson 95% interval.

    Trial t draws its bonds from the (seed, t) stream; the result is a pure
    function of (params, p, event, trials, seed) and `workers` only changes
    wall time. With more than one worker the chunks run on `executor`, an
    open process pool of at least `workers` processes, or else on a pool
    started for this call. Counting events go through `estimate_count`.
    """
    check_probability(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if event.kind is EventKind.ZEBRA_COUNT:
        raise ValueError("estimate_probability handles existence events; use estimate_count")
    hits = sum(_map_chunks(_bernoulli_chunk, params, p, event, seed, trials, workers, executor))
    mean = hits / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    low, high = wilson_interval(hits, trials)
    return Estimate(mean=mean, stderr=stderr, ci95_low=low, ci95_high=high,
                    trials=trials, seed=seed)


def estimate_count(
    params: TreeParams,
    p: float,
    event: EventSpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Monte-Carlo mean of the zebra-connected count with a normal 95% interval."""
    check_probability(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if event.kind is not EventKind.ZEBRA_COUNT:
        raise ValueError("estimate_count handles the counting event only")
    parts = _map_chunks(_count_chunk, params, p, event, seed, trials, workers)
    total = sum(part[0] for part in parts)
    total_sq = sum(part[1] for part in parts)
    mean = total / trials
    if trials > 1:
        var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
    else:
        var = 0.0
    stderr = math.sqrt(var / trials)
    half = Z95 * stderr
    return Estimate(mean=mean, stderr=stderr, ci95_low=mean - half, ci95_high=mean + half,
                    trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# exhaustive-enumeration oracle

def brute_force_probability(
    params: TreeParams, p: float, event: EventSpec, exact: bool = False
):
    """Event probability by summation over all configurations of the truncation.

    For the counting event the exact expectation of X_n is returned instead of
    a probability. With exact=True a Fraction is returned, exact for the
    binary expansion of p: the multiplicities are added up as integers per
    number of open edges, and each such tally is weighted once by Fraction
    powers of p and 1-p.

    Reproducibility contract: configuration `code` runs over 0 .. 2**n - 1 for
    the n edges of the truncation, bit j of `code` (least significant first)
    holding the state, 1 open, of edge j of tree.edges (the order of
    tree.enumerate_configs). In floats its term, multiplicity * p**opens *
    (1-p)**(n-opens) with the powers built by repeated multiplication, is
    added to the sum in increasing order of `code`, so float results are
    bit-identical from run to run.
    """
    check_probability(p)
    roots, below = tree.edge_lists(params, event.depth)
    n_edges = len(below)
    alternate = event.kind is not EventKind.OPEN_RAY
    count = event.kind is EventKind.ZEBRA_COUNT
    if exact:
        tally = [0] * (n_edges + 1)
        for code in range(1 << n_edges):
            ends = tree.path_ends(roots, below, code, alternate)
            if ends:
                tally[code.bit_count()] += ends if count else 1
        pf = Fraction(p)
        return sum(
            (mult * pf**opens * (1 - pf) ** (n_edges - opens)
             for opens, mult in enumerate(tally) if mult),
            Fraction(0),
        )
    p_pow = [1.0] + list(itertools.accumulate([p] * n_edges, lambda acc, v: acc * v))
    q_pow = [1.0] + list(itertools.accumulate([1.0 - p] * n_edges, lambda acc, v: acc * v))
    total = 0.0
    for code in range(1 << n_edges):
        ends = tree.path_ends(roots, below, code, alternate)
        if ends:
            weight_mult = ends if count else 1
            opens = code.bit_count()
            total += weight_mult * p_pow[opens] * q_pow[n_edges - opens]
    return total


def transform_equivalence_trial(
    params: TreeParams, p: float, m: int, rng: TrialStream
) -> bool:
    """Sample a depth-2m configuration and check the pair-transform correspondence.

    Contract: always True; any False is an implementation defect.
    """
    if m < 1:
        raise ValueError(f"half-depth must be >= 1, got {m}")
    sigma = sample_sigma(params, 2 * m, p, rng)
    return tree.correspondence_holds(params, sigma)


# ---------------------------------------------------------------------------
# critical-point location

#: Indicator level on the depth limit for deterministic bisection.
DP_THRESHOLD = 1e-6


def find_critical_dp(
    params: TreeParams,
    side: Side,
    cfg: SolverConfig = BISECTION_CONFIG,
    threshold: float = DP_THRESHOLD,
) -> float:
    """Locate one zebra-percolation threshold by bisecting the depth limit.

    The indicator is 'zebra_limit > threshold'; near-critical non-convergence
    of the limit iteration counts as below the threshold. Raises NoBracket
    when the indicator does not change over the initial bracket (k = 2).
    """

    def positive(p: float) -> bool:
        try:
            return zebra_limit(params, p) > threshold
        except NonConvergenceError:
            return False

    return _bisect_indicator(params, side, positive, cfg.tol)


def mc_indicator_threshold(params: TreeParams, depth: int) -> float:
    """Detection level for the finite-depth estimate: 1.5x the critical scale.

    A critical alternating-path process survives to depth n with probability
    about 4 / ((1 - k^-2) n); anything materially above that at the probe
    depth is treated as supercritical.
    """
    return 6.0 / (depth * (1.0 - 1.0 / (params.k * params.k)))


def find_critical_mc(
    params: TreeParams,
    side: Side,
    depth: int,
    trials: int,
    seed: int,
    cfg: SolverConfig = MC_BISECTION_CONFIG,
    workers: int = 1,
) -> float:
    """Monte-Carlo counterpart of find_critical_dp, a finite-depth proxy.

    Bisects the indicator 'estimated P(alternating ray to `depth`) above the
    depth-dependent detection level'. The located point sits slightly inside
    the true interval, with bias shrinking as the probe depth grows. Every
    indicator evaluation uses its own sub-seed, so the search is reproducible.
    With more than one worker, one process pool serves every probe and is
    shut down when the search returns.
    """
    _check_sampler_depth(depth)
    tau = mc_indicator_threshold(params, depth)
    event = zebra_ray(depth)
    counter = itertools.count()

    def bisect(executor) -> float:
        def positive(p: float) -> bool:
            est = estimate_probability(
                params, p, event, trials, derive_seed(seed, next(counter)),
                workers=workers, executor=executor,
            )
            return est.mean > tau

        return _bisect_indicator(params, side, positive, cfg.tol)

    pool_size = min(_resolve_workers(workers), trials)
    if pool_size <= 1:
        return bisect(None)
    with _pool_class()(max_workers=pool_size) as executor:
        return bisect(executor)


def _bisect_indicator(params: TreeParams, side: Side, positive, tol: float) -> float:
    if side is Side.LOWER:
        lo, hi = 0.0, 0.5
    else:
        lo, hi = 0.5, 1.0
    lo_pos, hi_pos = positive(lo), positive(hi)
    if lo_pos == hi_pos:
        raise NoBracketError(
            f"no zebra-percolation transition inside ({lo}, {hi}) for k={params.k}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if positive(mid) == hi_pos:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
