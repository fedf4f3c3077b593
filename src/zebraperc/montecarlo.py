"""Randomized estimation of tree-percolation events with reproducible streams.

Bonds are sampled lazily at first visit during depth-first search, existence
searches stop at the first witness, and every outcome is a pure function of
(seed, trial index, bond address). Estimates are folds over per-trial
outcomes with integer merges, so they are identical for any worker count and
any execution order.
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
from .params import BISECTION_CONFIG, SolverConfig, TreeParams, check_probability
from .rng import ROOT_KEY, TrialStream, child_key, derive_seed
from .tree import EdgeState, SigmaConfig, TooLargeError

#: Normal quantile for two-sided 95% intervals.
Z95 = 1.959963984540054

#: Frames of the recursion limit left to the callers of a sampler, whose
#: search takes one frame per level.
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
    """Refuse depths the recursive searches below cannot reach."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    limit = sys.getrecursionlimit() - SAMPLER_STACK_MARGIN
    if n > limit:
        raise TooLargeError(
            f"depth {n} exceeds the Monte-Carlo samplers' limit of {limit} levels "
            f"(one stack frame per level, recursion limit {sys.getrecursionlimit()})"
        )


def sample_open_ray(params: TreeParams, p: float, n: int, stream: TrialStream) -> bool:
    """One Bernoulli sample of 'a descending all-open path of length n exists'.

    Bonds are drawn lazily, each exactly once at its first visit; the search
    returns at the first witness ray.
    """
    check_probability(p)
    _check_sampler_depth(n)
    k = params.k
    is_open = stream.is_open

    def search(key: int, arity: int, remaining: int) -> bool:
        for i in range(arity):
            ck = child_key(key, i)
            if is_open(ck, p) and (remaining == 1 or search(ck, k, remaining - 1)):
                return True
        return False

    return search(ROOT_KEY, params.root_degree, n)


def sample_zebra_ray(params: TreeParams, p: float, n: int, stream: TrialStream) -> bool:
    """One Bernoulli sample of 'a descending alternating path of length n exists'.

    The first edge may take either state; below the root each edge must take
    the opposite of its predecessor's sampled state.
    """
    check_probability(p)
    _check_sampler_depth(n)
    k = params.k
    is_open = stream.is_open

    def search(key: int, arity: int, want_open: bool | None, remaining: int) -> bool:
        for i in range(arity):
            ck = child_key(key, i)
            o = is_open(ck, p)
            if want_open is None or o is want_open:
                if remaining == 1 or search(ck, k, not o, remaining - 1):
                    return True
        return False

    return search(ROOT_KEY, params.root_degree, None, n)


def count_zebra_connected(params: TreeParams, p: float, n: int, stream: TrialStream) -> int:
    """Exhaustive sample of X_n: depth-n vertices joined to the root by a zebra path.

    Traverses the whole zebra-reachable cone (no early stop).
    """
    check_probability(p)
    _check_sampler_depth(n)
    k = params.k
    is_open = stream.is_open

    def walk(key: int, arity: int, want_open: bool | None, remaining: int) -> int:
        total = 0
        for i in range(arity):
            ck = child_key(key, i)
            o = is_open(ck, p)
            if want_open is None or o is want_open:
                if remaining == 1:
                    total += 1
                else:
                    total += walk(ck, k, not o, remaining - 1)
        return total

    return walk(ROOT_KEY, params.root_degree, None, n)


def sample_sigma(params: TreeParams, depth: int, p: float, stream: TrialStream) -> SigmaConfig:
    """Materialize a full bond configuration of the depth-truncation.

    Uses the same per-bond derivation as the lazy samplers, so the explicit
    configuration agrees bond-for-bond with what a search would have drawn.
    """
    check_probability(p)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    is_open = stream.is_open
    states: dict[tree.Address, EdgeState] = {}

    def walk(v: tree.Address, key: int, remaining: int) -> None:
        for i in range(tree.degree(params, v)):
            ck = child_key(key, i)
            cv = v + (i,)
            states[cv] = EdgeState.OPEN if is_open(ck, p) else EdgeState.CLOSED
            if remaining > 1:
                walk(cv, ck, remaining - 1)

    walk(tree.ROOT, ROOT_KEY, depth)
    return SigmaConfig(depth=depth, states=states)


# ---------------------------------------------------------------------------
# estimators

def _bernoulli_chunk(args) -> int:
    params, p, event, seed, start, stop = args
    sampler = sample_open_ray if event.kind is EventKind.OPEN_RAY else sample_zebra_ray
    n = event.depth
    hits = 0
    for t in range(start, stop):
        if sampler(params, p, n, TrialStream(seed, t)):
            hits += 1
    return hits


def _count_chunk(args) -> tuple[int, int]:
    params, p, event, seed, start, stop = args
    n = event.depth
    total = total_sq = 0
    for t in range(start, stop):
        x = count_zebra_connected(params, p, n, TrialStream(seed, t))
        total += x
        total_sq += x * x
    return total, total_sq


def _resolve_workers(workers: int) -> int:
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first use (PEP 562).

    Importing concurrent.futures adds to the start-up of every command, and
    only runs with more than one worker use the pool. Once imported, the class
    is an ordinary module attribute, which _map_chunks looks up on each call,
    so a class set on the module in its place (say, one that counts pool
    starts) is the one used.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _map_chunks(fn, params, p, event, seed, trials: int, workers: int) -> list:
    _check_sampler_depth(event.depth)
    workers = min(_resolve_workers(workers), trials)
    if workers <= 1:
        return [fn((params, p, event, seed, 0, trials))]
    step = (trials + workers - 1) // workers
    jobs = [
        (params, p, event, seed, start, min(start + step, trials))
        for start in range(0, trials, step)
    ]
    pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    with pool_class(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def estimate_probability(
    params: TreeParams,
    p: float,
    event: EventSpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Monte-Carlo estimate of an existence event with a Wilson 95% interval.

    Trial t draws its bonds from the (seed, t) stream; the result is a pure
    function of (params, p, event, trials, seed) and `workers` only changes
    wall time. Counting events go through `estimate_count`.
    """
    check_probability(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if event.kind is EventKind.ZEBRA_COUNT:
        raise ValueError("estimate_probability handles existence events; use estimate_count")
    hits = sum(_map_chunks(_bernoulli_chunk, params, p, event, seed, trials, workers))
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
    a probability. With exact=True the sum runs in rational arithmetic over
    the binary expansion of p and a Fraction is returned.

    Reproducibility contract: configuration `code` runs over 0 .. 2**n - 1 for
    the n edges of the truncation, bit j of `code` (least significant first)
    holding the state, 1 open, of edge j of tree.edges (the order of
    tree.enumerate_configs). Its term, multiplicity * p**opens *
    (1-p)**(n-opens) with the powers built by repeated multiplication, is
    added to the sum in increasing order of `code`, so float results are
    bit-identical from run to run.
    """
    check_probability(p)
    roots, below = tree.edge_lists(params, event.depth)
    n_edges = len(below)
    if exact:
        pf: Fraction | float = Fraction(p)
        one: Fraction | float = Fraction(1)
    else:
        pf, one = p, 1.0
    p_pow = [one] + list(itertools.accumulate([pf] * n_edges, lambda acc, v: acc * v))
    q_pow = [one] + list(
        itertools.accumulate([one - pf] * n_edges, lambda acc, v: acc * v)
    )
    alternate = event.kind is not EventKind.OPEN_RAY
    count = event.kind is EventKind.ZEBRA_COUNT
    total = one - one
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
    cfg: SolverConfig = SolverConfig(tol=1 / 256, max_iter=10**4),
    workers: int = 1,
) -> float:
    """Monte-Carlo counterpart of find_critical_dp, a finite-depth proxy.

    Bisects the indicator 'estimated P(alternating ray to `depth`) above the
    depth-dependent detection level'. The located point sits slightly inside
    the true interval, with bias shrinking as the probe depth grows. Every
    indicator evaluation uses its own sub-seed, so the search is reproducible.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    tau = mc_indicator_threshold(params, depth)
    event = zebra_ray(depth)
    counter = itertools.count()

    def positive(p: float) -> bool:
        est = estimate_probability(
            params, p, event, trials, derive_seed(seed, next(counter)), workers=workers
        )
        return est.mean > tau

    return _bisect_indicator(params, side, positive, cfg.tol)


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
