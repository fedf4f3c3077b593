"""Deterministic numerics for standard and alternating-path (zebra) percolation.

Closed forms, fixed-point solves, exact finite-depth recursions, critical
values, and the order-k^2 relation between the two percolation functions on
rooted trees of branching order k. All functions are pure.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .params import (
    FIXED_POINT_CONFIG,
    LIMIT_CONFIG,
    RootMode,
    SolverConfig,
    TreeParams,
    check_probability,
)


class NonConvergenceError(RuntimeError):
    """Iteration failed to reach the requested tolerance.

    Carries the last value, the number of iterations run and the size of the
    last step, which the solve compared against its tolerance.
    """

    def __init__(self, message: str, last_value: float, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.last_value = last_value
        self.iterations = iterations
        self.residual = residual


class UnsupportedOrderError(ValueError):
    """No closed form is available for this branching order."""


class ZebraDPState(namedtuple("ZebraDPState", "depth a b z")):
    """Exact depth-n probabilities of parity-conditioned alternating paths.

    a: a descending alternating path of length `depth` whose first edge is
    open exists below a vertex with k children; b: the same with the first
    edge closed; z: the same from the root with either first-edge state.
    """

    __slots__ = ()


class CriticalPair(namedtuple("CriticalPair", "p_low p_high")):
    """The two zebra-percolation thresholds, symmetric about 1/2."""

    __slots__ = ()

    def __new__(cls, p_low: float, p_high: float):
        check_probability(p_low, "p_low")
        check_probability(p_high, "p_high")
        if p_low > p_high:
            raise ValueError(f"p_low={p_low} exceeds p_high={p_high}")
        return super().__new__(cls, p_low, p_high)


def path_probability(p: float, n: int) -> float:
    """Probability that one fixed descending length-n path alternates open/closed.

    Either starting state is admissible: 2*(p(1-p))**(n/2) for even n and
    (p(1-p))**((n-1)/2) for odd n.
    """
    check_probability(p)
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    pq = p * (1.0 - p)
    if n % 2 == 0:
        return 2.0 * pq ** (n // 2)
    return pq ** ((n - 1) // 2)


def standard_critical(params: TreeParams) -> float:
    """Critical bond probability of standard percolation: 1/k in either root mode."""
    return 1.0 / params.k


def zebra_critical_pair(params: TreeParams) -> CriticalPair:
    """The two roots of k^2 p (1-p) = 1; they coincide at 1/2 for k = 2."""
    k = params.k
    low = (k - math.sqrt(k * k - 4.0)) / (2.0 * k)
    return CriticalPair(p_low=low, p_high=1.0 - low)


def _branch_gap(k: int, p: float, excess: float, x: float) -> tuple[float, float]:
    """g(x) = 1 - (1 - p x)^k - x and its slope g'(x), without cancellation.

    excess is k p - 1, rounded once. Where k p x > 1/2, g is evaluated
    directly; there |g'| is bounded away from 0 on the iterates. Below that,
    g = x (excess - p S(px)) with S(u) = sum_{j<k} (1 - (1-u)^j), summed as
    the series sum_{m>=1} (-1)^(m+1) C(k, m+1) u^m, whose terms shrink at least
    as fast as (k u)^m / (m+1)!. The difference excess - p S is then the only
    cancellation left, and it is the conditioning of the root itself.
    """
    u = p * x
    if k * u > 0.5:
        log_rest = math.log1p(-u)
        return (-math.expm1(k * log_rest) - x,
                k * p * math.exp((k - 1) * log_rest) - 1.0)
    s = ds = 0.0
    coef = k * (k - 1) / 2.0  # (-1)^(m+1) C(k, m+1)
    power = 1.0  # u^(m-1)
    for m in range(1, k):
        term = coef * power
        s += term * u
        ds += m * term
        if abs(term * u) <= 1e-17 * abs(s):
            break
        coef *= -(k - m - 1) / (m + 2)
        power *= u
    h = excess - p * s
    return x * h, h - x * p * p * ds


def theta_branch_fixed_point(
    k: int, p: float, cfg: SolverConfig = FIXED_POINT_CONFIG
) -> float:
    """Largest fixed point of x -> 1 - (1 - p x)^k, by Newton's method from 1.

    Returns exactly 0 for p <= 1/k and 1 for p = 1 without iterating. The map
    is increasing and concave with a convex slope, so the Newton iterates for
    g(x) = 1 - (1 - p x)^k - x fall monotonically onto the positive fixed point
    and each step at least halves the distance to it. The solve stops when a
    step moves x by at most cfg.tol * x, or no longer moves it down; the value
    returned then lies above the fixed point by at most that step, so cfg.tol
    bounds its relative (and, as x <= 1, its absolute) error up to rounding.
    g is evaluated without cancellation (see `_branch_gap`), so the result
    keeps full float accuracy as p approaches 1/k.
    """
    check_probability(p)
    if k < 2:
        raise ValueError(f"branching order k must be >= 2, got {k}")
    if p * k <= 1.0:
        return 0.0
    if p == 1.0:
        return 1.0
    num, den = p.as_integer_ratio()
    excess = (k * num - den) / den  # k p - 1, rounded once
    x = 1.0
    for _ in range(cfg.max_iter):
        gap, slope = _branch_gap(k, p, excess, x)
        x_next = x - gap / slope
        step = x - x_next
        if step <= cfg.tol * x_next:
            return min(x, x_next)
        x = x_next
    raise NonConvergenceError(
        f"fixed point not within tol={cfg.tol} after {cfg.max_iter} iterations", x,
        cfg.max_iter, step,
    )


def theta_fixed_point(
    params: TreeParams, p: float, cfg: SolverConfig = FIXED_POINT_CONFIG
) -> float:
    """Standard percolation function: P(the root joins an infinite open cluster).

    Solves the branch equation with exponent k, then applies the root-degree
    correction: the rooted-k mode reproduces the branch value, the full-Cayley
    mode uses exponent k+1 at the root.
    """
    branch = theta_branch_fixed_point(params.k, p, cfg)
    if branch in (0.0, 1.0):
        return branch
    return -math.expm1(params.root_degree * math.log1p(-p * branch))


def theta_closed_form(k: int, p: float) -> float:
    """Closed forms of the percolation function, known for k = 2 and k = 3."""
    check_probability(p)
    if k == 2:
        if p <= 0.5:
            return 0.0
        return (2.0 * p - 1.0) / (p * p)
    if k == 3:
        if 3.0 * p <= 1.0:
            return 0.0
        return 2.0 * (3.0 * p - 1.0) / (p * (3.0 * p + math.sqrt(p * (4.0 - 3.0 * p))))
    raise UnsupportedOrderError(f"closed form known only for k in {{2, 3}}, got k={k}")


def theta_inverse(k: int, x: float) -> float:
    """Inverse of the supercritical percolation branch: the p with theta_k(p) = x.

    Evaluates (1 - (1-x)^(1/k)) / x as -expm1(log1p(-x) / k) / x, which does
    not cancel for small x. Returns the continuous limit 1/k at x = 0 and
    exactly 1 at x = 1.
    """
    check_probability(x, "x")
    if k < 2:
        raise ValueError(f"branching order k must be >= 2, got {k}")
    if x == 0.0:
        return 1.0 / k
    if x == 1.0:
        return 1.0
    return -math.expm1(math.log1p(-x) / k) / x


def zebra_dp(params: TreeParams, p: float, n: int) -> list[ZebraDPState]:
    """Exact alternating-path probabilities for depths 0..n.

    a_m = 1 - (1 - p b_{m-1})^k and b_m = 1 - (1 - (1-p) a_{m-1})^k; the root
    value combines both parities over the root degree d:
    z_m = 1 - (1 - p b_{m-1} - (1-p) a_{m-1})^d.
    """
    check_probability(p)
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    k = params.k
    d = params.root_degree
    q = 1.0 - p
    states = [ZebraDPState(depth=0, a=1.0, b=1.0, z=1.0)]
    a = b = 1.0
    for m in range(1, n + 1):
        z = 1.0 - (1.0 - (p * b + q * a)) ** d
        a, b = 1.0 - (1.0 - p * b) ** k, 1.0 - (1.0 - q * a) ** k
        states.append(ZebraDPState(depth=m, a=a, b=b, z=z))
    return states


def zebra_limit(params: TreeParams, p: float, cfg: SolverConfig = LIMIT_CONFIG) -> float:
    """Depth limit of the alternating-path probability from the root.

    Returns exactly 0 when k^2 p (1-p) <= 1 without iterating; otherwise
    iterates the depth recursion until successive root values differ by less
    than cfg.tol.
    """
    check_probability(p)
    k = params.k
    q = 1.0 - p
    if k * k * p * q <= 1.0:
        return 0.0
    d = params.root_degree
    a = b = 1.0
    z_prev = math.inf
    for _ in range(cfg.max_iter):
        z = 1.0 - (1.0 - (p * b + q * a)) ** d
        step = abs(z - z_prev)
        if step < cfg.tol:
            return z
        z_prev = z
        a, b = 1.0 - (1.0 - p * b) ** k, 1.0 - (1.0 - q * a) ** k
    raise NonConvergenceError(
        f"zebra limit not within tol={cfg.tol} after {cfg.max_iter} depths", z_prev,
        cfg.max_iter, step,
    )


def zebra_via_relation(
    params: TreeParams, p: float, cfg: SolverConfig = FIXED_POINT_CONFIG
) -> float:
    """Zebra function via the even-level construction: theta_{k^2} at p(1-p).

    Always evaluated in rooted-k mode on the order-k^2 tree. The depth
    recursion and this value agree on where they vanish but need not agree
    pointwise; `cli verify --suite relation` reports the measured gap.
    """
    check_probability(p)
    hat = TreeParams(k=params.k * params.k, root_mode=RootMode.ROOTED_K)
    return theta_fixed_point(hat, p * (1.0 - p), cfg)


def expected_zebra_count(params: TreeParams, p: float, n: int) -> float:
    """First moment of the number of depth-n vertices zebra-connected to the root."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    from .tree import level_size

    return level_size(params, n) * path_probability(p, n)


def open_ray_probability(params: TreeParams, p: float, n: int) -> float:
    """Exact probability of a descending all-open path of length n from the root."""
    check_probability(p)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    k = params.k
    s = 1.0
    for _ in range(n - 1):
        s = 1.0 - (1.0 - p * s) ** k
    return 1.0 - (1.0 - p * s) ** params.root_degree
