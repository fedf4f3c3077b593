"""Deterministic numerics for standard and alternating-path (zebra) percolation.

Closed forms, fixed-point solves, exact finite-depth recursions, critical
values, and the order-k^2 relation between the two percolation functions on
rooted trees of branching order k. Both fixed-point solves, theta's branch
value and the zebra depth limit, are one Newton solve of the even-level map
(`_even_level_limit`), with q = p for open paths. All functions are pure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

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
    low = 2.0 / (k * (k + math.sqrt(k * k - 4.0)))  # (k - sqrt(k^2 - 4)) / 2k, uncancelled
    return CriticalPair(p_low=low, p_high=1.0 - low)


def _power_series(k: int, u: float) -> tuple[float, float]:
    """S(u) = sum_{j<k} (1 - (1-u)^j) and its derivative S'(u), for k u <= 1/2.

    S splits the power without cancellation: 1 - (1-u)^k = u (k - S(u)). It is
    summed as the series sum_{m>=1} (-1)^(m+1) C(k, m+1) u^m, whose terms
    shrink at least as fast as (k u)^m / (m+1)!.
    """
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
    return s, ds


def _zebra_gap(k: int, p: float, q: float, excess: float, a: float) -> tuple[float, float]:
    """h(a) = F(G(a)) - a and its slope h'(a), without cancellation.

    F, G and q are those of `_even_level_limit`; excess is k^2 p q - 1, rounded
    once. Where k q a or k p G exceeds 1/2, h is evaluated directly; there the
    fixed point lies away from 0 and |h'| is bounded away from 0. Below that,
    with u = q a, v = p G and S from `_power_series`,
    h = a (excess - k p q S(u)) - p G S(v), and the difference is again the
    conditioning of the root itself.
    """
    u = q * a
    log_u = math.log1p(-u)
    g = -math.expm1(k * log_u)
    v = p * g
    log_v = math.log1p(-v)
    if k * max(u, v) > 0.5:
        return (-math.expm1(k * log_v) - a,
                k * k * p * q * math.exp((k - 1) * (log_u + log_v)) - 1.0)
    s_u, ds_u = _power_series(k, u)
    s_v, ds_v = _power_series(k, v)
    kpq = k * p * q
    dg = q * (k - s_u - u * ds_u)
    return (a * (excess - kpq * s_u) - p * g * s_v,
            excess - kpq * (s_u + u * ds_u) - p * dg * (s_v + v * ds_v))


def _even_level_limit(k: int, p: float, alternate: bool, cfg: SolverConfig) -> float:
    """Largest fixed point a of the even-level map a -> F(G(a)), by Newton's method from 1.

    F(b) = 1 - (1 - p b)^k and G(a) = 1 - (1 - q a)^k, a two-type Galton-Watson
    generating map, with q = 1 - p for alternating paths (`alternate`, as in
    tree.reach) and q = p for open ones; exactly 0 when k^2 p q <= 1. The map is
    increasing and concave, so the iterates for h(a) = F(G(a)) - a fall
    monotonically onto the fixed point. A step of at most cfg.tol * a, or one
    not down, stops the solve; the value returned is at most that step above it.
    h is evaluated without cancellation (see `_zebra_gap`) from k^2 p q - 1
    computed exactly, so full float accuracy holds as k^2 p q approaches 1.
    """
    num, den = p.as_integer_ratio()
    excess_num = k * k * num * (den - num if alternate else num) - den * den
    if excess_num <= 0:
        return 0.0
    excess = excess_num / (den * den)  # k^2 p q - 1, rounded once
    q = 1.0 - p if alternate else p
    a = 1.0
    for _ in range(cfg.max_iter):
        gap, slope = _zebra_gap(k, p, q, excess, a)
        a_next = a - gap / slope
        step = a - a_next
        if step <= cfg.tol * a_next:
            return min(a, a_next)
        a = a_next
    what = "zebra limit" if alternate else "fixed point"
    raise NonConvergenceError(f"{what} not within tol={cfg.tol} after {cfg.max_iter} iterations",
                              a, cfg.max_iter, step)


def theta_branch_fixed_point(k: int, p: float, cfg: SolverConfig = FIXED_POINT_CONFIG) -> float:
    """Largest fixed point of F(x) = 1 - (1 - p x)^k: the branch value of theta_k.

    F is increasing, so F(F(x)) has the same fixed points: this is
    `_even_level_limit` with q = p, and cfg.max_iter (--max-iter) counts its
    Newton steps on F(F(x)). cfg.tol bounds the relative (and, as x <= 1, the
    absolute) error. Exactly 0 when k p <= 1 for the exact value of the double
    p, and 1 for p = 1, without iterating.
    """
    check_probability(p)
    if k < 2:
        raise ValueError(f"branching order k must be >= 2, got {k}")
    if p == 1.0:
        return 1.0
    return _even_level_limit(k, p, False, cfg)


def _at_root(root, solve, *args) -> float:
    """root(solve(*args)); a failed solve carries the root value of its last iterate."""
    try:
        value = solve(*args)
    except NonConvergenceError as err:
        err.last_value = root(err.last_value)
        raise
    return root(value)


def theta_fixed_point(
    params: TreeParams, p: float, cfg: SolverConfig = FIXED_POINT_CONFIG
) -> float:
    """Standard percolation function: P(the root joins an infinite open cluster).

    Solves the branch equation with exponent k, then applies the root-degree
    correction: the rooted-k mode reproduces the branch value, the full-Cayley
    mode uses exponent k+1 at the root. A failed solve carries the root value
    of its last iterate.
    """
    def root(x: float) -> float:
        return x if x in (0.0, 1.0) else -math.expm1(params.root_degree * math.log1p(-p * x))

    return _at_root(root, theta_branch_fixed_point, params.k, p, cfg)


def theta_closed_form(k: int, p: float) -> float:
    """Closed forms of the percolation function, known for k = 2 and k = 3."""
    check_probability(p)
    if k == 2:
        if p <= 0.5:
            return 0.0
        return (2.0 * p - 1.0) / (p * p)
    if k == 3:
        num, den = p.as_integer_ratio()
        if 3 * num <= den:
            return 0.0
        excess = (3 * num - den) / den  # 3p - 1, exact and rounded once; 2p - 1 is exact
        return 2.0 * excess / (p * (3.0 * p + math.sqrt(p * (4.0 - 3.0 * p))))
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
    return list(_zebra_dp_states(params, p, n))


def zebra_dp_state(params: TreeParams, p: float, n: int) -> ZebraDPState:
    """zebra_dp(params, p, n)[n] in constant memory, and in constant time once (a, b) repeats.

    A step that leaves (a, b) exactly as it was leaves it so at every later
    depth, each with the same z, so the depth-n state is that step's with
    depth n. Only an exact repeat stops the iteration; a float 2-cycle runs
    all n steps.
    """
    last = None
    for state in _zebra_dp_states(params, p, n):
        if last is not None and (state.a, state.b) == (last.a, last.b):
            return ZebraDPState(depth=n, a=state.a, b=state.b, z=state.z)
        last = state
    return last


def _zebra_dp_states(params: TreeParams, p: float, n: int) -> Iterator[ZebraDPState]:
    """The states of zebra_dp one at a time."""
    check_probability(p)
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    k = params.k
    d = params.root_degree
    q = 1.0 - p
    yield ZebraDPState(depth=0, a=1.0, b=1.0, z=1.0)
    a = b = 1.0
    for m in range(1, n + 1):
        z = 1.0 - (1.0 - (p * b + q * a)) ** d
        a, b = 1.0 - (1.0 - p * b) ** k, 1.0 - (1.0 - q * a) ** k
        yield ZebraDPState(depth=m, a=a, b=b, z=z)


def _zebra_root(params: TreeParams, p: float, a: float) -> float:
    """Root value 1 - (1 - (p G(a) + q a))^d of the even-level value a, q = 1 - p."""
    qa = (1.0 - p) * a
    s = p * -math.expm1(params.k * math.log1p(-qa)) + qa
    return 1.0 if s >= 1.0 else -math.expm1(params.root_degree * math.log1p(-s))


def zebra_limit(params: TreeParams, p: float, cfg: SolverConfig = LIMIT_CONFIG) -> float:
    """Depth limit of the alternating-path probability from the root.

    The pair recursion's even-level value tends to a, `_even_level_limit` with
    q = 1 - p, whose Newton steps cfg.max_iter (--max-iter) counts. Returns the
    root value 1 - (1 - (p G(a) + q a))^d over the root degree d, exactly 0 when
    k^2 p (1-p) <= 1; a failed solve carries the root value of its last iterate.
    """
    check_probability(p)
    return _at_root(lambda a: _zebra_root(params, p, a), _even_level_limit, params.k, p, True, cfg)


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
    """First moment of the number of depth-n vertices zebra-connected to the root.

    level_size * path_probability as root_degree * (k^2 p (1-p))^(n//2), times 2/k for even n:
    k^(n-1) and (p(1-p))^(n/2) alone leave the float range long before their product.
    inf past the float range.
    """
    check_probability(p)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    try:
        value = params.root_degree * (params.k * params.k * p * (1.0 - p)) ** (n // 2)
    except OverflowError:
        return math.inf
    return value if n % 2 else value / params.k * 2.0  # over k first: a finite result stays finite


def open_ray_probability(params: TreeParams, p: float, n: int) -> float:
    """Exact probability of a descending all-open path of length n from the root.

    Stops at the first exact repeat of the branch value, which every later
    step would leave as it is, as zebra_dp_state does for its (a, b).
    """
    check_probability(p)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    k = params.k
    s = 1.0
    for _ in range(n - 1):
        s, last = 1.0 - (1.0 - p * s) ** k, s
        if s == last:
            break
    return 1.0 - (1.0 - p * s) ** params.root_degree
