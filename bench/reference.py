"""Reference values for the benchmark's output checks, independent of zebraperc.

Nothing here imports zebraperc. Fixed points are solved in mpmath at 50
digits by bisection, finite-depth oracle values by exact Fraction recursion,
the Monte-Carlo count by its closed-form first moment, and the zebra
thresholds from the roots of k^2 p (1-p) = 1. `self_check` ties each route to
the known k = 2 and k = 3 closed forms before any output is judged.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

DIGITS = 50
_BISECT_STEPS = 200  # 2**-200 is far below 10**-DIGITS


def _largest_fixed_point(f, slope_at_zero):
    """Largest x in (0, 1] with f(x) = x, for an increasing concave f with f(0) = 0.

    Such an f has a positive fixed point only when f'(0) > 1; f(x) > x below
    it and f(x) < x above it, so bisection on the sign of f(x) - x finds it.
    """
    if slope_at_zero <= 1:
        return mpmath.mpf(0)
    lo, hi = mpmath.mpf(10) ** (-(DIGITS - 10)), mpmath.mpf(1)
    for _ in range(_BISECT_STEPS):
        mid = (lo + hi) / 2
        if f(mid) > mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@functools.lru_cache(maxsize=None)
def branch_fixed_point(k: int, p: float) -> mpmath.mpf:
    """Largest root of x = 1 - (1 - p x)^k: the rooted-k percolation function."""
    with mpmath.workdps(DIGITS):
        pm = mpmath.mpf(p)
        return +_largest_fixed_point(lambda x: 1 - (1 - pm * x) ** k, k * pm)


def theta(k: int, p: float) -> mpmath.mpf:
    """Standard percolation function on the rooted-k tree (root degree k)."""
    return branch_fixed_point(k, p)


@functools.lru_cache(maxsize=None)
def zebra_limit(k: int, p: float) -> mpmath.mpf:
    """Depth limit of P(alternating path from the root), rooted-k mode.

    The pair a = 1 - (1 - p b)^k, b = 1 - (1 - q a)^k reduces to the composed
    map a -> F(G(a)); the root value is 1 - (1 - (p b + q a))^k.
    """
    with mpmath.workdps(DIGITS):
        pm = mpmath.mpf(p)
        qm = 1 - pm

        def b_of(a):
            return 1 - (1 - qm * a) ** k

        a = _largest_fixed_point(lambda a: 1 - (1 - pm * b_of(a)) ** k, k * k * pm * qm)
        return +(1 - (1 - (pm * b_of(a) + qm * a)) ** k)


def zebra_relation(k: int, p: float) -> mpmath.mpf:
    """theta on the order-k^2 tree at bond probability p (1-p)."""
    with mpmath.workdps(DIGITS):
        pm = mpmath.mpf(p)
        pq = pm * (1 - pm)
        return +_largest_fixed_point(lambda x: 1 - (1 - pq * x) ** (k * k), k * k * pq)


def zebra_pair(k: int) -> tuple[float, float]:
    """The two roots of k^2 p (1-p) = 1, lower first."""
    low = (k - math.sqrt(k * k - 4)) / (2 * k)
    return low, 1.0 - low


def expected_zebra_count(k: int, p: float, n: int) -> float:
    """E[X_n]: k^n vertices at depth n, each zebra-connected with 2 (p(1-p))^(n/2), n even."""
    pq = p * (1.0 - p)
    if n % 2 == 0:
        return k**n * 2.0 * pq ** (n // 2)
    return k**n * pq ** ((n - 1) // 2)


def exact_zebra_ray(k: int, p: Fraction, n: int) -> Fraction:
    """Exact P(an alternating path of length n from the root), rooted-k mode.

    open_m / closed_m: such a path of length m exists below a vertex whose
    next edge must be open / closed.
    """
    q = 1 - p
    open_m = closed_m = Fraction(1)
    for _ in range(n - 1):
        open_m, closed_m = (1 - (1 - p * closed_m) ** k, 1 - (1 - q * open_m) ** k)
    return 1 - (1 - (p * closed_m + q * open_m)) ** k


def exact_zebra_count(k: int, p: Fraction, n: int) -> Fraction:
    """Exact E[X_n] by recursion on the required state of the next edge."""
    q = 1 - p
    open_m = closed_m = Fraction(1)  # expected depth-m endpoints below a vertex
    for _ in range(n - 1):
        open_m, closed_m = k * p * closed_m, k * q * open_m
    return k * (p * closed_m + q * open_m)


def self_check() -> list[str]:
    """Compare every reference route with an independent closed form; return failures."""
    failures = []
    with mpmath.workdps(DIGITS):
        for p in (0.5 + 1e-6, 0.6, 0.75, 0.9, 1.0):
            pm = mpmath.mpf(p)
            want = (2 * pm - 1) / pm**2
            if abs(theta(2, p) - want) > mpmath.mpf(10) ** -40:
                failures.append(f"theta_2({p})")
        for p in (1 / 3 + 1e-6, 0.4, 0.5, 0.8, 1.0):
            pm = mpmath.mpf(p)
            want = 2 * (3 * pm - 1) / (pm * (3 * pm + mpmath.sqrt(pm * (4 - 3 * pm))))
            if abs(theta(3, p) - want) > mpmath.mpf(10) ** -40:
                failures.append(f"theta_3({p})")
        for p in (0.25, 0.5):
            # at k = 2 the zebra limit and the relation vanish: 4 p (1-p) <= 1
            if zebra_limit(2, p) != 0 or zebra_relation(2, p) != 0:
                failures.append(f"zebra k=2 p={p} not zero")
    for k in range(3, 7):
        low, high = zebra_pair(k)
        for root in (low, high):
            if abs(k * k * root * (1 - root) - 1) > 1e-12:
                failures.append(f"zebra_pair({k})")
    if exact_zebra_ray(2, Fraction(1, 2), 2) != Fraction(15, 16):
        failures.append("exact_zebra_ray(2, 1/2, 2)")
    for k, n in ((2, 3), (3, 4)):
        for p in (Fraction(1, 5), Fraction(1, 2)):
            if not math.isclose(float(exact_zebra_count(k, p, n)),
                                expected_zebra_count(k, float(p), n), rel_tol=1e-14):
                failures.append(f"exact_zebra_count({k}, {p}, {n})")
    return failures
