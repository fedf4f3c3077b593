"""The verify command: invariant suites that tie the routes together.

Each suite returns (check, ok, detail) triples, one PASS or FAIL line each on
stdout. Only `zebraperc verify` imports this module, so no other command
compiles the suites.
"""

from __future__ import annotations

import argparse
import contextlib

from . import analytic
from .cli import _VERIFY_FIELDS, CHOICES, _fmt, _grid, _resolve, _writer
from .params import TreeParams, open_ray, zebra_ray


def _suite_closed_form() -> list[tuple[str, bool, str]]:
    results = []
    for k in (2, 3):
        params = TreeParams(k=k)
        worst = max(abs(analytic.theta_fixed_point(params, p) - analytic.theta_closed_form(k, p))
                    for p in (1.0 / k + j * (1.0 - 1.0 / k) / 200 for j in range(1, 201)))
        results.append((f"closed-form k={k}", worst < 1e-9,
                        f"max |fixed-point - closed-form| = {worst:.3e}"))
    return results


def _suite_inverse() -> list[tuple[str, bool, str]]:
    """Round trip through theta_inverse on 100 points of (1/k, 1].

    theta(inverse(theta)) must return theta on every point. p itself is
    checked only where theta <= 1 - 1e-6: closer to 1, one ulp of theta moves
    its inverse by more than the 1e-7 the check allows.
    """
    results = []
    for k in range(2, 7):
        params = TreeParams(k=k)
        worst_theta = worst_p = 0.0
        for p in _grid(1.0 / k, 1.0, 101)[1:]:
            theta = analytic.theta_fixed_point(params, p)
            inverse = analytic.theta_inverse(k, theta)
            worst_theta = max(
                worst_theta, abs(analytic.theta_fixed_point(params, inverse) - theta)
            )
            if theta <= 1.0 - 1e-6:
                worst_p = max(worst_p, abs(inverse - p))
        results.append(
            (
                f"inverse k={k}",
                worst_theta < 1e-12 and worst_p < 1e-7,
                f"max |theta(inverse(theta)) - theta| = {worst_theta:.3e}, "
                f"max |inverse(theta(p)) - p| = {worst_p:.3e} where theta <= 1 - 1e-6",
            )
        )
    return results


def _suite_oracle() -> list[tuple[str, bool, str]]:
    from fractions import Fraction

    from .tree import brute_force_probability

    params = TreeParams(k=2)
    worst = max(max(abs(brute_force_probability(params, p, zebra_ray(depth))
                        - analytic.zebra_dp_state(params, p, depth).z),
                    abs(brute_force_probability(params, p, open_ray(depth))
                        - analytic.open_ray_probability(params, p, depth)))
                for depth in (1, 2, 3) for p in (0.2, 0.5, 0.8))
    reference = brute_force_probability(params, 0.5, zebra_ray(2), exact=True)
    return [
        ("oracle k=2 depths 1-3", worst < 1e-12, f"max |brute force - recursion| = {worst:.3e}"),
        ("oracle reference 15/16", reference == Fraction(15, 16),
         f"exact P(alternating ray, depth 2, p=1/2) = {reference}"),
    ]


def _suite_transform() -> list[tuple[str, bool, str]]:
    from . import montecarlo, tree

    params2 = TreeParams(k=2)
    n_edges = tree.edge_count(params2, 2)
    failures = tree.transform_check(params2, 1)
    exhaustive_ok = not failures(tree.block_tables(n_edges), (1 << (1 << n_edges)) - 1)
    results = [("transform exhaustive k=2 depth=2", exhaustive_ok, "all 64 configurations")]
    checks = [
        ("k=2 depth=4", params2, 2, 16384),
        ("k=2 depth=6", params2, 3, 10000),
        ("k=3 depth=4", TreeParams(k=3), 2, 10000),
    ]
    for label, params, m, count in checks:
        failures = tree.transform_check(params, m)
        ok = not any(failures(montecarlo.sample_tables(params, 2 * m, 0.5, b), (1 << len(b)) - 1)
                     for b in montecarlo.chunk_bases(params, 0, 0, count))
        results.append((f"transform sampled {label}", ok, f"{count} seeded configurations"))
    return results


RELATION_HEADER = "k,p,dp_limit,relation,abs_dev"


def _suite_relation(csv_line, output: str | None) -> list[tuple[str, bool, str]]:
    """Thresholds of the depth limit and of the paper's relation, and their gap.

    Within 0.01 of the open interval's ends the depth limit must also agree
    with the depth-1000 recursion to 1e-12. The deviation grid goes to
    `csv_line`, the writer of `output`, when there is one.
    """
    results = []
    lines = [RELATION_HEADER]
    for k in (3, 4):
        params = TreeParams(k=k)
        pair = analytic.zebra_critical_pair(params)
        max_dev = max_gap = 0.0
        outside_ok = True
        for j in range(101):
            p = j / 100
            dp_value = analytic.zebra_limit(params, p)
            rel_value = analytic.zebra_via_relation(params, p)
            dev = abs(dp_value - rel_value)
            max_dev = max(max_dev, dev)
            lines.append(
                f"{k},{_fmt(p)},{_fmt(dp_value)},{_fmt(rel_value)},{_fmt(dev)}"
            )
            if (p <= pair.p_low or p >= pair.p_high) and (dp_value >= 1e-6 or rel_value >= 1e-6):
                outside_ok = False
            if pair.p_low + 0.01 <= p <= pair.p_high - 0.01:
                depth_value = analytic.zebra_dp_state(params, p, 1000).z
                max_gap = max(max_gap, abs(dp_value - depth_value))
        mid_dp = analytic.zebra_limit(params, 0.5)
        mid_rel = analytic.zebra_via_relation(params, 0.5)
        results.append(
            (
                f"relation thresholds k={k}",
                outside_ok and mid_dp > 1e-4 and mid_rel > 1e-4,
                f"both vanish outside ({_fmt(pair.p_low)}, {_fmt(pair.p_high)}), "
                f"both positive at p=1/2",
            )
        )
        results.append(
            (
                f"relation recursion k={k}",
                max_gap <= 1e-12,
                f"max |dp-limit - depth-1000 recursion| = {max_gap:.3e} "
                f"on the grid points at least 0.01 inside the thresholds",
            )
        )
        results.append(
            (
                f"relation report k={k}",
                True,
                f"max pointwise |dp-limit - relation| = {max_dev:.6f} (reported, not asserted)",
            )
        )
    if csv_line is None:
        results.append(("relation csv", True, "deviation grid not written (no --output)"))
        return results
    csv_line("\n".join(lines))
    results.append(("relation csv", True, f"deviation grid written to {output}"))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    rc = _resolve(args, _VERIFY_FIELDS)
    suite = rc["suite"]
    names = [s for s in CHOICES["suite"] if s != "all"] if suite == "all" else [suite]
    # the relation suite's CSV is opened first, so that a bad --output
    # stops the run before any suite does work
    output = rc["output"] if "relation" in names else None
    with _writer(output) if output else contextlib.nullcontext() as csv_line:
        runners = {
            "closed-form": _suite_closed_form,
            "inverse": _suite_inverse,
            "oracle": _suite_oracle,
            "transform": _suite_transform,
            "relation": lambda: _suite_relation(csv_line, output),
        }
        all_ok = True
        for name in names:
            try:
                results = runners[name]()
            except Exception as exc:  # a crashed suite fails, and the others still run
                results = [(name, False, f"{type(exc).__name__}: {exc}")]
            for check, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
                all_ok = all_ok and ok
    return 0 if all_ok else 1
