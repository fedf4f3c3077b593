"""Command-line surface: point evaluation, sweeps, critical points, verification.

stdout carries data only (CSV or JSON lines); stderr carries the resolved
configuration and human messages. Identical command lines produce
byte-identical stdout regardless of ZEBRA_PERC_THREADS.

Exit codes: 0 ok, 1 verification failure, 2 invalid configuration,
3 non-convergence, 4 too large / unsupported order, 5 no bracket.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import analytic, montecarlo, tree
from .analytic import NonConvergenceError, UnsupportedOrderError
from .montecarlo import EventKind, EventSpec, NoBracketError, Side
from .params import (
    BISECTION_CONFIG,
    FIXED_POINT_CONFIG,
    LIMIT_CONFIG,
    MC_BISECTION_CONFIG,
    RootMode,
    SolverConfig,
    TreeParams,
)
from .rng import TrialStream
from .tree import TooLargeError

CSV_HEADER = "k,root_mode,p,depth,method,value,ci_low,ci_high,trials,seed"

ANALYTIC_METHODS = ("closed-form", "fixed-point", "dp", "relation")
SAMPLING_METHODS = ("mc", "brute-force")
EVENT_KINDS = {
    "open": EventKind.OPEN_RAY,
    "zebra": EventKind.ZEBRA_RAY,
    "zebra-count": EventKind.ZEBRA_COUNT,
}
SUITES = ("closed-form", "inverse", "oracle", "transform", "relation", "all")


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class CurvePoint:
    """One evaluation record; the unit of all CSV/JSON output."""

    k: int
    root_mode: RootMode
    p: float
    depth: int
    method: str
    value: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int

    def csv_row(self) -> str:
        return ",".join(
            (
                str(self.k),
                self.root_mode.value,
                _fmt(self.p),
                str(self.depth),
                self.method,
                _fmt(self.value),
                _fmt(self.ci_low),
                _fmt(self.ci_high),
                str(self.trials),
                str(self.seed),
            )
        )

    def json_line(self) -> str:
        record = {
            "k": self.k,
            "root_mode": self.root_mode.value,
            "p": self.p,
            "depth": self.depth,
            "method": self.method,
            "value": self.value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "seed": self.seed,
        }
        return json.dumps(record, separators=(",", ":"))


def _fmt(x: float) -> str:
    """12 significant digits, locale independent."""
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# configuration resolution: flags > --config JSON > defaults

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("--config: top-level JSON object required")
    return data


def _resolve(args: argparse.Namespace, fields: dict) -> dict:
    """Merge flag values over config-file values over defaults."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    unknown = set(file_cfg) - set(fields)
    if unknown:
        raise ConfigError(f"--config: unknown keys {sorted(unknown)}")
    out = {}
    for name, default in fields.items():
        flag = getattr(args, name, None)
        if flag is not None:
            out[name] = flag
        elif name in file_cfg:
            out[name] = file_cfg[name]
        else:
            out[name] = default
    print(f"config: {json.dumps(out, sort_keys=True, default=str)}", file=sys.stderr)
    return out


def _tree_params(rc: dict) -> TreeParams:
    k = rc["k"]
    if not _is_int(k) or k < 2:
        raise ConfigError(f"--k: branching order must be an integer >= 2, got {k}")
    mode = rc["root_mode"]
    try:
        return TreeParams(k=k, root_mode=RootMode(mode))
    except ValueError as exc:
        raise ConfigError(f"--root-mode: {exc}") from exc


def _is_int(value) -> bool:
    """An integer, but not a bool: JSON true/false load as Python's True/False."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_prob(rc: dict, name: str) -> float:
    value = rc[name]
    if value is None:
        raise ConfigError(f"--{name}: a probability in [0, 1] is required")
    if not (_is_int(value) or isinstance(value, float)) or not 0.0 <= float(value) <= 1.0:
        raise ConfigError(f"--{name}: must lie in [0, 1], got {value}")
    return float(value)


def _check_int(rc: dict, name: str, minimum: int) -> int:
    value = rc[name]
    if not _is_int(value) or value < minimum:
        raise ConfigError(f"--{name}: integer >= {minimum} required, got {value}")
    return value


def _solver_cfg(rc: dict, default: SolverConfig) -> SolverConfig:
    """--tol and --max-iter over the defaults of the solve they configure."""
    tol, max_iter = rc["tol"], rc["max_iter"]
    if tol is None:
        tol = default.tol
    elif not (_is_int(tol) or isinstance(tol, float)) or not 0.0 < tol < math.inf:
        raise ConfigError(f"--tol: a positive finite number required, got {tol}")
    if max_iter is None:
        max_iter = default.max_iter
    elif not _is_int(max_iter) or max_iter < 1:
        raise ConfigError(f"--max-iter: integer >= 1 required, got {max_iter}")
    return SolverConfig(tol=tol, max_iter=max_iter)


def _workers_from_env() -> int:
    raw = os.environ.get("ZEBRA_PERC_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ZEBRA_PERC_THREADS: integer >= 0 required, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"ZEBRA_PERC_THREADS: integer >= 0 required, got {value}")
    return value if value > 0 else (os.cpu_count() or 1)


class _Writer:
    """Line-oriented writer to stdout or a file, flushed per record."""

    def __init__(self, path: str | None):
        self._fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
        self._owned = path is not None

    def line(self, text: str) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owned:
            self._fh.close()


# ---------------------------------------------------------------------------
# point evaluation (shared by eval and sweep)

def _evaluate_point(params: TreeParams, p: float, method: str, rc: dict) -> CurvePoint:
    base = dict(k=params.k, root_mode=params.root_mode, p=p,
                depth=0, trials=0, seed=0)
    if method == "closed-form":
        if params.root_mode is not RootMode.ROOTED_K:
            raise ConfigError("--method: closed-form supports the rooted-k mode only")
        value = analytic.theta_closed_form(params.k, p)
        return CurvePoint(method=method, value=value, ci_low=value, ci_high=value, **base)
    if method == "fixed-point":
        value = analytic.theta_fixed_point(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
        return CurvePoint(method=method, value=value, ci_low=value, ci_high=value, **base)
    if method == "relation":
        value = analytic.zebra_via_relation(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
        return CurvePoint(method=method, value=value, ci_low=value, ci_high=value, **base)
    if method == "dp":
        depth = _check_int(rc, "depth", 0)
        if depth > 0:
            value = analytic.zebra_dp(params, p, depth)[depth].z
            base["depth"] = depth
        else:
            value = analytic.zebra_limit(params, p, _solver_cfg(rc, LIMIT_CONFIG))
        return CurvePoint(method=method, value=value, ci_low=value, ci_high=value, **base)

    event_name = rc["event"]
    if event_name not in EVENT_KINDS:
        raise ConfigError(f"--event: one of {sorted(EVENT_KINDS)} required, got {event_name}")
    depth = _check_int(rc, "depth", 1)
    event = EventSpec(EVENT_KINDS[event_name], depth)
    base["depth"] = depth
    if method == "mc":
        trials = _check_int(rc, "trials", 1)
        seed = _check_int(rc, "seed", 0)
        workers = _workers_from_env()
        if event.kind is EventKind.ZEBRA_COUNT:
            est = montecarlo.estimate_count(params, p, event, trials, seed, workers)
        else:
            est = montecarlo.estimate_probability(params, p, event, trials, seed, workers)
        return CurvePoint(
            method=f"mc-{event_name}", value=est.mean,
            ci_low=est.ci95_low, ci_high=est.ci95_high,
            **{**base, "trials": trials, "seed": seed},
        )
    if method == "brute-force":
        value = montecarlo.brute_force_probability(params, p, event, exact=rc["exact"])
        value = float(value)
        return CurvePoint(method=f"brute-{event_name}", value=value,
                          ci_low=value, ci_high=value, **base)
    raise ConfigError(
        f"--method: one of {ANALYTIC_METHODS + SAMPLING_METHODS} required, got {method!r}"
    )


# ---------------------------------------------------------------------------
# subcommands

_EVAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "p": None, "method": None, "event": "zebra",
    "depth": 0, "trials": 100000, "seed": 0, "tol": None, "max_iter": None,
    "exact": False, "format": "csv", "output": None,
}


def cmd_eval(args: argparse.Namespace) -> int:
    rc = _resolve(args, _EVAL_FIELDS)
    params = _tree_params(rc)
    p = _check_prob(rc, "p")
    if rc["method"] is None:
        raise ConfigError("--method: required")
    point = _evaluate_point(params, p, rc["method"], rc)
    writer = _Writer(rc["output"])
    try:
        if rc["format"] == "json":
            writer.line(point.json_line())
        else:
            writer.line(CSV_HEADER)
            writer.line(point.csv_row())
    finally:
        writer.close()
    return 0


_SWEEP_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "pmin": 0.0, "pmax": 1.0, "steps": 101,
    "methods": None, "event": "zebra", "depth": 0, "trials": 100000, "seed": 0,
    "tol": None, "max_iter": None, "exact": False, "format": "csv", "output": None,
}


def _grid(pmin: float, pmax: float, steps: int) -> list[float]:
    if steps == 1:
        return [pmin]
    step = (pmax - pmin) / (steps - 1)
    points = [pmin + j * step for j in range(steps)]
    points[-1] = pmax
    return points


def cmd_sweep(args: argparse.Namespace) -> int:
    rc = _resolve(args, _SWEEP_FIELDS)
    params = _tree_params(rc)
    pmin, pmax = _check_prob(rc, "pmin"), _check_prob(rc, "pmax")
    if pmin > pmax:
        raise ConfigError(f"--pmin: must not exceed --pmax, got {pmin} > {pmax}")
    steps = _check_int(rc, "steps", 1)
    if rc["methods"] is None:
        raise ConfigError("--methods: required (comma-separated list)")
    methods = [m.strip() for m in str(rc["methods"]).split(",") if m.strip()]
    valid = ANALYTIC_METHODS + SAMPLING_METHODS
    for m in methods:
        if m not in valid:
            raise ConfigError(f"--methods: unknown method {m!r}, choose from {valid}")
    if not methods:
        raise ConfigError("--methods: at least one method required")
    writer = _Writer(rc["output"])
    try:
        if rc["format"] == "csv":
            writer.line(CSV_HEADER)
        for p in _grid(pmin, pmax, steps):
            for method in methods:
                point = _evaluate_point(params, p, method, rc)
                writer.line(point.json_line() if rc["format"] == "json" else point.csv_row())
    finally:
        writer.close()
    return 0


_CRITICAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "mode": "standard", "depth": 16,
    "trials": 10000, "seed": 0, "tol": None, "max_iter": None, "output": None,
}

CRITICAL_HEADER = "k,mode,side,value,reference,abs_gap"


def cmd_critical(args: argparse.Namespace) -> int:
    rc = _resolve(args, _CRITICAL_FIELDS)
    params = _tree_params(rc)
    mode = rc["mode"]
    if mode not in ("standard", "zebra-dp", "zebra-mc"):
        raise ConfigError(f"--mode: one of standard, zebra-dp, zebra-mc, got {mode!r}")
    if mode == "zebra-dp":
        cfg = _solver_cfg(rc, BISECTION_CONFIG)
    elif mode == "zebra-mc":
        cfg = _solver_cfg(rc, MC_BISECTION_CONFIG)
        depth, trials = _check_int(rc, "depth", 1), _check_int(rc, "trials", 1)
        seed, workers = _check_int(rc, "seed", 0), _workers_from_env()
    writer = _Writer(rc["output"])
    try:
        writer.line(CRITICAL_HEADER)
        if mode == "standard":
            value = analytic.standard_critical(params)
            writer.line(f"{params.k},standard,point,{_fmt(value)},{_fmt(value)},0")
            return 0
        pair = analytic.zebra_critical_pair(params)
        references = {Side.LOWER: pair.p_low, Side.UPPER: pair.p_high}
        for side in (Side.LOWER, Side.UPPER):
            if mode == "zebra-dp":
                located = montecarlo.find_critical_dp(params, side, cfg)
            else:
                located = montecarlo.find_critical_mc(
                    params, side, depth, trials, seed, cfg, workers=workers
                )
            ref = references[side]
            writer.line(
                f"{params.k},{mode},{side.value},{_fmt(located)},{_fmt(ref)},"
                f"{_fmt(abs(located - ref))}"
            )
        return 0
    finally:
        writer.close()


# ---------------------------------------------------------------------------
# verification suites

def _suite_closed_form() -> list[tuple[str, bool, str]]:
    results = []
    for k in (2, 3):
        params = TreeParams(k=k)
        worst = 0.0
        for j in range(1, 201):
            p = 1.0 / k + j * (1.0 - 1.0 / k) / 200
            gap = abs(
                analytic.theta_fixed_point(params, p)
                - analytic.theta_closed_form(k, p)
            )
            worst = max(worst, gap)
        results.append(
            (f"closed-form k={k}", worst < 1e-9, f"max |fixed-point - closed-form| = {worst:.3e}")
        )
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

    params = TreeParams(k=2)
    results = []
    worst = 0.0
    for depth in (1, 2, 3):
        for p in (0.2, 0.5, 0.8):
            zebra_exact = montecarlo.brute_force_probability(
                params, p, montecarlo.zebra_ray(depth)
            )
            open_exact = montecarlo.brute_force_probability(
                params, p, montecarlo.open_ray(depth)
            )
            worst = max(
                worst,
                abs(zebra_exact - analytic.zebra_dp(params, p, depth)[depth].z),
                abs(open_exact - analytic.open_ray_probability(params, p, depth)),
            )
    results.append(
        ("oracle k=2 depths 1-3", worst < 1e-12, f"max |brute force - recursion| = {worst:.3e}")
    )
    reference = montecarlo.brute_force_probability(
        params, 0.5, montecarlo.zebra_ray(2), exact=True
    )
    results.append(
        (
            "oracle reference 15/16",
            reference == Fraction(15, 16),
            f"exact P(alternating ray, depth 2, p=1/2) = {reference}",
        )
    )
    return results


def _suite_transform() -> list[tuple[str, bool, str]]:
    results = []
    params2 = TreeParams(k=2)
    exhaustive_ok = all(
        tree.correspondence_holds(params2, sigma)
        for sigma in tree.enumerate_configs(params2, 2)
    )
    results.append(
        ("transform exhaustive k=2 depth=2", exhaustive_ok, "all 64 configurations")
    )
    checks = [
        ("k=2 depth=4", params2, 2, 16384),
        ("k=2 depth=6", params2, 3, 10000),
        ("k=3 depth=4", TreeParams(k=3), 2, 10000),
    ]
    for label, params, m, count in checks:
        ok = all(
            montecarlo.transform_equivalence_trial(params, 0.5, m, TrialStream(0, t))
            for t in range(count)
        )
        results.append((f"transform sampled {label}", ok, f"{count} seeded configurations"))
    return results


RELATION_HEADER = "k,p,dp_limit,relation,abs_dev"


def _suite_relation(output: str | None) -> list[tuple[str, bool, str]]:
    results = []
    lines = [RELATION_HEADER]
    for k in (3, 4):
        params = TreeParams(k=k)
        pair = analytic.zebra_critical_pair(params)
        max_dev = 0.0
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
                f"relation report k={k}",
                True,
                f"max pointwise |dp-limit - relation| = {max_dev:.6f} (reported, not asserted)",
            )
        )
    if output is None:
        results.append(("relation csv", True, "deviation grid not written (no --output)"))
        return results
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    results.append(("relation csv", True, f"deviation grid written to {output}"))
    return results


_VERIFY_FIELDS = {"suite": "all", "output": None}


def cmd_verify(args: argparse.Namespace) -> int:
    rc = _resolve(args, _VERIFY_FIELDS)
    suite = rc["suite"]
    if suite not in SUITES:
        raise ConfigError(f"--suite: one of {SUITES}, got {suite!r}")
    runners = {
        "closed-form": _suite_closed_form,
        "inverse": _suite_inverse,
        "oracle": _suite_oracle,
        "transform": _suite_transform,
        "relation": lambda: _suite_relation(rc["output"]),
    }
    names = list(runners) if suite == "all" else [suite]
    all_ok = True
    for name in names:
        for check, ok, detail in runners[name]():
            print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# transform demo

_DEMO_FIELDS = {
    "k": 2, "root_mode": "rooted-k", "depth": 4, "p": 0.5, "seed": 0, "input": None,
}


def cmd_transform_demo(args: argparse.Namespace) -> int:
    rc = _resolve(args, _DEMO_FIELDS)
    params = _tree_params(rc)
    if params.k > 3:
        raise TooLargeError(f"transform demo supports k <= 3, got k={params.k}")
    depth = _check_int(rc, "depth", 2)
    if depth % 2:
        raise ConfigError(f"--depth: even depth required, got {depth}")
    if depth > 6:
        raise TooLargeError(f"transform demo supports depth <= 6, got {depth}")
    if rc["input"]:
        try:
            with open(rc["input"], "r", encoding="utf-8") as fh:
                sigma = tree.load_sigma(fh.read(), params)
        except OSError as exc:
            raise ConfigError(f"--input: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"--input: {exc}") from exc
        if sigma.depth != depth:
            depth = sigma.depth
            if depth % 2 or depth > 6:
                raise ConfigError(f"--input: fixture depth {depth} unsupported")
    else:
        p = _check_prob(rc, "p")
        sigma = montecarlo.sample_sigma(params, depth, p, TrialStream(rc["seed"], 0))
    phi = tree.phi_of_sigma(params, sigma)
    m = phi.depth
    out = sys.stdout
    out.write(f"# sigma k={params.k} root_mode={params.root_mode} depth={sigma.depth}\n")
    out.write(tree.dump_sigma(sigma))
    out.write(f"# phi depth={m}\n")
    out.write(tree.dump_phi(phi))
    witnesses = (
        ("zebra-open", tree.zebra_ray_witness(params, sigma, 2 * m, tree.EdgeState.OPEN)),
        ("zebra-closed", tree.zebra_ray_witness(params, sigma, 2 * m, tree.EdgeState.CLOSED)),
        ("plus", tree.signed_path_witness(params, phi, m, tree.PhiValue.PLUS)),
        ("minus", tree.signed_path_witness(params, phi, m, tree.PhiValue.MINUS)),
    )
    for label, witness in witnesses:
        if witness is None:
            out.write(f"# witness {label}: none\n")
        else:
            out.write(f"# witness {label}: {' '.join(tree.format_address(v) for v in witness)}\n")
    out.flush()
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zebraperc",
        description="Percolation engine for rooted trees: standard and "
        "alternating-path (zebra) percolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--k", type=int, default=None, help="branching order (>= 2)")
        sp.add_argument("--full-cayley", dest="root_mode", action="store_const",
                        const="full-cayley", default=None,
                        help="root has k+1 children instead of k")
        sp.add_argument("--config", default=None, help="JSON config file; flags override it")
        sp.add_argument("--output", default=None, help="write data to this file instead of stdout")

    sp = sub.add_parser("eval", help="evaluate one point by one method")
    common(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--method", default=None,
                    choices=ANALYTIC_METHODS + SAMPLING_METHODS)
    sp.add_argument("--event", default=None, choices=sorted(EVENT_KINDS))
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sp.add_argument("--exact", action="store_const", const=True, default=None,
                    help="rational arithmetic for brute-force")
    sp.add_argument("--format", default=None, choices=("csv", "json"))
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="evaluate methods over a p grid")
    common(sp)
    sp.add_argument("--pmin", type=float, default=None)
    sp.add_argument("--pmax", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--methods", default=None, help="comma-separated method list")
    sp.add_argument("--event", default=None, choices=sorted(EVENT_KINDS))
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sp.add_argument("--exact", action="store_const", const=True, default=None)
    sp.add_argument("--format", default=None, choices=("csv", "json"))
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("critical", help="locate critical points")
    common(sp)
    sp.add_argument("--mode", default=None, choices=("standard", "zebra-dp", "zebra-mc"))
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("verify", help="run invariant suites")
    sp.add_argument("--suite", default=None, help=f"one of {', '.join(SUITES)}")
    sp.add_argument("--config", default=None)
    sp.add_argument("--output", default=None,
                    help="deviation CSV path for the relation suite (not written without it)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("transform-demo", help="dump a configuration and its transform")
    common(sp)
    sp.add_argument("--depth", type=int, default=None, help="even sigma depth <= 6")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--input", default=None, help="read the configuration from this fixture")
    sp.set_defaults(func=cmd_transform_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc} (last value {exc.last_value})", file=sys.stderr)
        return 3
    except (TooLargeError, UnsupportedOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NoBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
