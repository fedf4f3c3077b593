"""Command-line surface: point evaluation, sweeps, critical points, verification.

stdout carries data only (CSV or JSON lines); stderr carries the resolved
configuration and human messages. Identical command lines produce
byte-identical stdout regardless of ZEBRA_PERC_THREADS.

Exit codes: 0 ok, 1 verification failure, 2 invalid configuration,
3 non-convergence, 4 too large / unsupported order, 5 no bracket.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
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

EVENT_KINDS = {
    "open": EventKind.OPEN_RAY,
    "zebra": EventKind.ZEBRA_RAY,
    "zebra-count": EventKind.ZEBRA_COUNT,
}
#: Fields that take one of a fixed set of strings, from a flag or from --config.
CHOICES = {
    "method": ("closed-form", "fixed-point", "dp", "relation", "mc", "brute-force"),
    "event": tuple(EVENT_KINDS),
    "format": ("csv", "json"),
    "mode": ("standard", "zebra-dp", "zebra-mc"),
    "suite": ("closed-form", "inverse", "oracle", "transform", "relation", "all"),
}
#: Numeric fields, checked where they are used; `exact` is a boolean and every
#: other field a string.
_TYPES = {
    "k": int, "p": float, "pmin": float, "pmax": float, "steps": int, "depth": int,
    "trials": int, "seed": int, "tol": float, "max_iter": int,
}
_HELP = {
    **{name: "one of " + ", ".join(values) for name, values in CHOICES.items()},
    "k": "branching order (>= 2)",
    "root_mode": "root has k+1 children instead of k",
    "output": "write the data to this file instead of stdout; verify writes "
    "the relation suite's deviation CSV there, and without it none",
    "methods": "comma-separated method list",
    "exact": "rational arithmetic for brute-force",
    "input": "read the configuration from this fixture",
}


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class CurvePoint:
    """One evaluation record; the unit of all CSV/JSON output, fields in column order."""

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

    def _columns(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            yield field.name, value.value if isinstance(value, RootMode) else value

    def csv_row(self) -> str:
        return ",".join(_fmt(v) if isinstance(v, float) else str(v) for _, v in self._columns())

    def json_line(self) -> str:
        return json.dumps(dict(self._columns()), separators=(",", ":"))


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
    """Merge flag values over config-file values over defaults.

    Every value that is not numeric is checked here, whichever source it came
    from: a choice must be one of CHOICES, `exact` a boolean, and any other
    field a string or unset. Numbers are checked where they are used.
    """
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
    for name, value in out.items():
        if name in CHOICES:  # a choice without a default may stay unset
            ok, want = value in CHOICES[name] or value is fields[name] is None, _HELP[name]
        elif name == "exact":
            ok, want = isinstance(value, bool), "true or false"
        else:
            ok, want = name in _TYPES or value is None or isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"--{name.replace('_', '-')}: {want} required, got {value!r}")
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
    """ZEBRA_PERC_THREADS as a worker count; 0 is passed on (all CPUs)."""
    raw = os.environ.get("ZEBRA_PERC_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ZEBRA_PERC_THREADS: integer >= 0 required, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"ZEBRA_PERC_THREADS: integer >= 0 required, got {value}")
    return value


@contextlib.contextmanager
def _writer(path: str | None):
    """A line writer to stdout or to a new file at `path`, flushed per record."""
    fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout

    def line(text: str) -> None:
        fh.write(text + "\n")
        fh.flush()

    try:
        yield line
    finally:
        if path:
            fh.close()


# ---------------------------------------------------------------------------
# point evaluation (eval is a sweep of one point)

def _evaluate_point(params: TreeParams, p: float, method: str, rc: dict) -> CurvePoint:
    depth = trials = seed = 0
    if method == "closed-form":
        if params.root_mode is not RootMode.ROOTED_K:
            raise ConfigError("--method: closed-form supports the rooted-k mode only")
        value = analytic.theta_closed_form(params.k, p)
    elif method == "fixed-point":
        value = analytic.theta_fixed_point(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
    elif method == "relation":
        value = analytic.zebra_via_relation(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
    elif method == "dp":
        depth = _check_int(rc, "depth", 0)
        if depth > 0:
            value = analytic.zebra_dp(params, p, depth)[depth].z
        else:
            value = analytic.zebra_limit(params, p, _solver_cfg(rc, LIMIT_CONFIG))
    else:
        event_name = rc["event"]
        depth = _check_int(rc, "depth", 1)
        event = EventSpec(EVENT_KINDS[event_name], depth)
        if method == "mc":
            trials = _check_int(rc, "trials", 1)
            seed = _check_int(rc, "seed", 0)
            workers = _workers_from_env()
            if event.kind is EventKind.ZEBRA_COUNT:
                est = montecarlo.estimate_count(params, p, event, trials, seed, workers)
            else:
                est = montecarlo.estimate_probability(params, p, event, trials, seed, workers)
            return CurvePoint(params.k, params.root_mode, p, depth, f"mc-{event_name}",
                              est.mean, est.ci95_low, est.ci95_high, trials, seed)
        value = float(montecarlo.brute_force_probability(params, p, event, exact=rc["exact"]))
        method = f"brute-{event_name}"
    return CurvePoint(params.k, params.root_mode, p, depth, method,
                      value, value, value, trials, seed)


def _write_points(params: TreeParams, ps: list[float], methods: list[str], rc: dict) -> int:
    """Evaluate every method at every p, in that order, and write one record each.

    The first point is evaluated before the output is opened, so a run that
    fails on it writes nothing: no CSV header on stdout and no file.
    """
    points = (_evaluate_point(params, p, method, rc) for p in ps for method in methods)
    first = next(points)
    as_json = rc["format"] == "json"
    with _writer(rc["output"]) as line:
        if not as_json:
            line(CSV_HEADER)
        for point in itertools.chain([first], points):
            line(point.json_line() if as_json else point.csv_row())
    return 0


# ---------------------------------------------------------------------------
# subcommands; each field table lists a command's options in flag order

_EVAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "output": None, "p": None, "method": None,
    "event": "zebra", "depth": 0, "trials": 100000, "seed": 0, "tol": None,
    "max_iter": None, "exact": False, "format": "csv",
}


def cmd_eval(args: argparse.Namespace) -> int:
    rc = _resolve(args, _EVAL_FIELDS)
    params = _tree_params(rc)
    p = _check_prob(rc, "p")
    if rc["method"] is None:
        raise ConfigError("--method: required")
    return _write_points(params, [p], [rc["method"]], rc)


_SWEEP_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "output": None, "pmin": 0.0, "pmax": 1.0,
    "steps": 101, "methods": None, "event": "zebra", "depth": 0, "trials": 100000,
    "seed": 0, "tol": None, "max_iter": None, "exact": False, "format": "csv",
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
    methods = [m.strip() for m in (rc["methods"] or "").split(",") if m.strip()]
    if not methods or any(m not in CHOICES["method"] for m in methods):
        raise ConfigError(f"--methods: a comma-separated list of names from "
                          f"{', '.join(CHOICES['method'])} required, got {rc['methods']!r}")
    return _write_points(params, _grid(pmin, pmax, steps), methods, rc)


_CRITICAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "output": None, "mode": "standard", "depth": 16,
    "trials": 10000, "seed": 0, "tol": None, "max_iter": None,
}

CRITICAL_HEADER = "k,mode,side,value,reference,abs_gap"


def cmd_critical(args: argparse.Namespace) -> int:
    rc = _resolve(args, _CRITICAL_FIELDS)
    params = _tree_params(rc)
    mode = rc["mode"]
    if mode == "zebra-dp":
        cfg = _solver_cfg(rc, BISECTION_CONFIG)
    elif mode == "zebra-mc":
        cfg = _solver_cfg(rc, MC_BISECTION_CONFIG)
        depth, trials = _check_int(rc, "depth", 1), _check_int(rc, "trials", 1)
        seed, workers = _check_int(rc, "seed", 0), _workers_from_env()
    with _writer(rc["output"]) as line:
        line(CRITICAL_HEADER)
        if mode == "standard":
            value = analytic.standard_critical(params)
            line(f"{params.k},standard,point,{_fmt(value)},{_fmt(value)},0")
            return 0
        pair = analytic.zebra_critical_pair(params)
        for side, ref in ((Side.LOWER, pair.p_low), (Side.UPPER, pair.p_high)):
            if mode == "zebra-dp":
                located = montecarlo.find_critical_dp(params, side, cfg)
            else:
                located = montecarlo.find_critical_mc(
                    params, side, depth, trials, seed, cfg, workers=workers
                )
            line(
                f"{params.k},{mode},{side.value},{_fmt(located)},{_fmt(ref)},"
                f"{_fmt(abs(located - ref))}"
            )
        return 0


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
    runners = {
        "closed-form": _suite_closed_form,
        "inverse": _suite_inverse,
        "oracle": _suite_oracle,
        "transform": _suite_transform,
        "relation": lambda: _suite_relation(rc["output"]),
    }
    names = list(runners) if rc["suite"] == "all" else [rc["suite"]]
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


# ---------------------------------------------------------------------------
# transform demo

_DEMO_FIELDS = {
    "k": 2, "root_mode": "rooted-k", "output": None, "depth": 4, "p": 0.5, "seed": 0,
    "input": None,
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
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--input: {exc}") from exc
        if sigma.depth != depth:
            depth = sigma.depth
            if depth % 2 or depth > 6:
                raise ConfigError(f"--input: fixture depth {depth} unsupported")
    else:
        p, seed = _check_prob(rc, "p"), _check_int(rc, "seed", 0)
        sigma = montecarlo.sample_sigma(params, depth, p, TrialStream(seed, 0))
    phi = tree.phi_of_sigma(params, sigma)
    m = phi.depth
    witnesses = (
        ("zebra-open", tree.zebra_ray_witness(params, sigma, 2 * m, tree.EdgeState.OPEN)),
        ("zebra-closed", tree.zebra_ray_witness(params, sigma, 2 * m, tree.EdgeState.CLOSED)),
        ("plus", tree.signed_path_witness(params, phi, m, tree.PhiValue.PLUS)),
        ("minus", tree.signed_path_witness(params, phi, m, tree.PhiValue.MINUS)),
    )
    with _writer(rc["output"]) as line:
        line(f"# sigma k={params.k} root_mode={params.root_mode} depth={sigma.depth}")
        line(tree.dump_sigma(sigma).rstrip("\n"))
        line(f"# phi depth={m}")
        line(tree.dump_phi(phi).rstrip("\n"))
        for label, witness in witnesses:
            path = "none" if witness is None else " ".join(map(tree.format_address, witness))
            line(f"# witness {label}: {path}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one flag per field of its table."""
    parser = argparse.ArgumentParser(
        prog="zebraperc",
        description="Percolation engine for rooted trees: standard and "
        "alternating-path (zebra) percolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("eval", "evaluate one point by one method", _EVAL_FIELDS, cmd_eval),
        ("sweep", "evaluate methods over a p grid", _SWEEP_FIELDS, cmd_sweep),
        ("critical", "locate critical points", _CRITICAL_FIELDS, cmd_critical),
        ("verify", "run invariant suites", _VERIFY_FIELDS, cmd_verify),
        ("transform-demo", "dump a configuration and its transform", _DEMO_FIELDS,
         cmd_transform_demo),
    )
    for command, summary, fields, handler in commands:
        sp = sub.add_parser(command, help=summary)
        sp.set_defaults(func=handler)
        for name in fields:
            if name == "output":  # every command has both, --config listed first
                sp.add_argument("--config", help="JSON config file; flags override it")
            if name == "root_mode":
                sp.add_argument("--full-cayley", dest=name, action="store_const",
                                const="full-cayley", help=_HELP[name])
            elif name == "exact":
                sp.add_argument("--exact", action="store_const", const=True, help=_HELP[name])
            else:
                sp.add_argument("--" + name.replace("_", "-"), type=_TYPES.get(name),
                                help=_HELP.get(name))
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
