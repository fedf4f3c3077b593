"""Command-line surface: point evaluation, sweeps, critical points, verification.

stdout carries data only (CSV or JSON lines); stderr carries the resolved
configuration and human messages. Identical command lines produce
byte-identical stdout regardless of ZEBRA_PERC_THREADS. Every option, from a
flag or from --config, is checked before the first value is computed, so a
run refused with exit 2 writes nothing.

Exit codes: 0 ok, 1 verification failure, 2 invalid configuration,
3 non-convergence, 4 too large / unsupported order, 5 no bracket.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple

from . import analytic
from .analytic import NonConvergenceError, UnsupportedOrderError
from .params import (
    BISECTION_TOL,
    FIXED_POINT_CONFIG,
    LIMIT_CONFIG,
    MC_BISECTION_TOL,
    EventKind,
    EventSpec,
    NoBracketError,
    RootMode,
    SolverConfig,
    TooLargeError,
    TreeParams,
)

# Start-up loads only analytic and params. montecarlo, tree, rng and the
# verify suites are imported inside the methods, modes and commands that run
# them, so that an analytic command does not pay for loading them.

CSV_HEADER = "k,root_mode,p,depth,method,value,ci_low,ci_high,trials,seed"

#: Fields that take one of a fixed set of strings, from a flag or from --config.
CHOICES = {
    "root_mode": tuple(mode.value for mode in RootMode),
    "method": ("closed-form", "fixed-point", "dp", "relation", "mc", "brute-force"),
    "event": tuple(kind.value for kind in EventKind),
    "format": ("csv", "json"),
    "mode": ("standard", "zebra-dp", "zebra-mc"),
    "suite": ("closed-form", "inverse", "oracle", "transform", "relation", "all"),
}
#: Numeric fields, from a flag or from --config: the type, the closed range a
#: value must lie in, and what a refusal asks for. `exact` is a boolean and
#: every other field a string.
NUMBERS = {
    **{name: (int, low, math.inf, f"integer >= {low}") for name, low in (
        ("k", 2), ("steps", 1), ("depth", 0), ("trials", 1), ("seed", 0), ("max_iter", 1))},
    **{name: (float, 0.0, 1.0, "a probability in [0, 1]") for name in ("p", "pmin", "pmax")},
    "tol": (float, math.ulp(0.0), sys.float_info.max, "a positive finite number"),
}
#: What a value of each checked field must be, as a refusal words it.
_WANT = {
    **{name: "one of " + ", ".join(values) for name, values in CHOICES.items()},
    **{name: want for name, (*_, want) in NUMBERS.items()},
    "exact": "true or false",
}
_HELP = {
    **_WANT,
    "k": "branching order, integer >= 2",
    "root_mode": "root has k+1 children instead of k",
    "event": _WANT["event"] + "; read by the methods dp, mc and brute-force",
    "depth": "truncation depth, read by the methods dp (0: the depth limit of a ray), mc and "
    "brute-force, by critical --mode zebra-mc and by transform-demo",
    "output": "write the data to this file instead of stdout; verify writes "
    "the relation suite's deviation CSV there, and without it none",
    "methods": "comma-separated method list",
    "exact": "accepted and ignored: brute-force values are always the correctly "
    "rounded exact sum",
    "input": "read the configuration from this fixture",
}


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


class CurvePoint(namedtuple("CurvePoint", CSV_HEADER.split(","))):
    """One evaluation record; the unit of all CSV/JSON output, fields in column order."""

    __slots__ = ()

    def _columns(self):
        for name, value in zip(self._fields, self):
            yield name, value.value if isinstance(value, RootMode) else value

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
    """Merge flag values over config-file values over defaults, and check each one.

    Every value is checked here, whichever source it came from and whether or
    not the command's method reads it: a choice must be one of CHOICES, a
    number lie in its NUMBERS range, `exact` be a boolean and any other field a
    string. A field without a default may stay unset. Numbers come back as
    their NUMBERS type, so later code reads rc[...] as valid.
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
        if value is fields[name] is None:
            continue
        if name in CHOICES:
            ok = value in CHOICES[name]
        elif name in NUMBERS:
            kind, low, high, _ = NUMBERS[name]
            ok = ((_is_int(value) or kind is float and isinstance(value, float))
                  and low <= value <= high)
            out[name] = kind(value) if ok else value
        elif name == "exact":
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            raise ConfigError(f"--{name.replace('_', '-')}: {_WANT.get(name, 'a string')} "
                              f"required, got {value!r}")
    return out


def _tree_params(rc: dict) -> TreeParams:
    return TreeParams(rc["k"], RootMode(rc["root_mode"]))


def _is_int(value) -> bool:
    """An integer, but not a bool: JSON true/false load as Python's True/False."""
    return isinstance(value, int) and not isinstance(value, bool)


def _solver_cfg(rc: dict, default: SolverConfig) -> SolverConfig:
    """--tol and --max-iter over the solve's defaults; both are positive when set."""
    return SolverConfig(tol=rc["tol"] or default.tol, max_iter=rc["max_iter"] or default.max_iter)


def _event_depth(rc: dict) -> int:
    """--depth as the depth of an event, which spans at least one edge."""
    if rc["depth"] < 1:
        raise ConfigError(f"--depth: integer >= 1 required, got {rc['depth']}")
    return rc["depth"]


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
    try:
        fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    except OSError as exc:
        raise ConfigError(f"--output: cannot write {path}: {exc}") from exc

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

def _evaluate_point(params: TreeParams, p: float, method: str, rc: dict,
                    estimate) -> CurvePoint:
    depth = trials = seed = 0
    event_name = rc["event"]
    if method == "closed-form":
        value = analytic.theta_closed_form(params.k, p)
    elif method == "fixed-point":
        value = analytic.theta_fixed_point(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
    elif method == "relation":
        value = analytic.zebra_via_relation(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG))
    elif method == "dp":  # depth 0 is the depth limit of either ray event
        depth = rc["depth"]
        if event_name == "zebra-count":
            value = analytic.expected_zebra_count(params, p, depth)
        elif event_name == "open":
            value = (analytic.open_ray_probability(params, p, depth) if depth else
                     analytic.theta_fixed_point(params, p, _solver_cfg(rc, FIXED_POINT_CONFIG)))
        elif depth:
            value = analytic.zebra_dp_state(params, p, depth).z
        else:
            value = analytic.zebra_limit(params, p, _solver_cfg(rc, LIMIT_CONFIG))
        method = "dp" if event_name == "zebra" else f"dp-{event_name}"
    else:
        depth = rc["depth"]
        event = EventSpec(EventKind(event_name), depth)
        if method == "mc":
            trials, seed = rc["trials"], rc["seed"]
            est = estimate(event, trials, seed)
            return CurvePoint(params.k, params.root_mode, p, depth, f"mc-{event_name}",
                              est.mean, est.ci95_low, est.ci95_high, trials, seed)
        from . import tree

        value = tree.brute_force_probability(params, p, event)
        method = f"brute-{event_name}"
    return CurvePoint(params.k, params.root_mode, p, depth, method,
                      value, value, value, trials, seed)


def _write_rows(output: str | None, header: str | None, rows) -> int:
    """Write the header, if any, and one line per row of the iterator `rows`.

    The first row is computed before the output is opened, and every option
    is checked before that, so a refused run writes nothing: no header on
    stdout and no file. A run that fails on a later row keeps the rows before.
    """
    first = next(rows)
    with _writer(output) as line:
        if header:
            line(header)
        for row in itertools.chain([first], rows):
            line(row)
    return 0


def _write_points(params: TreeParams, ps: list[float], methods: list[str], rc: dict) -> int:
    """Evaluate every method at every p, in that order, and write one record each.

    What each method asks of the options beyond their ranges, an event's depth
    and closed-form's root mode, is checked once, before the first value.
    The mc rows come in grid order, so each grid position takes the next
    estimate of one montecarlo.estimate_grid stream over ps, and every mc row
    at that position shares it. The first mc row starts the stream; a run
    without mc rows imports nothing more.
    """
    if "closed-form" in methods and params.root_mode is not RootMode.ROOTED_K:
        raise ConfigError("--method: closed-form supports the rooted-k mode only")
    if {"mc", "brute-force"}.intersection(methods) or (
            "dp" in methods and rc["event"] == "zebra-count"):
        _event_depth(rc)
    workers = _workers_from_env() if "mc" in methods else 1
    stream = []

    def estimate(event, trials, seed):
        if not stream:
            from . import montecarlo

            stream.append(montecarlo.estimate_grid(params, ps, event, trials, seed, workers))
        return next(stream[0])

    def evaluate():
        for p in ps:
            once = functools.cache(estimate)
            for method in methods:
                yield _evaluate_point(params, p, method, rc, once)

    points = evaluate()
    if rc["format"] == "json":
        return _write_rows(rc["output"], None, (point.json_line() for point in points))
    return _write_rows(rc["output"], CSV_HEADER, (point.csv_row() for point in points))


# ---------------------------------------------------------------------------
# subcommands; each field table lists a command's options in flag order

_EVAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "output": None, "p": None, "method": None,
    "event": "zebra", "depth": 0, "trials": 100000, "seed": 0, "tol": None,
    "max_iter": None, "exact": False, "format": "csv",
}


def cmd_eval(args: argparse.Namespace) -> int:
    rc = _resolve(args, _EVAL_FIELDS)
    for name in ("p", "method"):
        if rc[name] is None:
            raise ConfigError(f"--{name}: required")
    return _write_points(_tree_params(rc), [rc["p"]], [rc["method"]], rc)


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
    pmin, pmax = rc["pmin"], rc["pmax"]
    if pmin > pmax:
        raise ConfigError(f"--pmin: must not exceed --pmax, got {pmin} > {pmax}")
    methods = [m.strip() for m in (rc["methods"] or "").split(",") if m.strip()]
    if not methods or any(m not in CHOICES["method"] for m in methods):
        raise ConfigError(f"--methods: a comma-separated list of names from "
                          f"{', '.join(CHOICES['method'])} required, got {rc['methods']!r}")
    return _write_points(_tree_params(rc), _grid(pmin, pmax, rc["steps"]), methods, rc)


# No --max-iter: bisection halves a fixed bracket until it is narrower than --tol.
_CRITICAL_FIELDS = {
    "k": 3, "root_mode": "rooted-k", "output": None, "mode": "standard", "depth": 16,
    "trials": 10000, "seed": 0, "tol": None,
}

CRITICAL_HEADER = "k,mode,side,value,reference,abs_gap"


def _critical_rows(params: TreeParams, rc: dict):
    """The rows of `critical`. Both zebra thresholds are located before the first
    row, so a run that fails on either side writes nothing."""
    mode = rc["mode"]
    if mode == "standard":
        value = analytic.standard_critical(params)
        yield f"{params.k},standard,point,{_fmt(value)},{_fmt(value)},0"
        return
    from . import montecarlo

    if mode == "zebra-dp":
        located = montecarlo.find_critical_dp(params, tol=rc["tol"] or BISECTION_TOL)
    else:
        located = montecarlo.find_critical_mc(
            params, tol=rc["tol"] or MC_BISECTION_TOL, depth=_event_depth(rc),
            trials=rc["trials"], seed=rc["seed"], workers=_workers_from_env())
    for side, value, ref in zip(("lower", "upper"), located, analytic.zebra_critical_pair(params)):
        yield f"{params.k},{mode},{side},{_fmt(value)},{_fmt(ref)},{_fmt(abs(value - ref))}"


def cmd_critical(args: argparse.Namespace) -> int:
    rc = _resolve(args, _CRITICAL_FIELDS)
    return _write_rows(rc["output"], CRITICAL_HEADER, _critical_rows(_tree_params(rc), rc))


# ---------------------------------------------------------------------------
# verification suites (verify.py, loaded by this command only)

_VERIFY_FIELDS = {"suite": "all", "output": None}


def _verify(args: argparse.Namespace) -> int:
    from .verify import cmd_verify

    return cmd_verify(args)


# ---------------------------------------------------------------------------
# transform demo

_DEMO_FIELDS = {
    "k": 2, "root_mode": "rooted-k", "output": None, "depth": 4, "p": 0.5, "seed": 0,
    "input": None,
}


def cmd_transform_demo(args: argparse.Namespace) -> int:
    from . import tree

    rc = _resolve(args, _DEMO_FIELDS)
    params = _tree_params(rc)
    if params.k > 3:
        raise TooLargeError(f"transform demo supports k <= 3, got k={params.k}")
    if rc["input"]:
        try:
            with open(rc["input"], "r", encoding="utf-8") as fh:
                depth, tables = tree.load_tables(fh.read(), params)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--input: {exc}") from exc
        if depth % 2 or depth > 6:
            raise ConfigError(f"--input: fixture depth {depth} unsupported")
    else:
        depth = rc["depth"]
        if depth < 2 or depth % 2:
            raise ConfigError(f"--depth: an even integer >= 2 required, got {depth}")
        if depth > 6:
            raise TooLargeError(f"transform demo supports depth <= 6, got {depth}")
        from . import kernel, montecarlo

        tables = montecarlo.sample_tables(params, depth, rc["p"],
                                          kernel.trial_bases(rc["seed"], 0, 1))
    m = depth // 2
    edge_list, hat_edges, searches = tree.correspondence_searches(params, m)
    (plus, minus), ends = searches(tables, 1)
    with _writer(rc["output"]) as line:
        line(f"# sigma k={params.k} root_mode={params.root_mode} depth={depth}")
        line(tree.config_text(edge_list, ("CO"[t] for t in tables)))
        line(f"# phi depth={m}")
        line(tree.config_text(hat_edges, ("0+-"[u + 2 * v] for u, v in zip(plus, minus))))
        for label, path_edges, found in zip(("zebra-open", "zebra-closed", "plus", "minus"),
                                            (edge_list, edge_list, hat_edges, hat_edges), ends):
            witness = tree.first_path(path_edges, found)
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
        ("verify", "run invariant suites", _VERIFY_FIELDS, _verify),
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
                sp.add_argument("--" + name.replace("_", "-"), type=NUMBERS.get(name, (None,))[0],
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
        state = [f"last value {exc.last_value}"]
        if exc.iterations is not None:
            state.append(f"{exc.iterations} iterations")
        if exc.residual is not None:
            state.append(f"last step {exc.residual:.3g}")
        print(f"error: {exc} ({', '.join(state)})", file=sys.stderr)
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
