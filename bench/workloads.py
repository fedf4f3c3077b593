"""The benchmark's two workloads: zebraperc command lines and their output checks.

A workload is a list of commands run one after another, made of two named
parts: `monte-carlo` is `mc-count` then `critical-mc`, `exact` is `solve`
then `oracle`. Each command carries a check that judges its stdout against
bench/reference.py and returns the worst relative error of the values it
printed (None for Monte-Carlo output, which is judged statistically). A check
raises CheckError when the output is outside its reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import reference

#: Two-sided 95% normal quantile; the CLI prints mean +- Z95 * stderr for counts.
Z95 = 1.959963984540054
#: A Monte-Carlo mean further than this many standard errors from E[X_n] fails.
COUNT_SIGMAS = 5.0
#: A located Monte-Carlo threshold further than this from the true root fails.
THRESHOLD_SLACK = 0.05
#: Solver tolerances the CLI requests by default; gaps below them count as zero.
FIXED_POINT_TOL = 1e-12
LIMIT_TOL = 1e-10
BISECTION_TOL = 1e-4
#: An analytic value with a larger relative error than this is a wrong answer
#: (wrong branch, wrong formula); smaller errors are inaccuracy, which
#: max_rel_err reports. Near 1/k the fixed-point iteration stops on its step
#: size and misses by up to a few percent, so a tighter limit would call that
#: inaccuracy wrong.
ANALYTIC_REL_LIMIT = 0.1
#: Brute-force sums are exact up to float rounding.
ORACLE_REL_LIMIT = 1e-12

#: Exits the CLI documents as refusals (config, non-convergence, too large, no bracket).
REFUSAL_EXITS = {2, 3, 4, 5}
#: A command that does no work: interpreter start, import and parser only.
NO_WORK = ("critical", "--mode", "standard", "--k", "3")


class CheckError(Exception):
    """The command's output is outside its reference check."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    threads: int
    check: Callable[[str], float | None]
    part: str = ""  # the part of the workload the command belongs to


@dataclass
class Outcome:
    """One command run: its exit, output, resources and verdict."""

    command: Command | None
    exit: int | str
    stdout: str
    stderr: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    rel_err: float | None = None
    problem: str = ""  # why the command failed; empty when it did not
    incorrect: bool = False

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def judge(outcome: Outcome) -> Outcome:
    """Apply the failure rules and the command's reference check."""
    if "Traceback (most recent call last)" in outcome.stderr:
        outcome.problem, outcome.incorrect = "traceback", True
    elif outcome.exit != 0:
        outcome.problem = f"exit {outcome.exit}: {outcome.stderr.strip().splitlines()[-1:]}"
        outcome.incorrect = outcome.exit not in REFUSAL_EXITS
    else:
        try:
            outcome.rel_err = outcome.command.check(outcome.stdout)
        except (CheckError, ValueError, TypeError, KeyError, IndexError) as exc:
            outcome.problem, outcome.incorrect = f"check: {exc}", True
    return outcome


def _csv_rows(out: str, expected: int) -> list[list[str]]:
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    if len(rows) != expected:
        raise CheckError(f"expected {expected} data rows, got {len(rows)}")
    return rows


def _json_rows(out: str, expected: int) -> list[dict]:
    try:
        rows = [json.loads(line) for line in out.strip().splitlines()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable JSON line: {exc}") from exc
    if len(rows) != expected:
        raise CheckError(f"expected {expected} JSON rows, got {len(rows)}")
    return rows


def _rel_err(value: float, ref, tol: float) -> float:
    """Relative error of value against ref; a gap within the solver's tol is zero."""
    gap = abs(float(value) - float(ref))
    if gap <= tol:
        return 0.0
    scale = max(abs(float(ref)), tol)
    return gap / scale if scale else math.inf


# ---------------------------------------------------------------------------
# checks

def _check_counts(k: int, depth: int, steps: int):
    def check(out: str) -> None:
        for row in _csv_rows(out, steps):
            p, mean, lo, hi = float(row[2]), float(row[5]), float(row[6]), float(row[7])
            stderr = (hi - lo) / (2.0 * Z95)
            want = reference.expected_zebra_count(k, p, depth)
            if not abs(mean - want) <= COUNT_SIGMAS * stderr:
                raise CheckError(f"p={p}: mean {mean} vs E[X_{depth}]={want:.6g}, stderr {stderr:.3g}")
        return None

    return check


def _check_mc_thresholds(k: int):
    low, high = reference.zebra_pair(k)

    def check(out: str) -> None:
        for row, ref in zip(_csv_rows(out, 2), (low, high)):
            value = float(row[3])
            if not (low < value < high and abs(value - ref) <= THRESHOLD_SLACK):
                raise CheckError(f"k={k} {row[2]} threshold {value} vs {ref:.6f}")
        return None

    return check


def _check_dp_thresholds(k: int):
    low, high = reference.zebra_pair(k)

    def check(out: str) -> float:
        worst = 0.0
        for row, ref in zip(_csv_rows(out, 2), (low, high)):
            err = _rel_err(float(row[3]), ref, BISECTION_TOL)
            if err > ANALYTIC_REL_LIMIT:
                raise CheckError(f"k={k} {row[2]} threshold {row[3]} vs {ref:.12g}")
            worst = max(worst, err)
        return worst

    return check


_ANALYTIC = {
    "fixed-point": (reference.theta, FIXED_POINT_TOL),
    "dp": (reference.zebra_limit, LIMIT_TOL),
    "relation": (reference.zebra_relation, FIXED_POINT_TOL),
}


def _check_analytic(k: int, ps: list[float], methods: tuple[str, ...]):
    def check(out: str) -> float:
        rows = _json_rows(out, len(ps) * len(methods))
        worst = 0.0
        for i, row in enumerate(rows):
            p, method = ps[i // len(methods)], methods[i % len(methods)]
            if row["method"] != method or not math.isclose(row["p"], p, rel_tol=1e-15):
                raise CheckError(f"row {i}: {row['method']} at p={row['p']}, want {method} at {p}")
            solve, tol = _ANALYTIC[method]
            ref = solve(k, row["p"])
            err = _rel_err(row["value"], ref, tol)
            if err > ANALYTIC_REL_LIMIT:
                raise CheckError(f"{method} k={k} p={row['p']!r}: {row['value']!r} vs {float(ref)!r}")
            worst = max(worst, err)
        return worst

    return check


def _check_oracle_values(exact: Callable[[Fraction], Fraction], ps: list[float]):
    def check(out: str) -> float:
        worst = 0.0
        for row, p in zip(_json_rows(out, len(ps)), ps):
            err = _rel_err(row["value"], exact(Fraction(p)), 0.0)
            if err > ORACLE_REL_LIMIT:
                raise CheckError(f"brute force at p={p}: {row['value']!r} vs {exact(Fraction(p))}")
            worst = max(worst, err)
        return worst

    return check


def _check_verify_oracle(out: str) -> float:
    lines = out.strip().splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        raise CheckError(f"verify reported: {lines}")
    match = re.search(r"= (\d+)/(\d+)$", lines[-1])
    want = reference.exact_zebra_ray(2, Fraction(1, 2), 2)
    if match is None or Fraction(int(match[1]), int(match[2])) != want:
        raise CheckError(f"oracle reference line {lines[-1]!r}, want {want}")
    return 0.0


# ---------------------------------------------------------------------------
# workloads

def _grid(pmin: float, pmax: float, steps: int) -> list[float]:
    """The p grid a sweep evaluates: evenly spaced, last point pinned to pmax."""
    step = (pmax - pmin) / (steps - 1)
    return [pmin + j * step for j in range(steps - 1)] + [pmax]


def mc_count(seed: int, tiny: bool) -> list[Command]:
    """Whole zebra cone with no early exit and no pool: rng and samplers only."""
    depth, trials, steps = (4, 200, 3) if tiny else (10, 1000, 5)
    argv = ("sweep", "--k", "3", "--methods", "mc", "--event", "zebra-count",
            "--depth", str(depth), "--trials", str(trials), "--pmin", "0.3",
            "--pmax", "0.7", "--steps", str(steps), "--seed", str(seed))
    return [Command(argv, 1, _check_counts(3, depth, steps))]


def critical_mc(seed: int, tiny: bool) -> list[Command]:
    """Early-exit existence search under bisection, a fresh process pool per probe."""
    cases = ((3, 14, 400),) if tiny else ((3, 16, 2000), (4, 12, 2000))
    return [
        Command(("critical", "--mode", "zebra-mc", "--k", str(k), "--depth", str(depth),
                 "--trials", str(trials), "--seed", str(seed)), 2, _check_mc_thresholds(k))
        for k, depth, trials in cases
    ]


def solve(seed: int, tiny: bool) -> list[Command]:
    """Fixed points and depth limits just above 1/k and p_low; no random bonds."""
    commands = []
    steps = 5
    for k in (3,) if tiny else range(2, 7):
        ks = str(k)
        start = 1.0 / k
        ps = _grid(start + 1e-4, start + 1e-2, steps)
        commands.append(Command(
            ("sweep", "--k", ks, "--methods", "fixed-point", "--pmin", repr(ps[0]),
             "--pmax", repr(ps[-1]), "--steps", str(steps), "--format", "json"),
            1, _check_analytic(k, ps, ("fixed-point",))))
        for d in (1e-5, 1e-6):
            commands.append(Command(
                ("eval", "--k", ks, "--p", repr(start + d), "--method", "fixed-point",
                 "--format", "json"),
                1, _check_analytic(k, [start + d], ("fixed-point",))))
        if k == 2:  # the zebra thresholds meet at 1/2: nothing to solve or bracket
            continue
        low = reference.zebra_pair(k)[0]
        ps = _grid(low + 1e-4, low + 1e-2, steps)
        commands.append(Command(
            ("sweep", "--k", ks, "--methods", "dp,relation", "--pmin", repr(ps[0]),
             "--pmax", repr(ps[-1]), "--steps", str(steps), "--format", "json"),
            1, _check_analytic(k, ps, ("dp", "relation"))))
        commands.append(Command(("critical", "--mode", "zebra-dp", "--k", ks), 1,
                                _check_dp_thresholds(k)))
        for d in (1e-5, 1e-6):
            commands.append(Command(
                ("eval", "--k", ks, "--p", repr(low + d), "--method", "dp", "--format", "json"),
                1, _check_analytic(k, [low + d], ("dp",))))
    return commands


def oracle(seed: int, tiny: bool) -> list[Command]:
    """Exhaustive enumeration of 2^14 configurations: tree and brute force only."""
    depth = 2 if tiny else 3
    commands = [] if tiny else [Command(("verify", "--suite", "oracle"), 1, _check_verify_oracle)]
    commands.append(Command(
        ("sweep", "--k", "2", "--depth", str(depth), "--methods", "brute-force",
         "--event", "zebra-count", "--steps", "3", "--format", "json"),
        1, _check_oracle_values(lambda p: reference.exact_zebra_count(2, p, depth),
                                [0.0, 0.5, 1.0])))
    commands.append(Command(
        ("eval", "--k", "2", "--p", "0.5", "--method", "brute-force", "--event", "zebra",
         "--depth", str(depth), "--exact", "--format", "json"),
        1, _check_oracle_values(lambda p: reference.exact_zebra_ray(2, p, depth), [0.5])))
    return commands


PARTS = {"mc-count": mc_count, "critical-mc": critical_mc, "solve": solve, "oracle": oracle}
#: Each workload pairs two parts, so that two workloads cover every layer and
#: each run can measure for long enough to be steady on a shared machine
#: within the time all runs are allowed.
WORKLOADS = {"monte-carlo": ("mc-count", "critical-mc"), "exact": ("solve", "oracle")}


def workload(name: str, seed: int, tiny: bool) -> list[Command]:
    """The commands of a workload, each labelled with its part."""
    return [replace(command, part=part)
            for part in WORKLOADS[name] for command in PARTS[part](seed, tiny)]
