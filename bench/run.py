"""zebraperc benchmark: two CLI workloads, each command a fresh subprocess.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs `python -m zebraperc` from ./src.
With --trace 0 it repeats the workload's command list for about S seconds
and reports the end-to-end metrics over the repetitions (see timed_run); with
--trace 1 it runs the list in-process, once plain and once traced
(bench/tracing.py), and reports the per-layer metrics. Every output is
checked against bench/reference.py. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

A command fails on a nonzero exit, a traceback on stderr or an output
outside its check. `correct` is false when a check fails, a traceback or
exit 1 (verification failure) appears, or the same command prints different
bytes on another repetition or at another thread count. Exits 2-5 are the
CLI's documented refusals: they count as failed, not as incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from workloads import NO_WORK, WORKLOADS, Command, Outcome, judge, workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Any single command taking longer than this is killed, so a run stays bounded.
COMMAND_TIMEOUT_S = 60.0
#: No-work commands timed per run; setup_s is their median.
SETUP_REPS = 11
#: Visits of the pace kernel per sample, about 0.15 s of pure Python.
PACE_VISITS = 60_000
#: The pace kernel's time that defines reference speed; a fixed constant, so
#: that the normalised times of two commits compare.
PACE_REF_S = 0.15
#: One pace sample follows every this many seconds of command wall time.
PACE_EVERY_S = 0.75
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def run_subprocess(argv, threads: int) -> Outcome:
    """Run `python -m zebraperc argv`; rusage includes the pool workers it reaped."""
    env = dict(os.environ, PYTHONPATH=str(SRC), ZEBRA_PERC_THREADS=str(threads))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "zebraperc", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(command=None, exit=proc.returncode, stdout=out.decode(),
                   stderr=err[0].decode(), wall_s=wall,
                   cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss)


def run_command(command: Command, threads: int | None = None) -> Outcome:
    outcome = run_subprocess(command.argv, command.threads if threads is None else threads)
    outcome.command = command
    return judge(outcome)


@dataclass
class Tally:
    """Failures, correctness and output hashes over every command of a run."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    max_rel_err: float = 0.0
    hashes: dict = field(default_factory=dict)  # argv -> sha256 of its stdout
    notes: list = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        argv = outcome.command.argv
        if outcome.problem:
            self.failed += 1
            self.note(f"FAIL {' '.join(argv)}: {outcome.problem}", outcome.incorrect)
        if outcome.rel_err is not None:
            self.max_rel_err = max(self.max_rel_err, outcome.rel_err)
        known = self.hashes.setdefault(argv, outcome.sha256)
        if known != outcome.sha256:
            self.note(f"NONDETERMINISTIC stdout of {' '.join(argv)}", True)

    def note(self, text: str, incorrect: bool = False) -> None:
        if text not in self.notes:
            self.notes.append(text)
        self.correct = self.correct and not incorrect

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure_setup(reps: int) -> float:
    """Median wall time of a no-work command: interpreter, import and parser."""
    times = []
    for _ in range(reps):
        outcome = run_subprocess(NO_WORK, 1)
        if outcome.exit != 0:
            raise SystemExit(f"error: no-work command failed: {outcome.stderr.strip()}")
        times.append(outcome.wall_s)
    return statistics.median(times)


def _mix(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def pace_sample() -> float:
    """Seconds the pace kernel takes now: a fixed depth-first walk of random bonds.

    The kernel is the benchmark's own pure-Python code, shaped like the
    program's hot loops (64-bit mixing, a stack, small tuples), so the shared
    machine slows it about as much as it slows the program. No change to
    zebraperc can change its work.
    """
    began = time.perf_counter()
    base, stack, seen = _mix(12345), [(0x243F6A8885A308D3, 0)], 0
    while seen < PACE_VISITS:
        if not stack:
            base = _mix(base + _GOLDEN)
            stack.append((0x243F6A8885A308D3, 0))
        key, depth = stack.pop()
        seen += 1
        if depth < 12:
            for i in range(3):
                child = _mix(key ^ (((i + 1) * _GOLDEN) & _MASK))
                if _mix(base ^ child) < 0.55 * 2.0**64:
                    stack.append((child, depth + 1))
    return time.perf_counter() - began


def timed_run(commands: list[Command], seconds: float, tally: Tally) -> dict:
    """Repeat the command list for about `seconds`, with pace samples in between.

    The shared machine's speed drifts by up to a half over minutes, which moves
    every time measured in a run together. wall_norm_s and cpu_norm_s are the
    sums of each command's median wall and CPU time, scaled by PACE_REF_S over
    the median pace sample of the same run: the time at reference speed. The
    raw sums are printed beside them. setup_s and peak_rss_mb are medians, and
    the thread-invariance runs come before the timed stretch.
    """
    measure_setup(1)  # warms the page and bytecode caches before timing starts
    setup_s = measure_setup(SETUP_REPS)
    for command in commands:
        if command.threads != 1:  # stdout must not depend on ZEBRA_PERC_THREADS
            tally.add(run_command(command, threads=1))
    paces = [pace_sample()]
    walls, cpus, peaks = [], [], []  # per repetition: one entry per command
    since_pace = 0.0
    deadline = time.perf_counter() + seconds
    rep_s = 0.0
    while not walls or time.perf_counter() + rep_s <= deadline:
        began = time.perf_counter()
        outcomes = []
        for command in commands:
            outcomes.append(run_command(command))
            since_pace += outcomes[-1].wall_s
            while since_pace >= PACE_EVERY_S:
                paces.append(pace_sample())
                since_pace -= PACE_EVERY_S
        rep_s = time.perf_counter() - began
        for outcome in outcomes:
            tally.add(outcome)
        walls.append([o.wall_s for o in outcomes])
        cpus.append([o.cpu_s for o in outcomes])
        peaks.append(max(o.maxrss_kb for o in outcomes) / 1024.0)
    wall = list(map(statistics.median, zip(*walls)))
    cpu = list(map(statistics.median, zip(*cpus)))
    pace_s = statistics.median(paces)
    scale = PACE_REF_S / pace_s
    print(f"repetitions {len(walls)}; wall_s per repetition {[round(sum(w), 4) for w in walls]}")
    print(f"pace_s {pace_s:.6g} s (median of {len(paces)}); wall_s {sum(wall):.6g} s; "
          f"cpu_s {sum(cpu):.6g} s")
    for part in dict.fromkeys(command.part for command in commands):
        mine = [i for i, command in enumerate(commands) if command.part == part]
        print(f"part {part}: wall_norm_s {sum(wall[i] for i in mine) * scale:.6g} s, "
              f"cpu_norm_s {sum(cpu[i] for i in mine) * scale:.6g} s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (sum(wall) * scale, "s"),
        "cpu_norm_s": (sum(cpu) * scale, "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a small size, for the self-tests")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the recorded spans here as JSON lines")
    args = parser.parse_args(argv)
    if not (SRC / "zebraperc" / "__main__.py").is_file():
        print(f"error: no zebraperc sources under {SRC}", file=sys.stderr)
        return 2

    commands = workload(args.workload, args.seed, args.size == "tiny")
    tally = Tally()
    for failure in reference.self_check():
        tally.note(f"REFERENCE self-check failed: {failure}", True)
    if args.trace:
        import tracing

        metrics = tracing.traced_run(commands, tally, SRC, args.spans)
    else:
        metrics = timed_run(commands, args.seconds, tally)

    for argv_, digest in tally.hashes.items():
        print(f"sha256 {digest} {' '.join(argv_)}")
    for note in tally.notes:
        print(note)
    checks = {"fail_share": (tally.fail_share, "ratio"), "max_rel_err": (tally.max_rel_err, "ratio")}
    for name, (value, unit) in {**metrics, **checks}.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        metrics.update({f"check.{name}": value for name, value in checks.items()})
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
