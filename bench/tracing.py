"""In-process traced run: spans and counts at zebraperc's layer boundaries.

zebraperc itself is not modified. For the traced pass every public function
of zebraperc.cli, .analytic, .montecarlo and .tree is replaced, in every
zebraperc module that refers to it, by a wrapper. A call that crosses from
one layer into another records a span (name, start, end, parent); a call that
stays inside its layer is only counted, so recursion and small helpers cost
little. montecarlo is split into the sub-layers bisect, estimator, sampler
and oracle, so a bisection probe or a per-trial sample is its own span.
TrialStream.is_open and .uniform are counted per bond, without spans. The
ProcessPoolExecutor name that montecarlo looks up is replaced by a subclass
that counts pool starts and collects the bond counts of its forked workers
through a pipe. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import math
import os
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from workloads import Command, Outcome, judge

LAYERS = ("cli", "analytic", "montecarlo", "tree")
#: montecarlo functions by name prefix, split into sub-layers.
MONTECARLO_SUBLAYERS = {
    "find_critical_": "montecarlo.bisect",
    "estimate_": "montecarlo.estimator",
    "sample_": "montecarlo.sampler",
    "count_": "montecarlo.sampler",
    "brute_force_": "montecarlo.oracle",
}
#: A bisection probe is one indicator evaluation: an estimate or a solve.
PROBE_LAYERS = ("montecarlo.estimator", "analytic")
#: Spans kept for writing out (a span is stored when it ends, so past the cap a
#: stored child can lack its parent); the aggregates always cover every span.
SPAN_KEEP = 200_000
#: Percentiles tried for the tail, highest first; each needs 10 samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: The tracer of the traced pass; forked pool workers inherit it.
_ACTIVE: Tracer | None = None


def _layer_of(module: str, name: str) -> str:
    if module == "montecarlo":
        for prefix, layer in MONTECARLO_SUBLAYERS.items():
            if name.startswith(prefix):
                return layer
    return module


class _InWorker:
    """Picklable wrapper for work sent to a pool: reports the worker's bond count to the parent.

    Each report is one 8-byte write to a pipe the forked worker inherited;
    pipe writes that small are atomic, so concurrent workers need no lock.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(*args, **kwargs)
        before = tracer.bonds[0]
        try:
            return self.fn(*args, **kwargs)
        finally:
            os.write(tracer.report_fd, struct.pack("q", tracer.bonds[0] - before))


class Tracer:
    """Spans, per-layer self time and event counts of one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [id, name, layer, start, child time]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end); parent 0 is none
        self.next_id = 0
        self.layer_calls: Counter = Counter()  # spans by layer
        self.layer_self: Counter = Counter()
        self.layer_total: Counter = Counter()
        self.analytic_us: list[float] = []
        self.probe_s: list[float] = []
        self.bonds = [0]
        self.worker_bonds = 0
        self.drain_fd, self.report_fd = os.pipe()
        os.set_blocking(self.drain_fd, False)
        self.trials = 0
        self.configs = 0
        self.witness_calls = 0
        self.witness_hits = 0
        self.nonconvergence = 0
        self.pool_starts = 0
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str, layer: str) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, name, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        ident, name, layer, start, child = self.stack.pop()
        duration = end - start
        self.layer_calls[layer] += 1
        self.layer_self[layer] += duration - child
        self.layer_total[layer] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += duration
            if parent[2] == "montecarlo.bisect" and layer in PROBE_LAYERS:
                self.probe_s.append(duration)
        if layer == "analytic":
            self.analytic_us.append(duration * 1e6)
        if len(self.spans) < SPAN_KEEP:
            self.spans.append((ident, parent[0] if parent else 0, name, start, end))

    # -- wrappers ---------------------------------------------------------

    def _observe(self, name: str, bound, result) -> None:
        if name.endswith("_witness"):
            self.witness_calls += 1
            self.witness_hits += result is not None
        elif bound is not None:
            self.trials += bound.arguments.get("trials", 0)

    def _wrap(self, fn, module: str):
        name = f"{module}.{fn.__name__}"
        layer = _layer_of(module, fn.__name__)
        signature = inspect.signature(fn) if layer == "montecarlo.estimator" else None
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    tracer.enter(name, layer)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    if name == "tree.enumerate_configs":
                        tracer.configs += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if signature else None
            if tracer.stack and tracer.stack[-1][2] == layer:
                result = fn(*args, **kwargs)
            else:
                tracer.enter(name, layer)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "NonConvergenceError":
                        tracer.nonconvergence += 1
                    raise
                finally:
                    tracer.exit()
            tracer._observe(name, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch zebraperc's public functions, bond draws and process pool."""
        global _ACTIVE
        import importlib

        modules = {name: importlib.import_module(f"zebraperc.{name}") for name in LAYERS}
        rng = importlib.import_module("zebraperc.rng")
        replace = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    replace[id(value)] = (value, self._wrap(value, short))
        loaded = [m for n, m in sys.modules.items() if n == "zebraperc" or n.startswith("zebraperc.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patch(module, attr, replace[id(value)][1])

        bonds = self.bonds
        for method in ("is_open", "uniform"):
            original = getattr(rng.TrialStream, method, None)
            if original is None:
                continue

            def counted(stream, *args, _original=original):
                bonds[0] += 1
                return _original(stream, *args)

            self._patch(rng.TrialStream, method, counted)

        pool_base = getattr(modules["montecarlo"], "ProcessPoolExecutor", None)
        if pool_base is not None:
            tracer = self

            class CountingPool(pool_base):
                def __init__(self, *args, **kwargs):
                    tracer.pool_starts += 1
                    super().__init__(*args, **kwargs)

                def submit(self, fn, /, *args, **kwargs):
                    return super().submit(_InWorker(fn), *args, **kwargs)

                def shutdown(self, *args, **kwargs):
                    super().shutdown(*args, **kwargs)
                    tracer.drain()

            self._patch(modules["montecarlo"], "ProcessPoolExecutor", CountingPool)
        _ACTIVE = self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def drain(self) -> None:
        """Add up the bond counts that pool workers have reported so far."""
        while True:
            try:
                data = os.read(self.drain_fd, 8 * 512)
            except BlockingIOError:
                return
            if not data:
                return
            self.worker_bonds += sum(n for (n,) in struct.iter_unpack("q", data))

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE = None
        self.drain()
        os.close(self.drain_fd)
        os.close(self.report_fd)

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        bonds = self.bonds[0] + self.worker_bonds
        tail_pct, tail_us = _tail(self.analytic_us)
        bisections = self.layer_calls["montecarlo.bisect"]
        return {
            "cli.commands": (self.layer_calls["cli"], "count"),
            "cli.self_s": (self.layer_self["cli"], "s"),
            "analytic.calls": (len(self.analytic_us), "count"),
            "analytic.self_s": (self.layer_self["analytic"], "s"),
            "analytic.call_us_p50": (statistics.median(self.analytic_us) if self.analytic_us else 0.0, "us"),
            "analytic.call_us_tail": (tail_us, "us"),
            "analytic.call_tail_pct": (tail_pct, "%"),
            "analytic.nonconvergence": (self.nonconvergence, "count"),
            "montecarlo.estimator_calls": (self.layer_calls["montecarlo.estimator"], "count"),
            "montecarlo.trials": (self.trials, "count"),
            "montecarlo.trials_per_s": (rate(self.trials, self.layer_total["montecarlo.estimator"]), "1/s"),
            "montecarlo.self_s": (sum(v for k, v in self.layer_self.items() if k.startswith("montecarlo")), "s"),
            "montecarlo.probes": (len(self.probe_s) / bisections if bisections else 0.0, "count"),
            "montecarlo.probe_ms_p50": (statistics.median(self.probe_s) * 1e3 if self.probe_s else 0.0, "ms"),
            "montecarlo.pool_starts": (self.pool_starts, "count"),
            "montecarlo.oracle_s": (self.layer_self["montecarlo.oracle"], "s"),
            "rng.bonds": (bonds, "count"),
            "rng.bonds_per_trial": (bonds / self.trials if self.trials else 0.0, "count"),
            "tree.configs": (self.configs, "count"),
            "tree.configs_per_s": (rate(self.configs, self.layer_total["montecarlo.oracle"]), "1/s"),
            "tree.witness_calls": (self.witness_calls, "count"),
            "tree.witness_hit_share": (self.witness_hits / self.witness_calls if self.witness_calls else 0.0, "ratio"),
            "tree.self_s": (self.layer_self["tree"], "s"),
        }


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with at least 10 samples beyond it.

    (0, 0) when there are fewer than 20 samples, so no percentile qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 0.0, 0.0


def run_inprocess(commands: list[Command], tracer: Tracer | None) -> tuple[float, list[Outcome]]:
    """Run each command through zebraperc.cli.main in this process, stdout captured."""
    from zebraperc import cli

    saved = os.environ.get("ZEBRA_PERC_THREADS")
    outcomes = []
    start = time.perf_counter()
    try:
        for command in commands:
            os.environ["ZEBRA_PERC_THREADS"] = str(command.threads)
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            if tracer is not None:
                tracer.enter("bench.command", "bench")
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(command.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = 1
                err.write(traceback.format_exc())
            finally:
                if tracer is not None:
                    tracer.exit()
            outcomes.append(Outcome(command, code, out.getvalue(), err.getvalue(),
                                    wall_s=time.perf_counter() - began))
        wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("ZEBRA_PERC_THREADS", None)
        else:
            os.environ["ZEBRA_PERC_THREADS"] = saved
    return wall, [judge(outcome) for outcome in outcomes]


def import_seconds(src, reps: int = 5) -> float:
    """Median time of `import zebraperc.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import zebraperc.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(reps)
    ]
    return statistics.median(times)


def ns_per_bond(loops: int = 100_000, reps: int = 3) -> float:
    """Median cost of one bond: address-key derivation plus one draw, untraced."""
    from zebraperc.rng import ROOT_KEY, TrialStream, child_key

    stream = TrialStream(0, 0)
    times = []
    for _ in range(reps):
        key = ROOT_KEY
        began = time.perf_counter()
        for i in range(loops):
            key = child_key(key, i & 3)
            stream.is_open(key, 0.5)
        times.append(time.perf_counter() - began)
    return statistics.median(times) / loops * 1e9


def traced_run(commands: list[Command], tally, src, spans_path: str | None) -> dict:
    """One plain and one traced in-process pass; per-layer metrics of the traced one."""
    sys.path.insert(0, str(src))
    metrics = {"cli.import_s": (import_seconds(src), "s"), "rng.ns_per_bond": (ns_per_bond(), "ns")}
    plain_s, outcomes = run_inprocess(commands, None)
    for outcome in outcomes:
        tally.add(outcome)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outcomes = run_inprocess(commands, tracer)
    finally:
        tracer.uninstall()
    for outcome in outcomes:
        tally.add(outcome)
    metrics.update(tracer.metrics())
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for ident, parent, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": ident, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return metrics
