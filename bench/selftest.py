"""Self-tests of the benchmark, each workload at a tiny size.

    python3 -m pytest bench/selftest.py

The file name keeps these out of the repository's default test collection:
they start about forty subprocesses and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from workloads import PARTS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, proc.stdout
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    return last


def test_references_agree_with_closed_forms():
    assert reference.self_check() == []


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert sorted(part for parts in WORKLOADS.values() for part in parts) == sorted(PARTS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [3, 4])
def test_untraced_run_reports_every_end_to_end_metric(workload, seed):
    if seed == 4 and workload == "exact":
        pytest.skip("no random input: the seed does not change this workload")
    last = result(run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                      "--trace", "0", "--size", "tiny"))
    metrics = last["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert NAME.fullmatch(spec["name"])
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_per_layer_metrics_and_nested_spans(workload, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    last = result(run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                      "--size", "tiny", "--spans", str(spans_path)))
    metrics = last["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert NAME.fullmatch(spec["name"])
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    spans = {s["id"]: s for s in map(json.loads, spans_path.read_text().splitlines())}
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"]:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
        else:
            assert span["name"] == "bench.command"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
