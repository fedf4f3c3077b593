"""Pinned command lines and their committed stdout, checked at 1, 2 and 16 threads.

Each PINS entry names a file under tests/data and the zebraperc argv whose
stdout that file holds, byte for byte. Run

    python -S tests/pins.py

to run every entry as `python -S -m zebraperc` from the repository root with
src on the path, at ZEBRA_PERC_THREADS 1, 2 and 16 (more than most machines'
CPUs), and compare its stdout with the file. It prints one line per mismatch
and exits 1 if there is any. It needs only the standard library;
tests/test_cli.py runs the same entries at 1 and 2 threads.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

PINS = [(name, command.split()) for name, command in [
    # existence estimates at five p, each the count of 1000 per-trial outcomes
    ("sweep-k3-open-depth8-seed11.out",
     "sweep --k 3 --methods mc --event open --depth 8 --pmin 0.2 --pmax 0.8 --steps 5 "
     "--trials 1000 --seed 11"),
    # the same existence estimates beside the exact open-ray recursion's values
    ("sweep-k3-open-mc-dp-depth8-seed11.out",
     "sweep --k 3 --methods mc,dp --event open --depth 8 --pmin 0.2 --pmax 0.8 --steps 5 "
     "--trials 1000 --seed 11"),
    ("sweep-k3-zebra-depth8-seed11.out",
     "sweep --k 3 --methods mc --event zebra --depth 8 --pmin 0.2 --pmax 0.8 --steps 5 "
     "--trials 1000 --seed 11"),
    # counts at p = 0, 1/2 and 1
    ("sweep-k3-zebra-count-depth6-seed5.out",
     "sweep --k 3 --methods mc --event zebra-count --depth 6 --trials 300 --steps 3 --seed 5"),
    # the benchmark's counting walk: five p in one group
    ("sweep-k3-zebra-count-depth10-seed3.out",
     "sweep --k 3 --methods mc --event zebra-count --depth 10 --trials 1000 --pmin 0.3 "
     "--pmax 0.7 --steps 5 --seed 3"),
    # eleven count points in two groups, split at the eight-point group, between the
    # exact expected counts
    ("sweep-k3-zebra-count-dp-depth6-seed5.out",
     "sweep --k 3 --methods mc,dp --event zebra-count --depth 6 --trials 300 --pmin 0.3 "
     "--pmax 0.7 --steps 11 --seed 5"),
    # 18 points in groups of 8, 8 and 2
    ("sweep-k3-full-cayley-open-depth6-seed7.out",
     "sweep --k 3 --full-cayley --methods mc --event open --depth 6 --trials 400 --pmin 0.2 "
     "--pmax 0.6 --steps 18 --seed 7"),
    # one p nine times, across a group boundary
    ("sweep-k3-zebra-repeated-p-depth8-seed2.out",
     "sweep --k 3 --methods mc --event zebra --depth 8 --trials 500 --pmin 0.4 --pmax 0.4 "
     "--steps 9 --seed 2"),
    # k = 1000, whose batch of 524 trials makes a first round of 524,000 lanes
    ("sweep-k1000-open-depth4-seed5.out",
     "sweep --k 1000 --methods mc --event open --depth 4 --pmin 0.0008 --pmax 0.002 --steps 3 "
     "--trials 600 --seed 5"),
    # counts at k = 300, whose 6,000 depth-1 vertices are expanded 1,024 to a round
    ("sweep-k300-zebra-count-depth2-seed5.out",
     "sweep --k 300 --methods mc --event zebra-count --depth 2 --trials 20 --steps 3 "
     "--pmin 0.3 --pmax 0.7 --seed 5"),
    # the deterministic bisection's thresholds
    ("critical-k3-zebra-dp.out", "critical --mode zebra-dp --k 3"),
    ("critical-k4-full-cayley-zebra-dp.out", "critical --mode zebra-dp --k 4 --full-cayley"),
    # both thresholds of one bisection, decided probe by probe, the upper one in a
    # forked child at more than one thread; the benchmark's probe shapes are the
    # k = 3 depth-16 and k = 4 depth-12 ones
    ("critical-k3-zebra-mc-depth8-seed5.out",
     "critical --mode zebra-mc --k 3 --depth 8 --trials 300 --seed 5"),
    ("critical-k3-zebra-mc-depth16-seed3.out",
     "critical --mode zebra-mc --k 3 --depth 16 --trials 2000 --seed 3"),
    ("critical-k4-zebra-mc-depth12-seed3.out",
     "critical --mode zebra-mc --k 4 --depth 12 --trials 2000 --seed 3"),
    ("critical-k3-full-cayley-zebra-mc-depth10-seed41.out",
     "critical --mode zebra-mc --full-cayley --k 3 --depth 10 --trials 700 --seed 41"),
    ("critical-k3-full-cayley-zebra-mc-depth16-seed7.out",
     "critical --mode zebra-mc --k 3 --full-cayley --depth 16 --trials 2000 --seed 7"),
    # transform-demo on a sampled configuration and on the committed fixture
    ("demo-k3-full-cayley-depth4-seed5.out",
     "transform-demo --k 3 --full-cayley --depth 4 --seed 5"),
    ("zebra-ray.out", "transform-demo --k 2 --input tests/data/zebra-ray.sigma"),
]]


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    mismatches = 0
    for name, argv in PINS:
        want = (DATA / name).read_bytes()
        # the three thread counts side by side
        procs = {threads: subprocess.Popen(
                     [sys.executable, "-S", "-m", "zebraperc", *argv], cwd=ROOT,
                     env={**env, "ZEBRA_PERC_THREADS": threads},
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for threads in ("1", "2", "16")}
        for threads, proc in procs.items():
            out, err = proc.communicate()
            if proc.returncode or out != want:
                mismatches += 1
                last = err.decode(errors="replace").strip().rsplit("\n", 1)[-1]
                why = f"exit {proc.returncode}: {last}" if proc.returncode else "stdout differs"
                print(f"{name}: ZEBRA_PERC_THREADS={threads}: {why}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
