import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import zebraperc
from zebraperc import TreeParams, cli, verify, zebra_critical_pair
from zebraperc.analytic import NonConvergenceError
from zebraperc.cli import CSV_HEADER, main
from zebraperc.tree import edges

from pins import DATA, PINS, ROOT


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses unknown flags this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: The argv of each pinned command line, by file under tests/data.
ARGV = dict(PINS)

#: The pinned zebra-mc bisections: each runs at 1 and 2 threads as two processes
#: side by side, the other pins in-process.
SIDE_BY_SIDE = [name for name, argv in PINS if argv[:3] == ["critical", "--mode", "zebra-mc"]]


def child_env(**extra):
    """os.environ for a child interpreter, with this zebraperc first on its path."""
    src = os.path.dirname(os.path.dirname(zebraperc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestEval:
    def test_closed_form_point(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.75",
                                        "--method", "closed-form"])
        assert code == 0
        header, row = out.splitlines()
        assert header == CSV_HEADER
        assert row == ("2,rooted-k,0.75,0,closed-form,0.888888888889,"
                       "0.888888888889,0.888888888889,0,0")

    def test_dp_subcritical_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.1",
                                        "--method", "dp", "--tol", "1e-10"])
        assert code == 0
        assert out.splitlines()[1].split(",")[5] == "0"

    @pytest.mark.parametrize("k, d", [(3, 1e-5), (3, 1e-6), (4, 1e-6), (5, 1e-6), (6, 1e-6)])
    def test_dp_limit_just_above_p_low(self, capsys, k, d):
        p = zebra_critical_pair(TreeParams(k)).p_low + d
        code, out, _ = run_cli(capsys, ["eval", "--k", str(k), "--p", repr(p),
                                        "--method", "dp", "--format", "json"])
        assert code == 0
        (row,) = out.splitlines()
        assert json.loads(row)["value"] > 0.0

    def test_dp_finite_depth(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.5",
                                        "--method", "dp", "--depth", "2"])
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[3] == "2" and fields[5] == "0.9375"

    def test_dp_at_a_depth_in_constant_memory(self, capsys):
        """The depth-n value is read off a walk over the states, not a list of them."""
        argv = ["eval", "--k", "3", "--p", "0.5", "--method", "dp", "--depth", "200000"]
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.splitlines()[1] == ("3,rooted-k,0.5,200000,dp,0.986844382504,"
                                       "0.986844382504,0.986844382504,0,0")
        assert peak < 2**20  # a list of the 200,001 states takes tens of MB

    @pytest.mark.parametrize("event,depth,row", [
        ("zebra", "3", "3,dp,0.994362289886"),
        ("open", "3", "3,dp-open,0.795674710867"),
        ("open", "0", "0,dp-open,0.7639320225"),  # theta_3(1/2), the open-ray depth limit
        ("zebra-count", "6", "6,dp-zebra-count,22.78125"),  # 3 (9/4)^3 2/3
    ])
    def test_dp_reads_the_event(self, capsys, event, depth, row):
        code, out, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.5", "--method", "dp",
                                        "--event", event, "--depth", depth])
        assert code == 0
        value = row.rsplit(",", 1)[1]
        assert out.splitlines()[1] == f"3,rooted-k,0.5,{row},{value},{value},0,0"

    def test_dp_open_at_a_depth_past_the_repeat(self, capsys):
        """The 62nd step repeats the branch value exactly, and the recursion stops there."""
        code, out, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.5", "--method", "dp",
                                        "--event", "open", "--depth", "1000000"])
        assert code == 0
        assert out.splitlines()[1] == ("3,rooted-k,0.5,1000000,dp-open,0.7639320225,"
                                       "0.7639320225,0.7639320225,0,0")

    def test_mc_is_deterministic(self, capsys):
        argv = ["eval", "--k", "2", "--p", "0.5", "--method", "mc", "--event",
                "zebra", "--depth", "2", "--trials", "5000", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        value = float(out1.splitlines()[1].split(",")[5])
        assert abs(value - 0.9375) < 0.02

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.75",
                                        "--method", "fixed-point", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "fixed-point"
        assert abs(record["value"] - 8 / 9) < 1e-9

    def test_brute_force_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.5",
                                        "--method", "brute-force", "--event", "zebra",
                                        "--depth", "2", "--exact"])
        assert code == 0
        assert out.splitlines()[1].split(",")[5] == "0.9375"

    def test_full_cayley_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.75",
                                        "--method", "fixed-point", "--full-cayley"])
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[1] == "full-cayley"
        assert float(fields[5]) > 8 / 9  # extra root child raises the probability


class TestExitCodes:
    def test_invalid_probability(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--k", "2", "--p", "1.5", "--method", "dp"])
        assert code == 2
        assert "--p" in err

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--k", "1", "--p", "0.5", "--method", "dp"])
        assert code == 2
        assert "--k" in err

    def test_missing_method(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--k", "2", "--p", "0.5"])
        assert code == 2
        assert "--method" in err

    def test_non_convergence(self, capsys):
        code, out, err = run_cli(capsys, ["eval", "--k", "2", "--p", "0.9",
                                          "--method", "fixed-point", "--max-iter", "2"])
        assert code == 3
        assert out == ""
        assert "tol" in err
        assert ", 2 iterations, last step " in err.splitlines()[-1]
        # a failed solve reports the root value of its last iterate in both root modes
        assert "(last value 0.9876543210234453, " in err.splitlines()[-1]
        code, out, err = run_cli(capsys, ["eval", "--k", "2", "--full-cayley", "--p", "0.9",
                                          "--method", "fixed-point", "--max-iter", "2"])
        assert (code, out) == (3, "")
        assert "(last value 0.9986282578934823, " in err.splitlines()[-1]

    def test_unsupported_order(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--k", "5", "--p", "0.5",
                                      "--method", "closed-form"])
        assert code == 4

    def test_too_large_brute_force(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.5",
                                      "--method", "brute-force", "--event", "zebra",
                                      "--depth", "3"])
        assert code == 4

    def test_deep_open_ray_has_no_depth_cap(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "1.0", "--method", "mc",
                                        "--event", "open", "--depth", "2000", "--trials", "1"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3:6] == ["2000", "mc-open", "1"]

    @pytest.mark.parametrize("depth", ["40", "2000"])
    def test_runaway_count_refused_at_once(self, capsys, depth):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["eval", "--k", "3", "--p", "0.5", "--method", "mc",
                                          "--event", "zebra-count", "--depth", depth])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert f"zebra-count to depth {depth}" in err and "budget" in err

    def test_deep_subcritical_count_runs(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.1", "--method", "mc",
                                        "--event", "zebra-count", "--depth", "1000000",
                                        "--trials", "1"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3:6] == ["1000000", "mc-zebra-count", "0"]

    def test_deep_mc_within_the_samplers(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "1.0", "--method", "mc",
                                        "--event", "open", "--depth", "500", "--trials", "1"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3:6] == ["500", "mc-open", "1"]

    @pytest.mark.parametrize("argv,field", [
        (["eval", "--k", "3", "--p", "0.5", "--method", "bogus"], "--method"),
        (["eval", "--k", "3", "--p", "0.5", "--method", "mc", "--event", "nope"], "--event"),
        (["eval", "--k", "3", "--p", "0.5", "--method", "dp", "--format", "xml"], "--format"),
        (["critical", "--k", "3", "--mode", "bad"], "--mode"),
    ])
    def test_bad_choice(self, capsys, argv, field):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"error: {field}: one of " in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "5", "--p", "0.5", "--method", "closed-form"],
        ["sweep", "--k", "5", "--methods", "closed-form"],
    ])
    def test_failing_first_point_writes_nothing(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 4 and out == ""
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, argv + ["--output", str(path)])
        assert code == 4 and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("argv,field", [
        ("sweep --k 3 --methods dp,mc --depth 4 --trials 0 --steps 3", "--trials"),
        ("sweep --k 3 --methods fixed-point,dp --depth -1 --steps 3", "--depth"),
        ("sweep --k 3 --methods dp,mc --depth 0 --steps 3", "--depth"),
        ("sweep --k 3 --methods dp --event zebra-count --steps 3", "--depth"),
        ("sweep --k 3 --methods dp,closed-form --full-cayley --steps 3", "--method"),
        # an option the mode does not read is checked all the same
        ("critical --mode standard --k 3 --trials 0", "--trials"),
    ])
    def test_refusal_for_a_later_row_writes_nothing(self, capsys, tmp_path, argv, field):
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(f"error: {field}: ")
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, argv.split() + ["--output", str(path)])
        assert (code, out) == (2, "")
        assert not path.exists()

    def test_no_bracket(self, capsys):
        code, _, err = run_cli(capsys, ["critical", "--k", "2", "--mode", "zebra-dp"])
        assert code == 5
        assert "k=2" in err

    def test_detection_level_of_one_refused(self, capsys, monkeypatch):
        # at depth 6 the level for k = 3 is 1.125: no estimate exceeds it, so no bond is drawn
        from zebraperc import kernel

        def refuse(*args, **kwargs):
            raise AssertionError("ray_hits called")

        monkeypatch.setattr(kernel, "ray_hits", refuse)
        code, out, err = run_cli(capsys, ["critical", "--mode", "zebra-mc", "--k", "3",
                                          "--depth", "6"])
        assert (code, out) == (5, "")
        assert err.splitlines()[-1] == ("error: no zebra-percolation transition detectable at "
                                        "depth 6 for k=3: the detection level 1.125 is not below 1")

    @pytest.mark.parametrize("mode", ["zebra-dp", "zebra-mc"])
    def test_no_bracket_writes_nothing(self, capsys, tmp_path, mode):
        argv = ["critical", "--k", "2", "--mode", mode, "--depth", "4", "--trials", "50"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 5 and out == ""
        path = tmp_path / "critical.csv"
        code, out, _ = run_cli(capsys, argv + ["--output", str(path)])
        assert code == 5 and out == ""
        assert not path.exists()


class TestSweep:
    def test_triplet_row_count_and_order(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--k", "3", "--methods",
                                        "fixed-point,dp,relation", "--pmin", "0",
                                        "--pmax", "1", "--steps", "11"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 33
        ps = [float(line.split(",")[2]) for line in lines[1:]]
        assert ps == sorted(ps)
        methods = [line.split(",")[4] for line in lines[1:4]]
        assert methods == ["fixed-point", "dp", "relation"]

    def test_k2_zebra_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--k", "2", "--methods", "dp",
                                        "--pmin", "0", "--pmax", "1", "--steps", "21"])
        assert code == 0
        values = {line.split(",")[5] for line in out.splitlines()[1:]}
        assert values == {"0"}

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--k", "3", "--methods", "mc", "--event", "zebra",
                "--depth", "8", "--pmin", "0.2", "--pmax", "0.8", "--steps", "4",
                "--trials", "500", "--seed", "3"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv,lines,groups", [
        ("sweep --k 3 --methods mc --depth 6 --trials 200 --steps 3".split(), 4, 1),
        (ARGV["sweep-k3-full-cayley-open-depth6-seed7.out"], 19, 3),
    ], ids=["one-group", "three-groups"])
    def test_one_fork_set_per_group(self, capsys, monkeypatch, fork_sets, argv, lines, groups):
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ZEBRA_PERC_THREADS", threads)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            outputs.append(out)
        # none at one thread, one child (two processes) for every group at two
        assert [len(pids) for pids in fork_sets] == [0] * groups + [1] * groups
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == lines

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_repeated_mc_method_repeats_each_row(self, capsys, monkeypatch, threads):
        """Both mc rows at a grid point carry that point's estimate, across groups."""
        name = "sweep-k3-full-cayley-open-depth6-seed7.out"
        argv = [*ARGV[name]]
        argv[argv.index("--methods") + 1] = "mc,mc"
        monkeypatch.setenv("ZEBRA_PERC_THREADS", threads)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, *rows = (DATA / name).read_text().splitlines()
        assert out.splitlines() == [header, *(row for row in rows for _ in range(2))]

    def test_budget_refusal_after_the_rows_before_it(self, capsys, monkeypatch):
        """The 4th of 11 grid points is past the count budget: the first three rows
        are written from one walk over those three points, then the run exits 4."""
        from zebraperc import kernel, montecarlo

        ps = cli._grid(0.3, 0.7, 11)
        monkeypatch.setattr(montecarlo, "MAX_COUNT_LANES",
                            300 * montecarlo._expected_lanes(TreeParams(3), ps[2], 6))
        groups = []

        def recording(params, group, n, bases):
            groups.append(list(group))
            return walk(params, group, n, bases)

        walk = kernel.zebra_counts
        monkeypatch.setattr(kernel, "zebra_counts", recording)
        code, out, err = run_cli(capsys, ["sweep", "--k", "3", "--methods", "mc", "--event",
                                          "zebra-count", "--depth", "6", "--trials", "300",
                                          "--pmin", "0.3", "--pmax", "0.7", "--steps", "11",
                                          "--seed", "5"])
        assert code == 4
        assert out.splitlines() == [
            CSV_HEADER,
            "3,rooted-k,0.3,6,mc-zebra-count,13.3933333333,12.3667267871,14.4199398796,300,5",
            "3,rooted-k,0.34,6,mc-zebra-count,16.8,15.6080339642,17.9919660358,300,5",
            "3,rooted-k,0.38,6,mc-zebra-count,19.55,18.2475004303,20.8524995697,300,5",
        ]
        assert err.splitlines()[-1] == (
            "error: zebra-count to depth 6 at p=0.42 expects 3.51e+04 lanes over 300 trials, "
            "past the budget of 3.34e+04")
        assert groups == [ps[:3]]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, ["sweep", "--k", "2", "--methods", "fixed-point",
                                        "--pmin", "0", "--pmax", "1", "--steps", "5",
                                        "--output", str(path)])
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 6

    def test_groups_found_without_a_grid_search(self, capsys, monkeypatch):
        """The mc rows take the grid's estimates in turn; no p is searched for."""
        class Unsearchable(list):
            def index(self, *args):
                raise AssertionError("the grid was searched")

        grid = cli._grid
        monkeypatch.setattr(cli, "_grid", lambda *args: Unsearchable(grid(*args)))
        monkeypatch.delenv("ZEBRA_PERC_THREADS", raising=False)
        name = "sweep-k3-zebra-count-dp-depth6-seed5.out"
        code, out, _ = run_cli(capsys, ARGV[name])
        assert code == 0
        assert out == (DATA / name).read_text()

    def test_open_ray_dp_rows_leave_the_mc_rows_as_they_are(self):
        beside = (DATA / "sweep-k3-open-mc-dp-depth8-seed11.out").read_text().splitlines()
        alone = (DATA / "sweep-k3-open-depth8-seed11.out").read_text().splitlines()
        assert [beside[0], *beside[1::2]] == alone
        assert {row.split(",")[4] for row in beside[2::2]} == {"dp-open"}

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--k", "2", "--methods", "magic"])
        assert code == 2
        assert "--methods" in err


class TestCritical:
    def test_standard(self, capsys):
        code, out, _ = run_cli(capsys, ["critical", "--k", "3", "--mode", "standard"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[:3] == ["3", "standard", "point"]
        assert float(row[3]) == pytest.approx(1 / 3, abs=1e-12)

    def test_zebra_dp_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["critical", "--k", "3", "--mode", "zebra-dp"])
        assert code == 0
        lower, upper = (line.split(",") for line in out.splitlines()[1:])
        assert lower[2] == "lower" and upper[2] == "upper"
        assert float(lower[3]) == pytest.approx(0.127322, abs=0.01)
        assert float(upper[3]) == pytest.approx(0.872678, abs=0.01)
        assert float(lower[5]) < 0.01


class TestVerify:
    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "oracle"])
        assert code == 0
        assert "PASS oracle reference 15/16" in out
        assert "FAIL" not in out

    def test_inverse_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "inverse"])
        assert code == 0
        assert out.count("PASS") == 5

    def test_relation_suite_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "relation.csv"
        code, out, _ = run_cli(capsys, ["verify", "--suite", "relation",
                                        "--output", str(path)])
        assert code == 0
        assert "reported, not asserted" in out
        assert "PASS relation recursion k=3" in out and "FAIL" not in out
        lines = path.read_text().splitlines()
        assert lines[0] == "k,p,dp_limit,relation,abs_dev"
        assert len(lines) == 1 + 2 * 101

    def test_relation_suite_writes_no_csv_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "relation"])
        assert code == 0
        assert "PASS relation csv: deviation grid not written (no --output)" in out
        assert list(tmp_path.iterdir()) == []

    def test_crashed_suite_fails_and_the_rest_run(self, capsys, monkeypatch):
        def crash():
            raise NonConvergenceError("no root after 3 iterations", 0.5)

        monkeypatch.setattr(verify, "_suite_closed_form", crash)
        monkeypatch.setattr(verify, "_suite_transform", lambda: [("transform stub", True, "skipped")])
        code, out, err = run_cli(capsys, ["verify", "--suite", "all"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL closed-form: NonConvergenceError: no root after 3 iterations"
        assert any(line.startswith("PASS oracle reference 15/16:") for line in lines)
        assert "PASS transform stub: skipped" in lines
        assert lines[-1].startswith("PASS relation csv")
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert "Traceback" not in err

    def test_transform_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "transform"])
        assert code == 0
        assert out == (
            "PASS transform exhaustive k=2 depth=2: all 64 configurations\n"
            "PASS transform sampled k=2 depth=4: 16384 seeded configurations\n"
            "PASS transform sampled k=2 depth=6: 10000 seeded configurations\n"
            "PASS transform sampled k=3 depth=4: 10000 seeded configurations\n"
        )

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 2
        assert "error: --suite" in err


#: Brute-force command lines and their stdout: every value is the exact sum,
#: rounded once.
ORACLE_STDOUT = [
    ("verify --suite oracle",
     "PASS oracle k=2 depths 1-3: max |brute force - recursion| = 1.665e-16\n"
     "PASS oracle reference 15/16: exact P(alternating ray, depth 2, p=1/2) = 15/16\n"),
    ("sweep --k 2 --depth 3 --methods brute-force --event zebra-count --steps 3 --format json",
     "".join('{"k":2,"root_mode":"rooted-k","p":%s,"depth":3,"method":"brute-zebra-count",'
             '"value":%s,"ci_low":%s,"ci_high":%s,"trials":0,"seed":0}\n' % (p, v, v, v)
             for p, v in (("0.0", "0.0"), ("0.5", "2.0"), ("1.0", "0.0")))),
    ("eval --k 2 --p 0.5 --method brute-force --event zebra --depth 3 --exact --format json",
     '{"k":2,"root_mode":"rooted-k","p":0.5,"depth":3,"method":"brute-zebra",'
     '"value":0.847412109375,"ci_low":0.847412109375,"ci_high":0.847412109375,'
     '"trials":0,"seed":0}\n'),
    ("eval --k 4 --p 0.3 --method brute-force --event zebra --depth 2",  # 20 edges
     CSV_HEADER + "\n4,rooted-k,0.3,2,brute-zebra,0.999154920565,0.999154920565,"
     "0.999154920565,0,0\n"),
    ("eval --k 4 --p 0.3 --method brute-force --event zebra-count --depth 2",
     CSV_HEADER + "\n4,rooted-k,0.3,2,brute-zebra-count,6.72,6.72,6.72,0,0\n"),
    ("eval --k 2 --full-cayley --p 0.3 --method brute-force --event zebra-count --depth 3",
     CSV_HEADER + "\n2,full-cayley,0.3,3,brute-zebra-count,2.52,2.52,2.52,0,0\n"),  # 21 edges
    ("eval --k 3 --p 0.4 --method brute-force --event open --depth 2",
     CSV_HEADER + "\n3,rooted-k,0.4,2,brute-open,0.676606099456,0.676606099456,"
     "0.676606099456,0,0\n"),
    ("eval --k 2 --full-cayley --p 0.6 --method brute-force --event open --depth 3",
     CSV_HEADER + "\n2,full-cayley,0.6,3,brute-open,0.835784873539,0.835784873539,"
     "0.835784873539,0,0\n"),  # 21 edges
]


class TestOracleOutput:
    @pytest.mark.parametrize("command,stdout", ORACLE_STDOUT)
    def test_stdout_is_unchanged(self, capsys, command, stdout):
        code, out, _ = run_cli(capsys, command.split())
        assert code == 0
        assert out == stdout

    def test_exact_flag_changes_nothing(self, capsys):
        command = ["eval", "--k", "4", "--p", "0.3", "--method", "brute-force", "--event",
                   "zebra", "--depth", "2"]  # 20 edges
        assert run_cli(capsys, command)[:2] == run_cli(capsys, command + ["--exact"])[:2]


#: sha256 of transform-demo's stdout at seeds 0-9, concatenated in seed order,
#: by k, root mode and depth.
DEMO_SHA256 = {
    (2, "rooted-k", 2): "3e200e8d8096232177c2ab1b63eaaab29a500fb62ac6e1384cc747bcc78ed314",
    (2, "rooted-k", 4): "199a1347bed8e4bea03a84049fbf10802ed2777c286c3ac713fdc82c50fb8573",
    (2, "rooted-k", 6): "1e53c7126d149ba0a8f2e19d1e43bd42b56926bf9091694790b391e7aa4bd9bf",
    (2, "full-cayley", 2): "ef9a91f8deaa42af4087a5dd2120c7b82fb83f2eaabaf967edb837fcedc02eeb",
    (2, "full-cayley", 4): "e60e6f1a91d895e702bb36c8befd215f575d17fbcc793720b5d82d198bd56c93",
    (2, "full-cayley", 6): "399102126f90c676e619f5fa056e241b8418080451bebe9714fbd6fa11fcce7a",
    (3, "rooted-k", 2): "614d5dc8aabbba9a7eb9a66f517c5383913bb274241b4c73a3acc73af4e7ae85",
    (3, "rooted-k", 4): "b7f54be355096a8c3e281916f79ba0ccf6c575596800abc57b5fc43472c29f8b",
    (3, "rooted-k", 6): "9e6fe8241240a227bfac5198cd3da94976afff3605966b089ece55cb3bc42c44",
    (3, "full-cayley", 2): "8b1fdde42f8df5ccb20eeb0d472697bdff590d6750a865a0f1368b03a03330c2",
    (3, "full-cayley", 4): "752cb3ee635e5a808eb23cb39a5bdf29f021a68a1f611010dc856028a0799451",
    (3, "full-cayley", 6): "f0575f83d0bb448c9b30f6b7dae7bd547d6789433be87f28aa72970254c2e190",
}


def _lines(edge_list, state):
    return "".join(f"{'/'.join(map(str, e))},{state}\n" for e in edge_list)


def _demo_config(depth):
    return ('config: {"depth": %d, "input": "fixture.sigma", "k": 2, "output": null, '
            '"p": 0.5, "root_mode": "rooted-k", "seed": 0}' % depth)


#: transform-demo --k 2 --input fixture.sigma: extra flags and fixture text, then
#: the exit code, stdout and last stderr line.
DEMO_INPUTS = {
    "all-open": (["--depth", "2"], _lines(edges(TreeParams(2), 2), "O"), 0,
                 "# sigma k=2 root_mode=rooted-k depth=2\n"
                 + _lines(edges(TreeParams(2), 2), "O")
                 + "# phi depth=1\n0,0\n1,0\n2,0\n3,0\n"
                 + "".join(f"# witness {w}: none\n"
                           for w in ("zebra-open", "zebra-closed", "plus", "minus")),
                 _demo_config(2)),
    "too-deep": ([], "/".join(["0"] * 40) + ",O\n", 2, "",
                 "error: --input: 1 edges, but the depth-40 truncation has 2199023255550"),
    "incomplete-domain": ([], "0,O\n", 2, "",
                          "error: --input: 1 edges, but the depth-1 truncation has 2"),
    "duplicate-edge": ([], "0,O\n0,C\n1,O\n", 2, "",
                       "error: --input: line 2: duplicate edge 0"),
    "bad-line": ([], "0,X\n1,O\n", 2, "",
                 "error: --input: line 1: expected 'address,O|C', got '0,X'"),
    "odd-depth": ([], "0,O\n1,C\n", 2, "", "error: --input: fixture depth 1 unsupported"),
    "bad-address": ([], "0/x,O\n1,O\n", 2, "", "error: --input: bad address '0/x'"),
    "no-edges": ([], "# nothing here\n\n", 2, "", "error: --input: no edges found"),
    "wrong-edge-set": ([], "0,O\n2,O\n", 2, "",
                       "error: --input: edge set does not match the depth-1 truncation "
                       "(missing e.g. [(1,)], extra e.g. [(2,)])"),
    "depth-8": ([], _lines(edges(TreeParams(2), 8), "O"), 2, "",
                "error: --input: fixture depth 8 unsupported"),
    "alternating-ray": ([], (DATA / "zebra-ray.sigma").read_text(), 0,
                        (DATA / "zebra-ray.out").read_text(), _demo_config(4)),
    "odd-depth-flag": (["--depth", "3"], (DATA / "zebra-ray.sigma").read_text(), 0,
                       (DATA / "zebra-ray.out").read_text(), _demo_config(3)),
}


class TestTransformDemo:
    @pytest.mark.parametrize("k,mode,depth", list(DEMO_SHA256))
    def test_sampled_stdout_is_pinned(self, capsys, k, mode, depth):
        digest = hashlib.sha256()
        for seed in range(10):
            argv = ["transform-demo", "--k", str(k), "--depth", str(depth), "--seed", str(seed)]
            code, out, _ = run_cli(capsys, argv + ["--full-cayley"] * (mode == "full-cayley"))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == DEMO_SHA256[k, mode, depth]

    @pytest.mark.parametrize("name", list(DEMO_INPUTS))
    def test_input_is_pinned(self, capsys, monkeypatch, tmp_path, name):
        flags, text, want_code, want_out, want_err = DEMO_INPUTS[name]
        (tmp_path / "fixture.sigma").write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["transform-demo", "--k", "2", *flags,
                                          "--input", "fixture.sigma"])
        assert (code, out, err.splitlines()[-1]) == (want_code, want_out, want_err)

    def test_sampled_dump(self, capsys):
        code, out, _ = run_cli(capsys, ["transform-demo", "--k", "2", "--depth", "4",
                                        "--seed", "3"])
        assert code == 0
        assert out.startswith("# sigma k=2 root_mode=rooted-k depth=4")
        assert "# phi depth=2" in out
        assert "# witness zebra-open:" in out
        code2, out2, _ = run_cli(capsys, ["transform-demo", "--k", "2", "--depth", "4",
                                          "--seed", "3"])
        assert out2 == out

    def test_all_open_fixture(self, capsys, tmp_path):
        fixture = tmp_path / "allopen.sigma"
        fixture.write_text(_lines(edges(TreeParams(2), 2), "O"))
        code, out, _ = run_cli(capsys, ["transform-demo", "--k", "2", "--depth", "2",
                                        "--input", str(fixture)])
        assert code == 0
        phi_lines = out.split("# phi depth=1\n")[1].splitlines()[:4]
        assert all(line.endswith(",0") for line in phi_lines)
        assert "# witness zebra-open: none" in out

    def test_output_file(self, capsys, tmp_path):
        argv = ["transform-demo", "--k", "2", "--depth", "4", "--seed", "3"]
        _, expected, _ = run_cli(capsys, argv)
        path = tmp_path / "demo.txt"
        code, out, _ = run_cli(capsys, argv + ["--output", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == expected

    def test_fixture_edge_count_checked_before_the_edges_are_listed(self, capsys, tmp_path):
        # one edge 40 levels down: the depth-40 truncation of the binary tree has 2^41 - 2 edges
        fixture = tmp_path / "deep.sigma"
        fixture.write_text("/".join(["0"] * 40) + ",O\n")
        code, out, err = run_cli(capsys, ["transform-demo", "--k", "2", "--input", str(fixture)])
        assert code == 2
        assert out == ""
        assert "error: --input: 1 edges, but the depth-40 truncation has 2199023255550" in err

    def test_too_large(self, capsys):
        code, _, _ = run_cli(capsys, ["transform-demo", "--k", "4", "--depth", "4"])
        assert code == 4
        code, _, _ = run_cli(capsys, ["transform-demo", "--k", "2", "--depth", "8"])
        assert code == 4

    def test_odd_depth_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["transform-demo", "--k", "2", "--depth", "3"])
        assert code == 2
        assert "--depth" in err


class TestConfigPrecedence:
    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 2, "p": 0.75, "method": "closed-form"}))
        code, out, err = run_cli(capsys, ["eval", "--config", str(cfg), "--k", "3",
                                          "--p", "0.5", "--method", "fixed-point"])
        assert code == 0
        assert out.splitlines()[1].startswith("3,rooted-k,0.5,0,fixed-point")
        assert '"k": 3' in err  # resolved config echoed to stderr

    def test_config_file_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 2, "p": 0.75, "method": "closed-form"}))
        code, out, _ = run_cli(capsys, ["eval", "--config", str(cfg)])
        assert code == 0
        assert out.splitlines()[1].startswith("2,rooted-k,0.75,0,closed-form")

    @pytest.mark.parametrize("config,field", [
        ({"depth": True, "trials": True}, "--depth"),
        ({"trials": True}, "--trials"),
        ({"seed": False}, "--seed"),
        ({"k": True}, "--k"),
        ({"p": True}, "--p"),
        ({"method": "dp", "depth": True}, "--depth"),
    ])
    def test_json_booleans_rejected(self, capsys, tmp_path, config, field):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 3, "p": 0.5, "method": "mc", "event": "zebra",
                                   "depth": 2, "trials": 10, **config}))
        code, out, err = run_cli(capsys, ["eval", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert f"error: {field}:" in err

    @pytest.mark.parametrize("config,field", [
        ({"tol": "x"}, "--tol"),
        ({"tol": True}, "--tol"),
        ({"tol": 0}, "--tol"),
        ({"tol": -1e-9}, "--tol"),
        ({"max_iter": True}, "--max-iter"),
        ({"max_iter": 0}, "--max-iter"),
        ({"max_iter": 2.5}, "--max-iter"),
    ])
    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "3", "--p", "0.5", "--method", "fixed-point"],
        ["eval", "--k", "3", "--p", "0.5", "--method", "relation"],
        ["eval", "--k", "3", "--p", "0.5", "--method", "dp"],
        ["critical", "--k", "3", "--mode", "zebra-dp"],
        ["critical", "--k", "3", "--mode", "zebra-mc", "--depth", "2", "--trials", "10"],
        ["critical", "--k", "3", "--mode", "standard"],  # which reads no solver setting
    ])
    def test_solver_settings_validated(self, capsys, tmp_path, config, field, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        if argv[0] == "critical" and field == "--max-iter":  # critical has no max_iter key
            field = "--config: unknown keys ['max_iter']"
        assert f"error: {field}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["critical", "--k", "3", "--mode", "zebra-dp", "--max-iter", "1"],
        ["eval", "--k", "3", "--p", "0.5", "--method", "dp", "--tol", "0"],
    ])
    def test_solver_flags_validated(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        if argv[0] == "critical":  # critical has no --max-iter
            assert "error: unrecognized arguments: --max-iter 1" in err
        else:
            assert "error: --tol:" in err

    @pytest.mark.parametrize("argv,config,field", [
        (["eval", "--method", "mc", "--depth", "2"], {"p": 0.5, "event": ["x"]}, "--event"),
        (["eval", "--method", "dp"], {"p": 0.5, "format": "xml"}, "--format"),
        (["eval", "--method", "brute-force", "--depth", "2"], {"p": 0.5, "exact": "no"}, "--exact"),
        (["eval", "--method", "dp"], {"p": 0.5, "output": 7}, "--output"),
        (["transform-demo"], {"input": 0}, "--input"),
        (["transform-demo"], {"seed": "x"}, "--seed"),
        (["sweep", "--methods", "dp", "--steps", "2"], {"format": None}, "--format"),
        (["eval", "--method", "dp"], {"p": 0.5, "root_mode": "x"}, "--root-mode"),
    ])
    def test_config_values_of_the_wrong_type(self, tmp_path, argv, config, field):
        # A child process: unchecked, an integer --output is opened as a file descriptor.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 2, **config}))
        proc = subprocess.run([sys.executable, "-m", "zebraperc", *argv, "--config", str(cfg)],
                              capture_output=True, text=True, env=child_env(), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"error: {field}:" in proc.stderr and "Traceback" not in proc.stderr

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        code, _, err = run_cli(capsys, ["eval", "--config", str(cfg), "--k", "2",
                                        "--p", "0.5", "--method", "dp"])
        assert code == 2
        assert "mystery" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "3", "--p", "0.5", "--method", "dp"],
        ["sweep", "--k", "3", "--methods", "fixed-point", "--steps", "3"],
        ["critical", "--mode", "standard", "--k", "3"],
        ["transform-demo", "--k", "2", "--depth", "2"],
        ["verify", "--suite", "relation"],
        ["verify", "--suite", "all"],
    ])
    def test_exit_2_and_nothing_written(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, argv + ["--output", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: --output: cannot write {path}: ")
        assert not path.parent.exists()


class TestSurface:
    FLAGS = {
        "eval": ["--k", "--full-cayley", "--config", "--output", "--p", "--method", "--event",
                 "--depth", "--trials", "--seed", "--tol", "--max-iter", "--exact", "--format"],
        "sweep": ["--k", "--full-cayley", "--config", "--output", "--pmin", "--pmax", "--steps",
                  "--methods", "--event", "--depth", "--trials", "--seed", "--tol",
                  "--max-iter", "--exact", "--format"],
        "critical": ["--k", "--full-cayley", "--config", "--output", "--mode", "--depth",
                     "--trials", "--seed", "--tol"],
        "verify": ["--suite", "--config", "--output"],
        "transform-demo": ["--k", "--full-cayley", "--config", "--output", "--depth", "--p",
                           "--seed", "--input"],
    }

    def test_option_strings(self):
        (sub,) = (a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: [o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, sp in sub.choices.items()
        }
        assert surface == self.FLAGS

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help(self, command):
        proc = subprocess.run([sys.executable, "-m", "zebraperc", command, "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert all(flag in proc.stdout for flag in self.FLAGS[command])


class TestStartup:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        code = ("import sys, zebraperc.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'numpy') or m.startswith('multiprocessing') "
                "or m == 'zebraperc.kernel'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # typing, enum and re are not listed: an interpreter can load them before
    # any command runs (site may execute a .pth file that imports them).
    ANALYTIC_UNUSED = ("zebraperc.montecarlo", "zebraperc.tree", "zebraperc.rng",
                       "zebraperc.kernel", "zebraperc.verify", "dataclasses", "inspect",
                       "fractions", "decimal")

    @pytest.mark.parametrize("argv", [
        ["critical", "--mode", "standard", "--k", "3"],
        ["eval", "--k", "3", "--p", "0.3", "--method", "dp"],
        ["sweep", "--k", "3", "--methods", "fixed-point,relation", "--steps", "3"],
    ])
    def test_analytic_command_loads_only_the_analytic_layers(self, argv):
        loaded = self.loaded_modules(argv)
        assert "zebraperc.analytic" in loaded
        assert sorted(loaded.intersection(self.ANALYTIC_UNUSED)) == []

    @pytest.mark.parametrize("argv", [
        ["critical", "--mode", "zebra-mc", "--k", "3", "--depth", "8", "--trials", "100"],
        ["eval", "--k", "3", "--p", "0.4", "--method", "mc", "--event", "zebra-count",
         "--depth", "4", "--trials", "100"],
    ])
    def test_mc_command_leaves_the_tree_unloaded(self, argv):
        loaded = self.loaded_modules(argv)
        assert "zebraperc.kernel" in loaded
        assert "zebraperc.tree" not in loaded

    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "2", "--p", "0.3", "--method", "brute-force", "--event", "zebra",
         "--depth", "2"],
        ["sweep", "--k", "2", "--methods", "brute-force,dp", "--event", "open", "--depth", "2",
         "--steps", "3"],
        ["verify", "--suite", "oracle"],
        ["transform-demo", "--k", "2", "--input", str(DATA / "zebra-ray.sigma")],
    ])
    def test_exhaustive_command_leaves_the_sampling_layers_unloaded(self, argv):
        loaded = self.loaded_modules(argv)
        assert "zebraperc.tree" in loaded
        assert sorted(loaded.intersection({"zebraperc.montecarlo", "zebraperc.kernel"})) == []

    def test_forked_command_loads_no_process_pool(self):
        loaded = self.loaded_modules(["critical", "--mode", "zebra-mc", "--k", "3", "--depth",
                                      "8", "--trials", "100"], ZEBRA_PERC_THREADS="2")
        assert "zebraperc.kernel" in loaded
        assert sorted(m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")) == []

    @staticmethod
    def loaded_modules(argv, **env) -> set:
        """The modules loaded once the command has run in a fresh interpreter."""
        code = ("import json, runpy, sys\n"
                f"sys.argv = ['zebraperc', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('zebraperc', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(json.dumps(sorted(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(**env))
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))


class TestPins:
    """Every command line of tests/pins.py prints its committed stdout at 1 and 2 threads."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", [name for name, _ in PINS if name not in SIDE_BY_SIDE])
    def test_in_process(self, capsys, monkeypatch, name, threads):
        monkeypatch.setenv("ZEBRA_PERC_THREADS", threads)
        monkeypatch.chdir(ROOT)  # the transform-demo pin reads its fixture by relative path
        code, out, _ = run_cli(capsys, ARGV[name])
        assert code == 0
        assert out == (DATA / name).read_text()

    @pytest.mark.parametrize("name", SIDE_BY_SIDE)
    def test_side_by_side(self, name):
        # both runs at once: a 2-core machine has room for them side by side
        procs = [subprocess.Popen([sys.executable, "-m", "zebraperc", *ARGV[name]],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=child_env(ZEBRA_PERC_THREADS=threads))
                 for threads in ("1", "2")]
        for proc in procs:
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            assert out == (DATA / name).read_bytes()

    def test_every_committed_output_is_pinned_once(self):
        names = sorted(name for name, _ in PINS)
        assert names == sorted(path.name for path in DATA.glob("*.out"))
        others = [path.name for path in DATA.iterdir() if path.suffix != ".out"]
        assert others == ["zebra-ray.sigma"]


class TestThreadEnvironment:
    def test_forked_sweep_to_a_pipe_is_pinned(self):
        # stdout is a pipe, so the parent's stdout is block-buffered when it forks
        name = "sweep-k3-full-cayley-open-depth6-seed7.out"
        proc = subprocess.run([sys.executable, "-m", "zebraperc", *ARGV[name]],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env(ZEBRA_PERC_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / name).read_bytes()

    @pytest.mark.parametrize("raw,workers", [(None, 1), ("0", 0), ("1", 1), ("3", 3)])
    def test_thread_env_passes_the_count_on(self, monkeypatch, raw, workers):
        if raw is None:
            monkeypatch.delenv("ZEBRA_PERC_THREADS", raising=False)
        else:
            monkeypatch.setenv("ZEBRA_PERC_THREADS", raw)
        assert cli._workers_from_env() == workers

    @pytest.mark.parametrize("raw,message", [("many", "got 'many'"), ("-1", "got -1")])
    def test_bad_thread_env_message(self, monkeypatch, raw, message):
        monkeypatch.setenv("ZEBRA_PERC_THREADS", raw)
        with pytest.raises(cli.ConfigError, match="ZEBRA_PERC_THREADS: integer >= 0 required, "
                                                  + message):
            cli._workers_from_env()

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEBRA_PERC_THREADS", "many")
        code, _, err = run_cli(capsys, ["eval", "--k", "2", "--p", "0.5", "--method",
                                        "mc", "--event", "zebra", "--depth", "2",
                                        "--trials", "10", "--seed", "0"])
        assert code == 2
        assert "ZEBRA_PERC_THREADS" in err
        # read before the first row, even when that row is not an mc row
        code, out, _ = run_cli(capsys, ["sweep", "--k", "2", "--methods", "dp,mc", "--depth",
                                        "2", "--trials", "10", "--steps", "2"])
        assert (code, out) == (2, "")
