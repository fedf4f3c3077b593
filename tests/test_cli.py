import argparse
import json
import os
import subprocess
import sys

import pytest

import zebraperc
from zebraperc import cli
from zebraperc.analytic import NonConvergenceError
from zebraperc.cli import CSV_HEADER, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_dp_finite_depth(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--k", "2", "--p", "0.5",
                                        "--method", "dp", "--depth", "2"])
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[3] == "2" and fields[5] == "0.9375"

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
        code, _, err = run_cli(capsys, ["eval", "--k", "2", "--p", "0.9",
                                        "--method", "fixed-point", "--max-iter", "2"])
        assert code == 3
        assert "tol" in err

    def test_unsupported_order(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--k", "5", "--p", "0.5",
                                      "--method", "closed-form"])
        assert code == 4

    def test_too_large_brute_force(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--k", "3", "--p", "0.5",
                                      "--method", "brute-force", "--event", "zebra",
                                      "--depth", "3"])
        assert code == 4

    def test_mc_depth_beyond_the_samplers(self, capsys):
        code, out, err = run_cli(capsys, ["eval", "--k", "2", "--p", "1.0", "--method", "mc",
                                          "--event", "open", "--depth", "2000", "--trials", "1"])
        assert code == 4
        assert out == ""
        assert "depth 2000" in err and "Traceback" not in err

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

    def test_no_bracket(self, capsys):
        code, _, err = run_cli(capsys, ["critical", "--k", "2", "--mode", "zebra-dp"])
        assert code == 5
        assert "k=2" in err


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

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, ["sweep", "--k", "2", "--methods", "fixed-point",
                                        "--pmin", "0", "--pmax", "1", "--steps", "5",
                                        "--output", str(path)])
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 6

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

        monkeypatch.setattr(cli, "_suite_closed_form", crash)
        monkeypatch.setattr(cli, "_suite_transform", lambda: [("transform stub", True, "skipped")])
        code, out, err = run_cli(capsys, ["verify", "--suite", "all"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL closed-form: NonConvergenceError: no root after 3 iterations"
        assert any(line.startswith("PASS oracle reference 15/16:") for line in lines)
        assert "PASS transform stub: skipped" in lines
        assert lines[-1].startswith("PASS relation csv")
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert "Traceback" not in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 2
        assert "error: --suite" in err


class TestTransformDemo:
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
        from zebraperc import TreeParams
        from zebraperc.tree import EdgeState, SigmaConfig, dump_sigma, edges

        params = TreeParams(2)
        sigma = SigmaConfig(2, {e: EdgeState.OPEN for e in edges(params, 2)})
        fixture = tmp_path / "allopen.sigma"
        fixture.write_text(dump_sigma(sigma))
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
    ])
    def test_solver_settings_validated(self, capsys, tmp_path, config, field, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert f"error: {field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["critical", "--k", "3", "--mode", "zebra-dp", "--max-iter", "0"],
        ["eval", "--k", "3", "--p", "0.5", "--method", "dp", "--tol", "0"],
    ])
    def test_solver_flags_validated(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error: --max-iter:" in err or "error: --tol:" in err

    @pytest.mark.parametrize("argv,config,field", [
        (["eval", "--method", "mc", "--depth", "2"], {"p": 0.5, "event": ["x"]}, "--event"),
        (["eval", "--method", "dp"], {"p": 0.5, "format": "xml"}, "--format"),
        (["eval", "--method", "brute-force", "--depth", "2"], {"p": 0.5, "exact": "no"}, "--exact"),
        (["eval", "--method", "dp"], {"p": 0.5, "output": 7}, "--output"),
        (["transform-demo"], {"input": 0}, "--input"),
        (["transform-demo"], {"seed": "x"}, "--seed"),
        (["sweep", "--methods", "dp", "--steps", "2"], {"format": None}, "--format"),
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


class TestSurface:
    FLAGS = {
        "eval": ["--k", "--full-cayley", "--config", "--output", "--p", "--method", "--event",
                 "--depth", "--trials", "--seed", "--tol", "--max-iter", "--exact", "--format"],
        "sweep": ["--k", "--full-cayley", "--config", "--output", "--pmin", "--pmax", "--steps",
                  "--methods", "--event", "--depth", "--trials", "--seed", "--tol",
                  "--max-iter", "--exact", "--format"],
        "critical": ["--k", "--full-cayley", "--config", "--output", "--mode", "--depth",
                     "--trials", "--seed", "--tol", "--max-iter"],
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


class TestThreadEnvironment:
    def test_thread_env_does_not_change_output(self, tmp_path):
        argv = [sys.executable, "-m", "zebraperc", "sweep", "--k", "3", "--methods",
                "mc", "--event", "zebra", "--depth", "8", "--pmin", "0.2",
                "--pmax", "0.8", "--steps", "4", "--trials", "1000", "--seed", "11"]
        outputs = set()
        for threads in ("1", "2"):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=child_env(ZEBRA_PERC_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

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
