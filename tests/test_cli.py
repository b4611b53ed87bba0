import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trunctail import Burr, replication_seed

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "trunctail", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x\n8\n4\n2\n1\n")
    return path


class TestEstimateCommand:
    def test_forced_k_hand_value(self, data_file):
        proc = run_cli("estimate", "--input", str(data_file), "--k", "2")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["h"] == pytest.approx(math.log(2) / 2, abs=1e-6)
        assert doc["k_hat"] == 2
        assert set(doc) == {
            "n", "k_hat", "h", "alpha_hat", "se", "ci_lo", "ci_hi",
            "level", "v_count", "c_statistic",
        }

    def test_missing_file(self, tmp_path):
        proc = run_cli("estimate", "--input", str(tmp_path / "nope.csv"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_bad_beta_names_the_parameter(self, data_file):
        proc = run_cli("estimate", "--input", str(data_file), "--beta", "1.5")
        assert proc.returncode == 2
        assert "beta" in proc.stderr

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n3.5\nhello\n1\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1\n-2\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("8\n\n4\n\n2\n1\n")
        proc = run_cli("estimate", "--input", str(path), "--k", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 4

    def test_thin_tail_exits_three(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("\n".join(["1000000"] + ["1"] * 9) + "\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 3
        assert "k = 1" in proc.stderr

    def test_overflowing_ratio_exits_three(self, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("1e6\n5e-324\n")
        proc = run_cli("estimate", "--input", str(path), "--k", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "X_(1)/X_(2) = 1000000.0/5e-324 overflows" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_all_equal_exits_three(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["5"] * 30) + "\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 3


class TestDiagnoseCommand:
    def test_window(self):
        proc = run_cli("diagnose", "--alpha", "1", "--rho", "-1", "--beta", "0.8", "--delta", "0.9")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["beta_window_lo"] == pytest.approx(0.5)
        assert doc["beta_window_hi"] == 1.0

    def test_b_fails(self):
        proc = run_cli("diagnose", "--alpha", "2", "--rho", "-1", "--beta", "0.5", "--delta", "0.6")
        assert proc.returncode == 0  # a failing condition is data, not an error
        assert json.loads(proc.stdout)["b_holds"] == "fails"

    def test_positive_rho_rejected(self):
        proc = run_cli("diagnose", "--alpha", "1", "--rho", "0.1", "--beta", "0.5", "--delta", "0.6")
        assert proc.returncode == 2
        assert "rho" in proc.stderr

    @pytest.mark.parametrize("flag", ["--alpha", "--delta"])
    def test_infinite_exponent_rejected(self, flag):
        args = {"--alpha": "1", "--rho": "-1", "--beta": "0.5", "--delta": "0.6", flag: "inf"}
        proc = run_cli("diagnose", *[x for pair in args.items() for x in pair])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{flag[2:]} must be positive and finite, got inf" in proc.stderr


class TestSimulateCommand:
    ARGS = (
        "simulate",
        "--tail", "burr:tau=1,lambda=2",
        "--light", "zero",
        "--trunc", "A=1,delta=0.45",
        "--n", "500",
        "--seed", "9",
    )

    def test_zero_light_respects_threshold(self):
        proc = run_cli(*self.ARGS)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 500
        assert max(values) <= 500**0.45

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*self.ARGS, "--output", str(out1))
        run_cli(*self.ARGS, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_and_flag_precedence(self):
        by_env = run_cli(*self.ARGS[:-2], env_extra={"TRUNCTAIL_SEED": "9"})
        assert by_env.stdout == run_cli(*self.ARGS).stdout
        flag_wins = run_cli(*self.ARGS, env_extra={"TRUNCTAIL_SEED": "1234"})
        assert flag_wins.stdout == run_cli(*self.ARGS).stdout

    def test_bad_env_seed(self):
        proc = run_cli(*self.ARGS[:-2], env_extra={"TRUNCTAIL_SEED": "abc"})
        assert proc.returncode == 2
        assert "TRUNCTAIL_SEED" in proc.stderr

    def test_truncated_fraction_binomial(self):
        proc = run_cli(
            "simulate",
            "--tail", "burr:tau=1,lambda=2",
            "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.3",
            "--n", "100000",
            "--seed", "3",
        )
        values = np.array([float(v) for v in proc.stdout.strip().split("\n")[1:]])
        m = 100000**0.3
        p = Burr(tau=1, lam=2).survival(m)
        frac = np.mean(values >= m)
        assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / 100000)

    def test_grammar_error_exits_two(self):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2,bogus=1",
            "--light", "zero", "--trunc", "A=1,delta=0.5", "--n", "10",
        )
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_overflowing_light_rate_exits_two(self):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2", "--light", "exp:rate=1e-320",
            "--trunc", "A=1,delta=0.5", "--n", "10",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "rate must be" in proc.stderr
        assert "Warning" not in proc.stderr


class TestExperimentCommand:
    @staticmethod
    def spec_doc(**kw):
        doc = {
            "tail": "burr:tau=1,lambda=2",
            "light": "exp:rate=1",
            "trunc": "A=1,delta=0.45",
            "beta": 0.8,
            "gamma": 0.5,
            "level": 0.95,
            "n_list": [4000],
            "replications": 3,
            "base_seed": 77,
        }
        doc.update(kw)
        return doc

    def write_spec(self, tmp_path, **kw):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.spec_doc(**kw)))
        return path

    def test_writes_three_artifacts(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "run"
        proc = run_cli("experiment", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        agg = json.loads(proc.stdout)
        assert agg == json.loads((tmp_path / "run_aggregate.json").read_text())
        reps = (tmp_path / "run_replications.csv").read_text().strip().split("\n")
        assert reps[0] == "n,index,k_hat,h,z,z_plugin,covers,failed"
        assert len(reps) == 4
        qq = (tmp_path / "run_qq.csv").read_text().strip().split("\n")
        assert qq[0] == "n,theoretical_quantile,empirical_quantile"

    def test_single_replication_composes(self, tmp_path):
        # experiment with R = 1 must equal simulate piped into estimate
        n, base = 4000, 77
        spec = self.write_spec(tmp_path, replications=1)
        out = tmp_path / "one"
        run_cli("experiment", "--spec", str(spec), "--out", str(out))
        row = (tmp_path / "one_replications.csv").read_text().strip().split("\n")[1].split(",")

        seed = replication_seed(base, n, 0)
        sample_file = tmp_path / "sample.csv"
        run_cli(
            "simulate", "--tail", "burr:tau=1,lambda=2", "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.45", "--n", str(n), "--seed", str(seed),
            "--output", str(sample_file),
        )
        est = json.loads(
            run_cli("estimate", "--input", str(sample_file), "--beta", "0.8", "--gamma", "0.5").stdout
        )
        assert int(row[2]) == est["k_hat"]
        assert float(row[3]) == pytest.approx(est["h"], rel=1e-12)

    def test_threads_do_not_change_output(self, tmp_path):
        spec = self.write_spec(tmp_path, replications=12)
        one = run_cli("experiment", "--spec", str(spec), "--threads", "1")
        many = run_cli("experiment", "--spec", str(spec), "--threads", "8")
        assert one.stdout == many.stdout

    @pytest.mark.parametrize("threads", ["-4", "0"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        spec = self.write_spec(tmp_path)
        proc = run_cli("experiment", "--spec", str(spec), "--threads", threads)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"--threads must be >= 1, got {threads}" in proc.stderr

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "exp.json"
        doc = self.spec_doc()
        del doc["replications"]
        path.write_text(json.dumps(doc))
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "replications" in proc.stderr

    @pytest.mark.parametrize(
        "field, value",
        [("base_seed", -3), ("base_seed", True), ("n_list", [100.7]), ("replications", True)],
    )
    def test_non_integer_fields_rejected(self, tmp_path, field, value):
        spec = self.write_spec(tmp_path, **{field: value})
        proc = run_cli("experiment", "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{field} must be" in proc.stderr

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{\n  "tail": "burr:tau=1,lambda=2",\n  oops\n}\n')
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.spec_doc(extra=1)))
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "extra" in proc.stderr

    def test_experiment_wide_failure_exits_four(self, tmp_path):
        spec = self.write_spec(tmp_path, n_list=[1], replications=2)
        proc = run_cli("experiment", "--spec", str(spec))
        assert proc.returncode == 4
        assert "failed" in proc.stderr


class TestUsage:
    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_flag(self):
        assert run_cli("estimate", "--nope", "x").returncode == 2
