"""End-to-end tests for the command-line interface.

Error-path assertions check both the exit code and the message channel:
usage problems exit 2 on stderr, unreadable files exit 1, data that fits
no member of the family exits 3, and a failed verification battery
exits 4.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import maxstab
from maxstab import (
    ConditionalQuery,
    Direction,
    EmpiricalReport,
    RngState,
    conditional_cdf,
    format_float,
    parse_continuous_csv,
    parse_continuous_json,
    parse_discrete_csv,
    parse_discrete_json,
)
from maxstab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_fresh(code, *args):
    """Run python code in a fresh interpreter that imports this maxstab."""
    src = str(Path(maxstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def write_query(tmp_path, doc, name="query.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestKernelCdf:
    def test_forward_reference(self, runner):
        result = runner.invoke(main, ["kernel-cdf", "--a", "0.5",
                                      "--x", "1", "--y", "1"])
        assert result.exit_code == 0
        assert result.output == "0.606530659712633\n"

    def test_reversed_reference(self, runner):
        result = runner.invoke(main, ["kernel-cdf", "--a", "0.5",
                                      "--direction", "reversed",
                                      "--x", "1", "--y", "1"])
        assert result.exit_code == 0
        assert result.output == "0.303265329856317\n"

    def test_level_below_support_prints_zero(self, runner):
        result = runner.invoke(main, ["kernel-cdf", "--a", "0.5",
                                      "--x", "2", "--y", "0.5"])
        assert result.exit_code == 0
        assert result.output == "0\n"

    def test_bad_ratio_is_usage_error(self, runner):
        result = runner.invoke(main, ["kernel-cdf", "--a", "1.5",
                                      "--x", "1", "--y", "1"])
        assert result.exit_code == 2
        assert "a must lie in [0, 1]" in result.stderr

    def test_nonpositive_level_is_usage_error(self, runner):
        result = runner.invoke(main, ["kernel-cdf", "--a", "0.5",
                                      "--x", "1", "--y", "-2"])
        assert result.exit_code == 2


class TestSimulateDiscrete:
    def test_csv_output(self, runner, tmp_path):
        out = str(tmp_path / "path.csv")
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                      "--n", "1000", "--seed", "7",
                                      "--out", out])
        assert result.exit_code == 0
        assert result.output == ("simulate-discrete n=1000 a=0.5 "
                                 f"direction=forward seed=7 -> {out}\n")
        start, values = parse_discrete_csv((tmp_path / "path.csv").read_text())
        assert start == 0
        assert values.shape == (1000,)
        assert np.all(values > 0)
        ratios = values[1:] / values[:-1]
        assert ratios.min() >= 0.5 - 1e-12

    def test_repeat_runs_are_byte_identical(self, runner, tmp_path):
        args = ["simulate-discrete", "--a", "0.3", "--n", "500",
                "--seed", "42", "--out", str(tmp_path / "p.csv")]
        first = runner.invoke(main, args)
        blob1 = (tmp_path / "p.csv").read_bytes()
        second = runner.invoke(main, args)
        blob2 = (tmp_path / "p.csv").read_bytes()
        assert first.exit_code == 0 and second.exit_code == 0
        assert blob1 == blob2
        assert first.output == second.output

    def test_env_seed_fallback(self, runner, tmp_path):
        out_env = str(tmp_path / "env.csv")
        out_flag = str(tmp_path / "flag.csv")
        r1 = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                  "--n", "200", "--out", out_env],
                           env={"MAXSTAB_SEED": "7"})
        r2 = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                  "--n", "200", "--seed", "7",
                                  "--out", out_flag])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (tmp_path / "env.csv").read_bytes() == \
            (tmp_path / "flag.csv").read_bytes()

    def test_json_output_round_trips(self, runner, tmp_path):
        out = tmp_path / "path.json"
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                      "--n", "300", "--seed", "9",
                                      "--out", str(out)])
        assert result.exit_code == 0
        path = parse_discrete_json(out.read_text())
        assert path.params.a == 0.5
        assert path.params.direction is Direction.FORWARD
        assert path.seed == (9, 0)
        assert path.values.shape == (300,)

    def test_reversed_direction(self, runner, tmp_path):
        out = tmp_path / "rev.json"
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.6",
                                      "--direction", "reversed",
                                      "--n", "300", "--seed", "4",
                                      "--out", str(out)])
        assert result.exit_code == 0
        path = parse_discrete_json(out.read_text())
        assert path.params.direction is Direction.REVERSED
        ratios = path.values[1:] / path.values[:-1]
        assert ratios.max() <= 1.0 / 0.6 + 1e-12

    def test_format_override(self, runner, tmp_path):
        out = tmp_path / "path.txt"
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                      "--n", "50", "--out", str(out),
                                      "--format", "csv"])
        assert result.exit_code == 0
        assert out.read_text().startswith("t,value\n")

    def test_unknown_extension_needs_format(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                      "--n", "50",
                                      "--out", str(tmp_path / "path.txt")])
        assert result.exit_code == 2
        assert "--format" in result.stderr

    def test_bad_ratio_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate-discrete", "--a", "1.5",
                                      "--n", "50",
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == 2
        assert "a must lie in [0, 1]" in result.stderr

    def test_nonpositive_count_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate-discrete", "--a", "0.5",
                                      "--n", "0",
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == 2


class TestSimulateContinuous:
    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "cpath.json"
        result = runner.invoke(main, ["simulate-continuous", "--a", "0.5",
                                      "--window", "4", "--seed", "3",
                                      "--out", str(out)])
        assert result.exit_code == 0
        path = parse_continuous_json(out.read_text())
        assert path.a == 0.5
        assert path.direction is Direction.FORWARD
        assert path.window == (0.0, 4.0)
        assert path.seed == (3, 0)
        assert result.output == (f"simulate-continuous "
                                 f"events={len(path.events)} a=0.5 "
                                 f"direction=forward window=4 seed=3 "
                                 f"-> {out}\n")

    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "cpath.csv"
        result = runner.invoke(main, ["simulate-continuous", "--a", "0.5",
                                      "--window", "2", "--seed", "8",
                                      "--out", str(out)])
        assert result.exit_code == 0
        times, values, flags = parse_continuous_csv(out.read_text())
        assert times[0] == 0.0 and times[-1] == 2.0
        assert np.all(np.diff(times) > 0)
        assert flags[0] == 0 and flags[-1] == 0
        assert np.all(values > 0)

    def test_reversed_direction(self, runner, tmp_path):
        out = tmp_path / "rev.json"
        result = runner.invoke(main, ["simulate-continuous", "--a", "0.4",
                                      "--direction", "reversed",
                                      "--window", "2", "--seed", "5",
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert parse_continuous_json(out.read_text()).direction \
            is Direction.REVERSED

    def test_zero_ratio_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate-continuous", "--a", "0",
                                      "--window", "2",
                                      "--out", str(tmp_path / "c.json")])
        assert result.exit_code == 2
        assert "discrete" in result.stderr

    def test_repeat_runs_are_byte_identical(self, runner, tmp_path):
        args = ["simulate-continuous", "--a", "0.7", "--window", "3",
                "--seed", "11", "--out", str(tmp_path / "c.csv")]
        runner.invoke(main, args)
        blob1 = (tmp_path / "c.csv").read_bytes()
        runner.invoke(main, args)
        assert (tmp_path / "c.csv").read_bytes() == blob1


class TestConditional:
    def test_matches_kernel_cdf(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 0
        assert result.output == "0.606530659712633\n"

    def test_multi_target_matches_library(self, runner, tmp_path):
        doc = {"conditioning": [0, 1.2],
               "targets": [[-2, 0.8], [3, 1.5]], "a": 0.4}
        query = write_query(tmp_path, doc)
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 0
        exact = conditional_cdf(
            ConditionalQuery((0, 1.2), ((-2, 0.8), (3, 1.5))), 0.4)
        assert float(result.output) == pytest.approx(exact, rel=1e-14)

    def test_mc_flag_adds_estimate(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query,
                                      "--mc", "20000", "--seed", "2"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 2
        exact = float(lines[0])
        tag, est, word, stderr = lines[1].split()
        assert tag == "mc" and word == "stderr"
        assert abs(float(est) - exact) < 5 * float(stderr)
        repeat = runner.invoke(main, ["conditional", "--query", query,
                                      "--mc", "20000", "--seed", "2"])
        assert repeat.output == result.output

    def test_invalid_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["conditional", "--query", str(path)])
        assert result.exit_code == 2
        assert "query is not valid JSON" in result.stderr

    def test_missing_field_exits_2(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]]})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 2
        assert "query field 'a': missing" in result.stderr

    def test_bad_target_entry_exits_2(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0, 9]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 2
        assert "targets[0]" in result.stderr

    def test_out_of_range_tol_exits_2(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]], "a": 0.5,
                                       "tol": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 2
        assert "tol" in result.stderr

    def test_missing_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["conditional", "--query",
                                      str(tmp_path / "absent.json")])
        assert result.exit_code == 1
        assert "cannot read" in result.stderr


class TestIdentify:
    def simulate(self, runner, tmp_path, a, direction, seed, n=20000):
        out = str(tmp_path / "input.csv")
        result = runner.invoke(main, ["simulate-discrete", "--a", str(a),
                                      "--direction", direction,
                                      "--n", str(n), "--seed", str(seed),
                                      "--out", out])
        assert result.exit_code == 0
        return out

    def test_forward_round_trip(self, runner, tmp_path):
        path = self.simulate(runner, tmp_path, 0.3, "forward", 11)
        result = runner.invoke(main, ["identify", "--in", path])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["direction"] == "forward"
        assert doc["a"] == pytest.approx(0.3, abs=1e-9)
        assert doc["atom_location"] == pytest.approx(0.3, abs=1e-9)
        assert doc["atom_mass"] == pytest.approx(0.3, abs=0.05)
        assert doc["n_used"] == 20000
        assert isinstance(doc["notes"], str)

    def test_reversed_round_trip(self, runner, tmp_path):
        path = self.simulate(runner, tmp_path, 0.7, "reversed", 12)
        result = runner.invoke(main, ["identify", "--in", path])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["direction"] == "reversed"
        assert doc["a"] == pytest.approx(0.7, abs=1e-6)

    def test_independent_data(self, runner, tmp_path):
        path = self.simulate(runner, tmp_path, 0.0, "forward", 13)
        result = runner.invoke(main, ["identify", "--in", path])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["a"] == 0.0
        assert doc["atom_location"] is None

    def test_foreign_data_exits_3(self, runner, tmp_path):
        rng = np.random.default_rng(77)
        steps = rng.normal(size=3000)
        latent = np.empty(3000)
        latent[0] = steps[0]
        for i in range(1, 3000):
            latent[i] = 0.8 * latent[i - 1] + steps[i]
        values = np.exp(latent)
        lines = ["t,value"] + [f"{i},{format_float(v)}"
                               for i, v in enumerate(values)]
        path = tmp_path / "foreign.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 3
        assert "Error" in result.stderr

    def test_malformed_csv_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("t,value\n0,1.0\n5,2.0\n")
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 2
        assert "broken.csv" in result.stderr

    def test_missing_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["identify", "--in",
                                      str(tmp_path / "absent.csv")])
        assert result.exit_code == 1
        assert "cannot read" in result.stderr


class TestVerify:
    def test_discrete_battery_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--a", "0.5",
                                      "--n", "2000", "--seed", "5",
                                      "--out", str(out)])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-1] == f"ok {len(lines) - 1} checks"
        for line in lines[:-1]:
            assert line.split()[0] in ("PASS", "SKIP")
        doc = json.loads(out.read_text())
        assert set(doc) == {"checks", "seeds", "params"}
        for check in doc["checks"]:
            assert set(check) == {"name", "value", "threshold", "pass",
                                  "provenance"}
            assert check["pass"] is not False
        names = [c["name"] for c in doc["checks"]]
        assert any(n.startswith("stationary_marginal") for n in names)
        assert "chapman_kolmogorov_quadrature" in names

    def test_continuous_battery_passes(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--a", "0.5", "--continuous",
                                      "--epsilon", "0.25", "--n", "1500",
                                      "--seed", "6"])
        assert result.exit_code == 0
        assert "holding_probability" in result.output
        assert result.output.splitlines()[-1].startswith("ok ")

    def test_failed_battery_exits_4(self, runner, monkeypatch):
        report = EmpiricalReport()
        report.add("stationary_marginal", 1.0, 0.5, False, "synthetic")
        monkeypatch.setattr("maxstab.cli.run_battery",
                            lambda *args, **kwargs: report)
        result = CliRunner().invoke(main, ["verify", "--a", "0.5"])
        assert result.exit_code == 4
        assert "FAIL stationary_marginal" in result.output
        assert "failed 1 of 1 checks" in result.output

    def test_bad_ratio_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--a", "-0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_count_exits_2(self, runner, n):
        result = runner.invoke(main, ["verify", "--a", "0.4", "--n", n])
        assert result.exit_code == 2
        assert "transitions must be positive" in result.stderr

    @pytest.mark.parametrize("n", ["100", "149"])
    def test_count_below_kernel_bins_exits_2(self, runner, n):
        """The kernel checks split the transitions into five bins of at
        least 30; a smaller count is refused before the battery runs."""
        result = runner.invoke(main, ["verify", "--a", "0.4", "--n", n])
        assert result.exit_code == 2
        assert "transitions must be at least 150" in result.stderr

    @pytest.mark.parametrize("epsilon", ["0", "-0.5", "inf"])
    def test_bad_epsilon_exits_2(self, runner, epsilon):
        result = runner.invoke(main, ["verify", "--a", "0.5", "--continuous",
                                      "--epsilon", epsilon])
        assert result.exit_code == 2
        assert "epsilon must be finite and positive" in result.stderr

    def test_tiny_ratio_passes_quietly(self):
        """Near a = 0 the Chapman-Kolmogorov check must neither fail nor
        warn: in x the kernel's kink sits at y/a, far out in the tail."""
        result = run_fresh("from maxstab.cli import main; main()", "verify",
                           "--a", "1e-6", "--n", "2000", "--seed", "23")
        assert result.returncode == 0, result.stdout
        assert result.stderr == ""
        assert "PASS chapman_kolmogorov_quadrature" in result.stdout

    def test_report_is_deterministic(self, runner, tmp_path):
        args = ["verify", "--a", "0.3", "--n", "1000", "--seed", "9",
                "--out", str(tmp_path / "r.json")]
        first = runner.invoke(main, args)
        blob1 = (tmp_path / "r.json").read_bytes()
        second = runner.invoke(main, args)
        assert first.exit_code == 0 and second.exit_code == 0
        assert (tmp_path / "r.json").read_bytes() == blob1
        assert first.output == second.output


def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency: the CLI must start without it."""
    result = run_fresh("import sys, maxstab.cli; print(sorted(m for m in "
                       "sys.modules if m.split('.')[0] == 'scipy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
