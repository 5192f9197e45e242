"""End-to-end tests for the command-line interface.

Error-path assertions check both the exit code and the message channel:
usage problems exit 2 on stderr, unreadable files exit 1, data that fits
no member of the family exits 3, and a failed verification battery
exits 4.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import maxstab
from maxstab import (
    ConditionalQuery,
    Direction,
    EmpiricalReport,
    MaxARParams,
    RngState,
    conditional_cdf,
    discrete_csv_text,
    discrete_json_text,
    format_float,
    parse_continuous_csv,
    parse_continuous_json,
    parse_discrete_csv,
    parse_discrete_json,
    simulate_forward,
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


# kernel-cdf's stdout over a grid: a, direction, x, y, the printed value,
# and "warns" where a reversed a in {0, 1} is canonicalized to forward.
# The pairs hit each kernel's zero or one, its continuous branch, its
# atom (forward y = 2a at x = 2, reversed x = 1/a at y = 1) and the float
# just below the atom.
KERNEL_TABLE = """
0 forward 1 1 0.367879441171442
0 forward 2 1.5 0.513417119032592
0 forward 4 0.1 4.53999297624849e-05
0 forward 20 1 0.367879441171442
0 forward 0.5 3 0.716531310573789
0 forward 0.001 1000 0.999000499833375
0 reversed 1 1 0.367879441171442 warns
0 reversed 2 1.5 0.513417119032592 warns
0 reversed 4 0.1 4.53999297624849e-05 warns
0 reversed 20 1 0.367879441171442 warns
0 reversed 0.5 3 0.716531310573789 warns
0 reversed 0.001 1000 0.999000499833375 warns
0.05 forward 1 1 0.386741023454501
0.05 forward 2 1.5 0.530819450562014
0.05 forward 4 0.1 0
0.05 forward 20 1 0.386741023454501
0.05 forward 0.5 3 0.728573572511393
0.05 forward 0.001 1000 0.999050451107138
0.05 forward 2 0.1 7.48518298877007e-05
0.05 forward 2 0.09999999999999999 0
0.05 reversed 1 1 0.367403972281776
0.05 reversed 2 1.5 0.595734631009403
0.05 reversed 4 0.1 1
0.05 reversed 20 1 1
0.05 reversed 0.5 3 0.130729284083625
0.05 reversed 0.001 1000 0
0.05 reversed 20.0 1 1
0.05 reversed 19.999999999999996 1 0.95
0.5 forward 1 1 0.606530659712633
0.5 forward 2 1.5 0.716531310573789
0.5 forward 4 0.1 0
0.5 forward 20 1 0
0.5 forward 0.5 3 0.846481724890614
0.5 forward 0.001 1000 0.999500124979169
0.5 forward 2 1.0 0.606530659712633
0.5 forward 2 0.9999999999999999 0
0.5 reversed 1 1 0.303265329856317
0.5 reversed 2 1.5 0.423240862445307
0.5 reversed 4 0.1 1
0.5 reversed 20 1 1
0.5 reversed 0.5 3 0.079939873039847
0.5 reversed 0.001 1000 0
0.5 reversed 2.0 1 1
0.5 reversed 1.9999999999999998 1 0.5
0.95 forward 1 1 0.951229424500714
0.95 forward 2 1.5 0
0.95 forward 4 0.1 0
0.95 forward 20 1 0
0.95 forward 0.5 3 0.983471453821617
0.95 forward 0.001 1000 0.999950001249979
0.95 forward 2 1.9 0.974027453420301
0.95 forward 2 1.8999999999999997 0
0.95 reversed 1 1 0.0475614712250357
0.95 reversed 2 1.5 1
0.95 reversed 4 0.1 1
0.95 reversed 20 1 1
0.95 reversed 0.5 3 0.00928768818570458
0.95 reversed 0.001 1000 0
0.95 reversed 1.0526315789473684 1 1
0.95 reversed 1.0526315789473681 1 0.05
1 forward 1 1 1
1 forward 2 1.5 0
1 forward 4 0.1 0
1 forward 20 1 0
1 forward 0.5 3 1
1 forward 0.001 1000 1
1 forward 2 2.0 1
1 forward 2 1.9999999999999998 0
1 reversed 1 1 1 warns
1 reversed 2 1.5 0 warns
1 reversed 4 0.1 0 warns
1 reversed 20 1 0 warns
1 reversed 0.5 3 1 warns
1 reversed 0.001 1000 1 warns
"""


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

    @pytest.mark.parametrize("row", KERNEL_TABLE.strip().splitlines())
    def test_table(self, runner, row):
        a, direction, x, y, printed, *warns = row.split()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["kernel-cdf", "--a", a,
                                          "--direction", direction,
                                          "--x", x, "--y", y])
        assert result.exit_code == 0, result.output
        assert result.stdout == printed + "\n"
        assert [str(w.message) for w in caught] == [
            "reversed direction with a in {0, 1} equals the forward chain; "
            "canonicalizing to forward"] * len(warns)

    @pytest.mark.parametrize("code", [
        "import runpy\n"
        "runpy.run_module('maxstab.cli', run_name='__main__', alter_sys=True)",
        "import sys\nfrom maxstab.cli import main\nsys.exit(main())"],
        ids=["python-m", "console-script"])
    def test_process_prints_warning_as_one_line(self, code):
        """Started as the CLI, a process prints the warning once, as one
        line naming no file, line or source text."""
        result = run_fresh(code, "kernel-cdf", "--a", "0", "--direction",
                           "reversed", "--x", "1", "--y", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0.606530659712633\n"
        assert result.stderr == (
            "UserWarning: reversed direction with a in {0, 1} equals the "
            "forward chain; canonicalizing to forward\n")


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

    def test_negative_zero_a_is_stored_as_zero(self, runner, tmp_path):
        outputs = []
        for a in ("-0", "0"):
            out = str(tmp_path / f"path{a}.json")
            result = runner.invoke(main, ["simulate-discrete", "--a", a,
                                          "--n", "20", "--seed", "7",
                                          "--out", out])
            assert result.exit_code == 0
            assert " a=0 " in result.output
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_mc_above_ten_million_exits_2(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query,
                                      "--mc", "10000001"])
        assert result.exit_code == 2
        assert "n = 10,000,001 draws is more than 10,000,000" \
            in result.stderr

    @pytest.mark.parametrize("mc", ["999", "10000001"])
    def test_refused_mc_prints_no_result(self, runner, tmp_path, mc):
        """--mc is checked before anything is printed, so a refusal leaves
        stdout empty rather than holding the exact value alone."""
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query,
                                      "--mc", mc])
        assert result.exit_code == 2
        assert result.stdout == ""

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

    @pytest.mark.parametrize("doc", [
        {"conditioning": [0.5, 1.0], "targets": [[1, 1.0]], "a": 0.5},
        {"conditioning": [0, 1.0], "targets": [[1.25, 1.0]], "a": 0.5},
        {"conditioning": ["0", 1.0], "targets": [[1, 1.0]], "a": 0.5},
    ])
    def test_index_that_is_not_an_integer_exits_2(self, runner, tmp_path,
                                                  doc):
        result = runner.invoke(main, ["conditional", "--query",
                                      write_query(tmp_path, doc)])
        assert result.exit_code == 2
        assert "indices must be integers" in result.stderr
        assert result.stdout == ""

    def test_integral_float_index_is_evaluated(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0.0, 1.0],
                                       "targets": [[1.0, 1.0]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 0
        assert result.output == "0.606530659712633\n"

    @pytest.mark.parametrize("doc,field", [
        ([[0, 1.0], [[1, 1.0]], 0.5], "query must be a JSON object"),
        ({"conditioning": [0], "targets": [[1, 1.0]], "a": 0.5},
         "query field 'conditioning'"),
        ({"conditioning": 0, "targets": [[1, 1.0]], "a": 0.5},
         "query field 'conditioning'"),
        ({"conditioning": [0, 1.0], "targets": [], "a": 0.5},
         "query field 'targets'"),
        ({"conditioning": [0, 1.0], "targets": [[1, 1.0]], "a": 1.5},
         "query field 'a'"),
        ({"conditioning": [0, 1.0], "targets": [[1, 1.0]], "a": "x"},
         "query field 'a'"),
    ])
    def test_malformed_query_exits_2(self, runner, tmp_path, doc, field):
        result = runner.invoke(main, ["conditional", "--query",
                                      write_query(tmp_path, doc)])
        assert result.exit_code == 2
        assert field in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("doc,field", [
        ({"conditioning": [0, 1.0], "targets": [[1, 1.0]], "a": None},
         "'a'"),
        ({"conditioning": [0, 1.0], "targets": [[1, 1.0]], "a": [0.5]},
         "'a'"),
        ({"conditioning": [0.5, 1.0], "targets": [[1, 1.0]], "a": 0.5},
         "'conditioning'"),
        ({"conditioning": [0, 1.0], "targets": [[1.25, 1.0]], "a": 0.5},
         "'targets'"),
        ({"conditioning": [0, 1.0], "targets": [[1, "x"]], "a": 0.5},
         "'target levels'"),
    ])
    def test_refusal_names_its_field_once(self, runner, tmp_path, doc,
                                          field):
        result = runner.invoke(main, ["conditional", "--query",
                                      write_query(tmp_path, doc)])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.count(field) == 1, result.stderr

    def test_bad_target_entry_exits_2(self, runner, tmp_path):
        query = write_query(tmp_path, {"conditioning": [0, 1.0],
                                       "targets": [[1, 1.0, 9]], "a": 0.5})
        result = runner.invoke(main, ["conditional", "--query", query])
        assert result.exit_code == 2
        assert "targets[0]" in result.stderr

    def test_tol_field_is_refused(self, runner, tmp_path):
        """The query file's tol field had no effect and is refused now,
        with a usage error that names it; the query without it runs."""
        doc = {"conditioning": [0, 1.2], "targets": [[-2, 0.8], [3, 1.5]],
               "a": 0.4}
        plain = runner.invoke(main, ["conditional", "--query",
                                     write_query(tmp_path, doc)])
        legacy = runner.invoke(main, [
            "conditional", "--query",
            write_query(tmp_path, dict(doc, tol=1e-10), "legacy.json")])
        assert plain.exit_code == 0 and plain.stderr == ""
        assert legacy.exit_code == 2 and legacy.stdout == ""
        assert "query field 'tol'" in legacy.stderr

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
    def simulate(self, runner, tmp_path, a, direction, seed, n=20000,
                 name="input.csv"):
        out = str(tmp_path / name)
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

    @pytest.mark.parametrize("a,direction", [(0.3, "forward"),
                                             (0.7, "reversed"),
                                             (0.0, "forward")])
    def test_json_input_reads_as_the_csv(self, runner, tmp_path, a,
                                         direction):
        """A path that simulate-discrete wrote as JSON identifies with
        the same stdout as the same path written as CSV."""
        stdouts = []
        for name in ("p.csv", "p.json"):
            path = self.simulate(runner, tmp_path, a, direction, 14, 3000,
                                 name)
            result = runner.invoke(main, ["identify", "--in", path])
            assert result.exit_code == 0, result.output
            stdouts.append(result.stdout)
        assert stdouts[1] == stdouts[0]
        assert json.loads(stdouts[0])["direction"] == direction

    @pytest.mark.parametrize("text,message", [
        ('{"kind": "discrete-path"}', "'start_index'"),
        ("[1, 2]", "field 'kind': expected 'discrete-path'"),
        ('{"kind": "continuous-path"}',
         "field 'kind': expected 'discrete-path'"),
        ("t,value\n0,1.0\n", "Expecting value"),
        ('{"kind": "discrete-path", "a": null, "direction": "forward", '
         '"start_index": 0, "values": [1.0, 2.0]}', "float() argument"),
    ])
    def test_malformed_json_exits_2(self, runner, tmp_path, text, message):
        path = tmp_path / "broken.json"
        path.write_text(text)
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 2
        assert f"broken.json: {message}" in result.stderr

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "discrete-path", "a": 0.5, "direction": "forward",
          "start_index": 0}, "'values': missing field"),
        ({"kind": "discrete-path", "a": None, "direction": "forward",
          "start_index": 0, "values": [1.0, 2.0]}, "in field 'a'"),
        ({"kind": "discrete-path", "a": 0.5, "direction": "forward",
          "start_index": 0, "values": [{}]}, "in field 'values'"),
        ({"kind": "discrete-path", "a": 0.5, "direction": "forward",
          "start_index": 0, "values": [1.0, 2.0], "seed": 7},
         "field 'seed': expected null or [seed, stream]"),
    ])
    def test_malformed_json_names_the_field(self, runner, tmp_path, doc,
                                            message):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 2
        assert message in result.stderr

    def test_malformed_csv_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("t,value\n0,1.0\n5,2.0\n")
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 2
        assert "broken.csv" in result.stderr

    @pytest.mark.parametrize("row", ["nan", "-3", "inf", "0"])
    def test_bad_value_exits_2_naming_the_line(self, runner, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,value\n0,1.0\n1,{row}\n2,1.5\n")
        result = runner.invoke(main, ["identify", "--in", str(path)])
        assert result.exit_code == 2
        assert "line 3: value must be finite and positive" in result.stderr
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)

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

    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    def test_subnormal_step_decay_exits_2(self, direction):
        """a**epsilon underflows to 0 here; the battery refuses it before
        drawing, not with a spurious FAIL or a ZeroDivisionError."""
        result = run_fresh("from maxstab.cli import main; main()", "verify",
                           "--a", "1e-300", "--continuous", "--epsilon",
                           "1.1", "--n", "1000", "--seed", "23",
                           "--direction", direction)
        assert result.returncode == 2, result.stdout
        assert result.stdout == ""
        assert "a**epsilon = 0.0 at a=1e-300, epsilon=1.1 is not a normal " \
            "float" in result.stderr
        assert "Traceback" not in result.stderr

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


# Runs maxstab.cli as ``python -m maxstab.cli`` does, as ``__main__``, then
# prints the names of every loaded module as the last line of stderr.
RUN_AS_MAIN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('maxstab.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sorted(sys.modules), file=sys.stderr)\n")

PACKAGE_MODULES = {"maxstab." + m for m in (
    "analysis", "cli", "conditional", "continuous", "distributions", "law",
    "maxar", "serialize", "spectral")}


class TestFreshProcessLoads:
    """A fresh process loads only the package modules its work runs, and
    no thread pool below the sizes where a draw splits."""

    def test_import_loads_no_submodule(self):
        result = run_fresh("import sys, maxstab; print(*sorted(m for m in "
                           "sys.modules if m.startswith('maxstab')))")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "maxstab\n"

    def test_dir_and_star_import_list_every_export(self):
        result = run_fresh(
            "import json, sys, maxstab\n"
            "names = dir(maxstab)\n"
            "loaded = [m for m in sys.modules if m.startswith('maxstab.')]\n"
            "from maxstab import *\n"
            "print(json.dumps([names, loaded,\n"
            "                  [n for n in maxstab.__all__\n"
            "                   if globals()[n] is not getattr(maxstab, n)]]))")
        assert result.returncode == 0, result.stderr
        names, loaded, mismatched = json.loads(result.stdout)
        assert set(maxstab.__all__) <= set(names)
        assert {"maxstab." + n for n in names} >= \
            PACKAGE_MODULES - {"maxstab.cli"}
        assert loaded == [] and mismatched == []

    def test_closed_forms_load_no_numpy(self):
        result = run_fresh(
            "import sys, maxstab\n"
            "params = maxstab.MaxARParams(0.5).reversed()\n"
            "print(maxstab.kernel_cdf(params, 1.0, 1.0),\n"
            "      maxstab.bivariate_cdf(params, 1.0, 2.0), params.direction)\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.startswith(('maxstab', 'numpy'))))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"{0.5 * math.exp(-0.5)} {math.exp(-1.0)} Direction.REVERSED",
            "maxstab maxstab.law"]

    @pytest.mark.parametrize("args,needed,unloaded", [
        (["--help"], {"click"}, PACKAGE_MODULES | {"numpy"}),
        (["kernel-cdf", "--a", "0.5", "--x", "1", "--y", "1"],
         {"maxstab.law"},
         PACKAGE_MODULES - {"maxstab.law"} | {"numpy", "json"}),
        (["simulate-discrete", "--a", "0.5", "--n", "100",
          "--out", "{tmp}/d.csv"],
         {"maxstab.maxar", "maxstab.serialize"},
         {"maxstab.analysis", "maxstab.conditional", "maxstab.spectral",
          "maxstab.continuous", "concurrent.futures"}),
        (["simulate-continuous", "--a", "0.5", "--window", "5",
          "--out", "{tmp}/c.json"],
         {"maxstab.continuous", "maxstab.serialize"},
         {"maxstab.analysis", "maxstab.conditional", "maxstab.spectral",
          "concurrent.futures"}),
        (["conditional", "--query", "{tmp}/query.json", "--mc", "1000"],
         {"maxstab.conditional", "maxstab.spectral"},
         {"maxstab.analysis", "maxstab.continuous", "numpy.ma"}),
        (["identify", "--in", "{tmp}/atom.csv"],
         {"maxstab.analysis", "maxstab.serialize"},
         {"maxstab.conditional", "maxstab.spectral", "maxstab.continuous",
          "numpy.ma", "concurrent.futures"}),
        (["identify", "--in", "{tmp}/iid.csv"],
         {"maxstab.analysis"},
         {"maxstab.conditional", "maxstab.spectral", "maxstab.continuous",
          "numpy.ma", "concurrent.futures"}),
        (["verify", "--a", "0.5", "--n", "2000"],
         {"maxstab.analysis"},
         {"maxstab.spectral", "maxstab.conditional", "maxstab.continuous",
          "numpy.ma", "numpy.polynomial", "concurrent.futures"}),
        (["verify", "--a", "0.5", "--continuous", "--n", "2000"],
         {"maxstab.analysis", "maxstab.continuous"},
         {"maxstab.spectral", "maxstab.conditional", "numpy.ma",
          "numpy.polynomial", "concurrent.futures"}),
        (["identify", "--in", "{tmp}/atom.json"],
         {"maxstab.analysis", "maxstab.serialize"},
         {"maxstab.conditional", "maxstab.spectral", "maxstab.continuous",
          "numpy.ma", "concurrent.futures"}),
    ], ids=["help", "kernel-cdf", "simulate-discrete", "simulate-continuous",
            "conditional", "identify-atom", "identify-independent", "verify",
            "verify-continuous", "identify-json"])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, args, needed,
                                                unloaded):
        # a path with a ratio atom, and one (a = 0) that identify can only
        # attribute through the independence test, each as CSV and as JSON
        for name, a in (("atom", 0.5), ("iid", 0.0)):
            path = simulate_forward(MaxARParams(a), 4000, RngState(7))
            (tmp_path / f"{name}.csv").write_text(discrete_csv_text(path))
            (tmp_path / f"{name}.json").write_text(discrete_json_text(path))
        write_query(tmp_path, {"conditioning": [0, 1.0],
                               "targets": [[1, 1.0], [3, 0.5]], "a": 0.5})
        result = run_fresh(RUN_AS_MAIN,
                           *(arg.format(tmp=tmp_path) for arg in args))
        assert result.returncode == 0, result.stderr
        loaded = set(result.stderr.splitlines()[-1].split())
        assert needed <= loaded
        assert not {m for m in loaded for name in unloaded
                    if m == name or m.startswith(name + ".")}
