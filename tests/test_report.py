"""Tests for the check-report container and its JSON schema."""

import json
import math

import pytest

from maxstab import CheckResult, EmpiricalReport


class TestEmpiricalReport:
    def test_add_and_pass_state(self):
        report = EmpiricalReport()
        report.add("alpha", 0.1, 0.5, True)
        report.add("beta", 0.2, 0.5, True, "context")
        assert report.all_passed is True
        report.add("gamma", 0.9, 0.5, False)
        assert report.all_passed is False
        assert [c.name for c in report.failures] == ["gamma"]

    def test_undecided_checks_do_not_fail(self):
        report = EmpiricalReport()
        report.add("skipped", float("nan"), float("nan"), None, "no data")
        assert report.all_passed is True
        assert report.failures == []

    def test_json_round_trip(self):
        report = EmpiricalReport(params={"a": 0.5}, seeds=[(7, 0)])
        report.add("alpha", 0.1, 0.5, True, "why")
        payload = json.loads(report.to_json())
        assert payload["params"] == {"a": 0.5}
        assert payload["seeds"] == [[7, 0]]
        entry = payload["checks"][0]
        assert entry == {"name": "alpha", "value": 0.1, "threshold": 0.5,
                         "pass": True, "provenance": "why"}
        back = EmpiricalReport.from_dict(payload)
        assert back.checks[0] == CheckResult("alpha", 0.1, 0.5, True, "why")

    def test_json_is_sorted_and_stable(self):
        report = EmpiricalReport(params={"b": 1, "a": 2})
        report.add("alpha", 0.0, 1.0, True)
        assert report.to_json() == report.to_json()
        keys = list(json.loads(report.to_json()))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("relation,passed",
                             [("<", False), ("<=", True), (">=", True)])
    def test_check_at_threshold(self, relation, passed):
        report = EmpiricalReport()
        result = report.check("edge", 0.5, 0.5, "why", relation)
        assert result == CheckResult("edge", 0.5, 0.5, passed, "why")
        assert type(result.passed) is bool and report.checks == [result]

    @pytest.mark.parametrize("relation", ["<", "<=", ">="])
    def test_check_nan_value_fails(self, relation):
        report = EmpiricalReport()
        assert report.check("nan", math.nan, 1.0, "", relation).passed is False
        assert report.failures == report.checks

    def test_check_round_trip_is_byte_identical(self):
        report = EmpiricalReport(params={"a": 0.5}, seeds=[(7, 0)])
        report.check("below", 0.1, 0.5, "strict")
        report.check("edge", 2.0, 2.0, "lower edge", ">=")
        report.check("over", 0.7, 0.5, "inclusive", "<=")
        report.check("nan", math.nan, 0.5, "")
        report.add("skipped", math.nan, math.nan, None, "not applicable")
        back = EmpiricalReport.from_dict(report.to_dict())
        assert back.to_json() == report.to_json()
