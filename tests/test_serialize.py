"""Tests for the lossless CSV and JSON path formats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxstab import (
    Direction,
    MaxARParams,
    RngState,
    continuous_csv_text,
    continuous_json_text,
    discrete_csv_text,
    discrete_json_text,
    format_float,
    parse_continuous_csv,
    parse_continuous_json,
    parse_discrete_csv,
    parse_discrete_json,
    simulate_forward,
    simulate_moving_max,
    simulate_moving_max_reversed,
    simulate_reversed,
)


@pytest.fixture
def discrete_path():
    return simulate_forward(MaxARParams(0.5), 200, RngState(120), start_index=-3)


@pytest.fixture
def continuous_path():
    return simulate_moving_max(0.5, 4.0, RngState(121))


class TestFormatFloat:
    def test_seventeen_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_round_trip_identity(self, x):
        assert float(format_float(x)) == x


class TestDiscreteCsv:
    def test_round_trip_bit_exact(self, discrete_path):
        text = discrete_csv_text(discrete_path)
        start, values = parse_discrete_csv(text)
        assert start == -3
        assert np.array_equal(values, discrete_path.values)

    def test_layout(self, discrete_path):
        lines = discrete_csv_text(discrete_path).splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 201
        assert lines[1].startswith("-3,")

    def test_header_required(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_discrete_csv("wrong,header\n0,1.0\n")

    def test_field_count_checked(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_discrete_csv("t,value\n0,1.0,extra\n")

    def test_bad_number_reported_with_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_discrete_csv("t,value\n0,1.0\n1,oops\n")

    @pytest.mark.parametrize("text,line", [
        ("t,value\n0,nan\n1,-3\n", 2),
        ("t,value\n0,1.5\n1,-3\n", 3),
        ("t,value\n0,1.5\n1,2\n2,inf\n", 4),
        ("t,value\n0,1.5\n1,0\n", 3),
        ("t,value\n0,1.5\n1,-inf\n", 3),
    ])
    def test_bad_values_reported_with_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: value must be "
                           "finite and positive"):
            parse_discrete_csv(text)

    @pytest.mark.parametrize("text,message", [
        ("t,value\n0,1.5\n\n1,-inf\n",
         "line 4: value must be finite and positive"),
        ("t,value\n\n0,1.5\n1,x\n", "line 4: could not convert"),
        ("\nt,value\n0,1.5\n \n\n1,0\n",
         "line 6: value must be finite and positive"),
        ("t,value\n\n0,1.5,2\n", "line 3: expected 2 comma-separated"),
    ])
    def test_blank_lines_keep_file_line_numbers(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_discrete_csv(text)

    def test_blank_lines_parse(self):
        start, values = parse_discrete_csv("t,value\n\n4,1.5\n\n5,2.5\n\n")
        assert start == 4
        assert values.tolist() == [1.5, 2.5]

    def test_bad_value_found_on_the_scan_path(self):
        """Indices beyond int64 take the row scan; values are still
        checked."""
        big = 2**63
        text = f"t,value\n{big},1.0\n{big + 1},nan\n"
        with pytest.raises(ValueError, match="^line 3: value must be"):
            parse_discrete_csv(text)

    def test_gap_in_indices_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            parse_discrete_csv("t,value\n0,1.0\n2,1.0\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_discrete_csv("t,value\n")

    def test_indices_beyond_int64(self):
        start, values = parse_discrete_csv(
            "t,value\n9223372036854775807,1.0\n9223372036854775808,2.5\n")
        assert start == 2**63 - 1
        assert values.tolist() == [1.0, 2.5]


class TestDiscreteJson:
    def test_round_trip(self, discrete_path):
        text = discrete_json_text(discrete_path)
        back = parse_discrete_json(text)
        assert np.array_equal(back.values, discrete_path.values)
        assert back.params == discrete_path.params
        assert back.start_index == discrete_path.start_index
        assert back.seed == discrete_path.seed

    def test_reversed_direction_round_trip(self):
        path = simulate_reversed(MaxARParams(0.4, Direction.REVERSED),
                                 150, RngState(122))
        back = parse_discrete_json(discrete_json_text(path))
        assert back.params.direction is Direction.REVERSED
        assert np.array_equal(back.values, path.values)

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            parse_discrete_json('{"kind": "something-else"}')


class TestContinuousCsv:
    def test_structure(self, continuous_path):
        times, values, flags = parse_continuous_csv(
            continuous_csv_text(continuous_path))
        assert flags[0] == 0 and flags[-1] == 0
        assert np.all(flags[1:-1] == 1)
        assert times[0] == 0.0 and times[-1] == 4.0
        assert np.all(np.diff(times) > 0)
        assert values[0] == continuous_path.anchor_value
        events = continuous_path.events
        assert len(times) == len(events) + 2
        for k, (tt, vv) in enumerate(events, start=1):
            assert times[k] == tt and values[k] == vv

    def test_header_required(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_continuous_csv("a,b,c\n0,1,0\n1,2,0\n")

    def test_flag_domain(self):
        with pytest.raises(ValueError, match="is_event"):
            parse_continuous_csv("time,value,is_event\n0,1,0\n1,2,7\n")

    def test_monotone_times_required(self):
        text = "time,value,is_event\n0,1,0\n2,5,1\n1,2,0\n"
        with pytest.raises(ValueError, match="increasing"):
            parse_continuous_csv(text)

    @pytest.mark.parametrize("text,message", [
        ("time,value,is_event\n0,1.5,0\nnan,-2,1\n2,inf,0\n",
         "line 3: time must be finite"),
        ("time,value,is_event\n0,1.5,0\n1,-2,1\n2,inf,0\n",
         "line 3: value must be finite and positive"),
        ("time,value,is_event\n0,1.5,0\n1,2,1\n2,inf,0\n",
         "line 4: value must be finite and positive"),
        ("time,value,is_event\n0,0,0\n2,1,0\n",
         "line 2: value must be finite and positive"),
        ("time,value,is_event\n-inf,1,0\n2,1,0\n",
         "line 2: time must be finite"),
        ("time,value,is_event\n0,1,0\n1,nan,1\n2,1,0\n",
         "line 3: value must be finite and positive"),
    ])
    def test_bad_values_reported_with_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_continuous_csv(text)

    @pytest.mark.parametrize("text,message", [
        ("time,value,is_event\n0,1.5,0\n\n1,-2,1\n2,1,0\n",
         "line 4: value must be finite and positive"),
        ("time,value,is_event\n\n0,1.5,0\n1,2,1\n\n2,inf,0\n",
         "line 6: value must be finite and positive"),
        ("\ntime,value,is_event\n0,1,0\n\nnan,2,1\n2,1,0\n",
         "line 5: time must be finite"),
        ("time,value,is_event\n0,1,0\n\n1,2,q\n2,1,0\n",
         "line 4: invalid literal"),
    ])
    def test_blank_lines_keep_file_line_numbers(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_continuous_csv(text)

    def test_end_markers_required(self):
        text = "time,value,is_event\n0,1,0\n1,2,1\n"
        with pytest.raises(ValueError, match="anchor"):
            parse_continuous_csv(text)


class TestContinuousJson:
    def test_round_trip(self, continuous_path):
        back = parse_continuous_json(continuous_json_text(continuous_path))
        assert back.a == continuous_path.a
        assert back.direction is continuous_path.direction
        assert back.window == continuous_path.window
        assert back.anchor_value == continuous_path.anchor_value
        assert back.events == continuous_path.events
        assert back.seed == continuous_path.seed

    def test_reversed_round_trip(self):
        path = simulate_moving_max_reversed(0.3, 2.0, RngState(123))
        back = parse_continuous_json(continuous_json_text(path))
        assert back.direction is Direction.REVERSED
        assert back.events == path.events

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            parse_continuous_json('{"kind": "discrete-path"}')

    def test_reparsed_path_validates(self, continuous_path):
        """The parsed document goes through full path validation, so a
        tampered event level is caught."""
        text = continuous_json_text(continuous_path)
        if continuous_path.events:
            bad = text.replace(format(continuous_path.events[0][1]),
                               "0.000001", 1)
            with pytest.raises(ValueError):
                parse_continuous_json(bad)
