"""Tests for the lossless CSV and JSON path formats."""

import json

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

    @pytest.mark.parametrize("start", [2**63 - 2, 2**64])
    def test_written_indices_beyond_int64(self, start):
        """Indices count on past int64 as integers, and read back."""
        path = simulate_forward(MaxARParams(0.5), 3, RngState(122), start)
        rows = discrete_csv_text(path).splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == \
            [start, start + 1, start + 2]
        read_start, values = parse_discrete_csv("\n".join(["t,value", *rows]))
        assert read_start == start
        assert np.array_equal(values, path.values)


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

    @pytest.mark.parametrize("start", [1.5, -0.25, "3", None])
    def test_refuses_start_index_that_is_not_an_integer(self, discrete_path,
                                                       start):
        doc = json.loads(discrete_json_text(discrete_path))
        doc["start_index"] = start
        with pytest.raises(ValueError, match="start_index must be an integer"):
            parse_discrete_json(json.dumps(doc))

    def test_integral_start_index_loads_as_int(self, discrete_path):
        doc = json.loads(discrete_json_text(discrete_path))
        doc["start_index"] = -3.0
        back = parse_discrete_json(json.dumps(doc))
        assert back.start_index == -3 and type(back.start_index) is int


class TestContinuousCsv:
    def test_structure(self, continuous_path):
        times, values, flags = parse_continuous_csv(
            continuous_csv_text(continuous_path))
        assert flags[0] == 0 and flags[-1] == 0
        assert np.all(flags[1:-1] == 1)
        assert times[0] == 0.0 and times[-1] == 4.0
        assert np.all(np.diff(times) > 0)
        assert values[0] == continuous_path.anchor_value
        events = continuous_path.events.tolist()
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

    @pytest.mark.parametrize("text", ["time,value,is_event\n",
                                      "time,value,is_event\n0,1,0\n"])
    def test_needs_anchor_and_closing_rows(self, text):
        with pytest.raises(ValueError, match="anchor and closing rows"):
            parse_continuous_csv(text)


class TestContinuousJson:
    def test_round_trip(self, continuous_path):
        back = parse_continuous_json(continuous_json_text(continuous_path))
        assert back.a == continuous_path.a
        assert back.direction is continuous_path.direction
        assert back.window == continuous_path.window
        assert back.anchor_value == continuous_path.anchor_value
        assert back.events.tolist() == continuous_path.events.tolist()
        assert back.seed == continuous_path.seed

    def test_reversed_round_trip(self):
        path = simulate_moving_max_reversed(0.3, 2.0, RngState(123))
        back = parse_continuous_json(continuous_json_text(path))
        assert back.direction is Direction.REVERSED
        assert back.events.tolist() == path.events.tolist()

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            parse_continuous_json('{"kind": "discrete-path"}')

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5", '"continuous-path"',
                                      "null"])
    @pytest.mark.parametrize("parse", [parse_continuous_json,
                                       parse_discrete_json])
    def test_document_that_is_not_an_object_is_refused(self, parse, text):
        with pytest.raises(ValueError, match="^field 'kind': expected"):
            parse(text)

    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    def test_constant_member_with_an_event_is_refused(self, direction):
        """The parser takes CadlagPath's a = 1 rule: no events."""
        doc = {"kind": "continuous-path", "a": 1.0, "direction": direction,
               "window": [0.0, 2.0], "anchor_value": 1.5, "seed": None,
               "events": [[1.0, 2.5 if direction == "forward" else 0.5]]}
        with pytest.raises(ValueError, match="has no events"):
            parse_continuous_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("window", [0.0, 2.0, 5.0]), ("events", [[1.0]])])
    def test_pair_of_another_length_is_refused(self, field, value):
        """A window or event of three numbers was taken with the third
        dropped, and one of one number raised IndexError."""
        doc = {"kind": "continuous-path", "a": 0.5, "direction": "forward",
               "window": [0.0, 2.0], "anchor_value": 1.5, "seed": None,
               "events": [[1.0, 2.5]], field: value}
        with pytest.raises(ValueError, match="must be a pair"):
            parse_continuous_json(json.dumps(doc))

    def test_reparsed_path_validates(self, continuous_path):
        """The parsed document goes through full path validation, so a
        tampered event level is caught."""
        text = continuous_json_text(continuous_path)
        events = continuous_path.events.tolist()
        if events:
            bad = text.replace(format(events[0][1]),
                               "0.000001", 1)
            with pytest.raises(ValueError):
                parse_continuous_json(bad)


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
class TestJsonSeed:
    """Both JSON parsers read the seed field the same way."""

    def document(self, kind, discrete_path, continuous_path):
        if kind == "discrete":
            return (json.loads(discrete_json_text(discrete_path)),
                    parse_discrete_json)
        return (json.loads(continuous_json_text(continuous_path)),
                parse_continuous_json)

    @pytest.mark.parametrize("seed", [[1.5, 2.9], [1, 2.5], [0.5, 0],
                                      [-1, 0], [2**64, 0], ["1", 2],
                                      [1, None], [float("nan"), 0]])
    def test_refuses_fields_that_are_not_unsigned_64_bit_integers(
            self, kind, seed, discrete_path, continuous_path):
        doc, parse = self.document(kind, discrete_path, continuous_path)
        doc["seed"] = seed
        with pytest.raises(ValueError, match="unsigned 64-bit integers"):
            parse(json.dumps(doc))

    def test_integral_fields_load_as_int(self, kind, discrete_path,
                                         continuous_path):
        doc, parse = self.document(kind, discrete_path, continuous_path)
        doc["seed"] = [7.0, 2**64 - 1]
        assert parse(json.dumps(doc)).seed == (7, 2**64 - 1)
        assert all(type(v) is int for v in parse(json.dumps(doc)).seed)

    def test_null_loads_as_none(self, kind, discrete_path, continuous_path):
        doc, parse = self.document(kind, discrete_path, continuous_path)
        doc["seed"] = None
        assert parse(json.dumps(doc)).seed is None


DISCRETE_DOC = {"kind": "discrete-path", "a": 0.5, "direction": "forward",
                "start_index": 0, "seed": None, "values": [1.0, 2.0]}
CONTINUOUS_DOC = {"kind": "continuous-path", "a": 0.5,
                  "direction": "forward", "window": [0.0, 2.0],
                  "anchor_value": 1.5, "seed": None,
                  "events": [[1.0, 2.5]]}
PARSERS = [(DISCRETE_DOC, parse_discrete_json),
           (CONTINUOUS_DOC, parse_continuous_json)]


class TestMalformedJson:
    """Both JSON parsers refuse a malformed document with ValueError
    naming the field, never KeyError or TypeError."""

    @pytest.mark.parametrize("doc, parse", PARSERS)
    def test_missing_field_is_named(self, doc, parse):
        for field in set(doc) - {"kind", "seed"}:
            broken = {k: v for k, v in doc.items() if k != field}
            with pytest.raises(ValueError,
                               match=f"^'{field}': missing field$"):
                parse(json.dumps(broken))

    @pytest.mark.parametrize("doc, parse", PARSERS)
    @pytest.mark.parametrize("value", [None, [1.0], {}])
    def test_a_that_is_no_number_is_named(self, doc, parse, value):
        with pytest.raises(ValueError, match="in field 'a'$"):
            parse(json.dumps({**doc, "a": value}))

    @pytest.mark.parametrize("field, value", [
        ("window", [None, 2.0]), ("window", [0.0, [2.0]]),
        ("anchor_value", None), ("anchor_value", {}),
        ("events", [{}]), ("events", [[{}, 2.5]])])
    def test_continuous_field_that_holds_no_number_is_named(self, field,
                                                            value):
        with pytest.raises(ValueError, match=f"in field '{field}'$"):
            parse_continuous_json(json.dumps({**CONTINUOUS_DOC,
                                              field: value}))

    @pytest.mark.parametrize("value", [{}, [{}], [[{}, 1.0]]])
    def test_values_that_hold_no_number_are_named(self, value):
        with pytest.raises(ValueError, match="in field 'values'$"):
            parse_discrete_json(json.dumps({**DISCRETE_DOC,
                                            "values": value}))

    @pytest.mark.parametrize("doc, parse", PARSERS)
    @pytest.mark.parametrize("seed", [1, 1.5, True, "12", [1], [1, 2, 3],
                                      {"a": 1, "b": 2}])
    def test_seed_that_is_no_pair_is_named(self, doc, parse, seed):
        with pytest.raises(ValueError, match="^field 'seed': expected null"):
            parse(json.dumps({**doc, "seed": seed}))

    @pytest.mark.parametrize("doc, parse", PARSERS)
    def test_well_formed_document_parses(self, doc, parse):
        parse(json.dumps(doc))
