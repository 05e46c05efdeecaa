"""events.jsonl bytes: RunLog.to_jsonl against the json.dumps rule it
implements, and RunLog.parse_jsonl on good and bad lines.

The byte format is a contract: each line is
json.dumps({"stream": stream, **record_to_dict(record)}, sort_keys=True),
that is one object per line, sorted keys, ", " and ": " separators and
ASCII escapes.
"""

import dataclasses
import json
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sdnsim.harness import run_single
from sdnsim.runlog import RunLog, record_to_dict
from sdnsim.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def reference_jsonl(log: RunLog) -> str:
    lines = [json.dumps({"stream": stream, **record_to_dict(record)},
                        sort_keys=True)
             for stream in RunLog.STREAMS for record in getattr(log, stream)]
    return "\n".join(lines) + ("\n" if lines else "")


class Mode(Enum):
    STRONG = "strong"
    ONE = 1
    HALF = 0.5
    PAIR = ("S1", "S2")


# Field names: identifiers for dataclasses; SimpleNamespace records may
# also carry names with quotes, braces and non-ASCII, and a field named
# like the stream tag.
IDENTIFIERS = ("a", "b", "pair", "path", "seq", "zeta", "stream", "ünï")
NAMES = IDENTIFIERS + ('q"uote', "{brace}", "back\\slash", "", "%s")

strings = st.text() | st.sampled_from(
    ("", "S1", "ä€😀", '"', "\\", "\n\t\x00\x1f\x7f", "{0}", "%s"))
ints = st.integers() | st.sampled_from(
    (0, -1, 1, 2**53 + 1, -(2**63), 10**40))
scalars = (st.none() | st.booleans() | ints | strings
           | st.floats(allow_nan=True, allow_infinity=True))
# (1, 2), (1, 2.0) and (True, 2) are equal with one hash and differ in
# JSON; each log draws from this pool so that they meet in one call.
MIXED_TUPLES = ((1, 2), (1, 2.0), (True, 2), (1, True), ("S1", "S2"),
                ("S1", 2), ("S1",), ())
nested = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(strings, inner, max_size=2)),
    max_leaves=6)
values = (nested | st.sampled_from(MIXED_TUPLES) | st.sampled_from(Mode)
          | st.lists(strings, max_size=4).map(tuple))


@st.composite
def records(draw):
    dataclass_record = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(
        IDENTIFIERS if dataclass_record else NAMES), unique=True,
        max_size=5))
    fields = {name: draw(values) for name in names}
    if dataclass_record:
        return dataclasses.make_dataclass("Record", names)(**fields)
    return SimpleNamespace(**fields)


@st.composite
def logs(draw):
    return RunLog(**{stream: draw(st.lists(records(), max_size=4))
                     for stream in draw(st.lists(
                         st.sampled_from(RunLog.STREAMS), unique=True,
                         max_size=3))})


@settings(max_examples=400, deadline=None)
@given(logs())
def test_each_line_equals_json_dumps(log):
    assert log.to_jsonl() == reference_jsonl(log)


def test_equal_tuples_of_other_types_keep_their_own_text():
    log = RunLog(packets=[SimpleNamespace(path=value)
                          for value in MIXED_TUPLES * 2])
    assert log.to_jsonl() == reference_jsonl(log)
    assert '"path": [1, 2.0]' in log.to_jsonl()
    assert '"path": [true, 2]' in log.to_jsonl()


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")),
                         ids=lambda path: path.stem)
def test_bundled_sample_log_survives_parse_and_write(path):
    log = run_single(load_scenario(str(path))).log
    text = log.to_jsonl()
    assert text == reference_jsonl(log)
    assert RunLog.parse_jsonl(text).to_jsonl() == text


class TestParseErrors:
    GOOD = '{"at": 0, "stream": "faults"}'

    def parse_error(self, bad_line: str) -> str:
        text = "\n".join([self.GOOD, "", bad_line, self.GOOD])
        with pytest.raises(ValueError) as info:
            RunLog.parse_jsonl(text)
        assert type(info.value) is ValueError
        return str(info.value)

    def test_blank_lines_are_skipped(self):
        log = RunLog.parse_jsonl(f"\n{self.GOOD}\n  \n\t\n{self.GOOD}\n\n")
        assert log.faults == [SimpleNamespace(at=0)] * 2

    def test_line_separators_inside_strings_stay_in_their_line(self):
        text = '{"stream": "faults", "note": "a\u2028b\x85c"}\n'
        assert RunLog.parse_jsonl(text).faults == [
            SimpleNamespace(note="a\u2028b\x85c")]

    def test_malformed_line(self):
        assert self.parse_error('{"at": 0,').startswith("line 3: ")

    def test_line_without_stream(self):
        assert self.parse_error('{"at": 0}') == "line 3: no run-log stream"

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"faults"', "null"])
    def test_line_that_is_not_an_object(self, line):
        assert self.parse_error(line) == "line 3: not a JSON object"

    @pytest.mark.parametrize("stream", ['"nope"', "null", '["faults"]'])
    def test_unknown_stream(self, stream):
        assert self.parse_error(f'{{"stream": {stream}}}').startswith(
            "line 3: unknown run-log stream ")
