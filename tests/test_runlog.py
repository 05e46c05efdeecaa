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

from sdnsim.delay_estimation import EstimationRecord
from sdnsim.harness import run_single
from sdnsim.runlog import (
    Part,
    PacketRecord,
    PartLog,
    RunLog,
    record_to_dict,
)
from sdnsim.scenario import load_scenario

from conftest import reference_jsonl

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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


# Stepped values and steps: small ones, so that records of one template
# meet on one (value, step) and one value meets other steps, and any int.
small_ints = st.integers(-2, 2) | ints


@st.composite
def part_logs(draw):
    """A PartLog of run-length parts over templates drawn from one pool of
    records, some shared by several templates and templates shared by
    several parts, and an open list.  Every record carries the stepped
    fields, each an int or None."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    pool = draw(st.lists(records(), min_size=1, max_size=4))
    for record in pool:
        for name in names:
            vars(record)[name] = draw(st.none() | small_ints)
    templates = draw(st.lists(
        st.lists(st.sampled_from(pool), max_size=4).map(tuple),
        min_size=1, max_size=3))
    closed = tuple(Part(draw(st.sampled_from(templates)), draw(small_ints),
                        draw(st.integers(0, 3)),
                        tuple((name, draw(small_ints)) for name in names))
                   for _ in range(draw(st.integers(0, 4))))
    return PartLog(draw(st.lists(records(), max_size=3)), closed)


@st.composite
def logs(draw):
    return RunLog(**{stream: draw(st.lists(records(), max_size=4)
                                  | part_logs())
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


def test_segment_lines_equal_json_dumps_of_their_records():
    """Copies are written from their template's text: braces and escapes
    in its fixed fields stay as they are, and a dropped record's
    delivered_at stays null in every copy."""
    delivered = PacketRecord("F{0}", 3, ("S{1", "S2}"), True, 12_000, 100,
                             ("S{1", "{}", "S2}"), 150, None, 50, 7)
    dropped = PacketRecord("F\u2028\"", 4, ("S1", "S2"), False, 8, 110,
                           None, None, "no_route", None, 0)
    log = RunLog(packets=PartLog([dropped], (
        Part((delivered,)), Part((delivered, dropped), 1, 3, (
            ("seq", 1), ("sent_at", 1_000), ("delivered_at", 1_000))))))
    assert len(log.packets) == 8
    assert log.to_jsonl() == reference_jsonl(log)


def test_cycle_lines_equal_json_dumps_of_their_records():
    """A cycle is written from its template's text, with braces and escapes
    kept in the fixed fields; templates that share a record, an empty
    cycle and a record still in the open list are written alike."""
    forward = EstimationRecord(0, "S{0}", 'S"2', 5, 12, 17, 0)
    reverse = EstimationRecord(0, 'S"2', "S{0}", 5, 12, 17, 0)
    other = EstimationRecord(3, "S\u2028", "S}", 7, 12, 19, 40)
    first, second = (forward, reverse), (forward, other, reverse)
    steps = (("cycle", 1), ("at", 10))
    log = RunLog(estimation=PartLog([other], (
        Part(first, 0, 1, steps),
        Part(second, 1, 1, (("cycle", 1), ("at", 10**12))),
        Part((), 2, 1, steps), Part(first, 3, 1, steps))))
    assert len(log.estimation) == 8
    text = log.to_jsonl()
    assert text.split("\n")[:-1] == [
        json.dumps({"stream": "estimation", **record_to_dict(record)},
                   sort_keys=True)
        for record in log.estimation]
    assert text == reference_jsonl(log)
    parsed = RunLog.parse_jsonl(text)
    assert type(parsed.estimation) is list
    assert parsed.to_jsonl() == text


class TestClose:
    """PartLog.close lengthens the last closed part with a part that
    continues it: the same template object and steps, from the copy after
    its last.  Anything else starts a new part."""

    STEPS = (("seq", 1), ("at", 10))
    TEMPLATE = (SimpleNamespace(seq=0, at=5, name="a"),
                SimpleNamespace(seq=1, at=None, name="b"))
    EQUAL = tuple(SimpleNamespace(**vars(record)) for record in TEMPLATE)

    def closed_log(self):
        log = PartLog()
        log.close(Part(self.TEMPLATE, 2, 3, self.STEPS))
        return log

    def test_a_continuing_part_lengthens_the_last(self):
        log = self.closed_log()
        [last] = log.closed
        log.close(Part(self.TEMPLATE, 5, 2, self.STEPS))
        [longer] = log.closed
        assert longer is not last and last.n == 3
        assert (longer.template, longer.first, longer.n, longer.steps) == (
            self.TEMPLATE, 2, 5, self.STEPS)
        assert log == [SimpleNamespace(seq=record.seq + k,
                                       at=None if record.at is None
                                       else record.at + 10 * k,
                                       name=record.name)
                       for k in range(2, 7) for record in self.TEMPLATE]

    @pytest.mark.parametrize("template, first, steps", [
        (EQUAL, 5, STEPS),  # an equal template, another object
        (TEMPLATE, 5, (("seq", 1), ("at", 11))),
        (TEMPLATE, 5, (("seq", 1),)),
        (TEMPLATE, 6, STEPS),  # a gap
        (TEMPLATE, 4, STEPS),  # an overlap
    ], ids=["template", "step", "names", "gap", "overlap"])
    def test_anything_else_starts_a_new_part(self, template, first, steps):
        log = self.closed_log()
        [last] = log.closed
        part = Part(template, first, 2, steps)
        log.close(part)
        assert log.closed == (last, part)
        assert len(log) == 10

    def test_open_records_close_first(self):
        log = self.closed_log()
        log.open.append(SimpleNamespace(seq=9, at=9, name="c"))
        part = Part(self.TEMPLATE, 5, 1, self.STEPS)
        log.close(part)
        assert len(log.closed) == 3 and log.closed[2] is part
        assert log.open == [] and len(log) == 9

    def test_a_twin_holding_the_old_parts_reads_them_as_they_were(self):
        log = self.closed_log()
        twin = PartLog(closed=log.closed)
        before = list(twin)
        log.close(Part(self.TEMPLATE, 5, 4, self.STEPS))
        assert len(twin) == 6 and len(log) == 14
        assert list(twin) == before
        assert list(log)[:6] == before


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

    def test_padded_line_parses(self):
        log = RunLog.parse_jsonl(f" \t{self.GOOD}\t \n{self.GOOD}")
        assert log.faults == [SimpleNamespace(at=0)] * 2

    def test_malformed_line(self):
        assert self.parse_error('{"at": 0,').startswith("line 3: ")

    def test_line_with_data_after_its_object(self):
        assert self.parse_error(f"{self.GOOD} x") == \
            "line 3: column 31: Extra data"

    def test_line_without_stream(self):
        assert self.parse_error('{"at": 0}') == "line 3: no run-log stream"

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"faults"', "null"])
    def test_line_that_is_not_an_object(self, line):
        assert self.parse_error(line) == "line 3: not a JSON object"

    @pytest.mark.parametrize("stream", ['"nope"', "null", '["faults"]'])
    def test_unknown_stream(self, stream):
        assert self.parse_error(f'{{"stream": {stream}}}').startswith(
            "line 3: unknown run-log stream ")
