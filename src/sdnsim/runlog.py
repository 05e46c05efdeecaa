"""Structured run log: everything a finished simulation leaves behind.

The log is the single source of truth for metric computation.  In memory
it holds the typed records the kernel and controller append; on disk it is
JSON lines.  Parsing a serialized log gives back a RunLog whose records
carry the same attribute names, so metrics recomputed from it must equal
the ones computed online.  The packet stream is a PacketLog, which holds
each stretch of periods that a kernel fast-forwarded through as one
Segment and builds those records only when read.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter, eq
from types import SimpleNamespace
from typing import Any, Iterable

from .core import SwitchId


def record_to_dict(record: Any) -> dict:
    """Flat record to a JSON-encodable dict; enums become their values."""
    return {key: _plain(value) for key, value in vars(record).items()}


def _plain(value: Any) -> Any:
    """A record field as written to JSON: an enum's value, else itself."""
    return value.value if isinstance(value, Enum) else value


@dataclass
class PacketRecord:
    flow_id: str
    seq: int
    pair: tuple[SwitchId, SwitchId]
    covered: bool            # flow is governed by a contract pair
    length: int              # bits
    sent_at: int
    path: tuple[SwitchId, ...] | None
    delivered_at: int | None = None
    drop_reason: str | None = None
    actual_delay: int | None = None
    queue_wait: int = 0

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


# A finished packet record's fields as one immutable tuple, read by the
# same names.
PacketValues = namedtuple("PacketValues",
                          [f.name for f in fields(PacketRecord)])
_values = attrgetter(*PacketValues._fields)


class Segment:
    """n copies of one period's packet records, template: the k-th copy of
    a record adds k to its seq and k * period to its send and delivery
    times, every other field unchanged.  Never changed once made, as
    branched logs share it."""

    __slots__ = ("template", "n", "period")

    def __init__(self, template: tuple[PacketValues, ...], n: int,
                 period: int) -> None:
        self.template, self.n, self.period = template, n, period

    def __len__(self) -> int:
        return self.n * len(self.template)

    def __iter__(self):
        for k in range(1, self.n + 1):
            yield from [self._copy(values, k) for values in self.template]

    def __getitem__(self, index: int) -> PacketRecord:
        k, i = divmod(index, len(self.template))
        return self._copy(self.template[i], k + 1)

    def _copy(self, values: PacketValues, k: int) -> PacketRecord:
        (flow, seq, pair, covered, length, sent, path, delivered, reason,
         delay, wait) = values
        shift = k * self.period
        return PacketRecord(
            flow, seq + k, pair, covered, length, sent + shift, path,
            None if delivered is None else delivered + shift, reason, delay,
            wait)


class PacketLog:
    """A run's packet records in log order: the simulated ones in the plain
    list simulated, which the kernel appends to, and segments as
    (position, Segment), a segment at position p following the first p
    simulated records.  Sized, indexable and
    iterable; a replicated record is built each time it is read, so it
    equals the one read before but is another object, and changing it
    changes nothing in the log."""

    __slots__ = ("simulated", "segments", "_replicated")

    def __init__(self, simulated: list | None = None,
                 segments: Iterable[tuple[int, Segment]] = ()) -> None:
        self.simulated = [] if simulated is None else simulated
        self.segments = list(segments)
        self._replicated = sum(len(segment) for _, segment in self.segments)

    def __len__(self) -> int:
        return len(self.simulated) + self._replicated

    def __iter__(self):
        if not self.segments:
            return iter(self.simulated)
        return self._records()

    def _records(self):
        for part in self.parts():
            yield from part

    def parts(self):
        """The log in order as runs of simulated records, each a list, and
        the Segments between them."""
        simulated, start = self.simulated, 0
        for at, segment in self.segments:
            yield simulated[start:at]
            yield segment
            start = at
        yield simulated[start:]

    def __getitem__(self, index: int) -> Any:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("packet log index out of range")
        skipped = 0  # replicated records before the current position
        for at, segment in self.segments:
            if index < at + skipped:
                break
            if index < at + skipped + len(segment):
                return segment[index - at - skipped]
            skipped += len(segment)
        return self.simulated[index - skipped]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (PacketLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PacketLog({list(self)!r})"

    def replicate(self, start: int, n: int, period: int) -> None:
        """Log n copies, shifted by 1 to n periods, of one period's records:
        the simulated ones from position start on, or when none were
        simulated since start, the last copy of the segment there.  That
        segment is then replaced by a longer one, never changed: branched
        logs share it."""
        simulated, segments = self.simulated, self.segments
        at = len(simulated)
        if start < at:
            segment = Segment(tuple(PacketValues._make(_values(record))
                                    for record in simulated[start:]),
                              n, period)
        else:
            _, last = segments.pop()
            self._replicated -= len(last)
            segment = Segment(last.template, last.n + n, period)
        segments.append((at, segment))
        self._replicated += len(segment)


@dataclass
class RunLog:
    """Append-only record streams produced by one kernel run."""

    packets: PacketLog = field(default_factory=PacketLog)
    estimation: list = field(default_factory=list)
    routes: list = field(default_factory=list)
    notifications: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    restorations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    assumption_notes: list = field(default_factory=list)
    ped_changes: list = field(default_factory=list)
    injections: list = field(default_factory=list)

    STREAMS = ("packets", "estimation", "routes", "notifications", "faults",
               "decisions", "restorations", "warnings", "assumption_notes",
               "ped_changes", "injections")

    def to_jsonl(self) -> str:
        """Serialize every record as one JSON line tagged with its stream.

        Each line is json.dumps({"stream": stream, **record_to_dict(r)},
        sort_keys=True).  The sorted keys of each (stream, field names)
        shape are laid out once as a str.format pattern; ints, None and
        booleans are written directly, strings and tuples of strings are
        encoded once per call, and everything else (enums as their values)
        goes through one sort_keys encoder.  A segment of the packet log is
        written from its template records (see _segment_lines).
        """
        lines = []
        memo: dict = {}  # str or tuple of str -> its JSON text
        for stream in self.STREAMS:
            records = getattr(self, stream)
            patterns: dict[tuple, str] = {}
            for part in (records.parts() if isinstance(records, PacketLog)
                         else (records,)):
                if type(part) is Segment:
                    names = PacketValues._fields
                    if names not in patterns:
                        patterns[names] = _line_pattern(stream, names)
                    lines += _segment_lines(part, patterns[names], memo)
                    continue
                for record in part:
                    fields = vars(record)
                    names = tuple(fields)
                    pattern = patterns.get(names)
                    if pattern is None:
                        pattern = patterns[names] = _line_pattern(stream,
                                                                  names)
                    lines.append(pattern.format(*_texts(fields.values(),
                                                        memo)))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse_jsonl(text: str) -> "RunLog":
        """Parse a serialized log back into one SimpleNamespace per line:
        same field names, enums as their values, tuples as lists.  Blank
        lines are skipped; a line that is not a JSON object of a known
        stream raises ValueError naming its line number."""
        log = RunLog()
        streams = {stream: getattr(log, stream) for stream in RunLog.STREAMS}
        streams["packets"] = log.packets.simulated
        raw_decode, decode = _decoder.raw_decode, _decoder.decode
        # Lines end at "\n" alone: str.splitlines would also split inside
        # strings holding a raw U+2028, which JSON allows.
        for number, line in enumerate(text.split("\n"), 1):
            # A line that is one JSON value alone, as to_jsonl writes it;
            # blank, padded and malformed lines take the full path below.
            try:
                payload, end = raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                if not line.strip():
                    continue
                try:
                    payload = decode(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {number}: column {exc.colno}: "
                                     f"{exc.msg}") from None
            if type(payload) is not dict:
                raise ValueError(f"line {number}: not a JSON object")
            if "stream" not in payload:
                raise ValueError(f"line {number}: no run-log stream")
            stream = payload.pop("stream")
            records = streams.get(stream) if type(stream) is str else None
            if records is None:
                raise ValueError(f"line {number}: unknown run-log stream "
                                 f"{stream!r}")
            records.append(SimpleNamespace(**payload))
        return log


# The encoder for values to_jsonl does not write itself, and the decoder
# parse_jsonl reuses.
_encode = json.JSONEncoder(sort_keys=True).encode
_decoder = json.JSONDecoder()


def _texts(values: Iterable, memo: dict) -> list[str]:
    """The JSON text of each of a record's field values, in order."""
    texts = []
    for value in values:
        kind = type(value)
        if kind is int:
            texts.append(str(value))
        elif value is None:
            texts.append("null")
        elif value is True:
            texts.append("true")
        elif value is False:
            texts.append("false")
        elif kind is str or kind is tuple:
            try:
                texts.append(memo[value])
            except KeyError:
                texts.append(_memoized(memo, value))
            except TypeError:  # a tuple holding a list
                texts.append(_encode(value))
        else:
            texts.append(_encode(_plain(value)))
    return texts


# Where a replicated copy differs from its template record: its seq,
# sent_at and delivered_at, by field index, with a stand-in for each slot.
# JSON text never holds a raw control character.
_SHIFTED = {PacketValues._fields.index(name): mark for name, mark in (
    ("seq", "\x00"), ("sent_at", "\x01"), ("delivered_at", "\x02"))}


def _segment_lines(segment: Segment, pattern: str, memo: dict) -> list[str]:
    """The lines of a segment's records, in log order.  Each template
    record's line is laid out once as a str.format pattern with its fixed
    fields written in and slots for the copy's seq, sent_at and
    delivered_at, which stays null for a dropped record."""
    copies = []
    for values in segment.template:
        texts = _texts(values, memo)
        for index, mark in _SHIFTED.items():
            if values[index] is not None:
                texts[index] = mark
        line = pattern.format(*texts).replace("{", "{{").replace("}", "}}")
        copies.append((line.replace("\x00", "{0}").replace("\x01", "{1}")
                       .replace("\x02", "{2}").format, values.seq,
                       values.sent_at, values.delivered_at or 0))
    lines = []
    period = segment.period
    for k in range(1, segment.n + 1):
        shift = k * period
        lines += [line(seq + k, sent + shift, delivered + shift)
                  for line, seq, sent, delivered in copies]
    return lines


def _memoized(memo: dict, value: str | tuple) -> str:
    """value's JSON text, kept in memo when value is a str or a tuple of
    str only.  (1, 2), (1, 2.0) and (True, 2) are equal with one hash but
    differ in JSON, so no other value may be a memo key."""
    text = _encode(value)
    if type(value) is str or all(type(item) is str for item in value):
        memo[value] = text
    return text


def _line_pattern(stream: str, names: tuple) -> str:
    """str.format pattern of a line of stream whose record has these field
    names, in this order: keys sorted, the i-th field's JSON text in slot
    {i}.  A record field named stream takes the place of the tag, as in
    {"stream": stream, **row}."""
    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    slots = {name: "{%d}" % index for index, name in enumerate(names)}
    slots.setdefault("stream", literal(_encode(stream)))
    return "{{" + ", ".join(f"{literal(_encode(key))}: {slots[key]}"
                            for key in sorted(slots)) + "}}"
