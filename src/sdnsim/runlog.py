"""Structured run log: everything a finished simulation leaves behind.

The log is the single source of truth for metric computation.  In memory
it holds the typed records the kernel and controller append; on disk it is
JSON lines.  Parsing a serialized log gives back a RunLog whose records
carry the same attribute names, so metrics recomputed from it must equal
the ones computed online.  The packet and estimation streams are
PartLogs: finished parts, shared as they are by branched logs, then one
open list.  Each stretch of periods that a kernel fast-forwarded through
is one finished part of the packet log, a Segment over the last period's
records, and each estimation cycle one part of the estimation log, a
Cycle over a template that idle cycles share; the records of both are
built only when read, and neither log has index access.  A parsed log's
estimation stream is a plain list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from operator import eq
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


class Segment:
    """n copies of one period's finished packet records, template: the k-th
    copy of a record adds k to its seq and k * period to its send and
    delivery times, every other field unchanged.  Never changed once made,
    as branched logs share it."""

    __slots__ = ("template", "n", "period")

    def __init__(self, template: tuple[PacketRecord, ...], n: int,
                 period: int) -> None:
        self.template, self.n, self.period = template, n, period

    def __len__(self) -> int:
        return self.n * len(self.template)

    def __iter__(self):
        for k in range(1, self.n + 1):
            yield from [self._copy(record, k) for record in self.template]

    def _copy(self, record: PacketRecord, k: int) -> PacketRecord:
        shift = k * self.period
        delivered = record.delivered_at
        return PacketRecord(
            record.flow_id, record.seq + k, record.pair, record.covered,
            record.length, record.sent_at + shift, record.path,
            None if delivered is None else delivered + shift,
            record.drop_reason, record.actual_delay, record.queue_wait)


class Cycle:
    """One estimation cycle's records: template read with each record's
    cycle and at replaced by this cycle's index and time, every other
    field unchanged.  Never changed once made, as branched logs share it
    and later cycles its template."""

    __slots__ = ("template", "cycle", "at")

    def __init__(self, template: tuple, cycle: int, at: int) -> None:
        self.template, self.cycle, self.at = template, cycle, at

    def __len__(self) -> int:
        return len(self.template)

    def __iter__(self):
        for record in self.template:
            kind = type(record)
            copy = kind.__new__(kind)
            vars(copy).update(vars(record), cycle=self.cycle, at=self.at)
            yield copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Cycle, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Cycle({list(self)!r})"


class PartLog:
    """A stream's records in log order: closed, a tuple of finished parts,
    each a tuple of records, a Segment or a Cycle, then open, the list of
    records still appended to.  Branched logs share closed as it is.
    Sized and iterable, and compared with == as the list of its records;
    there is no index access.  A record of a Segment or a Cycle is built
    each time it is read, so it equals the one read before but is another
    object, and changing it changes nothing in the log."""

    __slots__ = ("open", "closed")

    def __init__(self, open: list | None = None, closed: tuple = ()) -> None:
        self.open = [] if open is None else open
        self.closed = closed

    def __len__(self) -> int:
        return sum(map(len, self.closed)) + len(self.open)

    def __iter__(self):
        if not self.closed:
            return iter(self.open)
        return chain.from_iterable(self.parts())

    def parts(self) -> tuple:
        """The log in order: the closed parts, then the open list."""
        return self.closed + (self.open,)

    def close(self, part) -> None:
        """Log a finished part after every record so far: the open records
        close first, as one part, and open starts empty."""
        open = self.open
        if open:
            self.closed += (tuple(open), part)
            self.open = []
        else:
            self.closed += (part,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (PartLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PacketLog(PartLog):
    """A run's packet records: a PartLog whose finished parts are tuples of
    simulated records and Segments over those same records.  A segment is
    logged only with no packet in flight, so every record before open is
    finished."""

    __slots__ = ()

    def replicate(self, start: int, n: int, period: int) -> None:
        """Log n copies, shifted by 1 to n periods, of one period's records:
        the open ones from position start on, which then close with the
        rest of open, or when open is empty, the last copy of the last
        segment.  That segment is then replaced by a longer one, never
        changed: branched logs share it."""
        if self.open:
            self.close(Segment(tuple(self.open[start:]), n, period))
        else:
            last = self.closed[-1]
            self.closed = self.closed[:-1] + (
                Segment(last.template, last.n + n, period),)


def _parts(records) -> tuple:
    """A stream's parts in log order: a PartLog's, or a plain list of
    records, as a parsed log holds, as one part."""
    return records.parts() if isinstance(records, PartLog) else (records,)


def templates(records) -> Iterable:
    """Each record of a stream once per part it stands for: a Segment's or
    a Cycle's template records in place of their copies."""
    return chain.from_iterable(
        part.template if type(part) in (Segment, Cycle) else part
        for part in _parts(records))


@dataclass
class RunLog:
    """Append-only record streams produced by one kernel run."""

    packets: PacketLog = field(default_factory=PacketLog)
    estimation: PartLog = field(default_factory=PartLog)
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
        goes through one sort_keys encoder.  A Segment of the packet log
        and a Cycle of the estimation log are written from their template
        records' text (see _segment_lines and _cycle_lines).
        """
        lines = []
        memo: dict = {}  # str or tuple of str -> its JSON text
        for stream in self.STREAMS:
            patterns: dict[tuple, str] = {}
            # id of a Cycle's template, and of its records -> their text
            cycles: dict[int, str] = {}
            entries: dict[int, str] = {}
            for part in _parts(getattr(self, stream)):
                kind = type(part)
                if kind is Segment:
                    lines += _segment_lines(part, _pattern(
                        patterns, stream, _PACKET_FIELDS), memo)
                    continue
                if kind is Cycle:
                    text = cycles.get(id(part.template))
                    if text is None:
                        text = cycles[id(part.template)] = _cycle_lines(
                            part.template, stream, patterns, entries, memo)
                    if text:
                        lines.append(text.format(part.cycle, part.at))
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
        log = RunLog(estimation=[])
        streams = {stream: getattr(log, stream) for stream in RunLog.STREAMS}
        streams["packets"] = log.packets.open
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


# A packet record's field names in order, as vars() gives them, and where
# a replicated copy differs from its template record: the slot of its
# seq, sent_at and delivered_at, by field index.
_PACKET_FIELDS = tuple(f.name for f in fields(PacketRecord))
_SHIFTED = {_PACKET_FIELDS.index(name): slot for slot, name in enumerate(
    ("seq", "sent_at", "delivered_at"))}


def _segment_lines(segment: Segment, pattern: str, memo: dict) -> list[str]:
    """The lines of a segment's records, in log order.  Each template
    record's line is laid out once as a str.format pattern with its fixed
    fields written in and slots for the copy's seq, sent_at and
    delivered_at, which stays null for a dropped record."""
    copies = []
    for record in segment.template:
        texts = _texts(vars(record).values(), memo)
        copies.append((_slotted(pattern, texts, {
            index: slot for index, slot in _SHIFTED.items()
            if texts[index] != "null"}).format, record.seq,
            record.sent_at, record.delivered_at or 0))
    lines = []
    period = segment.period
    for k in range(1, segment.n + 1):
        shift = k * period
        lines += [line(seq + k, sent + shift, delivered + shift)
                  for line, seq, sent, delivered in copies]
    return lines


def _cycle_lines(template: tuple, stream: str, patterns: dict,
                 entries: dict, memo: dict) -> str:
    """The lines of a cycle over template, joined, as a str.format pattern
    with slots {0} for the cycle's index and {1} for its time.  Each
    template record's line is laid out once and kept in entries by the
    record's id, so templates that share records share their text."""
    lines = []
    for record in template:
        line = entries.get(id(record))
        if line is None:
            fields = vars(record)
            names = tuple(fields)
            line = entries[id(record)] = _slotted(
                _pattern(patterns, stream, names),
                _texts(fields.values(), memo),
                {names.index("cycle"): 0, names.index("at"): 1})
        lines.append(line)
    return "\n".join(lines)


def _slotted(pattern: str, texts: list[str], slots: dict[int, int]) -> str:
    """pattern filled in with texts, laid out as a str.format pattern in
    which field i is left as slot {slots[i]}.  JSON text never holds a raw
    control character, so chr(slot) marks each slot until the braces of
    the text are escaped."""
    for index, slot in slots.items():
        texts[index] = chr(slot)
    line = pattern.format(*texts).replace("{", "{{").replace("}", "}}")
    for slot in slots.values():
        line = line.replace(chr(slot), "{%d}" % slot)
    return line


def _pattern(patterns: dict, stream: str, names: tuple) -> str:
    """The line pattern of names in stream, kept in patterns."""
    pattern = patterns.get(names)
    if pattern is None:
        pattern = patterns[names] = _line_pattern(stream, names)
    return pattern


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
