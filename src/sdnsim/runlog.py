"""Structured run log: everything a finished simulation leaves behind.

The log is the single source of truth for metric computation.  In memory
it holds the typed records the kernel and controller append; on disk it is
JSON lines.  Parsing a serialized log gives back a RunLog whose records
carry the same attribute names, each stream a plain list, so metrics
recomputed from it must equal the ones computed online.

Parts.  The packet, estimation and route streams are PartLogs: closed
parts, shared as they are by branched logs, then one open list.  Every
part is one Part, (template, first, n, steps): copy k, for k in [first,
first + n), adds k * step to each int field that steps names, keeps None
there and keeps every other field.  The kernel closes each stretch of
periods it fast-forwarded through as a packet part over the last
simulated period's records (seq by 1, sent_at and delivered_at by the
period).  The controller closes each estimation cycle as a part over
records logged relative to their cycle (cycle by 1, at by the estimation
interval), and each replayed proactive cycle as a route part over the
idle cycle's records (at by the interval).  A part that goes on from the
last closed one lengthens it (PartLog.close), so a run of cycles with one
template is one part.  Readers follow the one rule: iteration builds a
stepped part's copies as they are read, the writers lay its template out
once (copy_texts), and templates() and the count read the template alone.
No PartLog has index access.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
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


class Part:
    """n copies of template's records, numbered first to first + n - 1.
    steps is ((field name, step), ...): copy k of a record adds k * step
    to each int field steps names, keeps None there and keeps every other
    field.  A part without steps stands for its template n times over.
    Never changed once made, as branched logs and later parts share it."""

    __slots__ = ("template", "first", "n", "steps")

    def __init__(self, template, first: int = 0, n: int = 1,
                 steps: tuple = ()) -> None:
        self.template, self.first, self.n, self.steps = (
            template, first, n, steps)

    def __len__(self) -> int:
        return self.n * len(self.template)

    def __iter__(self):
        if not self.steps:
            return chain.from_iterable(repeat(self.template, self.n))
        return self._copies()

    def _copies(self):
        steps = self.steps
        for k in range(self.first, self.first + self.n):
            for record in self.template:
                kind = type(record)
                copy = kind.__new__(kind)
                fields = vars(copy)
                fields.update(vars(record))
                for name, step in steps:
                    value = fields[name]
                    if value is not None:
                        fields[name] = value + k * step
                yield copy


class PartLog:
    """A stream's records in log order: closed, a tuple of Parts, then
    open, the list of records still appended to, which reads as one part
    without steps.  Branched logs share closed as it is.  Sized and
    iterable, and compared with == as the list of its records; there is
    no index access.  A record of a stepped part is built each time it is
    read, so it equals the one read before but is another object, and
    changing it changes nothing in the log."""

    __slots__ = ("open", "closed")

    def __init__(self, open: list | None = None, closed: tuple = ()) -> None:
        self.open = [] if open is None else open
        self.closed = closed

    def __len__(self) -> int:
        return sum(map(len, self.closed)) + len(self.open)

    def __iter__(self):
        if not self.closed:
            return iter(self.open)
        return chain(chain.from_iterable(self.closed), self.open)

    def parts(self) -> tuple:
        """The log in order: the closed parts, then the open list as a
        part without steps."""
        return self.closed + (Part(self.open),)

    def close(self, part: Part) -> None:
        """Log part after every record so far: the open records close
        first, as a part of their own, and open starts empty.  A part that
        continues the last closed one, with its template and steps from
        the copy after that part's last, replaces it with one longer part
        instead: parts are never changed, as branched logs share them."""
        closed = self.closed
        if self.open:
            self.closed = closed + (Part(tuple(self.open)), part)
            self.open = []
            return
        last = closed[-1] if closed else None
        if (last is not None and last.template is part.template
                and last.steps == part.steps
                and part.first == last.first + last.n):
            self.closed = closed[:-1] + (Part(
                last.template, last.first, last.n + part.n, last.steps),)
        else:
            self.closed = closed + (part,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (PartLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def parts_of(records) -> tuple:
    """A stream's parts in log order: a PartLog's, or a plain list of
    records, as the other streams and a parsed log hold, as one part."""
    return records.parts() if isinstance(records, PartLog) else (
        Part(records),)


def templates(records) -> Iterable:
    """Each record of a stream once per part it stands for: a part's
    template records in place of their copies."""
    return chain.from_iterable(part.template for part in parts_of(records))


def copy_texts(part: Part, layout, laid: dict, entries: dict) -> list[str]:
    """The text of each of part's copies, in order, from its template laid
    out once as one str.format pattern: its records' layouts joined, with
    one slot for each distinct (value, step) of a stepped field that holds
    an int, so that copy k fills the slot of (value, step) with
    value + k * step.  layout(record, stepped) lays one record out with
    its stepped fields as slots, stepped mapping field name to slot
    number.  laid keeps each template's pattern and slots by its id and
    steps, entries each record's layout by its id and slots, so that
    templates sharing a record share its layout."""
    key = (id(part.template), part.steps)
    found = laid.get(key)
    if found is None:
        slots: dict[tuple[int, int], int] = {}
        texts = []
        for record in part.template:
            fields = vars(record)
            stepped = {name: slots.setdefault((fields[name], step),
                                              len(slots))
                       for name, step in part.steps
                       if fields[name] is not None}
            entry = (id(record), *stepped.items())
            text = entries.get(entry)
            if text is None:
                text = entries[entry] = layout(record, stepped)
            texts.append(text)
        found = laid[key] = ("".join(texts), tuple(slots))
    text, slots = found
    first = part.first
    return [text.format(*[value + k * step for value, step in slots])
            for k in range(first, first + part.n)]


@dataclass
class RunLog:
    """Append-only record streams produced by one kernel run."""

    packets: PartLog = field(default_factory=PartLog)
    estimation: PartLog = field(default_factory=PartLog)
    routes: PartLog = field(default_factory=PartLog)
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
        goes through one sort_keys encoder.  A stepped part is written from
        its template's text, laid out once with a slot for each stepped
        value (see copy_texts): one format call per copy.
        """
        lines = []
        memo: dict = {}  # str or tuple of str -> its JSON text
        for stream in self.STREAMS:
            patterns: dict[tuple, str] = {}
            laid: dict[tuple, tuple] = {}  # see copy_texts
            entries: dict[tuple, str] = {}

            def layout(record, stepped, stream=stream, patterns=patterns):
                fields = vars(record)
                names = tuple(fields)
                return _slotted(_pattern(patterns, stream, names),
                                _texts(fields.values(), memo),
                                {names.index(name): slot
                                 for name, slot in stepped.items()})

            for part in parts_of(getattr(self, stream)):
                if part.steps:
                    lines += copy_texts(part, layout, laid, entries)
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
        return "".join(lines)

    @staticmethod
    def parse_jsonl(text: str) -> "RunLog":
        """Parse a serialized log back into one SimpleNamespace per line:
        same field names, enums as their values, tuples as lists.  Blank
        lines are skipped; a line that is not a JSON object of a known
        stream raises ValueError naming its line number."""
        log = RunLog(packets=[], estimation=[], routes=[])
        streams = {stream: getattr(log, stream) for stream in RunLog.STREAMS}
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


def _slotted(pattern: str, texts: list[str], slots: dict[int, int]) -> str:
    """pattern filled in with texts, laid out as a str.format pattern in
    which field i is left as slot {slots[i]}.  JSON text is ASCII, the
    encoder escaping every other character, so chr(0x80 + slot) marks each
    slot until the braces of the text are escaped."""
    for index, slot in slots.items():
        texts[index] = chr(0x80 + slot)
    line = pattern.format(*texts).replace("{", "{{").replace("}", "}}")
    for slot in slots.values():
        line = line.replace(chr(0x80 + slot), "{%d}" % slot)
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
    """str.format pattern of a line of stream, newline included, whose
    record has these field names, in this order: keys sorted, the i-th
    field's JSON text in slot {i}.  A record field named stream takes the
    place of the tag, as in {"stream": stream, **row}."""
    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    slots = {name: "{%d}" % index for index, name in enumerate(names)}
    slots.setdefault("stream", literal(_encode(stream)))
    return "{{" + ", ".join(f"{literal(_encode(key))}: {slots[key]}"
                            for key in sorted(slots)) + "}}\n"
