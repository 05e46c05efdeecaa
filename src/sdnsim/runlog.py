"""Structured run log: everything a finished simulation leaves behind.

The log is the single source of truth for metric computation.  In memory
it holds the typed records the kernel and controller append; on disk it is
JSON lines.  Parsing a serialized log gives back a RunLog whose records
carry the same attribute names, so metrics recomputed from it must equal
the ones computed online.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Any


def record_to_dict(record: Any) -> dict:
    """Flat record to a JSON-encodable dict; enums become their values."""
    return {key: _plain(value) for key, value in vars(record).items()}


def _plain(value: Any) -> Any:
    """A record field as written to JSON: an enum's value, else itself."""
    return value.value if isinstance(value, Enum) else value


@dataclass
class RunLog:
    """Append-only record streams produced by one kernel run."""

    packets: list = field(default_factory=list)
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
        goes through one sort_keys encoder.
        """
        lines = []
        memo: dict = {}  # str or tuple of str -> its JSON text
        for stream in self.STREAMS:
            patterns: dict[tuple, str] = {}
            for record in getattr(self, stream):
                fields = vars(record)
                texts = []
                for value in fields.values():
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
                names = tuple(fields)
                pattern = patterns.get(names)
                if pattern is None:
                    pattern = patterns[names] = _line_pattern(stream, names)
                lines.append(pattern.format(*texts))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse_jsonl(text: str) -> "RunLog":
        """Parse a serialized log back into one SimpleNamespace per line:
        same field names, enums as their values, tuples as lists.  Blank
        lines are skipped; a line that is not a JSON object of a known
        stream raises ValueError naming its line number."""
        log = RunLog()
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
