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
    return {key: value.value if isinstance(value, Enum) else value
            for key, value in vars(record).items()}


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
        """Serialize every record as one JSON line tagged with its stream."""
        lines = []
        for stream in self.STREAMS:
            for record in getattr(self, stream):
                payload = {"stream": stream, **record_to_dict(record)}
                lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse_jsonl(text: str) -> "RunLog":
        """Parse a serialized log back into one SimpleNamespace per line:
        same field names, enums as their values, tuples as lists."""
        log = RunLog()
        for line in text.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            stream = payload.pop("stream")
            if stream not in RunLog.STREAMS:
                raise ValueError(f"unknown run-log stream {stream!r}")
            getattr(log, stream).append(SimpleNamespace(**payload))
        return log
