"""Trace sinks: where finished spans and metric snapshots go.

A sink receives plain-dict records (``{"type": "span", ...}`` or
``{"type": "metrics", ...}``) as they are produced.  ``JsonlSink``
appends one JSON object per line — the on-disk trace format that
``repro.cli trace-report`` reads back; ``MemorySink`` keeps records in
a list for tests and in-process analysis.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import IO


class MemorySink:
    """Collects records in memory (the test/analysis sink)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    @property
    def spans(self) -> list[dict]:
        return [r for r in self.records if r.get("type") == "span"]

    @property
    def metrics(self) -> dict | None:
        """The final metrics snapshot, if the recorder was finished."""
        for record in reversed(self.records):
            if record.get("type") == "metrics":
                return record
        return None

    def span_names(self) -> list[str]:
        return [r["name"] for r in self.spans]


class JsonlSink:
    """Appends records to a JSONL trace file, one object per line.

    ``append=True`` opens the file in append mode instead of
    truncating — the mode per-process telemetry spools use, so a
    process reopening a file continues it rather than erasing what an
    earlier writer managed to flush.  A predecessor killed mid-write leaves a torn
    last line; appending starts on a fresh line so that only the torn
    record is lost (:func:`read_jsonl` skips it).
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = append and _ends_mid_line(self.path)
        self._fh: IO[str] | None = self.path.open("a" if append else "w")
        if torn:
            self._fh.write("\n")

    def emit(self, record: dict) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(_ENCODER.encode(record) + "\n")

    def flush(self) -> None:
        """Push buffered records to the OS (round-boundary durability)."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _ends_mid_line(path: Path) -> bool:
    """Whether a non-empty file's last byte is not a newline."""
    try:
        with path.open("rb") as fh:
            fh.seek(0, 2)
            if fh.tell() == 0:
                return False
            fh.seek(-1, 2)
            return fh.read(1) != b"\n"
    except FileNotFoundError:
        return False


def _jsonable(value):
    """Fallback encoder: numpy scalars and arbitrary objects to JSON."""
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    return str(value)


#: ``json.dumps(record, default=_jsonable)`` without building an encoder
#: per record.
_ENCODER = json.JSONEncoder(default=_jsonable)


def read_jsonl(path: str | Path, strict: bool = False) -> list[dict]:
    """Load every parseable record of a JSONL file.

    A run killed mid-write (OOM, SIGKILL, power loss) leaves a
    truncated final line; by default such unparseable lines are skipped
    with a :class:`UserWarning` naming the file and line number, so the
    surviving records stay readable.  ``strict=True`` restores the
    raise-on-first-error behaviour for callers that must not tolerate a
    damaged file.
    """
    path = Path(path)
    records = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
                warnings.warn(
                    f"{path}:{lineno}: skipping truncated/corrupt JSONL line "
                    "(run killed mid-write?)",
                    stacklevel=2,
                )
    return records
