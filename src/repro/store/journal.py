"""Structured JSONL run journal.

One journal file per run, under ``<store-root>/journals/``.  Every line is
one JSON event with a wall-clock timestamp; the vocabulary is small:

* ``run_start`` / ``run_end`` -- run boundaries with free-form metadata;
* ``stage_start`` / ``stage_end`` -- pipeline stage boundaries.  The end
  event carries wall seconds, CPU seconds (``time.process_time`` delta),
  the stage's cache disposition (``hit`` / ``miss`` / ``off``) and the
  store key involved, which makes the journal the observability layer the
  benchmarks read back;
* ``artifact_ref`` -- a store record (path relative to the store root)
  this run read or wrote.  :func:`journal_pinned_paths` aggregates these
  across the journal directory, and the store GC refuses to evict a
  referenced artifact while its journal is still present -- a live journal
  keeps its evidence replayable.

Events are flushed per line, so a killed run leaves a readable journal up
to the moment of death.  Writes are serialized by an internal lock, so a
journal shared between the service's event loop and its worker threads
never interleaves two events on one line; :func:`tail_journal`
incrementally reads complete lines from a given offset, which is how the
server streams a run's progress as NDJSON while the run is still writing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple


class RunJournal:
    """An append-only JSONL event log for one run."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    @classmethod
    def create(cls, directory: str, label: str) -> "RunJournal":
        """A fresh journal named after the label, timestamp and pid (unique
        per run even when several runs share a second)."""
        stamp = time.strftime("%Y%m%dT%H%M%S")
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
        return cls(os.path.join(directory, f"{stamp}-{safe}-{os.getpid()}.jsonl"))

    def event(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {"t": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()

    def artifact_ref(self, path: Optional[str]) -> None:
        """Pin one store record (path relative to the store root)."""
        if path:
            self.event("artifact_ref", path=path)

    def close(self, **fields: object) -> None:
        if not self._handle.closed:
            self.event("run_end", **fields)
            with self._lock:
                self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(ok=exc_type is None)


def read_journal(path: str) -> Iterator[Dict[str, object]]:
    """Parse a journal, silently dropping a truncated trailing line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write at the kill point
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


def tail_journal(path: str, offset: int = 0) -> Tuple[List[Dict[str, object]], int]:
    """Complete events appended past ``offset``; returns ``(events, new_offset)``.

    Only whole lines (newline-terminated) are consumed, so a concurrent
    writer mid-line just defers that event to the next call; the returned
    offset always points at the start of the first unconsumed byte.  A
    missing file reads as no events at offset ``offset``.
    """
    events: List[Dict[str, object]] = []
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return events, offset
    end = chunk.rfind(b"\n")
    if end < 0:
        return events, offset
    complete = chunk[: end + 1]
    for line in complete.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            events.append(record)
    return events, offset + len(complete)


def journal_pinned_paths(journal_dir: str) -> Set[str]:
    """Store-relative artifact paths referenced by any journal on disk."""
    pinned: Set[str] = set()
    if not os.path.isdir(journal_dir):
        return pinned
    for name in sorted(os.listdir(journal_dir)):
        if not name.endswith(".jsonl"):
            continue
        for record in read_journal(os.path.join(journal_dir, name)):
            if record.get("event") == "artifact_ref" and record.get("path"):
                pinned.add(str(record["path"]))
    return pinned


def journal_stage_summaries(path: str) -> List[Dict[str, object]]:
    """The ``stage_end`` events of one journal, in order (benchmark meta)."""
    return [r for r in read_journal(path) if r.get("event") == "stage_end"]


__all__ = [
    "RunJournal",
    "journal_pinned_paths",
    "journal_stage_summaries",
    "read_journal",
    "tail_journal",
]
