"""Append-only JSONL journals: the one on-disk contract for every log.

Campaign result stores (and their shards), the service job journal, the
run registry, the calibration cache's event log, the benchmark history
and the trace sinks are all journals: one ``json.dumps(record,
sort_keys=True)`` object per line, folded by their readers in append
order.  The crash-consistency rules live here and nowhere else:

* :func:`append` writes under an exclusive ``flock`` and first seals a
  torn tail (a writer that died mid-line) with a newline, so debris
  never merges with a fresh record.  It drops the lock with an explicit
  ``LOCK_UN`` before closing: a child forked while the lock is held
  shares the open file description, and would otherwise keep the lock
  (blocking every later append) until it exited.
* :func:`read` parses a snapshot under a shared ``flock``, so it never
  sees a live writer's half-written line: an unterminated tail it finds
  is a dead writer's debris.
* :func:`load` is the tolerant read: malformed lines go to a
  ``<path>.quarantine`` side file (:func:`quarantine`), never fatal.
  Strict readers (trace reports) use :func:`read` and reject them.
* :class:`Tail` returns the complete lines appended since its last poll.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, NamedTuple

__all__ = ["Snapshot", "Tail", "append", "load", "quarantine", "read"]

_LOG = logging.getLogger(__name__)

#: Predicate a parsed JSON object must satisfy to count as a record.
Valid = Callable[[dict], Any]


class Snapshot(NamedTuple):
    """What one read of a journal found.

    Attributes:
        records: parsed JSON objects that passed the validity check, in
            append order.
        malformed: ``(line number, line)`` of every other non-blank
            line — not JSON, not an object, or rejected by the check.
    """

    records: list[dict]
    malformed: list[tuple[int, str]]


@contextmanager
def _locked(handle: IO[bytes], operation: int) -> Iterator[None]:
    try:
        fcntl.flock(handle, operation)
        locked = True
    except OSError:  # pragma: no cover - a filesystem refusing flock
        locked = False
    try:
        yield
    finally:
        if locked:
            fcntl.flock(handle, fcntl.LOCK_UN)


def append(path: Path, records: Iterable[dict]) -> None:
    """Append ``records`` as JSON lines in one locked, sealed write."""
    payload = "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode("utf-8")
    if not payload:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    # a+b: the seal check reads the last byte through the locked
    # descriptor; unbuffered, so nothing is left to write after unlock.
    with open(path, "a+b", buffering=0) as handle, _locked(
        handle, fcntl.LOCK_EX
    ):
        size = os.fstat(handle.fileno()).st_size
        if size and os.pread(handle.fileno(), 1, size - 1) != b"\n":
            payload = b"\n" + payload
        view = memoryview(payload)
        while view:
            view = view[handle.write(view):]


def _parse(data: bytes, valid: Valid | None, first_line: int) -> Snapshot:
    records: list[dict] = []
    malformed: list[tuple[int, str]] = []
    text = data.decode("utf-8", errors="replace")
    for lineno, line in enumerate(text.split("\n"), start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict) and (valid is None or valid(record)):
            records.append(record)
        else:
            malformed.append((lineno, line))
    return Snapshot(records, malformed)


def read(path: Path, valid: Valid | None = None) -> Snapshot:
    """Parse the whole journal under a shared lock.

    Raises :class:`OSError` when the file cannot be opened (a missing
    file included); :func:`load` is the tolerant form.
    """
    with open(path, "rb") as handle, _locked(handle, fcntl.LOCK_SH):
        data = handle.read()
    return _parse(data, valid, 1)


def load(path: Path, valid: Valid | None = None) -> Snapshot:
    """:func:`read`, with malformed lines quarantined (absent = empty)."""
    try:
        snapshot = read(path, valid)
    except FileNotFoundError:
        return Snapshot([], [])
    quarantine(path, [line for _, line in snapshot.malformed])
    return snapshot


def quarantine(path: Path, lines: list[str]) -> int:
    """Preserve malformed lines in ``<path>.quarantine``.

    The lines are logged, counted (``store.quarantined_lines``) and
    appended to the side file, so the debris stays inspectable after a
    compaction or rotation drops it from the live file.  Lines already
    in the side file are not duplicated.  Returns the number of newly
    quarantined lines; side-file write errors are swallowed, because
    the read that found the lines must succeed.
    """
    if not lines:
        return 0
    side = path.with_suffix(path.suffix + ".quarantine")
    try:
        known = set(
            side.read_text(encoding="utf-8").splitlines()
        ) if side.exists() else set()
        fresh = [line for line in lines if line not in known]
        if fresh:
            with side.open("a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in fresh))
    except OSError:  # pragma: no cover - best-effort side file
        fresh = lines
    _LOG.warning(
        "%s: quarantined %d malformed line(s) (torn tail of an "
        "interrupted writer?); see %s",
        path, len(lines), side,
    )
    # Imported here: repro.obs writes its trace sinks through this
    # module, so a top-level import would be circular.
    from . import obs

    if obs.enabled():
        obs.counter("store.quarantined_lines", len(lines))
    return len(fresh)


class Tail:
    """Incremental reader of a growing journal.

    Tracks a byte offset and returns only the *complete* lines appended
    since the previous :meth:`poll`; a trailing line with no newline yet
    stays unread until it is finished.  A file that shrank (a re-run
    truncating it) resets the offset and re-reads from the top.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._offset = 0
        self._lines = 0

    def poll(self, valid: Valid | None = None) -> Snapshot:
        """The lines appended since the last poll (absent = empty)."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return Snapshot([], [])
        with handle, _locked(handle, fcntl.LOCK_SH):
            size = os.fstat(handle.fileno()).st_size
            if size < self._offset:
                self._offset = self._lines = 0
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        end = chunk.rfind(b"\n") + 1
        snapshot = _parse(chunk[:end], valid, self._lines + 1)
        self._offset += end
        self._lines += chunk.count(b"\n", 0, end)
        return snapshot
