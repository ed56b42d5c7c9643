"""Shared columnar trace store: one memory-mapped file per namespace.

The only persisted form of a compiled trace.  :class:`ColumnarTraceStore`
keeps *one append-only container file per namespace* holding
:data:`~repro.hardware.trace.ROW_DTYPE` records -- the
:class:`~repro.hardware.trace.CompiledTrace` arrays laid out row-major
-- plus a small JSON index mapping each cache key to its
``(offset, count)`` row span and segment labels.  Reads memory-map the
container (``np.memmap``), so a loaded trace is a zero-copy view: every
reader in every process shares one physical copy through the page
cache, and loading is O(index lookup), not O(trace bytes) -- 100 nodes
replaying the same 50 distinct traces never re-read or copy them.

Concurrency model (crash-safe by construction):

* Writers serialize on an ``fcntl`` file lock, append rows, ``fsync``
  the data file, then publish the index via temp-file + ``os.replace``
  (atomic on POSIX).  The index is only ever replaced *after* the rows
  it points at are durable, so readers can never resolve a span into
  unwritten bytes.
* Readers take no lock.  They see either the old index or the new one;
  a torn trailing append (a writer died before publishing) is invisible
  because no index entry points at it, and the next writer truncates it
  away.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.hardware.trace import CompiledTrace, ROW_DTYPE

try:  # POSIX writer lock; the store degrades to atomic-index-only
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

INDEX_FORMAT = "repro-trace-store"
INDEX_VERSION = 1


def _digest(namespace: str, key: str) -> str:
    """Stable index key (raw keys embed whole SQL statements)."""
    return hashlib.sha256(
        f"{namespace}\x00{key}".encode("utf-8")
    ).hexdigest()


class ColumnarTraceStore:
    """Append-only (key -> row span) store over one container file."""

    def __init__(self, directory: str | Path,
                 namespace: str = "") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.namespace = namespace
        stem = "store-" + hashlib.sha256(
            namespace.encode("utf-8")
        ).hexdigest()[:16]
        self.rows_path = self.directory / f"{stem}.rows"
        self.index_path = self.directory / f"{stem}.index.json"
        self._lock_path = self.directory / f"{stem}.lock"
        self._index: dict | None = None
        self._index_stamp: tuple[int, int] | None = None
        self._rows: np.ndarray | None = None

    # -- index ----------------------------------------------------------

    def _read_index(self) -> dict:
        try:
            doc = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(doc, dict)
            or doc.get("format") != INDEX_FORMAT
        ):
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _index_view(self, refresh: bool = False) -> dict:
        """Cached index, reloaded when the file on disk changed."""
        stamp: tuple[int, int] | None
        try:
            st = self.index_path.stat()
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            stamp = None
        index = self._index
        if refresh or index is None or stamp != self._index_stamp:
            index = self._read_index()
            self._index = index
            self._index_stamp = stamp
        return index

    def _publish_index(self, entries: dict) -> None:
        doc = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "namespace": self.namespace,
            "entries": entries,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=self.index_path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(doc, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp_name, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._index = entries
        self._index_stamp = None  # force a stat on the next read

    # -- rows -----------------------------------------------------------

    def _rows_view(self, min_rows: int) -> np.ndarray | None:
        """Memory-mapped row array covering at least ``min_rows`` rows."""
        if self._rows is not None and len(self._rows) >= min_rows:
            return self._rows
        try:
            n = os.path.getsize(self.rows_path) // ROW_DTYPE.itemsize
            if n < min_rows:
                return None
            self._rows = np.memmap(
                self.rows_path, dtype=ROW_DTYPE, mode="r", shape=(n,)
            )
        except (OSError, ValueError):
            return None
        return self._rows

    def __len__(self) -> int:
        return len(self._index_view())

    def __contains__(self, key: str) -> bool:
        return _digest(self.namespace, key) in self._index_view()

    def keys_digests(self) -> list[str]:
        return sorted(self._index_view())

    # -- store API ------------------------------------------------------

    def get(self, key: str) -> CompiledTrace | None:
        """Zero-copy lookup; ``None`` on any miss or unreadable span."""
        digest = _digest(self.namespace, key)
        entry = self._index_view().get(digest)
        if entry is None:
            # Another process may have published since our last stat.
            entry = self._index_view(refresh=True).get(digest)
        return self._resolve(entry)

    def _resolve(self, entry: object) -> CompiledTrace | None:
        """The trace an index entry points at, ``None`` when it points
        at nothing readable (malformed entry, span past the container
        end, label/row-count mismatch)."""
        if not isinstance(entry, dict):
            return None
        try:
            offset = int(entry["offset"])
            count = int(entry["count"])
            labels = tuple(str(s) for s in entry["labels"])
        except (KeyError, TypeError, ValueError):
            return None
        if offset < 0 or count < 0:
            return None
        rows = self._rows_view(offset + count)
        if rows is None:
            return None
        try:
            return CompiledTrace.from_rows(
                rows[offset:offset + count], labels
            )
        except ValueError:
            return None

    def put(self, key: str, compiled: CompiledTrace) -> None:
        """Append ``compiled`` under ``key``.

        First writer wins for an entry that still resolves; an indexed
        entry that no longer does (see :meth:`_resolve`) counts as
        absent, so the append + republish below heals it.
        """
        digest = _digest(self.namespace, key)
        with self._writer_lock():
            entries = dict(self._index_view(refresh=True))
            if self._resolve(entries.get(digest)) is not None:
                return
            rows = compiled.to_rows()
            with open(self.rows_path, "ab") as f:
                end = f.tell()
                if end % ROW_DTYPE.itemsize:
                    # A writer died mid-append before publishing; the
                    # torn tail is unreferenced, so reclaim it.
                    end -= end % ROW_DTYPE.itemsize
                    f.truncate(end)
                    f.seek(end)
                offset = end // ROW_DTYPE.itemsize
                f.write(rows.tobytes())
                f.flush()
                os.fsync(f.fileno())
            entries[digest] = {
                "offset": offset,
                "count": len(rows),
                "labels": list(compiled.labels),
            }
            self._publish_index(entries)

    def _writer_lock(self) -> _FileLock:
        return _FileLock(self._lock_path)


class _FileLock:
    """Exclusive advisory lock serializing writers on one namespace."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fh: TextIO | None = None

    def __enter__(self) -> _FileLock:
        if fcntl is not None:
            self._fh = open(self.path, "w")
            fcntl.flock(self._fh, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._fh is not None:
            fcntl.flock(self._fh, fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None
        return False
