"""Simulated compliance (WORM) storage server.

Models the file-level interface of the compliance storage servers the paper
targets (IBM/EMC/NetApp SnapLock-class boxes):

* files are **term-immutable**: once written, their bytes can never be
  changed, and they cannot be deleted before their retention period ends;
* **append-only log files** are supported ("We assume the server allows us
  to append to files, so that it can hold logs") — existing bytes stay
  immutable, new bytes may be appended until the file is sealed;
* file **create times** come from a trusted Compliance Clock ("we trust the
  WORM server to correctly record the create times of files").

The server persists file bytes under a root directory and its trusted
metadata in an append-only journal inside that directory.  The threat model
*trusts* this server — the adversary edits the read/write media where the
database lives, not the WORM box — so enforcement at this API layer is the
faithful simulation: any attempt to overwrite, truncate, or early-delete
raises :class:`~repro.common.errors.WormViolationError` exactly as the real
box would reject the request.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, List, Optional, Sequence, TextIO, Tuple

from ..common.clock import SimulatedClock
from ..common.errors import (WormError, WormFileExistsError,
                             WormFileNotFoundError, WormViolationError)
from ..obs import DEFAULT_SIZE_BUCKETS, Observability

_NAME_RE = re.compile(r"^[A-Za-z0-9._\-]+(/[A-Za-z0-9._\-]+)*$")
_META_JOURNAL = "__worm_meta__.jsonl"
#: top-level directory -> ``file_class`` label of worm_file_bytes_total
_FILE_CLASSES = {"clog": "clog", "txnlog": "txnlog",
                 "snapshots": "snapshot", "witness": "witness",
                 "hist": "hist"}


def _file_class(name: str) -> str:
    """Which of the database's WORM file kinds a name belongs to.

    ``aux`` is the compliance log's stamp index beside each ``clog``
    epoch; names outside the database's layout are ``other``.
    """
    top = name.partition("/")[0]
    if top == "clog" and name.endswith(".aux"):
        return "aux"
    return _FILE_CLASSES.get(top, "other")


@dataclass
class WormFileMeta:
    """Trusted metadata the WORM server keeps per file."""

    name: str
    create_time: int
    retention_until: int
    appendable: bool
    sealed: bool
    size: int


class WormServer:
    """A term-immutable file store with a trusted clock.

    Parameters
    ----------
    root:
        Directory that holds the simulated WORM volume.
    clock:
        The trusted Compliance Clock.  Sharing the harness's
        :class:`SimulatedClock` is faithful: the paper trusts the WORM
        server's clock as authoritative.
    default_retention:
        Retention period (microseconds) applied when a file is created
        without an explicit one.
    """

    def __init__(self, root: "os.PathLike[str]", clock: SimulatedClock,
                 default_retention: int, fsync: bool = False,
                 obs: Optional[Observability] = None):
        if default_retention <= 0:
            raise WormError("default_retention must be positive")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._default_retention = default_retention
        self._fsync = fsync
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._c_appends = registry.counter(
            "worm_appends_total",
            help="append() calls that carried data")
        self._c_buffered = registry.counter(
            "worm_buffered_appends_total",
            help="appends that only landed in the in-memory buffer")
        self._c_flushes = registry.counter(
            "worm_flushes_total",
            help="physical write+flush round-trips to the volume")
        self._c_file_writes = registry.counter(
            "worm_file_writes_total",
            help="per-file extents written; one round-trip may carry "
                 "several files")
        self._c_fsyncs = registry.counter(
            "worm_fsyncs_total", help="fsync() system calls issued")
        self._c_bytes = registry.counter(
            "worm_bytes_written_total",
            help="bytes physically written to the WORM volume")
        self._h_flush_bytes = registry.histogram(
            "worm_flush_bytes", buckets=DEFAULT_SIZE_BUCKETS,
            help="bytes per physical WORM flush (group-commit batch)")
        self._files: Dict[str, WormFileMeta] = {}
        #: open handles for append-only files (hot path: the compliance
        #: log receives one append per record)
        self._append_handles: Dict[str, IO[bytes]] = {}
        #: group-commit buffers: per-file chunks appended with
        #: ``durable=False`` that have not yet been written out.  A
        #: simulated crash drops them (:meth:`drop_buffers`), exactly as
        #: unsent network writes to a real WORM box would vanish.
        self._buffers: Dict[str, List[bytes]] = {}
        self._buffered_len: Dict[str, int] = {}
        self._journal_path = self._root / _META_JOURNAL
        self._journal_handle: Optional[TextIO] = None
        self._replay_journal()

    # -- clock ---------------------------------------------------------------

    def now(self) -> int:
        """The trusted Compliance Clock's current time."""
        return self._clock.now()

    # -- creation ------------------------------------------------------------

    def create_file(self, name: str, data: bytes = b"",
                    retention: Optional[int] = None) -> WormFileMeta:
        """Commit an immutable file.  Its bytes can never change again.

        Empty ``data`` is allowed — the compliance plugin creates one empty
        *witness* file per regret interval to prove the DBMS was alive.
        """
        meta = self._create(name, retention, appendable=False)
        if data:
            # immutable bytes go through the same write+flush path as
            # append-file data so ``fsync`` is honoured and the flush
            # counters see them
            self._write_out([(name, bytes(data))])
            meta.size = len(data)
            handle = self._append_handles.pop(name, None)
            if handle is not None:
                handle.close()
        return meta

    def create_append_file(self, name: str,
                           retention: Optional[int] = None) -> WormFileMeta:
        """Create an append-only log file (e.g. the compliance log ``L``)."""
        return self._create(name, retention, appendable=True)

    def _create(self, name: str, retention: Optional[int],
                appendable: bool) -> WormFileMeta:
        self._check_name(name)
        if name in self._files:
            raise WormFileExistsError(f"WORM file {name!r} already exists")
        period = self._default_retention if retention is None else retention
        if period <= 0:
            raise WormError("retention must be positive")
        created = self._clock.now()
        meta = WormFileMeta(name=name, create_time=created,
                            retention_until=created + period,
                            appendable=appendable, sealed=not appendable,
                            size=0)
        path = self._path_for(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        self._files[name] = meta
        self._journal("create", name, create_time=created,
                      retention_until=meta.retention_until,
                      appendable=appendable)
        return meta

    # -- append --------------------------------------------------------------

    def append(self, name: str, data: bytes, durable: bool = True) -> int:
        """Append bytes to an append-only file; returns the write offset.

        Existing bytes are untouchable; appending to a sealed or regular
        file is a WORM violation.

        With ``durable=False`` the bytes only accumulate in an in-memory
        buffer — they are readable and count toward the file's size, but
        a crash before the next :meth:`sync` loses them.  This is the
        group-commit mode the compliance log uses; callers are
        responsible for placing :meth:`sync` barriers wherever the
        protocol requires durability.
        """
        meta = self._require(name)
        if not meta.appendable or meta.sealed:
            raise WormViolationError(
                f"cannot append to sealed/immutable WORM file {name!r}")
        offset = meta.size
        if data:
            data = bytes(data)
            self._c_appends.inc()
            if durable:
                # ordering: earlier buffered appends land first — in the
                # *same* physical write+flush as the new bytes, so a
                # durable append after N buffered ones costs one
                # round-trip, not two
                self._write_out([(name, self._take_buffer(name) + data)])
            else:
                self._buffers.setdefault(name, []).append(data)
                self._buffered_len[name] = \
                    self._buffered_len.get(name, 0) + len(data)
                self._c_buffered.inc()
            meta.size += len(data)
        return offset

    def sync(self, name: str) -> bool:
        """Durability barrier: write out a file's buffered appends.

        Returns True if anything was actually flushed.  One ``sync``
        after N buffered appends costs a single write+flush round-trip —
        the group-commit batching win.
        """
        self._require(name)
        return self._sync_files([name]) > 0

    def sync_all(self) -> int:
        """Group barrier: every file's buffered appends in ONE round-trip.

        The compliance log, its stamp index and the WAL mirror each
        buffer into their own file; a barrier that drains them together
        costs one write+flush to the box, not one per file.  Returns
        the number of files written.
        """
        return self._sync_files(list(self._buffers))

    def _sync_files(self, names: Sequence[str]) -> int:
        writes = [(name, blob) for name in names
                  if (blob := self._take_buffer(name))]
        if writes:
            self._write_out(writes)
        return len(writes)

    def _take_buffer(self, name: str) -> bytes:
        """Detach a file's buffered appends as one blob (empty if none)."""
        chunks = self._buffers.get(name)
        if not chunks:
            return b""
        blob = b"".join(chunks)
        chunks.clear()
        self._buffered_len[name] = 0
        return blob

    def buffered(self, name: str) -> int:
        """Bytes currently buffered (not yet durable) for a file."""
        self._require(name)
        return self._buffered_len.get(name, 0)

    def drop_buffers(self) -> int:
        """Crash simulation: all un-synced appends vanish.

        File sizes roll back to their durable extents, matching what a
        re-opened server would recover from the volume.  Returns the
        number of bytes dropped.
        """
        dropped = 0
        for name, chunks in self._buffers.items():
            lost = self._buffered_len.get(name, 0)
            if lost:
                self._files[name].size -= lost
                dropped += lost
            chunks.clear()
            self._buffered_len[name] = 0
        return dropped

    def _write_out(self, writes: Sequence[Tuple[str, bytes]]) -> None:
        """One physical round-trip carrying one extent per file.

        The box takes the request whole — the simulated crash primitive
        falls between operations, never inside a round-trip — so a
        multi-file barrier is one flush however many files it touches.
        """
        total = sum(len(blob) for _, blob in writes)
        with self.obs.tracer.span("worm.flush", files=len(writes),
                                  bytes=total):
            for name, blob in writes:
                handle = self._append_handles.get(name)
                if handle is None:
                    handle = open(self._path_for(name), "ab")
                    self._append_handles[name] = handle
                handle.write(blob)
                handle.flush()
                self.obs.registry.counter(
                    "worm_file_bytes_total",
                    help="bytes physically written to the WORM volume, "
                         "by file class; sums to worm_bytes_written_total",
                    file_class=_file_class(name)).inc(len(blob))
                if self._fsync:
                    os.fsync(handle.fileno())
                    self._c_fsyncs.inc()
            self._c_flushes.inc()
            self._c_file_writes.inc(len(writes))
            self._c_bytes.inc(total)
            self._h_flush_bytes.observe(total)

    def seal(self, name: str) -> None:
        """Permanently close an append-only file (idempotent).

        The audit seals the current compliance-log epoch before opening a
        fresh one (Section IV: "the current file for L is permanently
        closed, a new one is opened").
        """
        meta = self._require(name)
        if not meta.sealed:
            self.sync(name)
            meta.sealed = True
            handle = self._append_handles.pop(name, None)
            if handle is not None:
                handle.close()
            self._journal("seal", name)

    # -- read ----------------------------------------------------------------

    def read(self, name: str, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        """Read (part of) a file's bytes, including buffered appends.

        Reads are clamped at ``meta.size``: an explicit ``length`` can
        never return bytes beyond the size the trusted metadata records,
        even if the underlying volume file has been padded out-of-band.
        """
        meta = self._require(name)
        offset = max(0, offset)
        end = meta.size if length is None \
            else min(offset + max(0, length), meta.size)
        if offset >= end:
            return b""
        parts: List[bytes] = []
        durable_size = meta.size - self._buffered_len.get(name, 0)
        if offset < durable_size:
            with open(self._path_for(name), "rb") as handle:
                handle.seek(offset)
                parts.append(handle.read(min(end, durable_size) - offset))
        if end > durable_size:
            buffered = b"".join(self._buffers.get(name, ()))
            parts.append(buffered[max(0, offset - durable_size):
                                  end - durable_size])
        return b"".join(parts)

    def size(self, name: str) -> int:
        """Logical size of a file in bytes (durable + buffered appends)."""
        return self._require(name).size

    def exists(self, name: str) -> bool:
        """Whether a file exists on the WORM volume."""
        return name in self._files

    def meta(self, name: str) -> WormFileMeta:
        """Trusted metadata for a file (copy)."""
        meta = self._require(name)
        return WormFileMeta(**vars(meta))

    def list_files(self, prefix: str = "") -> List[str]:
        """Names of all files, optionally filtered by prefix, sorted."""
        return sorted(n for n in self._files if n.startswith(prefix))

    # -- deletion ------------------------------------------------------------

    def delete(self, name: str) -> None:
        """Delete a file **only if** its retention period has ended.

        The unit of deletion on WORM is the whole file (Section VIII).
        """
        meta = self._require(name)
        if self._clock.now() < meta.retention_until:
            raise WormViolationError(
                f"WORM file {name!r} is under retention until "
                f"{meta.retention_until} (now {self._clock.now()})")
        handle = self._append_handles.pop(name, None)
        if handle is not None:
            handle.close()
        self._buffers.pop(name, None)
        self._buffered_len.pop(name, None)
        self._path_for(name).unlink(missing_ok=True)
        del self._files[name]
        self._journal("delete", name)

    def is_expired(self, name: str) -> bool:
        """Whether a file's retention period has ended."""
        return self._clock.now() >= self._require(name).retention_until

    # -- internals -----------------------------------------------------------

    def _require(self, name: str) -> WormFileMeta:
        try:
            return self._files[name]
        except KeyError:
            raise WormFileNotFoundError(
                f"no WORM file named {name!r}") from None

    def _check_name(self, name: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise WormError(f"invalid WORM file name {name!r}")
        if any(part in (".", "..") for part in name.split("/")):
            raise WormError(f"invalid WORM file name {name!r}")
        if name == _META_JOURNAL:
            raise WormError("reserved WORM file name")

    def _path_for(self, name: str) -> Path:
        return self._root / name

    def _journal(self, op: str, name: str, **extra: object) -> None:
        entry: Dict[str, object] = {"op": op, "name": name}
        entry.update(extra)
        if self._journal_handle is None:
            self._journal_handle = open(self._journal_path, "a",
                                        encoding="utf-8")
        self._journal_handle.write(json.dumps(entry) + "\n")
        self._journal_handle.flush()

    def _replay_journal(self) -> None:
        if not self._journal_path.exists():
            return
        with open(self._journal_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                op, name = entry["op"], entry["name"]
                if op == "create":
                    self._files[name] = WormFileMeta(
                        name=name, create_time=entry["create_time"],
                        retention_until=entry["retention_until"],
                        appendable=entry["appendable"],
                        sealed=not entry["appendable"], size=0)
                elif op == "seal":
                    self._files[name].sealed = True
                elif op == "delete":
                    self._files.pop(name, None)
        # file sizes are recovered from the files themselves — the data
        # is its own durable record; the journal holds only trusted
        # metadata (create times, retention, seals)
        for name, meta in self._files.items():
            path = self._path_for(name)
            meta.size = path.stat().st_size if path.exists() else 0
