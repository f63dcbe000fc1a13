"""Spent-secret store.

The server needs exactly one mutable structure: the set of redeemed card
secrets (plus a side namespace of redemptions awaiting pickup). This is an
append-only log with periodic snapshot compaction:

* every accepted redemption appends one record and (by default) fsyncs
  before the caller sees True, so an accept survives a crash;
* startup loads the newest snapshot, then replays the log; a torn final
  record (partial write at crash) is discarded by truncation;
* purge() drops entries by predicate, writes a fresh snapshot, and starts
  an empty log.

All writes happen under one lock; lookups are set lookups.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Callable, Iterable, List, Optional

from .errors import DbCorruption
from .faults import fault_point

SECRET_SIZE = 32

_SNAP_MAGIC = b"PCDB\x01"
_REC_INSERT = 1
_REC_CLAIM_ADD = 2
_REC_CLAIM_TAKE = 3
_MAX_PER_RECORD = 255  # the insert record's count is one byte; 0 ends replay


def replace_durably(tmp: str, path: str, point: str) -> None:
    """os.replace(tmp, path), then fsync the directory so that the rename
    itself survives a crash. Fault points `point`.replace and
    `point`.dirsync come just before each step."""
    fault_point(point + ".replace")
    os.replace(tmp, path)
    fault_point(point + ".dirsync")
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RedeemDb:
    """path=None keeps everything in memory (tests, benches). Otherwise
    `path` is the log file and `path + '.snap'` the snapshot."""

    def __init__(self, path: Optional[str] = None, fsync: bool = True):
        self._lock = threading.Lock()
        self._spent = set()
        self._claims = set()
        self._path = path
        self._fsync = fsync
        self._log = None
        if path is not None:
            self._recover()
            self._log = open(path, "ab")

    # -- public api --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spent)

    def __contains__(self, u: bytes) -> bool:
        return u in self._spent

    def check_and_insert(self, *secrets: bytes) -> bool:
        """Insert all the secrets, or none of them. False (nothing written)
        if any is malformed or already spent. One log record holds 1 to 255
        secrets; any other number raises ValueError before anything is
        locked or written."""
        if not 0 < len(secrets) <= _MAX_PER_RECORD:
            raise ValueError(
                f"check_and_insert takes 1 to {_MAX_PER_RECORD} secrets, "
                f"got {len(secrets)}"
            )
        for u in secrets:
            if len(u) != SECRET_SIZE:
                return False
        with self._lock:
            if any(u in self._spent for u in secrets):
                return False
            self._append(bytes([_REC_INSERT, len(secrets)]) + b"".join(secrets))
            self._spent.update(secrets)
            return True

    def add_claim(self, u: bytes) -> None:
        with self._lock:
            self._append(bytes([_REC_CLAIM_ADD]) + u)
            self._claims.add(u)

    def take_claim(self, u: bytes) -> bool:
        with self._lock:
            if u not in self._claims:
                return False
            self._append(bytes([_REC_CLAIM_TAKE]) + u)
            self._claims.discard(u)
            return True

    def pending_claims(self) -> int:
        return len(self._claims)

    def purge(self, predicate: Callable[[bytes], bool]) -> int:
        """Remove spent secrets for which predicate(u) is true; compacts
        to a snapshot. Claims are never purged here."""
        with self._lock:
            doomed = [u for u in self._spent if predicate(u)]
            self._spent.difference_update(doomed)
            if self._path is not None:
                self._write_snapshot()
            return len(doomed)

    def preload(self, secrets: Iterable[bytes]) -> None:
        """Bulk-load without per-record logging (bench setup, migrations).
        On-disk stores get one snapshot at the end."""
        with self._lock:
            self._spent.update(secrets)
            if self._path is not None:
                self._write_snapshot()

    def compact(self) -> None:
        with self._lock:
            if self._path is not None:
                self._write_snapshot()

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    # -- disk format -------------------------------------------------------

    def _append(self, record: bytes) -> None:
        if self._log is None:
            return
        fault_point("db.append")
        self._log.write(record)
        self._log.flush()
        fault_point("db.fsync")
        if self._fsync:
            os.fsync(self._log.fileno())

    def _snap_path(self) -> str:
        return self._path + ".snap"

    def _write_snapshot(self) -> None:
        tmp = self._snap_path() + ".tmp"
        with open(tmp, "wb") as f:
            f.write(_SNAP_MAGIC)
            f.write(struct.pack("<II", len(self._spent), len(self._claims)))
            for u in sorted(self._spent):
                f.write(u)
            for u in sorted(self._claims):
                f.write(u)
            f.flush()
            os.fsync(f.fileno())
        replace_durably(tmp, self._snap_path(), "db.snapshot")
        # the log is now redundant; restart it
        if self._log is not None:
            self._log.close()
        with open(self._path, "wb") as f:
            f.flush()
            os.fsync(f.fileno())
        self._log = open(self._path, "ab")

    def _recover(self) -> None:
        snap = self._snap_path()
        if os.path.exists(snap):
            self._load_snapshot(snap)
        if os.path.exists(self._path):
            self._replay_log(self._path)

    def _load_snapshot(self, snap: str) -> None:
        with open(snap, "rb") as f:
            data = f.read()
        if len(data) < len(_SNAP_MAGIC) + 8 or not data.startswith(_SNAP_MAGIC):
            raise DbCorruption("snapshot header is unreadable")
        n_spent, n_claims = struct.unpack_from("<II", data, len(_SNAP_MAGIC))
        off = len(_SNAP_MAGIC) + 8
        need = off + (n_spent + n_claims) * SECRET_SIZE
        if len(data) != need:
            raise DbCorruption("snapshot length does not match its header")
        for _ in range(n_spent):
            self._spent.add(data[off : off + SECRET_SIZE])
            off += SECRET_SIZE
        for _ in range(n_claims):
            self._claims.add(data[off : off + SECRET_SIZE])
            off += SECRET_SIZE

    def _replay_log(self, path: str) -> None:
        with open(path, "rb") as f:
            data = f.read()
        off = 0
        good = 0
        while off < len(data):
            kind = data[off]
            if kind == _REC_INSERT:
                if off + 2 > len(data):
                    break
                count = data[off + 1]
                end = off + 2 + count * SECRET_SIZE
                if count == 0 or end > len(data):
                    break
                for i in range(count):
                    lo = off + 2 + i * SECRET_SIZE
                    self._spent.add(data[lo : lo + SECRET_SIZE])
            elif kind in (_REC_CLAIM_ADD, _REC_CLAIM_TAKE):
                end = off + 1 + SECRET_SIZE
                if end > len(data):
                    break
                u = data[off + 1 : end]
                if kind == _REC_CLAIM_ADD:
                    self._claims.add(u)
                else:
                    self._claims.discard(u)
            else:
                # unknown type: everything from here on is untrustworthy
                break
            off = end
            good = off
        if good != len(data):
            # torn tail from a crash mid-append; drop it
            with open(path, "r+b") as f:
                f.truncate(good)
