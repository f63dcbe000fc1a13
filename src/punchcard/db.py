"""Spent-secret store.

The server needs exactly one mutable structure: the set of redeemed card
secrets (plus a side namespace of redemptions awaiting pickup). This is an
append-only log with periodic snapshot compaction:

* every accepted redemption appends one record and (by default) fsyncs
  before the caller sees True, so an accept survives a crash; an append
  that fails is cut off again, so a refused one never spends its secret;
* startup loads the newest snapshot, then replays the log, each run of
  inserts of the same number of secrets in one unpack; a torn final
  record (partial write at crash) is discarded by truncation;
* purge() compacts, then drops entries by predicate, writes a fresh
  snapshot, and starts an empty log.

In memory the secrets of the last snapshot are one immutable bytes object
of sorted 32-byte records (the snapshot body as read, checked to be strictly
increasing), found by bisecting a list of every 64th record and scanning
one block; secrets added since (log replay, new inserts) sit in a small set
beside it that never repeats one of the blob's. Compaction, purge and
preload are one rebuild that merges the two into a new sorted blob. All
writes happen under one lock; lookups take none.
"""

from __future__ import annotations

import bisect
import contextlib
import fcntl
import operator
import os
import struct
import threading
import time
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from .core import SECRET_SIZE
from .errors import DbBusy, DbCorruption
from .faults import fault_point

_SNAP_MAGIC = b"PCDB\x01"
_SNAP_HEAD = len(_SNAP_MAGIC) + 8  # magic, then <II: spent and claim counts
_REC_INSERT = 1
_REC_CLAIM_ADD = 2
_REC_CLAIM_TAKE = 3
_MAX_PER_RECORD = 255  # the insert record's count is one byte; 0 ends replay
_RUN = 1024  # like insert records replayed in one go; more costs peak memory
_CHUNK = 4096  # records unpacked at a time when a whole blob is walked
_STEP = _CHUNK * SECRET_SIZE
_BLOCK = 64  # records per fence entry of a _Sorted
_BLOCK_BYTES = _BLOCK * SECRET_SIZE
_SECRET_FMT = f"{SECRET_SIZE}s"  # one record, as a struct field


def _records(blob: bytes, off: int) -> Tuple[bytes, ...]:
    """Up to _CHUNK records of `blob` from byte offset `off`."""
    n = min(_STEP, len(blob) - off) // SECRET_SIZE
    return struct.unpack_from(_SECRET_FMT * n, blob, off)


class _Sorted:
    """Spent secrets as one bytes object of sorted records, plus a fence:
    the first record of each block of _BLOCK, which bisect searches in C
    before one block is scanned. Immutable, so a rebuild swaps in a new
    one and a lookup never sees half of each."""

    __slots__ = ("blob", "fence")

    def __init__(self, blob: bytes = b""):
        self.blob = blob
        self.fence = [
            blob[i : i + SECRET_SIZE] for i in range(0, len(blob), _BLOCK_BYTES)
        ]

    def __len__(self) -> int:
        return len(self.blob) // SECRET_SIZE

    def __contains__(self, u: bytes) -> bool:
        block = bisect.bisect_right(self.fence, u) - 1
        if block < 0 or len(u) != SECRET_SIZE:
            return False
        lo = block * _BLOCK_BYTES
        hi = lo + _BLOCK_BYTES
        at = self.blob.find(u, lo, hi)
        while at != -1 and at % SECRET_SIZE:  # a match across two records
            at = self.blob.find(u, at + 1, hi)
        return at != -1


def _check_sorted(blob: bytes) -> None:
    """DbCorruption unless the records of `blob` strictly increase: a
    search over records out of order could miss a spent secret."""
    prev = b""
    for off in range(0, len(blob), _STEP):
        recs = _records(blob, off)
        if not (prev < recs[0] and all(map(operator.lt, recs, recs[1:]))):
            raise DbCorruption("snapshot records are not strictly increasing")
        prev = recs[-1]


def _merge(
    blob: bytes, new: List[bytes], drop: Optional[Callable[[bytes], bool]]
) -> Tuple[bytes, int]:
    """The records of `blob` and of the sorted list `new` in order, each
    once, without those drop(u) accepts; and how many drop accepted. A
    chunk of `blob` that no new record falls into and nothing is dropped
    from is copied whole."""
    view = memoryview(blob)
    pieces = []
    dropped = j = 0

    def emit(recs) -> None:
        nonlocal dropped
        if drop is not None:
            kept = [u for u in recs if not drop(u)]
            dropped += len(recs) - len(kept)
            recs = kept
        pieces.append(b"".join(recs))

    for off in range(0, len(blob), _STEP):
        end = min(off + _STEP, len(blob))
        k = bisect.bisect_right(new, blob[end - SECRET_SIZE : end], j)
        if k == j and drop is None:
            pieces.append(view[off:end])
            continue
        recs = _records(blob, off)  # new[j:k] are all <= recs[-1]
        fresh = [u for u in new[j:k] if recs[bisect.bisect_left(recs, u)] != u]
        emit(sorted(recs + tuple(fresh)) if fresh else recs)
        j = k
    emit(new[j:])
    return b"".join(pieces), dropped


class Recovery(NamedTuple):
    """What the last start-up of an on-disk store read: secrets in the
    snapshot, complete log records replayed, bytes of a torn or bad log
    tail truncated away, and the seconds it all took."""

    snapshot_entries: int = 0
    log_records: int = 0
    torn_bytes: int = 0
    seconds: float = 0.0


def _sync_directory(path: str) -> None:
    """fsync the directory holding path. A new file's name, or a rename,
    survives a crash only after this."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durably(path: str, chunks: Iterable[bytes], point: str, mode=0o666) -> None:
    """Write the chunks to path + '.tmp', fsync it, rename it over path and
    fsync the directory, so that path holds either its old content or all
    of the new, and the rename survives a crash. The temp file is always
    created afresh with `mode` (less the umask): one a crash left is
    removed first, so its mode never carries over. Fault points
    `point`.replace and `point`.dirsync come just before the rename and
    the directory fsync."""
    tmp = path + ".tmp"
    with contextlib.suppress(FileNotFoundError):
        os.remove(tmp)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    with os.fdopen(fd, "wb") as f:
        f.writelines(chunks)
        f.flush()
        os.fsync(f.fileno())
    fault_point(point + ".replace")
    os.replace(tmp, path)
    fault_point(point + ".dirsync")
    _sync_directory(path)


class RedeemDb:
    """path=None keeps everything in memory (tests, benches). Otherwise
    `path` is the log file and `path + '.snap'` the snapshot. The log stays
    locked until close(): a second opener gets DbBusy before it reads a
    byte, since two writers could each accept the same secret."""

    def __init__(self, path: Optional[str] = None, fsync: bool = True):
        self._lock = threading.Lock()
        self._base = _Sorted()  # the spent secrets of the snapshot
        self._overlay = set()  # spent secrets added since, none in the base
        self._claims = set()
        self._path = path
        self._fsync = fsync
        self._log = None
        self.recovery = Recovery()
        if path is not None:
            created = not os.path.exists(path)
            # unbuffered: no byte of a failed append can linger to be
            # written ahead of the next one
            self._log = open(path, "a+b", buffering=0)
            try:
                fcntl.flock(self._log, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if created:  # else the first accept could vanish with its log
                    _sync_directory(path)
                self._recover()
            except BaseException as e:
                self._log.close()
                if isinstance(e, BlockingIOError):
                    raise DbBusy(f"{path} is in use by another server or purge") from None
                raise

    # -- public api --------------------------------------------------------

    def __len__(self) -> int:
        # no lock: exact except while a rebuild swaps the base in
        return len(self._base) + len(self._overlay)

    def __contains__(self, u: bytes) -> bool:
        # the overlay first: a rebuild swaps in the new base before it
        # empties the overlay, so a secret is always in one or the other
        return u in self._overlay or u in self._base

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
            if any(u in self for u in secrets):
                return False
            self._append(bytes([_REC_INSERT, len(secrets)]) + b"".join(secrets))
            self._overlay.update(secrets)
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
            # empty the log first: a crash inside the dropping rebuild must
            # leave no logged secret that its snapshot lacks (see _replay_log)
            self._rebuild()
            return self._rebuild(drop=predicate)

    def preload(self, secrets: Iterable[bytes]) -> None:
        """Bulk-load without per-record logging (bench setup, migrations).
        On-disk stores get one snapshot at the end."""
        with self._lock:
            self._rebuild(extra=secrets)

    def compact(self) -> None:
        with self._lock:
            self._rebuild()

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    # -- disk format -------------------------------------------------------

    def _rebuild(
        self,
        drop: Optional[Callable[[bytes], bool]] = None,
        extra: Iterable[bytes] = (),
    ) -> int:
        """Merge the overlay (and `extra`) into a new base without repeats
        or records drop(u) accepts; on disk, write it as the snapshot and
        restart the log. Returns how many records drop accepted. With
        nothing to merge or drop and an empty log (which also holds the
        claim records) the snapshot is current, and nothing is written."""
        if not (self._overlay or extra or drop or self._log_bytes()):
            return 0
        new = sorted(self._overlay.union(extra))
        if any(len(u) != SECRET_SIZE for u in new):
            raise ValueError(f"spent secrets are {SECRET_SIZE} bytes")
        blob, dropped = _merge(self._base.blob, new, drop)
        if self._on_disk():
            self._write_snapshot(blob)
        self._base = _Sorted(blob)  # before the overlay goes; see __contains__
        self._overlay = set()
        return dropped

    def _on_disk(self) -> bool:
        """Whether writes go to files; ValueError once close() closed them."""
        if self._path is not None and self._log is None:
            raise ValueError("the spent-secret store is closed")
        return self._path is not None

    def _append(self, record: bytes) -> None:
        if not self._on_disk():
            return
        fault_point("db.append")
        size = self._log_bytes()
        try:
            if self._log.write(record) != len(record):
                raise OSError(f"short write to {self._path}")
            fault_point("db.fsync")
            if self._fsync:
                os.fsync(self._log.fileno())
        except Exception:  # not FaultInjected: a simulated crash keeps its bytes
            self._log.truncate(size)
            raise

    def _log_bytes(self) -> int:
        return 0 if self._log is None else os.fstat(self._log.fileno()).st_size

    def _snap_path(self) -> str:
        return self._path + ".snap"

    def _write_snapshot(self, blob: bytes) -> None:
        head = struct.pack("<II", len(blob) // SECRET_SIZE, len(self._claims))
        chunks = [_SNAP_MAGIC, head, blob, *sorted(self._claims)]
        write_durably(self._snap_path(), chunks, "db.snapshot")
        # the log is now redundant; restart it in place
        self._log.truncate(0)
        os.fsync(self._log.fileno())

    def _recover(self) -> None:
        t0 = time.perf_counter()
        snap = self._snap_path()
        if os.path.exists(snap):
            self._load_snapshot(snap)
        records, torn = self._replay_log()
        self.recovery = Recovery(
            len(self._base), records, torn, time.perf_counter() - t0
        )

    def _load_snapshot(self, snap: str) -> None:
        """Reads the spent records straight into the base; no copy is made."""
        with open(snap, "rb") as f:
            head = f.read(_SNAP_HEAD)
            if len(head) < _SNAP_HEAD or not head.startswith(_SNAP_MAGIC):
                raise DbCorruption("snapshot header is unreadable")
            n_spent, n_claims = struct.unpack_from("<II", head, len(_SNAP_MAGIC))
            need = _SNAP_HEAD + (n_spent + n_claims) * SECRET_SIZE
            if os.fstat(f.fileno()).st_size != need:
                raise DbCorruption("snapshot length does not match its header")
            blob = f.read(n_spent * SECRET_SIZE)
            claims = f.read(n_claims * SECRET_SIZE)
        _check_sorted(blob)
        self._base = _Sorted(blob)
        for off in range(0, len(claims), SECRET_SIZE):
            self._claims.add(claims[off : off + SECRET_SIZE])

    def _replay_log(self) -> Tuple[int, int]:
        """Replays the complete records of the log and truncates what
        follows them; returns how many records it replayed and how many
        bytes it dropped."""
        self._log.seek(0)
        data = self._log.read()
        n = len(data)
        off = good = records = 0
        first = b""  # the first secret the log inserts
        window = _RUN
        while off < n:
            run = 1
            kind = data[off]
            if kind == _REC_INSERT:
                if off + 2 > n:
                    break
                count = data[off + 1]
                size = 2 + count * SECRET_SIZE
                end = off + size
                if count == 0 or end > n:
                    break
                first = first or data[off + 2 : off + 2 + SECRET_SIZE]
                if end + 1 < n and data[end] == kind and data[end + 1] == count:
                    # a run of like records: slice the heads of up to
                    # `window` whole records from here, and count those
                    # that lead with this head
                    stop = off + min((n - off) // size, window) * size
                    kinds = data[off:stop:size].lstrip(data[off : off + 1])
                    counts = data[off + 1 : stop : size].lstrip(data[off + 1 : off + 2])
                    run = (stop - off) // size - max(len(kinds), len(counts))
                    end = off + run * size
                    # probe about twice this run next: a log of short runs
                    # must not slice _RUN heads for each of them
                    window = min(2 * run + 8, _RUN)
                self._overlay.update(
                    struct.unpack_from(("2x" + _SECRET_FMT * count) * run, data, off)
                )
            elif kind in (_REC_CLAIM_ADD, _REC_CLAIM_TAKE):
                end = off + 1 + SECRET_SIZE
                if end > n:
                    break
                u = data[off + 1 : end]
                if kind == _REC_CLAIM_ADD:
                    self._claims.add(u)
                else:
                    self._claims.discard(u)
            else:
                # unknown type: everything from here on is untrustworthy
                break
            off = good = end
            records += run
        if first in self._base:
            # A log repeats the snapshot only after a crash between a
            # rebuild's snapshot replace and its log restart; that rebuild
            # dropped nothing, so the snapshot holds every secret logged
            # before the crash. Those after it are new.
            self._overlay = {u for u in self._overlay if u not in self._base}
        if good != n:
            self._log.truncate(good)  # torn tail from a crash mid-append
        return records, n - good
