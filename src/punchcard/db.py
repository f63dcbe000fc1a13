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

The spent secrets sit in three parts, none repeating another's: the
base, the sorted 32-byte records of the last snapshot, found by
bisecting a list of every 64th record (the fence) and searching one
block; the logged tier, the secrets the log inserts, replayed at
start-up into sorted records of the same form; and the overlay, the
secrets accepted since the open or the last rebuild. The overlay is the
only part that grows in memory while the server runs, so it appends
each secret as a 32-byte record to one of a fixed number of bytearrays,
chosen by the secret's hash: about 35 B per secret, where a set of
bytes objects takes about 110. A lookup tries the overlay, then the
tier, then the base. The replay reads the log a window at a time,
carrying a record cut by the window's end over to the next, and sorts
the secrets each window inserts into a run as soon as the window is
parsed, appended to an unlinked scratch file beside the log. One
streaming merge then joins the runs a stripe at a time, each secret
once, into the tier, in an unlinked scratch file of its own; so the
replay holds one window's or one stripe's secrets as objects, never the
log's, and the open store holds only the tier's fence, in the manner of
an LSM tree's flush and merge to an on-disk level (O'Neil et al., "The
log-structured merge-tree", 1996). Compaction, purge and preload are one
rebuild by the same merge, of the base, the tier and runs of the
overlay, sorted a sixteenth of its buckets at a time and spilled, with
a run of the preloaded secrets, to one scratch file; it streams each
stripe into the new snapshot, whose header, holding the record count,
is written last; so it holds a few stripes, never the whole snapshot,
tier or overlay as objects. Every level is on disk: the store keeps only
the fences of the base and the tier in memory and reads a block with
one pread of the snapshot or the tier's file, which costs 32 B of disk
per logged secret while the store is open, and twice that while it
opens. A store opened without a path keeps its log and snapshot in a
private temporary directory, without fsync, removed at close() or once
nothing holds the store. Every base comes from one loader,
which checks in one pass that the records strictly increase: at
start-up, and in each rebuild, on the temp file before it is renamed
over the snapshot, so a snapshot the loader refuses never replaces the
one on disk. Only this store replaces the snapshot, by rename under its
lock, and the loaded descriptor follows the file through it, so a
lookup reads the bytes the load checked; a block that reads back
otherwise fails the lookup with OSError, as does a block of the tier.
All writes happen under one lock; lookups take none.
"""

from __future__ import annotations

import bisect
import contextlib
import errno
import fcntl
import functools
import itertools
import operator
import os
import shutil
import struct
import tempfile
import threading
import time
import weakref
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .core import SECRET_SIZE
from .errors import DbBusy, DbCorruption
from .faults import fault_point

_SNAP_MAGIC = b"PCDB\x01"
_SNAP_HEAD = len(_SNAP_MAGIC) + 8  # magic, then <II: spent and claim counts
_REC_INSERT = 1
_REC_CLAIM_ADD = 2
_REC_CLAIM_TAKE = 3
_MAX_PER_RECORD = 255  # the insert record's count is one byte; 0 ends replay
_MAX_RECORD = 2 + _MAX_PER_RECORD * SECRET_SIZE  # the longest log record
_WINDOW = 1 << 18  # log bytes replay reads at a time
_RUN = 1024  # like insert records replayed in one go; more costs peak memory
_STEP = 4096 * SECRET_SIZE  # bytes the loader reads at a time
_BLOCK = 64  # records per fence entry of a _Sorted
_BLOCK_BYTES = _BLOCK * SECRET_SIZE
_PIECE = 8 * _BLOCK_BYTES  # bytes _spill writes at a time
_STRIPE = 64  # fence records per stripe of the replay's merge
_SECRET_FMT = f"{SECRET_SIZE}s"  # one record, as a struct field
_END = b"\xff" * (SECRET_SIZE + 1)  # sorts after every record
_BUCKETS = 4096  # the overlay's buckets, a power of two
# one block's records; compiled once, where struct.unpack would compile
# and cache a format for each length of chunk it is given
_BLOCK_STRUCT = struct.Struct(_SECRET_FMT * _BLOCK)


def _records(chunk: bytes) -> List[bytes]:
    """The records of `chunk`, one bytes object each: its whole blocks
    unpacked by _BLOCK_STRUCT, then the records of the short tail."""
    whole = len(chunk) - len(chunk) % _BLOCK_STRUCT.size
    recs = []
    for block in _BLOCK_STRUCT.iter_unpack(memoryview(chunk)[:whole]):
        recs += block
    recs += (chunk[i : i + SECRET_SIZE] for i in range(whole, len(chunk), SECRET_SIZE))
    return recs


class _Sorted:
    """Spent secrets as sorted records in a file, plus a fence: the first
    record of each block of _BLOCK, which bisect searches in C before one
    block is read. The records sit in the file from offset `head` on,
    read a block at a time with one pread of the descriptor `fd`, so
    only the fence (about 1.3 B per secret) is kept: the body of a
    snapshot (the base), or an unlinked scratch file (the logged tier,
    or a run of the replay or a rebuild; see _spill). An empty part is
    _Sorted([], 0), with no file. The file is trusted to hold the bytes
    written or checked (see the module docstring); a block that reads
    back short or without its fence record raises OSError, as a read
    error does. Immutable once another thread can see it, so a rebuild
    swaps in a new one and a lookup never sees half of each. `close`, if
    given, releases the descriptor: once nothing holds the object, or at
    close()."""

    __slots__ = ("fence", "size", "head", "_fd", "_closer", "__weakref__")

    def __init__(self, fence: List[bytes], size: int, fd: Optional[int] = None,
                 head: int = 0, close: Optional[Callable[[], None]] = None):
        self.fence = fence
        self.size = size  # bytes of records
        self.head = head  # the file offset of the first record
        self._fd = fd
        self._closer = None if close is None else weakref.finalize(self, close)

    def __len__(self) -> int:
        return self.size // SECRET_SIZE

    def __contains__(self, u: bytes) -> bool:
        block = bisect.bisect_right(self.fence, u) - 1
        if block < 0 or len(u) != SECRET_SIZE:
            return False
        return _has_record(self.read(block * _BLOCK_BYTES, _BLOCK_BYTES), u)

    def read(self, offset: int, size: int) -> bytes:
        """Up to `size` bytes of records from `offset`, the start of a
        block, checked against the fence."""
        size = min(size, self.size - offset)
        if size <= 0:
            return b""  # an empty part has no file to read
        data = os.pread(self._fd, size, self.head + offset)
        if len(data) != size or not data.startswith(self.fence[offset // _BLOCK_BYTES]):
            raise OSError(errno.EIO, "a block of spent secrets does not read back as stored")
        return data

    def close(self) -> None:
        """Close the descriptor now; a later read fails with EBADF."""
        if self._closer is not None:
            self._fd = -1  # never a number the next open reuses
            self._closer()


def _has_record(data, u: bytes) -> bool:
    """Whether u is a whole record of data. An append to a bytearray
    moves none of its records, and each find is one C call, so a bucket
    that grows meanwhile is searched correctly."""
    at = data.find(u)
    while at != -1 and at % SECRET_SIZE:  # a match across two records
        at = data.find(u, at + 1)
    return at != -1


class _Overlay:
    """The secrets accepted since the open or the last rebuild, each
    appended as a 32-byte record to one of _BUCKETS bytearrays, chosen by
    its hash: about 35 B per secret. hash() of bytes is keyed per
    process, so a client cannot aim its secrets at one bucket. Only the
    store's writer appends, under its lock, and nothing else changes a
    bucket until a rebuild replaces the whole overlay, so a lock-free
    lookup searches a bucket whole."""

    __slots__ = ("_buckets", "_len")

    def __init__(self):
        self._buckets = [None] * _BUCKETS  # each made at its first insert
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __contains__(self, u: bytes) -> bool:
        if len(u) != SECRET_SIZE:
            return False  # a shorter needle could match inside a record
        bucket = self._buckets[hash(u) & (_BUCKETS - 1)]
        return bucket is not None and _has_record(bucket, u)

    def runs(self, file) -> Iterator[_Sorted]:
        """The records as sorted runs spilled to `file`, one per sixteenth
        of the buckets, so only one sixteenth of them are objects at a time."""
        step = max(_BUCKETS // 16, 1)
        for k in range(0, _BUCKETS, step):
            group = filter(None, self._buckets[k : k + step])
            yield _run([u for bucket in group for u in _records(bucket)], file)

    def add(self, u: bytes) -> None:
        """Append u, a SECRET_SIZE-byte secret not yet held."""
        k = hash(u) & (_BUCKETS - 1)
        if self._buckets[k] is None:
            self._buckets[k] = bytearray(u)
        else:
            self._buckets[k] += u
        self._len += 1


def _unique(recs: List[bytes]) -> Iterator[bytes]:
    """The sorted records, each once: those unlike the one before."""
    return itertools.compress(recs, map(operator.ne, recs, itertools.chain((b"",), recs)))


def _pieces(records: Iterable[bytes]) -> Iterator[bytes]:
    """The records joined into pieces of _PIECE bytes, the last one
    shorter; the iterable is read one piece's records at a time."""
    records, n = iter(records), _PIECE // SECRET_SIZE
    return iter(lambda: b"".join(itertools.islice(records, n)), b"")


def _spill(records: Iterable[bytes], file, close: Optional[Callable[[], None]] = None) -> _Sorted:
    """The sorted records appended to `file`, an unlinked scratch file
    (see RedeemDb._scratch_file), a piece at a time, as a _Sorted that
    keeps only their fence and reads a block with one pread. A write that
    fails raises; `close` is passed on to the _Sorted."""
    head, fence, size = file.tell(), [], 0
    for piece in _pieces(records):
        fence += [piece[i : i + SECRET_SIZE] for i in range(0, len(piece), _BLOCK_BYTES)]
        size += file.write(piece)
    file.flush()  # the preads read the file, not the buffer
    return _Sorted(fence, size, fd=file.fileno(), head=head, close=close)


def _run(recs: List[bytes], file, seen: Optional[_Sorted] = None) -> _Sorted:
    """The records sorted (in place), without those in `seen`, and
    spilled to `file`. A run may repeat a record; the merge drops it."""
    recs.sort()
    if seen is not None:
        recs = itertools.filterfalse(seen.__contains__, recs)
    return _spill(recs, file)


def _merge(
    runs: List[_Sorted], drop: Optional[Callable[[bytes], bool]] = None
) -> Iterator[Iterable[bytes]]:
    """The records of the runs (each sorted) in order, each once and
    without those drop(u) accepts, yielded a stripe at a time. The
    stripes end at bounds, every _STRIPE-th record of the runs' fences
    in order. For each bound, every block of every run that starts below
    it is read whole; its records are sorted with those held from the
    last stripe, those below the bound are yielded, each once, and the
    rest are held. A block that starts at or above the bound holds no
    record below it, so every copy of a record is read by the time its
    stripe is yielded. The runs are only read, so lookups may read them
    meanwhile."""
    bounds = sorted(itertools.chain.from_iterable(r.fence for r in runs))[_STRIPE::_STRIPE]
    bounds.append(_END)
    done = [0] * len(runs)  # bytes of each run read
    held = []  # records read at or past the last bound
    for bound in bounds:
        chunks = []
        for k, run in enumerate(runs):
            upto = min(bisect.bisect_left(run.fence, bound) * _BLOCK_BYTES, run.size)
            if upto > done[k]:
                chunks.append(run.read(done[k], upto - done[k]))
                done[k] = upto
        recs = held
        recs += _records(b"".join(chunks))
        recs.sort()  # the held records and one slice per run, each sorted
        cut = bisect.bisect_left(recs, bound)
        held = recs[cut:]
        kept = _unique(recs[:cut])
        yield kept if drop is None else itertools.filterfalse(drop, kept)


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


# a lock per path that write_durably has written, shared by every caller
# in the process, since any two of them may write one path
_WRITERS: dict = {}


def write_durably(path: str, write: Callable, point: str, mode=0o666):
    """Call write(f) on a buffered binary file f (which it may seek) open
    on path + '.tmp', fsync that, rename it over path and fsync the
    directory, and return what write returned: path holds its old content
    or all of the new, and the rename survives a crash. A writer or an
    fsync that raises leaves path as it was and removes the temp file;
    the snapshot's writer loads the temp file before the rename, so a
    snapshot its loader refuses never replaces path. The temp file is
    always created afresh with `mode` (less the umask): one a crash left
    is removed first, so its mode never carries over. The writers of one
    path in a process take turns, so none removes or renames another's
    temp file. Fault points `point`.replace and `point`.dirsync come
    just before the rename and the directory fsync."""
    tmp = path + ".tmp"
    # setdefault is atomic, so two first writers of a path get one lock;
    # reentrant, so a nested write of the path in one thread (from a fault
    # hook) runs unserialised, as before, rather than hanging
    with _WRITERS.setdefault(os.path.abspath(path), threading.RLock()):
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with os.fdopen(fd, "wb") as f:
                written = write(f)
                f.flush()
                os.fsync(f.fileno())
        except Exception:  # not FaultInjected: a simulated crash leaves the file
            os.remove(tmp)
            raise
        fault_point(point + ".replace")
        os.replace(tmp, path)
        fault_point(point + ".dirsync")
        _sync_directory(path)
    return written


def _remove_private(log, directory: str) -> None:
    """Close a private store's log and remove its directory."""
    log.close()
    shutil.rmtree(directory, ignore_errors=True)


class RedeemDb:
    """`path` is the log file and `path + '.snap'` the snapshot. The log
    stays locked until close(): a second opener gets DbBusy before it
    reads a byte, since two writers could each accept the same secret.
    With no path (tests, benches) the store is private: its files sit in
    a temporary directory of its own, never fsynced, which close()
    removes, as does a finalizer once nothing holds the store."""

    def __init__(self, path: Optional[str] = None, fsync: bool = True):
        self._lock = threading.Lock()
        self._base = _Sorted([], 0)  # the spent secrets of the snapshot
        self._logged = _Sorted([], 0)  # those the log held at the open
        self._overlay = _Overlay()  # those accepted since the open or a rebuild
        self._claims = set()
        directory = None
        if path is None:
            directory = tempfile.mkdtemp(prefix="punchcard-")
            path, fsync = os.path.join(directory, "db"), False
        self._path = path
        self._snap = path + ".snap"
        self._fsync = fsync
        self._log_size = 0  # bytes in the log; only this store writes it
        self.recovery = Recovery()
        created = not os.path.exists(path)
        # unbuffered: no byte of a failed append can linger to be
        # written ahead of the next one
        self._log = open(path, "a+b", buffering=0)
        self._private = directory and weakref.finalize(self, _remove_private, self._log, directory)
        try:
            fcntl.flock(self._log, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if created:  # else the first accept could vanish with its log
                _sync_directory(path)
            self._recover()
        except BaseException as e:
            self._log.close()
            self._base.close()
            self._logged.close()
            if isinstance(e, BlockingIOError):
                raise DbBusy(f"{path} is in use by another server or purge") from None
            raise

    # -- public api --------------------------------------------------------

    def __len__(self) -> int:
        # no lock: exact except while a rebuild swaps the base in; the
        # three parts never repeat one another's secrets
        return len(self._base) + len(self._logged) + len(self._overlay)

    def __contains__(self, u: bytes) -> bool:
        # the base last: a rebuild swaps in the new base before it empties
        # the tier and the overlay, so a secret is always in one of them
        return u in self._overlay or u in self._logged or u in self._base

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
        unique = dict.fromkeys(secrets)  # a secret named twice is held once
        with self._lock:
            if any(u in self for u in unique):
                return False
            self._append(bytes([_REC_INSERT, len(secrets)]) + b"".join(secrets))
            for u in unique:
                self._overlay.add(u)
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
            before = len(self._base)
            self._rebuild(drop=predicate)
            return before - len(self._base)

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
                self._log_size = 0
                self._base.close()
                self._logged.close()
                if self._private:
                    self._private()  # removes the private store's directory

    # -- disk format -------------------------------------------------------

    def _rebuild(
        self,
        drop: Optional[Callable[[bytes], bool]] = None,
        extra: Iterable[bytes] = (),
    ) -> None:
        """Merge the base, the logged tier, the overlay's runs and a run
        of `extra`, the last two spilled to one scratch file, into a new
        base without repeats or records drop(u) accepts: stream it into a
        temp file, load that as the base and rename it over the snapshot,
        then restart the log. The merge only reads the base and the tier,
        which lookups read meanwhile. The new base is installed before
        the tier and the overlay are emptied. With nothing to merge or
        drop and an empty log (which also holds the claim records and
        every secret of the tier) the snapshot is current, and nothing is
        written."""
        if not (self._overlay or extra or drop or self._log_size):
            return
        self._check_open()
        new = list(extra)  # the merge drops repeats
        if any(len(u) != SECRET_SIZE for u in new):
            raise ValueError(f"spent secrets are {SECRET_SIZE} bytes")
        claims = sorted(self._claims)
        with self._scratch_file() as scratch:  # the overlay's and extra's runs
            runs = [self._base, self._logged, *self._overlay.runs(scratch), _run(new, scratch)]
            del new  # spilled into its run
            stripes = _merge(runs, drop)

            def write(f) -> _Sorted:
                # the header's spent count is known only once the records
                # are written, so it goes last
                f.write(bytes(_SNAP_HEAD))
                size = sum(f.write(b"".join(stripe)) for stripe in stripes)
                f.writelines(claims)
                f.seek(0)
                f.write(_SNAP_MAGIC + struct.pack("<II", size // SECRET_SIZE, len(claims)))
                f.flush()
                return self._load_snapshot(self._snap + ".tmp")

            base = write_durably(self._snap, write, "db.snapshot")
        # the log is now redundant; restart it in place
        self._log.truncate(0)
        self._log_size = 0
        os.fsync(self._log.fileno())
        # the old base's descriptor closes once no lookup holds it
        self._base = base  # before the tier and the overlay go; see __contains__
        self._logged = _Sorted([], 0)
        self._overlay = _Overlay()

    def _check_open(self) -> None:
        if self._log is None:
            raise ValueError("the spent-secret store is closed")

    def _append(self, record: bytes) -> None:
        self._check_open()
        fault_point("db.append")
        size = self._log_size
        self._log_size += len(record)
        try:
            if self._log.write(record) != len(record):
                raise OSError(f"short write to {self._path}")
            fault_point("db.fsync")
            if self._fsync:
                os.fsync(self._log.fileno())
        except Exception:  # not FaultInjected: a simulated crash keeps its bytes
            self._log.truncate(size)
            self._log_size = size
            raise

    def _recover(self) -> None:
        t0 = time.perf_counter()
        if os.path.exists(self._snap):
            self._base = self._load_snapshot(self._snap)
        with self._scratch_file() as scratch:  # the replay's runs
            records, torn = self._replay_log(scratch)
        self.recovery = Recovery(
            len(self._base), records, torn, time.perf_counter() - t0
        )

    def _load_snapshot(self, snap: str) -> _Sorted:
        """Checks in one pass of chunk reads that the spent records
        strictly increase, adds the claims, and returns the base of their
        fence and the descriptor; a search over records out of order
        could miss a spent secret. Every on-disk base is built here: at
        start-up, and in a rebuild from its temp file, before the rename."""
        fd = os.open(snap, os.O_RDONLY)

        def read(size: int, offset: int) -> bytes:
            data = os.pread(fd, size, offset)
            if len(data) != size:
                raise OSError(errno.EIO, f"short read of {snap}")
            return data

        try:
            head = os.pread(fd, _SNAP_HEAD, 0)
            if len(head) < _SNAP_HEAD or not head.startswith(_SNAP_MAGIC):
                raise DbCorruption("snapshot header is unreadable")
            n_spent, n_claims = struct.unpack_from("<II", head, len(_SNAP_MAGIC))
            size = n_spent * SECRET_SIZE
            if os.fstat(fd).st_size != _SNAP_HEAD + size + n_claims * SECRET_SIZE:
                raise DbCorruption("snapshot length does not match its header")
            fence = []
            prev = b""
            for off in range(0, size, _STEP):
                recs = _records(read(min(_STEP, size - off), _SNAP_HEAD + off))
                if not (prev < recs[0] and all(map(operator.lt, recs, recs[1:]))):
                    raise DbCorruption("snapshot records are not strictly increasing")
                fence += recs[::_BLOCK]  # a chunk is whole blocks
                prev = recs[-1]
            claims = read(n_claims * SECRET_SIZE, _SNAP_HEAD + size)
        except BaseException:
            os.close(fd)
            raise
        self._claims.update(_records(claims))
        return _Sorted(fence, size, fd=fd, head=_SNAP_HEAD, close=functools.partial(os.close, fd))

    def _scratch_file(self):
        """A new unlinked file beside the log, for records that need not
        survive the process: in the state directory's file system, never
        /tmp, which may be a tmpfs and hold them in memory after all."""
        return tempfile.TemporaryFile(dir=os.path.dirname(self._path) or ".")

    def _replay_log(self, scratch) -> Tuple[int, int]:
        """Replays the complete records of the log and truncates what
        follows them; returns how many records it replayed and how many
        bytes it dropped. The log is read a window at a time; a record
        starts only where the longest one fits before the window's end, or
        where the log ends, so a record the window cuts is carried over to
        the next. The secrets a window inserts are sorted into a run as
        soon as it is parsed, and appended to `scratch`, a scratch file;
        one merge of the runs (_merge) streams the logged tier into a
        scratch file of its own, which the tier reads from as the base
        reads the snapshot. So at most one window's or one stripe's
        secrets are objects at a time, and the tier's records stay on
        disk: about 64 B per logged secret while the store opens, and 32
        once it is open. The tier's descriptor is the one this leaves
        open, and only if the log holds a secret the snapshot lacks."""
        n_log = self._log.seek(0, os.SEEK_END)
        self._log.seek(0)
        runs = []  # the secrets each window inserts, sorted
        seen = None  # the base, if the log repeats it
        data = b""
        start = off = records = 0  # start: the log offset of data[0]
        window = _RUN
        while True:
            logged = []  # the secrets this window inserts
            more = self._log.read(_WINDOW)
            data = data[off:] + more
            start += off
            n = len(data)
            limit = n - _MAX_RECORD if more else n
            off = 0
            while off < limit:
                like = 1  # records read at once
                kind = data[off]
                if kind == _REC_INSERT:
                    if off + 2 > n:
                        break
                    count = data[off + 1]
                    size = 2 + count * SECRET_SIZE
                    end = off + size
                    if count == 0 or end > n:
                        break
                    if end + 1 < n and data[end] == kind and data[end + 1] == count:
                        # a run of like records: slice the heads of up to
                        # `window` whole records from here, and count those
                        # that lead with this head
                        stop = off + min((n - off) // size, window) * size
                        kinds = data[off:stop:size].lstrip(data[off : off + 1])
                        counts = data[off + 1 : stop : size].lstrip(data[off + 1 : off + 2])
                        like = (stop - off) // size - max(len(kinds), len(counts))
                        end = off + like * size
                        # probe about twice this run next: a log of short runs
                        # must not slice _RUN heads for each of them
                        window = min(2 * like + 8, _RUN)
                    logged += struct.unpack_from(("2x" + _SECRET_FMT * count) * like, data, off)
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
                off = end
                records += like
            if logged:
                if not runs and logged[0] in self._base:
                    # A log repeats the snapshot only after a crash between
                    # a rebuild's snapshot replace and its log restart; that
                    # rebuild dropped nothing, so the snapshot holds every
                    # secret logged before the crash. Those after it are new.
                    seen = self._base
                runs.append(_run(logged, scratch, seen))
            if off < limit or not more:
                break  # at a record that is not whole, or at the log's end
        del logged, data  # the last window's secrets and bytes, before the merge
        if any(run.size for run in runs):
            tier = self._scratch_file()
            try:
                self._logged = _spill(itertools.chain.from_iterable(_merge(runs)), tier, tier.close)
            except BaseException:
                tier.close()
                raise
        good = start + off
        if good != n_log:
            self._log.truncate(good)  # torn tail from a crash mid-append
        self._log_size = good
        return records, n_log - good
