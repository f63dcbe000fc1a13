import errno
import gc
import hashlib
import io
import itertools
import os
import random
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import punchcard.db
from punchcard.core import SECRET_SIZE
from punchcard.db import _RUN, RedeemDb, Recovery
from punchcard.errors import DbBusy, DbCorruption
from punchcard.faults import FaultInjected, FaultPlan, install_hook


def _secrets(rng, n):
    return [rng.randbytes(32) for _ in range(n)]


def test_a_store_opens_once_until_closed(tmp_path):
    """Two writers on one store could each accept the same secret, so a
    second open is refused before it reads or writes anything."""
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    u = random.Random(130).randbytes(32)
    assert db.check_and_insert(u)
    db.compact()
    assert db.check_and_insert(random.Random(131).randbytes(32))
    files = {name: (tmp_path / name).read_bytes() for name in ("db", "db.snap")}
    with pytest.raises(DbBusy, match="db is in use"):
        RedeemDb(path)
    assert {name: (tmp_path / name).read_bytes() for name in files} == files
    db.close()
    again = RedeemDb(path)
    assert u in again and len(again) == 2
    again.close()


def test_insert_and_reject_duplicate(tmp_path):
    db = RedeemDb(str(tmp_path / "db"))
    u = random.Random(131).randbytes(32)
    assert db.check_and_insert(u)
    assert not db.check_and_insert(u)
    assert u in db and len(db) == 1
    db.close()


def test_malformed_secret_rejected_without_write():
    db = RedeemDb()
    assert not db.check_and_insert(b"short")
    assert not db.check_and_insert(b"x" * 33)
    assert len(db) == 0


def test_insert_count_outside_one_record_raises(tmp_path):
    path = tmp_path / "db"
    db = RedeemDb(str(path))
    rng = random.Random(137)
    for bad in ([], _secrets(rng, 256)):
        with pytest.raises(ValueError, match="1 to 255 secrets"):
            db.check_and_insert(*bad)
    assert len(db) == 0 and path.read_bytes() == b""
    assert db.check_and_insert(*_secrets(rng, 255))
    db.close()
    reopened = RedeemDb(str(path))
    assert len(reopened) == 255
    reopened.close()


def test_multi_insert_is_all_or_nothing():
    rng = random.Random(132)
    db = RedeemDb()
    a, b, c = _secrets(rng, 3)
    assert db.check_and_insert(a)
    assert not db.check_and_insert(b, a)  # a already spent
    assert b not in db
    assert not db.check_and_insert(b, b"short")
    assert b not in db
    assert db.check_and_insert(b, c)
    assert b in db and c in db


def test_persistence_across_reopen(tmp_path):
    rng = random.Random(133)
    path = str(tmp_path / "db")
    secrets = _secrets(rng, 20)
    db = RedeemDb(path)
    for u in secrets:
        assert db.check_and_insert(u)
    db.close()
    db2 = RedeemDb(path)
    assert len(db2) == 20
    for u in secrets:
        assert not db2.check_and_insert(u)
    db2.close()


def test_snapshot_plus_log_recovery(tmp_path):
    rng = random.Random(134)
    path = str(tmp_path / "db")
    first, second = _secrets(rng, 5), _secrets(rng, 5)
    db = RedeemDb(path)
    for u in first:
        db.check_and_insert(u)
    db.compact()  # snapshot holds `first`, log empty
    for u in second:
        db.check_and_insert(u)  # log holds `second`
    db.close()
    db2 = RedeemDb(path)
    assert len(db2) == 10
    db2.close()


def test_torn_tail_discarded(tmp_path):
    rng = random.Random(135)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    keep = _secrets(rng, 3)
    for u in keep:
        db.check_and_insert(u)
    db.close()
    with open(path, "ab") as f:
        f.write(b"\x01\x01" + b"z" * 10)  # half a record, as a crash would leave
    db2 = RedeemDb(path)
    assert len(db2) == 3
    # and the file was healed: a third open sees the same state
    lost = rng.randbytes(32)
    assert db2.check_and_insert(lost)
    db2.close()
    db3 = RedeemDb(path)
    assert len(db3) == 4
    db3.close()


def test_unknown_record_type_truncates_rest(tmp_path):
    rng = random.Random(136)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    db.check_and_insert(rng.randbytes(32))
    db.close()
    with open(path, "ab") as f:
        f.write(b"\x09" + rng.randbytes(40))
    db2 = RedeemDb(path)
    assert len(db2) == 1
    db2.close()


def test_corrupt_snapshot_raises(tmp_path):
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    db.check_and_insert(random.Random(137).randbytes(32))
    db.compact()
    db.close()
    snap = path + ".snap"
    with open(snap, "rb") as f:
        data = f.read()
    with open(snap, "wb") as f:
        f.write(b"WRONG" + data[5:])
    with pytest.raises(DbCorruption):
        RedeemDb(path)
    with open(snap, "wb") as f:
        f.write(data[:-1])
    with pytest.raises(DbCorruption):
        RedeemDb(path)


def test_purge_and_replay(tmp_path):
    rng = random.Random(138)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    old = [bytes([0]) + rng.randbytes(31) for _ in range(5)]
    new = [bytes([9]) + rng.randbytes(31) for _ in range(5)]
    for u in old + new:
        assert db.check_and_insert(u)
    assert db.purge(lambda u: u[0] == 0) == 5
    assert len(db) == 5
    for u in old:
        assert db.check_and_insert(u)  # purged, so insertable again
    db.close()
    db2 = RedeemDb(path)
    assert len(db2) == 10
    db2.close()


def test_claims_lifecycle(tmp_path):
    rng = random.Random(139)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    u1, u2 = _secrets(rng, 2)
    db.add_claim(u1)
    db.add_claim(u2)
    assert db.pending_claims() == 2
    assert db.take_claim(u1)
    assert not db.take_claim(u1)
    db.close()
    db2 = RedeemDb(path)
    assert db2.pending_claims() == 1
    assert db2.take_claim(u2)
    db2.compact()
    db2.close()
    db3 = RedeemDb(path)
    assert db3.pending_claims() == 0
    db3.close()


def test_preload_skips_logging(tmp_path):
    rng = random.Random(140)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    db.preload(_secrets(rng, 1000))
    assert len(db) == 1000
    db.close()
    db2 = RedeemDb(path)
    assert len(db2) == 1000
    db2.close()


def test_concurrent_inserts_accept_exactly_once():
    rng = random.Random(141)
    db = RedeemDb()
    contested = _secrets(rng, 16)
    wins = [0] * len(contested)
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for i, u in enumerate(contested):
            if db.check_and_insert(u):
                wins[i] += 1

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wins == [1] * len(contested)


def test_crash_before_write_loses_nothing_after_reopen(tmp_path):
    rng = random.Random(142)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    u = rng.randbytes(32)
    with FaultPlan(fail_at=0) as plan:
        with pytest.raises(FaultInjected):
            db.check_and_insert(u)
    assert plan.hits == ["db.append"]
    db.close()
    db2 = RedeemDb(path)
    # the insert never happened, so it must be accepted now
    assert db2.check_and_insert(u)
    db2.close()


def test_crash_between_write_and_fsync_keeps_no_accept_claim(tmp_path):
    """A crash after write() but before fsync(): the caller never saw True,
    and on reopen the record is either there or not. Both are consistent;
    what is forbidden is an accept that vanishes."""
    rng = random.Random(143)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    u = rng.randbytes(32)
    with FaultPlan(fail_at=1) as plan:
        with pytest.raises(FaultInjected):
            db.check_and_insert(u)
    assert plan.hits == ["db.append", "db.fsync"]
    db.close()
    db2 = RedeemDb(path)
    first = db2.check_and_insert(u)
    second = db2.check_and_insert(u)
    assert first in (True, False) and not second
    db2.close()


def test_crash_during_snapshot_replace_preserves_state(tmp_path):
    rng = random.Random(144)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    secrets = _secrets(rng, 8)
    for u in secrets:
        db.check_and_insert(u)
    with FaultPlan(fail_at=0):
        with pytest.raises(FaultInjected):
            db.compact()
    db.close()
    db2 = RedeemDb(path)
    assert len(db2) == 8  # old snapshot+log still intact
    for u in secrets:
        assert not db2.check_and_insert(u)
    db2.close()


def test_snapshot_syncs_directory_after_replace(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("dirsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    db = RedeemDb(str(tmp_path / "db"))
    rng = random.Random(137)
    with FaultPlan() as plan:
        db.check_and_insert(*_secrets(rng, 2))
        db.compact()
        db.preload(_secrets(rng, 3))
    assert [e for e in events if e != "fsync"] == ["dirsync"] + ["replace", "dirsync"] * 2
    for i, e in enumerate(events):
        if e == "replace":
            assert events[i + 1] == "dirsync"
    assert plan.hits.count("db.snapshot.dirsync") == 2
    # a crash before the directory sync leaves the new snapshot in place
    db.check_and_insert(*_secrets(rng, 1))  # else compact() has nothing to write
    with FaultPlan(fail_at=1) as plan:
        with pytest.raises(FaultInjected):
            db.compact()
    assert plan.hits == ["db.snapshot.replace", "db.snapshot.dirsync"]
    db.close()
    db2 = RedeemDb(str(tmp_path / "db"))
    assert len(db2) == 6
    db2.close()


def test_new_store_syncs_its_directory_before_the_first_accept(tmp_path, monkeypatch):
    """A new log's directory entry is durable only once its directory is
    fsynced, so that happens before the first insert can answer True.
    Reopening an existing store syncs no directory."""
    events = []
    real_fsync = os.fsync

    def fsync(fd):
        events.append("dirsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    path = str(tmp_path / "db")
    rng = random.Random(139)
    db = RedeemDb(path)
    assert db.check_and_insert(*_secrets(rng, 1))
    assert events == ["dirsync", "fsync"]
    db.close()
    del events[:]
    db = RedeemDb(path)
    assert db.check_and_insert(*_secrets(rng, 1))
    assert events == ["fsync"]
    db.close()


# SHA-256 of the seeded store's files, written by the set-based store that
# defined the formats: a 1000-secret snapshot with a log of 5 inserts and one
# claim, then the snapshot after a purge
_PIN_SNAP = "68aea77337a8dea00aa8614f6ab0a1e1ed87dcdc4d36184541ea44f5cb5083d1"
_PIN_LOG = "2a8d79766aac7255a528c748d72bd386a82a3c33ae7f343cd0b7ce8414b5ead5"
_PIN_PURGED_SNAP = "88bfe08aa829bbf59e034bb4a37b25e20b7f295d2349862dce1fd8665159d86a"


def test_seeded_store_files_pinned(tmp_path):
    rng = random.Random(150)
    path = str(tmp_path / "db")
    preloaded = _secrets(rng, 1000)
    inserts = [_secrets(rng, k) for k in (1, 3, 1, 2, 1)]
    claim = rng.randbytes(32)
    db = RedeemDb(path, fsync=False)
    db.preload(preloaded)
    for group in inserts:
        assert db.check_and_insert(*group)
    db.add_claim(claim)
    db.close()

    def sha(name):
        with open(name, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    assert sha(path + ".snap") == _PIN_SNAP
    assert sha(path) == _PIN_LOG

    members = set(preloaded).union(*inserts)
    strangers = _secrets(rng, 50)
    db = RedeemDb(path)
    assert len(db) == len(members) == 1008
    assert all(u in db for u in members)
    assert not any(u in db for u in strangers)
    assert db.pending_claims() == 1
    assert db.purge(lambda u: u[0] < 64) == sum(u[0] < 64 for u in members)
    db.close()
    assert sha(path + ".snap") == _PIN_PURGED_SNAP
    assert os.path.getsize(path) == 0

    kept = {u for u in members if u[0] >= 64}
    db = RedeemDb(path)
    assert len(db) == len(kept)
    assert all(u in db for u in kept)
    assert not any(u in db for u in members - kept)
    assert db.take_claim(claim)
    db.close()


def test_compact_of_an_unchanged_store_writes_nothing(tmp_path):
    """A clean server stop compacts; with nothing new since the snapshot it
    leaves the snapshot (32 MB at 10^6 entries) and the log alone."""
    rng = random.Random(151)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    db.preload(_secrets(rng, 100))
    db.close()
    for name in (path, path + ".snap"):
        os.utime(name, ns=(10**9, 10**9))  # any write moves the mtime

    def files():
        return [(s.st_ino, s.st_mtime_ns, s.st_size)
                for s in map(os.stat, (path, path + ".snap"))]

    before = files()
    db = RedeemDb(path)
    with FaultPlan() as plan:
        db.compact()
        db.preload([])
    assert plan.hits == [] and files() == before
    # a claim lives only in the log, so its compaction writes
    claim = rng.randbytes(32)
    db.add_claim(claim)
    db.close()
    db = RedeemDb(path)
    db.compact()
    after = files()
    assert after[0][2] == 0 and after[1][0] != before[1][0]
    db.close()
    db = RedeemDb(path)
    assert len(db) == 100 and db.take_claim(claim)
    db.close()


def _snapshot_records(path):
    with open(path + ".snap", "rb") as f:
        data = f.read()
    n_spent = int.from_bytes(data[5:9], "little")
    return [data[13 + 32 * i : 45 + 32 * i] for i in range(n_spent)]


def test_reopen_memory_per_entry(tmp_path):
    path = str(tmp_path / "db")
    n = 10**5
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(random.Random(160), n))
    db.close()
    tracemalloc.start()
    try:
        db = RedeemDb(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n
    db.close()
    assert peak <= 48 * n, f"{peak / n:.1f} B per entry"


def test_reopen_holds_the_fence_not_the_records(tmp_path):
    """An on-disk store reads the snapshot's records from the file, so a
    reopened 10^5-entry store holds about one record per block of 64
    (the fence): at most 5 B per entry, where the records take 32."""
    path = str(tmp_path / "db")
    n = 10**5
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(random.Random(160), n))
    db.close()
    tracemalloc.start()
    try:
        db = RedeemDb(path)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n
    db.close()
    assert current <= 5 * n, f"{current / n:.1f} B per entry"


def test_compaction_streams_the_merge_into_the_snapshot(tmp_path):
    """A compaction writes each merged chunk as it makes it and the header
    last, so its peak is a few chunks, not the new snapshot: at most 16 B
    per entry of a 10^5-entry snapshot plus a 10^4-record log, where
    holding the merged records would take over 32."""
    path = str(tmp_path / "db")
    n = 10**5
    rng = random.Random(175)
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(rng, n))
    for u in _secrets(rng, n // 10):
        assert db.check_and_insert(u)
    tracemalloc.start()
    try:
        db.compact()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n + n // 10
    db.close()
    assert peak <= 16 * n, f"{peak / n:.1f} B per entry"


def _store_with_a_log_tail(path, rng, n_snapshot, n_logged):
    """A closed store of n_snapshot secrets in its snapshot and a log of
    n_logged one-secret insert records after it; returns the logged ones."""
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(rng, n_snapshot))
    db.close()
    logged = _secrets(rng, n_logged)
    with open(path, "ab") as f:
        f.write(b"".join(_insert([u]) for u in logged))
    return logged


def test_reopen_holds_the_logged_secrets_as_sorted_records(tmp_path):
    """The replay sorts each window's secrets into a run and merges the
    runs into the tier a stripe at a time: a reopened store holds at most
    40 B per logged secret and peaks under 100, where a set of them holds
    over 100."""
    path = str(tmp_path / "db")
    n = 10**5
    logged = _store_with_a_log_tail(path, random.Random(180), 10**4, n)
    tracemalloc.start()
    try:
        db = RedeemDb(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.recovery.log_records == n and len(db) == 10**4 + n
    assert all(u in db for u in logged[::97])
    db.close()
    assert current <= 40 * n, f"{current / n:.1f} B per logged secret"
    assert peak <= 100 * n, f"{peak / n:.1f} B per logged secret (peak)"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_reopen_keeps_the_logged_tier_on_disk(tmp_path):
    """The replay spills the logged tier to an unlinked file beside the
    log and keeps only its fence, as the base does the snapshot's: a
    reopened store of 10^4 snapshot records and a 10^5-record log holds
    at most 5 B per logged secret, where the tier in memory took about
    34. It finds every logged secret through one descriptor more than
    the store without a log holds; close() releases it, and so do an
    open whose spill fails, in a window's run or in the tier, and a
    compaction, which drops the tier."""
    n = 10**5
    rng = random.Random(191)
    path, bare = str(tmp_path / "db"), str(tmp_path / "bare")
    logged = _store_with_a_log_tail(path, rng, 10**4, n)
    _store_with_a_log_tail(bare, rng, 10**4, 0)
    fds = _open_fds()
    db = RedeemDb(bare)
    without_a_log = _open_fds() - fds
    db.close()
    tracemalloc.start()
    try:
        db = RedeemDb(path)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _open_fds() - fds == without_a_log + 1
    assert db.recovery.log_records == n and len(db) == 10**4 + n
    assert all(u in db for u in logged)
    db.close()
    assert _open_fds() == fds
    assert current <= 5 * n, f"{current / n:.1f} B per logged secret"
    real = punchcard.db._pieces
    # the runs take about 200 pieces of 512 records, then the tier as many
    for full_at in (3, 350):
        written = itertools.count()

        def pieces(records):
            for piece in real(records):
                if next(written) == full_at:
                    raise OSError(errno.ENOSPC, "no space left for the spill")
                yield piece

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(punchcard.db, "_pieces", pieces)
            with pytest.raises(OSError, match="no space left"):
                RedeemDb(path)
        assert next(written) > full_at and _open_fds() == fds
    db = RedeemDb(path)
    assert len(db) == 10**4 + n and all(u in db for u in logged[::97])
    db.compact()  # drops the tier, and its descriptor with it
    assert _open_fds() - fds == without_a_log and all(u in db for u in logged[::97])
    db.close()


def test_compaction_sorts_the_overlay_a_sixteenth_at_a_time(tmp_path):
    """A rebuild sorts the overlay one sixteenth of its buckets at a time
    and spills each sixteenth to a scratch file, so only that sixteenth of
    its records are objects at once and no run stays in memory: after
    10^5 accepts into an on-disk store, compact() peaks at most 24 B per
    secret above what the store held (about 14 here), where runs held in
    memory took about 45, and making every overlay record an object first
    took about 107."""
    n = 10**5
    rng = random.Random(192)
    path = str(tmp_path / "db")
    db = RedeemDb(path, fsync=False)
    for _ in range(n):
        assert db.check_and_insert(rng.randbytes(32))
    tracemalloc.start()
    try:
        db.compact()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n and len(_snapshot_records(path)) == n
    db.close()
    assert peak <= 24 * n, f"{peak / n:.1f} B per secret"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_a_private_store_leaves_no_directory_or_descriptor():
    """RedeemDb() keeps its log and snapshot in a private temporary
    directory: close() removes it and closes every descriptor the store
    opened, and so does dropping a store that was never closed."""
    rng = random.Random(193)
    fds = _open_fds()
    for closed in (True, False):
        db = RedeemDb()
        directory = os.path.dirname(db._path)
        db.preload(_secrets(rng, 1000))
        assert db.check_and_insert(rng.randbytes(32)) and len(db) == 1001
        assert sorted(os.listdir(directory)) == ["db", "db.snap"] and _open_fds() > fds
        if closed:
            db.close()
        else:
            del db
            gc.collect()
        assert not os.path.exists(directory) and _open_fds() == fds


def test_records_compile_no_format_per_chunk_length():
    """_records unpacks whole blocks with one compiled format and slices
    the short tail, so chunks of many lengths leave no format in struct's
    cache: clearing it after chunks of 1 to 300 records frees under
    16 KiB, where a format compiled for each length held hundreds."""
    records = [i.to_bytes(SECRET_SIZE, "big") for i in range(300)]
    chunks = [b"".join(records[:n]) for n in range(1, 301)]
    struct._clearcache()
    tracemalloc.start()
    try:
        for n, chunk in enumerate(chunks, 1):
            assert list(punchcard.db._records(chunk)) == records[:n]
        before, _ = tracemalloc.get_traced_memory()
        struct._clearcache()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert before - after < 16 * 1024, f"{before - after} B freed"


def test_compaction_streams_the_logged_tier_into_the_snapshot(tmp_path):
    """A compaction reads the logged tier a chunk at a time, as it does the
    snapshot, so it never holds the tier's records as objects at once:
    at most 16 B per entry of a 10^4-entry snapshot plus a 10^5-record
    log, where those objects alone take over 60."""
    path = str(tmp_path / "db")
    n = 10**4 + 10**5
    logged = _store_with_a_log_tail(path, random.Random(181), 10**4, 10**5)
    db = RedeemDb(path)
    tracemalloc.start()
    try:
        db.compact()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n and os.path.getsize(path) == 0
    assert len(_snapshot_records(path)) == n and all(u in db for u in logged[::97])
    db.close()
    assert peak <= 16 * n, f"{peak / n:.1f} B per entry"


def test_a_rebuild_never_installs_a_base_the_loader_refuses(tmp_path, monkeypatch):
    """The new snapshot is loaded back, with its order checked, before it
    becomes the base: a merge that yields a record out of order fails the
    compaction, and the store keeps answering from its old base and the
    secrets logged since."""
    rng = random.Random(176)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    preloaded, logged = _secrets(rng, 5000), _secrets(rng, 5)
    db.preload(preloaded)
    assert db.check_and_insert(*logged)
    real = punchcard.db._merge

    def merge(*args):
        yield from real(*args)
        yield [bytes(32)]  # sorts before every record yielded before it

    monkeypatch.setattr(punchcard.db, "_merge", merge)
    with pytest.raises(DbCorruption, match="strictly increasing"):
        db.compact()
    assert len(db) == 5005 and bytes(32) not in db
    assert all(u in db for u in preloaded + logged)
    assert not db.check_and_insert(logged[0])
    fresh = rng.randbytes(32)
    assert db.check_and_insert(fresh)
    monkeypatch.setattr(punchcard.db, "_merge", real)
    db.compact()
    db.close()
    db = RedeemDb(path)
    assert len(db) == 5006 and all(u in db for u in preloaded + logged + [fresh])
    db.close()


_REAL_MERGE = punchcard.db._merge


def _merge_out_of_order(*args):
    """_merge, then one record that sorts before every record before it."""
    yield from _REAL_MERGE(*args)
    yield [bytes(32)]


def test_a_refused_compaction_leaves_the_old_snapshot_for_the_next_start(
    tmp_path, monkeypatch
):
    """The loader checks the new snapshot in its temp file, before the
    rename: a compaction it refuses leaves the snapshot on disk byte for
    byte, and the log with it, so a store closed straight after opens
    again with every secret and claim."""
    rng = random.Random(178)
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    preloaded, logged, claim = _secrets(rng, 5000), _secrets(rng, 5), rng.randbytes(32)
    db.preload(preloaded)
    assert db.check_and_insert(*logged)
    db.add_claim(claim)
    with open(path + ".snap", "rb") as f:
        snapshot = f.read()
    monkeypatch.setattr(punchcard.db, "_merge", _merge_out_of_order)
    with pytest.raises(DbCorruption, match="strictly increasing"):
        db.compact()
    db.close()
    monkeypatch.undo()
    with open(path + ".snap", "rb") as f:
        assert f.read() == snapshot
    db = RedeemDb(path)
    assert db.recovery.snapshot_entries == 5000 and db.recovery.log_records == 2
    assert len(db) == 5005 and all(u in db for u in preloaded + logged)
    assert db.take_claim(claim)
    db.close()


def test_a_failed_rebuild_leaves_the_logged_tier_whole(tmp_path, monkeypatch):
    """The merge reads the logged tier from its file and releases
    nothing: a rebuild that fails leaves the tier whole, every logged
    secret is found, len is exact and a later compaction writes them
    all."""
    path = str(tmp_path / "db")
    logged = _store_with_a_log_tail(path, random.Random(190), 5000, 3000)
    db = RedeemDb(path, fsync=False)
    monkeypatch.setattr(punchcard.db, "_merge", _merge_out_of_order)
    with pytest.raises(DbCorruption, match="strictly increasing"):
        db.compact()
    monkeypatch.undo()
    assert all(u in db for u in logged) and len(db) == 8000
    db.compact()
    assert len(_snapshot_records(path)) == 8000 and all(u in db for u in logged)
    db.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="names files by /proc/self/fd")
def test_a_failed_rebuild_removes_its_temp_file(tmp_path):
    """A rebuild whose new snapshot the loader refuses, or whose temp file
    fails its fsync, removes the temp file, which would otherwise hold a
    snapshot's size on disk until the next rebuild; a simulated crash
    (FaultInjected) just before the rename leaves it, as a crash would."""
    rng = random.Random(182)
    path = str(tmp_path / "db")
    tmp = path + ".snap.tmp"
    db = RedeemDb(path)
    db.preload(_secrets(rng, 5000))
    real_fsync = os.fsync

    def fsync(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith(".snap.tmp"):
            raise OSError(errno.EIO, "temp file fsync failed")
        real_fsync(fd)

    for owner, name, value, error in [
        (punchcard.db, "_merge", _merge_out_of_order, DbCorruption),
        (os, "fsync", fsync, OSError),
    ]:
        assert db.check_and_insert(rng.randbytes(32))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, value)
            with pytest.raises(error):
                db.compact()
        assert not os.path.exists(tmp)
    with FaultPlan(fail_at=0) as plan:
        with pytest.raises(FaultInjected):
            db.compact()
    assert plan.hits == ["db.snapshot.replace"] and os.path.exists(tmp)
    db.close()
    db = RedeemDb(path)
    assert len(db) == 5002
    db.compact()
    assert not os.path.exists(tmp) and len(db) == 5002
    db.close()


def test_two_durable_writers_of_one_path_in_one_process_take_turns(tmp_path):
    """A second writer of a path waits for the first to finish: it never
    removes the first one's temp file, nor is its own half-written one
    renamed over the path. Both calls return, and the path holds the
    bytes of one of them whole. Writer A holds its write open until B
    has begun its own (or for 0.3 s), and B holds its write open until A
    has renamed its temp file."""
    path = str(tmp_path / "f")
    a_writing, b_writing, a_renamed = threading.Event(), threading.Event(), threading.Event()
    errors = []

    def writer(data, started, wait_for):
        def write(f):
            f.write(data[:1000])
            started.set()
            wait_for.wait(timeout=0.3)
            f.write(data[1000:])

        try:
            punchcard.db.write_durably(path, write, "test")
        except Exception as e:  # reported below
            errors.append(e)

    a = threading.Thread(target=writer, args=(b"a" * 2000, a_writing, b_writing))
    b = threading.Thread(target=writer, args=(b"b" * 2000, b_writing, a_renamed))
    install_hook(lambda point: a_renamed.set() if point == "test.dirsync" else None)
    try:
        a.start()
        assert a_writing.wait(timeout=10)
        b.start()
        a.join(timeout=10)
        b.join(timeout=10)
    finally:
        install_hook(None)
    assert errors == [] and not a.is_alive() and not b.is_alive()
    with open(path, "rb") as f:
        assert f.read() in (b"a" * 2000, b"b" * 2000)
    assert not os.path.exists(path + ".tmp")


def test_a_short_read_of_the_claims_fails_the_open(tmp_path, monkeypatch):
    """A claims section that reads back short raises EIO, as a short body
    chunk does: a claim dropped in silence would refuse a reward that was
    already paid for."""
    rng = random.Random(177)
    path = str(tmp_path / "db")
    claim = rng.randbytes(32)
    db = RedeemDb(path)
    db.preload(_secrets(rng, 100))
    db.add_claim(claim)
    db.compact()
    db.close()
    claims_at = 13 + 100 * 32
    real = os.pread

    def pread(fd, size, offset):
        data = real(fd, size, offset)
        return data[:-1] if offset == claims_at else data

    monkeypatch.setattr(os, "pread", pread)
    with pytest.raises(OSError) as e:
        RedeemDb(path)
    assert e.value.errno == errno.EIO
    monkeypatch.setattr(os, "pread", real)
    db = RedeemDb(path)
    assert db.pending_claims() == 1 and db.take_claim(claim)
    db.close()


@pytest.mark.parametrize(
    "i, j",
    [(4095, 4096), (10, 11), (4096, 4095)],  # swap across the first chunk's end,
    # swap inside it, and a record repeated across that end
    ids=["swap-chunk-boundary", "swap", "duplicate"],
)
def test_snapshot_out_of_order_raises(tmp_path, i, j):
    path = str(tmp_path / "db")
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(random.Random(161), 5000))
    db.close()
    with open(path + ".snap", "rb") as f:
        data = bytearray(f.read())
    rec = lambda k: slice(13 + 32 * k, 45 + 32 * k)
    a, b = bytes(data[rec(i)]), bytes(data[rec(j)])
    if i < j:
        data[rec(i)], data[rec(j)] = b, a
    else:
        data[rec(i)] = b
    with open(path + ".snap", "wb") as f:
        f.write(data)
    with pytest.raises(DbCorruption, match="strictly increasing"):
        RedeemDb(path)


@pytest.mark.parametrize("first", ["len", "compact"])
def test_crash_before_log_restart_keeps_len_exact(tmp_path, first):
    """A crash after the snapshot replace but before the log restart leaves
    a log whose records the snapshot already holds."""
    rng = random.Random(162)
    path = str(tmp_path / "db")
    preloaded, logged = _secrets(rng, 50), _secrets(rng, 5)
    db = RedeemDb(path)
    db.preload(preloaded)
    for u in logged:
        assert db.check_and_insert(u)
    with FaultPlan(fail_at=1) as plan:
        with pytest.raises(FaultInjected):
            db.compact()
    assert plan.hits == ["db.snapshot.replace", "db.snapshot.dirsync"]
    db.close()
    assert os.path.getsize(path) == 5 * 34
    assert len(_snapshot_records(path)) == 55

    db = RedeemDb(path)
    if first == "len":
        assert len(db) == 55
    db.compact()
    assert len(db) == 55
    records = _snapshot_records(path)
    assert records == sorted(set(preloaded + logged))
    assert all(u in db for u in records)
    assert not db.check_and_insert(logged[0])
    assert db.check_and_insert(rng.randbytes(32)) and len(db) == 56
    db.close()


@pytest.mark.parametrize("first", ["doomed", "kept"])
def test_crash_at_each_point_of_a_purge_keeps_len_exact(tmp_path, first):
    """A purge of a store with a snapshot and a log tail, crashed at each of
    its fault points in turn: the reopened store holds its secrets before or
    after the purge, and len counts exactly those, before and after a
    compaction."""
    rng = random.Random(170)
    doomed = lambda u: u[0] < 128
    preloaded = _secrets(rng, 50)
    logged = [bytes([i]) + rng.randbytes(31) for i in (0, 200, 10, 100, 250)]
    if first == "kept":
        logged.reverse()
    assert doomed(logged[0]) == (first == "doomed")
    everything = set(preloaded + logged)
    kept = {u for u in everything if not doomed(u)}
    strangers = _secrets(rng, 20)
    k = 0
    while True:
        path = str(tmp_path / f"db{k}")
        db = RedeemDb(path)
        db.preload(preloaded)
        for u in logged:
            assert db.check_and_insert(u)
        with FaultPlan(fail_at=k) as plan:
            try:
                db.purge(doomed)
            except FaultInjected:
                crashed = True
            else:
                crashed = False
        db.close()
        if not crashed:
            break
        db = RedeemDb(path)
        members = {u for u in everything | set(strangers) if u in db}
        assert members in (everything, kept)
        assert len(db) == len(members)
        db.compact()
        assert len(db) == len(members)
        assert not any(db.check_and_insert(u) for u in kept)
        db.close()
        k += 1
    assert k == len(plan.hits) == 4
    db = RedeemDb(path)
    assert len(db) == len(kept) and all(u in db for u in kept)
    db.close()


def test_first_len_after_reopen_reads_no_record(tmp_path, monkeypatch):
    """len is two lengths: the overlay never repeats a snapshot record, so
    no snapshot walk is needed after a restart with a log tail."""
    rng = random.Random(171)
    path = str(tmp_path / "db")
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(rng, 3 * 4096))
    for u in _secrets(rng, 10):
        assert db.check_and_insert(u)
    db.close()
    db = RedeemDb(path)
    calls = []
    real = punchcard.db._records
    monkeypatch.setattr(punchcard.db, "_records", lambda *a: calls.append(a) or real(*a))
    assert len(db) == 3 * 4096 + 10
    assert calls == []
    db.close()


def test_a_replayed_log_that_repeats_a_secret_keeps_len_exact(tmp_path):
    """The logged tier holds each secret once: one record may name a
    secret twice, and a log not written by this store may repeat one
    across records, and across the tier's chunks."""
    rng = random.Random(183)
    path = str(tmp_path / "db")
    u = rng.randbytes(32)
    db = RedeemDb(path, fsync=False)
    assert db.check_and_insert(u, u) and len(db) == 1
    db.close()
    db = RedeemDb(path, fsync=False)
    assert db.recovery.log_records == 1 and len(db) == 1 and u in db
    assert not db.check_and_insert(u)
    db.close()
    # a log naming each secret three times, over two replay windows: the
    # copies of one secret sit in one window's run or in both, and the
    # merge keeps one
    pool = _secrets(rng, 3000)
    records = [_insert([v]) for v in pool * 3]
    rng.shuffle(records)
    with open(path, "ab") as f:
        f.write(b"".join(records) + _insert(pool[:2] * 2))
    db = RedeemDb(path, fsync=False)
    assert db.recovery.log_records == 1 + len(records) + 1
    assert len(db) == 1 + len(pool) and all(v in db for v in pool + [u])
    assert not db.check_and_insert(pool[0])
    db.compact()
    assert _snapshot_records(path) == sorted(pool + [u])
    db.close()


def test_rebuild_across_chunks_matches_a_set(tmp_path):
    """Merges span several 4096-record chunks: untouched chunks are copied
    whole, touched ones merged, and purge filters every one."""
    rng = random.Random(166)
    path = str(tmp_path / "db")
    db = RedeemDb(path, fsync=False)
    model = set(_secrets(rng, 10000))
    db.preload(model)
    late = [b"\xff" + rng.randbytes(31) for _ in range(30)]  # last chunk only
    for u in late:
        assert db.check_and_insert(u)
    db.compact()
    model.update(late)
    assert _snapshot_records(path) == sorted(model)
    again = rng.sample(sorted(model), 100) + _secrets(rng, 100)
    db.preload(again)
    model.update(again)
    assert _snapshot_records(path) == sorted(model)
    extra = rng.randbytes(32)
    assert db.check_and_insert(extra)
    model.add(extra)
    doomed = {u for u in model if u[0] < 16}
    assert db.purge(lambda u: u[0] < 16) == len(doomed)
    model -= doomed
    assert _snapshot_records(path) == sorted(model)
    db.close()
    db = RedeemDb(path)
    assert len(db) == len(model) and all(u in db for u in model)
    assert not any(u in db for u in doomed)
    db.close()

def test_lookup_needs_a_whole_record():
    rng = random.Random(167)
    db = RedeemDb()
    spent = sorted(_secrets(rng, 300))
    db.preload(spent)
    assert all(u in db for u in spent)
    for k in (0, 63, 64, 150, 298):  # inside and across the 64-record blocks
        assert spent[k][16:] + spent[k + 1][:16] not in db
        assert spent[k][:31] not in db and spent[k] + b"x" not in db
    assert b"" not in db and b"\x00" * 32 not in db and b"\xff" * 32 not in db

def _lookups_never_miss_while_compacting(db, every=25):
    rng = random.Random(163)
    db.preload(_secrets(rng, 5000))
    fresh = _secrets(rng, 1500)
    inserted = []
    misses = []
    errors = []
    done = threading.Event()

    def writer():
        try:
            for i, u in enumerate(fresh):
                assert db.check_and_insert(u)
                inserted.append(u)
                if (i + 1) % every == 0:
                    db.compact()
        finally:
            done.set()

    def reader(seed):
        r = random.Random(seed)
        try:
            while not done.is_set():
                if inserted:
                    u = inserted[r.randrange(len(inserted))]
                    if u not in db:
                        misses.append(u)
        except Exception as e:  # reported below
            errors.append(e)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(s,)) for s in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(inserted) == len(fresh) and not misses
    assert len(db) == 6500


def test_lookups_never_miss_while_compacting():
    _lookups_never_miss_while_compacting(RedeemDb())


def test_lookups_never_miss_while_the_overlay_grows():
    """With four buckets, each accept appends to a bytearray of hundreds
    of records, which now and then moves as it grows; lock-free lookups
    of the secrets accepted so far find every one, during the appends and
    during the one compaction at the end."""
    with mock.patch.object(punchcard.db, "_BUCKETS", 4):
        _lookups_never_miss_while_compacting(RedeemDb(), every=1500)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_lookups_never_miss_while_compacting_on_disk(tmp_path):
    """Each compaction swaps in a base that reads the new snapshot while
    lookups may still read the old one through its descriptor, which
    closes once none holds it; close() leaves no descriptor open."""
    fds = _open_fds()
    db = RedeemDb(str(tmp_path / "db"), fsync=False)
    _lookups_never_miss_while_compacting(db)
    db.close()
    assert _open_fds() == fds


def test_lookups_never_miss_while_compacting_a_reopened_store(tmp_path):
    """Readers look up the secrets of a reopened store's logged tier and
    of its snapshot while it compacts, round after round: the new base is
    installed before the tier is emptied, so no lookup misses."""
    rng = random.Random(184)
    path = str(tmp_path / "db")
    spent = _secrets(rng, 5000)
    db = RedeemDb(path, fsync=False)
    db.preload(spent)
    db.close()
    misses, errors = [], []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            logged = _secrets(rng, 500)
            with open(path, "ab") as f:
                f.write(b"".join(_insert([u]) for u in logged))
            spent += logged
            db = RedeemDb(path, fsync=False)
            assert db.recovery.log_records == 500
            done = threading.Event()

            def reader(seed):
                r = random.Random(seed)
                try:
                    while not done.is_set():
                        u = spent[r.randrange(len(spent))]
                        if u not in db:
                            misses.append(u)
                except Exception as e:  # reported below
                    errors.append(e)

            threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            try:
                db.compact()
            finally:
                done.set()
                for t in threads:
                    t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(db) == len(spent)
            db.close()
    finally:
        sys.setswitchinterval(old)
    assert errors == [] and not misses


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_snapshot_descriptors_close_with_the_store(tmp_path):
    """Every rebuild opens the snapshot it wrote and lets the old one go;
    a refused open (DbBusy, DbCorruption) and close() close theirs."""
    rng = random.Random(172)
    path = str(tmp_path / "db")
    fds = _open_fds()
    db = RedeemDb(path)
    db.preload(_secrets(rng, 5000))
    for u in _secrets(rng, 10):
        assert db.check_and_insert(u)
        db.compact()
    # a compaction the loader refuses, then one whose temp file fails its
    # fsync after the load: the store answers from its old base after each
    logged = _secrets(rng, 3)
    assert db.check_and_insert(*logged)
    real_fsync = os.fsync

    def fsync(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith(".snap.tmp"):
            raise OSError(errno.EIO, "temp file fsync failed")
        real_fsync(fd)

    for owner, name, value, error in [
        (punchcard.db, "_merge", _merge_out_of_order, DbCorruption),
        (os, "fsync", fsync, OSError),
    ]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, value)
            with pytest.raises(error):
                db.compact()
        assert len(db) == 5013 and all(u in db for u in logged)
    assert db.purge(lambda u: u[0] < 16) > 0
    db.preload(_secrets(rng, 10))
    with pytest.raises(DbBusy):
        RedeemDb(path)
    assert _open_fds() == fds + 2  # the log and the snapshot
    db.close()
    db = RedeemDb(path)
    assert len(db) == len(_snapshot_records(path)) and db.check_and_insert(rng.randbytes(32))
    db.close()
    with open(path + ".snap", "r+b") as f:
        f.seek(13 + 32 * 100)
        f.write(b"\x00" * 32)  # record 100 now sorts first
    with pytest.raises(DbCorruption):
        RedeemDb(path)
    assert _open_fds() == fds


def test_every_secret_found_at_every_step_of_a_rebuild(tmp_path):
    """Lookups take no lock, so each spent secret must stay findable after
    every statement of a rebuild, not only once it returns: in a
    private store, and in a reopened one whose logged secrets sit in
    the logged tier beside the secrets accepted since."""
    rng = random.Random(165)
    db = RedeemDb()
    preloaded = _secrets(rng, 5000)
    db.preload(preloaded)
    inserted = _secrets(rng, 20)
    assert db.check_and_insert(*inserted)
    _found_at_every_step_of_a_rebuild(db, inserted + preloaded[::100])
    db.close()
    path = str(tmp_path / "db")
    logged = _store_with_a_log_tail(path, rng, 5000, 300)
    db = RedeemDb(path, fsync=False)
    assert db.check_and_insert(*inserted)
    _found_at_every_step_of_a_rebuild(db, logged + inserted + _snapshot_records(path)[::100])
    db.close()


def _found_at_every_step_of_a_rebuild(db, spent):
    found = []

    def each_line(frame, event, arg):
        if event == "line":
            found.append(all(u in db for u in spent))
        return each_line

    def each_call(frame, event, arg):
        return each_line if frame.f_code.co_name == "_rebuild" else None

    sys.settrace(each_call)
    try:
        db.compact()
    finally:
        sys.settrace(None)
    assert len(found) > 3 and all(found)

_POOL = _secrets(random.Random(164), 12)
_IDX = st.integers(0, len(_POOL) - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_IDX, min_size=1, max_size=3)),
        st.tuples(st.just("purge"), st.frozensets(_IDX)),
        st.tuples(st.just("preload"), st.lists(_IDX, max_size=5)),
        st.tuples(st.sampled_from(["compact", "reopen"]), st.none()),
    ),
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_store_behaves_like_a_set(ops):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "db")
        db = RedeemDb(path, fsync=False)
        model = set()
        try:
            for op, arg in ops:
                if op == "insert":
                    secrets = [_POOL[i] for i in arg]
                    fresh = model.isdisjoint(secrets)
                    assert db.check_and_insert(*secrets) == fresh
                    if fresh:
                        model.update(secrets)
                elif op == "purge":
                    doomed = {_POOL[i] for i in arg}
                    assert db.purge(doomed.__contains__) == len(model & doomed)
                    model -= doomed
                elif op == "preload":
                    db.preload(_POOL[i] for i in arg)
                    model.update(_POOL[i] for i in arg)
                elif op == "compact":
                    db.compact()
                else:
                    db.close()
                    db = RedeemDb(path, fsync=False)
                assert [u in db for u in _POOL] == [u in model for u in _POOL]
                assert len(db) == len(model)
        finally:
            db.close()


# lookups of a pool secret cut to or lengthened to a length, or of a
# needle that straddles two neighbouring records of the overlay's bucket
_OVERLAY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_IDX, min_size=1, max_size=3), st.none()),
        st.tuples(st.just("lookup"), _IDX, st.sampled_from([16, 31, 32, 33])),
        st.tuples(st.just("straddle"), _IDX, st.integers(1, SECRET_SIZE - 1)),
    ),
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(ops=_OVERLAY_OPS)
def test_overlay_behaves_like_a_set(ops):
    """With one bucket, every secret accepted since the open is a record
    of one bytearray, so a needle too short, too long, or straddling two
    records would match inside it unless a lookup checks the needle's
    length and the match's alignment. A secret named twice in one call
    is held once, and a compaction writes each secret once."""
    with tempfile.TemporaryDirectory() as d, mock.patch.object(punchcard.db, "_BUCKETS", 1):
        path = os.path.join(d, "db")
        db = RedeemDb(path, fsync=False)
        model, records = set(), []  # records: the bucket's, in order
        try:
            for op, arg, k in ops:
                if op == "insert":
                    secrets = [_POOL[i] for i in arg]
                    fresh = model.isdisjoint(secrets)
                    assert db.check_and_insert(*secrets) == fresh
                    if fresh:
                        model.update(secrets)
                        records += dict.fromkeys(secrets)
                elif op == "lookup":
                    needle = (_POOL[arg] + _POOL[arg - 1])[:k]
                    assert (needle in db) == (needle in model)
                elif len(records) > 1:
                    j = arg % (len(records) - 1)
                    assert records[j][k:] + records[j + 1][:k] not in db
                assert [u in db for u in _POOL] == [u in model for u in _POOL]
                assert len(db) == len(model)
            db.compact()  # writes no snapshot while nothing is spent
            assert (_snapshot_records(path) if model else []) == sorted(model)
            assert [u in db for u in _POOL] == [u in model for u in _POOL]
            assert len(db) == len(model)
        finally:
            db.close()


def test_accepted_secrets_cost_at_most_48_bytes_each():
    """The overlay is the part of the store that grows while the server
    runs: it holds each secret accepted since the open as a 32-byte record
    in a bucket, not as a bytes object in a set (about 107 B each)."""
    rng = random.Random(185)
    n = 10**5
    db = RedeemDb()
    tracemalloc.start()
    try:
        for _ in range(n):
            assert db.check_and_insert(rng.randbytes(32))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == n
    assert held <= 48 * n, f"{held / n:.1f} B per secret"


def _insert(us):
    return bytes([1, len(us)]) + b"".join(us)


_RECORD = st.one_of(
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=3).map(_insert),
    st.sampled_from(_POOL).map(lambda u: b"\x02" + u),  # claim added
    st.sampled_from(_POOL).map(lambda u: b"\x03" + u),  # claim taken
)
# Tails that hold no complete record: a record cut short, an insert of zero
# secrets, or an unknown record type, each followed by anything.
_BAD_TAIL = st.one_of(
    _RECORD.flatmap(lambda r: st.integers(1, len(r) - 1).map(lambda k: r[:k])),
    st.binary(max_size=64).map(lambda b: b"\x01\x00" + b),
    st.tuples(
        st.integers(0, 255).filter(lambda t: t not in (1, 2, 3)), st.binary(max_size=64)
    ).map(lambda t: bytes([t[0]]) + t[1]),
)


@settings(max_examples=50, deadline=None)
@given(records=st.lists(_RECORD, max_size=8), tail=st.one_of(st.just(b""), _BAD_TAIL))
def test_log_replay_keeps_the_complete_records_before_a_bad_one(records, tail):
    spent, claims = set(), set()
    for r in records:
        us = [r[i : i + 32] for i in range(2 if r[0] == 1 else 1, len(r), 32)]
        if r[0] == 1:
            spent.update(us)
        elif r[0] == 2:
            claims.update(us)
        else:
            claims.difference_update(us)
    good = b"".join(records)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "db")
        with open(path, "wb") as f:
            f.write(good + tail)
        for _ in range(2):  # the second open finds the healed file
            db = RedeemDb(path, fsync=False)
            assert [u in db for u in _POOL] == [u in spent for u in _POOL]
            assert len(db) == len(spent) and db.pending_claims() == len(claims)
            db.close()
            with open(path, "rb") as f:
                assert f.read() == good


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("length", [_RUN - 1, _RUN, _RUN + 1])
@pytest.mark.parametrize("tail", ["none", "torn", "count-0"])
def test_bulk_replay_at_run_boundaries(tmp_path, count, length, tail):
    """Runs of like inserts a record shorter than, as long as and longer
    than one bulk read, with the count changing and a claim record between
    runs, and the log ending in a record torn where the last run stops or
    in an insert of zero secrets. Replay must match a per-record model."""
    rng = random.Random(168)
    other = count % 3 + 1
    # the claim follows a run of `other` inserts and starts with that count,
    # so its kind byte alone ends the run
    claimed = bytes([other]) + rng.randbytes(31)
    spent, good, records = set(), [], 0

    def run(n, c):
        nonlocal records
        for _ in range(n):
            us = _secrets(rng, c)
            spent.update(us)
            good.append(_insert(us))
        records += n

    run(length, count)
    run(length, other)  # the count changes at a run's end
    good.append(b"\x02" + claimed)  # a claim between two runs
    records += 1
    run(length, count)
    absent = _secrets(rng, count)
    if tail == "torn":  # the record after the run, cut one byte short
        cut = _insert(absent)[:-1]
    elif tail == "count-0":  # right after the run, then a would-be record
        cut = b"\x01\x00" + _insert(absent)
    else:
        cut = b""
    good = b"".join(good)
    path = str(tmp_path / "db")
    with open(path, "wb") as f:
        f.write(good + cut)
    for dropped in (len(cut), 0):  # the second open finds the healed file
        db = RedeemDb(path, fsync=False)
        assert db.recovery[1:3] == (records, dropped)
        assert all(u in db for u in spent) and len(db) == len(spent)
        assert not any(u in db for u in absent)
        assert db.pending_claims() == 1
        db.close()
        with open(path, "rb") as f:
            assert f.read() == good


@pytest.mark.parametrize("tail", ["none", "torn", "unknown-type"])
def test_replay_carries_records_across_windows(tmp_path, tail):
    """A log several replay windows long, of inserts of 1 to 255 secrets
    and claim records, so records of every size straddle the windows'
    ends; a bad record, if any, sits in a later window than the first,
    and everything from it on is truncated. Replay must match a
    per-record model."""
    rng = random.Random(185)
    spent, claims, good, records = set(), set(), [], 0
    while sum(map(len, good)) < 3 * punchcard.db._WINDOW:
        if rng.random() < 0.1:
            u = rng.choice(sorted(spent)) if spent else rng.randbytes(32)
            kind = rng.choice([2, 3])
            (claims.add if kind == 2 else claims.discard)(u)
            good.append(bytes([kind]) + u)
        else:
            us = _secrets(rng, rng.choice([1, 1, 2, 7, 255]))
            spent.update(us)
            good.append(_insert(us))
        records += 1
    good = b"".join(good)
    absent = _secrets(rng, 3)
    bad = {"none": b"", "torn": _insert(absent)[:-1],
           "unknown-type": b"\x09" + _insert(absent)}[tail]
    path = str(tmp_path / "db")
    with open(path, "wb") as f:
        f.write(good + bad)
    for dropped in (len(bad), 0):  # the second open finds the healed file
        db = RedeemDb(path, fsync=False)
        assert db.recovery[1:3] == (records, dropped)
        assert len(db) == len(spent) and all(u in db for u in spent)
        assert not any(u in db for u in absent)
        assert db.pending_claims() == len(claims)
        db.close()
        with open(path, "rb") as f:
            assert f.read() == good


def test_replay_memory_follows_the_window_not_the_log(tmp_path):
    """The replay sorts each window's secrets into a run as it parses them
    and spills them to a scratch file, then merges the runs a stripe at
    a time. So what the open holds above the opened
    store (tracemalloc's peak less its current) is about one window's
    and one stripe's secrets as objects: it differs by under 1 MB between
    2 * 10^4 and 2 * 10^5 logged secrets, where holding every logged
    secret as an object would cost about 48 B more per secret."""
    above = []
    for n in (2 * 10**4, 2 * 10**5):
        path = str(tmp_path / f"db{n}")
        with open(path, "wb") as f:
            f.write(b"".join(_insert([u]) for u in _secrets(random.Random(187), n)))
        tracemalloc.start()
        try:
            db = RedeemDb(path, fsync=False)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(db) == n and db.recovery.log_records == n
        db.close()
        above.append(peak - current)
    assert abs(above[1] - above[0]) < 2**20, above


# Small enough that a log of a few thousand secrets makes dozens of runs,
# each of several pieces of several blocks, and dozens of stripes.
_SMALL_REPLAY = dict(_WINDOW=1024, _BLOCK=4, _BLOCK_BYTES=4 * 32, _PIECE=2 * 4 * 32, _STRIPE=2)
_LOG_POOL = _secrets(random.Random(188), 600)


def _check_replayed_tier(logged, snapshot):
    """Opens a store of the snapshot and a log of the insert records
    `logged` (lists of secrets) under _SMALL_REPLAY, and checks the
    logged tier's records, len and every lookup against a model. Then it
    accepts fresh secrets and refuses spent ones, compacts and purges,
    and checks each new snapshot's records and len against the model:
    those merges cross the base, the tier and the overlay many times."""
    spent = set(snapshot).union(*logged)
    small = mock.patch.multiple(punchcard.db, **_SMALL_REPLAY)
    with tempfile.TemporaryDirectory() as d, small:
        path = os.path.join(d, "db")
        db = RedeemDb(path, fsync=False)
        db.preload(snapshot)
        db.close()
        with open(path, "ab") as f:
            f.write(b"".join(map(_insert, logged)))
        db = RedeemDb(path, fsync=False)
        try:
            tier, records = db._logged, sorted(spent - set(snapshot))
            assert tier.read(0, tier.size) == b"".join(records)
            assert tier.fence == records[:: _SMALL_REPLAY["_BLOCK"]]
            assert db.recovery.log_records == len(logged)
            assert len(db) == len(spent)
            assert [u in db for u in _LOG_POOL] == [u in spent for u in _LOG_POOL]
            for u in _LOG_POOL[::7]:  # fresh and spent secrets across the tier
                assert db.check_and_insert(u) == (u not in spent)
                spent.add(u)
            db.compact()
            assert _snapshot_records(path) == sorted(spent) and len(db) == len(spent)
            dropped = {u for u in spent if u[0] % 3 == 0}
            assert db.purge(lambda u: u[0] % 3 == 0) == len(dropped)
            spent -= dropped
            assert _snapshot_records(path) == sorted(spent) and len(db) == len(spent)
            assert [u in db for u in _LOG_POOL] == [u in spent for u in _LOG_POOL]
        finally:
            db.close()


def _log_of(records, snapshot, repeats):
    """The insert records (count, first, step) as lists of secrets of the
    pool, and a snapshot a store could hold with that log: one that
    holds no logged secret, or, after a crash between a rebuild's
    snapshot replace and its log restart, one that holds every secret of
    the log's first records, as many as `repeats` says."""
    logged = [[_LOG_POOL[(first + i * step) % len(_LOG_POOL)] for i in range(count)]
              for count, first, step in records]
    snapshot = {_LOG_POOL[i] for i in snapshot}.difference(*logged)
    return logged, snapshot.union(*logged[:repeats])


@pytest.mark.parametrize("repeats", [0, 1, 7])
@pytest.mark.parametrize("seed", range(3))
def test_replay_merge_matches_a_model(seed, repeats):
    """Logs of inserts of 1 to 255 secrets that repeat secrets within a
    record and across records and windows; with `repeats`, the log's
    first records repeat the snapshot, over several windows. The tier
    holds each logged secret the snapshot lacks, once and in order."""
    rng = random.Random(189 + seed)
    records = [(rng.choice([1, 2, 40, 255]), rng.randrange(600), rng.randrange(1, 8))
               for _ in range(12)]
    _check_replayed_tier(*_log_of(records, rng.sample(range(600), 150), repeats))


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.tuples(st.integers(1, 255), st.integers(0, 599), st.integers(1, 7)),
                     min_size=1, max_size=12),
    snapshot=st.sets(st.integers(0, 599), max_size=200),
    repeats=st.integers(0, 12),
)
def test_replay_merge_matches_a_model_for_any_log(records, snapshot, repeats):
    _check_replayed_tier(*_log_of(records, snapshot, repeats))


def test_recovery_counts_snapshot_log_and_torn_tail(tmp_path):
    rng = random.Random(169)
    path = str(tmp_path / "db")
    assert RedeemDb().recovery[:3] == Recovery()[:3]  # a private store times its open too
    db = RedeemDb(path, fsync=False)
    db.preload(_secrets(rng, 300))  # the snapshot
    for u in _secrets(rng, 7):
        db.check_and_insert(u)
    db.check_and_insert(*_secrets(rng, 2))
    db.add_claim(rng.randbytes(32))
    db.close()
    with open(path, "ab") as f:
        f.write(b"\x01\x02" + b"z" * 40)  # a torn two-secret insert
    db = RedeemDb(path, fsync=False)
    r = db.recovery
    assert (r.snapshot_entries, r.log_records, r.torn_bytes) == (300, 9, 42)
    assert 0 < r.seconds < 60
    db.close()
    db = RedeemDb(path, fsync=False)
    assert db.recovery[:3] == (300, 9, 0)
    db.compact()
    db.close()
    db = RedeemDb(path, fsync=False)
    assert db.recovery[:3] == (309, 0, 0)
    db.close()


def test_closed_store_refuses_writes(tmp_path, monkeypatch):
    """After close() a write raises instead of answering True for a secret a
    reopen would not find, and it opens no file; a compact with nothing to
    write stays a no-op, so a second shutdown still works."""
    path = str(tmp_path / "db")
    kept, late = _secrets(random.Random(1103), 2)
    db = RedeemDb(path)
    assert db.check_and_insert(kept)  # in the overlay and the log only
    db.close()
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(punchcard.db, "open", tracking_open, raising=False)
    for write in (
        lambda: db.check_and_insert(late),
        lambda: db.add_claim(late),
        db.compact,
        lambda: db.purge(lambda u: False),
        lambda: db.preload([late]),
    ):
        with pytest.raises(ValueError, match="closed"):
            write()
    monkeypatch.undo()
    assert opened == []
    assert sorted(os.listdir(tmp_path)) == ["db"]
    db2 = RedeemDb(path)
    assert kept in db2 and late not in db2 and len(db2) == 1
    assert db2.pending_claims() == 0
    db2.compact()
    db2.close()
    db2.compact()
    db2.close()
    db3 = RedeemDb(path)
    assert kept in db3 and len(db3) == 1
    db3.close()


def test_failed_fsync_is_undone_so_the_refused_secret_stays_unspent(tmp_path, monkeypatch):
    """An insert whose fsync fails raises, so the server refuses the
    redemption; its record leaves the log, and the card stays redeemable
    after a restart."""
    path = str(tmp_path / "db")
    a, b, c = _secrets(random.Random(1501), 3)
    db = RedeemDb(path)
    assert db.check_and_insert(a)
    size = os.path.getsize(path)
    real_fsync = os.fsync

    def failing_fsync(fd):
        monkeypatch.setattr(os, "fsync", real_fsync)
        raise OSError(errno.EIO, "injected fsync error")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="injected"):
        db.check_and_insert(b)
    assert os.path.getsize(path) == size and b not in db
    assert db.check_and_insert(c)
    db.close()
    again = RedeemDb(path)
    assert a in again and c in again and b not in again and len(again) == 2
    again.close()


_SHORT_WRITE = """
import os, resource, signal, sys
from punchcard.db import RedeemDb
path = sys.argv[1]
a, b, c = (bytes.fromhex(h) for h in sys.argv[2:])
db = RedeemDb(path)
assert db.check_and_insert(a)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (54, hard))  # 20 of b's 34 bytes fit
try:
    db.check_and_insert(b)
except OSError as e:
    print("refused:", e)
print(os.path.getsize(path))
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
assert db.check_and_insert(c)
print(os.path.getsize(path))
db.close()
"""


def test_short_write_is_undone_so_the_refused_secret_stays_unspent(tmp_path):
    """A write that stops part way (here at the file size limit, in a child
    process that lowers its own limit) leaves no piece of its record behind
    to be written ahead of the next one."""
    path = str(tmp_path / "db")
    a, b, c = _secrets(random.Random(1502), 3)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = subprocess.run(
        [sys.executable, "-c", _SHORT_WRITE, path, a.hex(), b.hex(), c.hex()],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    refused, after_failure, after_next = child.stdout.splitlines()
    assert refused.startswith("refused:")
    assert (int(after_failure), int(after_next)) == (34, 68)
    db = RedeemDb(path)
    assert a in db and c in db and b not in db and len(db) == 2
    assert db.recovery.torn_bytes == 0
    db.close()


def test_opening_a_store_opens_its_log_once(tmp_path, monkeypatch):
    """Replay, the torn-tail repair and every append use the one locked
    descriptor; no second handle of the log can hold other bytes."""
    path = str(tmp_path / "db")
    db = RedeemDb(path)
    db.check_and_insert(_POOL[0])
    db.compact()  # a snapshot too, which is opened under its own name
    db.check_and_insert(_POOL[1])
    db.close()
    with open(path, "ab") as f:
        f.write(_insert([_POOL[2]])[:10])  # a torn tail
    opened = []
    real_open, real_os_open = open, os.open

    def tracking_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    def tracking_os_open(file, *args, **kwargs):
        opened.append(file)
        return real_os_open(file, *args, **kwargs)

    monkeypatch.setattr(punchcard.db, "open", tracking_open, raising=False)
    monkeypatch.setattr(os, "open", tracking_os_open)
    db = RedeemDb(path)
    assert db.recovery[:3] == (1, 1, 10)
    assert db.check_and_insert(_POOL[2]) and db.check_and_insert(_POOL[3])
    monkeypatch.undo()
    db.close()
    assert opened.count(path) == 1
    again = RedeemDb(path)
    assert [u in again for u in _POOL[:5]] == [True] * 4 + [False]
    again.close()


def test_a_failed_append_leaves_the_next_one_cut_at_the_right_size(tmp_path, monkeypatch):
    """The store tracks its log's size to know where to cut a failed
    append off. A failed fsync, a good insert, then another failed fsync:
    the log holds exactly the good record, and a reopen finds it alone,
    with no torn bytes."""
    path = str(tmp_path / "db")
    a, b, c = _secrets(random.Random(1503), 3)
    db = RedeemDb(path)
    real_fsync = os.fsync

    def failing_fsync(fd):
        raise OSError(errno.EIO, "injected fsync error")

    for u, fsync in ((a, failing_fsync), (b, real_fsync), (c, failing_fsync)):
        monkeypatch.setattr(os, "fsync", fsync)
        if fsync is real_fsync:
            assert db.check_and_insert(u)
        else:
            with pytest.raises(OSError, match="injected"):
                db.check_and_insert(u)
    monkeypatch.undo()
    db.close()
    assert os.path.getsize(path) == 34
    again = RedeemDb(path)
    assert again.recovery[1:3] == (1, 0)
    assert [u in again for u in (a, b, c)] == [False, True, False] and len(again) == 1
    again.close()


_FAULTY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "claim", "take"]),
        st.lists(_IDX, min_size=1, max_size=3, unique=True),
        st.sampled_from([None, None, "short", "write", "fsync"]),
    ),
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(ops=_FAULTY_OPS)
def test_failed_appends_leave_no_trace_after_a_reopen(ops):
    """Inserts and claim records, some of whose appends fail (a short write,
    a write error or an fsync error): after a reopen the spent secrets are
    those whose insert returned True, and the pending claims those whose
    record went through."""
    pending = []  # the failure the next append meets
    real_open, real_fsync = open, os.fsync

    class FlakyLog(io.FileIO):
        def write(self, data):
            if pending and pending[0] != "fsync":
                if pending.pop() == "short":
                    return super().write(data[: len(data) // 2])
                raise OSError(errno.EIO, "injected write error")
            return super().write(data)

    def flaky_fsync(fd):
        if pending == ["fsync"]:
            pending.pop()
            raise OSError(errno.EIO, "injected fsync error")
        real_fsync(fd)

    spent, claims = set(), set()
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(d, "db")
        mp.setattr(
            punchcard.db, "open", raising=False,
            value=lambda file, mode="r", *args, **kwargs: (
                FlakyLog(file, mode.replace("b", "")) if file == path
                else real_open(file, mode, *args, **kwargs)
            ),
        )
        mp.setattr(os, "fsync", flaky_fsync)
        db = RedeemDb(path)
        try:
            for op, idx, fault in ops:
                us = [_POOL[i] for i in idx]
                pending[:] = [fault] if fault else []
                if op == "insert":
                    appends = spent.isdisjoint(us)
                    call = lambda: db.check_and_insert(*us)  # noqa: E731
                elif op == "claim":
                    appends = True
                    call = lambda: db.add_claim(us[0])  # noqa: E731
                else:
                    appends = us[0] in claims
                    call = lambda: db.take_claim(us[0])  # noqa: E731
                if appends and fault:
                    with pytest.raises(OSError, match="injected|short write"):
                        call()
                    continue
                result = call()
                if op == "insert":
                    assert result == appends
                    spent.update(us if result else ())
                elif op == "claim":
                    claims.add(us[0])
                else:
                    assert result == appends
                    claims.discard(us[0])
        finally:
            db.close()
        mp.undo()
        db = RedeemDb(path, fsync=False)
        try:
            assert db.recovery.torn_bytes == 0
            assert [u in db for u in _POOL] == [u in spent for u in _POOL]
            assert len(db) == len(spent) and db.pending_claims() == len(claims)
            assert [db.take_claim(u) for u in _POOL] == [u in claims for u in _POOL]
        finally:
            db.close()
