import os
import random
import stat
import threading

import pytest

from punchcard.db import RedeemDb
from punchcard.errors import DbCorruption
from punchcard.faults import FaultInjected, FaultPlan


def _secrets(rng, n):
    return [rng.randbytes(32) for _ in range(n)]


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
    data = open(snap, "rb").read()
    open(snap, "wb").write(b"WRONG" + data[5:])
    with pytest.raises(DbCorruption):
        RedeemDb(path)
    open(snap, "wb").write(data[:-1])
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
    assert [e for e in events if e != "fsync"] == ["replace", "dirsync"] * 2
    for i, e in enumerate(events):
        if e == "replace":
            assert events[i + 1] == "dirsync"
    assert plan.hits.count("db.snapshot.dirsync") == 2
    # a crash before the directory sync leaves the new snapshot in place
    with FaultPlan(fail_at=1) as plan:
        with pytest.raises(FaultInjected):
            db.compact()
    assert plan.hits == ["db.snapshot.replace", "db.snapshot.dirsync"]
    db2 = RedeemDb(str(tmp_path / "db"))
    assert len(db2) == 5
    db2.close()
