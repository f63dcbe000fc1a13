"""Mutation drill: every mutant below must fail a test.

Each mutant is (file, old text, new text, tests), where a test is a file
or one test's id: the old text must occur exactly once in the file. The drill copies src/ and tests/ (with
README.md and pyproject.toml, which some tests read) into a temporary
directory outside the checkout, applies one mutant there, runs
`pytest -x` on its test files and prints the test that killed it. A
killer must pass without the mutant, so the drill reruns every killer on
an unmutated copy at the end. It exits 1 if a mutant survives, if an old
text is missing or occurs more than once, or if a killer fails unmutated.

    python tests/mutation_drill.py

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "README.md", "pyproject.toml")

DLEQ = "src/punchcard/dleq.py"
WALLET = "src/punchcard/wallet.py"
CORE = "src/punchcard/core.py"
EXT = "src/punchcard/extensions.py"
DB = "src/punchcard/db.py"
MERGE = "src/punchcard/mergeable.py"

MUTANTS = [
    # a verifier that checks one DLEQ equation passes a key holder's forgery
    (DLEQ, "return lhs1 == rhs1 and lhs2 == rhs2", "return lhs1 == rhs1",
     ["tests/test_dleq.py", "tests/test_wallet.py"]),
    (DLEQ, "return lhs1 == rhs1 and lhs2 == rhs2", "return lhs2 == rhs2",
     ["tests/test_dleq.py", "tests/test_wallet.py"]),
    # the wallet's send rule: never re-mask a seen card
    (WALLET, "        if card.seen:\n", "        if False:\n",
     ["tests/test_linkability.py", "tests/test_wallet.py"]),
    # the wallet's send rule: never mark a sent card seen
    (WALLET, "        card.seen = True\n", "",
     ["tests/test_linkability.py", "tests/test_wallet.py"]),
    # a redemption's secret must be SECRET_SIZE bytes
    (CORE, "if any(len(u) != SECRET_SIZE for u in secrets) or not valid():",
     "if not valid():", ["tests/test_core.py", "tests/test_service.py"]),
    # a merge of a card with itself is refused
    (MERGE, "    if req.u_a == req.u_b:\n        return False\n", "",
     ["tests/test_mergeable.py"]),
    # a BLS12-381 point outside the prime-order subgroup does not decode
    ("src/punchcard/groups/bls/curve.py", "    if not in_subgroup(pt):\n",
     "    if False:\n", ["tests/test_bls.py"]),
    # a frame longer than 64 KiB is refused before its body is read
    ("src/punchcard/wire.py", "if not 1 <= length <= MAX_FRAME:", "if not 1 <= length:",
     ["tests/test_wire.py"]),
    # check_and_insert re-checks the spent set under its lock
    (DB, "            if any(u in self for u in secrets):\n                return False\n",
     "", ["tests/test_db.py"]),
    # libsodium 1.0.18 ignores bit 255, so the backend refuses it first
    ("src/punchcard/groups/ristretto.py", "        if e[31] & 0x80:\n            return False\n",
     "", ["tests/test_groups.py"]),
    # a multi-punch reply must carry exactly the t steps asked for
    (EXT, "    if len(resp.steps) != t:\n", "    if False:\n",
     ["tests/test_extensions.py", "tests/test_wallet.py"]),
    # a count the config does not accept answers BAD_CARD
    ("src/punchcard/service.py", "        if count not in self.cfg.accepted_counts:\n",
     "        if False:\n", ["tests/test_service.py"]),
    # a punch reply with no steps is refused
    (CORE, "    if not steps:\n", "    if False:\n",
     ["tests/test_core.py", "tests/test_extensions.py"]),
    # purge drops secrets that expired strictly before today
    (EXT, '"big") < cutoff)', '"big") <= cutoff)', ["tests/test_extensions.py"]),
    # the expiry horizon
    (EXT, "    if add_quarters(expiry, -horizon_quarters) > first:\n",
     "    if False:\n", ["tests/test_extensions.py"]),
    # a card expires on its expiry day, not before
    (EXT, "    if expiry < today:\n", "    if expiry <= today:\n",
     ["tests/test_extensions.py"]),
    # the mergeable punch checks the proof of side 1 too
    (MERGE, "    punched1 = core.verify_chain(\n        pairing.g1, TAG_PUNCH_PROOF_G1, "
     "pk.side1, card.side1,\n        [(resp.punched1, resp.proof1)],\n    )\n",
     "    punched1 = resp.punched1\n", ["tests/test_mergeable.py"]),
    # a log record that inserts no secret is corrupt
    (DB, "                    if count == 0 or end > n:\n", "                    if end > n:\n",
     ["tests/test_db.py"]),
    # a record the replay's window cuts is carried over, not cut off
    (DB, "            limit = n - _MAX_RECORD if more else n\n", "            limit = n\n",
     ["tests/test_db.py::test_reopen_holds_the_logged_secrets_as_sorted_records"]),
    (DB, "            data = data[off:] + more\n", "            data = more\n",
     ["tests/test_db.py::test_replay_carries_records_across_windows"]),
    # native libraries load by soname, so no start runs ldconfig
    ("src/punchcard/groups/base.py", "    yield from sonames\n", "", ["tests/test_groups.py"]),
    # a type the scheme does not serve gets ERROR, not another type's answer
    ("src/punchcard/service.py", "            return self._reject(\n"
     '                f"type 0x{msg_type:02x} not valid for the {s.name} scheme"\n'
     "            )\n", "            return wire.PK_RESP, self.pk_bytes\n",
     ["tests/test_service.py"]),
    # t never exceeds 255, whatever t_max says
    (EXT, "    if not 1 <= t <= min(t_max, 255):\n", "    if not 1 <= t <= t_max:\n",
     ["tests/test_extensions.py", "tests/test_service.py"]),
    # the store's lock owns state_dir: a start takes it before the key
    ("src/punchcard/service.py", "        self.db = db if db is not None else RedeemDb(",
     "        keys.load_or_create(self.scheme.setup, self.scheme.encode_pk)\n"
     "        self.db = db if db is not None else RedeemDb(",
     ["tests/test_service.py"]),
    # a clean stop wakes every worker still waiting on a client
    ("src/punchcard/service.py", "request.shutdown(socket.SHUT_RDWR)", "pass",
     ["tests/test_service.py"]),
    # the worker the kernel wakes in accept() serves that connection itself
    ("src/punchcard/service.py", "                if not self._admit(*job, queued=False):\n"
     "                    job = None\n                    continue\n",
     "                self._admit(*job, queued=True)\n"
     "                job = None\n                continue\n",
     ["tests/test_service.py::test_sequential_sessions_queue_no_connection"]),
    # the accept thread hands accepting back once a worker waits for the queue
    ("src/punchcard/service.py", "                if self._idle:  # a worker waits",
     "                if False:  # a worker waits",
     ["tests/test_service.py::test_workers_accept_again_after_an_overflow"]),
    # a stop shuts the listener down, which wakes every worker in accept()
    ("src/punchcard/service.py", "            self.socket.shutdown(socket.SHUT_RDWR)\n",
     "            pass\n",
     ["tests/test_service.py::test_a_stop_wakes_every_worker_idle_in_accept"]),
    # a snapshot block that reads back short or changed fails the lookup
    (DB, "        if len(data) != size or not data.startswith(self.fence[offset // _BLOCK_BYTES]):\n"
     '            raise OSError(errno.EIO, "snapshot block does not read back as loaded")\n',
     "", ["tests/test_service.py::test_a_snapshot_read_that_fails_answers_error_until_a_restart"
          "[truncated]"]),
    # the listen backlog holds a burst of connects
    ("src/punchcard/service.py", "    request_queue_size = MAX_CONNS\n",
     "    request_queue_size = 5\n",
     ["tests/test_service.py::test_a_burst_of_16_connections_is_answered_within_half_a_second"]),
    # a failed append gives back the log size it took
    (DB, "            self._log_size = size\n", "",
     ["tests/test_db.py::test_a_failed_append_leaves_the_next_one_cut_at_the_right_size"]),
    # a snapshot's header, written once its records are, holds their count
    # (the leading newline anchors it at the start of its line)
    (DB, "\n                "
     'f.write(_SNAP_MAGIC + struct.pack("<II", size // SECRET_SIZE, len(claims)))\n',
     "\n", ["tests/test_db.py::test_seeded_store_files_pinned"]),
    # a rebuild loads its temp file before the rename, not the snapshot after
    (DB, '                return self._load_snapshot(self._snap + ".tmp")\n\n'
     '            base = write_durably(self._snap, write, "db.snapshot")\n',
     '\n            write_durably(self._snap, write, "db.snapshot")\n'
     "            base = self._load_snapshot(self._snap)\n",
     ["tests/test_db.py::test_a_refused_compaction_leaves_the_old_snapshot_for_the_next_start"]),
    # a lookup reads the logged tier
    (DB, "return u in self._overlay or u in self._logged or u in self._base",
     "return u in self._overlay or u in self._base",
     ["tests/test_db.py::test_a_replayed_log_that_repeats_a_secret_keeps_len_exact"]),
    # the logged tier holds each secret once
    (DB, "    return itertools.compress(recs, map(operator.ne, recs, itertools.chain((b\"\",), recs)))\n",
     "    return iter(recs)\n",
     ["tests/test_db.py::test_a_replayed_log_that_repeats_a_secret_keeps_len_exact"]),
    # the replay's merge cuts each stripe at its bound: no record at the
    # bound is dropped, and none is yielded twice
    (DB, "        held = recs[cut:]\n", "        held = recs[cut + 1:]\n",
     ["tests/test_db.py::test_replay_merge_matches_a_model"]),
    (DB, "        kept = _unique(recs[:cut])\n", "        kept = _unique(recs[:cut + 1])\n",
     ["tests/test_db.py::test_replay_merge_matches_a_model"]),
    # ... and releases a run's piece only once all of it is read
    (DB, "range(done[k] // _PIECE, upto // _PIECE)",
     "range(done[k] // _PIECE, (upto + _PIECE - 1) // _PIECE)",
     ["tests/test_db.py::test_replay_merge_matches_a_model"]),
    # a log that repeats the snapshot is filtered in every run, not the first
    (DB, "                runs.append(_run(logged, seen))\n",
     "                runs.append(_run(logged, None if runs else seen))\n",
     ["tests/test_db.py::test_replay_merge_matches_a_model"]),
    (DB, "                    seen = self._base\n", "                    pass\n",
     ["tests/test_db.py::test_crash_before_log_restart_keeps_len_exact"]),
    # a rebuild merges the logged tier before it empties it
    (DB, "_merge([self._base.view(), self._logged.view(), _run(new)], drop)",
     "_merge([self._base.view(), _run(new)], drop)",
     ["tests/test_db.py::test_compaction_streams_the_logged_tier_into_the_snapshot"]),
    # ... through views, since the merge releases the pieces it has read:
    # a failed rebuild leaves the tier whole, and lookups read the base
    (DB, "self._logged.view()", "self._logged",
     ["tests/test_db.py::test_a_failed_rebuild_leaves_the_logged_tier_whole"]),
    (DB, "self._base.view()", "self._base",
     ["tests/test_db.py::test_lookups_never_miss_while_compacting"]),
    # the merge leaves out the records a purge drops
    (DB, "        yield kept if drop is None else itertools.filterfalse(drop, kept)\n",
     "        yield kept\n", ["tests/test_db.py::test_purge_and_replay"]),
    # ... and empties it only once the new base is installed
    (DB, "        self._base = base  # before the tier and the overlay go; see __contains__\n"
     "        self._logged = _Sorted.from_pieces([])\n",
     "        self._logged = _Sorted.from_pieces([])\n"
     "        self._base = base  # before the tier and the overlay go; see __contains__\n",
     ["tests/test_db.py::test_every_secret_found_at_every_step_of_a_rebuild"]),
    # a second wallet command on one file is refused before it sends
    ("src/punchcard/cli.py", "            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)\n",
     "            pass\n",
     ["tests/test_cli.py::test_a_second_wallet_command_on_one_file_is_refused_before_it_sends"]),
    # purge returns how many secrets its dropping rebuild removed
    (DB, "            return before - len(self._base)\n", "            return 0\n",
     ["tests/test_db.py::test_purge_and_replay"]),
]

# Same behaviour as the original: checked for their old text, never run.
EQUIVALENT = [
    # the comparison stays correct; only its timing could tell them apart
    (CORE, "return hmac.compare_digest(req.card, expected_card(group, sk, req.u, count))",
     "return req.card == expected_card(group, sk, req.u, count)"),
]


def _copy(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest)


def _pytest(cwd: str, args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", "-rfE", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _killer(output: str):
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output, re.M)
    return found.group(1) if found else None


def _old_text_problems(entries) -> list:
    problems = []
    for path, old, *_ in entries:
        with open(os.path.join(ROOT, path)) as f:
            n = f.read().count(old)
        if n != 1:
            problems.append(f"{path}: old text occurs {n} times: {old!r}")
    return problems


def main() -> int:
    problems = _old_text_problems(MUTANTS + EQUIVALENT)
    for problem in problems:
        print("BAD", problem)
    if problems:
        return 1
    survivors, killers = [], []
    with tempfile.TemporaryDirectory(prefix="mutation-drill-") as tmp:
        for i, (path, old, new, tests) in enumerate(MUTANTS):
            copy = os.path.join(tmp, str(i))
            _copy(copy)
            target = os.path.join(copy, path)
            with open(target) as f:
                text = f.read()
            with open(target, "w") as f:
                f.write(text.replace(old, new))
            start = time.perf_counter()
            run = _pytest(copy, tests)
            took = time.perf_counter() - start
            label = f"{path}: {old.strip().splitlines()[0]!r} -> {new.strip()!r}"
            killer = _killer(run.stdout) if run.returncode != 0 else None
            if killer is None:
                survivors.append(label)
                print(f"SURVIVED ({took:.1f}s) {label}\n{run.stdout[-2000:]}", flush=True)
            else:
                killers.append(killer)
                print(f"killed   ({took:.1f}s) {label}\n         by {killer}", flush=True)
            shutil.rmtree(copy)
        for path, old, new in EQUIVALENT:
            print(f"equivalent, not run: {path}: {old!r} -> {new!r}")
        if killers:
            clean = os.path.join(tmp, "clean")
            _copy(clean)
            run = _pytest(clean, sorted(set(killers)))
            if run.returncode != 0:
                print(f"a killer fails without its mutant:\n{run.stdout[-2000:]}")
                return 1
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
