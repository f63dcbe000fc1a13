"""Mutation drill: every mutant below must fail a test.

Each mutant is (file, old text, new text, test files): the old text must
occur exactly once in the file. The drill copies src/ and tests/ (with
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
    (DB, "                if count == 0 or end > n:\n", "                if end > n:\n",
     ["tests/test_db.py"]),
    # t never exceeds 255, whatever t_max says
    (EXT, "    if not 1 <= t <= min(t_max, 255):\n", "    if not 1 <= t <= t_max:\n",
     ["tests/test_extensions.py", "tests/test_service.py"]),
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
