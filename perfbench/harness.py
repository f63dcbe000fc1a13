"""One benchmark run: set-up, load, checks and metrics.

Set-up writes the server's state from the seed (key, spent-secret
snapshot and log tail, config with ``listen_port = 0`` and ``fsync = on``),
then starts the server SETUP_STARTS times and keeps the last one; each
start is timed from spawn to the first PK_RESP. The load is closed-loop
lanes in this process, each one thread. The server is always terminated
and reaped and the work directory removed, also when a run fails.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import random
import shutil
import statistics
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from punchcard import core, mergeable, service
from punchcard.core import SECRET_SIZE
from punchcard.db import RedeemDb
from punchcard.groups import RistrettoGroup, get_group, get_pairing

from perfbench import tracing
from perfbench.server import ServerProcess

SETUP_STARTS = 9
CLIENT_TIMEOUT = 30.0


class RecordingClient(service.Client):
    """service.Client that remembers the last request and every reply's
    type and size, so a session can be checked and replayed byte for byte."""

    def __init__(self, host: str, port: int):
        super().__init__(host, port, timeout=CLIENT_TIMEOUT)
        self.last_request: Optional[Tuple[int, bytes]] = None
        self.replies: List[Tuple[int, int]] = []

    def call(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        self.last_request = (msg_type, body)
        reply = super().call(msg_type, body)
        self.replies.append((reply[0], len(reply[1])))
        return reply


class WalletRng:
    """Routes a wallet's random draws to separate seeded streams: 32-byte
    draws (card secrets) to one, 64-byte draws (masks) to another. Any
    other size raises, so a change in how the wallet draws shows up."""

    def __init__(self, cards: random.Random, masks: random.Random, drawn: List[bytes]):
        self._cards, self._masks, self._drawn = cards, masks, drawn

    def randbytes(self, n: int) -> bytes:
        if n == SECRET_SIZE:
            u = self._cards.randbytes(n)
            self._drawn.append(u)
            return u
        if n == 64:
            return self._masks.randbytes(n)
        raise ValueError(f"unexpected draw of {n} random bytes")


@dataclass
class LaneRecord:
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)


def preload_secrets(seed: int, n: int) -> List[bytes]:
    rng = random.Random(f"{seed}/preload")
    return [rng.randbytes(SECRET_SIZE) for _ in range(n)]


def percentile(xs: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it."""
    if not xs:
        return None
    xs = sorted(xs)
    rank = max(1, -(-len(xs) * p // 100))  # ceil(n * p / 100)
    if len(xs) - rank < 10:
        return None
    return xs[int(rank) - 1]


def _cpu_steal_ticks() -> int:
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def _load1() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def machine_record() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ristretto_backend": RistrettoGroup().backend_name,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


class Run:
    def __init__(self, spec, seed: int, workdir: str, trace: bool):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.state_dir = os.path.join(workdir, "state")
        self.trace = trace
        self.tracer: Optional[tracing.Tracer] = None
        self.lanes = [LaneRecord() for _ in range(spec.lanes)]
        self.card_secrets: List[bytes] = []
        self.requests: list = []
        self.host, self.port = "", 0
        if spec.scheme == "main":
            self.group = get_group(spec.group)
            setup = lambda sk=None: core.server_setup(  # noqa: E731
                self.group, rng=self.stream("key"), sk=sk)
            encode = self.group.encode_element
        else:
            self.pairing = get_pairing(spec.pairing)
            setup = lambda sk=None: mergeable.server_setup(  # noqa: E731
                self.pairing, rng=self.stream("key"), sk=sk)
            encode = lambda pk: pk.to_bytes(self.pairing)  # noqa: E731
        self.sk, pk = service.KeyStore(self.state_dir).load_or_create(setup, encode)
        self.pk_bytes = encode(pk)

    def stream(self, name: str) -> random.Random:
        """An independent stream of the run's seed; str seeds hash with
        SHA-512, so streams do not depend on PYTHONHASHSEED."""
        return random.Random(f"{self.seed}/{name}")

    def wallet_rng(self, lane: int) -> WalletRng:
        return WalletRng(self.stream(f"cards.{lane}"), self.stream(f"masks.{lane}"),
                         self.card_secrets)

    def session(self, rec: LaneRecord, kind: str, action) -> bool:
        """One closed-loop session on a fresh connection. action(client)
        returns None when the outcome is the expected one, else why not.
        Returns whether it succeeded."""
        rec.attempted += 1
        t0 = time.perf_counter()
        try:
            with RecordingClient(self.host, self.port) as client:
                problem = action(client)
        except Exception as e:  # every failure of a session is counted
            problem = f"{type(e).__name__}: {e}"
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if problem is None:
            rec.samples[kind].append(elapsed_ms)
            return True
        rec.failed += 1
        rec.failures[f"{kind}: {problem}"[:160]] += 1
        return False


def _write_config(run: Run) -> str:
    spec = run.spec
    path = os.path.join(run.workdir, "server.conf")
    lines = {
        "listen_host": "127.0.0.1",
        "listen_port": "0",
        "state_dir": run.state_dir,
        "scheme": spec.scheme,
        "group": spec.group,
        "pairing": spec.pairing,
        "accepted_counts": ",".join(map(str, spec.accepted_counts)),
        "fsync": "on",
        "expiry_check": "on" if spec.expiry_check else "off",
    }
    with open(path, "w") as f:
        f.writelines(f"{k} = {v}\n" for k, v in lines.items())
    return path


def _prepare_db(run: Run) -> None:
    spec = run.spec
    if not spec.preload and not spec.log_tail:
        return
    secrets = preload_secrets(run.seed, spec.preload + spec.log_tail)
    db = RedeemDb(os.path.join(run.state_dir, "redeemed.db"), fsync=False)
    try:
        db.preload(secrets[: spec.preload])
        for u in secrets[spec.preload:]:
            db.check_and_insert(u)
    finally:
        db.close()


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    e2e: Dict[str, Tuple[Optional[float], str, int]]  # name -> (value, unit, samples)
    layers: Dict[str, Tuple[float, str]]
    failures: Counter
    problems: List[str]
    noise: Dict[str, object]


# percentiles reported per session kind
PERCENTILES = {
    "punch": (50, 99),
    "multi_punch": (50,),
    "redeem": (50, 99),
    "reject": (50,),
    "merge_punch": (50, 90),
    "merge_redeem": (50, 90),
}


def run_workload(spec, seed: int, seconds: float, trace: bool, parent: str) -> Result:
    """One run in a fresh work directory under parent; both are removed
    afterwards, parent only if no other run is using it."""
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=spec.name + "-", dir=parent)
    run = Run(spec, seed, workdir, trace)
    server: Optional[ServerProcess] = None
    try:
        _prepare_db(run)
        config = _write_config(run)
        if spec.prepare is not None:
            spec.prepare(run, seconds)
        setups = []
        for i in range(SETUP_STARTS):
            last = i == SETUP_STARTS - 1
            spans = os.path.join(workdir, "spans.json") if trace and last else None
            server = ServerProcess(config, spans)
            setups.append(server.start())
            if not last:
                server.stop()
        run.host, run.port = server.host, server.port
        return _measure(run, server, seconds, setups)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass


def _measure(run: Run, server: ServerProcess, seconds: float, setups: List[float]) -> Result:
    spec = run.spec
    problems: List[str] = []
    if server.pk != run.pk_bytes:
        problems.append("server public key differs from the key written in set-up")
    if run.trace:
        run.tracer = tracing.Tracer()
        run.tracer.install("client")
    log_path = os.path.join(run.state_dir, "redeemed.db")
    log0 = os.path.getsize(log_path)
    errors: List[BaseException] = []

    def lane_main(i: int, deadline: float) -> None:
        try:
            spec.lane(run, i, deadline)
        except BaseException as e:  # re-raised in the main thread below
            errors.append(e)

    try:
        steal0, load0 = _cpu_steal_ticks(), _load1()
        cpu0 = server.cpu_seconds()
        w0 = tracing.clock()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [threading.Thread(target=lane_main, args=(i, deadline), daemon=True)
                   for i in range(spec.lanes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        w1 = tracing.clock()
        cpu1 = server.cpu_seconds()
        steal1, load1 = _cpu_steal_ticks(), _load1()
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    if errors:
        raise errors[0]
    log_bytes = os.path.getsize(log_path) - log0
    rss = server.peak_rss_mb()
    if not server.alive():
        problems.append("server exited during the run:\n" + server.log_tail())

    attempted = sum(r.attempted for r in run.lanes)
    failed = sum(r.failed for r in run.lanes)
    completed = attempted - failed
    samples: Dict[str, List[float]] = defaultdict(list)
    failures: Counter = Counter()
    for r in run.lanes:
        for k, v in r.samples.items():
            samples[k].extend(v)
        failures.update(r.failures)

    e2e: Dict[str, Tuple[Optional[float], str, int]] = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "server_rss_mb": (rss, "MB", 1),
        "ops_per_s": (completed / elapsed, "1/s", completed),
        "server_cpu_ms_per_op": ((cpu1 - cpu0) * 1e3 / max(completed, 1), "ms", completed),
        "failed_ratio": (failed / max(attempted, 1), "ratio", attempted),
    }
    every = [x for xs in samples.values() for x in xs]
    for p in (50, 90):
        e2e[f"session_p{p}_ms"] = (percentile(every, p), "ms", len(every))
    for kind in spec.kinds:
        xs = samples.get(kind, [])
        for p in PERCENTILES[kind]:
            e2e[f"{kind}_p{p}_ms"] = (percentile(xs, p), "ms", len(xs))

    layers: Dict[str, Tuple[float, str]] = {}
    if run.trace:
        code = server.stop()
        if code != 0:
            problems.append(f"traced server exited with {code}:\n" + server.log_tail())
        spans, gauges = tracing.load_dump(server.spans_path)
        layers = tracing.layer_metrics(
            spans, run.tracer.spans, (w0, w1), completed, gauges, log_bytes)

    problems += _check_secrets(run)
    noise = {
        "setup_s_each": [round(x, 4) for x in setups],
        "cpu_steal_ticks": steal1 - steal0,
        "loadavg_1m": [load0, load1],
        "requests_made_during_load": sum(r.extra for r in run.requests),
    }
    correct = failed == 0 and not problems
    return Result(correct, attempted, failed, e2e, layers, failures, problems, noise)


def _check_secrets(run: Run) -> List[str]:
    """No card secret the run generated may already be spent in the
    preload: that would turn a fresh redemption into a false replay."""
    spec = run.spec
    if not spec.preload + spec.log_tail or not run.card_secrets:
        return []
    spent = set(preload_secrets(run.seed, spec.preload + spec.log_tail))
    clashes = sum(1 for u in run.card_secrets if u in spent)
    if clashes:
        return [f"{clashes} generated card secrets are in the preloaded spent set"]
    return []
