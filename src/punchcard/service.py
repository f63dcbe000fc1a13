"""Server process: config, key storage, request dispatch, TCP loop.

The configured scheme is an object from `schemes`, and each Config field
carries the parser that checks its value when the config is loaded.

The TCP server serves every connection on a reused worker thread. Idle
workers block in accept() themselves, so the thread the kernel wakes for
a connection serves it, with no hand-off; workers start on demand, up to
MAX_WORKERS. Only while all of them are busy does an accept thread accept,
and it queues each connection for the next worker that frees. A whole
frame must arrive within FRAME_DEADLINE_S of accept or of the previous
reply, or the connection is closed, so a slow or silent peer holds a
worker for a bounded time. Above MAX_CONNS accepted but unfinished
connections a new one is closed at once. These are module constants, not
config keys: no caller needs other values (tests patch them to reach the
limits quickly).

The server holds one secret scalar and one growing set of spent secrets.
Per request it does group arithmetic and answers; it learns nothing that
links a punch to a redemption, so the logs and stats here are aggregate
counters only. Card-derived values (secrets, elements) must never be
logged; the log-hygiene test greps for exactly that.
"""

from __future__ import annotations

import logging
import os
import select
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from datetime import date
from typing import Callable, Deque, Dict, List, Optional, Tuple

from . import core, extensions, schemes, wire
from .db import RedeemDb, write_durably
from .errors import (
    BadExpiry,
    ConfigError,
    InvalidEncoding,
    KeyStoreError,
    PromotionTooLarge,
    WireError,
)
from .faults import FaultInjected, fault_point
from .groups import GROUP_NAMES, PAIRING_NAMES

log = logging.getLogger("punchcard.server")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_KEYSTORE = 3
EXIT_BIND = 4

MAX_WORKERS = 64  # handler threads, started on demand and reused
MAX_CONNS = 256  # accepted, unfinished connections; more are closed at once
FRAME_DEADLINE_S = 10.0  # for each whole request frame

_BOOL_WORDS = {
    "1": True,
    "true": True,
    "yes": True,
    "on": True,
    "0": False,
    "false": False,
    "no": False,
    "off": False,
}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_int(key: str, raw: str, lo: int, hi: int) -> int:
    try:
        value = int(raw, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if not lo <= value <= hi:
        raise ConfigError(f"{key}: {value} outside [{lo}, {hi}]")
    return value


def _parse_counts(key: str, raw: str) -> Tuple[int, ...]:
    counts = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        counts.append(_parse_int(key, part, 1, 1 << 15))
    if not counts:
        raise ConfigError(f"{key}: need at least one punch count")
    return tuple(sorted(set(counts)))


def _text(key: str, raw: str) -> str:
    if not raw:
        raise ConfigError(f"{key}: empty value")
    return raw


def _int_in(lo: int, hi: int) -> Callable[[str, str], int]:
    return lambda key, raw: _parse_int(key, raw, lo, hi)


def _one_of(names: Tuple[str, ...]) -> Callable[[str, str], str]:
    def parse(key: str, raw: str) -> str:
        if raw not in names:
            raise ConfigError(f"{key}: {raw!r} is not one of {', '.join(names)}")
        return raw

    return parse


def _option(default, parse: Callable[[str, str], object]):
    """A Config field: its raw text from the file or environment goes,
    stripped, through parse(key, raw), which raises ConfigError if bad."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class Config:
    listen_host: str = _option("127.0.0.1", _text)
    listen_port: int = _option(7907, _int_in(0, 65535))
    state_dir: str = _option("./punchcard-state", _text)
    scheme: str = _option("main", _one_of(schemes.NAMES))
    group: str = _option("ristretto255", _one_of(GROUP_NAMES))
    pairing: str = _option("bls12-381", _one_of(PAIRING_NAMES))
    accepted_counts: Tuple[int, ...] = _option((10,), _parse_counts)
    t_max: int = _option(extensions.DEFAULT_T_MAX, _int_in(1, 255))
    fsync: bool = _option(True, _parse_bool)
    opaque_rejects: bool = _option(False, _parse_bool)
    expiry_check: bool = _option(False, _parse_bool)
    horizon_quarters: int = _option(
        extensions.DEFAULT_HORIZON_QUARTERS, _int_in(1, 64)
    )


_PARSERS = {f.name: f.metadata["parse"] for f in fields(Config)}


def load_config(path: Optional[str] = None, env: Optional[Dict[str, str]] = None) -> Config:
    """Flat `key = value` file; any key can also arrive as PUNCHCARD_<KEY>
    in the environment, which wins over the file."""
    pairs: Dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            pairs[key.strip().lower()] = value
    env = os.environ if env is None else env
    for key in _PARSERS:
        env_key = "PUNCHCARD_" + key.upper()
        if env_key in env:
            pairs[key] = env[env_key]

    cfg = Config()
    for key, raw in pairs.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _PARSERS[key](key, raw.strip()))
    if cfg.expiry_check and cfg.scheme != "main":
        raise ConfigError(f"expiry_check: {cfg.scheme} cards carry no expiry date")
    return cfg


class KeyStore:
    """server.key holds the secret scalar (hex, mode 0600); server.pk the
    public key bytes (hex). The pk file is re-derived and compared on load
    so a swapped or bit-rotted key pair fails loudly. A first start writes
    server.pk, then server.key, which commits the pair, by write_durably.
    It takes no lock: a server opens its store, whose lock owns the state
    directory, before it loads or creates the key."""

    def __init__(self, state_dir: str):
        os.makedirs(state_dir, exist_ok=True)
        self.key_path = os.path.join(state_dir, "server.key")
        self.pk_path = os.path.join(state_dir, "server.pk")

    def load_or_create(self, setup, encode_pk) -> Tuple[int, object]:
        if os.path.exists(self.key_path):
            return self._load(setup, encode_pk)
        sk, pk = setup()
        fault_point("keystore.write")
        pk_line = b"%s\n" % encode_pk(pk).hex().encode()
        write_durably(self.pk_path, lambda f: f.write(pk_line), "keystore.pk")
        write_durably(self.key_path, lambda f: f.write(b"%x\n" % sk), "keystore.key", 0o600)
        return sk, pk

    def _load(self, setup, encode_pk) -> Tuple[int, object]:
        path = self.key_path
        try:
            with open(path) as f:
                sk = int(f.read().strip(), 16)
            _, pk = setup(sk=sk)  # ValueError unless sk is in [1, order)
            path = self.pk_path
            if os.path.exists(path):
                with open(path) as f:
                    if f.read().strip() != encode_pk(pk).hex():
                        raise KeyStoreError("server.pk does not match server.key")
        except (OSError, ValueError) as e:
            raise KeyStoreError(f"cannot load {path}: {e}") from None
        return sk, pk


def store_path(cfg: Config) -> str:
    """The spent-secret store's log; its snapshot sits beside it."""
    return os.path.join(cfg.state_dir, "redeemed.db")


class Stats:
    """Aggregate counters, safe across handler threads."""

    FIELDS = (
        "punches",
        "multi_punches",
        "redeem_accept",
        "redeem_bad_card",
        "redeem_double_spend",
        "redeem_expired",
        "store_errors",
        "protocol_errors",
        "connections",
        "connections_refused",
        "connections_timed_out",
        "connections_queued",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.FIELDS}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class PunchcardService:
    """Protocol dispatch, independent of the transport.

    A store write that fails (an OSError from the append or its fsync)
    gets an ERROR reply, and from then on every redemption does, without
    touching the store, until a restart re-reads the log from disk: after
    a failed fsync a later one that succeeds proves nothing about the
    pages the first left behind (Rebello et al., "Can Applications Recover
    from fsync Failures?", USENIX ATC 2020). Punches go on."""

    def __init__(self, cfg: Config, db: Optional[RedeemDb] = None):
        self.cfg = cfg
        self.stats = Stats()
        self.scheme = schemes.get_scheme(cfg.scheme, cfg.group, cfg.pairing)
        keys = KeyStore(cfg.state_dir)
        # the store's lock owns state_dir, so it is taken before the key
        self.db = db if db is not None else RedeemDb(store_path(cfg), fsync=cfg.fsync)
        try:
            self.sk, self.pk = keys.load_or_create(self.scheme.setup, self.scheme.encode_pk)
        except BaseException:
            if db is None:
                self.db.close()
            raise
        self.pk_bytes = self.scheme.encode_pk(self.pk)
        self.store_failed = False

    # -- helpers -----------------------------------------------------------

    def _reject(self, reason: str) -> Tuple[int, bytes]:
        self.stats.bump("protocol_errors")
        text = "rejected" if self.cfg.opaque_rejects else reason
        return wire.ERROR, text.encode()

    def _redeem_status(self, status: core.RedeemStatus) -> Tuple[int, bytes]:
        self.stats.bump("redeem_" + status.name.lower())
        return self.scheme.redeem_resp, bytes([int(status)])

    # -- dispatch ----------------------------------------------------------

    def handle(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        fault_point("service.handle")
        s = self.scheme
        try:
            if msg_type == wire.PK_REQ:
                return wire.PK_RESP, self.pk_bytes
            if msg_type == s.punch_req:
                resp = s.server_punch(self.sk, self.pk, s.decode_card(body))
                self.stats.bump("punches")
                return s.punch_resp, s.encode(resp)
            if msg_type == s.multi_req:
                t, card_bytes = wire.unpack_multi_req(body)
                extensions.check_punch_count(t, self.cfg.t_max)  # before the decode
                resp = s.server_multi_punch(
                    self.sk, self.pk, s.decode_card(card_bytes), t, self.cfg.t_max
                )
                self.stats.bump("multi_punches")
                self.stats.bump("punches", t)
                return s.multi_resp, s.encode(resp)
            if msg_type == s.redeem_req:
                return self._redeem(body)
            # every other type byte; the frame layer passes all 256 on
            return self._reject(
                f"type 0x{msg_type:02x} not valid for the {s.name} scheme"
            )
        except (InvalidEncoding, WireError) as e:
            return self._reject(f"bad request: {e}")
        except PromotionTooLarge as e:
            return self._reject(str(e))

    def _redeem(self, body: bytes) -> Tuple[int, bytes]:
        """Checks in order of cost: parse (lengths only), accepted count, the
        expiry of each secret, then the scheme's redeem (core.spend: spent
        set, the equation on the card's bytes, which are never decoded)."""
        s = self.scheme
        if self.store_failed:
            return self._reject("store unavailable")
        count, message = wire.unpack_redeem_body(body)
        try:
            req = s.decode(s.redeem_request, message)
        except InvalidEncoding:
            return self._redeem_status(core.RedeemStatus.BAD_CARD)
        if count not in self.cfg.accepted_counts:
            return self._redeem_status(core.RedeemStatus.BAD_CARD)
        if self.cfg.expiry_check:
            try:
                for u in req.secrets:
                    extensions.check_expiry(u, date.today(), self.cfg.horizon_quarters)
            except BadExpiry:
                return self._redeem_status(core.RedeemStatus.EXPIRED)
        try:
            status = s.server_redeem(self.sk, req, count, self.db)
        except OSError as e:
            self.store_failed = True
            self.stats.bump("store_errors")
            log.error("store %s failed, refusing redemptions until a restart: %s",
                      store_path(self.cfg), e)
            return self._reject("store unavailable")
        return self._redeem_status(status)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: ServerHandle = self.server  # type: ignore[assignment]
        service = server.service
        deadline = server.accepted[self.request] + FRAME_DEADLINE_S
        while True:
            try:
                msg_type, body = wire.recv_frame(self.request, deadline=deadline)
            except EOFError:
                return
            except TimeoutError:
                service.stats.bump("connections_timed_out")
                log.debug("connection timed out")
                return
            except (WireError, OSError) as e:
                log.debug("connection dropped: %s", e)
                return
            out_type, out_body = service.handle(msg_type, body)
            try:
                wire.send_frame(self.request, out_type, out_body)
            except OSError:
                return
            deadline = time.monotonic() + FRAME_DEADLINE_S


class ServerHandle(socketserver.ThreadingTCPServer):
    """A TCP server plus its service. start() starts the first worker and
    the accept thread, shutdown() stops them and closes the redemption
    store.

    Idle workers block in accept() (leader/followers); the one that takes
    the last idle slot starts another. With all MAX_WORKERS busy the
    accept thread accepts and queues; a worker that frees takes the
    queue's head or waits for one, and the next connection to arrive while
    one waits makes the accept thread hand accepting back, so the two
    never both block in accept(). Each connection runs through the
    inherited process_request_thread, which handles and then closes it."""

    allow_reuse_address = True
    # the listen backlog: a burst of connects waits in the kernel's accept
    # queue, not for a SYN retransmit (a second or more)
    request_queue_size = MAX_CONNS

    def __init__(self, cfg: Config, db: Optional[RedeemDb] = None):
        # before the bind, whose failure calls server_close
        self.accepted: Dict[socket.socket, float] = {}  # open socket -> accept time
        self._lock = threading.Lock()
        self._overflowing = threading.Condition(self._lock)  # the accept thread waits
        self._queued = threading.Condition(self._lock)  # free workers wait, in overflow
        self._queue: Deque[Tuple[socket.socket, object]] = deque()
        self._workers: List[threading.Thread] = []
        self._idle = 0  # workers not serving; in an overflow, those wait
        self._overflow = False  # every worker busy: the accept thread accepts
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        # the address first, so a refused one leaves state_dir untouched
        super().__init__((cfg.listen_host, cfg.listen_port), _Handler)
        try:
            self.service = PunchcardService(cfg, db=db)
        except BaseException:
            self.server_close()
            raise

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "ServerHandle":
        with self._lock:
            self._spawn()
        self._thread = threading.Thread(
            target=self._accept_overflow, name="punchcard-accept", daemon=True
        )
        self._thread.start()
        log.info(
            "recovered snapshot_entries=%d log_records=%d torn_bytes=%d in %.3f s",
            *self.service.db.recovery,
        )
        scheme = self.service.scheme
        log.info("listening on %s:%d scheme=%s backend=%s kernel=%s",
                 self.service.cfg.listen_host, self.port,
                 self.service.cfg.scheme, scheme.backend, scheme.params.kernel)
        return self

    def _spawn(self) -> None:
        """Under the lock: start one more worker, idle."""
        worker = threading.Thread(
            target=self._work, name=f"punchcard-conn-{len(self._workers)}", daemon=True
        )
        self._workers.append(worker)
        self._idle += 1
        worker.start()

    def _took(self) -> None:
        """Under the lock: a worker took a connection. If it was the last
        idle one, start another, or past MAX_WORKERS hand accepting to the
        accept thread."""
        self._idle -= 1
        if self._idle:
            return
        if len(self._workers) < MAX_WORKERS:
            self._spawn()
        else:
            self._overflow = True
            self._overflowing.notify()

    def _admit(self, request, client_address, queued: bool) -> bool:
        """Note a fresh connection's accept time, then queue it or count
        its worker busy; or close it at once, over MAX_CONNS or in a stop."""
        with self._lock:
            full = len(self.accepted) >= MAX_CONNS
            admitted = not (full or self._stopping)
            if admitted:
                self.accepted[request] = time.monotonic()
                if queued:
                    self._queue.append((request, client_address))
                    self._queued.notify()
                else:
                    self._took()
        if not admitted:
            if full:
                self.service.stats.bump("connections_refused")
            self.shutdown_request(request)
            return False
        self.service.stats.bump("connections")
        if queued:
            self.service.stats.bump("connections_queued")
        return True

    def _work(self) -> None:
        """A worker: accept a connection and serve it, then the next. In an
        overflow it takes the queue's head instead, or waits for one."""
        job = None
        while True:
            with self._lock:
                if job is not None:  # served and closed
                    del self.accepted[job[0]]
                    self._idle += 1
                    job = None
                while self._overflow and not self._queue and not self._stopping:
                    self._queued.wait()
                if self._stopping:
                    return
                if self._queue:
                    job = self._queue.popleft()
                    self._took()
            if job is None:
                try:
                    job = self.socket.accept()
                except OSError:  # the stop's wake-up, or a peer gone first
                    continue
                if not self._admit(*job, queued=False):
                    job = None
                    continue
            try:
                self.process_request_thread(*job)
            except FaultInjected as e:
                # a simulated crash of this connection only; the socket is
                # closed already and the worker goes on to the next one
                log.error("connection handler crashed: %s", e)

    def _accept_overflow(self) -> None:
        """The accept thread: it accepts only while every worker is busy,
        and queues each connection. A connection that finds a worker
        waiting is left to that worker, which accepts again."""
        poller = select.poll()
        poller.register(self.socket, select.POLLIN)
        while True:
            with self._lock:
                while not (self._overflow or self._stopping):
                    self._overflowing.wait()
            poller.poll()  # a connection, or the stop's wake-up
            with self._lock:
                if self._stopping:
                    return
                if self._idle:  # a worker waits: it takes this connection
                    self._overflow = False
                    self._queued.notify_all()
                    continue
            try:
                job = self.socket.accept()
            except OSError:
                continue
            self._admit(*job, queued=True)

    def server_close(self) -> None:
        """Stop: wake every thread blocked in accept() (shutting down the
        listener does that), on a connection or on the queue, wait for
        them, then close the listener and every connection still queued."""
        with self._lock:
            self._stopping = True
            self._overflowing.notify_all()
            self._queued.notify_all()
            for request in self.accepted:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            threads = list(self._workers)
        if self._thread is not None:
            threads.append(self._thread)
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # it never listened
            pass
        deadline = time.monotonic() + 5
        for thread in threads:
            thread.join(max(deadline - time.monotonic(), 0))
        left = sum(thread.is_alive() for thread in threads)
        if left:
            log.warning("%d server threads did not stop", left)
        super().server_close()
        while self._queue:
            request, _ = self._queue.popleft()
            self.accepted.pop(request, None)
            self.shutdown_request(request)

    def shutdown(self) -> None:
        self.server_close()
        self.service.db.compact()
        self.service.db.close()
        for name, value in sorted(self.service.stats.snapshot().items()):
            log.info("stat %s=%d", name, value)


def run_server(cfg: Config) -> int:
    """Blocking entry point used by the CLI; returns a process exit code."""
    try:
        handle = ServerHandle(cfg)
    except KeyStoreError as e:
        log.error("keystore: %s", e)
        return EXIT_KEYSTORE
    except OSError as e:
        if e.filename is not None:  # a file under state_dir, not the address
            raise
        log.error("cannot bind %s:%d: %s", cfg.listen_host, cfg.listen_port, e)
        return EXIT_BIND
    try:
        # an interrupt as early as start() must still reach shutdown(), which
        # stops the workers and compacts and closes the store
        handle.start()
        handle._thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        handle.shutdown()
    return EXIT_OK


class Client:
    """Tiny blocking client for tests, the wallet CLI, and the benches."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._timeout = timeout

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        self._sock.settimeout(self._timeout)  # the last reply's deadline re-armed it
        wire.send_frame(self._sock, msg_type, body)
        # the whole reply within `timeout` of the request, as the server
        # reads a request: one dribbled a byte at a time times out too
        return wire.recv_frame(self._sock, deadline=time.monotonic() + self._timeout)

    def fetch_pk(self) -> bytes:
        return wire.reply_body(self.call(wire.PK_REQ, b""), wire.PK_RESP)
