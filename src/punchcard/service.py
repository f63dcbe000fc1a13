"""Server process: config, key storage, request dispatch, TCP loop.

The server holds one secret scalar and one growing set of spent secrets.
Per request it does group arithmetic and answers; it learns nothing that
links a punch to a redemption, so the logs and stats here are aggregate
counters only. Card-derived values (secrets, elements) must never be
logged; the log-hygiene test greps for exactly that.
"""

from __future__ import annotations

import logging
import os
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Optional, Set, Tuple

from . import core, extensions, mergeable, wire
from .db import RedeemDb
from .errors import (
    BadExpiry,
    ConfigError,
    InvalidEncoding,
    KeyStoreError,
    PromotionTooLarge,
    WireError,
)
from .faults import fault_point
from .groups import get_group, get_pairing

log = logging.getLogger("punchcard.server")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_KEYSTORE = 3
EXIT_BIND = 4

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


@dataclass
class Config:
    listen_host: str = "127.0.0.1"
    listen_port: int = 7907
    state_dir: str = "./punchcard-state"
    scheme: str = "main"  # main | mergeable
    group: str = "ristretto255"
    pairing: str = "bls12-381"
    accepted_counts: Tuple[int, ...] = (10,)
    t_max: int = extensions.DEFAULT_T_MAX
    fsync: bool = True
    opaque_rejects: bool = False
    expiry_check: bool = False
    horizon_quarters: int = extensions.DEFAULT_HORIZON_QUARTERS


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_int(key: str, raw: str, lo: int, hi: int) -> int:
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if not lo <= value <= hi:
        raise ConfigError(f"{key}: {value} outside [{lo}, {hi}]")
    return value


def _parse_counts(raw: str) -> Tuple[int, ...]:
    counts = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        counts.append(_parse_int("accepted_counts", part, 1, 1 << 15))
    if not counts:
        raise ConfigError("accepted_counts: need at least one punch count")
    return tuple(sorted(set(counts)))


def load_config(path: Optional[str] = None, env: Optional[Dict[str, str]] = None) -> Config:
    """Flat `key = value` file; any key can also arrive as PUNCHCARD_<KEY>
    in the environment, which wins over the file."""
    pairs: Dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            pairs[key.strip().lower()] = value.strip()
    env = os.environ if env is None else env
    for key in list(Config.__dataclass_fields__):
        env_key = "PUNCHCARD_" + key.upper()
        if env_key in env:
            pairs[key] = env[env_key]

    cfg = Config()
    for key, raw in pairs.items():
        if key == "listen_host":
            cfg.listen_host = raw
        elif key == "listen_port":
            cfg.listen_port = _parse_int(key, raw, 0, 65535)
        elif key == "state_dir":
            cfg.state_dir = raw
        elif key == "scheme":
            if raw not in ("main", "mergeable"):
                raise ConfigError(f"scheme: {raw!r} is not main or mergeable")
            cfg.scheme = raw
        elif key == "group":
            cfg.group = raw
        elif key == "pairing":
            cfg.pairing = raw
        elif key == "accepted_counts":
            cfg.accepted_counts = _parse_counts(raw)
        elif key == "t_max":
            cfg.t_max = _parse_int(key, raw, 1, 255)
        elif key == "fsync":
            cfg.fsync = _parse_bool(key, raw)
        elif key == "opaque_rejects":
            cfg.opaque_rejects = _parse_bool(key, raw)
        elif key == "expiry_check":
            cfg.expiry_check = _parse_bool(key, raw)
        elif key == "horizon_quarters":
            cfg.horizon_quarters = _parse_int(key, raw, 1, 64)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return cfg


class KeyStore:
    """server.key holds the secret scalar (hex, mode 0600); server.pk the
    public key bytes (hex). The pk file is re-derived and compared on load
    so a swapped or bit-rotted key pair fails loudly."""

    def __init__(self, state_dir: str):
        self._dir = state_dir
        self.key_path = os.path.join(state_dir, "server.key")
        self.pk_path = os.path.join(state_dir, "server.pk")

    def load_or_create(self, setup, encode_pk) -> Tuple[int, object]:
        os.makedirs(self._dir, exist_ok=True)
        if os.path.exists(self.key_path):
            return self._load(setup, encode_pk)
        sk, pk = setup()
        fault_point("keystore.write")
        fd = os.open(self.key_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        with os.fdopen(fd, "w") as f:
            f.write(format(sk, "x") + "\n")
        with open(self.pk_path, "w") as f:
            f.write(encode_pk(pk).hex() + "\n")
        return sk, pk

    def _load(self, setup, encode_pk) -> Tuple[int, object]:
        try:
            with open(self.key_path) as f:
                sk = int(f.read().strip(), 16)
        except (OSError, ValueError) as e:
            raise KeyStoreError(f"cannot load {self.key_path}: {e}") from None
        _, pk = setup(sk=sk)
        if os.path.exists(self.pk_path):
            with open(self.pk_path) as f:
                stored = f.read().strip()
            if stored != encode_pk(pk).hex():
                raise KeyStoreError("server.pk does not match server.key")
        return sk, pk


class Stats:
    """Aggregate counters, safe across handler threads."""

    FIELDS = (
        "punches",
        "multi_punches",
        "redeem_accept",
        "redeem_bad_card",
        "redeem_double_spend",
        "redeem_expired",
        "protocol_errors",
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
    """Protocol dispatch, independent of the transport."""

    def __init__(self, cfg: Config, db: Optional[RedeemDb] = None):
        self.cfg = cfg
        self.stats = Stats()
        store = KeyStore(cfg.state_dir)
        if cfg.scheme == "main":
            self.group = get_group(cfg.group)
            self.sk, self.pk = store.load_or_create(
                lambda sk=None: core.server_setup(self.group, sk=sk),
                self.group.encode_element,
            )
            self.pk_bytes = self.group.encode_element(self.pk)
        else:
            self.pairing = get_pairing(cfg.pairing)
            self.sk, self.pk = store.load_or_create(
                lambda sk=None: mergeable.server_setup(self.pairing, sk=sk),
                lambda pk: pk.to_bytes(self.pairing),
            )
            self.pk_bytes = self.pk.to_bytes(self.pairing)
        db_path = None if db is not None else os.path.join(cfg.state_dir, "redeemed.db")
        self.db = db if db is not None else RedeemDb(db_path, fsync=cfg.fsync)

    # -- helpers -----------------------------------------------------------

    def _reject(self, reason: str) -> Tuple[int, bytes]:
        self.stats.bump("protocol_errors")
        text = "rejected" if self.cfg.opaque_rejects else reason
        return wire.ERROR, text.encode()

    def _redeem_status(
        self, status: core.RedeemStatus, resp_type: int = wire.REDEEM_RESP
    ) -> Tuple[int, bytes]:
        name = {
            core.RedeemStatus.ACCEPT: "redeem_accept",
            core.RedeemStatus.BAD_CARD: "redeem_bad_card",
            core.RedeemStatus.DOUBLE_SPEND: "redeem_double_spend",
            core.RedeemStatus.EXPIRED: "redeem_expired",
        }[status]
        self.stats.bump(name)
        return resp_type, bytes([int(status)])

    # -- dispatch ----------------------------------------------------------

    def handle(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        fault_point("service.handle")
        try:
            if msg_type == wire.PK_REQ:
                return wire.PK_RESP, self.pk_bytes
            if self.cfg.scheme == "main":
                return self._handle_main(msg_type, body)
            return self._handle_mergeable(msg_type, body)
        except (InvalidEncoding, WireError) as e:
            return self._reject(f"bad request: {e}")
        except PromotionTooLarge as e:
            return self._reject(str(e))

    def _handle_main(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        g = self.group
        if msg_type == wire.PUNCH_REQ:
            card = g.decode_element(body)
            resp = core.server_punch(g, self.sk, self.pk, card)
            self.stats.bump("punches")
            return wire.PUNCH_RESP, resp.to_bytes(g)
        if msg_type == wire.MULTI_REQ:
            t, card_bytes = wire.unpack_multi_req(body)
            card = g.decode_element(card_bytes)
            resp = extensions.server_multi_punch(
                g, self.sk, self.pk, card, t, t_max=self.cfg.t_max
            )
            self.stats.bump("multi_punches")
            self.stats.bump("punches", t)
            return wire.MULTI_RESP, resp.to_bytes(g)
        if msg_type == wire.REDEEM_REQ:
            count, message = wire.unpack_redeem_body(body)
            try:
                req = core.RedeemRequest.from_bytes(g, message)
            except InvalidEncoding:
                return self._redeem_status(core.RedeemStatus.BAD_CARD)
            if count not in self.cfg.accepted_counts:
                return self._redeem_status(core.RedeemStatus.BAD_CARD)
            if self.cfg.expiry_check:
                try:
                    extensions.check_expiry(
                        req.u, date.today(), self.cfg.horizon_quarters
                    )
                except BadExpiry:
                    return self._redeem_status(core.RedeemStatus.EXPIRED)
            status = core.server_redeem(g, self.sk, req, count, self.db)
            return self._redeem_status(status)
        return self._reject(f"type 0x{msg_type:02x} not valid for the main scheme")

    def _handle_mergeable(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        pg = self.pairing
        if msg_type == wire.MERGE_PUNCH_REQ:
            card = mergeable.MergeCard.from_bytes(pg, body)
            resp = mergeable.server_punch(pg, self.sk, self.pk, card)
            self.stats.bump("punches")
            return wire.MERGE_PUNCH_RESP, resp.to_bytes(pg)
        if msg_type == wire.MERGE_REDEEM_REQ:
            count, message = wire.unpack_redeem_body(body)
            resp_type = wire.MERGE_REDEEM_RESP
            try:
                req = mergeable.MergeRedeemRequest.from_bytes(pg, message)
            except InvalidEncoding:
                return self._redeem_status(core.RedeemStatus.BAD_CARD, resp_type)
            if count not in self.cfg.accepted_counts:
                return self._redeem_status(core.RedeemStatus.BAD_CARD, resp_type)
            status = mergeable.server_redeem(pg, self.sk, req, count, self.db)
            return self._redeem_status(status, resp_type)
        return self._reject(
            f"type 0x{msg_type:02x} not valid for the mergeable scheme"
        )


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                msg_type, body = wire.recv_frame(self.request)
            except EOFError:
                return
            except (WireError, OSError) as e:
                log.debug("connection dropped: %s", e)
                return
            out_type, out_body = service.handle(msg_type, body)
            try:
                wire.send_frame(self.request, out_type, out_body)
            except OSError:
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServerHandle:
    """A running TCP server plus its service; start() binds, shutdown()
    stops the accept loop and closes the redemption store."""

    def __init__(self, cfg: Config, db: Optional[RedeemDb] = None):
        self.service = PunchcardService(cfg, db=db)
        try:
            self._server = _Server(
                (cfg.listen_host, cfg.listen_port), _Handler
            )
        except OSError as e:
            self.service.db.close()
            raise
        self._server.service = self.service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.daemon = True
        self._thread.start()
        log.info("listening on %s:%d scheme=%s", self.service.cfg.listen_host,
                 self.port, self.service.cfg.scheme)
        return self

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
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
        log.error("cannot bind %s:%d: %s", cfg.listen_host, cfg.listen_port, e)
        return EXIT_BIND
    handle.start()
    try:
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

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, msg_type: int, body: bytes) -> Tuple[int, bytes]:
        wire.send_frame(self._sock, msg_type, body)
        return wire.recv_frame(self._sock)

    def fetch_pk(self) -> bytes:
        msg_type, body = self.call(wire.PK_REQ, b"")
        if msg_type != wire.PK_RESP:
            raise WireError(body.decode(errors="replace"))
        return body
