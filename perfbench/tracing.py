"""Span tracing from outside the program, and the per-layer metrics.

The package is not edited: the tracer replaces public functions and
methods of each layer (module attributes and class attributes, which the
callers look up at call time) with wrappers that time every call. A span
is ``(id, name, start_ns, end_ns, parent_id, conn, extra, err)`` on the
process-wide monotonic clock, so the server's and the load generator's
spans share one time axis; conn is the server's connection id, 0 in the
load generator. Spans stay in memory until the process dumps them.

``layer_metrics`` turns the spans of one load window into the per-layer
metrics: calls per completed operation, median time per call, and median
self time (a span minus its children).
"""

from __future__ import annotations

import itertools
import json
import os
import socketserver
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic_ns

# extra field of a service.handle span
HANDLED, REJECTED, ACCEPTED = 0, 1, 2

MSG_NAMES = {
    0x01: "PUNCH_REQ",
    0x03: "REDEEM_REQ",
    0x05: "MULTI_REQ",
    0x07: "MERGE_PUNCH_REQ",
    0x09: "MERGE_REDEEM_REQ",
    0x10: "PK_REQ",
}


class _Local(threading.local):
    def __init__(self):
        self.stack: List[int] = []
        self.conn = 0


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.db = None
        self._ids = itertools.count(1)
        self._conns = itertools.count(1)
        self._local = _Local()
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, owner, attr: str, name, extra: Optional[Callable] = None) -> None:
        """Replace owner.attr by a timing wrapper. name is a span name or a
        function of the call's arguments; extra(args, result) -> int fills
        the span's extra field."""
        orig = getattr(owner, attr)
        own = attr in vars(owner)
        local, ids, append = self._local, self._ids, self.spans.append

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = local.stack
            sid = next(ids)
            stack.append(sid)
            err = True
            result = None
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                err = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                append((
                    sid, span_name, t0, t1, stack[-1] if stack else 0,
                    local.conn, extra(args, result) if extra and not err else 0, err,
                ))

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def install(self, side: str) -> None:
        """side is "server" or "client"; both get the crypto and protocol
        layers, the server also its transport, dispatch and store, the
        client its wallet."""
        from punchcard import core, dleq, extensions, mergeable
        from punchcard.groups import bls, ristretto
        from punchcard.groups.bls import curve, pairing

        targets = [
            (ristretto.RistrettoGroup, "exp", "groups.ristretto.exp"),
            (ristretto.RistrettoGroup, "decode_element", "groups.ristretto.decode_element"),
            (ristretto.RistrettoGroup, "hash_to_group", "groups.ristretto.hash_to_group"),
            (bls.BlsG0, "exp", "groups.bls.g1_exp"),
            (bls.BlsG1, "exp", "groups.bls.g2_exp"),
            (bls.BlsG0, "decode_element", "groups.bls.g1_decode"),
            (bls.BlsG1, "decode_element", "groups.bls.g2_decode"),
            (curve, "in_subgroup_g1", "groups.bls.in_subgroup_g1"),
            (curve, "in_subgroup_g2", "groups.bls.in_subgroup_g2"),
            (curve, "hash_to_g1", "groups.bls.hash_to_g1"),
            (curve, "hash_to_g2", "groups.bls.hash_to_g2"),
            (bls.Bls12381, "pair", "groups.bls.pair"),
            (pairing, "final_exp", "groups.bls.final_exp"),
            (bls.BlsGt, "decode_element", "groups.bls.gt_decode"),
            (dleq, "prove", "dleq.prove"),
            (dleq, "verify", "dleq.verify"),
        ]
        for module, fns in (
            (core, ("server_punch", "client_punch", "client_redeem", "verify_card",
                    "server_redeem", "issue")),
            (mergeable, ("server_punch", "client_punch", "client_merge_redeem",
                         "verify_card", "server_redeem", "issue")),
            (extensions, ("server_multi_punch", "client_multi_punch", "check_expiry")),
        ):
            prefix = module.__name__.rsplit(".", 1)[1] + "."
            targets += [(module, fn, prefix + fn) for fn in fns]
        for owner, attr, name in targets:
            self.wrap(owner, attr, name)
        if side == "server":
            self._install_server()
        else:
            from punchcard import wallet

            for fn in ("save", "punch", "multi_punch", "redeem", "merge_redeem"):
                self.wrap(wallet.Wallet, fn, "wallet." + fn)

    def _install_server(self) -> None:
        from punchcard import db, service, wire

        def handle_name(args):
            return "service.handle." + MSG_NAMES.get(args[1], "OTHER")

        def handle_outcome(args, result):
            out_type, body = result
            if out_type == wire.ERROR:
                return REJECTED
            if out_type in (wire.REDEEM_RESP, wire.MERGE_REDEEM_RESP):
                return ACCEPTED if body == b"\x00" else REJECTED
            return HANDLED

        def remember_db(args, result):
            self.db = args[0]
            return 0

        self.wrap(service.PunchcardService, "handle", handle_name, handle_outcome)
        self.wrap(wire, "recv_frame", "wire.recv_frame", lambda a, r: 5 + len(r[1]))
        self.wrap(wire, "send_frame", "wire.send_frame", lambda a, r: 5 + len(a[2]))
        self.wrap(db.RedeemDb, "__init__", "db.recover", remember_db)
        self.wrap(db.RedeemDb, "check_and_insert", "db.check_and_insert")
        self.wrap(os, "fsync", "db.fsync")
        self._hook_connections()

    def _hook_connections(self) -> None:
        """A "service.accept" mark per connection, and every span of the
        connection's handler thread tagged with its id."""
        mixin = socketserver.ThreadingMixIn
        orig_request = mixin.process_request
        orig_thread = mixin.process_request_thread
        accepted: Dict[int, int] = {}
        local, append = self._local, self.spans.append

        def process_request(srv, request, client_address):
            accepted[id(request)] = clock()
            orig_request(srv, request, client_address)

        def process_request_thread(srv, request, client_address):
            local.conn = next(self._conns)
            t = accepted.pop(id(request), clock())
            append((next(self._ids), "service.accept", t, t, 0, local.conn, 0, False))
            orig_thread(srv, request, client_address)

        mixin.process_request = process_request
        mixin.process_request_thread = process_request_thread
        self._undo.append((mixin, "process_request", orig_request, True))
        self._undo.append((mixin, "process_request_thread", orig_thread, True))

    def dump(self, path: str) -> None:
        gauges = {"db.entries": len(self.db)} if self.db is not None else {}
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"spans": self.spans[:], "gauges": gauges}, f)
        os.replace(tmp, path)


def load_dump(path: str) -> Tuple[List[tuple], Dict[str, float]]:
    with open(path) as f:
        data = json.load(f)
    return [tuple(s) for s in data["spans"]], data["gauges"]


# ---------------------------------------------------------------------------
# aggregation

# wrapped layer functions: (span name, time unit, report .calls, report .self_ms)
FUNCTIONS = [
    ("groups.ristretto." + f, "us", True, False)
    for f in ("exp", "decode_element", "hash_to_group")
] + [
    ("groups.bls." + f, "ms", True, False)
    for f in ("g1_exp", "g2_exp", "g1_decode", "g2_decode", "in_subgroup_g1",
              "in_subgroup_g2", "hash_to_g1", "hash_to_g2", "pair", "final_exp",
              "gt_decode")
] + [
    ("dleq.prove", "ms", True, True),
    ("dleq.verify", "ms", True, True),
] + [
    (f, "ms", False, True)
    for f in ("core.server_punch", "core.client_punch", "core.client_redeem",
              "core.verify_card", "core.server_redeem", "core.issue",
              "extensions.server_multi_punch", "extensions.client_multi_punch",
              "mergeable.server_punch", "mergeable.client_punch",
              "mergeable.client_merge_redeem", "mergeable.verify_card",
              "mergeable.server_redeem", "mergeable.issue")
] + [
    ("extensions.check_expiry", "ms", False, False),
    ("wallet.save", "ms", True, False),
] + [
    ("wallet." + f, "ms", False, True)
    for f in ("punch", "multi_punch", "redeem", "merge_redeem")
]

HANDLE_TYPES = ["PK_REQ", "PUNCH_REQ", "MULTI_REQ", "REDEEM_REQ",
                "MERGE_PUNCH_REQ", "MERGE_REDEEM_REQ"]

OTHER_METRICS = [
    ("groups.bls.miller_ms", "ms"),
] + [("service.handle." + t + "_ms", "ms") for t in HANDLE_TYPES] + [
    ("service.handle.self_ms", "ms"),
    ("service.conn_setup_ms", "ms"),
    ("service.busy_share", "share"),
    ("service.rejects", "count"),
    ("wire.recv_frame.wait_ms", "ms"),
    ("wire.send_frame.ms", "ms"),
    ("wire.bytes_per_op", "B/op"),
    ("db.recover_s", "s"),
    ("db.check_and_insert.ms", "ms"),
    ("db.check_and_insert.self_ms", "ms"),
    ("db.fsync.calls_per_accept", "count"),
    ("db.fsync.ms", "ms"),
    ("db.log_bytes_per_accept", "B"),
    ("db.entries", "count"),
    ("trace.spans_per_op", "count"),
]


def layer_metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every metric layer_metrics reports, in order."""
    names = []
    for name, unit, calls, self_time in FUNCTIONS:
        if calls:
            names.append((name + ".calls", "count"))
        names.append((name + "." + unit, unit))
        if self_time:
            names.append((name + ".self_" + unit, unit))
    return names + OTHER_METRICS


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class _Side:
    """Spans of one process inside the load window, grouped by name."""

    def __init__(self, spans: List[tuple], t0: int, t1: int):
        self.all = spans
        inside = [s for s in spans if s[2] >= t0 and s[3] <= t1]
        children: Dict[int, int] = defaultdict(int)
        for s in inside:
            if s[4]:
                children[s[4]] += s[3] - s[2]
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for s in inside:
            self.by_name[s[1]].append(s)
        self.children = children
        self.count = len(inside)

    def durations(self, name: str) -> List[int]:
        return [s[3] - s[2] for s in self.by_name.get(name, ()) if not s[7]]

    def self_times(self, name: str) -> List[int]:
        return [s[3] - s[2] - self.children.get(s[0], 0)
                for s in self.by_name.get(name, ()) if not s[7]]


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(
    server_spans: List[tuple],
    client_spans: List[tuple],
    window: Tuple[int, int],
    ops: int,
    gauges: Dict[str, float],
    log_bytes: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced load window; ops is the number of
    completed operations in it. Crypto and protocol layers sum both
    processes; service, wire and db are the server's, wallet the client's."""
    t0, t1 = window
    srv = _Side(server_spans, t0, t1)
    cli = _Side(client_spans, t0, t1)
    ops = max(ops, 1)
    out: Dict[str, Tuple[float, str]] = {}
    scale = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

    def both(fn, name):
        return fn(srv, name) + fn(cli, name)

    for name, unit, calls, self_time in FUNCTIONS:
        if calls:
            n = len(srv.by_name.get(name, ())) + len(cli.by_name.get(name, ()))
            out[name + ".calls"] = (n / ops, "count")
        out[name + "." + unit] = (_median(both(_Side.durations, name)) * scale[unit], unit)
        if self_time:
            out[name + ".self_" + unit] = (
                _median(both(_Side.self_times, name)) * scale[unit], unit)
    pair_self = both(_Side.self_times, "groups.bls.pair")
    out["groups.bls.miller_ms"] = (_median(pair_self) * scale["ms"], "ms")

    handles = [s for t in HANDLE_TYPES for s in srv.by_name.get("service.handle." + t, ())]
    for t in HANDLE_TYPES:
        out["service.handle." + t + "_ms"] = (
            _median(srv.durations("service.handle." + t)) * scale["ms"], "ms")
    out["service.handle.self_ms"] = (
        _median([d for t in HANDLE_TYPES for d in srv.self_times("service.handle." + t)])
        * scale["ms"], "ms")
    first_frame: Dict[int, int] = {}
    for s in srv.by_name.get("wire.recv_frame", ()):
        if not s[7] and (s[5] not in first_frame or s[3] < first_frame[s[5]]):
            first_frame[s[5]] = s[3]
    setup = [first_frame[s[5]] - s[2] for s in srv.by_name.get("service.accept", ())
             if s[5] in first_frame]
    out["service.conn_setup_ms"] = (_median(setup) * scale["ms"], "ms")
    out["service.busy_share"] = (_union_ns([(s[2], s[3]) for s in handles]) / (t1 - t0), "share")
    out["service.rejects"] = (sum(1 for s in handles if s[6] == REJECTED) / ops, "count")
    accepts = sum(1 for s in handles if s[6] == ACCEPTED)

    out["wire.recv_frame.wait_ms"] = (_median(srv.durations("wire.recv_frame")) * scale["ms"], "ms")
    out["wire.send_frame.ms"] = (_median(srv.durations("wire.send_frame")) * scale["ms"], "ms")
    frame_bytes = sum(s[6] for n in ("wire.recv_frame", "wire.send_frame")
                      for s in srv.by_name.get(n, ()))
    out["wire.bytes_per_op"] = (frame_bytes / ops, "B/op")

    recover = [s[3] - s[2] for s in srv.all if s[1] == "db.recover"]
    out["db.recover_s"] = ((recover[-1] if recover else 0) * scale["s"], "s")
    out["db.check_and_insert.ms"] = (
        _median(srv.durations("db.check_and_insert")) * scale["ms"], "ms")
    out["db.check_and_insert.self_ms"] = (
        _median(srv.self_times("db.check_and_insert")) * scale["ms"], "ms")
    out["db.fsync.calls_per_accept"] = (
        len(srv.by_name.get("db.fsync", ())) / max(accepts, 1), "count")
    out["db.fsync.ms"] = (_median(srv.durations("db.fsync")) * scale["ms"], "ms")
    out["db.log_bytes_per_accept"] = (log_bytes / max(accepts, 1), "B")
    out["db.entries"] = (float(gauges.get("db.entries", 0)), "count")
    out["trace.spans_per_op"] = ((srv.count + cli.count) / ops, "count")
    return out
