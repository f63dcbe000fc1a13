"""The three traffic mixes.

Each workload prepares the server's state directory from the seed, then
runs closed-loop lanes: every session opens a fresh connection, like one
``punchcard wallet ...`` invocation, and the lane sends nothing else until
the reply is in. A workload names the expected status of every request it
sends; any other outcome is a failed operation.

* main-checkout: the everyday shop counter. Wallets punch (70%) or
  multi-punch (t in {2, 3}) a card up to 10 punches and redeem it; 10% of
  accepted redemptions are replayed. Exercises ristretto255 exponentiation,
  DLEQ prove and verify, multi-punch chains, the wallet's save and
  per-connection set-up; the server recovers a 10^6-entry snapshot.
* main-redeem-rush: the end of a promotion. Redemptions synthesized in
  set-up from the server key (75% fresh, 20% replays, 5% wrong count)
  against a 10^6-entry snapshot plus a 10^5-record log tail, with expiry
  checks on. Connection handling, the DB and fsync carry most of the cost.
* mergeable-merge: two one-punch cards merged into one reward, 10% of the
  merges replayed. Nearly all the time is BLS12-381 work and the DB is
  fresh, so it bypasses every main-scheme and DB change, and the other two
  bypass every pairing change. One lane, because a second lane's
  pure-Python client work shares the generator's interpreter lock.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from datetime import date
from typing import Callable, Optional, Tuple

from punchcard import core, dleq, extensions, wire
from punchcard.core import RedeemStatus
from punchcard.wallet import Wallet

# response sizes pinned by the wire format (acceptance criteria 1 and 2)
PINNED_PUNCH_RESP = {"ristretto255": 128}
PINNED_MERGE_PUNCH_RESP = {"bls12-381": 496}

CARD_PUNCHES = 10
MERGE_PUNCHES = 2
# fresh redemptions made in set-up per lane and measured second; a lane
# that outruns them synthesizes more on the fly and counts them
RUSH_POOL_PER_S = 800


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str
    lanes: int
    preload: int  # spent secrets in the snapshot
    log_tail: int  # spent secrets appended to the log after the snapshot
    accepted_counts: Tuple[int, ...]
    expiry_check: bool
    lane: Callable
    kinds: Tuple[str, ...]  # session kinds the lanes record
    prepare: Optional[Callable] = None  # prepare(run, seconds), before the server starts
    group: str = "ristretto255"
    pairing: str = "bls12-381"
    replay_status: RedeemStatus = RedeemStatus.DOUBLE_SPEND


def punch_resp_size(run) -> int:
    g = run.group
    return PINNED_PUNCH_RESP.get(g.name, g.element_size + dleq.proof_size(g))


def merge_punch_resp_size(run) -> int:
    pg = run.pairing
    computed = (pg.g0.element_size + pg.g1.element_size
                + dleq.proof_size(pg.g0) + dleq.proof_size(pg.g1))
    return PINNED_MERGE_PUNCH_RESP.get(pg.name, computed)


def _reply_size(client, msg_type: int, size: int):
    """None if the client got exactly one reply of msg_type and size bytes."""
    got = [n for t, n in client.replies if t == msg_type]
    if got != [size]:
        return f"reply 0x{msg_type:02x} sizes {got}, expected [{size}]"
    return None


def _status(expected: RedeemStatus, got: RedeemStatus):
    return None if got is expected else f"status {got.name}, expected {expected.name}"


def _replay(client, request, resp_type: int, expected: RedeemStatus):
    msg_type, body = client.call(*request)
    if msg_type != resp_type or len(body) != 1:
        return f"reply 0x{msg_type:02x} of {len(body)} bytes to a replay"
    return _status(expected, RedeemStatus(body[0]))


# ---------------------------------------------------------------------------
# main-checkout


def checkout_lane(run, lane: int, deadline: float) -> None:
    spec, rec = run.spec, run.lanes[lane]
    mix = run.stream(f"mix.{lane}")
    rng = run.wallet_rng(lane)
    wallet = Wallet(os.path.join(run.workdir, f"wallet-{lane}.bin"),
                    scheme="main", group_name=spec.group)
    size = punch_resp_size(run)
    target = spec.accepted_counts[0]

    def punch(client):
        wallet.punch(client, 0, rng)
        return _reply_size(client, wire.PUNCH_RESP, size)

    def multi_punch(t):
        def action(client):
            gained = wallet.multi_punch(client, 0, t, rng)
            if gained != t:
                return f"multi-punch gained {gained} of {t}"
            return _reply_size(client, wire.MULTI_RESP, 1 + t * size)
        return action

    while time.perf_counter() < deadline:
        wallet.new_card(rng)
        card = wallet.cards[0]
        while card.count < target and time.perf_counter() < deadline:
            t = 1 if mix.random() < 0.7 else mix.choice((2, 3))
            t = min(t, target - card.count)
            if t == 1:
                run.session(rec, "punch", punch)
            else:
                run.session(rec, "multi_punch", multi_punch(t))
        if card.count < target:
            break
        replay = mix.random() < 0.1
        sent = {}

        def redeem(client):
            status = wallet.redeem(client, 0)
            sent["request"] = client.last_request
            return _status(RedeemStatus.ACCEPT, status)

        if run.session(rec, "redeem", redeem) and replay:
            run.session(rec, "reject", lambda c: _replay(
                c, sent["request"], wire.REDEEM_RESP, spec.replay_status))
        wallet.cards.clear()


# ---------------------------------------------------------------------------
# main-redeem-rush


def expiry_for_run() -> date:
    """A quarter boundary two quarters ahead: inside the server's horizon
    and never reached during a run."""
    return extensions.add_quarters(
        extensions.quarter_boundary_on_or_after(date.today()), 2)


class RedeemRequests:
    """Fresh, valid redemption bodies for one lane: H(u)^(sk^10) with an
    expiring u from the lane's card-secret stream, byte-identical to a
    wallet's redeem. Made in set-up; if a lane outruns the pool it
    synthesizes more from the same stream and counts them."""

    def __init__(self, run, lane: int, count: int):
        self._run = run
        self._rng = run.stream(f"cards.{lane}")
        self._expires = expiry_for_run()
        self.extra = 0
        self._pool = [self._make() for _ in range(count)]
        self._pool.reverse()

    def _make(self) -> bytes:
        run = self._run
        u = extensions.make_expiring_secret(self._expires, self._rng)
        run.card_secrets.append(u)
        req = core.RedeemRequest(u=u, card=core.expected_card(
            run.group, run.sk, u, run.spec.accepted_counts[0]))
        return req.to_bytes(run.group)

    def next(self) -> bytes:
        if self._pool:
            return self._pool.pop()
        self.extra += 1
        return self._make()


def prepare_rush(run, seconds: float) -> None:
    per_lane = int(RUSH_POOL_PER_S * seconds)
    run.requests = [RedeemRequests(run, i, per_lane) for i in range(run.spec.lanes)]


def rush_lane(run, lane: int, deadline: float) -> None:
    spec, rec = run.spec, run.lanes[lane]
    mix = run.stream(f"mix.{lane}")
    fresh = run.requests[lane]
    count = spec.accepted_counts[0]
    accepted = []

    def redeem(body: bytes, expected: RedeemStatus):
        def action(client):
            msg_type, reply = client.call(wire.REDEEM_REQ, body)
            if msg_type != wire.REDEEM_RESP or len(reply) != 1:
                return f"reply 0x{msg_type:02x} of {len(reply)} bytes"
            return _status(expected, RedeemStatus(reply[0]))
        return action

    while time.perf_counter() < deadline:
        r = mix.random()
        if r < 0.75 or not accepted:
            message = fresh.next()
            if run.session(rec, "redeem", redeem(
                    wire.pack_redeem_body(count, message), RedeemStatus.ACCEPT)):
                accepted.append(message)
        elif r < 0.95:
            body = wire.pack_redeem_body(count, mix.choice(accepted))
            run.session(rec, "reject", redeem(body, spec.replay_status))
        else:
            body = wire.pack_redeem_body(count - 1, mix.choice(accepted))
            run.session(rec, "reject", redeem(body, RedeemStatus.BAD_CARD))


# ---------------------------------------------------------------------------
# mergeable-merge


def merge_lane(run, lane: int, deadline: float) -> None:
    spec, rec = run.spec, run.lanes[lane]
    mix = run.stream(f"mix.{lane}")
    rng = run.wallet_rng(lane)
    wallet = Wallet(os.path.join(run.workdir, f"wallet-{lane}.bin"),
                    scheme="mergeable", pairing_name=spec.pairing)
    size = merge_punch_resp_size(run)

    def punch(index):
        def action(client):
            wallet.punch(client, index, rng)
            return _reply_size(client, wire.MERGE_PUNCH_RESP, size)
        return action

    while time.perf_counter() < deadline:
        wallet.new_card(rng)
        wallet.new_card(rng)
        for index in (0, 1):
            run.session(rec, "merge_punch", punch(index))
        replay = mix.random() < 0.1
        sent = {}

        def merge_redeem(client):
            status = wallet.merge_redeem(client, 0, 1, rng)
            sent["request"] = client.last_request
            return _status(RedeemStatus.ACCEPT, status)

        if run.session(rec, "merge_redeem", merge_redeem) and replay:
            run.session(rec, "reject", lambda c: _replay(
                c, sent["request"], wire.MERGE_REDEEM_RESP, spec.replay_status))
        wallet.cards.clear()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="main-checkout",
            why="punch, multi-punch and redeem sessions of wallets: ristretto255, "
                "DLEQ, wallet save and connection set-up; DB writes are rare",
            scheme="main", lanes=2, preload=10**6, log_tail=0,
            accepted_counts=(CARD_PUNCHES,), expiry_check=False, lane=checkout_lane,
            kinds=("punch", "multi_punch", "redeem", "reject"),
        ),
        Workload(
            name="main-redeem-rush",
            why="cheap redemptions, fresh, replayed and wrong-count, against a "
                "large spent set: connection handling, the DB, fsync, log replay",
            scheme="main", lanes=2, preload=10**6, log_tail=10**5,
            accepted_counts=(CARD_PUNCHES,), expiry_check=True, lane=rush_lane,
            kinds=("redeem", "reject"),
            prepare=prepare_rush,
        ),
        Workload(
            name="mergeable-merge",
            why="two one-punch cards merged into one reward: BLS12-381 work "
                "dominates, TCP and the fresh DB do not",
            scheme="mergeable", lanes=1, preload=0, log_tail=0,
            accepted_counts=(MERGE_PUNCHES,), expiry_check=False, lane=merge_lane,
            kinds=("merge_punch", "merge_redeem", "reject"),
        ),
    )
}
