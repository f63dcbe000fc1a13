"""No punch request carries card bytes the server has received before.

A punch sends the masked card, so a server that saw the same bytes twice
could link the two visits. A hypothesis state machine drives a main-scheme
wallet on ristretto255 (the toy group repeats bytes by chance) against an
in-process service through a wire that keeps every punch request, with
lost replies, ERROR replies, replies under another key, crashes before the
commit followed by a reload, commits whose save fails, and redemptions.
After every step no two requests carry the same card bytes, each card's
count is its committed punches, and the wallet equals its file.
"""

import itertools
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from punchcard import faults, schemes, wire
from punchcard import wallet as wallet_module
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import ProofRejected, WireError
from punchcard.faults import FaultInjected
from punchcard.service import Config, PunchcardService
from punchcard.wallet import Wallet

COUNTS = tuple(range(1, 256))  # every count a run reaches redeems
FAULTS = {"lost": EOFError, "error": WireError, "wrong_key": ProofRejected}


class _Wire:
    """The wallet's client over an in-process service. It keeps the card
    bytes of every punch and multi-punch request, and fails the next
    request as `fault` says: the service answers and the reply is lost
    ("lost"), the reply is an ERROR ("error"), or another service answers
    ("wrong_key")."""

    def __init__(self, svc, other):
        self.svc, self.other = svc, other
        self.sent = []
        self.fault = None

    def fetch_pk(self):
        return self.svc.pk_bytes

    def call(self, msg_type, body):
        s = self.svc.scheme
        if msg_type == s.punch_req:
            self.sent.append(body)
        elif msg_type == s.multi_req:
            self.sent.append(wire.unpack_multi_req(body)[1])
        fault, self.fault = self.fault, None
        if fault == "error":
            return wire.ERROR, b"try again later"
        reply = (self.other if fault == "wrong_key" else self.svc).handle(msg_type, body)
        if fault == "lost":
            raise EOFError("connection closed")
        return reply


def _service(state, scheme="main", **kw):
    cfg = Config(state_dir=str(state), scheme=scheme, accepted_counts=COUNTS, **kw)
    return PunchcardService(cfg, db=RedeemDb())


def _crash_at_commit(name):
    if name == "wallet.punch.commit":
        raise FaultInjected(name, 0)


def _failing_save(*args, **kwargs):
    raise OSError("no space left on device")


card = st.integers(0, 3)  # an index, taken modulo the cards held
times = st.integers(1, 3)  # t of a multi-punch; 1 is a plain punch


def has_cards(machine):
    return bool(machine.wallet.cards)


class Visits(RuleBasedStateMachine):
    def __init__(self, client, directory, run):
        """Run `run` of the machine, with its own wallet and random stream
        (the service, and so its spent set, serves every run)."""
        super().__init__()
        client.sent.clear()
        self.client, self.path = client, str(directory / f"wallet-{run}")
        self.rng = random.Random(run)
        self.wallet = Wallet(self.path)
        self.wallet.ensure_pk(client)
        self.counts = {}  # u -> committed punches, the model

    def _punch(self, i, t):
        """Punch card i (modulo the cards held) t times; its u."""
        index = i % len(self.wallet.cards)
        u = self.wallet.cards[index].secret.u
        if t == 1:
            self.wallet.punch(self.client, index, self.rng)
        else:
            self.wallet.multi_punch(self.client, index, t, self.rng)
        return u

    @precondition(lambda self: len(self.wallet.cards) < 4)
    @rule()
    def new_card(self):
        index = self.wallet.new_card(self.rng)
        self.counts[self.wallet.cards[index].secret.u] = 0

    @precondition(has_cards)
    @rule(i=card, t=times)
    def punch(self, i, t):
        self.counts[self._punch(i, t)] += t

    @precondition(has_cards)
    @rule(i=card, t=times, fault=st.sampled_from(sorted(FAULTS)))
    def refused(self, i, t, fault):
        self.client.fault = fault
        with pytest.raises(FAULTS[fault]):
            self._punch(i, t)

    @precondition(has_cards)
    @rule(i=card, t=times)
    def crash_then_reload(self, i, t):
        faults.install_hook(_crash_at_commit)
        try:
            with pytest.raises(FaultInjected):
                self._punch(i, t)
        finally:
            faults.install_hook(None)
        self.wallet = Wallet(self.path)

    @precondition(has_cards)
    @rule(i=card, t=times)
    def commit_save_fails(self, i, t):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wallet_module, "write_durably", _failing_save)
            with pytest.raises(OSError):
                self._punch(i, t)

    @precondition(has_cards)
    @rule(i=card)
    def redeem(self, i):
        index = i % len(self.wallet.cards)
        card = self.wallet.cards[index]
        status = self.wallet.redeem(self.client, index)
        if card.count in COUNTS:
            assert status is RedeemStatus.ACCEPT
            del self.counts[card.secret.u]
        else:
            assert status is RedeemStatus.BAD_CARD

    @invariant()
    def no_card_bytes_sent_twice(self):
        assert len(set(self.client.sent)) == len(self.client.sent)

    @invariant()
    def counts_are_committed_punches(self):
        assert {c.secret.u: c.count for c in self.wallet.cards} == self.counts

    @invariant()
    def wallet_equals_its_file(self):
        fresh = Wallet(self.path)
        assert (self.wallet.pk, self.wallet.cards) == (fresh.pk, fresh.cards)


def test_no_punch_request_repeats_card_bytes(tmp_path):
    svc = _service(tmp_path / "state")
    client = _Wire(svc, _service(tmp_path / "other"))
    runs = itertools.count()
    run_state_machine_as_test(
        lambda: Visits(client, tmp_path, next(runs)),
        settings=settings(max_examples=30, stateful_step_count=12, deadline=None),
    )


@pytest.mark.parametrize("scheme", ["main", "mergeable"])
def test_remask_only_cards_the_server_has_seen(tmp_path, monkeypatch, scheme):
    """A card that new_card made or a punch committed in this process goes
    out as stored, with no re-mask; a card read from the file, or one whose
    send failed, is re-masked once. On bls12-381, a crash before the
    commit and a reload send a MERGE_PUNCH_REQ unlike the one before."""
    remasks = []
    real = schemes.Scheme.remask

    def counting(self, *args):
        remasks.append(1)
        return real(self, *args)

    monkeypatch.setattr(schemes.Scheme, "remask", counting)
    rng = random.Random(2601)
    client = _Wire(_service(tmp_path / "state", scheme), None)
    path = str(tmp_path / "wallet")
    w = Wallet(path, scheme=scheme)
    idx = w.new_card(rng)

    def punch(wallet):
        before = len(remasks)
        wallet.punch(client, idx, rng)
        return len(remasks) - before

    assert punch(w) == 0  # made here
    assert punch(w) == 0  # punched here
    faults.install_hook(_crash_at_commit)
    try:
        with pytest.raises(FaultInjected):
            punch(w)
    finally:
        faults.install_hook(None)
    w = Wallet(path, scheme=None)
    assert punch(w) == 1  # read from the file
    assert client.sent[-1] != client.sent[-2]
    client.fault = "lost"
    with pytest.raises(EOFError):
        punch(w)
    assert punch(w) == 1  # its send failed
    assert punch(w) == 0
    assert len(set(client.sent)) == len(client.sent) == 7
    assert w.cards[idx].count == 5
