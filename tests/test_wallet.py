import hashlib
import os
import random
import stat

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from punchcard import core, extensions, mergeable, wire
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.faults import FaultInjected, FaultPlan
from punchcard.errors import InvalidEncoding, ProofRejected, WalletError, WireError
from punchcard.groups import get_group, get_pairing
from punchcard.schemes import get_scheme
from punchcard.service import Config, KeyStore, PunchcardService
from punchcard import wallet as wallet_module
from punchcard.wallet import Card, Wallet

from forgery import forge


class FakeMainServer:
    """In-process stand-in that speaks the wallet's client interface."""

    def __init__(self, rng, group_name="ristretto255"):
        self.group = get_group(group_name)
        self.rng = rng
        self.sk, self.pk = core.server_setup(self.group, rng)
        self.pk_bytes = self.group.encode_element(self.pk)
        self.db = RedeemDb()

    def fetch_pk(self):
        return self.pk_bytes

    def call(self, msg_type, body):
        g = self.group
        if msg_type == wire.PUNCH_REQ:
            card = g.decode_element(body)
            resp = core.server_punch(g, self.sk, self.pk, card, self.rng)
            return wire.PUNCH_RESP, resp.to_bytes(g)
        if msg_type == wire.MULTI_REQ:
            t, blob = wire.unpack_multi_req(body)
            card = g.decode_element(blob)
            resp = extensions.server_multi_punch(
                g, self.sk, self.pk, card, t, rng=self.rng
            )
            return wire.MULTI_RESP, resp.to_bytes(g)
        if msg_type == wire.REDEEM_REQ:
            count, blob = wire.unpack_redeem_body(body)
            req = core.RedeemRequest.from_bytes(g, blob)
            status = core.server_redeem(g, self.sk, req, count, self.db)
            return wire.REDEEM_RESP, bytes([status.value])
        raise AssertionError(f"unexpected message type {msg_type}")


class FakeMergeServer:
    def __init__(self, rng, pairing_name="toy-pairing"):
        self.pairing = get_pairing(pairing_name)
        self.rng = rng
        self.sk, self.pk = mergeable.server_setup(self.pairing, rng)
        self.pk_bytes = self.pk.to_bytes(self.pairing)
        self.db = RedeemDb()

    def fetch_pk(self):
        return self.pk_bytes

    def call(self, msg_type, body):
        pg = self.pairing
        if msg_type == wire.MERGE_PUNCH_REQ:
            card = mergeable.MergeCard.from_bytes(pg, body)
            resp = mergeable.server_punch(pg, self.sk, self.pk, card, self.rng)
            return wire.MERGE_PUNCH_RESP, resp.to_bytes(pg)
        if msg_type == wire.MERGE_REDEEM_REQ:
            count, blob = wire.unpack_redeem_body(body)
            req = mergeable.MergeRedeemRequest.from_bytes(pg, blob)
            status = mergeable.server_redeem(pg, self.sk, req, count, self.db)
            return wire.MERGE_REDEEM_RESP, bytes([status.value])
        raise AssertionError(f"unexpected message type {msg_type}")


class _Sent:
    """A client that keeps the card bytes of every punch and multi-punch
    request it forwards."""

    def __init__(self, client):
        self.client, self.cards = client, []

    def fetch_pk(self):
        return self.client.fetch_pk()

    def call(self, msg_type, body):
        if msg_type == wire.MULTI_REQ:
            self.cards.append(wire.unpack_multi_req(body)[1])
        elif msg_type in (wire.PUNCH_REQ, wire.MERGE_PUNCH_REQ):
            self.cards.append(body)
        return self.client.call(msg_type, body)


def _wallet(tmp_path, **kw):
    return Wallet(str(tmp_path / "wallet"), **kw)


def test_new_wallet_persists_cards(tmp_path):
    rng = random.Random(151)
    w = _wallet(tmp_path, group_name="toy")
    i = w.new_card(rng)
    j = w.new_card(rng)
    assert (i, j) == (0, 1)
    again = _wallet(tmp_path, group_name="toy")
    assert len(again.cards) == 2
    for a, b in zip(w.cards, again.cards):
        assert a.secret.u == b.secret.u
        assert a.secret.mask == b.secret.mask
        assert a.element == b.element
        assert a.count == b.count == 0


def test_rows_show_prefix_not_secret(tmp_path):
    rng = random.Random(152)
    w = _wallet(tmp_path, group_name="toy")
    w.new_card(rng)
    [(idx, prefix, count)] = w.rows()
    assert idx == 0 and count == 0
    assert prefix == w.cards[0].secret.u[:4].hex()
    assert len(prefix) == 8  # 4 bytes, not the whole 32


def test_corrupt_file_raises(tmp_path):
    rng = random.Random(153)
    path = tmp_path / "wallet"
    w = Wallet(str(path), group_name="toy")
    w.new_card(rng)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(WalletError):
        Wallet(str(path), group_name="toy")
    path.write_bytes(data[:-2])
    with pytest.raises(WalletError):
        Wallet(str(path), group_name="toy")
    path.write_bytes(data + b"\x00")
    with pytest.raises(WalletError):
        Wallet(str(path), group_name="toy")


def test_scheme_mismatch_raises(tmp_path):
    rng = random.Random(154)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    w.new_card(rng)
    with pytest.raises(WalletError):
        _wallet(tmp_path, scheme="main", group_name="toy")
    with pytest.raises(WalletError):
        Wallet(str(tmp_path / "other"), scheme="sideways")


def test_pk_pinning(tmp_path):
    rng = random.Random(155)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    w.ensure_pk(server)
    assert w.scheme.encode_pk(w.pk) == server.pk_bytes
    # pin survives reload
    again = _wallet(tmp_path)
    assert again.scheme.encode_pk(again.pk) == server.pk_bytes
    # a server that punches under a different key is a hard failure, and
    # the card stays the same card; the server saw its bytes, so the next
    # request, also from a reloaded wallet, sends it under a fresh mask
    other = _Sent(FakeMainServer(rng))
    assert other.fetch_pk() != server.pk_bytes
    idx = again.new_card(rng)
    before = _wallet(tmp_path).cards[idx]
    for reload in (False, False, True):
        with pytest.raises(ProofRejected):
            (_wallet(tmp_path) if reload else again).punch(other, idx, rng)
    assert len(set(other.cards)) == len(other.cards) == 3
    after = _wallet(tmp_path).cards[idx]
    g = again.scheme.group
    assert after.secret.u == before.secret.u
    assert core.unmask(g, after.secret.mask, after.element) == core.unmask(
        g, before.secret.mask, before.element
    )
    assert after.count == before.count == 0


def test_pinned_wallet_punches_without_asking_for_the_key(tmp_path):
    """Once a key is pinned, the punch proofs are the only key check: a
    punch or multi-punch session is one request."""
    rng = random.Random(160)
    server = FakeMainServer(rng)
    fetches = []
    real_fetch = server.fetch_pk
    server.fetch_pk = lambda: fetches.append(1) or real_fetch()
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.ensure_pk(server)
    assert len(fetches) == 1
    w.punch(server, idx, rng)
    assert w.multi_punch(server, idx, 2, rng) == 2
    _wallet(tmp_path).punch(server, idx, rng)  # the pin is read back from disk
    assert len(fetches) == 1
    assert _wallet(tmp_path).cards[idx].count == 4


def test_key_that_does_not_decode_is_not_pinned(tmp_path):
    """A mergeable wallet whose first contact is a main server gets a key
    of the wrong shape: nothing is pinned or saved, and the wallet then
    punches against the right server."""
    rng = random.Random(161)
    wrong = FakeMainServer(rng, "toy")
    right = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    idx = w.new_card(rng)
    before = (tmp_path / "wallet").read_bytes()
    with pytest.raises(InvalidEncoding):
        w.punch(wrong, idx, rng)
    assert w.pk is None
    assert (tmp_path / "wallet").read_bytes() == before
    w.punch(right, idx, rng)
    assert w.scheme.encode_pk(w.pk) == right.pk_bytes
    again = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    assert again.pk == right.pk and again.cards[idx].count == 1


def test_key_with_bit_255_set_is_not_pinned(tmp_path):
    """A ristretto255 key with bit 255 set would be a second byte form of
    the server's key; it does not decode, so nothing is pinned or saved,
    and the wallet then pins the canonical key."""
    rng = random.Random(172)
    server = FakeMainServer(rng)
    canonical = server.pk_bytes
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    before = (tmp_path / "wallet").read_bytes()
    server.pk_bytes = canonical[:31] + bytes([canonical[31] | 0x80])
    with pytest.raises(InvalidEncoding):
        w.punch(server, idx, rng)
    assert w.pk is None
    assert (tmp_path / "wallet").read_bytes() == before
    server.pk_bytes = canonical
    w.punch(server, idx, rng)
    assert w.scheme.encode_pk(w.pk) == canonical


def test_pinned_key_that_does_not_decode_makes_the_file_corrupt(tmp_path):
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    w.save()
    # pin a toy main key, not a two-sided one: the file's empty key section
    # (length 0) becomes length 2 and its bytes
    data = (tmp_path / "wallet").read_bytes()
    assert data[5:7] == b"\x00\x00"
    (tmp_path / "wallet").write_bytes(data[:5] + b"\x02\x00\x00\x01" + data[7:])
    with pytest.raises(WalletError, match="corrupt"):
        _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")


def test_loaded_wallet_never_decodes_its_key_again(tmp_path):
    rng = random.Random(162)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.ensure_pk(server)
    w = _wallet(tmp_path)
    assert w.pk == server.pk
    decodes = []
    real_decode = w.scheme.decode_pk
    w.scheme.decode_pk = lambda data: decodes.append(data) or real_decode(data)
    w.punch(server, idx, rng)
    assert w.multi_punch(server, idx, 2, rng) == 2
    assert decodes == [] and w.cards[idx].count == 3


class _RedeemReply(FakeMainServer):
    def __init__(self, rng, reply):
        super().__init__(rng)
        self.reply = reply

    def call(self, msg_type, body):
        assert msg_type == wire.REDEEM_REQ
        return wire.REDEEM_RESP, self.reply


@pytest.mark.parametrize("reply", [b"\x09", b"", b"\x00\x00"])
def test_malformed_redeem_reply_keeps_the_card(tmp_path, reply):
    """A redeem reply is one byte holding a known status; anything else is
    a WireError, and the card stays in the wallet."""
    rng = random.Random(163)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    with pytest.raises(WireError, match="bad redeem response"):
        w.redeem(_RedeemReply(rng, reply), idx)
    assert len(w.cards) == 1 and len(_wallet(tmp_path).cards) == 1


class _ReplyType(FakeMainServer):
    """Answers every request with the right body under type reply_type."""

    def __init__(self, rng, reply_type):
        super().__init__(rng)
        self.reply_type = reply_type

    def call(self, msg_type, body):
        return self.reply_type, super().call(msg_type, body)[1]


@pytest.mark.parametrize("reply_type", [0x42, wire.MULTI_RESP],
                         ids=["0x42", "MULTI_RESP"])
def test_reply_of_another_type_is_named(tmp_path, reply_type):
    """A reply whose type is neither the one asked for nor ERROR is a
    WireError naming the type, and the card stays as its file holds it."""
    rng = random.Random(164)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    server = _ReplyType(rng, reply_type)
    for flow in (lambda: w.punch(server, idx, rng), lambda: w.redeem(server, idx)):
        with pytest.raises(WireError, match=f"^unexpected reply type 0x{reply_type:02x}$"):
            flow()
    assert w.cards[idx].count == 0 and len(_wallet(tmp_path).cards) == 1


def test_punch_and_redeem_through_fake_server(tmp_path):
    rng = random.Random(156)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    for _ in range(3):
        w.punch(server, idx, rng)
    assert w.cards[idx].count == 3
    # state survives a reload mid-card
    w = _wallet(tmp_path)
    gained = w.multi_punch(server, idx, 2, rng)
    assert gained == 2 and w.cards[idx].count == 5
    assert w.redeem(server, idx) is RedeemStatus.ACCEPT
    assert w.cards == []
    assert _wallet(tmp_path).cards == []


def test_redeem_by_negative_index_removes_that_card(tmp_path):
    rng = random.Random(164)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    first, last = w.new_card(rng), w.new_card(rng)
    w.punch(server, last, rng)
    kept = w.cards[first]
    assert w.redeem(server, -1) is RedeemStatus.ACCEPT
    assert w.cards == [kept]
    assert _wallet(tmp_path).cards == [kept]


def test_merge_redeem_by_negative_index_removes_those_cards(tmp_path):
    rng = random.Random(165)
    server = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    kept, a, b = w.new_card(rng), w.new_card(rng), w.new_card(rng)
    w.punch(server, a, rng)
    w.punch(server, b, rng)
    with pytest.raises(WalletError):  # one card, named twice
        w.merge_redeem(server, b, -1, rng)
    kept = w.cards[kept]
    assert w.merge_redeem(server, -2, -1, rng) is RedeemStatus.ACCEPT
    assert w.cards == [kept]
    assert _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing").cards == [kept]


def test_redeem_keeps_card_on_rejection(tmp_path):
    rng = random.Random(157)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    # wrong count claim: present 1-punch card after the server state moved on
    w.cards[idx].count = 2
    assert w.redeem(server, idx) is RedeemStatus.BAD_CARD
    assert len(w.cards) == 1
    w.cards[idx].count = 1
    assert w.redeem(server, idx) is RedeemStatus.ACCEPT


def test_punch_without_card_raises(tmp_path):
    rng = random.Random(158)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    with pytest.raises(WalletError):
        w.punch(server, 0, rng)


def test_scheme_guards(tmp_path):
    rng = random.Random(159)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    idx = w.new_card(rng)
    server = FakeMergeServer(rng)
    with pytest.raises(WalletError):
        w.redeem(server, idx)
    with pytest.raises(WalletError):
        w.multi_punch(server, idx, 2, rng)
    w2 = Wallet(str(tmp_path / "m"), group_name="toy")
    w2.new_card(rng)
    with pytest.raises(WalletError):
        w2.merge_redeem(FakeMainServer(rng, "toy"), 0)


def test_merge_redeem_two_cards(tmp_path):
    rng = random.Random(160)
    server = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    a = w.new_card(rng)
    b = w.new_card(rng)
    for _ in range(2):
        w.punch(server, a, rng)
    w.punch(server, b, rng)
    assert w.merge_redeem(server, a, b, rng) is RedeemStatus.ACCEPT
    assert w.cards == []


def test_merge_redeem_single_card_makes_partner(tmp_path):
    rng = random.Random(161)
    server = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    a = w.new_card(rng)
    w.punch(server, a, rng)
    assert w.merge_redeem(server, a, rng=rng) is RedeemStatus.ACCEPT
    assert w.cards == []  # the implicit partner is consumed too


def test_merge_redeem_last_card_alone(tmp_path):
    """-1 names the wallet's last card even with no second card: the
    partner is issued in memory, so no index names it."""
    rng = random.Random(166)
    server = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    kept, last = w.new_card(rng), w.new_card(rng)
    w.punch(server, last, rng)
    kept = w.cards[kept]
    assert w.merge_redeem(server, -1, rng=rng) is RedeemStatus.ACCEPT
    assert w.cards == [kept]
    assert _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing").cards == [kept]


def test_refused_single_card_merge_redeem_leaves_no_partner(tmp_path):
    """The server has seen the partner's secret, so a refused redemption
    must not leave it in the wallet, in memory or on disk."""
    rng = random.Random(167)
    server = FakeMergeServer(rng)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    w.cards[idx].count = 2  # a count the card does not hold
    assert w.merge_redeem(server, idx, rng=rng) is RedeemStatus.BAD_CARD
    assert len(w.cards) == 1
    assert len(_wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing").cards) == 1


def test_merge_redeem_self_merge_rejected(tmp_path):
    rng = random.Random(162)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    a = w.new_card(rng)
    with pytest.raises(WalletError):
        w.merge_redeem(FakeMergeServer(rng), a, a, rng)


# --- crash safety -------------------------------------------------------------


def test_crash_during_save_keeps_old_file(tmp_path):
    rng = random.Random(163)
    w = _wallet(tmp_path, group_name="toy")
    w.new_card(rng)
    before = (tmp_path / "wallet").read_bytes()
    w.cards[0].count = 7
    for fail_at, point in ((0, "wallet.save.open"), (1, "wallet.save.write"), (2, "wallet.save.replace")):
        with FaultPlan(fail_at=fail_at) as plan:
            with pytest.raises(FaultInjected):
                w.save()
        assert plan.hits[fail_at] == point
        assert (tmp_path / "wallet").read_bytes() == before
    # no injection: the replace goes through
    w.save()
    assert _wallet(tmp_path, group_name="toy").cards[0].count == 7


@pytest.mark.parametrize("scheme", ["main", "mergeable"])
def test_failed_save_leaves_the_wallet_equal_to_its_file(tmp_path, monkeypatch, scheme):
    """Each update encodes the state it would make, saves it, and only then
    assigns it: with write_durably raising, new_card, ensure_pk, a punch and
    a redemption each leave the object equal to a fresh load of its file."""
    rng = random.Random(171)
    if scheme == "main":
        kw = dict(group_name="toy")
        server = FakeMainServer(rng, "toy")
    else:
        kw = dict(scheme="mergeable", pairing_name="toy-pairing")
        server = FakeMergeServer(rng)
    w = _wallet(tmp_path, **kw)
    w.new_card(rng)
    w.new_card(rng)
    real = wallet_module.write_durably

    def failing(*args, **kwargs):
        raise OSError("no space left on device")

    def check(update):
        monkeypatch.setattr(wallet_module, "write_durably", failing)
        with pytest.raises(OSError):
            update()
        monkeypatch.setattr(wallet_module, "write_durably", real)
        fresh = _wallet(tmp_path, **kw)
        assert (w.pk, w.cards) == (fresh.pk, fresh.cards)

    check(lambda: w.new_card(rng))
    check(lambda: w.ensure_pk(server))
    w.ensure_pk(server)
    check(lambda: w.punch(server, 0, rng))
    if scheme == "main":
        check(lambda: w.redeem(server, 0))
    else:
        check(lambda: w.merge_redeem(server, 0, 1, rng))
    assert len(w.cards) == 2 and w.pk is not None


def test_saved_wallet_is_readable_by_its_owner_only(tmp_path):
    """A wallet's u and masks redeem its cards, so the file is 0600 however
    it was left: new, chmod'ed open, or with an open temp file a crash left."""
    rng = random.Random(170)
    path = tmp_path / "wallet"
    mode = lambda p: stat.S_IMODE(os.stat(p).st_mode)
    old = os.umask(0o022)
    try:
        w = _wallet(tmp_path, group_name="toy")
        w.new_card(rng)
        assert mode(path) == 0o600
        os.chmod(path, 0o644)
        (tmp_path / "wallet.tmp").write_bytes(b"left by a crash")
        os.chmod(tmp_path / "wallet.tmp", 0o644)
        w.new_card(rng)
        assert mode(path) == 0o600
    finally:
        os.umask(old)
    assert len(_wallet(tmp_path, group_name="toy").cards) == 2


def test_crash_before_punch_commit_preserves_spendable_card(tmp_path):
    """Crash after the server punched but before the wallet moved: the disk
    still holds the pre-punch card, which the server will happily punch
    again (it is stateless per punch), so nothing is bricked."""
    rng = random.Random(164)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    with FaultPlan(fail_at=None) as plan:
        w.punch(server, idx, rng)
    commit_at = plan.hits.index("wallet.punch.commit")
    with FaultPlan(fail_at=commit_at):
        with pytest.raises(FaultInjected):
            w.punch(server, idx, rng)
    again = _wallet(tmp_path)
    assert again.cards[idx].count == 2  # the interrupted punch never landed
    again.punch(server, idx, rng)
    assert again.redeem(server, idx) is RedeemStatus.ACCEPT


class _FailingPunchClient:
    """The wallet's client over an in-process PunchcardService. It records
    every punch request, and the first one fails as `failure` says: the
    server punches and the reply is lost ("hangup", EOFError), the reply
    is an ERROR ("error"), or the punch is made under another server's key
    ("wrong_key", so ProofRejected)."""

    def __init__(self, svc, other, failure):
        self.svc, self.other, self.failure = svc, other, failure
        self.sent = []

    def fetch_pk(self):
        return self.svc.pk_bytes

    def call(self, msg_type, body):
        s = self.svc.scheme
        if msg_type not in (s.punch_req, s.multi_req):
            return self.svc.handle(msg_type, body)
        self.sent.append(body)
        failure, self.failure = self.failure, None
        if failure == "error":
            return wire.ERROR, b"try again later"
        reply = (self.other if failure == "wrong_key" else self.svc).handle(msg_type, body)
        if failure == "hangup":
            raise EOFError("connection closed")
        return reply


_PUNCH_FAILURES = {"hangup": EOFError, "error": WireError, "wrong_key": ProofRejected}


def _toy_service(state, scheme, sk):
    """A service on the toy groups under the secret key sk: random keys in
    a group of order 1019 would be equal one time in 1018."""
    cfg = Config(state_dir=str(state), scheme=scheme, group="toy",
                 pairing="toy-pairing", accepted_counts=(2,))
    s = get_scheme(scheme, "toy", "toy-pairing")
    KeyStore(str(state)).load_or_create(lambda: s.setup(sk=sk), s.encode_pk)
    return PunchcardService(cfg, db=RedeemDb())


@pytest.mark.parametrize("failure", sorted(_PUNCH_FAILURES))
@pytest.mark.parametrize("scheme,multi", [("main", False), ("main", True), ("mergeable", False)])
def test_failed_punch_remasks_the_card(tmp_path, scheme, multi, failure):
    """A punch that fails after its request left leaves the card as its
    file holds it, and the retry sends it under a fresh mask; the card then
    punches on and redeems ACCEPT at its true count."""
    rng = random.Random(190)
    svc = _toy_service(tmp_path / "state", scheme, sk=5)
    client = _FailingPunchClient(svc, _toy_service(tmp_path / "other", scheme, sk=7), failure)
    w = _wallet(tmp_path, scheme=scheme, group_name="toy", pairing_name="toy-pairing")
    idx = w.new_card(rng)
    punch = (lambda: w.multi_punch(client, idx, 1, rng)) if multi else (
        lambda: w.punch(client, idx, rng)
    )
    with pytest.raises(_PUNCH_FAILURES[failure]):
        punch()
    encode = w.scheme.encode_card
    saved = _wallet(tmp_path, scheme=None, group_name="toy", pairing_name="toy-pairing")
    assert encode(saved.cards[idx].element) == encode(w.cards[idx].element)
    assert w.cards[idx].count == 0
    punch()
    assert client.sent[1] != client.sent[0]
    punch()
    assert w.cards[idx].count == 2
    if scheme == "main":
        assert w.redeem(client, idx) is RedeemStatus.ACCEPT
    else:
        assert w.merge_redeem(client, idx, rng=rng) is RedeemStatus.ACCEPT
    assert w.cards == []


def test_failed_remask_save_raises_the_punch_error(tmp_path, monkeypatch):
    """A failed punch saves nothing: with every save failing, the caller
    still sees why the punch failed, and the card stays as it was."""
    rng = random.Random(191)
    svc = _toy_service(tmp_path / "state", "main", sk=5)
    client = _FailingPunchClient(svc, None, "hangup")
    w = _wallet(tmp_path, group_name="toy")
    idx = w.new_card(rng)
    w.ensure_pk(client)
    before = w.scheme.encode_card(w.cards[idx].element)

    def failing_save(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(w, "save", failing_save)
    with pytest.raises(EOFError):
        w.punch(client, idx, rng)
    assert w.scheme.encode_card(w.cards[idx].element) == before


class _ChainLength(FakeMainServer):
    """Answers a multi-punch of t with a valid chain of t + extra steps."""

    def __init__(self, rng, extra):
        super().__init__(rng)
        self.extra = extra

    def call(self, msg_type, body):
        if msg_type == wire.MULTI_REQ:
            t, blob = wire.unpack_multi_req(body)
            body = wire.pack_multi_req(t + self.extra, blob)
        return super().call(msg_type, body)


@pytest.mark.parametrize("extra", [1, -1])
def test_multi_punch_refuses_a_chain_of_another_length(tmp_path, extra):
    """A reply to a multi-punch of t must carry t steps, or it is refused
    before any proof is checked, even when every step verifies: the count
    reaches the server in clear at redemption, so an unusual total would
    mark the card. The card and its count stay, and every later request
    sends it under a fresh mask."""
    rng = random.Random(192)
    server = _Sent(_ChainLength(rng, extra))
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    u = w.cards[idx].secret.u
    for reload in (False, False, True):
        w = _wallet(tmp_path) if reload else w
        with pytest.raises(ProofRejected, match="asked for 2 punches"):
            w.multi_punch(server, idx, 2, rng)
    assert len(set(server.cards)) == len(server.cards) == 4
    assert (w.cards[idx].secret.u, w.cards[idx].count) == (u, 1)
    fresh = _wallet(tmp_path)
    assert (w.pk, w.cards) == (fresh.pk, fresh.cards)


class _Forger(FakeMainServer):
    """Answers a punch with a one-equation forgery (forgery.forge) of the
    punch under sk + 1, and a multi-punch with an honest chain whose last
    step is that forgery."""

    equation = 1

    def _forge(self, card):
        return forge(self.group, core.TAG_PUNCH_PROOF, self.sk, self.pk, card,
                     self.equation, self.rng)

    def call(self, msg_type, body):
        g = self.group
        if msg_type == wire.PUNCH_REQ:
            resp = core.PunchResponse(*self._forge(g.decode_element(body)))
            return wire.PUNCH_RESP, resp.to_bytes(g)
        if msg_type == wire.MULTI_REQ:
            t, blob = wire.unpack_multi_req(body)
            card = g.decode_element(blob)
            steps = core.punch_chain(g, core.TAG_PUNCH_PROOF, self.sk, self.pk,
                                     card, t - 1, self.rng)
            steps.append(self._forge(steps[-1][0] if steps else card))
            return wire.MULTI_RESP, extensions.MultiPunchResponse(steps).to_bytes(g)
        return super().call(msg_type, body)


@pytest.mark.parametrize("multi", [False, True])
def test_one_equation_forgery_is_refused(tmp_path, multi):
    """A server that holds the key can pass one proof equation and fail
    the other, to punch a card under a second exponent that tags it. A
    punch or multi-punch refuses either forgery (ProofRejected), keeps the
    count and the file, and sends new card bytes every time."""
    rng = random.Random(193)
    forger = _Sent(_Forger(rng))
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    for equation in (1, 2):
        forger.client.equation = equation
        for reload in (False, False, True):
            w = _wallet(tmp_path) if reload else w
            with pytest.raises(ProofRejected):
                if multi:
                    w.multi_punch(forger, idx, 2, rng)
                else:
                    w.punch(forger, idx, rng)
    assert len(set(forger.cards)) == len(forger.cards) == 6
    assert w.cards[idx].count == 0
    fresh = _wallet(tmp_path)
    assert (w.pk, w.cards) == (fresh.pk, fresh.cards)


def test_crash_after_redeem_accept_cannot_double_accept(tmp_path):
    """Crash between the server's accept and the wallet delete: a replay of
    the same card must come back DOUBLE_SPEND, never a second accept."""
    rng = random.Random(165)
    server = FakeMainServer(rng)
    w = _wallet(tmp_path)
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    with FaultPlan(fail_at=None) as plan:
        w.redeem(server, idx)
    # that consumed the card; rebuild one to find the commit offset
    assert plan.hits.count("wallet.redeem.commit") == 1
    idx = w.new_card(rng)
    w.punch(server, idx, rng)
    commit_at = plan.hits.index("wallet.redeem.commit")
    with FaultPlan(fail_at=commit_at):
        with pytest.raises(FaultInjected):
            w.redeem(server, idx)
    again = _wallet(tmp_path)
    assert len(again.cards) == 1  # card still in the wallet
    assert again.redeem(server, idx) is RedeemStatus.DOUBLE_SPEND


# --- pinned file bytes ----------------------------------------------------------


_WALLET_PINS = {
    "main": (
        lambda rng: FakeMainServer(rng),
        dict(scheme="main", group_name="ristretto255"),
        "51ac5abe2e2b47eac7bb20bedebd4a80323747e58d12f0888e363753f652ae67",
    ),
    "mergeable": (
        lambda rng: FakeMergeServer(rng, "bls12-381"),
        dict(scheme="mergeable", pairing_name="bls12-381"),
        "37b66d0b030e631ba888ad8fad42726b24ce023c3cb88bb5763d7f10069627f9",
    ),
}


@pytest.mark.parametrize("name", sorted(_WALLET_PINS))
def test_seeded_wallet_file_pinned(tmp_path, name):
    """A wallet file built from one seeded stream (a fixed server key, two
    cards, the first punched twice) has pinned bytes, and reloading and
    saving it writes the same bytes back."""
    make_server, kwargs, expected = _WALLET_PINS[name]
    rng = random.Random(2404)
    server = make_server(rng)
    w = _wallet(tmp_path, **kwargs)
    w.new_card(rng)
    w.new_card(rng)
    w.punch(server, 0, rng)
    w.punch(server, 0, rng)
    data = (tmp_path / "wallet").read_bytes()
    assert hashlib.sha256(data).hexdigest() == expected
    again = _wallet(tmp_path, **kwargs)
    assert [c.count for c in again.cards] == [2, 0]
    again.save()
    assert (tmp_path / "wallet").read_bytes() == data


# --- scheme byte ---------------------------------------------------------------


def test_unknown_scheme_byte_rejected(tmp_path):
    rng = random.Random(166)
    path = tmp_path / "wallet"
    w = Wallet(str(path), group_name="toy")
    w.new_card(rng)
    data = bytearray(path.read_bytes())
    data[4] = 7
    path.write_bytes(bytes(data))
    for scheme in (None, "main", "mergeable"):
        with pytest.raises(WalletError, match="unknown scheme 7"):
            Wallet(str(path), scheme=scheme, group_name="toy", pairing_name="toy-pairing")


def test_open_as_stored_scheme(tmp_path):
    rng = random.Random(167)
    w = _wallet(tmp_path, scheme="mergeable", pairing_name="toy-pairing")
    w.new_card(rng)
    again = _wallet(tmp_path, scheme=None, pairing_name="toy-pairing")
    assert again.scheme.name == "mergeable" and again.cards == w.cards
    assert _wallet(tmp_path / "none", scheme=None, group_name="toy").scheme.name == "main"


# --- codec properties (toy backends) -----------------------------------------------


_TOY = dict(group_name="toy", pairing_name="toy-pairing")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scheme=st.sampled_from(["main", "mergeable"]),
    pk_seed=st.none() | st.integers(0, 2**32),
    cards=st.lists(
        st.tuples(st.integers(0, 2**32), st.integers(0, 2**32 - 1)), max_size=6
    ),
)
def test_any_cards_round_trip(tmp_path, scheme, pk_seed, cards):
    path = str(tmp_path / "prop-wallet")
    if os.path.exists(path):
        os.remove(path)
    w = Wallet(path, scheme=scheme, **_TOY)
    if pk_seed is not None:
        _, w.pk = w.scheme.setup(random.Random(pk_seed))
    for seed, count in cards:
        secret, element = w.scheme.issue(random.Random(seed))
        w.cards.append(Card(secret, element, count))
    w.save()
    again = Wallet(path, scheme=None, **_TOY)
    assert again.scheme.name == scheme
    assert (again.pk is None) == (w.pk is None)
    if w.pk is not None:
        assert again.scheme.encode_pk(again.pk) == w.scheme.encode_pk(w.pk)
    assert again.cards == w.cards


def _valid_wallet_bytes(tmp_path, scheme):
    path = tmp_path / f"valid-{scheme}"
    if not path.exists():
        rng = random.Random(168)
        w = Wallet(str(path), scheme=scheme, **_TOY)
        w.pk = w.scheme.setup(rng)[1]
        w.new_card(rng)
        w.new_card(rng)
    return path.read_bytes()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_loading_arbitrary_bytes_raises_only_wallet_error(tmp_path, data):
    valid = _valid_wallet_bytes(tmp_path, data.draw(st.sampled_from(["main", "mergeable"])))
    kind = data.draw(st.sampled_from(["any", "header", "flip", "cut"]))
    if kind == "any":
        blob = data.draw(st.binary(max_size=120))
    elif kind == "header":
        blob = b"PCW1" + data.draw(st.binary(max_size=120))
    elif kind == "flip":
        at = data.draw(st.integers(0, len(valid) - 1))
        blob = bytearray(valid)
        blob[at] ^= data.draw(st.integers(1, 255))
        blob = bytes(blob)
    else:
        blob = valid[: data.draw(st.integers(0, len(valid) - 1))]
    path = tmp_path / "arbitrary"
    path.write_bytes(blob)
    try:
        Wallet(str(path), scheme=None, **_TOY)
    except WalletError:
        pass


# --- durable replace -------------------------------------------------------------


def test_save_syncs_directory_after_replace(tmp_path, monkeypatch):
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
    rng = random.Random(169)
    w = _wallet(tmp_path, group_name="toy")
    with FaultPlan() as plan:
        w.new_card(rng)
        w.new_card(rng)
    assert events == ["fsync", "replace", "dirsync"] * 2
    assert plan.hits[-2:] == ["wallet.save.replace", "wallet.save.dirsync"]
    # a crash before the directory sync still leaves the new file in place
    w.cards[0].count = 3
    with FaultPlan(fail_at=3):
        with pytest.raises(FaultInjected):
            w.save()
    assert _wallet(tmp_path, group_name="toy").cards[0].count == 3
