import errno
import logging
import os
import re
import signal
import socket
import stat
import struct
import subprocess
import sys
import threading
import time
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from punchcard import cli, core, extensions as ext, mergeable, service, wire
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import ConfigError, DbBusy, InvalidEncoding, KeyStoreError, WireError
from punchcard.faults import FaultInjected, FaultPlan, install_hook
from punchcard.groups import get_group, get_pairing
from punchcard.groups.bls import curve as bls_curve, fields as bls_fields
from punchcard.service import (
    EXIT_BIND,
    EXIT_KEYSTORE,
    Client,
    Config,
    KeyStore,
    PunchcardService,
    ServerHandle,
    load_config,
    run_server,
)
from punchcard.wallet import Wallet

import random


# --- config -------------------------------------------------------------------


def test_defaults_without_file_or_env():
    cfg = load_config(env={})
    assert cfg == Config()


def test_readme_example_config_loads_as_the_defaults(tmp_path):
    """The example server.conf in README.md loads, and every value it shows
    is the default."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = re.search(r"```\n(listen_host = .*?)```", readme, re.S).group(1)
    path = tmp_path / "server.conf"
    path.write_text(block)
    assert load_config(str(path), env={}) == Config()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "server.conf"
    path.write_text(
        """
        # comment and blank lines are fine

        listen_host = 0.0.0.0
        listen_port = 9000
        scheme = mergeable
        accepted_counts = 10, 5, 10
        t_max = 20
        fsync = off
        opaque_rejects = yes
        expiry_check = no
        horizon_quarters = 4
        """
    )
    cfg = load_config(str(path), env={})
    assert cfg.listen_host == "0.0.0.0"
    assert cfg.listen_port == 9000
    assert cfg.scheme == "mergeable"
    assert cfg.accepted_counts == (5, 10)  # sorted, deduplicated
    assert cfg.t_max == 20
    assert cfg.fsync is False
    assert cfg.opaque_rejects is True
    assert cfg.expiry_check is False
    assert cfg.horizon_quarters == 4


def test_env_overrides_file(tmp_path):
    path = tmp_path / "server.conf"
    path.write_text("listen_port = 9000\nscheme = main\n")
    cfg = load_config(
        str(path),
        env={"PUNCHCARD_LISTEN_PORT": "9001", "PUNCHCARD_T_MAX": "3"},
    )
    assert cfg.listen_port == 9001
    assert cfg.scheme == "main"
    assert cfg.t_max == 3
    # an environment value is stripped as a file value is
    padded = {"STATE_DIR": " st ", "LISTEN_HOST": " 127.0.0.1 ",
              "SCHEME": " mergeable", "LISTEN_PORT": "9001 ", "FSYNC": "\toff "}
    cfg = load_config(str(path), env={"PUNCHCARD_" + k: v for k, v in padded.items()})
    assert (cfg.state_dir, cfg.listen_host, cfg.scheme) == ("st", "127.0.0.1", "mergeable")
    assert (cfg.listen_port, cfg.fsync) == (9001, False)


def test_config_rejects_garbage(tmp_path):
    cases = [
        "listen_port = seven",
        "listen_port = 70000",
        "scheme = sideways",
        "fsync = maybe",
        "accepted_counts = ",
        "accepted_counts = 0",
        "horizon_quarters = 0",
        "mystery_key = 1",
        "no equals sign here",
        "scheme = mergeable\nexpiry_check = on",  # merge cards carry no date
    ]
    for text in cases:
        path = tmp_path / "bad.conf"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError):
            load_config(str(path), env={})
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.conf"), env={})


@pytest.mark.parametrize("key", ["listen_host", "state_dir"])
def test_config_refuses_an_empty_text_value(tmp_path, key):
    """An empty listen_host would listen on every interface, an empty
    state_dir fails only at its first file: both stop the load, from the
    file and from the environment, naming the key."""
    path = tmp_path / "server.conf"
    path.write_text(f"{key} =\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path), env={})
    for blank in ("", "  "):
        with pytest.raises(ConfigError, match=key):
            load_config(env={"PUNCHCARD_" + key.upper(): blank})


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "server.conf"
    path.write_bytes(b"# caf\xe9\nlisten_port = 9000\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(path), env={})


@pytest.mark.parametrize("text", [b"state_dir =\n", b"# caf\xe9\n"])
def test_server_run_stops_on_a_config_that_cannot_work(tmp_path, capsys, text):
    path = tmp_path / "server.conf"
    path.write_bytes(b"listen_port = 0\n" + text)
    assert cli.main(["server", "run", "--config", str(path)]) == service.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config: ")


# --- keystore -------------------------------------------------------------------


def _toy_setup_pair(group):
    return (
        lambda sk=None: core.server_setup(group, sk=sk),
        group.encode_element,
    )


def test_keystore_create_then_load(tmp_path):
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    store = KeyStore(str(tmp_path))
    sk1, pk1 = store.load_or_create(setup, enc)
    mode = stat.S_IMODE(os.stat(store.key_path).st_mode)
    assert mode == 0o600
    sk2, pk2 = KeyStore(str(tmp_path)).load_or_create(setup, enc)
    assert sk1 == sk2
    assert pk1 == pk2


def test_keystore_detects_mismatched_pk(tmp_path):
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    store = KeyStore(str(tmp_path))
    store.load_or_create(setup, enc)
    other = group.encode_element(group.exp(group.generator(), 123)).hex()
    with open(store.pk_path, "w") as f:
        f.write(other + "\n")
    with pytest.raises(KeyStoreError):
        KeyStore(str(tmp_path)).load_or_create(setup, enc)


def test_keystore_rejects_garbage_key(tmp_path):
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    store = KeyStore(str(tmp_path))
    store.load_or_create(setup, enc)
    with open(store.key_path, "w") as f:
        f.write("not hex at all\n")
    with pytest.raises(KeyStoreError):
        KeyStore(str(tmp_path)).load_or_create(setup, enc)


@pytest.mark.parametrize("scalar", [0, 1019, 1019 + 5, -1])
def test_keystore_rejects_a_scalar_outside_the_group(tmp_path, scalar):
    """Without a pk file to compare, a stored 0 or a scalar >= the order
    (1019 in the toy groups) must not load as a key."""
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    store = KeyStore(str(tmp_path))
    store.load_or_create(setup, enc)
    os.remove(store.pk_path)
    with open(store.key_path, "w") as f:
        f.write(format(scalar, "x") + "\n")
    with pytest.raises(KeyStoreError):
        KeyStore(str(tmp_path)).load_or_create(setup, enc)


def test_mergeable_setup_rejects_a_scalar_outside_the_group():
    pairing = get_pairing("toy-pairing")
    for sk in (0, pairing.order):
        with pytest.raises(ValueError):
            mergeable.server_setup(pairing, sk=sk)
    assert mergeable.server_setup(pairing, sk=pairing.order - 1)[0] == pairing.order - 1


def test_keystore_first_start_survives_a_crash_at_every_point(tmp_path):
    """A crash at any fault point of a first start leaves no server.key or
    the complete pair of that start; the next start then loads or creates
    a key as usual."""
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    with FaultPlan() as plan:
        KeyStore(str(tmp_path / "clean")).load_or_create(setup, enc)
    assert plan.hits == [
        "keystore.write",
        "keystore.pk.replace", "keystore.pk.dirsync",
        "keystore.key.replace", "keystore.key.dirsync",
    ]
    for fail_at, point in enumerate(plan.hits):
        state = str(tmp_path / f"crash-{fail_at}")
        drawn = []

        def recording_setup(sk=None):
            made = setup(sk)
            drawn.append(made)
            return made

        with FaultPlan(fail_at=fail_at):
            with pytest.raises(FaultInjected):
                KeyStore(state).load_or_create(recording_setup, enc)
        store = KeyStore(state)
        committed = os.path.exists(store.key_path)
        assert committed == (point == "keystore.key.dirsync"), point
        sk, pk = store.load_or_create(setup, enc)
        if committed:
            assert sk == drawn[0][0], point
        assert stat.S_IMODE(os.stat(store.key_path).st_mode) == 0o600
        with open(store.pk_path) as f:
            assert f.read() == enc(pk).hex() + "\n"
        assert KeyStore(state).load_or_create(setup, enc)[0] == sk


def test_keystore_overwrites_a_torn_temporary_file(tmp_path):
    group = get_group("toy")
    setup, enc = _toy_setup_pair(group)
    store = KeyStore(str(tmp_path))
    for path in (store.key_path, store.pk_path):
        with open(path + ".tmp", "w") as f:
            f.write("abc")
        os.chmod(path + ".tmp", 0o644)
    old = os.umask(0o022)
    try:
        sk, pk = store.load_or_create(setup, enc)
    finally:
        os.umask(old)
    # the key is written to a fresh temp file, never the leftover's mode
    assert stat.S_IMODE(os.stat(store.key_path).st_mode) == 0o600
    assert KeyStore(str(tmp_path)).load_or_create(setup, enc)[0] == sk
    assert not os.path.exists(store.key_path + ".tmp")


def test_keystore_unreadable_pk_is_a_keystore_error(tmp_path, caplog):
    """A server.pk that is not text stops the start as a key-store error
    (exit 3) that names the file, not as a traceback."""
    cfg = Config(state_dir=str(tmp_path / "state"), listen_port=0, group="toy")
    PunchcardService(cfg, db=RedeemDb())  # creates the key pair
    with open(KeyStore(cfg.state_dir).pk_path, "wb") as f:
        f.write(b"\xff\xfe\n")
    assert run_server(cfg) == EXIT_KEYSTORE
    assert "server.pk" in caplog.text


# --- dispatch without a socket ---------------------------------------------------


def _toy_service(tmp_path, **overrides):
    cfg = Config(state_dir=str(tmp_path / "state"), group="toy", **overrides)
    return PunchcardService(cfg, db=RedeemDb())


def test_pk_and_punch_dispatch(tmp_path):
    svc = _toy_service(tmp_path, accepted_counts=(2,))
    rng = random.Random(171)
    g = svc.scheme.group
    out_type, pk_bytes = svc.handle(wire.PK_REQ, b"")
    assert out_type == wire.PK_RESP
    pk = g.decode_element(pk_bytes)
    secret, card = core.issue(g, rng)
    for _ in range(2):
        out_type, body = svc.handle(wire.PUNCH_REQ, g.encode_element(card))
        assert out_type == wire.PUNCH_RESP
        resp = core.PunchResponse.from_bytes(g, body)
        secret, card = core.client_punch(g, pk, secret, card, resp, rng)
    req = core.client_redeem(g, secret, card)
    out_type, body = svc.handle(
        wire.REDEEM_REQ, wire.pack_redeem_body(2, req.to_bytes(g))
    )
    assert out_type == wire.REDEEM_RESP
    assert RedeemStatus(body[0]) is RedeemStatus.ACCEPT
    snap = svc.stats.snapshot()
    assert snap["punches"] == 2 and snap["redeem_accept"] == 1


def test_punch_with_bit_255_set_is_error(tmp_path):
    """A ristretto255 card with bit 255 set (s >= p) is refused on every
    backend, libsodium's included, whose own check ignores that bit: the
    second byte form gets ERROR, the card's canonical bytes a punch."""
    cfg = Config(state_dir=str(tmp_path / "state"))
    svc = PunchcardService(cfg, db=RedeemDb())
    g = svc.scheme.group
    _, card = core.issue(g, random.Random(178))
    body = g.encode_element(card)
    out_type, _ = svc.handle(wire.PUNCH_REQ, body[:31] + bytes([body[31] | 0x80]))
    assert out_type == wire.ERROR
    out_type, _ = svc.handle(wire.PUNCH_REQ, body)
    assert out_type == wire.PUNCH_RESP


def test_unaccepted_count_is_bad_card(tmp_path):
    svc = _toy_service(tmp_path, accepted_counts=(10,))
    rng = random.Random(172)
    g = svc.scheme.group
    secret, card = core.issue(g, rng)
    req = core.client_redeem(g, secret, card)
    out_type, body = svc.handle(
        wire.REDEEM_REQ, wire.pack_redeem_body(3, req.to_bytes(g))
    )
    assert out_type == wire.REDEEM_RESP
    assert RedeemStatus(body[0]) is RedeemStatus.BAD_CARD
    assert svc.stats.snapshot()["redeem_bad_card"] == 1


def test_malformed_redeem_is_bad_card_not_error(tmp_path):
    svc = _toy_service(tmp_path)
    out_type, body = svc.handle(wire.REDEEM_REQ, wire.pack_redeem_body(10, b"junk"))
    assert out_type == wire.REDEEM_RESP
    assert RedeemStatus(body[0]) is RedeemStatus.BAD_CARD


def test_merge_redeem_rejects_bad_gt_bytes(tmp_path):
    """Each kind of bad target-group value gets BAD_CARD: a coefficient
    that is not reduced mod p, an Fq12 element outside the order-n
    subgroup, and the right value presented for the wrong count."""
    cfg = Config(
        state_dir=str(tmp_path / "state"),
        scheme="mergeable",
        accepted_counts=(2, 3),
    )
    svc = PunchcardService(cfg, db=RedeemDb())
    pg = svc.scheme.pairing
    u_a, u_b = bytes([1]) * 32, bytes([2]) * 32
    base0 = core.card_base(pg.g0, u_a, mergeable.TAG_CARD_HASH_G0)
    base1 = core.card_base(pg.g1, u_b, mergeable.TAG_CARD_HASH_G1)
    value = pg.pair(pg.g0.exp(base0, pow(svc.sk, 2, pg.order)), base1)
    good = pg.gt.encode_element(value)

    first = int.from_bytes(good[:48], "big") + int(bls_fields.P)
    unreduced = first.to_bytes(48, "big") + good[48:]
    rng = random.Random(179)
    outside = b"".join(
        rng.randrange(int(bls_fields.P)).to_bytes(48, "big") for _ in range(12)
    )

    def redeem(count, value_bytes):
        out_type, body = svc.handle(
            wire.MERGE_REDEEM_REQ, wire.pack_redeem_body(count, u_a + u_b + value_bytes)
        )
        assert out_type == wire.MERGE_REDEEM_RESP
        return RedeemStatus(body[0])

    assert redeem(2, unreduced) is RedeemStatus.BAD_CARD
    assert redeem(2, outside) is RedeemStatus.BAD_CARD
    assert redeem(3, good) is RedeemStatus.BAD_CARD
    assert svc.stats.snapshot()["redeem_bad_card"] == 3
    assert len(svc.db) == 0
    assert redeem(2, good) is RedeemStatus.ACCEPT


def _bad_g1_g2_halves(g1_half, g2_half):
    """Merge punch bodies with one half malformed before any square root:
    the compressed flag cleared, a malformed infinity, or x >= p."""
    def bad(half):
        return [
            bytes([half[0] & 0x7F]) + half[1:],
            bytes([0xC0]) + half[1:],
            bytes([0x9F]) + b"\xff" * (len(half) - 1),
        ]
    return [g1_half + b for b in bad(g2_half)] + [b + g2_half for b in bad(g1_half)]


def test_bad_merge_punch_refused_before_any_square_root(tmp_path, monkeypatch):
    """Each half's flags, infinity form and x < p are checked before either
    half's square root or subgroup check, so a merge punch with a valid G1
    half and a malformed G2 half (or the reverse) costs no decode."""
    from punchcard.groups.bls import curve

    cfg = Config(state_dir=str(tmp_path / "state"), scheme="mergeable")
    svc = PunchcardService(cfg, db=RedeemDb())
    _, card = mergeable.issue(svc.scheme.pairing, random.Random(5))
    good = card.to_bytes(svc.scheme.pairing)
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return staticmethod(wrapper) if isinstance(owner, type) else wrapper

    for owner, name in [
        (curve._FqOps, "sqrt"), (curve._Fq2Ops, "sqrt"), (bls_fields, "fq_sqrt"),
        (curve, "in_subgroup_g1"), (curve, "in_subgroup_g2"),
    ]:
        monkeypatch.setattr(owner, name, counting(owner, name))
    out_type, _ = svc.handle(wire.MERGE_PUNCH_REQ, good)
    assert out_type == wire.MERGE_PUNCH_RESP and calls  # the counters count
    for body in _bad_g1_g2_halves(good[:48], good[48:]):
        calls.clear()
        out_type, reply = svc.handle(wire.MERGE_PUNCH_REQ, body)
        assert out_type == wire.ERROR and reply.startswith(b"bad request: ")
        assert calls == []


def test_wrong_scheme_message_is_error(tmp_path):
    svc = _toy_service(tmp_path)
    out_type, body = svc.handle(wire.MERGE_PUNCH_REQ, b"\x00" * 8)
    assert out_type == wire.ERROR
    assert b"0x07" in body
    assert svc.stats.snapshot()["protocol_errors"] == 1


def test_opaque_rejects_hide_details(tmp_path):
    svc = _toy_service(tmp_path, opaque_rejects=True)
    out_type, body = svc.handle(wire.PUNCH_REQ, b"\x00" * 3)
    assert out_type == wire.ERROR
    assert body == b"rejected"


def test_oversized_multi_punch_is_error(tmp_path):
    svc = _toy_service(tmp_path, t_max=5)
    rng = random.Random(173)
    g = svc.scheme.group
    _, card = core.issue(g, rng)
    out_type, body = svc.handle(
        wire.MULTI_REQ, wire.pack_multi_req(6, g.encode_element(card))
    )
    assert out_type == wire.ERROR
    out_type, _ = svc.handle(
        wire.MULTI_REQ, wire.pack_multi_req(5, g.encode_element(card))
    )
    assert out_type == wire.MULTI_RESP


@pytest.mark.parametrize("t", [0, 4, 255])
def test_multi_punch_count_out_of_range_decodes_nothing(tmp_path, monkeypatch, t):
    svc = _toy_service(tmp_path, t_max=3)
    g = svc.scheme.group
    card = g.encode_element(core.issue(g, random.Random(178))[1])
    decoded = []
    real_decode = g.decode_element
    monkeypatch.setattr(g, "decode_element", lambda d: decoded.append(d) or real_decode(d))
    out_type, body = svc.handle(wire.MULTI_REQ, bytes([t]) + card)
    assert (out_type, body) == (wire.ERROR, f"punch count {t} outside [1, 3]".encode())
    assert decoded == []
    out_type, _ = svc.handle(wire.MULTI_REQ, bytes([3]) + card)
    assert out_type == wire.MULTI_RESP and decoded == [card]


def test_expiry_gate(tmp_path):
    from datetime import date

    from punchcard import extensions as ext

    svc = _toy_service(tmp_path, expiry_check=True, accepted_counts=(0,))
    rng = random.Random(174)
    g = svc.scheme.group
    # non-expiring u: the 4-byte prefix is almost surely not a boundary code
    secret, card = core.issue(g, rng)
    req = core.client_redeem(g, secret, card)
    out_type, body = svc.handle(
        wire.REDEEM_REQ, wire.pack_redeem_body(0, req.to_bytes(g))
    )
    assert RedeemStatus(body[0]) is RedeemStatus.EXPIRED
    # a fresh expiring card passes the gate
    boundary = ext.add_quarters(ext.quarter_boundary_on_or_after(date.today()), 2)
    secret, card = ext.issue_expiring(g, boundary, rng)
    req = core.client_redeem(g, secret, card)
    out_type, body = svc.handle(
        wire.REDEEM_REQ, wire.pack_redeem_body(0, req.to_bytes(g))
    )
    assert RedeemStatus(body[0]) is RedeemStatus.ACCEPT
    assert svc.stats.snapshot()["redeem_expired"] == 1


_REFUSALS = {
    # row: (scheme, expiry_check, expected status, the calls it may make)
    "count not accepted": ("main", False, RedeemStatus.BAD_CARD, []),
    "expired": ("main", True, RedeemStatus.EXPIRED, []),
    "one secret on both sides": ("mergeable", False, RedeemStatus.BAD_CARD, []),
    "wrong length, main": ("main", False, RedeemStatus.BAD_CARD, []),
    "wrong length, mergeable": ("mergeable", False, RedeemStatus.BAD_CARD, []),
    "spent, main": ("main", False, RedeemStatus.DOUBLE_SPEND, []),
    "spent, mergeable": ("mergeable", False, RedeemStatus.DOUBLE_SPEND, []),
    # the redemption equation, on bytes: no decode (the toy pairing's pair
    # raises a GT generator, hence its exp)
    "wrong value, main": ("main", False, RedeemStatus.BAD_CARD, ["hash_to_group", "exp"]),
    "wrong value, mergeable": ("mergeable", False, RedeemStatus.BAD_CARD,
                               ["hash_to_group", "exp", "hash_to_group", "pair", "exp"]),
}
_COUNTED = ("decode_element", "hash_to_group", "exp", "exp_many", "exp_base")


def _count_calls(monkeypatch, svc):
    """A list that gets the name of each call, from now on, to a counted
    method of svc's groups, to pair and the BLS12-381 subgroup checks, and
    to the store's check_and_insert."""
    s = svc.scheme
    if s.name == "main":
        owners = [(s.group, name) for name in _COUNTED]
    else:
        pg = s.pairing
        owners = [(g, name) for g in (pg.g0, pg.g1, pg.gt) for name in _COUNTED]
        owners += [(pg, "pair"), (bls_curve, "in_subgroup_g1"), (bls_curve, "in_subgroup_g2")]
    calls = []
    for owner, name in owners + [(svc.db, "check_and_insert")]:
        real = getattr(owner, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("row", sorted(_REFUSALS))
def test_refusal_costs(tmp_path, monkeypatch, row):
    """Rows of README's refusal-cost table: each refused redemption answers
    its status having made only the calls listed (to decode_element,
    hash_to_group, exp, exp_many, exp_base and pair) and without touching
    the store. A valid redemption afterwards shows that the counters count,
    and that an accepted redemption decodes nothing either."""
    scheme, expiry_check, status, allowed = _REFUSALS[row]
    svc = _toy_service(tmp_path, scheme=scheme, pairing="toy-pairing",
                       accepted_counts=(2,), expiry_check=expiry_check)
    s, rng = svc.scheme, random.Random(180)
    if scheme == "main":
        g = s.group
        stale = ext.make_expiring_secret(date(2020, 1, 1), rng)
        req = core.RedeemRequest(stale, core.expected_card(g, svc.sk, stale, 2))
        count = 3 if row == "count not accepted" else 2
        refused = wire.pack_redeem_body(count, req.to_bytes(g))
        boundary = ext.add_quarters(ext.quarter_boundary_on_or_after(date.today()), 2)
        u = ext.make_expiring_secret(boundary, rng)
        valid = core.RedeemRequest(u, core.expected_card(g, svc.sk, u, 2))
    else:
        u = rng.randbytes(core.SECRET_SIZE)
        refused = wire.pack_redeem_body(2, u + u + bytes(s.pairing.gt.element_size))
        valid = s.expected_request(svc.sk, 2, rng)
    if row.startswith("wrong length"):  # an accepted redemption, one byte short
        refused = wire.pack_redeem_body(2, s.encode(valid))[:-1]
    if row.startswith("wrong value"):  # an accepted redemption, last bit flipped
        message = s.encode(valid)
        refused = wire.pack_redeem_body(2, message[:-1] + bytes([message[-1] ^ 1]))
    if row.startswith("spent"):  # an accepted redemption, replayed
        refused = wire.pack_redeem_body(2, s.encode(valid))
        assert svc.handle(s.redeem_req, refused)[1] == bytes([RedeemStatus.ACCEPT])
        valid = s.expected_request(svc.sk, 2, rng)
    calls = _count_calls(monkeypatch, svc)
    assert svc.handle(s.redeem_req, refused) == (s.redeem_resp, bytes([status]))
    assert calls == allowed
    calls.clear()
    accept = (s.redeem_resp, bytes([RedeemStatus.ACCEPT]))
    assert svc.handle(s.redeem_req, wire.pack_redeem_body(2, s.encode(valid))) == accept
    assert "hash_to_group" in calls and "check_and_insert" in calls
    assert "decode_element" not in calls


_UNSERVED = "type 0x{:02x} not valid for the {} scheme"
_DISPATCH_REFUSALS = {
    # row: (scheme, type, body ("card": an issued card), ERROR text, calls)
    "unserved 0x42": ("main", 0x42, "card", _UNSERVED.format(0x42, "main"), []),
    "unserved reply type": ("main", wire.PUNCH_RESP, "card",
                            _UNSERVED.format(wire.PUNCH_RESP, "main"), []),
    "unserved mergeable request": ("main", wire.MERGE_PUNCH_REQ, "card",
                                   _UNSERVED.format(wire.MERGE_PUNCH_REQ, "main"), []),
    "unserved main request": ("mergeable", wire.PUNCH_REQ, "card",
                              _UNSERVED.format(wire.PUNCH_REQ, "mergeable"), []),
    "card not an element": ("main", wire.PUNCH_REQ, bytes(4),
                            "bad request: not an element of toy", ["decode_element"]),
    "redeem body too short, main": ("main", wire.REDEEM_REQ, b"\x02",
                                    "bad request: redeem body too short", []),
    "redeem body too short, mergeable": ("mergeable", wire.MERGE_REDEEM_REQ, b"\x02",
                                         "bad request: redeem body too short", []),
    "multi-punch request too short": ("main", wire.MULTI_REQ, b"\x01",
                                      "bad request: multi-punch request too short", []),
}


@pytest.mark.parametrize("row", sorted(_DISPATCH_REFUSALS))
def test_dispatch_refusal_costs(tmp_path, monkeypatch, row):
    """Rows of README's refusal-cost table for requests refused before any
    check of a card or redemption: a type the scheme does not serve, a
    punch whose card is not an element, a redeem body without its count.
    Each answers ERROR with its text and counts one protocol error, having
    made only the calls listed and without touching the store; the service
    then still serves its key."""
    scheme, msg_type, body, text, allowed = _DISPATCH_REFUSALS[row]
    svc = _toy_service(tmp_path, scheme=scheme, pairing="toy-pairing")
    if body == "card":  # what the scheme would punch, had the type been its own
        body = svc.scheme.encode_card(svc.scheme.issue(random.Random(181))[1])
    calls = _count_calls(monkeypatch, svc)
    assert svc.handle(msg_type, body) == (wire.ERROR, text.encode())
    assert calls == allowed
    assert svc.stats.snapshot()["protocol_errors"] == 1
    assert svc.handle(wire.PK_REQ, b"") == (wire.PK_RESP, svc.pk_bytes)


def test_merge_punch_off_the_twist_costs_one_g1_decode(tmp_path, monkeypatch):
    """Row of README's refusal-cost table, on BLS12-381: a merge punch whose
    G1 half is a valid element and whose G2 half has an x on no point of
    the twist. The G1 half is decoded in full, subgroup check included,
    before the G2 half's square root fails; nothing else runs."""
    cfg = Config(state_dir=str(tmp_path / "state"), scheme="mergeable")
    svc = PunchcardService(cfg, db=RedeemDb())
    card = svc.scheme.encode_card(svc.scheme.issue(random.Random(181))[1])

    def off_the_twist(half):
        try:
            svc.scheme.pairing.g1.decode_element(half)
        except InvalidEncoding as e:
            return "not on the twist" in str(e)
        return False

    halves = (bytes([0x80]) + bytes(94) + bytes([k]) for k in range(1, 256))
    body = card[:48] + next(h for h in halves if off_the_twist(h))
    calls = _count_calls(monkeypatch, svc)
    assert svc.handle(wire.MERGE_PUNCH_REQ, body) == (
        wire.ERROR, b"bad request: x is not on the twist"
    )
    assert calls == ["decode_element", "in_subgroup_g1", "decode_element"]
    assert svc.stats.snapshot()["protocol_errors"] == 1
    assert svc.handle(wire.PK_REQ, b"") == (wire.PK_RESP, svc.pk_bytes)


def test_crash_in_handler_leaves_db_reloadable(tmp_path):
    state = str(tmp_path / "state")
    cfg = Config(state_dir=state, group="toy")
    svc = PunchcardService(cfg)
    rng = random.Random(175)
    g = svc.scheme.group
    secret, card = core.issue(g, rng)
    with FaultPlan(fail_at=0):
        with pytest.raises(FaultInjected):
            svc.handle(wire.PUNCH_REQ, g.encode_element(card))
    svc.db.close()
    svc2 = PunchcardService(cfg)
    assert svc2.sk == svc.sk
    assert len(svc2.db) == 0
    svc2.db.close()


# --- fuzzed dispatch ----------------------------------------------------------------


_FUZZ_COUNT = 2  # the one accepted punch count of the fuzzed services


@pytest.fixture(scope="module", params=["main", "mergeable"])
def fuzz_service(request, tmp_path_factory):
    """Toy main with the expiry gate on, or toy-pairing mergeable."""
    state = str(tmp_path_factory.mktemp(request.param))
    if request.param == "main":
        cfg = Config(state_dir=state, group="toy", expiry_check=True,
                     accepted_counts=(_FUZZ_COUNT,), t_max=3)
    else:
        cfg = Config(state_dir=state, scheme="mergeable", pairing="toy-pairing",
                     accepted_counts=(_FUZZ_COUNT,))
    return PunchcardService(cfg, db=RedeemDb())


def _accepted_redeem(svc, u_tail: bytes) -> bytes:
    """A redeem body the service accepts unless its secrets are spent."""
    s = svc.scheme
    if s.name == "main":
        boundary = ext.add_quarters(ext.quarter_boundary_on_or_after(date.today()), 1)
        u = ext.expiry_code(boundary).to_bytes(4, "big") + u_tail[4:]
        card = core.expected_card(s.group, svc.sk, u, _FUZZ_COUNT)
        message = core.RedeemRequest(u=u, card=card).to_bytes(s.group)
    else:
        u_a, u_b = u_tail, bytes(b ^ 0xFF for b in u_tail)  # never equal
        value = mergeable.expected_value(s.pairing, svc.sk, u_a, u_b, _FUZZ_COUNT)
        message = u_a + u_b + value
    return wire.pack_redeem_body(_FUZZ_COUNT, message)


@st.composite
def _requests(draw, svc):
    """(type, body) pairs: any type byte with any body, and each request
    type with a body that fits it (an issued card, a valid redemption, or
    one with another first secret) half the time; then, a quarter of the
    time, one byte flipped."""
    s = svc.scheme
    types = [t for t in (wire.PK_REQ, s.punch_req, s.multi_req, s.redeem_req) if t]
    msg_type = draw(st.one_of(st.sampled_from(types), st.integers(0, 255)))
    card = s.encode_card(s.issue(random.Random(draw(st.integers(0, 2**32))))[1])
    redeem = _accepted_redeem(svc, draw(st.binary(min_size=32, max_size=32)))
    fitting = {
        s.punch_req: st.just(card),
        s.multi_req: st.integers(0, 255).map(lambda t: bytes([t]) + card),
        s.redeem_req: st.one_of(
            st.just(redeem),
            # another first secret: most often expired on main
            st.binary(min_size=32, max_size=32).map(lambda u: redeem[:2] + u + redeem[34:]),
        ),
    }.get(msg_type)
    body = draw(st.binary(max_size=len(redeem) + 8))
    if fitting is not None and draw(st.booleans()):
        body = draw(fitting)
    if body and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(body) - 1))
        body = body[:i] + bytes([body[i] ^ draw(st.integers(1, 255))]) + body[i + 1 :]
    return msg_type, body


def _answer(svc, msg_type, body):
    """svc's answer to one request, after checking that it is a response
    type of the scheme or ERROR and that the spent set grew only on
    ACCEPT (so never on an ERROR)."""
    s = svc.scheme
    before = len(svc.db)
    out_type, reply = svc.handle(msg_type, body)
    answers = {wire.PK_RESP, s.punch_resp, s.multi_resp, s.redeem_resp, wire.ERROR}
    assert out_type in answers - {None}
    assert isinstance(reply, bytes)
    accepted = out_type == s.redeem_resp and reply == bytes([RedeemStatus.ACCEPT])
    assert len(svc.db) - before == (s.redeem_cards if accepted else 0)
    return out_type, reply


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_handle_fuzz_answers_every_request(fuzz_service, data):
    """Any (type, body) pair gets a response type of the scheme or ERROR,
    no exception escapes, and the spent set grows only on ACCEPT."""
    _answer(fuzz_service, *data.draw(_requests(fuzz_service)))


class _FailingAppends(RedeemDb):
    """An in-memory store whose appends raise OSError as `fails` says, one
    entry per append in turn (then none)."""

    def __init__(self, fails):
        super().__init__()
        self._fails = list(fails)

    def _append(self, record):
        if self._fails and self._fails.pop(0):
            raise OSError(errno.EIO, "injected append failure")
        super()._append(record)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_handle_fuzz_over_a_failing_store(fuzz_service, data):
    """The fuzz above, a few requests at a time (half of them redemptions
    the service accepts unless spent), on a fresh service whose store fails
    appends at random: every reply is still a response type or ERROR, no
    exception escapes, and an ERROR spends nothing. From the first failed
    append on, every redemption is refused with ERROR."""
    fails = data.draw(st.lists(st.booleans(), max_size=3))
    svc = PunchcardService(fuzz_service.cfg, db=_FailingAppends(fails))
    s = svc.scheme
    accepted_redeem = st.binary(min_size=32, max_size=32).map(
        lambda u: (s.redeem_req, _accepted_redeem(svc, u))
    )
    for _ in range(data.draw(st.integers(1, 4))):
        failed_before = svc.store_failed
        msg_type, body = data.draw(st.one_of(_requests(svc), accepted_redeem))
        out_type, reply = _answer(svc, msg_type, body)
        if failed_before and msg_type == s.redeem_req:
            assert (out_type, reply) == (wire.ERROR, b"store unavailable")
    assert svc.stats.snapshot()["store_errors"] == int(svc.store_failed)


# --- full TCP loop ----------------------------------------------------------------


def test_store_that_cannot_write_answers_error_until_a_restart(
    tmp_path, monkeypatch, caplog
):
    """os.fsync fails once, during card A's redemption. The wallet hears
    ERROR (WireError, not a hang-up) and keeps card A; card B's redemption
    gets the same ERROR without touching the store; punches go on. After a
    restart on the same state_dir both cards redeem."""
    cfg = Config(state_dir=str(tmp_path / "state"), listen_port=0, group="toy",
                 accepted_counts=(1, 2))
    rng = random.Random(180)
    w = Wallet(str(tmp_path / "w"), group_name="toy")
    a, b = w.new_card(rng), w.new_card(rng)
    real_fsync, fsyncs = os.fsync, []

    def fsync_failing_once(fd):
        fsyncs.append(fd)
        if len(fsyncs) == 1:
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    handle = ServerHandle(cfg).start()
    try:
        with Client("127.0.0.1", handle.port) as client:
            w.punch(client, a, rng)
            w.punch(client, b, rng)
            with caplog.at_level(logging.ERROR, logger="punchcard.server"):
                monkeypatch.setattr(os, "fsync", fsync_failing_once)
                with pytest.raises(WireError, match="store unavailable"):
                    w.redeem(client, a)
                monkeypatch.setattr(os, "fsync", real_fsync)
            assert [c.count for c in w.cards] == [1, 1]
            assert len(fsyncs) == 1 and len(handle.service.db) == 0
            with pytest.raises(WireError, match="store unavailable"):
                w.redeem(client, b)
            w.punch(client, b, rng)
            assert [c.count for c in w.cards] == [1, 2]
        snap = handle.service.stats.snapshot()
        assert snap["store_errors"] == 1 and snap["redeem_accept"] == 0
    finally:
        handle.shutdown()
    assert service.store_path(cfg) in caplog.text
    handle = ServerHandle(cfg).start()
    try:
        with Client("127.0.0.1", handle.port) as client:
            assert w.redeem(client, 0) is RedeemStatus.ACCEPT
            assert w.redeem(client, 0) is RedeemStatus.ACCEPT
        assert w.cards == []
    finally:
        handle.shutdown()


@pytest.mark.parametrize("fault", ["eio", "truncated"])
def test_a_snapshot_read_that_fails_answers_error_until_a_restart(
    tmp_path, monkeypatch, fault
):
    """A lookup reads one block of the snapshot file. A read error, or a
    block that reads back short because the file was cut under the open
    store, answers ERROR "store unavailable" and sets store_failed, and
    the secret stays unspent: after a restart on the intact file the same
    redemption is accepted."""
    cfg = Config(state_dir=str(tmp_path / "state"), group="toy", accepted_counts=(2,),
                 fsync=False)
    rng = random.Random(185)
    os.makedirs(cfg.state_dir)
    db = RedeemDb(service.store_path(cfg))
    db.preload(rng.randbytes(32) for _ in range(1000))
    db.close()
    snap = service.store_path(cfg) + ".snap"
    with open(snap, "rb") as f:
        intact = f.read()
    svc = PunchcardService(cfg)
    s = svc.scheme
    u = b"\xff" * 4 + rng.randbytes(28)  # past the first fence record, so its block is read
    card = core.expected_card(s.group, svc.sk, u, 2)
    body = wire.pack_redeem_body(2, core.RedeemRequest(u=u, card=card).to_bytes(s.group))
    if fault == "eio":
        def failing_pread(*args):
            raise OSError(errno.EIO, "injected read error")

        monkeypatch.setattr(os, "pread", failing_pread)
    else:
        os.truncate(snap, 1000)
    assert svc.handle(s.redeem_req, body) == (wire.ERROR, b"store unavailable")
    assert svc.store_failed and svc.stats.snapshot()["store_errors"] == 1
    monkeypatch.undo()
    assert svc.handle(s.redeem_req, body) == (wire.ERROR, b"store unavailable")
    svc.db.close()
    if fault == "truncated":
        with open(snap, "wb") as f:
            f.write(intact)
    svc = PunchcardService(cfg)
    try:
        assert u not in svc.db and len(svc.db) == 1000
        assert svc.handle(s.redeem_req, body) == (s.redeem_resp, bytes([RedeemStatus.ACCEPT]))
    finally:
        svc.db.close()


@pytest.fixture
def main_server(tmp_path):
    cfg = Config(
        state_dir=str(tmp_path / "state"),
        listen_port=0,
        accepted_counts=(5,),
        fsync=False,
    )
    handle = ServerHandle(cfg).start()
    yield handle
    handle.shutdown()


def test_wallet_against_live_server(main_server, tmp_path):
    rng = random.Random(176)
    w = Wallet(str(tmp_path / "w"))
    idx = w.new_card(rng)
    with Client("127.0.0.1", main_server.port) as client:
        for _ in range(3):
            w.punch(client, idx, rng)
        assert w.multi_punch(client, idx, 2, rng) == 2
        assert w.redeem(client, idx) is RedeemStatus.ACCEPT
    assert w.cards == []
    snap = main_server.service.stats.snapshot()
    assert snap["punches"] == 5
    assert snap["redeem_accept"] == 1


def test_replayed_redeem_body_is_double_spend(main_server, tmp_path):
    rng = random.Random(177)
    g = get_group("ristretto255")
    with Client("127.0.0.1", main_server.port) as client:
        pk = g.decode_element(client.fetch_pk())
        secret, card = core.issue(g, rng)
        for _ in range(5):
            _, body = client.call(wire.PUNCH_REQ, g.encode_element(card))
            resp = core.PunchResponse.from_bytes(g, body)
            secret, card = core.client_punch(g, pk, secret, card, resp, rng)
        req_body = wire.pack_redeem_body(
            5, core.client_redeem(g, secret, card).to_bytes(g)
        )
        _, body = client.call(wire.REDEEM_REQ, req_body)
        assert RedeemStatus(body[0]) is RedeemStatus.ACCEPT
        _, body = client.call(wire.REDEEM_REQ, req_body)
        assert RedeemStatus(body[0]) is RedeemStatus.DOUBLE_SPEND


def test_garbage_frames_get_error_responses(main_server):
    with Client("127.0.0.1", main_server.port) as client:
        out_type, _ = client.call(wire.PUNCH_REQ, b"\x00" * 5)
        assert out_type == wire.ERROR
        # the connection stays usable afterwards
        out_type, _ = client.call(wire.PK_REQ, b"")
        assert out_type == wire.PK_RESP


def test_unserved_types_get_error_and_the_connection_serves_on(main_server):
    """A type no scheme uses, a reply type and the mergeable scheme's request
    each get ERROR naming the type from a main server, on one connection,
    which then still serves the key. The frames are written by hand, so
    the client's own framing decides nothing here."""
    with _connect(main_server) as sock:
        for msg_type in (0x42, wire.PUNCH_RESP, wire.MERGE_PUNCH_REQ):
            sock.sendall(struct.pack("<I", 1) + bytes([msg_type]))
            assert wire.recv_frame(sock) == (
                wire.ERROR, _UNSERVED.format(msg_type, "main").encode()
            )
        sock.sendall(struct.pack("<I", 1) + bytes([wire.PK_REQ]))
        assert wire.recv_frame(sock) == (wire.PK_RESP, main_server.service.pk_bytes)
    assert main_server.service.stats.snapshot()["protocol_errors"] == 3


def test_client_names_an_unexpected_reply_type():
    """fetch_pk raises WireError naming a reply type other than PK_RESP,
    and with the server's text for an ERROR reply."""
    replies = [(0x42, bytes(32)), (wire.ERROR, b"store unavailable")]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def answer():
            for reply in replies:
                conn, _ = listener.accept()
                with conn:
                    wire.recv_frame(conn)
                    wire.send_frame(conn, *reply)

        server = threading.Thread(target=answer)
        server.start()
        try:
            for text in ("unexpected reply type 0x42", "store unavailable"):
                with Client("127.0.0.1", listener.getsockname()[1]) as client:
                    with pytest.raises(WireError, match=text):
                        client.fetch_pk()
        finally:
            server.join(10)
    assert not server.is_alive()


def test_a_reply_dribbled_byte_by_byte_times_out_at_the_client():
    """A wallet reads each reply under one deadline, `timeout` after its
    request: a server that sends a byte every 50 ms, each well inside the
    socket's timeout, cannot hold a call longer than a silent one."""
    frame = wire.pack_frame(wire.PK_RESP, b"k" * 32)
    done = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def dribble():
            conn, _ = listener.accept()
            with conn:
                wire.recv_frame(conn)
                for i in range(len(frame)):
                    if done.wait(0.05):
                        return
                    try:
                        conn.sendall(frame[i : i + 1])
                    except ConnectionError:  # the client gave up and hung up
                        return

        server = threading.Thread(target=dribble)
        server.start()
        try:
            with Client("127.0.0.1", listener.getsockname()[1], timeout=0.5) as client:
                t0 = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.fetch_pk()
                assert time.monotonic() - t0 < 1
        finally:
            done.set()
            server.join(10)
    assert not server.is_alive()


def test_mergeable_over_tcp(tmp_path):
    cfg = Config(
        state_dir=str(tmp_path / "state"),
        listen_port=0,
        scheme="mergeable",
        pairing="toy-pairing",
        accepted_counts=(3,),
        fsync=False,
    )
    handle = ServerHandle(cfg).start()
    try:
        rng = random.Random(178)
        w = Wallet(
            str(tmp_path / "w"), scheme="mergeable", pairing_name="toy-pairing"
        )
        a = w.new_card(rng)
        b = w.new_card(rng)
        with Client("127.0.0.1", handle.port) as client:
            w.punch(client, a, rng)
            w.punch(client, a, rng)
            w.punch(client, b, rng)
            assert w.merge_redeem(client, a, b, rng) is RedeemStatus.ACCEPT
        assert w.cards == []
    finally:
        handle.shutdown()


def test_logs_never_carry_card_material(tmp_path, caplog, monkeypatch):
    rng = random.Random(179)
    cfg = Config(
        state_dir=str(tmp_path / "state"),
        listen_port=0,
        accepted_counts=(5,),
        fsync=False,
    )
    with caplog.at_level(logging.DEBUG, logger="punchcard.server"):
        handle = ServerHandle(cfg).start()
        try:
            w = Wallet(str(tmp_path / "w2"))
            idx = w.new_card(rng)
            with Client("127.0.0.1", handle.port) as client:
                for _ in range(5):
                    w.punch(client, idx, rng)
                w.redeem(client, idx)
            # and a connection that sends nothing until its deadline
            monkeypatch.setattr(service, "FRAME_DEADLINE_S", 0.2)
            with _connect(handle) as idle:
                assert _wait_for_close(idle) < 5
        finally:
            handle.shutdown()
    blob = "\n".join(r.getMessage() for r in caplog.records)
    assert "stat connections=2" in blob and "stat connections_timed_out=1" in blob
    assert "recovered snapshot_entries=0 log_records=0 torn_bytes=0 in " in blob
    assert "connection timed out" in blob
    assert not re.search(r"[0-9a-f]{64}", blob)


@pytest.mark.parametrize("scheme,backend", [("main", "toy"), ("mergeable", "toy-pairing")])
def test_listening_line_names_the_group(tmp_path, caplog, scheme, backend):
    """An operator sees from the log alone that a server runs on a test
    group."""
    cfg = Config(
        state_dir=str(tmp_path / "state"), listen_port=0, scheme=scheme,
        group="toy", pairing="toy-pairing", fsync=False,
    )
    with caplog.at_level(logging.INFO, logger="punchcard.server"):
        ServerHandle(cfg).start().shutdown()
    [line] = [r.getMessage() for r in caplog.records if "listening on" in r.getMessage()]
    assert re.search(r"listening on (\S+):(\d+)", line)
    assert f"scheme={scheme} backend={backend}" in line


@pytest.mark.parametrize(
    "scheme,kernels", [("main", {"sodium", "python"}), ("mergeable", {"gmpy2", "libgmp", "int"})]
)
def test_listening_line_names_the_kernel(tmp_path, caplog, scheme, kernels):
    """The production groups name the arithmetic they run on: libsodium or
    Python for ristretto255, and gmpy2, libgmp or Python ints for the Fq
    exponentiations and inversions of BLS12-381."""
    cfg = Config(state_dir=str(tmp_path / "state"), listen_port=0, scheme=scheme, fsync=False)
    with caplog.at_level(logging.INFO, logger="punchcard.server"):
        handle = ServerHandle(cfg).start()
        kernel = handle.service.scheme.params.kernel
        handle.shutdown()
    [line] = [r.getMessage() for r in caplog.records if "listening on" in r.getMessage()]
    assert kernel in kernels
    assert line.endswith(f" kernel={kernel}")


# --- connection pool, deadline and cap --------------------------------------------


def _toy_server(tmp_path) -> ServerHandle:
    cfg = Config(
        state_dir=str(tmp_path / "state"), listen_port=0, group="toy",
        accepted_counts=(2,), fsync=False,
    )
    return ServerHandle(cfg).start()


def _connect(handle) -> socket.socket:
    return socket.create_connection(("127.0.0.1", handle.port), timeout=10)


def _wait_for_close(sock) -> float:
    """Seconds until the server closes `sock`, which must get no reply."""
    t0 = time.monotonic()
    try:
        assert sock.recv(64) == b""
    except ConnectionResetError:
        pass
    return time.monotonic() - t0


def _wallet_session(handle, tmp_path, rng) -> None:
    w = Wallet(str(tmp_path / "w"), group_name="toy")
    idx = w.new_card(rng)
    with Client("127.0.0.1", handle.port) as client:
        w.punch(client, idx, rng)
        w.punch(client, idx, rng)
        assert w.redeem(client, idx) is RedeemStatus.ACCEPT


def _workers():
    return [t for t in threading.enumerate() if t.name.startswith("punchcard-conn")]


def test_handler_crash_keeps_the_worker(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(service, "MAX_WORKERS", 2)
    rng = random.Random(180)
    handle = _toy_server(tmp_path)
    crashes = []

    def crash(point):
        if point == "service.handle" and len(crashes) < 5:
            crashes.append(point)
            raise FaultInjected(point, len(crashes))

    try:
        install_hook(crash)
        for _ in range(5):  # more crashes than workers
            with Client("127.0.0.1", handle.port) as client:
                with pytest.raises((EOFError, OSError)):
                    client.fetch_pk()
        install_hook(None)
        _wallet_session(handle, tmp_path, rng)
        assert 1 <= len(_workers()) <= 2
    finally:
        install_hook(None)
        handle.shutdown()
    assert len(crashes) == 5
    crashed = [r for r in caplog.records if "handler crashed" in r.getMessage()]
    assert len(crashed) == 5
    assert _workers() == []


def test_dribbled_frame_is_cut_off_at_its_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "FRAME_DEADLINE_S", 0.4)
    handle = _toy_server(tmp_path)
    try:
        with _connect(handle) as sock:
            # a whole PK_REQ, one byte every 0.2 s: complete only after 0.8 s
            for byte in wire.pack_frame(wire.PK_REQ, b""):
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    break
                time.sleep(0.2)
            _wait_for_close(sock)
        assert handle.service.stats.snapshot()["connections_timed_out"] == 1
    finally:
        handle.shutdown()


def test_idle_connection_closed_at_its_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "FRAME_DEADLINE_S", 0.5)
    handle = _toy_server(tmp_path)
    try:
        with _connect(handle) as sock:
            wire.send_frame(sock, wire.PK_REQ, b"")
            assert wire.recv_frame(sock)[0] == wire.PK_RESP
            # the next frame was due within 0.5 s of that reply
            assert 0.4 < _wait_for_close(sock) < 3
        assert handle.service.stats.snapshot()["connections_timed_out"] == 1
    finally:
        handle.shutdown()


def test_a_stop_wakes_a_worker_waiting_on_a_client(tmp_path, monkeypatch):
    """A clean stop shuts down each open connection, so a worker blocked
    on a half-sent header returns at once, not at its frame deadline."""
    monkeypatch.setattr(service, "FRAME_DEADLINE_S", 5.0)
    handle = _toy_server(tmp_path)
    with _connect(handle) as sock:
        try:
            sock.sendall(wire.pack_frame(wire.PK_REQ, b"")[:2])
            deadline = time.monotonic() + 5
            while not handle.accepted and time.monotonic() < deadline:
                time.sleep(0.01)  # until the server holds the connection
        finally:
            t0 = time.monotonic()
            handle.shutdown()
        assert time.monotonic() - t0 < 1
        assert sock.recv(64) == b""


@pytest.mark.parametrize("workers", [service.MAX_WORKERS, 4])
def test_stalled_connections_do_not_block_a_fresh_client(tmp_path, monkeypatch, workers):
    """24 peers that stall mid-header. With more workers than stalls the
    fresh client is served at once; with 4, once the stalled connections
    reach their deadline, which runs from accept, not from when a worker
    picks a connection up (that would take 24 / 4 deadlines)."""
    monkeypatch.setattr(service, "MAX_WORKERS", workers)
    monkeypatch.setattr(service, "FRAME_DEADLINE_S", 1.0)
    rng = random.Random(181)
    handle = _toy_server(tmp_path)
    stalled = []
    try:
        for _ in range(24):
            sock = _connect(handle)
            sock.sendall(b"\x01\x00")
            stalled.append(sock)
        t0 = time.monotonic()
        _wallet_session(handle, tmp_path, rng)
        waited = time.monotonic() - t0
        if workers > 24:
            assert waited < 0.9
        else:
            assert waited < 3
        assert len(_workers()) <= workers
    finally:
        for sock in stalled:
            sock.close()
        handle.shutdown()


def test_connections_over_the_cap_are_closed_at_once(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "MAX_CONNS", 2)
    handle = _toy_server(tmp_path)
    held = [Client("127.0.0.1", handle.port) for _ in range(2)]
    try:
        for client in held:  # both accepted and open, now idle
            client.fetch_pk()
        with _connect(handle) as extra:
            assert _wait_for_close(extra) < 3
        held.pop().close()
        for _ in range(100):  # until the server has seen that close
            try:
                with Client("127.0.0.1", handle.port) as client:
                    client.fetch_pk()
                break
            except (EOFError, OSError):
                time.sleep(0.02)
        else:
            pytest.fail("no connection served after one closed")
        stats = handle.service.stats.snapshot()
        assert stats["connections"] == 3 and stats["connections_refused"] >= 1
    finally:
        for client in held:
            client.close()
        handle.shutdown()


def test_concurrent_clients_leave_no_open_connection(tmp_path):
    """8 client threads, 20 fresh connections each, with a short switch
    interval: every connection is counted once and, once all are closed,
    none is left registered as open (the cap counts those)."""
    handle = _toy_server(tmp_path)
    errors = []

    def client_thread():
        try:
            for _ in range(20):
                with Client("127.0.0.1", handle.port) as client:
                    client.fetch_pk()
        except Exception as e:  # reported below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client_thread) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and errors == []
        for _ in range(250):  # until the workers have seen every close
            if not handle.accepted:
                break
            time.sleep(0.02)
        assert handle.accepted == {}
        stats = handle.service.stats.snapshot()
        assert stats["connections"] == 160 and stats["connections_refused"] == 0
    finally:
        sys.setswitchinterval(old)
        handle.shutdown()


def _queued(handle) -> int:
    return handle.service.stats.snapshot()["connections_queued"]


def _wait_until(check, seconds: float = 5) -> None:
    deadline = time.monotonic() + seconds
    while not check():
        if time.monotonic() > deadline:
            pytest.fail("timed out waiting for the server")
        time.sleep(0.005)


def _pk_sessions(handle, n: int) -> None:
    """n sessions, each opened once the server has seen the last one
    close: a client that reconnects at once can find every worker still
    busy with its previous connection, and that one is queued rightly."""
    for _ in range(n):
        with Client("127.0.0.1", handle.port) as client:
            client.fetch_pk()
        _wait_until(lambda: not handle.accepted)


def _overflow_episode(handle) -> None:
    """With MAX_WORKERS = 2: two idle clients hold both workers, so a third
    client's connection is queued. Closing one holder must get the third
    its PK_RESP within 0.5 s, with no further connection arriving."""
    holders = [Client("127.0.0.1", handle.port) for _ in range(2)]
    try:
        for client in holders:
            client.fetch_pk()  # each now held by a worker, idle in recv
        with _connect(handle) as third:
            wire.send_frame(third, wire.PK_REQ, b"")
            _wait_until(lambda: _queued(handle) == 1)
            holders.pop().close()
            t0 = time.monotonic()
            assert wire.recv_frame(third) == (wire.PK_RESP, handle.service.pk_bytes)
            assert time.monotonic() - t0 < 0.5
    finally:
        for client in holders:
            client.close()
    _wait_until(lambda: not handle.accepted)  # every worker has seen its close
    assert len(_workers()) == 2


def test_sequential_sessions_queue_no_connection(tmp_path):
    """On an idle server the worker the kernel wakes in accept() serves the
    connection itself: none goes through the overflow queue."""
    handle = _toy_server(tmp_path)
    try:
        _pk_sessions(handle, 50)
        stats = handle.service.stats.snapshot()
        assert stats["connections"] == 50 and stats["connections_queued"] == 0
    finally:
        handle.shutdown()


def test_a_queued_connection_is_served_as_soon_as_a_worker_frees(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "MAX_WORKERS", 2)
    handle = _toy_server(tmp_path)
    try:
        _overflow_episode(handle)
        assert _queued(handle) >= 1
    finally:
        handle.shutdown()


def test_workers_accept_again_after_an_overflow(tmp_path, monkeypatch):
    """Once the overflow is over, a free worker takes accepting back from
    the accept thread, so later connections are not queued."""
    monkeypatch.setattr(service, "MAX_WORKERS", 2)
    handle = _toy_server(tmp_path)
    try:
        _overflow_episode(handle)
        queued = _queued(handle)
        _pk_sessions(handle, 20)
        assert _queued(handle) == queued
        assert handle.service.stats.snapshot()["connections"] == 23
    finally:
        handle.shutdown()


def test_concurrent_clients_through_the_overflow_queue(tmp_path, monkeypatch):
    """8 client threads, 20 fresh connections each, on 2 workers with a
    short switch interval, so connections keep going through the queue
    and accepting keeps changing hands: every connection is served and
    counted once, and none is left open or stranded in the queue."""
    monkeypatch.setattr(service, "MAX_WORKERS", 2)
    handle = _toy_server(tmp_path)
    errors = []

    def client_thread():
        try:
            for _ in range(20):
                with Client("127.0.0.1", handle.port) as client:
                    client.fetch_pk()
        except Exception as e:  # reported below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client_thread) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and errors == []
        _wait_until(lambda: not handle.accepted)
        stats = handle.service.stats.snapshot()
        assert stats["connections"] == 160 and stats["connections_refused"] == 0
        assert stats["connections_queued"] > 0
        assert len(_workers()) == 2
    finally:
        sys.setswitchinterval(old)
        handle.shutdown()


def test_a_burst_of_16_connections_is_answered_within_half_a_second(tmp_path):
    """16 clients connect at once, faster than the workers accept: the
    listen backlog holds every connection, so none waits for a SYN
    retransmit (1 s) and each gets its PK_RESP within 0.5 s."""
    handle = _toy_server(tmp_path)
    socks = []
    try:
        t0 = time.monotonic()
        for _ in range(16):
            socks.append(socket.socket())
            socks[-1].setblocking(False)
            socks[-1].connect_ex(("127.0.0.1", handle.port))
        for sock in socks:
            sock.settimeout(10)  # a send waits for the connect to finish
            wire.send_frame(sock, wire.PK_REQ, b"")
        for sock in socks:
            assert wire.recv_frame(sock) == (wire.PK_RESP, handle.service.pk_bytes)
        took = time.monotonic() - t0
        assert took < 0.5, f"{took:.2f} s"
    finally:
        for sock in socks:
            sock.close()
        handle.shutdown()


def test_a_stop_wakes_every_worker_idle_in_accept(tmp_path, caplog):
    """After 8 concurrent sessions, several workers block in accept(). A
    stop wakes them all by shutting the listener down: it returns within
    1 s, leaves no worker thread, and the port refuses connections."""
    handle = _toy_server(tmp_path)
    port = handle.port
    clients = [Client("127.0.0.1", port) for _ in range(8)]
    try:
        for client in clients:
            client.fetch_pk()
    finally:
        for client in clients:
            client.close()
    _wait_until(lambda: not handle.accepted)
    assert len(_workers()) == 9  # the 8 that served, and the idle one
    t0 = time.monotonic()
    with caplog.at_level(logging.INFO, logger="punchcard.server"):
        handle.shutdown()
    assert time.monotonic() - t0 < 1
    assert _workers() == []
    assert "stat connections_queued=0" in caplog.text
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_sigint_stops_server_with_an_idle_client(tmp_path):
    conf = tmp_path / "server.conf"
    conf.write_text(f"state_dir = {tmp_path / 'srv'}\nlisten_port = 0\ngroup = toy\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys; from punchcard.cli import main; "
        f"sys.exit(main(['server', 'run', '--config', {str(conf)!r}]))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        for line in proc.stderr:
            m = re.search(r"listening on \S+:(\d+)", line)
            if m:
                break
        else:
            pytest.fail("server did not start")
        with Client("127.0.0.1", int(m.group(1))) as client:
            client.fetch_pk()  # then idle, its worker blocked in recv
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
            stopped = time.monotonic() - t0
        assert stopped < 2
        assert "stat connections=1" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_one_process_owns_a_state_dir(tmp_path):
    """While a server runs on a state dir, a second server and a purge each
    exit 1 and leave the store as it was; two writers could each accept
    the same card. Once the server stops, purge works."""
    state = tmp_path / "srv"
    state.mkdir()
    db = RedeemDb(str(state / "redeemed.db"))
    db.check_and_insert(ext.make_expiring_secret(date(2020, 1, 1)))
    db.check_and_insert(ext.make_expiring_secret(date(2099, 1, 1)))
    db.close()
    conf = tmp_path / "server.conf"
    conf.write_text(
        f"state_dir = {state}\nlisten_port = 0\ngroup = toy\nexpiry_check = on\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def cli(*argv):
        code = f"import sys; from punchcard.cli import main; sys.exit(main({list(argv)!r}))"
        return [sys.executable, "-c", code]

    proc = subprocess.Popen(
        cli("server", "run", "--config", str(conf)), env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        for line in proc.stderr:
            if "listening on" in line:
                break
        else:
            pytest.fail("server did not start")
        before = {p.name: p.read_bytes() for p in state.iterdir()}
        for command in ("run", "purge"):
            other = subprocess.run(
                cli("server", command, "--config", str(conf)), env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert other.returncode == 1, other.stderr
            assert "error:" in other.stderr and "in use" in other.stderr
        assert {p.name: p.read_bytes() for p in state.iterdir()} == before
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    purge = subprocess.run(
        cli("server", "purge", "--config", str(conf)), env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert purge.returncode == 0 and "purged 1 expired" in purge.stdout


def test_a_second_start_meets_the_store_lock_before_the_key(tmp_path):
    """A second server on the same state dir, started while the first is
    between writing server.pk and server.key, gets DbBusy from the store's
    lock and changes nothing there; the first start's key stands."""
    state = tmp_path / "state"
    cfg = Config(state_dir=str(state), listen_port=0, group="toy")
    second = []

    def listing():
        return {p.name: p.read_bytes() for p in state.iterdir()}

    def start_another(point):
        if point == "keystore.key.replace":
            install_hook(None)
            before = listing()
            try:
                ServerHandle(cfg).shutdown()
            except Exception as e:
                second.append(type(e))
            second.append(listing() == before)

    install_hook(start_another)
    try:
        handle = ServerHandle(cfg)
    finally:
        install_hook(None)
    handle.shutdown()
    assert second == [DbBusy, True]
    keys = KeyStore(str(state))
    with open(keys.key_path) as f:
        assert int(f.read(), 16) == handle.service.sk
    with open(keys.pk_path) as f:
        assert f.read() == handle.service.pk_bytes.hex() + "\n"


def test_a_refused_address_leaves_state_dir_untouched(tmp_path):
    state = tmp_path / "state"
    with socket.create_server(("127.0.0.1", 0)) as taken:
        cfg = Config(state_dir=str(state), listen_port=taken.getsockname()[1], group="toy")
        assert run_server(cfg) == EXIT_BIND
    assert not state.exists()


def test_exit_codes(tmp_path):
    # bind failure: the port is already taken
    cfg = Config(state_dir=str(tmp_path / "s1"), listen_port=0, group="toy")
    handle = ServerHandle(cfg).start()
    try:
        taken = Config(
            state_dir=str(tmp_path / "s2"), listen_port=handle.port, group="toy"
        )
        assert run_server(taken) == EXIT_BIND
    finally:
        handle.shutdown()
    # keystore failure: pk file does not match the key
    state = tmp_path / "s3"
    cfg3 = Config(state_dir=str(state), listen_port=0, group="toy")
    svc = PunchcardService(cfg3, db=RedeemDb())
    store = KeyStore(str(state))
    g = get_group("toy")
    skewed = g.mul(svc.pk, g.generator())  # valid element, wrong key
    with open(store.pk_path, "w") as f:
        f.write(g.encode_element(skewed).hex() + "\n")
    assert run_server(cfg3) == EXIT_KEYSTORE


def test_main_scheme_never_imports_bls(tmp_path):
    """A main-scheme server and wallet leave BLS12-381 unloaded, which keeps
    their start-up time and memory as they are."""
    import subprocess
    import sys

    code = f"""
import sys
from punchcard.db import RedeemDb
from punchcard.service import PunchcardService, load_config
from punchcard.wallet import Wallet
cfg = load_config(env={{"PUNCHCARD_STATE_DIR": {str(tmp_path / "state")!r}}})
PunchcardService(cfg, db=RedeemDb())
Wallet({str(tmp_path / "w")!r}).new_card()
Wallet({str(tmp_path / "w")!r}, scheme=None)
sys.exit(any(m.startswith("punchcard.groups.bls") for m in sys.modules))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_package_root_loads_no_submodule():
    """`import punchcard` re-exports nothing, so it loads no submodule;
    each name has one import path, its own module."""
    code = """
import sys
import punchcard
sys.exit(any(m.startswith("punchcard.") for m in sys.modules))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_attacks_bench_and_wallet_unloaded():
    """`punchcard server run` loads only what a server needs."""
    import subprocess
    import sys

    code = """
import sys
import punchcard.cli
sys.exit(any(m in sys.modules for m in
             ("punchcard.attacks", "punchcard.bench", "punchcard.wallet")))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
