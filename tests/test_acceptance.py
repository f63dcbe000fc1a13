"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS line with the
measured numbers so a run of ``pytest -rA`` doubles as the sign-off sheet.
These re-measure everything from live objects; nothing is hard-coded from
the module tests.
"""

import gc
import itertools
import random
import time
from datetime import date

import pytest

from punchcard import attacks, bench, core, extensions as ext, mergeable
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import BadExpiry, InvalidEncoding, NoSuchRedemption, ProofRejected
from punchcard.faults import FaultInjected, FaultPlan
from punchcard.groups import get_group, get_pairing
from punchcard.schemes import get_scheme
from punchcard.service import Config, PunchcardService
from punchcard.wallet import Wallet


def test_criterion_01_main_wire_sizes():
    group = get_group("ristretto255")
    rng = random.Random(201)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)  # client-local: no message at all
    resp = core.server_punch(group, sk, pk, card, rng)
    req = core.client_redeem(group, secret, card)
    sizes = {
        "pk": len(group.encode_element(pk)),
        "issue": 0,
        "punch_request": len(group.encode_element(card)),
        "punch_response": len(resp.to_bytes(group)),
        "redeem_request": len(req.to_bytes(group)),
    }
    assert sizes == {
        "pk": 32,
        "issue": 0,
        "punch_request": 32,
        "punch_response": 128,
        "redeem_request": 64,
    }
    print(f"CRITERION 1 PASS: main wire sizes {sizes}")


def test_criterion_02_mergeable_wire_sizes():
    pairing = get_pairing("bls12-381")
    rng = random.Random(202)
    sk, pk = mergeable.server_setup(pairing, rng)
    secret, card = mergeable.issue(pairing, rng)
    resp = mergeable.server_punch(pairing, sk, pk, card, rng)
    sb, cb = mergeable.issue(pairing, rng)
    req = mergeable.client_merge_redeem(pairing, secret, card, sb, cb)
    sizes = {
        "pk": len(pk.to_bytes(pairing)),
        "issue": 0,
        "punch_request": len(card.to_bytes(pairing)),
        "punch_response": len(resp.to_bytes(pairing)),
        "merge_redeem": len(req.to_bytes(pairing)),
    }
    assert sizes == {
        "pk": 144,
        "issue": 0,
        "punch_request": 144,
        "punch_response": 496,
        "merge_redeem": 640,
    }
    print(f"CRITERION 2 PASS: mergeable wire sizes {sizes}")


def test_criterion_03_thousand_full_cycles():
    group = get_group("ristretto255")
    rng = random.Random(203)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    cycles, punches = 1000, 10
    accepted = duplicates_rejected = 0
    for _ in range(cycles):
        secret, card = core.issue(group, rng)
        for _ in range(punches):
            resp = core.server_punch(group, sk, pk, card, rng)
            secret, card = core.client_punch(group, pk, secret, card, resp, rng)
        req = core.client_redeem(group, secret, card)
        raw = req.to_bytes(group)
        if core.server_redeem(group, sk, req, punches, db) is RedeemStatus.ACCEPT:
            accepted += 1
        replay = core.RedeemRequest.from_bytes(group, raw)
        if core.server_redeem(group, sk, replay, punches, db) is RedeemStatus.DOUBLE_SPEND:
            duplicates_rejected += 1
    assert accepted == cycles and duplicates_rejected == cycles
    print(
        f"CRITERION 3 PASS: {accepted}/{cycles} cycles of {punches} punches "
        f"accepted, {duplicates_rejected}/{cycles} duplicates rejected"
    )


def test_criterion_04_toy_oracle_equivalence():
    toy = get_group("toy")
    rng = random.Random(204)
    checked = 0
    # single-group scheme: state after every operation, punch counts 0..8
    for _ in range(5):
        sk, pk = core.server_setup(toy, rng)
        secret, card = core.issue(toy, rng)
        base = toy.dlog(core.card_base(toy, secret.u))
        for k in range(9):
            want = base * pow(sk, k, toy.order) % toy.order * secret.mask % toy.order
            assert toy.dlog(card) == want
            checked += 1
            if k < 8:
                resp = core.server_punch(toy, sk, pk, card, rng)
                secret, card = core.client_punch(toy, pk, secret, card, resp, rng)
        req = core.client_redeem(toy, secret, card)
        unmasked = toy.decode_element(req.card)  # a redemption carries bytes
        assert toy.dlog(unmasked) == base * pow(sk, 8, toy.order) % toy.order
        checked += 1

    # dual-group scheme: per-operation side states plus every merge split of 6
    pairing = get_pairing("toy-pairing")
    q = pairing.order
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    for a in range(7):
        b = 6 - a
        cards = []
        for punches in (a, b):
            secret, card = mergeable.issue(pairing, rng)
            x0 = pairing.g0.dlog(
                pairing.g0.hash_to_group(mergeable.TAG_CARD_HASH_G0, secret.u)
            )
            x1 = pairing.g1.dlog(
                pairing.g1.hash_to_group(mergeable.TAG_CARD_HASH_G1, secret.u)
            )
            for k in range(punches + 1):
                s = pow(sk, k, q)
                assert pairing.g0.dlog(card.side0) == x0 * s % q * secret.mask0 % q
                assert pairing.g1.dlog(card.side1) == x1 * s % q * secret.mask1 % q
                checked += 1
                if k < punches:
                    resp = mergeable.server_punch(pairing, sk, pk, card, rng)
                    secret, card = mergeable.client_punch(
                        pairing, pk, secret, card, resp, rng
                    )
            cards.append((secret, card, x0, x1))
        (sa, ca, xa0, _), (sb, cb, _, xb1) = cards
        req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
        value = pairing.gt.decode_element(req.value)
        assert pairing.gt.dlog(value) == xa0 * pow(sk, 6, q) % q * xb1 % q
        checked += 1
        assert mergeable.server_redeem(pairing, sk, req, 6, db) is RedeemStatus.ACCEPT
    print(
        f"CRITERION 4 PASS: {checked} card states matched the exponent oracle "
        f"(single counts 0..8, every merge split of 6)"
    )


def test_criterion_05_adversarial_suite():
    report = attacks.run_all(
        group_name="ristretto255",
        seed=205,
        replay_trials=200,
        key_switch_trials=1000,
        eavesdropper_guesses=10000,
    )
    assert report["all_defeated"]
    for r in report["scenarios"]:
        assert r["rejected"] == r["trials"], r
        if "value_conserved" in r:
            assert r["value_conserved"]

    # over-claiming punches is rejected for every deficit 1..5 (oracle group)
    toy = get_group("toy")
    rng = random.Random(206)
    db = RedeemDb()
    for t in range(4):
        sk, pk = core.server_setup(toy, rng)
        secret, card = core.issue(toy, rng)
        for _ in range(t):
            resp = core.server_punch(toy, sk, pk, card, rng)
            secret, card = core.client_punch(toy, pk, secret, card, resp, rng)
        req = core.client_redeem(toy, secret, card)
        for n in range(t + 1, t + 6):
            assert core.server_redeem(toy, sk, req, n, db) is RedeemStatus.BAD_CARD
    summary = {r["scenario"]: f"{r['rejected']}/{r['trials']}" for r in report["scenarios"]}
    print(f"CRITERION 5 PASS: all attacks defeated, rejections {summary}, value conserved")


def test_criterion_06_proof_robustness():
    group = get_group("ristretto255")
    rng = random.Random(207)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    resp_bytes = core.server_punch(group, sk, pk, card, rng).to_bytes(group)
    assert len(resp_bytes) == 128
    corruptions = survived = 0
    for pos in range(len(resp_bytes)):
        for delta in range(1, 256):
            corrupted = bytearray(resp_bytes)
            corrupted[pos] ^= delta
            corruptions += 1
            try:
                bad = core.PunchResponse.from_bytes(group, bytes(corrupted))
                core.client_punch(group, pk, secret, card, bad, rng)
                survived += 1
            except (InvalidEncoding, ProofRejected):
                pass
    assert survived == 0

    wrong_key_rejected = 0
    for _ in range(1000):
        evil = group.random_scalar(rng)
        while evil == sk:
            evil = group.random_scalar(rng)
        _, evil_pk = core.server_setup(group, sk=evil)
        resp = core.server_punch(group, evil, evil_pk, card, rng)
        try:
            core.client_punch(group, pk, secret, card, resp, rng)
        except ProofRejected:
            wrong_key_rejected += 1
    assert wrong_key_rejected == 1000
    print(
        f"CRITERION 6 PASS: {corruptions}/{corruptions} single-byte corruptions "
        f"rejected, {wrong_key_rejected}/1000 wrong-key punches rejected"
    )


def test_criterion_07_verify_scaling():
    group = get_group("ristretto255")
    rng = random.Random(208)
    sk, _ = core.server_setup(group, rng)
    punches = 10

    def synth():
        u = rng.randbytes(32)
        return core.RedeemRequest(u=u, card=core.expected_card(group, sk, u, punches))

    def verify_against(db):
        def op(req):
            return core.verify_card(group, sk, req, punches) and req.u not in db

        return op

    empty = RedeemDb()
    big = RedeemDb()
    big.preload(bench._random_secrets(10**6))
    assert len(big) == 10**6

    # 300 operations per side, the sides alternating every operation, so
    # that a slow stretch of the host lands on both sides alike; as timeit
    # does, the collector runs before timing and not during it, so that a
    # collection of what earlier tests left is not billed to one side
    samples = {"empty": [], "big": []}
    sides = [(side, verify_against(db)) for side, db in (("empty", empty), ("big", big))]
    gc.collect()
    gc.disable()
    try:
        for _ in range(300):
            for side, op in sides:
                req = synth()
                t0 = time.perf_counter()
                op(req)
                samples[side].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    mean_ms = {side: sum(ts) / len(ts) * 1e3 for side, ts in samples.items()}
    assert len(samples["empty"]) == len(samples["big"]) == 300

    ratio = mean_ms["big"] / mean_ms["empty"]
    assert ratio <= 1.5
    print(
        f"CRITERION 7 PASS: server_verify {mean_ms['empty']:.4f} ms empty vs "
        f"{mean_ms['big']:.4f} ms at 10^6 entries (ratio {ratio:.3f} <= 1.5)"
    )


def test_criterion_08_performance_smoke():
    result = bench.run(get_scheme("main", group_name="ristretto255"), trials=200)
    rows = {row["op"]: row["mean_ms"] for row in result["rows"]}
    round_trip = rows["punch_round_trip"]
    verify = rows["server_verify"]
    assert round_trip < 10.0
    assert verify < 1.0
    print(
        f"CRITERION 8 PASS: punch round trip {round_trip:.3f} ms (< 10 ms), "
        f"server_verify {verify:.3f} ms (< 1 ms)"
    )


class _InProcessClient:
    """Wallet-compatible client that calls the service dispatch directly."""

    def __init__(self, svc):
        self._svc = svc

    def fetch_pk(self):
        return self._svc.pk_bytes

    def call(self, msg_type, body):
        return self._svc.handle(msg_type, body)


def _crash_cycle(wallet, client, target=8):
    """Punch card 0 up to `target`, then redeem it."""
    while wallet.cards and wallet.cards[0].count < target:
        wallet.punch(client, 0)
    if wallet.cards:
        return wallet.redeem(client, 0)
    return None


def test_criterion_09_crash_safety(tmp_path):
    target = 8

    def fresh(trial):
        state = tmp_path / f"t{trial}"
        cfg = Config(state_dir=str(state), accepted_counts=(target,))
        svc = PunchcardService(cfg)
        w = Wallet(str(state / "wallet"))
        w.new_card()
        return cfg, svc, w

    # recording run: how many injection points one full cycle crosses
    cfg, svc, w = fresh("rec")
    with FaultPlan(fail_at=None) as plan:
        status = _crash_cycle(w, _InProcessClient(svc), target)
    svc.db.close()
    assert status is RedeemStatus.ACCEPT
    total = len(plan.hits)
    assert total >= 50, f"only {total} dynamic injection points"

    consistent = 0
    for k in range(50):
        cfg, svc, w = fresh(k)
        client = _InProcessClient(svc)
        with FaultPlan(fail_at=k):
            with pytest.raises(FaultInjected):
                _crash_cycle(w, client, target)
        svc.db.close()
        # recovery: reopen both stores from disk and finish the job
        svc2 = PunchcardService(cfg)
        w2 = Wallet(w.path)  # must parse cleanly or the wallet is corrupt
        status = _crash_cycle(w2, _InProcessClient(svc2), target)
        assert status in (RedeemStatus.ACCEPT, RedeemStatus.DOUBLE_SPEND)
        assert len(svc2.db) == 1  # exactly one accepted redemption, never zero or two
        if status is RedeemStatus.ACCEPT:
            assert w2.cards == []
        else:
            assert len(w2.cards) == 1  # kept for out-of-band resolution
        svc2.db.close()
        consistent += 1
    print(
        f"CRITERION 9 PASS: {consistent}/50 injected crashes across "
        f"{total} live injection points recovered to a consistent state"
    )


def test_criterion_10_extension_properties():
    toy = get_group("toy")
    rng = random.Random(210)

    # multi-punch additivity: every composition of chunk sizes summing <= 8
    sk, pk = core.server_setup(toy, rng)
    compositions = 0
    for total in range(1, 9):
        for cuts in itertools.product([False, True], repeat=total - 1):
            chunks, size = [], 1
            for cut in cuts:
                if cut:
                    chunks.append(size)
                    size = 1
                else:
                    size += 1
            chunks.append(size)
            secret, card = core.issue(toy, rng)
            base = toy.dlog(core.card_base(toy, secret.u))
            for t in chunks:
                resp = ext.server_multi_punch(toy, sk, pk, card, t, rng=rng)
                secret, card = ext.client_multi_punch(
                    toy, pk, secret, card, t, resp, rng
                )
            want = base * pow(sk, total, toy.order) % toy.order * secret.mask % toy.order
            assert toy.dlog(card) == want
            compositions += 1
    assert compositions == 255

    # expiring cards: purge-then-replay is still rejected
    svc_sk, svc_pk = core.server_setup(toy, rng)
    db = RedeemDb()
    issued_day = date(2026, 2, 10)
    boundary = ext.quarter_boundary_on_or_after(issued_day)  # 2026-04-01
    secret, card = ext.issue_expiring(toy, boundary, rng)
    resp = core.server_punch(toy, svc_sk, svc_pk, card, rng)
    secret, card = core.client_punch(toy, svc_pk, secret, card, resp, rng)
    req = core.client_redeem(toy, secret, card)
    raw = req.to_bytes(toy)
    ext.check_expiry(req.u, issued_day)  # gate passes while valid
    assert core.server_redeem(toy, svc_sk, req, 1, db) is RedeemStatus.ACCEPT
    later = date(2026, 8, 22)
    assert ext.purge_expired(db, later) == 1
    assert len(db) == 0
    replay = core.RedeemRequest.from_bytes(toy, raw)
    with pytest.raises(BadExpiry):
        ext.check_expiry(replay.u, later)  # the gate rejects before the store

    # claim secrets: the true preimage is accepted, forgeries never
    rng2 = random.Random(211)
    claim_db = RedeemDb()
    rs, u = ext.make_claim_secret(rng2)
    claim_db.add_claim(u)
    forgeries_rejected = 0
    for _ in range(10**4):
        try:
            ext.claim(claim_db, rng2.randbytes(32))
        except NoSuchRedemption:
            forgeries_rejected += 1
    assert forgeries_rejected == 10**4
    assert ext.claim(claim_db, rs) == u
    print(
        f"CRITERION 10 PASS: {compositions} multi-punch compositions additive, "
        f"purged replay rejected, true claim accepted with "
        f"{forgeries_rejected}/10000 forgeries rejected"
    )
