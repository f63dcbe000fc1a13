"""Adversarial drills against the live code paths.

Three attackers, each run as many independent trials:

* replay: a customer (or someone holding their traffic) re-submits an
  already-accepted redemption, byte for byte and re-randomized.
* key switch: the server punches with a key other than the published one,
  hoping to hand one customer distinguishable cards.
* eavesdropper: a passive observer of punch traffic tries to mint a
  redemption for value they never earned.

Every trial must be rejected by the same verification the production
server runs. On top of the per-trial checks, a value-conservation audit
runs across each scenario: punches accepted by redemption never exceed
punches the server actually performed.
"""

from __future__ import annotations

import json
import random
from typing import Dict

from . import core, dleq
from .core import RedeemStatus
from .db import RedeemDb
from .errors import ProofRejected
from .groups import get_group
from .groups.base import Group


class _Till:
    """Server-side value accounting for one scenario."""

    def __init__(self):
        self.punches_performed = 0
        self.punches_redeemed = 0

    def punch(self, group: Group, sk: int, pk, card, rng) -> core.PunchResponse:
        self.punches_performed += 1
        return core.server_punch(group, sk, pk, card, rng)

    def redeem(self, group: Group, sk: int, req, count: int, db) -> RedeemStatus:
        status = core.server_redeem(group, sk, req, count, db)
        if status is RedeemStatus.ACCEPT:
            self.punches_redeemed += count
        return status

    def conserved(self) -> bool:
        return self.punches_redeemed <= self.punches_performed


def _earn(group: Group, sk: int, pk, till: _Till, n: int, rng):
    secret, card = core.issue(group, rng)
    for _ in range(n):
        resp = till.punch(group, sk, pk, card, rng)
        secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    return secret, card


def replay_attack(
    group: Group, trials: int = 200, punches: int = 3, seed: int = 1
) -> Dict[str, object]:
    rng = random.Random(seed)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    till = _Till()
    rejected = 0
    for _ in range(trials):
        secret, card = _earn(group, sk, pk, till, punches, rng)
        req = core.client_redeem(group, secret, card)
        raw = req.to_bytes(group)
        if till.redeem(group, sk, req, punches, db) is not RedeemStatus.ACCEPT:
            raise RuntimeError("an honest first redemption was refused")
        # byte-identical replay
        again = core.RedeemRequest.from_bytes(group, raw)
        if till.redeem(group, sk, again, punches, db) is not RedeemStatus.ACCEPT:
            rejected += 1
        # same u, re-randomized card value: still the same spent secret
        revalued = group.exp(group.decode_element(req.card), group.random_scalar(rng))
        forged = core.RedeemRequest(u=req.u, card=group.encode_element(revalued))
        if till.redeem(group, sk, forged, punches, db) is not RedeemStatus.ACCEPT:
            rejected += 1
    return {
        "scenario": "replay",
        "trials": trials * 2,
        "rejected": rejected,
        "value_conserved": till.conserved(),
        "defeated": rejected == trials * 2 and till.conserved(),
    }


def simulate_dleq(group: Group, pk, point, image, chal: int, rng=None):
    """An accepting DLEQ transcript (A1, A2, z) for a given challenge,
    without the key: sample z, then set A1 = g^z * pk^-c, A2 = p^z * q^-c.
    For the zero-knowledge tests and the key-switch drill; no protocol
    path calls it."""
    base = group.generator()
    z = group.random_scalar(rng)
    neg_c = (-chal) % group.order
    commit_base = group.mul(group.exp(base, z), group.exp(pk, neg_c))
    commit_point = group.mul(group.exp(point, z), group.exp(image, neg_c))
    return commit_base, commit_point, z


def key_switch_attack(
    group: Group, trials: int = 1000, seed: int = 2
) -> Dict[str, object]:
    """A linking server must either use its published key or get caught.
    Tries a fresh wrong key per trial, plus a simulated transcript (valid
    shape, arbitrary challenge) every few trials."""
    rng = random.Random(seed)
    sk, pk = core.server_setup(group, rng)
    caught = 0
    for i in range(trials):
        secret, card = core.issue(group, rng)
        if i % 5 == 4:
            # forged proof for the honest key, without knowing it
            punched = group.exp(card, group.random_scalar(rng))
            chal = group.random_scalar(rng)
            a1, a2, z = simulate_dleq(group, pk, card, punched, chal, rng)
            proof = dleq.DleqProof(commit_base=a1, commit_point=a2, response=z)
            resp = core.PunchResponse(punched=punched, proof=proof)
        else:
            evil_sk = group.random_scalar(rng)
            while evil_sk == sk:
                evil_sk = group.random_scalar(rng)
            _, evil_pk = core.server_setup(group, sk=evil_sk)
            resp = core.server_punch(group, evil_sk, evil_pk, card, rng)
        try:
            core.client_punch(group, pk, secret, card, resp, rng)
        except ProofRejected:
            caught += 1
    return {
        "scenario": "key_switch",
        "trials": trials,
        "rejected": caught,
        "defeated": caught == trials,
    }


def eavesdropper_attack(
    group: Group, guesses: int = 10000, punches: int = 3, seed: int = 3
) -> Dict[str, object]:
    """The observer keeps every card the victim sent and every punched
    element it got back, then tries to spend. Lacking u (never transmitted
    before redemption) and the mask, all they can do is guess."""
    rng = random.Random(seed)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    till = _Till()

    sent, punched = [], []
    secret, card = core.issue(group, rng)
    for _ in range(punches):
        sent.append(card)
        resp = till.punch(group, sk, pk, card, rng)
        punched.append(resp.punched)
        secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    # victim has not redeemed; the attacker moves first
    seen_elements = sent + punched

    accepted = 0
    for i in range(guesses):
        guess_u = rng.randbytes(core.SECRET_SIZE)
        if i % 3 == 0:
            guess_card = group.exp(
                group.generator(), group.random_scalar(rng)
            )
        elif i % 3 == 1:
            guess_card = seen_elements[i % len(seen_elements)]
        else:
            guess_card = group.exp(
                seen_elements[i % len(seen_elements)], group.random_scalar(rng)
            )
        req = core.RedeemRequest(u=guess_u, card=group.encode_element(guess_card))
        if till.redeem(group, sk, req, punches, db) is RedeemStatus.ACCEPT:
            accepted += 1
    # the victim's own redemption still goes through afterwards
    victim = till.redeem(
        group, sk, core.client_redeem(group, secret, card), punches, db
    )
    return {
        "scenario": "eavesdropper",
        "trials": guesses,
        "rejected": guesses - accepted,
        "victim_unharmed": victim is RedeemStatus.ACCEPT,
        "value_conserved": till.conserved(),
        "defeated": accepted == 0
        and victim is RedeemStatus.ACCEPT
        and till.conserved(),
    }


def run_all(
    group_name: str = "ristretto255",
    seed: int = 7,
    replay_trials: int = 200,
    key_switch_trials: int = 1000,
    eavesdropper_guesses: int = 10000,
) -> Dict[str, object]:
    group = get_group(group_name)
    results = [
        replay_attack(group, trials=replay_trials, seed=seed),
        key_switch_attack(group, trials=key_switch_trials, seed=seed + 1),
        eavesdropper_attack(group, guesses=eavesdropper_guesses, seed=seed + 2),
    ]
    return {
        "group": group_name,
        "scenarios": results,
        "all_defeated": all(r["defeated"] for r in results),
    }


def render_report(report: Dict[str, object]) -> str:
    lines = [f"group: {report['group']}"]
    for r in report["scenarios"]:
        verdict = "DEFEATED" if r["defeated"] else "NOT DEFEATED"
        lines.append(
            f"  {r['scenario']:<14} trials={r['trials']:<6} "
            f"rejected={r['rejected']:<6} {verdict}"
        )
    lines.append(
        "all attacks defeated" if report["all_defeated"] else "ATTACK SUCCEEDED"
    )
    return "\n".join(lines)


def report_to_json(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
