"""Micro-benchmarks over the real protocol objects.

Timings come from repeated calls on fresh inputs; message sizes come from
serializing actual messages, not from arithmetic on field sizes. Timing
rows refuse to report on fewer than MIN_TRIALS runs so a fluke never turns
into a headline number.
"""

from __future__ import annotations

import csv
import io
import os
import time
from typing import Callable, Dict, List, Optional

from . import core, mergeable
from .db import RedeemDb
from .groups import get_group, get_pairing

MIN_TRIALS = 100


def _time_op(name: str, setup: Callable, op: Callable, trials: int) -> Dict:
    """setup() builds per-trial arguments; op(args) is the timed region."""
    if trials < MIN_TRIALS:
        raise ValueError(f"{name}: {trials} trials < minimum {MIN_TRIALS}")
    samples = []
    for _ in range(trials):
        args = setup()
        t0 = time.perf_counter()
        op(args)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return {
        "op": name,
        "trials": trials,
        "mean_ms": sum(samples) / trials * 1e3,
        "p50_ms": samples[trials // 2] * 1e3,
        "max_ms": samples[-1] * 1e3,
    }


def _random_secrets(n: int) -> List[bytes]:
    blob = os.urandom(32 * n)
    return [blob[i * 32 : (i + 1) * 32] for i in range(n)]


def bench_main(
    group_name: str = "ristretto255", trials: int = MIN_TRIALS, db_size: int = 0
) -> Dict:
    group = get_group(group_name)
    sk, pk = core.server_setup(group)
    punches = 10

    rows = [
        _time_op(
            "issue",
            lambda: None,
            lambda _: core.issue(group),
            trials,
        ),
        _time_op(
            "server_punch",
            lambda: core.issue(group)[1],
            lambda card: core.server_punch(group, sk, pk, card),
            trials,
        ),
        _time_op(
            "client_punch",
            lambda: (lambda s, c: (s, c, core.server_punch(group, sk, pk, c)))(
                *core.issue(group)
            ),
            lambda a: core.client_punch(group, pk, a[0], a[1], a[2]),
            trials,
        ),
        _time_op(
            "punch_round_trip",
            lambda: core.issue(group),
            lambda a: core.client_punch(
                group, pk, a[0], a[1], core.server_punch(group, sk, pk, a[1])
            ),
            trials,
        ),
        _time_op(
            "client_redeem",
            lambda: core.issue(group),
            lambda a: core.client_redeem(group, a[0], a[1]),
            trials,
        ),
        _time_op(
            "server_verify",
            lambda: _synth_main_request(group, sk, punches),
            lambda req: core.verify_card(group, sk, req, punches),
            trials,
        ),
    ]

    db = RedeemDb()
    if db_size:
        db.preload(_random_secrets(db_size))

    rows.append(
        _time_op(
            f"server_redeem(db={len(db)})",
            lambda: _synth_main_request(group, sk, punches),
            lambda req: core.server_redeem(group, sk, req, punches, db),
            trials,
        )
    )

    secret, card = core.issue(group)
    resp = core.server_punch(group, sk, pk, card)
    req = core.client_redeem(group, secret, card)
    sizes = {
        "public_key": len(group.encode_element(pk)),
        "punch_request": len(group.encode_element(card)),
        "punch_response": len(resp.to_bytes(group)),
        "redeem_request": len(req.to_bytes(group)),
    }
    return {"scheme": "main", "group": group_name, "rows": rows, "sizes": sizes}


def _synth_main_request(group, sk: int, count: int) -> core.RedeemRequest:
    """Accept-path request built server-side (skips the client punch loop)."""
    u = os.urandom(32)
    return core.RedeemRequest(u=u, card=core.expected_card(group, sk, u, count))


def bench_mergeable(
    pairing_name: str = "bls12-381", trials: int = MIN_TRIALS
) -> Dict:
    pairing = get_pairing(pairing_name)
    g0, g1 = pairing.g0, pairing.g1
    sk, pk = mergeable.server_setup(pairing)
    punches = 2
    g0.exp_base(1)  # builds the fixed-base tables before any timing
    g1.exp_base(1)

    def earned_pair():
        sa, ca = mergeable.issue(pairing)
        sb, cb = mergeable.issue(pairing)
        for _ in range(punches):
            sa, ca = mergeable.client_punch(
                pairing, pk, sa, ca, mergeable.server_punch(pairing, sk, pk, ca)
            )
        return sa, ca, sb, cb

    rows = [
        _time_op(
            "pair",
            lambda: (g0.exp_base(g0.random_scalar()), g1.exp_base(g1.random_scalar())),
            lambda pts: pairing.pair(*pts),
            trials,
        ),
        _time_op("g0_exp_base", g0.random_scalar, g0.exp_base, trials),
        _time_op("g1_exp_base", g1.random_scalar, g1.exp_base, trials),
        _time_op(
            "issue",
            lambda: None,
            lambda _: mergeable.issue(pairing),
            trials,
        ),
        _time_op(
            "server_punch",
            lambda: mergeable.issue(pairing)[1],
            lambda card: mergeable.server_punch(pairing, sk, pk, card),
            trials,
        ),
        _time_op(
            "punch_round_trip",
            lambda: mergeable.issue(pairing),
            lambda a: mergeable.client_punch(
                pairing, pk, a[0], a[1], mergeable.server_punch(pairing, sk, pk, a[1])
            ),
            trials,
        ),
        _time_op(
            "client_merge_redeem",
            earned_pair,
            lambda a: mergeable.client_merge_redeem(pairing, a[0], a[1], a[2], a[3]),
            trials,
        ),
        _time_op(
            "server_verify",
            lambda: _synth_merge_request(pairing, sk, punches),
            lambda req: mergeable.verify_card(pairing, sk, req, punches),
            trials,
        ),
    ]

    secret, card = mergeable.issue(pairing)
    resp = mergeable.server_punch(pairing, sk, pk, card)
    sb, cb = mergeable.issue(pairing)
    req = mergeable.client_merge_redeem(pairing, secret, card, sb, cb)
    sizes = {
        "public_key": len(pk.to_bytes(pairing)),
        "punch_request": len(card.to_bytes(pairing)),
        "punch_response": len(resp.to_bytes(pairing)),
        "redeem_request": len(req.to_bytes(pairing)),
    }
    return {
        "scheme": "mergeable",
        "group": pairing_name,
        "rows": rows,
        "sizes": sizes,
    }


def _synth_merge_request(pairing, sk: int, count: int):
    """Accept-path request built server-side (no client punch loop)."""
    u_a, u_b = os.urandom(32), os.urandom(32)
    base0, _ = mergeable.card_bases(pairing, u_a)
    _, base1 = mergeable.card_bases(pairing, u_b)
    value = pairing.pair(
        pairing.g0.exp(base0, pow(sk, count, pairing.order)), base1
    )
    return mergeable.MergeRedeemRequest(u_a=u_a, u_b=u_b, value=value)


def render_table(result: Dict) -> str:
    lines = [f"scheme={result['scheme']} group={result['group']}"]
    lines.append(
        f"{'operation':<28}{'trials':>8}{'mean ms':>12}{'p50 ms':>12}{'max ms':>12}"
    )
    for row in result["rows"]:
        lines.append(
            f"{row['op']:<28}{row['trials']:>8}"
            f"{row['mean_ms']:>12.3f}{row['p50_ms']:>12.3f}{row['max_ms']:>12.3f}"
        )
    lines.append("message sizes (bytes):")
    for name, size in result["sizes"].items():
        lines.append(f"  {name:<20}{size:>6}")
    return "\n".join(lines)


def render_csv(result: Dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scheme", "op", "trials", "mean_ms", "p50_ms", "max_ms"])
    for row in result["rows"]:
        writer.writerow(
            [
                result["scheme"],
                row["op"],
                row["trials"],
                f"{row['mean_ms']:.6f}",
                f"{row['p50_ms']:.6f}",
                f"{row['max_ms']:.6f}",
            ]
        )
    for name, size in result["sizes"].items():
        writer.writerow([result["scheme"], f"size:{name}", "", size, "", ""])
    return buf.getvalue()
