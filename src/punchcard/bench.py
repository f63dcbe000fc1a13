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
from typing import Callable, Dict, List

from .db import RedeemDb

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


def run(scheme, trials: int = MIN_TRIALS, db_size: int = 0) -> Dict:
    """Time the operations of a scheme object (`schemes`) and measure its
    messages."""
    sk, pk = scheme.setup()
    punches = 10
    for g in scheme.groups:
        g.exp_base(1)  # builds any fixed-base table before timing

    def punched():
        secret, card = scheme.issue()
        return pk, secret, card, scheme.server_punch(sk, pk, card)

    def issued_for_redeem():
        return [scheme.issue() for _ in range(scheme.redeem_cards)]

    def accepted_request():
        return scheme.expected_request(sk, punches)

    rows = []
    pairing = scheme.pairing
    if pairing is not None:
        rows.append(
            _time_op(
                "pair",
                lambda: tuple(g.exp_base(g.random_scalar()) for g in scheme.groups),
                lambda pts: pairing.pair(*pts),
                trials,
            )
        )
    for i, g in enumerate(scheme.groups):
        rows.append(_time_op(f"g{i}_exp_base", g.random_scalar, g.exp_base, trials))
        # a fresh element each trial, decoded with its subgroup check: what
        # a server pays per element of every request it reads
        rows.append(
            _time_op(
                f"g{i}_decode",
                lambda g=g: g.encode_element(g.exp_base(g.random_scalar())),
                g.decode_element,
                trials,
            )
        )
    rows += [
        _time_op("issue", lambda: None, lambda _: scheme.issue(), trials),
        _time_op(
            "server_punch",
            lambda: scheme.issue()[1],
            lambda card: scheme.server_punch(sk, pk, card),
            trials,
        ),
        _time_op("client_punch", punched, lambda a: scheme.client_punch(*a), trials),
        _time_op(
            "punch_round_trip",
            scheme.issue,
            lambda a: scheme.client_punch(
                pk, a[0], a[1], scheme.server_punch(sk, pk, a[1])
            ),
            trials,
        ),
        _time_op("client_redeem", issued_for_redeem, scheme.client_redeem, trials),
        _time_op(
            "server_verify",
            accepted_request,
            lambda req: scheme.verify_card(sk, req, punches),
            trials,
        ),
    ]

    db = RedeemDb()
    if db_size:
        db.preload(_random_secrets(db_size))
    rows.append(
        _time_op(
            f"server_redeem(db={len(db)})",
            accepted_request,
            lambda req: scheme.server_redeem(sk, req, punches, db),
            trials,
        )
    )

    cards = issued_for_redeem()
    card = cards[0][1]
    sizes = {
        "public_key": len(scheme.encode_pk(pk)),
        "punch_request": len(scheme.encode_card(card)),
        "punch_response": len(scheme.encode(scheme.server_punch(sk, pk, card))),
        "redeem_request": len(scheme.encode(scheme.client_redeem(cards))),
    }
    return dict(scheme=scheme.name, group=scheme.backend, rows=rows, sizes=sizes)


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
