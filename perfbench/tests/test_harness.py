"""Fast checks of the benchmark itself, on the toy backends.

    python3 -m pytest -q perfbench/tests

Each workload runs for a moment against a real server process configured
with ``group = toy`` and ``pairing = toy-pairing`` and a small preload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from punchcard.core import RedeemStatus  # noqa: E402

from perfbench import harness, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SECONDS = 0.5

# the end-to-end metrics each workload prints, by name and unit
COMMON = {"setup_s": "s", "server_rss_mb": "MB", "ops_per_s": "1/s",
          "server_cpu_ms_per_op": "ms", "failed_ratio": "ratio",
          "session_p50_ms": "ms", "session_p90_ms": "ms"}
PER_WORKLOAD = {
    "main-checkout": ["punch_p50_ms", "punch_p99_ms", "multi_punch_p50_ms",
                      "redeem_p50_ms", "redeem_p99_ms", "reject_p50_ms"],
    "main-redeem-rush": ["redeem_p50_ms", "redeem_p99_ms", "reject_p50_ms"],
    "mergeable-merge": ["merge_punch_p50_ms", "merge_punch_p90_ms",
                        "merge_redeem_p50_ms", "merge_redeem_p90_ms", "reject_p50_ms"],
}


def toy(name, **changes):
    return dataclasses.replace(
        WORKLOADS[name], group="toy", pairing="toy-pairing",
        preload=min(WORKLOADS[name].preload, 2000),
        log_tail=min(WORKLOADS[name].log_tail, 200), **changes)


def run_toy(tmp_path, spec, trace=False):
    return harness.run_workload(spec, 7, SECONDS, trace, str(tmp_path / "runs"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_prints_every_e2e_metric(tmp_path, capsys, name):
    result = run_toy(tmp_path, toy(name))
    assert result.correct, (result.failures, result.problems)
    assert result.failed == 0 and result.attempted > 0
    run.print_table(result, trace=False)
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            printed[parts[0]] = parts[2]
    expected = dict(COMMON, **{m: "ms" for m in PER_WORKLOAD[name]})
    assert printed == expected
    line = run.result_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for metric, unit in run.E2E_METRICS:
        assert line["metrics"][metric]["unit"] == unit
        assert line["metrics"][metric]["value"] > 0
    assert not os.path.exists(tmp_path / "runs"), "work directory left behind"


def test_wrong_expected_status_counts_as_failed(tmp_path):
    spec = toy("main-redeem-rush", replay_status=RedeemStatus.ACCEPT)
    result = run_toy(tmp_path, spec)
    assert result.failed > 0
    assert result.e2e["failed_ratio"][0] == result.failed / result.attempted
    assert not result.correct
    assert any("expected ACCEPT" in reason for reason in result.failures)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(tmp_path, name):
    result = run_toy(tmp_path, toy(name), trace=True)
    assert result.correct, (result.failures, result.problems)
    line = run.result_line(result, trace=True)
    names = run.LAYER_METRICS
    assert list(line["metrics"]) == [n for n, _ in names]
    for metric, unit in names:
        entry = line["metrics"][metric]
        assert entry["unit"] == unit and isinstance(entry["value"], (int, float))
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["service.busy_share"] > 0 and m["db.recover_s"] > 0
    assert m["trace.spans_per_op"] > 0
    if name == "main-checkout":
        assert m["core.server_punch.self_ms"] > 0 and m["wallet.save.calls"] > 1
        assert m["service.handle.PK_REQ_ms"] > 0 and m["service.conn_setup_ms"] > 0
    if name == "main-redeem-rush":
        assert m["db.fsync.calls_per_accept"] == 1 and m["extensions.check_expiry.ms"] > 0
        assert m["db.entries"] > 2200
    if name == "mergeable-merge":
        assert m["mergeable.server_redeem.ms"] > 0 and m["wallet.merge_redeem.ms"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main-checkout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
