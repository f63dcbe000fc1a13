import csv
import io

import pytest

from punchcard import bench
from punchcard.schemes import get_scheme


def test_minimum_trials_enforced():
    with pytest.raises(ValueError):
        bench._time_op("x", lambda: None, lambda _: None, bench.MIN_TRIALS - 1)


def test_time_op_shape():
    row = bench._time_op("noop", lambda: None, lambda _: None, bench.MIN_TRIALS)
    assert row["op"] == "noop" and row["trials"] == bench.MIN_TRIALS
    assert 0 <= row["p50_ms"] <= row["max_ms"]
    assert row["mean_ms"] >= 0


def test_bench_main_sizes_come_from_real_messages():
    result = bench.run(get_scheme("main", group_name="toy"), trials=bench.MIN_TRIALS)
    assert result["sizes"] == {
        "public_key": 4,
        "punch_request": 4,
        "punch_response": 16,
        "redeem_request": 36,
    }
    ops = [row["op"] for row in result["rows"]]
    assert "punch_round_trip" in ops and "server_redeem(db=0)" in ops
    assert "g0_decode" in ops


def test_bench_main_with_preloaded_db():
    result = bench.run(get_scheme("main", group_name="toy"), trials=bench.MIN_TRIALS, db_size=500)
    assert "server_redeem(db=500)" in [row["op"] for row in result["rows"]]


def test_bench_mergeable_toy_sizes():
    result = bench.run(
        get_scheme("mergeable", pairing_name="toy-pairing"), trials=bench.MIN_TRIALS
    )
    assert result["sizes"] == {
        "public_key": 8,
        "punch_request": 8,
        "punch_response": 32,
        "redeem_request": 68,
    }
    ops = [row["op"] for row in result["rows"]]
    assert {"pair", "g0_exp_base", "g1_exp_base", "g0_decode", "g1_decode"} <= set(ops)


def test_render_table_and_csv():
    result = bench.run(get_scheme("main", group_name="toy"), trials=bench.MIN_TRIALS)
    table = bench.render_table(result)
    assert "punch_round_trip" in table and "message sizes" in table
    rows = list(csv.reader(io.StringIO(bench.render_csv(result))))
    assert rows[0] == ["scheme", "op", "trials", "mean_ms", "p50_ms", "max_ms"]
    assert any(r[1] == "size:redeem_request" and r[3] == "36" for r in rows)
