import json
import os
import subprocess
import sys

from punchcard import attacks
from punchcard.groups import get_group

# the toy group is too small here: with 1019 elements a random guess hits a
# valid card about once per thousand tries, which is exactly what the
# accounting is meant to surface. adversarial assertions run on the
# production group only.
GROUP = get_group("ristretto255")


def test_replay_attack_defeated():
    r = attacks.replay_attack(GROUP, trials=30, punches=3, seed=11)
    assert r["defeated"]
    assert r["rejected"] == r["trials"] == 60
    assert r["value_conserved"]


def test_replay_attack_defeated_under_python_O():
    """python -O strips asserts, so the drill's honest first redemption must
    not sit in one: the replays would then be first redemptions."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = """
import json
from punchcard import attacks
from punchcard.groups import get_group
print(json.dumps(attacks.replay_attack(get_group("ristretto255"), trials=10, seed=11)))
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    r = json.loads(out.stdout)
    assert r["defeated"]
    assert r["rejected"] == r["trials"] == 20


def test_key_switch_attack_defeated():
    r = attacks.key_switch_attack(GROUP, trials=100, seed=12)
    assert r["defeated"]
    assert r["rejected"] == 100


def test_eavesdropper_attack_defeated():
    r = attacks.eavesdropper_attack(GROUP, guesses=300, punches=3, seed=13)
    assert r["defeated"]
    assert r["rejected"] == 300
    assert r["victim_unharmed"]
    assert r["value_conserved"]


def test_run_all_and_reports():
    report = attacks.run_all(
        seed=14, replay_trials=10, key_switch_trials=25, eavesdropper_guesses=50
    )
    assert report["all_defeated"]
    assert [r["scenario"] for r in report["scenarios"]] == [
        "replay",
        "key_switch",
        "eavesdropper",
    ]
    text = attacks.render_report(report)
    assert "all attacks defeated" in text
    assert "DEFEATED" in text
    parsed = json.loads(attacks.report_to_json(report))
    assert parsed["all_defeated"] is True


def test_till_accounting_catches_over_redemption():
    till = attacks._Till()
    till.punches_performed = 3
    till.punches_redeemed = 4
    assert not till.conserved()
    till.punches_redeemed = 3
    assert till.conserved()
