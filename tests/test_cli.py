import contextlib
import json
import logging
import os
import socket
import subprocess
import sys
import threading

import pytest

from punchcard import cli, service
from punchcard.db import RedeemDb
from punchcard.extensions import make_expiring_secret
from punchcard.service import Config, ServerHandle
from punchcard.wallet import Wallet

from datetime import date


@pytest.fixture
def main_server(tmp_path):
    cfg = Config(
        state_dir=str(tmp_path / "srv"),
        listen_port=0,
        accepted_counts=(3,),
        fsync=False,
    )
    handle = ServerHandle(cfg).start()
    yield handle
    handle.shutdown()


def test_wallet_cli_full_cycle(main_server, tmp_path, capsys):
    w = str(tmp_path / "w.bin")
    port = str(main_server.port)
    assert cli.main(["wallet", "new-card", "--wallet", w]) == 0
    assert "card #0 created" in capsys.readouterr().out
    assert cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port]) == 0
    assert "+1 punch" in capsys.readouterr().out
    assert (
        cli.main(
            ["wallet", "punch", "--wallet", w, "--card", "0", "--port", port, "-t", "2"]
        )
        == 0
    )
    assert "+2 punches" in capsys.readouterr().out
    assert cli.main(["wallet", "list", "--wallet", w]) == 0
    index, prefix, count = capsys.readouterr().out.splitlines()[-1].split()
    assert (index, count) == ("0", "3")  # the card row's punch count
    assert cli.main(["wallet", "redeem", "--wallet", w, "--card", "0", "--port", port]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert cli.main(["wallet", "list", "--wallet", w]) == 0
    assert "empty" in capsys.readouterr().out


def test_wallet_list_prints_the_pinned_key_as_server_pk_holds_it(
    main_server, tmp_path, capsys
):
    w = str(tmp_path / "w.bin")
    cli.main(["wallet", "new-card", "--wallet", w])
    assert cli.main(["wallet", "list", "--wallet", w]) == 0
    assert "server key" not in capsys.readouterr().out  # nothing pinned yet
    port = str(main_server.port)
    cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port])
    capsys.readouterr()
    assert cli.main(["wallet", "list", "--wallet", w]) == 0
    published = (tmp_path / "srv" / "server.pk").read_text().strip()
    assert f"server key {published}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("times", ["0", "-3"])
def test_wallet_cli_punch_refuses_fewer_than_one(main_server, tmp_path, capsys, times):
    """-t below 1 is a usage error: nothing reaches the server and the
    card keeps its count."""
    w = str(tmp_path / "w.bin")
    port = str(main_server.port)
    cli.main(["wallet", "new-card", "--wallet", w])
    cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port])
    capsys.readouterr()
    before = main_server.service.stats.snapshot()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["wallet", "punch", "--wallet", w, "--card", "0", "--port", port, "-t", times]
        )
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "at least 1" in captured.err
    assert captured.out == ""
    assert main_server.service.stats.snapshot() == before
    assert Wallet(w, scheme=None).cards[0].count == 1


def test_wallet_cli_redeem_rejects_short_card(main_server, tmp_path, capsys):
    w = str(tmp_path / "w.bin")
    port = str(main_server.port)
    cli.main(["wallet", "new-card", "--wallet", w])
    cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port])
    # only 1 punch, server takes 3
    assert cli.main(["wallet", "redeem", "--wallet", w, "--card", "0", "--port", port]) == 1
    assert "BAD_CARD" in capsys.readouterr().out


def test_wallet_cli_bad_card_index(main_server, tmp_path, capsys):
    w = str(tmp_path / "w.bin")
    cli.main(["wallet", "new-card", "--wallet", w])
    code = cli.main(
        ["wallet", "punch", "--wallet", w, "--card", "5", "--port", str(main_server.port)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_wallet_cli_rejects_non_wallet_file(tmp_path, capsys):
    bogus = tmp_path / "not-a-wallet"
    bogus.write_bytes(b"hello world")
    assert cli.main(["wallet", "list", "--wallet", str(bogus)]) == 1
    assert "not a wallet" in capsys.readouterr().err


def test_merge_redeem_cli(tmp_path, capsys):
    cfg = Config(
        state_dir=str(tmp_path / "srv"),
        listen_port=0,
        scheme="mergeable",
        accepted_counts=(1,),
        fsync=False,
    )
    handle = ServerHandle(cfg).start()
    try:
        w = str(tmp_path / "m.bin")
        port = str(handle.port)
        cli.main(["wallet", "new-card", "--wallet", w, "--scheme", "mergeable"])
        cli.main(["wallet", "new-card", "--wallet", w])  # scheme sniffed from file
        capsys.readouterr()
        assert (
            cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port])
            == 0
        )
        assert (
            cli.main(
                [
                    "wallet",
                    "merge-redeem",
                    "--wallet",
                    w,
                    "--card-a",
                    "0",
                    "--card-b",
                    "1",
                    "--port",
                    port,
                ]
            )
            == 0
        )
        assert "ACCEPT" in capsys.readouterr().out
    finally:
        handle.shutdown()


def test_bench_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "main", "--trials", "100", "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert "punch_round_trip" in text
    assert out.read_text().startswith("scheme,op,trials")


def test_bench_cli_rejects_thin_trials(capsys):
    assert cli.main(["bench", "main", "--trials", "5"]) == 1


def test_attacks_cli_quick_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["attacks", "run", "--quick", "--json", str(out)]) == 0
    assert "all attacks defeated" in capsys.readouterr().out
    assert json.loads(out.read_text())["all_defeated"] is True


def test_server_run_bad_config(tmp_path, capsys):
    code = cli.main(
        ["server", "run", "--config", str(tmp_path / "nope.conf")]
    )
    assert code == service.EXIT_CONFIG
    assert "config:" in capsys.readouterr().err


def test_server_purge_cli(tmp_path, capsys):
    state = tmp_path / "srv"
    state.mkdir()
    conf = tmp_path / "server.conf"
    conf.write_text(f"state_dir = {state}\nexpiry_check = on\n")
    db = RedeemDb(str(state / "redeemed.db"))
    db.check_and_insert(make_expiring_secret(date(2020, 1, 1)))
    db.check_and_insert(make_expiring_secret(date(2099, 1, 1)))
    db.close()
    assert cli.main(["server", "purge", "--config", str(conf)]) == 0
    assert "purged 1 expired" in capsys.readouterr().out
    again = RedeemDb(str(state / "redeemed.db"))
    assert len(again) == 1
    again.close()


@pytest.mark.parametrize(
    "lines", ["", "expiry_check = off", "scheme = mergeable\nexpiry_check = on"]
)
def test_server_purge_needs_expiring_cards(tmp_path, capsys, lines):
    """Purge reads a date from each secret's first bytes; on random secrets
    it would drop live entries and let their cards be spent again."""
    state = tmp_path / "srv"
    state.mkdir()
    conf = tmp_path / "server.conf"
    conf.write_text(f"state_dir = {state}\n{lines}\n")
    db = RedeemDb(str(state / "redeemed.db"))
    db.check_and_insert(make_expiring_secret(date(2020, 1, 1)))
    db.close()
    before = (state / "redeemed.db").read_bytes()
    assert cli.main(["server", "purge", "--config", str(conf)]) == service.EXIT_CONFIG
    assert "config:" in capsys.readouterr().err
    assert (state / "redeemed.db").read_bytes() == before
    assert not (state / "redeemed.db.snap").exists()


def test_new_card_scheme_mismatch_is_an_error(tmp_path, capsys):
    w = str(tmp_path / "w.bin")
    assert cli.main(["wallet", "new-card", "--wallet", w]) == 0
    with open(w, "rb") as f:
        before = f.read()
    assert cli.main(["wallet", "new-card", "--wallet", w, "--scheme", "mergeable"]) == 1
    assert "wallet holds main cards" in capsys.readouterr().err
    with open(w, "rb") as f:
        assert f.read() == before
    assert cli.main(["wallet", "new-card", "--wallet", w, "--scheme", "main"]) == 0
    assert "card #1 created" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["group = nonsense", "pairing = nonsense"])
def test_server_run_unknown_group_or_pairing(tmp_path, capsys, line):
    # the port is taken, so a server that got past the config fails to bind
    # instead of running on
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        conf = tmp_path / "server.conf"
        conf.write_text(
            f"state_dir = {tmp_path / 'srv'}\n"
            f"listen_port = {taken.getsockname()[1]}\n{line}\n"
        )
        code = cli.main(["server", "run", "--config", str(conf)])
    assert code == service.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config:" in err and "nonsense" in err
    assert not (tmp_path / "srv").exists()


def test_server_run_reports_a_state_dir_error_as_a_file_error(tmp_path, capsys, caplog):
    """Only a failed bind exits 4: a state_dir that is a regular file is an
    error about that file (exit 1), not a bind failure."""
    state = tmp_path / "not-a-dir"
    state.write_text("")
    conf = tmp_path / "server.conf"
    conf.write_text(f"state_dir = {state}\nlisten_port = 0\n")
    with caplog.at_level(logging.ERROR):
        assert cli.main(["server", "run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(state) in err
    assert "cannot bind" not in caplog.text


def _hanging_up_port(listener):
    """Serve one connection on `listener` by reading its request and
    closing it unanswered."""
    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)

    thread = threading.Thread(target=serve)
    thread.start()
    return thread


@pytest.mark.parametrize("server", ["hangs-up", "unreachable"])
def test_wallet_cli_reports_a_lost_server_as_an_error(tmp_path, capsys, server):
    w = str(tmp_path / "w.bin")
    assert cli.main(["wallet", "new-card", "--wallet", w]) == 0
    capsys.readouterr()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        port = str(listener.getsockname()[1])
        if server == "hangs-up":
            listener.listen()
            thread = _hanging_up_port(listener)
        else:
            thread = None  # bound but not listening: connections are refused
        code = cli.main(["wallet", "punch", "--wallet", w, "--card", "0", "--port", port])
        if thread is not None:
            thread.join(timeout=10)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert Wallet(w, scheme=None).cards[0].count == 0


def test_wallet_cli_reports_a_wallet_it_cannot_write_as_an_error(tmp_path, capsys):
    w = str(tmp_path / "missing-dir" / "w.bin")
    assert cli.main(["wallet", "new-card", "--wallet", w]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing-dir" in err


def _cli_process(*argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = f"import sys; from punchcard.cli import main; sys.exit(main({list(argv)!r}))"
    return [sys.executable, "-c", code], env


def _pump(src, dst):
    while data := src.recv(65536):
        dst.sendall(data)
    with contextlib.suppress(OSError):
        dst.shutdown(socket.SHUT_WR)


def test_a_second_wallet_command_on_one_file_is_refused_before_it_sends(
    main_server, tmp_path
):
    """Two `wallet punch` processes on one wallet: the first holds the
    wallet's lock while its punch is held up on the way to the server, the
    second exits 1 ("in use") without connecting, and `wallet list` reads
    the whole file meanwhile. Once the first punch goes through, the file
    holds it."""
    w = str(tmp_path / "w.bin")
    assert cli.main(["wallet", "new-card", "--wallet", w]) == 0
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(30)
        punch = ["wallet", "punch", "--wallet", w, "--card", "0",
                 "--port", str(listener.getsockname()[1])]
        argv, env = _cli_process(*punch)
        first = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            held, _ = listener.accept()  # the first punch, held here
            with held:
                argv, env = _cli_process(*punch)
                second = subprocess.run(argv, env=env, capture_output=True, text=True,
                                        timeout=60)
                assert second.returncode == 1
                assert second.stderr.startswith("error:") and "in use" in second.stderr
                listener.setblocking(False)
                with pytest.raises(BlockingIOError):  # it never connected
                    listener.accept()
                argv, env = _cli_process("wallet", "list", "--wallet", w)
                listing = subprocess.run(argv, env=env, capture_output=True, text=True,
                                         timeout=60)
                assert listing.returncode == 0, listing.stderr
                assert listing.stdout.splitlines()[-1].split()[::2] == ["0", "0"]
                with socket.create_connection(("127.0.0.1", main_server.port)) as server:
                    pumps = [threading.Thread(target=_pump, args=pair)
                             for pair in ((held, server), (server, held))]
                    for t in pumps:
                        t.start()
                    out, err = first.communicate(timeout=60)
                    for t in pumps:
                        t.join(timeout=10)
        finally:
            if first.poll() is None:
                first.kill()
                first.communicate()
    assert first.returncode == 0, err
    assert "+1 punch" in out
    assert Wallet(w, scheme=None).cards[0].count == 1
