"""Command-line front end.

    punchcard server run --config server.conf
    punchcard server purge --config server.conf
    punchcard wallet new-card --wallet w.bin [--scheme mergeable]
    punchcard wallet list --wallet w.bin
    punchcard wallet punch --wallet w.bin --card 0 --port 7907 [-t 3]
    punchcard wallet redeem --wallet w.bin --card 0 --port 7907
    punchcard wallet merge-redeem --wallet w.bin --card-a 0 [--card-b 1] --port 7907
    punchcard bench main|mergeable [--trials N] [--db-size N] [--csv out.csv]
    punchcard attacks run [--seed N] [--json out.json] [--quick]

Wallet commands open the file as the scheme it holds. `new-card --scheme`
sets the scheme of a new file and must match an existing one (exit 1
otherwise). A server that hangs up or cannot be reached, or a file that
cannot be opened, is reported as `error: ...` (exit 1). Scheme-specific
work is done by the objects in `schemes`.

A wallet command that writes holds an exclusive lock on `<wallet>.lock`
from the load to the last save, so a second one on the same file exits 1
("in use") before it reads or sends anything: two commands that each
loaded the file would otherwise each save, and the second save would
drop the first one's punch. The lock is on a file of its own because
every save replaces the wallet's inode. `wallet list` takes no lock: a
save renames a whole file into place, so it reads the old wallet or the
new one.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import logging
import sys
from datetime import date

from . import extensions, schemes, service
from .core import RedeemStatus
from .db import RedeemDb
from .errors import ConfigError, PunchcardError, WalletError

# attacks, bench and wallet are imported by the commands that use them, so
# that a server start does not load them


def _client(args) -> service.Client:
    return service.Client(args.host, args.port)


@contextlib.contextmanager
def _wallet(args, scheme=None):
    """The wallet, loaded and used under the lock (see the module
    docstring); WalletError if another command holds it."""
    from .wallet import Wallet

    with open(args.wallet + ".lock", "ab") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise WalletError(f"{args.wallet} is in use by another command") from None
        yield Wallet(args.wallet, scheme=scheme)


def _print_status(status: RedeemStatus) -> int:
    print(f"redeem: {status.name}")
    return 0 if status is RedeemStatus.ACCEPT else 1


def punch_count(raw: str) -> int:
    if int(raw) < 1:
        raise argparse.ArgumentTypeError(f"punch count must be at least 1, got {raw}")
    return int(raw)


def cmd_server_run(args) -> int:
    return service.run_server(service.load_config(args.config))


def cmd_server_purge(args) -> int:
    cfg = service.load_config(args.config)
    if not cfg.expiry_check:  # which load_config allows with scheme = main only
        raise ConfigError(
            "purge reads an expiry date from each spent secret, so it needs "
            "scheme = main and expiry_check = on"
        )
    db = RedeemDb(service.store_path(cfg), fsync=cfg.fsync)
    try:
        dropped = extensions.purge_expired(db, date.today())
    finally:
        db.close()
    print(f"purged {dropped} expired secrets, {len(db)} remain")
    return 0


def cmd_wallet_new_card(args) -> int:
    with _wallet(args, scheme=args.scheme) as wallet:
        index = wallet.new_card()
    print(f"card #{index} created")
    return 0


def cmd_wallet_list(args) -> int:
    from .wallet import Wallet

    wallet = Wallet(args.wallet, scheme=None)
    if wallet.pk is not None:  # the pin, as the server's server.pk holds it
        print(f"server key {wallet.scheme.encode_pk(wallet.pk).hex()}")
    if not wallet.cards:
        print("wallet is empty")
        return 0
    print(f"{'card':<6}{'id':<10}{'punches':>8}")
    for index, prefix, count in wallet.rows():
        print(f"{index:<6}{prefix:<10}{count:>8}")
    return 0


def cmd_wallet_punch(args) -> int:
    with _wallet(args) as wallet, _client(args) as client:
        if args.times > 1:
            gained = wallet.multi_punch(client, args.card, args.times)
            print(f"card #{args.card}: +{gained} punches")
        else:
            wallet.punch(client, args.card)
            print(f"card #{args.card}: +1 punch")
        print(f"card #{args.card} now has {wallet.cards[args.card].count} punches")
    return 0


def cmd_wallet_redeem(args) -> int:
    with _wallet(args) as wallet, _client(args) as client:
        return _print_status(wallet.redeem(client, args.card))


def cmd_wallet_merge_redeem(args) -> int:
    with _wallet(args) as wallet, _client(args) as client:
        return _print_status(
            wallet.merge_redeem(client, args.card_a, args.card_b)
        )


def cmd_bench(args) -> int:
    from . import bench

    trials = bench.MIN_TRIALS if args.trials is None else args.trials
    try:
        result = bench.run(
            schemes.get_scheme(args.scheme), trials=trials, db_size=args.db_size
        )
    except ValueError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(bench.render_table(result))
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            f.write(bench.render_csv(result))
        print(f"csv written to {args.csv}")
    return 0


def cmd_attacks_run(args) -> int:
    from . import attacks

    kwargs = {}
    if args.quick:
        kwargs = {
            "replay_trials": 20,
            "key_switch_trials": 50,
            "eavesdropper_guesses": 500,
        }
    report = attacks.run_all(seed=args.seed, **kwargs)
    print(attacks.render_report(report))
    if args.json:
        with open(args.json, "w") as f:
            f.write(attacks.report_to_json(report))
        print(f"report written to {args.json}")
    return 0 if report["all_defeated"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punchcard", description="privacy-preserving loyalty punch cards"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    server = sub.add_parser("server", help="run or maintain a server")
    server_sub = server.add_subparsers(dest="server_command", required=True)
    run = server_sub.add_parser("run")
    run.add_argument("--config", default=None)
    run.set_defaults(func=cmd_server_run)
    purge = server_sub.add_parser("purge")
    purge.add_argument("--config", default=None)
    purge.set_defaults(func=cmd_server_purge)

    wallet = sub.add_parser("wallet", help="hold and use cards")
    wallet_sub = wallet.add_subparsers(dest="wallet_command", required=True)

    def wallet_common(p, network=True):
        p.add_argument("--wallet", required=True)
        if network:
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=7907)

    new_card = wallet_sub.add_parser("new-card")
    wallet_common(new_card, network=False)
    new_card.add_argument("--scheme", choices=schemes.NAMES, default=None)
    new_card.set_defaults(func=cmd_wallet_new_card)

    listing = wallet_sub.add_parser("list")
    wallet_common(listing, network=False)
    listing.set_defaults(func=cmd_wallet_list)

    punch = wallet_sub.add_parser("punch")
    wallet_common(punch)
    punch.add_argument("--card", type=int, required=True)
    punch.add_argument("-t", "--times", type=punch_count, default=1)
    punch.set_defaults(func=cmd_wallet_punch)

    redeem = wallet_sub.add_parser("redeem")
    wallet_common(redeem)
    redeem.add_argument("--card", type=int, required=True)
    redeem.set_defaults(func=cmd_wallet_redeem)

    merge = wallet_sub.add_parser("merge-redeem")
    wallet_common(merge)
    merge.add_argument("--card-a", type=int, required=True)
    merge.add_argument("--card-b", type=int, default=None)
    merge.set_defaults(func=cmd_wallet_merge_redeem)

    bench_p = sub.add_parser("bench", help="timing and size measurements")
    bench_p.add_argument("scheme", choices=schemes.NAMES)
    bench_p.add_argument("--trials", type=int, default=None)
    bench_p.add_argument("--db-size", type=int, default=0)
    bench_p.add_argument("--csv", default=None)
    bench_p.set_defaults(func=cmd_bench)

    attacks_p = sub.add_parser("attacks", help="adversarial self-checks")
    attacks_sub = attacks_p.add_subparsers(dest="attacks_command", required=True)
    attacks_run = attacks_sub.add_parser("run")
    attacks_run.add_argument("--seed", type=int, default=7)
    attacks_run.add_argument("--json", default=None)
    attacks_run.add_argument("--quick", action="store_true")
    attacks_run.set_defaults(func=cmd_attacks_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config: {e}", file=sys.stderr)
        return service.EXIT_CONFIG
    except (PunchcardError, EOFError, OSError) as e:
        reason = str(e) or "the server closed the connection"  # a bare EOFError
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
