"""Command-line administration for compliant databases.

Usage::

    python -m repro.tools.admin info      <db-path>
    python -m repro.tools.admin audit     <db-path> [--no-rotate]
                                          [--workers N]
    python -m repro.tools.admin forensics <db-path>
    python -m repro.tools.admin vacuum    <db-path>
    python -m repro.tools.admin history   <db-path> <relation> <key…>
    python -m repro.tools.admin holds     <db-path>
    python -m repro.tools.admin metrics   <db-path> [--json]
    python -m repro.tools.admin serve     <db-path> [--host H] [--port P]
                                          [--max-queue-depth N]
                                          [--allow-crash-ops]
                                          [--shard N]
    python -m repro.tools.admin shard-audit <base-path> [--no-rotate]
                                          [--workers N]

The tool opens the database read-mostly (audit/vacuum mutate WORM/epoch
state exactly as their API counterparts do), runs recovery if the previous
incarnation crashed, and prints human-readable results.  Keys given on the
command line are parsed as integers where possible, otherwise strings.

Note: the tool signs/verifies with the default deterministic auditor key;
pass ``--auditor NAME`` when the database was created with a named key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List, Tuple

from ..common.clock import SimulatedClock
from ..core import Auditor, CompliantDB
from ..core.forensics import ForensicAnalyzer
from ..crypto import AuditorKey
from ..obs import prometheus_text


def _parse_key(raw: List[str]) -> Tuple[Any, ...]:
    out: List[Any] = []
    for part in raw:
        try:
            out.append(int(part))
        except ValueError:
            out.append(part)
    return tuple(out)


def _open(path: str, auditor: str) -> CompliantDB:
    db = CompliantDB.open(path, SimulatedClock(),
                          auditor_key=AuditorKey.generate(auditor))
    db.recover()
    return db


def cmd_info(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    print(f"mode:          {db.mode.value}")
    print(f"audit epoch:   {db.epoch}")
    print(f"page size:     {db.config.engine.page_size}")
    print(f"data pages:    {db.engine.pager.page_count}")
    if db.clog is not None:
        print(f"compliance log: {db.clog.name} "
              f"({db.clog.size() / 1024:.1f} KiB)")
    print(f"WORM files:    {len(db.worm.list_files())}")
    print("relations:")
    for name in db.engine.relation_names():
        info = db.engine.relation(name)
        rows = db.engine.count_rows(name)
        hist = db.engine.histdir.page_count(info.relation_id)
        extra = f", {hist} WORM page(s)" if hist else ""
        print(f"  {name}: {rows} live row(s){extra}")
    db.close()
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    report = Auditor(db, workers=args.workers).audit(
        rotate=not args.no_rotate)
    print(report.summary())
    if report.workers:
        print(f"  partitioned: {report.workers} worker(s), "
              f"{report.tasks_total} task(s)")
    db.close()
    return 0 if report.ok else 1


def cmd_forensics(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    report = ForensicAnalyzer(db).analyze()
    print(report.audit.summary())
    print(report.summary())
    db.close()
    return 0 if report.audit.ok else 1


def cmd_vacuum(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    report = db.vacuum()
    print(f"shredded {report.shredded_live} live and "
          f"{report.shredded_worm} WORM version(s) across "
          f"{report.relations or 'no relations'}")
    db.close()
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    key = _parse_key(args.key)
    versions = db.versions(args.relation, key)
    if not versions:
        print(f"{args.relation}{key!r}: no recorded versions")
    for view in versions:
        stamp = view.start if view.start is not None else "uncommitted"
        if view.eol:
            print(f"  @{stamp}: DELETED")
        else:
            print(f"  @{stamp}: {view.row}")
    db.close()
    return 0


def cmd_holds(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    holds = db.holds.all_holds()
    if not holds:
        print("no litigation holds")
    for hold in holds:
        state = "ACTIVE" if hold.active else \
            f"released @{hold.released_at}"
        target = hold.key_hex or "<whole relation>"
        print(f"  #{hold.hold_id} {hold.relation} {target} "
              f"placed @{hold.placed_at} [{state}] {hold.case_ref}")
    db.close()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    db = _open(args.path, args.auditor)
    if args.json:
        print(json.dumps(db.metrics(), indent=2, sort_keys=True))
    else:
        # metrics() also mirrors the process-wide hash work counters
        # (hash_sha512_calls / hash_memo_hits) into the registry, so
        # both exporters show digest-pool and hash-work gauges
        db.metrics()
        sys.stdout.write(prometheus_text(db.obs.registry))
    db.close()
    return 0


def cmd_shard_audit(args: argparse.Namespace) -> int:
    from ..shard import DistributedAuditor, ShardedDB
    sharded = ShardedDB.open(
        args.path, auditor_key=AuditorKey.generate(args.auditor))
    auditor = DistributedAuditor(sharded, workers=args.workers)
    report = auditor.audit(rotate=not args.no_rotate)
    print(report.summary())
    verified = report.verify(sharded.auditor_key)
    print(f"  attestation by {report.signer!r}: "
          f"{'VALID' if verified else 'INVALID'}")
    sharded.close()
    return 0 if report.ok and verified else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from ..server import ComplianceServer, ServerConfig
    path = args.path
    if args.shard is not None:
        # serve one shard of a sharded database created by
        # ShardedDB.create: <base>/shard-NNN
        from ..shard.coordinator import SHARD_DIR
        path = str(Path(args.path) / SHARD_DIR.format(args.shard))
    db = _open(path, args.auditor)
    config = ServerConfig(host=args.host, port=args.port,
                          max_queue_depth=args.max_queue_depth,
                          allow_crash_ops=args.allow_crash_ops)
    server = ComplianceServer(db, config).start()
    try:
        host, port = server.address
        print(f"serving {path} ({db.mode.value}) on {host}:{port}",
              flush=True)
        print("press Ctrl-C to drain and stop", flush=True)
        import time as _time
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("draining...")
    finally:
        server.shutdown()
        db.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-admin",
        description="administer a regulatory-compliant database")
    parser.add_argument("--auditor", default="auditor",
                        help="auditor key name (default: auditor)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, extra in [
        ("info", cmd_info, None),
        ("audit", cmd_audit, "audit"),
        ("forensics", cmd_forensics, None),
        ("vacuum", cmd_vacuum, None),
        ("history", cmd_history, "history"),
        ("holds", cmd_holds, None),
        ("metrics", cmd_metrics, "metrics"),
        ("serve", cmd_serve, "serve"),
        ("shard-audit", cmd_shard_audit, "shard-audit"),
    ]:
        cmd = sub.add_parser(name)
        cmd.add_argument("path", help="database directory")
        cmd.set_defaults(func=func)
        if extra == "audit":
            cmd.add_argument("--no-rotate", action="store_true",
                             help="dry run: do not advance the epoch")
            cmd.add_argument("--workers", type=int, default=None,
                             help="partition the audit across N worker "
                                  "processes (default: the database's "
                                  "audit_workers config; 0 = one "
                                  "in-process pass)")
        elif extra == "history":
            cmd.add_argument("relation")
            cmd.add_argument("key", nargs="+",
                             help="primary key component(s)")
        elif extra == "metrics":
            cmd.add_argument("--json", action="store_true",
                             help="JSON snapshot instead of Prometheus "
                                  "text")
        elif extra == "serve":
            cmd.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
            cmd.add_argument("--port", type=int, default=7911,
                             help="TCP port; 0 lets the OS pick "
                                  "(default: 7911)")
            cmd.add_argument("--max-queue-depth", type=int, default=64,
                             help="admission-control cap on queued + "
                                  "executing requests (default: 64)")
            cmd.add_argument("--allow-crash-ops", action="store_true",
                             help="expose the crash_recover op "
                                  "(test/bench harnesses)")
            cmd.add_argument("--shard", type=int, default=None,
                             help="serve shard N of a sharded database "
                                  "(path is the sharded base directory)")
        elif extra == "shard-audit":
            cmd.add_argument("--no-rotate", action="store_true",
                             help="dry run: do not advance any shard's "
                                  "epoch")
            cmd.add_argument("--workers", type=int, default=None,
                             help="partition each shard's audit across "
                                  "N worker processes")
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
