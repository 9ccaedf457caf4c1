#!/usr/bin/env python
"""Standalone Fig 3(a) benchmark runner for perf tracking across PRs.

Executes the three-architecture TPC-C sweep (REGULAR / LOG_CONSISTENT /
HASH_ON_READ) and writes a JSON report — the ``--out`` file,
``BENCH_PR10.json`` in the repository root by default — with txn/s and
compliance overhead percentages per mode, per-mode SHA-512 work and
digest-pool counters, a full ``repro.obs`` metrics snapshot per mode,
an instrumentation-overhead measurement (enabled vs no-op registry), a
digest-equivalence gate (pooled vs inline digests must produce the
identical audit report), and an audit-scaling section (the auditor's
inline plan vs its pooled plan at several worker counts, gated on
report equality).

The sweep itself is interleaved best-of-N: each attempt cycles through
all three modes on freshly built databases and the best attempt per
mode is kept, so CPU-frequency drift and scheduler noise cannot
masquerade as an overhead change (single-shot sweeps swung the
log-consistent overhead 16% → 7% → 20.5% across PRs with no hot-path
change).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py \
        [--txns N] [--out FILE] [--baseline FILE] [--label NAME] \
        [--quick] [--max-overhead PCT] [--audit-only] \
        [--audit-workers N,N,...] [--check-baseline FILE] \
        [--tolerance PCT]

``--baseline`` embeds a previously captured report under ``"baseline"``
so a single file shows before/after.  ``--quick`` shrinks the run for
CI smoke jobs; ``--max-overhead`` makes the process exit non-zero when
the measured instrumentation overhead exceeds the given percentage.
``--audit-only`` skips the sweep and instrumentation sections and runs
just the audit-scaling measurement; any pooled audit whose report
differs from the inline one makes the process exit non-zero.
``--check-baseline`` is the CI trend gate: the process exits non-zero
when a mode's measured overhead exceeds the committed baseline's by
more than ``--tolerance`` percentage points (default 15 — the observed
noise band of the interleaved sweep at CI scale).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import build_db, make_driver  # noqa: E402
from repro.common.clock import SimulatedClock  # noqa: E402
from repro.common.codec import Field, FieldType, Schema  # noqa: E402
from repro.common.config import ComplianceMode, DBConfig  # noqa: E402
from repro.common.errors import ServerRequestError  # noqa: E402
from repro.core import Auditor, CompliantDB  # noqa: E402
from repro.crypto import AuditorKey  # noqa: E402
from repro.server import (ComplianceServer, PipelinedClient,  # noqa: E402
                          ServerClient, ServerConfig, replay_history)
from repro.tpcc import TPCCScale  # noqa: E402

#: Fig 3(a)'s cache ratio: 256 MB of a 2.5 GB database
CACHE_RATIO = 0.10

#: per-page device latency for the audit scan — one random read on the
#: paper's 2009-era enterprise disk (~3 ms seek+rotate).  The audit is
#: the paper's terabyte-scan worry, so the scaling section restores the
#: I/O-bound balance the tiny bench database otherwise lacks.
AUDIT_IO_DELAY = 0.003

#: final-state pages per chunk task of the pooled audits (small enough
#: that the bench database splits into far more chunks than workers)
AUDIT_CHUNK_PAGES = 64

MODES = (ComplianceMode.REGULAR, ComplianceMode.LOG_CONSISTENT,
         ComplianceMode.HASH_ON_READ)

#: connection counts for the multi-client server section
SERVER_CONNECTIONS = (1, 4, 16, 64)
#: key-space width for the server workload — small enough that clients
#: genuinely collide and the retry path is exercised
SERVER_KEYS = 32


def _worm_counters(metrics: dict) -> dict:
    """WORM server counters, read from the unified metrics snapshot."""
    counters = metrics.get("counters", {})
    return {short: counters[name]
            for short, name in (("appends", "worm_appends_total"),
                                ("buffered_appends",
                                 "worm_buffered_appends_total"),
                                ("flushes", "worm_flushes_total"),
                                ("fsyncs", "worm_fsyncs_total"),
                                ("bytes_written",
                                 "worm_bytes_written_total"))
            if name in counters}


def _sizing_pages(root: Path, scale: TPCCScale) -> int:
    db = build_db(root / "sizing", ComplianceMode.REGULAR, scale,
                  buffer_pages=4096)
    pages = db.engine.pager.page_count
    db.close()
    return pages


def run_sweep(txns: int, root: Path, repeats: int = 2) -> dict:
    """Run the three-mode sweep; returns the per-mode measurements.

    Timings are interleaved best-of-``repeats``: a discarded REGULAR
    warm-up primes allocator/bytecode caches, then every attempt cycles
    through all three modes on freshly built databases so CPU-frequency
    drift hits every mode equally, and the fastest attempt per mode is
    reported — the run least disturbed by scheduler noise.  Each mode's
    entry also records its SHA-512 work (deltas of the process-wide
    hash counters across the measured window) and the digest-pool
    counters from the final metrics snapshot.
    """
    from repro.crypto import HASH_STATS

    scale = TPCCScale.small()
    buffer_pages = max(16, int(_sizing_pages(root, scale) * CACHE_RATIO))

    def one_run(mode: ComplianceMode, tag: str) -> tuple:
        db = build_db(root / tag, mode, scale, buffer_pages=buffer_pages)
        driver = make_driver(db, scale)
        before = HASH_STATS.snapshot()
        started = time.perf_counter()
        result = driver.run(txns)
        elapsed = time.perf_counter() - started
        after = HASH_STATS.snapshot()
        metrics = db.metrics()
        db.close()
        hash_work = {key: after[key] - before[key] for key in after}
        return elapsed, result, metrics, hash_work

    one_run(ComplianceMode.REGULAR, "sweep-warmup")
    best: dict = {}
    for attempt in range(max(1, repeats)):
        for mode in MODES:
            run = one_run(mode, f"{mode.value}-{attempt}")
            if mode not in best or run[0] < best[mode][0]:
                best[mode] = run

    modes = {}
    for mode in MODES:
        elapsed, result, metrics, hash_work = best[mode]
        worm = _worm_counters(metrics)
        entry = {
            "transactions": result.transactions,
            "committed": result.committed,
            "rolled_back": result.rolled_back,
            "elapsed_seconds": round(elapsed, 4),
            "tps": round(result.tps, 2),
            "hash_work": hash_work,
        }
        pool = {short: metrics["counters"][name]
                for short, name in (
                    ("submitted", "digest_pool_submitted_total"),
                    ("completed", "digest_pool_completed_total"),
                    ("inline", "digest_pool_inline_total"))
                if name in metrics["counters"]}
        if pool:
            entry["digest_pool"] = pool
        if worm:
            entry["worm"] = worm
            if worm.get("flushes") is not None:
                entry["worm_flushes_per_1000_txns"] = round(
                    worm["flushes"] * 1000.0 / max(1, txns), 1)
        clog_records = sum(
            value for name, value in metrics["counters"].items()
            if name.startswith("clog_records_total"))
        if clog_records:
            entry["clog_records"] = clog_records
        entry["metrics"] = metrics
        modes[mode.value] = entry
    base = modes[ComplianceMode.REGULAR.value]["elapsed_seconds"]
    overhead = {}
    for mode in (ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ):
        elapsed = modes[mode.value]["elapsed_seconds"]
        overhead[mode.value] = round((elapsed / base - 1.0) * 100.0, 1)
    return {"buffer_pages": buffer_pages, "sweep_repeats": max(1, repeats),
            "modes": modes, "overhead_pct": overhead}


def measure_obs_overhead(txns: int, root: Path, repeats: int = 3) -> dict:
    """Instrumentation cost: live registry/tracer vs the no-op bundle.

    Both variants run the identical LOG_CONSISTENT workload with zero
    simulated I/O delay, so the comparison is pure CPU.  A discarded
    warm-up run primes allocator/bytecode caches, the variants are
    interleaved so CPU-frequency drift hits both equally, and the best
    of ``repeats`` runs per variant damps scheduler noise — the true
    cost is a few percent, small enough for timing artefacts to swamp
    a naive single-shot comparison.
    """
    scale = TPCCScale.small()

    def one_run(enabled: bool, tag: str) -> float:
        db = build_db(root / tag, ComplianceMode.LOG_CONSISTENT,
                      scale, buffer_pages=256, obs_enabled=enabled,
                      io_delay=0.0)
        driver = make_driver(db, scale)
        started = time.perf_counter()
        driver.run(txns)
        elapsed = time.perf_counter() - started
        db.close()
        return elapsed

    one_run(True, "obs-warmup")
    timings: dict = {True: None, False: None}
    for attempt in range(repeats):
        for enabled in (True, False):
            name = f"obs-{'on' if enabled else 'off'}-{attempt}"
            elapsed = one_run(enabled, name)
            best = timings[enabled]
            timings[enabled] = elapsed if best is None else \
                min(best, elapsed)
    pct = (timings[True] / timings[False] - 1.0) * 100.0
    return {
        "transactions": txns,
        "enabled_seconds": round(timings[True], 4),
        "disabled_seconds": round(timings[False], 4),
        "overhead_pct": round(pct, 2),
    }


def measure_digest_equivalence(txns: int, root: Path,
                               workers: int = 2) -> dict:
    """Byte-identity gate: pooled digests must equal inline digests.

    Two identically seeded HASH_ON_READ databases run the identical
    workload, one with the digest pool disabled (``hash_workers=0``)
    and one with ``workers`` pool threads.  A dry-run audit then
    replays every READ_HASH and recomputes the completeness fold both
    times: if pooling reordered or altered a single chain link, the
    comparable reports or the expected/final ADD-HASH digests would
    differ.  Any difference is a gate failure.
    """
    txns = min(txns, 200)
    scale = TPCCScale.small()
    reports: dict = {}
    digests: dict = {}
    pools: dict = {}
    for tag, hash_workers in (("inline", 0), ("pooled", workers)):
        db = build_db(root / f"equiv-{tag}", ComplianceMode.HASH_ON_READ,
                      scale, buffer_pages=256, io_delay=0.0,
                      hash_workers=hash_workers)
        make_driver(db, scale).run(txns)
        report = Auditor(db).audit(rotate=False)
        counters = db.metrics()["counters"]
        pools[tag] = {short: counters.get(
            f"digest_pool_{short}_total", 0)
            for short in ("submitted", "completed", "inline")}
        reports[tag] = report.comparable()
        digests[tag] = (report.expected_digest, report.final_digest)
        db.close()
    match = reports["inline"] == reports["pooled"] and \
        digests["inline"] == digests["pooled"]
    return {
        "transactions": txns,
        "hash_workers": workers,
        "reports_match": match,
        "expected_digest": digests["inline"][0],
        "digest_pool": pools,
    }


def measure_audit_scaling(txns: int, root: Path,
                          worker_counts: tuple = (2, 4, 8),
                          repeats: int = 2) -> dict:
    """Inline vs pooled audit of the same HASH_ON_READ database.

    The workload is built with zero simulated I/O delay (fast), then the
    pager is given :data:`AUDIT_IO_DELAY` per page read so the audit
    scan pays a realistic device latency — the inline plan ("serial")
    through the pager's calibrated spin, the pool workers through an
    equivalent blocking sleep that overlaps across processes the way
    real disk reads do.  Every audit is a dry run (``rotate=False``) of
    the identical epoch; each pooled report is compared against the
    inline one and any difference is reported as a gate failure.
    Timings are interleaved best-of-``repeats`` so drift hits every
    configuration equally.
    """
    scale = TPCCScale.small()
    db = build_db(root / "audit-scaling", ComplianceMode.HASH_ON_READ,
                  scale, buffer_pages=256, io_delay=0.0)
    make_driver(db, scale).run(txns)
    db.engine.pager.io_delay = AUDIT_IO_DELAY

    serial_report = Auditor(db).audit(rotate=False)
    configs: list = ["serial"] + list(worker_counts)
    best: dict = {name: None for name in configs}
    mismatches: list = []
    for _ in range(repeats):
        for name in configs:
            started = time.perf_counter()
            if name == "serial":
                report = Auditor(db).audit(rotate=False)
            else:
                report = Auditor(
                    db, workers=name,
                    chunk_pages=AUDIT_CHUNK_PAGES).audit(rotate=False)
            elapsed = time.perf_counter() - started
            if report.comparable() != serial_report.comparable():
                mismatches.append(name)
            prev = best[name]
            best[name] = elapsed if prev is None else min(prev, elapsed)
    pages = db.engine.pager.page_count
    db.close()

    serial_seconds = best.pop("serial")
    workers = {}
    for count in worker_counts:
        elapsed = best[count]
        workers[str(count)] = {
            "elapsed_seconds": round(elapsed, 4),
            "speedup": round(serial_seconds / elapsed, 2),
        }
    return {
        "transactions": txns,
        "io_delay_seconds": AUDIT_IO_DELAY,
        "chunk_pages": AUDIT_CHUNK_PAGES,
        "data_pages": pages,
        "pages_scanned": serial_report.pages_scanned,
        "log_records": serial_report.log_records,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "workers": workers,
        "reports_match": not mismatches,
        "mismatched_configs": sorted(set(str(m) for m in mismatches)),
    }


def measure_shard_scaling(txns: int, root: Path,
                          shard_counts: tuple = (1, 2, 4),
                          repeats: int = 2) -> dict:
    """The same TPC-C workload across 1, 2, and 4 shards.

    Two claims are gated:

    * **equality** — partitioning is invisible to the workload: every
      relation holds exactly the same keys no matter the shard count
      (the 1-shard run is the baseline);
    * **audit scaling** — each shard is a complete database audited
      independently, so the audit's critical path (the slowest single
      shard, i.e. wall-clock when shards are audited concurrently on
      separate boxes) shrinks as shards multiply.  Like the
      partitioned-audit section, each shard's pager pays
      :data:`AUDIT_IO_DELAY` per page read so the scan is I/O-bound the
      way the paper's terabyte worry is.
    """
    from repro.common.config import (ComplianceConfig, EngineConfig,
                                     ObsConfig)
    from repro.shard import DistributedAuditor, ShardedDB
    from repro.tpcc import TPCCLoader
    from repro.tpcc.driver import TPCCDriver
    from repro.tpcc.schema import ALL_SCHEMAS

    warehouses = max(shard_counts)
    scale = TPCCScale(warehouses=warehouses, districts_per_warehouse=4,
                      customers_per_district=10, items=50,
                      initial_orders_per_district=4, pad=4)
    config = DBConfig(
        engine=EngineConfig(page_size=2048, buffer_pages=256,
                            io_delay_seconds=0.0),
        compliance=ComplianceConfig(
            mode=ComplianceMode.LOG_CONSISTENT),
        obs=ObsConfig(enabled=True))

    baseline_keys: dict = {}
    mismatched: list = []
    unclean: list = []
    cells: dict = {}
    for shards in shard_counts:
        sharded = ShardedDB.create(root / f"shards-{shards}", shards,
                                   config)
        built = time.perf_counter()
        TPCCLoader(sharded, scale, seed=42).load()
        TPCCDriver(sharded, scale, seed=7).run(txns)
        sharded.checkpoint()
        build_seconds = time.perf_counter() - built

        keys = {schema.name: [k for k, _ in sharded.scan(schema.name)]
                for schema in ALL_SCHEMAS}
        if not baseline_keys:
            baseline_keys = keys
        elif keys != baseline_keys:
            mismatched.append(shards)

        for backend in sharded.backends:
            backend.engine.pager.io_delay = AUDIT_IO_DELAY
            backend.engine.buffer.drop_all()  # audit from cold cache
        best_total = None
        best_critical = None
        report = None
        for _ in range(repeats):
            for backend in sharded.backends:
                backend.engine.buffer.drop_all()
            started = time.perf_counter()
            report = DistributedAuditor(sharded).audit(rotate=False)
            elapsed = time.perf_counter() - started
            critical = max(report.shard_seconds)
            if best_total is None or elapsed < best_total:
                best_total = elapsed
            if best_critical is None or critical < best_critical:
                best_critical = critical
        if not (report.ok and report.verify(sharded.auditor_key)):
            unclean.append(shards)
        counters = sharded.metrics()["coordinator"]["counters"]
        cells[str(shards)] = {
            "build_seconds": round(build_seconds, 3),
            "audit_total_seconds": round(best_total, 4),
            "audit_critical_path_seconds": round(best_critical, 4),
            "pages_scanned": sum(r.pages_scanned
                                 for r in report.shard_reports),
            "final_tuples": report.final_tuples,
            "combined_final_digest": report.combined_final_digest[:32],
            "commits_1pc": counters.get("shard_commit_1pc_total", 0),
            "commits_2pc": counters.get("shard_commit_2pc_total", 0),
            "ok": report.ok,
        }
        sharded.close()

    lo, hi = str(min(shard_counts)), str(max(shard_counts))
    speedup = (cells[lo]["audit_critical_path_seconds"] /
               cells[hi]["audit_critical_path_seconds"])
    return {
        "transactions": txns,
        "warehouses": warehouses,
        "io_delay_seconds": AUDIT_IO_DELAY,
        "shards": cells,
        "contents_match": not mismatched,
        "mismatched_shard_counts": mismatched,
        "audits_clean": not unclean,
        "unclean_shard_counts": unclean,
        "critical_path_speedup": round(speedup, 2),
        # the trend gate: auditing the largest fleet concurrently must
        # beat auditing the single database (allow 10% noise)
        "critical_path_decreasing": speedup > 1.1,
    }


def _percentile_ms(sorted_ms: list, q: float):
    if not sorted_ms:
        return None
    index = min(len(sorted_ms) - 1,
                int(round(q * (len(sorted_ms) - 1))))
    return round(sorted_ms[index], 3)


def _server_concurrency_worker(host: str, port: int, wid: int,
                               ops: int, key_space: int,
                               out_queue) -> None:
    """One client process of the server-concurrency sweep.

    Module-level so it survives both fork and spawn start methods; it
    talks to the server purely over the wire, so the only state it
    shares with the serving process is the TCP connection — client-side
    GIL contention can no longer cap the measured throughput.
    """
    import random
    rng = random.Random(wid)
    latencies: list = []
    errors: list = []
    done = 0
    try:
        with ServerClient(host, port) as client:
            for i in range(ops):
                k = rng.randrange(key_space)
                value = f"w{wid}i{i}"
                for _attempt in range(50):
                    started = time.perf_counter()
                    try:
                        txn = client.begin()
                        row = client.get("kv", (k,), txn=txn)
                        if row is None:
                            client.insert(txn, "kv",
                                          {"k": k, "v": value})
                        else:
                            client.update(txn, "kv",
                                          {"k": k, "v": value})
                        client.commit(txn)
                    except ServerRequestError as exc:
                        if exc.retryable:
                            time.sleep(0.0005)
                            continue
                        raise
                    latencies.append(time.perf_counter() - started)
                    done += 1
                    break
    except Exception as exc:  # noqa: BLE001 - reported in the cell
        errors.append(f"w{wid}: {exc!r}")
    out_queue.put((wid, latencies, done, errors))


def measure_server_concurrency(root: Path,
                               connections: tuple = SERVER_CONNECTIONS,
                               total_txns: int = 256) -> dict:
    """Multi-client server: throughput + latency vs connection count.

    For each (mode, connection count) cell a fresh database is served
    in-process and N client **processes** split ``total_txns``
    read-write transactions over a small key space, retrying on
    ``CONFLICT`` and ``BUSY``.  Client processes (threads before PR 10)
    make the server's single-writer executor the bottleneck being
    measured — threaded clients shared the server's GIL and shaved the
    high-connection cells.  Work is held constant across cells so the
    sweep measures contention and dispatch cost, not workload growth.
    Each cell is gated: the history journal the server records is
    replayed serially into an identically seeded database and both
    audit reports must be identical (``AuditReport.comparable()``) —
    the concurrent run's compliance log is only trustworthy if it *is*
    a serial history.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    schema = Schema("kv", [Field("k", FieldType.INT),
                           Field("v", FieldType.STR)],
                    key_fields=["k"])
    mismatches: list = []
    out: dict = {}
    for mode in (ComplianceMode.LOG_CONSISTENT,
                 ComplianceMode.HASH_ON_READ):
        per_mode: dict = {}
        for conns in connections:
            tag = f"server-{mode.value}-{conns}"
            key = AuditorKey.generate()
            db = CompliantDB.create(root / tag,
                                    DBConfig.for_mode(mode),
                                    clock=SimulatedClock(),
                                    auditor_key=key)
            server = ComplianceServer(db, ServerConfig(
                max_queue_depth=max(64, 2 * conns),
                record_history=True)).start()
            db.create_relation(schema)
            server.service._record(
                ("create_relation", "kv",
                 [("k", "int"), ("v", "str")], ["k"], None))
            ops_per_conn = max(1, total_txns // conns)
            host, port = server.address
            out_queue = ctx.Queue()
            procs = [
                ctx.Process(target=_server_concurrency_worker,
                            args=(host, port, w, ops_per_conn,
                                  SERVER_KEYS, out_queue),
                            daemon=True)
                for w in range(conns)]
            wall_start = time.perf_counter()
            for proc in procs:
                proc.start()
            latencies: list = []
            committed_total = 0
            errors: list = []
            # drain results before join: a Queue's feeder pipe can
            # block a child's exit if the parent joins first
            for _ in procs:
                _wid, mine, done, worker_errors = out_queue.get()
                latencies.extend(mine)
                committed_total += done
                errors.extend(worker_errors)
            for proc in procs:
                proc.join()
            wall = time.perf_counter() - wall_start
            committed = [committed_total]
            server.shutdown()
            history = server.service.history_snapshot()

            live = Auditor(db).audit(rotate=False)
            replay_db = CompliantDB.create(root / f"{tag}-replay",
                                           DBConfig.for_mode(mode),
                                           clock=SimulatedClock(),
                                           auditor_key=key)
            replay_history(replay_db, history)
            serial = Auditor(replay_db).audit(rotate=False)
            cell_ok = (live.ok and serial.ok and
                       live.comparable() == serial.comparable() and
                       not errors)
            if not cell_ok:
                mismatches.append(f"{mode.value}/{conns}")
            metrics = db.metrics()["counters"]
            sorted_ms = sorted(value * 1000.0 for value in latencies)
            per_mode[str(conns)] = {
                "connections": conns,
                "txns_per_connection": ops_per_conn,
                "committed": committed[0],
                "wall_seconds": round(wall, 4),
                "tps": round(committed[0] / wall, 2) if wall else None,
                "latency_ms": {
                    "p50": _percentile_ms(sorted_ms, 0.50),
                    "p95": _percentile_ms(sorted_ms, 0.95),
                    "p99": _percentile_ms(sorted_ms, 0.99),
                },
                "conflicts": metrics.get(
                    "txn_lock_conflicts_total", 0),
                "busy_rejections": metrics.get("server_busy_total", 0),
                "history_ops": len(history),
                "audit_and_replay_ok": cell_ok,
                "errors": errors,
            }
            db.close()
            replay_db.close()
        out[mode.value] = per_mode
    return {
        "total_txns_per_cell": total_txns,
        "key_space": SERVER_KEYS,
        "modes": out,
        "reports_match": not mismatches,
        "mismatched_cells": mismatches,
    }


#: simulated per-WAL-flush device latency for the fan-out cell — one
#: forced write on the paper's 2009-era enterprise disk, same device
#: model as :data:`AUDIT_IO_DELAY`.  Unlike the pager's calibrated
#: spin, this must be a real ``time.sleep``: every bench shard lives in
#: one process, and only a GIL-releasing wait lets N shard writer
#: threads overlap their "fsyncs" the way N machines' disks would.
FANOUT_FSYNC_DELAY = 0.003


def _charge_wal_fsync(db, delay: float) -> None:
    """Tax the shard's durable WAL flushes with ``delay`` seconds."""
    real_flush = db.engine.wal.flush

    def flush():
        time.sleep(delay)
        return real_flush()

    db.engine.wal.flush = flush


def _fanout_fleet(root: Path, tag: str, shards: int, key,
                  fanout_workers):
    """N wire shards (own server + clock each) behind one coordinator."""
    from repro.shard import ShardedDB, WarehouseRouter

    dbs, servers, clients = [], [], []
    for i in range(shards):
        db = CompliantDB.create(
            root / f"{tag}-s{i}",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=SimulatedClock(), auditor_key=key)
        _charge_wal_fsync(db, FANOUT_FSYNC_DELAY)
        server = ComplianceServer(db, ServerConfig()).start()
        dbs.append(db)
        servers.append(server)
        clients.append(PipelinedClient(*server.address))
    sharded = ShardedDB(clients, WarehouseRouter(shards),
                        journal_path=root / f"{tag}-journal.jsonl",
                        auditor_key=key, fanout_workers=fanout_workers)
    return sharded, dbs, servers, clients


def _fanout_teardown(sharded, dbs, servers, clients) -> None:
    for client in clients:
        client.close()
    for server in servers:
        server.shutdown()
    for db in dbs:
        db.close()
    sharded.fanout.close()
    sharded.journal.close()


def measure_fanout_2pc(root: Path, shards: int = 4,
                       txns: int = 48, warmup: int = 6) -> dict:
    """Concurrent vs serial 2PC fan-out over ``shards`` wire shards.

    Every measured transaction writes one row per warehouse, and the
    :class:`WarehouseRouter` pins warehouse *w* to shard ``(w-1) % N``,
    so each commit is a full all-shard two-phase commit: N prepares
    (each an fsync'd PREPARE record on its own shard) + the decision +
    N commits.  Serially that is 2N sequential round-trips-plus-fsyncs;
    with the fan-out executor both phases run as *max* over shards.

    The comparison is only trusted when the cheap path proves it did
    the same work: per-relation contents equality between the two
    fleets, both distributed audits clean, and — because the per-shard
    operation sequences are deterministic and the fleets share one
    auditor key — **byte-identical** merged attestations.
    """
    from repro.shard import DistributedAuditor

    schema = Schema("spread", [Field("w", FieldType.INT),
                               Field("seq", FieldType.INT),
                               Field("v", FieldType.STR)],
                    key_fields=["w", "seq"])

    def run(tag: str, fanout_workers):
        # generate() is deterministic per name, so both fleets sign
        # with the same key and attestations are byte-comparable
        key = AuditorKey.generate("fanout-bench")
        sharded, dbs, servers, clients = _fanout_fleet(
            root, tag, shards, key, fanout_workers)
        sharded.create_relation(schema)
        latencies: list = []
        wall_start = time.perf_counter()
        for seq in range(warmup + txns):
            txn = sharded.begin()
            for w in range(1, shards + 1):
                sharded.insert(txn, "spread",
                               {"w": w, "seq": seq,
                                "v": f"s{seq}w{w}"})
            assert len(txn.writes) == shards
            started = time.perf_counter()
            sharded.commit(txn)
            if seq >= warmup:
                latencies.append(time.perf_counter() - started)
        wall = time.perf_counter() - wall_start
        contents = [k for k, _ in sharded.scan("spread")]
        report = DistributedAuditor(sharded, key).audit(rotate=False)
        counters = sharded.metrics()["coordinator"]["counters"]
        cell = {
            "fanout_workers": sharded.fanout_workers,
            "commit_p50_ms": round(
                statistics.median(latencies) * 1000.0, 3),
            "commit_mean_ms": round(
                statistics.fmean(latencies) * 1000.0, 3),
            "wall_seconds": round(wall, 4),
            "commits_2pc": counters.get("shard_commit_2pc_total", 0),
            "audit_ok": bool(report.ok and report.verify(key)),
        }
        _fanout_teardown(sharded, dbs, servers, clients)
        return cell, contents, report

    serial_cell, serial_contents, serial_report = run("ser", 1)
    conc_cell, conc_contents, conc_report = run("conc", None)
    speedup = (serial_cell["commit_p50_ms"] /
               conc_cell["commit_p50_ms"]) \
        if conc_cell["commit_p50_ms"] else None
    # the acceptance bar: >= 1.5x over >= 4 remote shards; smaller
    # smoke fleets only need to show the direction
    min_speedup = 1.5 if shards >= 4 else 1.1
    return {
        "shards": shards,
        "measured_txns": txns,
        "serial": serial_cell,
        "concurrent": conc_cell,
        "speedup": round(speedup, 2) if speedup else None,
        "min_speedup": min_speedup,
        "speedup_ok": bool(speedup and speedup >= min_speedup),
        "contents_match": serial_contents == conc_contents,
        "audits_clean": bool(serial_cell["audit_ok"] and
                             conc_cell["audit_ok"]),
        "attestation_identical": (
            serial_report.message == conc_report.message and
            serial_report.attestation == conc_report.attestation),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--txns", type=int, default=600,
                        help="transactions per mode (default 600)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCH_PR10.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="embed a previously captured report")
    parser.add_argument("--check-baseline", type=Path, default=None,
                        help="trend gate: fail when a mode's overhead "
                             "exceeds this report's by more than "
                             "--tolerance percentage points")
    parser.add_argument("--tolerance", type=float, default=15.0,
                        help="noise tolerance for --check-baseline, in "
                             "percentage points (default 15)")
    parser.add_argument("--hash-workers", type=int, default=2,
                        help="digest-pool threads for the equivalence "
                             "gate (default 2)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="interleaved attempts per mode in the "
                             "sweep (default 2; 1 under --quick)")
    parser.add_argument("--label", default="current",
                        help="name for this capture (e.g. git describe)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing (fewer transactions)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if instrumentation overhead exceeds "
                             "this percentage")
    parser.add_argument("--audit-only", action="store_true",
                        help="run only the audit-scaling section")
    parser.add_argument("--audit-workers", default=None,
                        help="comma-separated worker counts for the "
                             "audit-scaling section (default 2,4,8; "
                             "2 under --quick)")
    parser.add_argument("--server-only", action="store_true",
                        help="run only the concurrent-clients server "
                             "section")
    parser.add_argument("--shard-only", action="store_true",
                        help="run only the shard-scaling section")
    parser.add_argument("--fanout-only", action="store_true",
                        help="run only the concurrent-vs-serial 2PC "
                             "fan-out cell (wire shards + pipelined "
                             "connections)")
    parser.add_argument("--shards", default=None,
                        help="comma-separated shard counts for the "
                             "shard-scaling section (default 1,2,4; "
                             "1,2 under --quick)")
    parser.add_argument("--fanout-shards", type=int, default=None,
                        help="remote shard count for the fan-out cell "
                             "(default 4; 2 under --quick)")
    parser.add_argument("--connections", default=None,
                        help="comma-separated connection counts for the "
                             "server section (default 1,4,16,64; "
                             "1,4 under --quick)")
    args = parser.parse_args(argv)
    if args.quick:
        args.txns = min(args.txns, 120)
    if args.txns < 1:
        parser.error("--txns must be at least 1")
    if args.baseline is not None and not args.baseline.exists():
        parser.error(f"--baseline file not found: {args.baseline}")
    if args.check_baseline is not None and not args.check_baseline.exists():
        parser.error(
            f"--check-baseline file not found: {args.check_baseline}")
    if args.hash_workers < 1:
        parser.error("--hash-workers must be at least 1")
    if args.audit_workers is not None:
        try:
            worker_counts = tuple(
                int(part) for part in args.audit_workers.split(","))
        except ValueError:
            parser.error("--audit-workers must be comma-separated ints")
        if any(count < 1 for count in worker_counts):
            parser.error("--audit-workers counts must be >= 1")
    else:
        worker_counts = (2,) if args.quick else (2, 4, 8)
    if sum([args.audit_only, args.server_only, args.shard_only,
            args.fanout_only]) > 1:
        parser.error("--audit-only, --server-only, --shard-only and "
                     "--fanout-only are exclusive")
    if args.fanout_shards is None:
        args.fanout_shards = 2 if args.quick else 4
    if args.fanout_shards < 2:
        parser.error("--fanout-shards must be at least 2 (a 2PC needs "
                     "two writers)")
    if args.shards is not None:
        try:
            shard_counts = tuple(
                int(part) for part in args.shards.split(","))
        except ValueError:
            parser.error("--shards must be comma-separated ints")
        if any(count < 1 for count in shard_counts):
            parser.error("--shards counts must be >= 1")
    else:
        shard_counts = (1, 2) if args.quick else (1, 2, 4)
    if args.connections is not None:
        try:
            server_connections = tuple(
                int(part) for part in args.connections.split(","))
        except ValueError:
            parser.error("--connections must be comma-separated ints")
        if any(count < 1 for count in server_connections):
            parser.error("--connections counts must be >= 1")
    else:
        server_connections = (1, 4) if args.quick \
            else SERVER_CONNECTIONS

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        report = {}
        solo = args.audit_only or args.server_only or \
            args.shard_only or args.fanout_only
        if not solo:
            report = run_sweep(args.txns, Path(tmp),
                               repeats=1 if args.quick else args.repeats)
            report["instrumentation_overhead"] = measure_obs_overhead(
                args.txns, Path(tmp))
            report["digest_equivalence"] = measure_digest_equivalence(
                args.txns, Path(tmp), workers=args.hash_workers)
        if not solo or args.audit_only:
            report["audit_scaling"] = measure_audit_scaling(
                args.txns, Path(tmp), worker_counts=worker_counts,
                repeats=1 if args.quick else 2)
        if not solo or args.server_only:
            report["server_concurrency"] = measure_server_concurrency(
                Path(tmp), connections=server_connections,
                total_txns=64 if args.quick else 256)
        if not solo or args.shard_only:
            report["shard_scaling"] = measure_shard_scaling(
                args.txns, Path(tmp), shard_counts=shard_counts,
                repeats=1 if args.quick else 2)
        if not solo or args.shard_only or args.fanout_only:
            report.setdefault("shard_scaling", {})["fanout_2pc"] = \
                measure_fanout_2pc(
                    Path(tmp), shards=args.fanout_shards,
                    txns=16 if args.quick else 48,
                    warmup=2 if args.quick else 6)
    report = {"label": args.label, "transactions_per_mode": args.txns,
              "scale": "small", "quick": args.quick, **report}
    if args.baseline is not None:
        report["baseline"] = json.loads(args.baseline.read_text())
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for mode, pct in report.get("overhead_pct", {}).items():
        print(f"  {mode} overhead: {pct:+.1f}%")
    for mode, entry in report.get("modes", {}).items():
        per_k = entry.get("worm_flushes_per_1000_txns")
        if per_k is not None:
            print(f"  {mode} WORM flushes/1000 txns: {per_k}")
    obs = report.get("instrumentation_overhead")
    if obs is not None:
        print(f"  obs instrumentation overhead: "
              f"{obs['overhead_pct']:+.2f}% over "
              f"{obs['transactions']} txns")
    equiv = report.get("digest_equivalence")
    if equiv is not None:
        verdict = "identical" if equiv["reports_match"] else "DIFFER"
        pooled = equiv["digest_pool"]["pooled"]
        print(f"  digest equivalence (workers="
              f"{equiv['hash_workers']}): reports {verdict} "
              f"({pooled['submitted']} pooled submissions)")
    audit = report.get("audit_scaling")
    if audit is not None:
        print(f"  audit serial: {audit['serial_seconds']}s over "
              f"{audit['pages_scanned']} pages / "
              f"{audit['log_records']} log records")
        for count, entry in audit["workers"].items():
            print(f"  audit {count} workers: "
                  f"{entry['elapsed_seconds']}s "
                  f"({entry['speedup']}x)")
    server = report.get("server_concurrency")
    if server is not None:
        for mode, cells in server["modes"].items():
            for count, cell in cells.items():
                lat = cell["latency_ms"]
                print(f"  server {mode} x{count}: "
                      f"{cell['tps']} txn/s, p50 {lat['p50']}ms, "
                      f"p95 {lat['p95']}ms, p99 {lat['p99']}ms "
                      f"({cell['conflicts']} conflicts)")
    shard = report.get("shard_scaling")
    if shard is not None and "shards" in shard:
        for count, cell in shard["shards"].items():
            print(f"  shard x{count}: audit critical path "
                  f"{cell['audit_critical_path_seconds']}s "
                  f"(total {cell['audit_total_seconds']}s, "
                  f"{cell['pages_scanned']} pages, "
                  f"{cell['commits_2pc']} 2PC commits)")
        print(f"  shard critical-path speedup "
              f"{shard['critical_path_speedup']}x at "
              f"{max(shard['shards'])} shards")
    fanout = (shard or {}).get("fanout_2pc")
    if fanout is not None:
        print(f"  fanout 2PC over {fanout['shards']} wire shards: "
              f"serial p50 {fanout['serial']['commit_p50_ms']}ms vs "
              f"concurrent p50 "
              f"{fanout['concurrent']['commit_p50_ms']}ms "
              f"({fanout['speedup']}x, "
              f"{fanout['concurrent']['fanout_workers']} workers)")
    failed = False
    if shard is not None and "shards" in shard:
        if not shard["contents_match"]:
            print("  FAIL: sharded table contents diverge from the "
                  f"1-shard baseline: {shard['mismatched_shard_counts']}",
                  file=sys.stderr)
            failed = True
        if not shard["audits_clean"]:
            print("  FAIL: distributed audit unclean at shard counts "
                  f"{shard['unclean_shard_counts']}", file=sys.stderr)
            failed = True
        if not shard["critical_path_decreasing"]:
            print("  FAIL: audit critical path did not shrink with "
                  "the shard count "
                  f"({shard['critical_path_speedup']}x)",
                  file=sys.stderr)
            failed = True
    if fanout is not None:
        if not fanout["contents_match"]:
            print("  FAIL: fan-out fleets' table contents diverge",
                  file=sys.stderr)
            failed = True
        if not fanout["audits_clean"]:
            print("  FAIL: fan-out fleet audit(s) unclean",
                  file=sys.stderr)
            failed = True
        if not fanout["attestation_identical"]:
            print("  FAIL: serial and concurrent fan-out attestations "
                  "are not byte-identical", file=sys.stderr)
            failed = True
        if not fanout["speedup_ok"]:
            print(f"  FAIL: concurrent 2PC fan-out speedup "
                  f"{fanout['speedup']}x below the "
                  f"{fanout['min_speedup']}x bar at "
                  f"{fanout['shards']} shards", file=sys.stderr)
            failed = True
    if audit is not None and not audit["reports_match"]:
        print("  FAIL: parallel audit report(s) differ from serial: "
              f"{audit['mismatched_configs']}", file=sys.stderr)
        failed = True
    if server is not None and not server["reports_match"]:
        print("  FAIL: concurrent server audit/replay mismatch: "
              f"{server['mismatched_cells']}", file=sys.stderr)
        failed = True
    if equiv is not None and not equiv["reports_match"]:
        print("  FAIL: pooled digests differ from inline digests",
              file=sys.stderr)
        failed = True
    if obs is not None and args.max_overhead is not None and \
            obs["overhead_pct"] > args.max_overhead:
        print(f"  FAIL: overhead above --max-overhead "
              f"{args.max_overhead}%", file=sys.stderr)
        failed = True
    if args.check_baseline is not None:
        base = json.loads(args.check_baseline.read_text())
        base_overhead = base.get("overhead_pct", {})
        for mode, pct in report.get("overhead_pct", {}).items():
            ref = base_overhead.get(mode)
            if ref is None:
                continue
            if pct > ref + args.tolerance:
                print(f"  FAIL: {mode} overhead {pct:+.1f}% exceeds "
                      f"baseline {ref:+.1f}% by more than "
                      f"{args.tolerance} points", file=sys.stderr)
                failed = True
            else:
                print(f"  trend {mode}: {pct:+.1f}% vs baseline "
                      f"{ref:+.1f}% (tolerance {args.tolerance})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
