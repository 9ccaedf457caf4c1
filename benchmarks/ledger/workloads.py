"""The five device-free workloads and the five-phase run over each.

Every workload is a *target* with one interface — ``setup``,
``run_ops``, ``counters``, ``verify``, ``state_digest``,
``crash_recover``, ``tamper``, ``close`` — so :func:`run_workload` can
drive the same phases over an embedded database, a sharded one and a
served one:

A. set up (create + load + checkpoint, + server start)   -> ``setup_s``
B. a fixed, seeded number of closed-loop ops, timed      -> throughput,
   latency, counters
C. a timed verification that must come back clean        -> ``audit_s``
D. 5 % more ops, a crash, a timed recovery; the state acknowledged
   before the crash must read back identically and verify clean again
E. one tamper behind the DBMS's back; verification must now **fail**

All I/O is device-free (``io_delay_seconds=0``): device cost is counted
in ``counters``, never burned as a busy-wait.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, DistributedAuditor, EngineConfig, ShardedDB,
                   SimulatedClock)
from repro.btree.integrity import check_tree
from repro.common.clock import seconds
from repro.common.codec import Field, FieldType, Schema
from repro.common.errors import ServerRequestError
from repro.core.attacks import Adversary
from repro.server import ComplianceServer, ServerClient, ServerConfig
from repro.server.protocol import BUSY
from repro.storage.page import Page
from repro.tpcc.driver import MIX
from repro.tpcc.loader import TPCCLoader
from repro.tpcc.schema import TPCCScale
from repro.tpcc.transactions import TPCCTransactions

from tracer import Tracer

SCALE = TPCCScale.medium()
LOADER_SEED = 42
PAGE_SIZE = 2048
#: 10 % of the 1 156 pages the loaded population occupies (about 3 % by
#: the end of a run): data >> cache
COLD_BUFFER_PAGES = 116
#: the two-shard population is 2 x ~600 pages and never outgrows this
RESIDENT_BUFFER_PAGES = 4096
#: simulated time between TPC-C transactions.  With the default 5-minute
#: regret interval, maintenance (checkpoint + witness) fires every 120
#: transactions, so an 800-transaction run sees six full cycles.
TXN_GAP = seconds(2.5)
#: relations whose rows make up the acknowledged-state digest: every
#: TPC-C write transaction inserts into or updates at least two of
#: them.  Not all nine, because in HASH_ON_READ a full scan of a cold
#: database logs a READ_HASH per page and would double the cost of the
#: audits that follow; the audit itself covers every tuple.
DIGEST_RELATIONS = ("warehouse", "district", "new_order", "orders",
                    "history")
KV_KEYS = 4096
KV_SCHEMA = Schema("kv", [Field("k", FieldType.INT),
                          Field("v", FieldType.STR)], key_fields=["k"])
KV_ATTEMPTS = 20
#: ops per throughput segment (per client).  ``ops_per_s`` is the median
#: segment's rate, so a burst of interference shorter than half a run
#: does not move it; a TPC-C segment is one deck, i.e. the exact mix.
TPCC_SEGMENT = 100
KV_SEGMENT = 400
#: a timed verification or recovery is repeated until this much time
#: has been measured (or ``MAX_REPEATS`` times) and the median reported:
#: a 0.1 s measurement is at the mercy of one burst of interference
REPEAT_BUDGET_S = 3.0
MAX_REPEATS = 15
#: set-ups per full run; ``setup_s`` is their median
SETUPS = 3

#: name -> (ops per ``--seconds`` second, why).  The rate freezes the
#: *work*: ops = rate x seconds, whatever the machine's speed, so counts
#: repeat exactly.  The three cold workloads share one rate, hence one N.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "tpcc_regular_cold": {
        "ops_per_second": 200,
        "why": "Fig 3(a) denominator: REGULAR TPC-C, data >> cache; "
               "bypasses every compliance layer, so only an engine "
               "change may move it",
    },
    "tpcc_lc_cold": {
        "ops_per_second": 200,
        "why": "Fig 3(a) +10%: LOG_CONSISTENT adds write-back diff, "
               "NEW_TUPLE/STAMP_TRANS and WORM barriers but no read "
               "hashing; audit is completeness-fold-bound",
    },
    "tpcc_hr_cold": {
        "ops_per_second": 200,
        "why": "Fig 3(a) +20%: HASH_ON_READ hashes and logs every "
               "buffer miss; page decode and crypto are largest here; "
               "audit is log-replay-bound",
    },
    "shard2_tpcc_resident": {
        "ops_per_second": 400,
        "why": "cache-fits regime (Fig 3(c)) over 2 in-process shards: "
               "btree+temporal dominate, cold-path changes predict no "
               "move; only place 1PC/2PC, journal and fan-out run",
    },
    "wire_kv_mixed": {
        "ops_per_second": 1600,
        "why": "served 4-round-trip kv txns, half read-only, over 2 "
               "closed-loop connections: commit-dominated, one WORM "
               "barrier per commit, wire codec and writer queue",
    },
}

DECK = [kind for kind, weight in MIX for _ in range(weight)]
#: TPCCTransactions' detail string for the by-spec 1 % New-Order
#: rollback, which is an outcome and not a failure
SPEC_ROLLBACK = "unused item rollback"


def ops_for(name: str, run_seconds: float) -> int:
    """Fixed op count of a run: rate x seconds (TPC-C: whole decks)."""
    ops = WORKLOADS[name]["ops_per_second"] * run_seconds
    if name == "wire_kv_mixed":
        return max(2, int(ops))
    return max(100, int(round(ops / 100.0)) * 100)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _flatten(reports: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum ``metrics()`` reports into one flat name -> number map.

    Histograms contribute ``name:sum`` and ``name:count``; the
    ``hash_*`` gauges mirror one process-wide counter into every
    registry, so they are taken once, not summed over shards.
    """
    flat: Dict[str, float] = {}
    for report in reports:
        for name, value in report.get("counters", {}).items():
            flat[name] = flat.get(name, 0) + value
        for name, value in report.get("gauges", {}).items():
            if name.startswith("hash_"):
                flat[name] = max(flat.get(name, 0), value)
        for name, hist in report.get("histograms", {}).items():
            for part in ("sum", "count"):
                key = f"{name}:{part}"
                flat[key] = flat.get(key, 0) + hist[part]
    return flat


def _rows_digest(rows: List[Any]) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


# -- TPC-C targets (embedded and sharded) -------------------------------


class TpccLoop:
    """Closed loop of the standard mix, dealt from shuffled 100-card
    decks (spec 5.2.4.2) so every 100 transactions hold the exact
    45/43/4/4/4 mix whatever the seed — a sampled mix moves throughput
    by several percent between seeds through Delivery's share alone."""

    def __init__(self, db: Any, seed: int):
        self._db = db
        self._txns = TPCCTransactions(db, SCALE, seed=seed)
        self._rng = random.Random(seed ^ 0x5F5F)
        self._deck: List[str] = []

    def run(self, count: int) -> Dict[str, Any]:
        db = self._db
        clock = time.perf_counter
        latencies: Dict[str, List[float]] = {k: [] for k, _ in MIX}
        maintenance = 0.0
        rollbacks = failed = 0
        segment = min(TPCC_SEGMENT, count)
        segments: List[float] = []
        begun = mark = clock()
        for done in range(1, count + 1):
            if not self._deck:
                self._deck = DECK[:]
                self._rng.shuffle(self._deck)
            kind = self._deck.pop()
            start = clock()
            try:
                outcome = getattr(self._txns, kind)()
            except Exception:  # noqa: BLE001 - counted, run goes on
                outcome = None
            db.clock.advance(TXN_GAP)
            ran = clock()
            # a TPC-C op's latency includes the maintenance call that
            # follows it, as in TPCCDriver.run
            db.maintenance()
            end = clock()
            maintenance += end - ran
            latencies[kind].append((end - start) * 1000.0)
            if outcome is None:
                failed += 1
            elif not outcome.committed:
                if outcome.detail == SPEC_ROLLBACK:
                    rollbacks += 1
                else:
                    failed += 1
            if done % segment == 0:
                segments.append(end - mark)
                mark = end
        wall = clock() - begun
        return {"attempted": count, "failed": failed,
                "rollbacks": rollbacks, "retries": 0,
                "latencies_ms": latencies, "maintenance_s": maintenance,
                "segment_ops": segment, "segment_s": segments,
                "wall_s": wall, "client_seconds": wall}


class TpccTarget:
    """TPC-C over an embedded ``CompliantDB`` or an in-process
    ``ShardedDB`` (``shards > 1``)."""

    clients = 1

    def __init__(self, root: Path, seed: int, mode: ComplianceMode,
                 buffer_pages: int, shards: int = 1,
                 tracer: Optional[Tracer] = None):
        self._root = root
        self._seed = seed
        self._mode = mode
        self._buffer_pages = buffer_pages
        self._shards = shards
        self._tracer = tracer
        self.db: Any = None
        self._loop: Optional[TpccLoop] = None

    def setup(self) -> None:
        config = DBConfig(
            engine=EngineConfig(page_size=PAGE_SIZE,
                                buffer_pages=self._buffer_pages,
                                io_delay_seconds=0.0),
            compliance=ComplianceConfig(mode=self._mode))
        if self._shards > 1:
            self.db = ShardedDB.create(self._root, self._shards, config)
        else:
            self.db = CompliantDB.create(self._root, config,
                                         clock=SimulatedClock())
        # load() ends with a checkpoint
        TPCCLoader(self.db, SCALE, seed=LOADER_SEED).load()
        self._loop = TpccLoop(self.db, self._seed)

    def _backends(self) -> List[CompliantDB]:
        return list(getattr(self.db, "backends", [self.db]))

    def run_ops(self, count: int) -> Dict[str, Any]:
        assert self._loop is not None
        return self._loop.run(count)

    def counters(self) -> Dict[str, float]:
        backends = self._backends()
        reports = [backend.metrics() for backend in backends]
        if self._shards > 1:
            reports.append(self.db.metrics()["coordinator"])
        flat = _flatten(reports)
        flat["wal_bytes"] = sum(
            backend.engine.wal.path.stat().st_size
            for backend in backends)
        flat["data_file_bytes"] = sum(
            backend.engine.pager.page_count * PAGE_SIZE
            for backend in backends)
        return flat

    def ledger(self) -> Dict[str, Any]:
        assert self._tracer is not None
        return {"local": self._tracer.take()}

    def verify(self) -> Dict[str, Any]:
        start = time.perf_counter()
        if self._mode is ComplianceMode.REGULAR:
            verdict = self._structural_check()
        elif self._shards > 1:
            report = DistributedAuditor(self.db).audit(rotate=False)
            verdict = {
                "ok": report.ok and report.verify(self.db.auditor_key),
                "final_digest": report.combined_final_digest + ":" +
                report.attestation.hex(),
                "log_records": sum(r.log_records
                                   for r in report.shard_reports),
                "pages_scanned": sum(r.pages_scanned
                                     for r in report.shard_reports)}
        else:
            report = Auditor(self.db).audit(rotate=False)
            verdict = {"ok": report.ok,
                       "final_digest": report.final_digest,
                       "log_records": report.log_records,
                       "pages_scanned": report.pages_scanned}
        verdict["seconds"] = time.perf_counter() - start
        return verdict

    def _structural_check(self) -> Dict[str, Any]:
        """REGULAR has no auditor; its one whole-database verification
        is the structural integrity check over the on-disk pages — the
        same bytes the auditor's final-state scan reads."""
        db = self.db
        db.prepare_for_audit()
        pager = db.engine.pager
        fetched = 0

        def fetch(pgno: int) -> Page:
            nonlocal fetched
            fetched += 1
            return Page.from_bytes(pager.read_raw(pgno))

        issues = 0
        for name in db.engine.relation_names():
            issues += len(check_tree(
                fetch, db.engine.relation(name).root_pgno))
        return {"ok": issues == 0, "final_digest": "",
                "log_records": 0, "pages_scanned": fetched}

    def state_digest(self) -> str:
        return _rows_digest([
            (name, key, sorted(row.items()))
            for name in DIGEST_RELATIONS
            for key, row in self.db.scan(name)])

    def crash_recover(self) -> float:
        if self._shards > 1:
            start = time.perf_counter()
            self.db.crash_recover()
            return time.perf_counter() - start
        self.db.crash()
        start = time.perf_counter()
        self.db.recover()
        return time.perf_counter() - start

    def tamper(self) -> None:
        if self._shards > 1:
            victim = self.db.backends[
                self.db.router.shard_of("warehouse", (1,))]
        else:
            victim = self.db
        adversary = Adversary(victim)
        adversary.settle()
        if self._mode is ComplianceMode.REGULAR:
            adversary.swap_leaf_entries("customer")
        else:
            row = dict(victim.get("warehouse", (1,)))
            row["w_name"] = "tampered"
            adversary.settle()  # the get above re-cached the page
            adversary.alter_tuple("warehouse", (1,), row)

    def close(self) -> Dict[str, Any]:
        self.db.close()
        return {"peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# -- the served kv target -----------------------------------------------


def _bump(value: str) -> str:
    return f"{int(value) + 1:016d}"


def _serve_kv(conn: Any, root: str, traced: bool, cpu: int) -> None:
    """Server child: owns the database, serves it, obeys ``conn``.

    Everything that touches the database after the server started runs
    on the writer thread, like every request does.
    """
    os.sched_setaffinity(0, {cpu})
    tracer = Tracer().install() if traced else None
    try:
        db = CompliantDB.create(
            Path(root), DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=SimulatedClock())
        db.create_relation(KV_SCHEMA)
        rows = [{"k": k, "v": f"{0:016d}"} for k in range(KV_KEYS)]
        for lo in range(0, KV_KEYS, 512):
            with db.transaction() as txn:
                db.insert_many(txn, "kv", rows[lo:lo + 512])
        db.checkpoint()
        server = ComplianceServer(
            db, ServerConfig(allow_crash_ops=True)).start()
        conn.send(server.port)

        def tamper() -> None:
            adversary = Adversary(db)
            adversary.settle()
            adversary.alter_tuple("kv", (7,), {"k": 7, "v": "tampered"})

        while True:
            command = conn.recv()
            if command == "ledger":
                conn.send(tracer.take() if tracer is not None else None)
            elif command == "tamper":
                server.service.executor.submit(
                    tamper, force=True).result(timeout=60)
                conn.send(True)
            else:  # "stop"
                server.shutdown()
                db.close()
                conn.send({"peak_rss_mib": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0})
                return
    finally:
        if tracer is not None:
            tracer.uninstall()


class WireKvTarget:
    """One ``ComplianceServer`` in a child process; this process is the
    single load generator, one closed loop per connection."""

    def __init__(self, root: Path, seed: int,
                 tracer: Optional[Tracer] = None):
        self._root = root
        self._seed = seed
        self._tracer = tracer
        cpus = sorted(os.sched_getaffinity(0))
        self.clients = min(2, len(cpus))
        #: generator and server child share ONE CPU.  On two CPUs every
        #: round trip is a cross-CPU wake-up through the hypervisor,
        #: whose latency swings with the host: measured here, same-seed
        #: throughput spread 9-14 % split across CPUs (and ~1 000 op/s
        #: unpinned) against 4-6 % at ~1 700 op/s on one CPU.  Sharing
        #: a CPU, throughput is the CPU cost of both sides of a txn.
        self.pinned_cpu = cpus[-1]
        self._process: Any = None
        self._conn: Any = None
        self._port = 0
        self._control: Optional[ServerClient] = None
        self._rngs: List[random.Random] = []
        self._restore_affinity: Optional[set] = None

    def setup(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_serve_kv,
            args=(child_conn, str(self._root), self._tracer is not None,
                  self.pinned_cpu))
        self._process.start()
        child_conn.close()
        if not self._conn.poll(120):
            raise RuntimeError("server child did not come up")
        self._port = self._conn.recv()
        self._control = ServerClient("127.0.0.1", self._port,
                                     request_timeout=120.0)
        self._rngs = [random.Random(self._seed * 1_000_003 + index)
                      for index in range(self.clients)]
        self._restore_affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.pinned_cpu})

    def _client_loop(self, index: int, count: int,
                     out: Dict[int, Any]) -> None:
        rng = self._rngs[index]
        clock = time.perf_counter
        stride = self.clients
        latencies: Dict[str, List[float]] = {"read": [], "rmw": []}
        failed = retries = 0
        error: Optional[str] = None
        segment = min(KV_SEGMENT, count)
        segments: List[float] = []
        begun = mark = clock()
        try:
            with ServerClient("127.0.0.1", self._port) as client:
                for done in range(1, count + 1):
                    read_only = rng.random() < 0.5
                    first = rng.randrange(KV_KEYS)
                    second = rng.randrange(KV_KEYS)
                    # each connection updates only its own residue
                    # class, so the final rows do not depend on how the
                    # connections interleave; reads roam over all keys
                    own = index + stride * rng.randrange(
                        KV_KEYS // stride)
                    start = clock()
                    for _attempt in range(KV_ATTEMPTS):
                        txn = None
                        try:
                            txn = client.begin()
                            if read_only:
                                client.get("kv", (first,), txn=txn)
                                client.get("kv", (second,), txn=txn)
                            else:
                                row = client.get("kv", (own,), txn=txn)
                                client.update(txn, "kv", {
                                    "k": own, "v": _bump(row["v"])})
                            client.commit(txn)
                            break
                        except ServerRequestError as exc:
                            if not exc.retryable:
                                raise
                            retries += 1
                            if exc.code == BUSY and txn is not None:
                                # refused, not aborted: the txn is
                                # still open and holds its locks
                                client.abort(txn)
                            time.sleep(0.0005)
                    else:
                        failed += 1
                    end = clock()
                    latencies["read" if read_only else "rmw"].append(
                        (end - start) * 1000.0)
                    if done % segment == 0:
                        segments.append(end - mark)
                        mark = end
        except Exception as exc:  # noqa: BLE001 - reported by the run
            error = repr(exc)
        out[index] = {"latencies_ms": latencies, "failed": failed,
                      "retries": retries, "error": error,
                      "segment_s": segments, "seconds": clock() - begun}

    def run_ops(self, count: int) -> Dict[str, Any]:
        per_client = max(1, count // self.clients)
        out: Dict[int, Any] = {}
        threads = [threading.Thread(target=self._client_loop,
                                    args=(index, per_client, out))
                   for index in range(self.clients)]
        begun = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begun
        attempted = per_client * self.clients
        latencies: Dict[str, List[float]] = {"read": [], "rmw": []}
        failed = retries = 0
        for index in range(self.clients):
            mine = out[index]
            for kind, values in mine["latencies_ms"].items():
                latencies[kind].extend(values)
            retries += mine["retries"]
            failed += mine["failed"]
            if mine["error"] is not None:
                # a connection that died lost the rest of its ops
                done = sum(len(v) for v in mine["latencies_ms"].values())
                failed += per_client - done
        return {"attempted": attempted, "failed": failed, "rollbacks": 0,
                "retries": retries, "latencies_ms": latencies,
                "maintenance_s": 0.0, "segment_ops": min(KV_SEGMENT, per_client),
                "segment_s": [took for i in range(self.clients)
                              for took in out[i]["segment_s"]],
                "wall_s": wall,
                "client_seconds": sum(out[i]["seconds"]
                                      for i in range(self.clients))}

    def counters(self) -> Dict[str, float]:
        assert self._control is not None
        flat = _flatten([self._control.metrics()])
        engine_dir = self._root / "db"
        flat["wal_bytes"] = (engine_dir / "wal.log").stat().st_size
        flat["data_file_bytes"] = (engine_dir / "data.db").stat().st_size
        return flat

    def ledger(self) -> Dict[str, Any]:
        assert self._tracer is not None
        self._conn.send("ledger")
        return {"local": self._tracer.take(),
                "server": self._conn.recv()}

    def verify(self) -> Dict[str, Any]:
        assert self._control is not None
        start = time.perf_counter()
        report = self._control.audit(rotate=False)
        return {"seconds": time.perf_counter() - start, "ok": report.ok,
                "final_digest": report.final_digest,
                "log_records": report.log_records,
                "pages_scanned": report.pages_scanned}

    def state_digest(self) -> str:
        assert self._control is not None
        return _rows_digest([(key, sorted(row.items())) for key, row
                             in self._control.scan("kv")])

    def crash_recover(self) -> float:
        assert self._control is not None
        start = time.perf_counter()
        self._control.crash_recover()
        return time.perf_counter() - start

    def tamper(self) -> None:
        self._conn.send("tamper")
        self._conn.recv()

    def close(self) -> Dict[str, Any]:
        if self._restore_affinity is not None:
            os.sched_setaffinity(0, self._restore_affinity)
            self._restore_affinity = None
        result: Dict[str, Any] = {}
        try:
            if self._control is not None:
                self._control.close()
            if self._process.is_alive():
                self._conn.send("stop")
                if self._conn.poll(60):
                    result = self._conn.recv()
        finally:
            self._process.join(timeout=30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._conn.close()
        return result


def make_target(name: str, root: Path, seed: int,
                tracer: Optional[Tracer]) -> Any:
    if name == "wire_kv_mixed":
        return WireKvTarget(root, seed, tracer)
    if name == "shard2_tpcc_resident":
        return TpccTarget(root, seed, ComplianceMode.LOG_CONSISTENT,
                          RESIDENT_BUFFER_PAGES, shards=2, tracer=tracer)
    mode = {"tpcc_regular_cold": ComplianceMode.REGULAR,
            "tpcc_lc_cold": ComplianceMode.LOG_CONSISTENT,
            "tpcc_hr_cold": ComplianceMode.HASH_ON_READ}[name]
    return TpccTarget(root, seed, mode, COLD_BUFFER_PAGES, tracer=tracer)


# -- the run ------------------------------------------------------------


def _delta(before: Dict[str, float],
           after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def _summary(latencies: Dict[str, List[float]]) -> Dict[str, Any]:
    """p50/p99 with sample counts, overall and per kind."""
    def one(values: List[float]) -> Dict[str, Any]:
        ordered = sorted(values)
        if not ordered:
            return {"samples": 0, "p50_ms": 0.0, "p99_ms": 0.0}
        return {"samples": len(ordered),
                "p50_ms": percentile(ordered, 0.50),
                "p99_ms": percentile(ordered, 0.99),
                "samples_beyond_p99":
                    len(ordered) - math.ceil(0.99 * len(ordered))}
    everything = [v for values in latencies.values() for v in values]
    return {"all": one(everything),
            **{kind: one(values) for kind, values in latencies.items()}}


def _repeat(measure: Callable[[], Any],
            seconds_of: Callable[[Any], float]) -> List[Any]:
    """Results of calling ``measure`` until ``REPEAT_BUDGET_S`` of
    measured time or ``MAX_REPEATS`` calls, whichever comes first."""
    results = [measure()]
    while len(results) < MAX_REPEATS and \
            sum(map(seconds_of, results)) < REPEAT_BUDGET_S:
        results.append(measure())
    return results


def run_workload(name: str, seed: int, ops: int, scratch: Path,
                 traced: bool = False, full: bool = True
                 ) -> Dict[str, Any]:
    """One run of one workload; returns raw measurements and gates.

    ``full`` runs all five phases with ``SETUPS`` set-ups; otherwise one
    set-up and phases A-C only (the two halves of a traced comparison,
    which need wall time, counters and digests but not the crash/tamper
    gates a full run of the same code already enforces).
    """
    tracer = Tracer().install() if traced else None
    target: Any = None
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_s: List[float] = []
        setups = SETUPS if full else 1
        for attempt in range(setups):
            root = scratch / f"{name}-{attempt}"
            target = make_target(name, root, seed, tracer)
            start = time.perf_counter()
            target.setup()
            setup_s.append(time.perf_counter() - start)
            if attempt + 1 < setups:
                target.close()
                target = None
                shutil.rmtree(root, ignore_errors=True)
        if traced:
            target.ledger()  # set-up spans are not phase B's

        before = target.counters()
        stats = target.run_ops(ops)
        after = target.counters()
        ledger = target.ledger() if traced else None
        latencies = stats.pop("latencies_ms")
        result: Dict[str, Any] = {
            "workload": name, "seed": seed, "ops": ops, "traced": traced,
            "full": full, "clients": target.clients,
            "pinned_cpu": getattr(target, "pinned_cpu", None),
            "setup_s": setup_s, "phase_b": stats,
            "latency": _summary(latencies),
            "counters_start": before,
            "counters": _delta(before, after),
            "ledger": ledger,
        }

        verdicts = _repeat(target.verify, lambda v: v["seconds"])
        result["audit"] = dict(verdicts[-1],
                               seconds=[v["seconds"] for v in verdicts])
        result["audit_counters"] = _delta(after, target.counters())
        result["state_digest"] = target.state_digest()
        gates = {"no_failed_ops": stats["failed"] == 0,
                 "audit_clean": all(v["ok"] for v in verdicts)}
        if full:
            extra = target.run_ops(max(1, ops // 20))
            acknowledged = target.state_digest()
            result["recover_s"] = _repeat(target.crash_recover,
                                          lambda took: took)
            gates["no_failed_ops"] &= extra["failed"] == 0
            gates["acked_commits_readable"] = \
                target.state_digest() == acknowledged
            gates["post_recovery_audit_clean"] = \
                bool(target.verify()["ok"])
            target.tamper()
            gates["tamper_detected"] = not target.verify()["ok"]
        result["gates"] = gates
        result.update(target.close())
        target = None
        return result
    finally:
        if target is not None:
            target.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
