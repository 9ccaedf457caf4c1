"""Named metrics computed from the raw measurements of a run.

Names, units, directions and bounds live in ``BENCHMARK.json`` (one
source of truth; ``test_ledger.py`` checks this module reports exactly
those names).  Counts come from the *untraced* run's ``metrics()``
deltas over phase B; layer times come from the traced run's ledger.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

from tracer import LAYERS, QUEUE_WAIT, SOCKET_WAIT
from workloads import percentile

#: assumed per-I/O device latencies for the report-only paper ratios
DEVICE_LATENCIES_S = {"0.2ms": 0.0002, "3ms": 0.003}
_KV_OPS = ("begin", "get", "update", "commit", "abort")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _labelled(counters: Dict[str, float], name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(name + "{"))


def failed_share(raw: Dict[str, Any], gates: Dict[str, bool]) -> float:
    """Failed ops over attempted; 1 when any correctness gate failed."""
    if not all(gates.values()):
        return 1.0
    stats = raw["phase_b"]
    return stats["failed"] / stats["attempted"]


def end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    """The user-visible metrics of one full untraced run."""
    stats = raw["phase_b"]
    counters = raw["counters"]
    ops = raw["ops"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        # the median segment's rate over all clients: steadier than
        # ops / wall, which one burst of interference drags down
        "ops_per_s": raw["clients"] * stats["segment_ops"] /
        statistics.median(stats["segment_s"]),
        "op_p50_ms": raw["latency"]["all"]["p50_ms"],
        "audit_s": statistics.median(raw["audit"]["seconds"]),
        "recover_s": statistics.median(raw["recover_s"]),
        "device_ios_per_op": (counters.get("pager_reads_total", 0) +
                              counters.get("pager_writes_total", 0) +
                              counters.get("worm_flushes_total", 0)) / ops,
        "log_kib_per_op": (counters["wal_bytes"] + counters.get(
            "worm_bytes_written_total", 0)) / 1024.0 / ops,
        "peak_rss_mib": raw["peak_rss_mib"],
    }


# -- the ledger ---------------------------------------------------------


def layer_totals(ledger: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per layer: self seconds and entries from another layer, summed
    over this process's ledger and the server child's."""
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    totals[SOCKET_WAIT] = {"self_s": 0.0, "calls": 0}
    for side in ledger.values():
        if side is None:
            continue
        for parent, layer, calls, _total, own in side["edges"]:
            totals[layer]["self_s"] += own / 1e9
            if parent != layer:
                totals[layer]["calls"] += calls
    return totals


def _samples_ms(ledger: Dict[str, Any], name: str) -> List[float]:
    values: List[float] = []
    for side in ledger.values():
        if side is not None:
            values.extend(ns / 1e6
                          for ns in side["samples_ns"].get(name, ()))
    return sorted(values)


def _p(ordered: List[float], q: float) -> float:
    return percentile(ordered, q) if ordered else 0.0


def accounting(traced: Dict[str, Any]) -> Dict[str, float]:
    """Where the traced run's client-seconds went, in seconds.

    ``client_seconds`` is the sum of the load-generating threads' phase-B
    wall (= wall for one driver).  For a served workload the client's
    time blocked in ``recv`` covers the server's busy time, the queue
    wait, and *transit* — kernel socket path and thread wake-ups, which
    neither side's Python sees and which is therefore a difference.
    """
    ledger = traced["ledger"]
    totals = layer_totals(ledger)
    layers = sum(totals[layer]["self_s"] for layer in LAYERS)
    queue_wait = sum(_samples_ms(ledger, QUEUE_WAIT)) / 1000.0
    transit = 0.0
    server = ledger.get("server")
    if server is not None:
        client_wait = sum(
            own for _p_, layer, _c, _t, own in ledger["local"]["edges"]
            if layer == SOCKET_WAIT) / 1e9
        server_busy = sum(
            own for _p_, layer, _c, _t, own in server["edges"]
            if layer != SOCKET_WAIT) / 1e9
        transit = client_wait - server_busy - queue_wait
    client_seconds = traced["phase_b"]["client_seconds"]
    return {"client_seconds": client_seconds, "layers": layers,
            "queue_wait": queue_wait, "transit": transit,
            "residual": client_seconds - layers - queue_wait - transit}


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any],
              books: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one (untraced, traced) pair of runs;
    ``books`` is ``accounting(traced)``."""
    c = untraced["counters"]
    ops = untraced["ops"]
    kops = ops / 1000.0
    stats = untraced["phase_b"]
    latency = untraced["latency"]
    audit = untraced["audit_counters"]
    ledger = traced["ledger"]
    traced_ops = traced["ops"]
    out: Dict[str, float] = {}

    totals = layer_totals(ledger)
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = \
            totals[layer]["self_s"] * 1000.0 / traced_ops
        out[f"{layer}.calls_per_op"] = totals[layer]["calls"] / traced_ops

    hits, misses = c.get("buffer_hits_total", 0), \
        c.get("buffer_misses_total", 0)
    out["storage.buffer.hit_ratio"] = _ratio(hits, hits + misses)
    out["storage.buffer.evictions_per_op"] = \
        c.get("buffer_evictions_total", 0) / ops
    out["storage.pager.reads_per_op"] = c.get("pager_reads_total", 0) / ops
    out["storage.pager.writes_per_op"] = \
        c.get("pager_writes_total", 0) / ops
    out["storage.pager.data_file_kib"] = (
        untraced["counters_start"]["data_file_bytes"] +
        c["data_file_bytes"]) / 1024.0
    out["btree.splits_per_kop"] = _labelled(c, "btree_splits_total") / kops

    hash_hits = c.get("plugin_hash_cache_hits_total", 0)
    out["core.plugin.hash_cache_hit_ratio"] = _ratio(
        hash_hits, hash_hits + c.get("plugin_hash_cache_misses_total", 0))
    out["core.plugin.diff_cache_hits_per_op"] = \
        c.get("plugin_diff_cache_hits_total", 0) / ops
    out["core.plugin.extra_disk_reads_per_kop"] = \
        c.get("plugin_extra_disk_reads_total", 0) / kops
    out["core.clog.records_per_op"] = \
        _labelled(c, "clog_records_total") / ops
    out["core.clog.new_tuple_per_op"] = \
        c.get('clog_records_total{type="NEW_TUPLE"}', 0) / ops
    out["core.clog.read_hash_per_op"] = \
        c.get('clog_records_total{type="READ_HASH"}', 0) / ops
    out["core.clog.barrier_flushes_per_op"] = \
        c.get("clog_barrier_flushes_total", 0) / ops

    sha, memo = c.get("hash_sha512_calls", 0), c.get("hash_memo_hits", 0)
    out["crypto.sha512_calls_per_op"] = sha / ops
    out["crypto.memo_hit_ratio"] = _ratio(memo, memo + sha)

    flushes = c.get("worm_flushes_total", 0)
    worm_kib = c.get("worm_bytes_written_total", 0) / 1024.0
    out["worm.flushes_per_op"] = flushes / ops
    out["worm.appends_per_op"] = c.get("worm_appends_total", 0) / ops
    out["worm.kib_per_flush"] = _ratio(worm_kib, flushes)
    out["worm.kib_per_op"] = worm_kib / ops
    out["wal.kib_per_op"] = c["wal_bytes"] / 1024.0 / ops
    # the WAL keeps no counter; calls to flush() (empty ones included)
    # are counted by the traced run
    out["wal.flushes_per_op"] = \
        len(_samples_ms(ledger, "wal_flush")) / traced_ops

    out["txn.lock_conflicts_per_kop"] = \
        c.get("txn_lock_conflicts_total", 0) / kops
    out["txn.aborts_per_kop"] = c.get("txn_abort_total", 0) / kops
    out["server.client.retries_per_kop"] = stats["retries"] / kops
    out["server.client.round_trips_per_op"] = sum(
        c.get(f'server_requests_total{{op="{op}"}}', 0)
        for op in _KV_OPS) / ops
    out["server.client.read_p50_ms"] = \
        latency.get("read", {}).get("p50_ms", 0.0)
    out["server.client.rmw_p50_ms"] = \
        latency.get("rmw", {}).get("p50_ms", 0.0)
    out["server.service.busy_per_kop"] = \
        c.get("server_busy_total", 0) / kops
    queue_wait = _samples_ms(ledger, QUEUE_WAIT)
    out["server.service.queue_wait_p50_ms"] = _p(queue_wait, 0.50)
    out["server.service.queue_wait_p99_ms"] = _p(queue_wait, 0.99)

    one_pc = c.get("shard_commit_1pc_total", 0)
    two_pc = c.get("shard_commit_2pc_total", 0)
    out["shard.coordinator.commit_2pc_share"] = \
        _ratio(two_pc, one_pc + two_pc)
    out["shard.coordinator.commit_1pc_p50_ms"] = \
        _p(_samples_ms(ledger, "commit_1pc"), 0.50)
    out["shard.coordinator.commit_2pc_p50_ms"] = \
        _p(_samples_ms(ledger, "commit_2pc"), 0.50)
    out["shard.journal.fsync_p50_ms"] = \
        _p(_samples_ms(ledger, "journal_fsync"), 0.50)

    for phase in ("snapshot", "log", "final", "checks"):
        # mean over the repeated audits of phase C
        name = f'audit_phase_seconds{{phase="{phase}"}}'
        out[f"core.audit.{phase}_s"] = _ratio(
            audit.get(f"{name}:sum", 0.0), audit.get(f"{name}:count", 0))
    out["core.audit.log_records_per_s"] = _ratio(
        untraced["audit"]["log_records"], out["core.audit.log_s"])
    out["core.audit.pages_scanned"] = untraced["audit"]["pages_scanned"]

    for kind in ("new_order", "payment", "order_status", "delivery",
                 "stock_level"):
        out[f"tpcc.{kind}_p50_ms"] = \
            latency.get(kind, {}).get("p50_ms", 0.0)
    outer = "server.client" if "read" in latency else "tpcc"
    for layer in ("tpcc", "server.client"):
        out[f"{layer}.op_p99_ms"] = \
            latency["all"]["p99_ms"] if layer == outer else 0.0
    out["tpcc.maintenance_ms_per_op"] = \
        stats["maintenance_s"] * 1000.0 / ops
    out["tpcc.rollbacks_per_kop"] = stats["rollbacks"] / kops

    out["server.service.queue_wait_ms_per_op"] = \
        books["queue_wait"] * 1000.0 / traced_ops
    out["server.protocol.transit_ms_per_op"] = \
        books["transit"] * 1000.0 / traced_ops
    out["trace.overhead_pct"] = 100.0 * (
        traced["phase_b"]["wall_s"] / stats["wall_s"] - 1.0)
    out["trace.residual_pct"] = \
        100.0 * books["residual"] / books["client_seconds"]
    return out


# -- cross-run checks and report-only ratios ----------------------------


def deterministic_counters(raw: Dict[str, Any]) -> Dict[str, float]:
    """Phase-B counts that one driver thread must reproduce exactly."""
    return {name: value for name, value in raw["counters"].items()
            if name.endswith("_total") or "_total{" in name or
            name.startswith("hash_") or name.endswith("_bytes")}


def tracing_changed_behaviour(untraced: Dict[str, Any],
                              traced: Dict[str, Any]) -> List[str]:
    """Differences between the two runs that tracing must never cause
    (empty when tracing only cost time)."""
    problems = []
    if untraced["state_digest"] != traced["state_digest"]:
        problems.append("state digests differ")
    if untraced["clients"] == 1:
        # concurrent connections interleave differently run to run, so
        # commit times (hence the audit digest) and counts may differ
        # there without tracing being the cause
        if untraced["audit"]["final_digest"] != \
                traced["audit"]["final_digest"]:
            problems.append("final digests differ")
        ours, theirs = deterministic_counters(untraced), \
            deterministic_counters(traced)
        problems.extend(
            f"counter {name}: {ours.get(name)} != {theirs.get(name)}"
            for name in sorted(set(ours) | set(theirs))
            if ours.get(name) != theirs.get(name))
    return problems


def paper_ratios(results: Dict[str, Dict[str, Any]]
                 ) -> Optional[Dict[str, Dict[str, float]]]:
    """Derived, report-only Fig 3(a) overheads against REGULAR: elapsed
    device-free, and modelled as ``elapsed + ios x d``.  A ratio of two
    timings is too noisy to gate on, so these are never bounded."""
    wanted = ("tpcc_regular_cold", "tpcc_lc_cold", "tpcc_hr_cold")
    if not all(name in results for name in wanted):
        return None

    def elapsed(name: str, device_s: float) -> float:
        raw = results[name]["raw"]
        ios = results[name]["end_to_end"]["device_ios_per_op"] * raw["ops"]
        return raw["phase_b"]["wall_s"] + ios * device_s

    out: Dict[str, Dict[str, float]] = {}
    for label, device_s in [("device_free", 0.0),
                            *DEVICE_LATENCIES_S.items()]:
        base = elapsed("tpcc_regular_cold", device_s)
        out[label] = {
            "base_regular_elapsed_s": base,
            "lc_overhead_pct":
                100.0 * (elapsed("tpcc_lc_cold", device_s) / base - 1.0),
            "hr_overhead_pct":
                100.0 * (elapsed("tpcc_hr_cold", device_s) / base - 1.0),
        }
    return out
