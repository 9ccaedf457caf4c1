"""Section VII(a): space overhead of the compliance architecture.

Paper numbers (100 K transactions, 10 warehouses):

* the compliance log L grows to ≈ 100 MB — about 1 KB per transaction;
* the hash-page-on-read READ hashes occupy 3 MB with a 256 MB cache but
  44 MB with a 32 MB cache — the hash log grows as the cache shrinks;
* the PGNO (4 B) + tuple-order-number (2 B) fields cost **under 10 %**;
* WORM migration: STOCK occupies 70 K ordinary B+-tree pages but only
  18 K live + 55 K historical pages as a time-split tree (threshold 0.5).

This benchmark reproduces each of those four rows at the configured scale.
"""

import pytest

from repro.bench import (bench_scale, bench_txns, build_db, emit,
                         format_table, make_driver)
from repro.common.config import ComplianceMode
from repro.storage.record import RECORD_HEADER_SIZE


def _run(tmp_path, mode, pages_after_load, cache_ratio,
         migration=False):
    scale = bench_scale()
    buffer_pages = max(16, int(pages_after_load * cache_ratio))
    db = build_db(tmp_path, mode, scale, buffer_pages=buffer_pages,
                  worm_migration=migration)
    driver = make_driver(db, scale)
    result = driver.run(bench_txns())
    return db, result


def test_space_overhead(benchmark, tmp_path, pages_after_load, capsys):
    def workload():
        lc_db, lc_result = _run(tmp_path / "lc",
                                ComplianceMode.LOG_CONSISTENT,
                                pages_after_load, cache_ratio=0.10)
        hr_big, _ = _run(tmp_path / "hr-big",
                         ComplianceMode.HASH_ON_READ,
                         pages_after_load, cache_ratio=0.60)
        hr_small, _ = _run(tmp_path / "hr-small",
                           ComplianceMode.HASH_ON_READ,
                           pages_after_load, cache_ratio=0.05)
        return lc_db, lc_result, hr_big, hr_small

    lc_db, lc_result, hr_big, hr_small = benchmark.pedantic(
        workload, rounds=1, iterations=1)

    txns = lc_result.transactions
    l_size = lc_db.clog.size()
    rows = [["compliance log L", f"{l_size / 1024:.1f} KiB",
             f"{l_size / txns:.0f} B/txn",
             "paper: ~100 MB / 100 K txns ≈ 1 KB/txn"]]

    def read_hash_bytes(db):
        # the plugin keeps the histogram as it writes — no log re-parse
        counts = db.obs.registry.labelled_values("clog_records_total",
                                                 "type")
        # READ_HASH records are fixed-size: count the bytes they occupy
        from repro.core.records import CLogRecord, CLogType
        sample = CLogRecord(CLogType.READ_HASH, pgno=1,
                            page_hash=b"\x00" * 64).to_bytes()
        return counts.get("READ_HASH", 0), \
            counts.get("READ_HASH", 0) * len(sample)

    big_count, big_bytes = read_hash_bytes(hr_big)
    small_count, small_bytes = read_hash_bytes(hr_small)
    rows.append(["READ hashes, large cache", f"{big_count} records",
                 f"{big_bytes / 1024:.1f} KiB", "paper: 3 MB @ 256 MB"])
    rows.append(["READ hashes, small cache", f"{small_count} records",
                 f"{small_bytes / 1024:.1f} KiB", "paper: 44 MB @ 32 MB"])
    ratio = small_bytes / big_bytes if big_bytes else float("inf")
    rows.append(["hash-log growth (small/large)", f"{ratio:.1f}x", "",
                 "paper: ~14.7x as cache shrinks 8x"])

    # per-tuple metadata: 4-byte PGNO per NEW_TUPLE + 4-byte order number
    tuples = [r for _, r in lc_db.clog.records()
              if r.rtype.name == "NEW_TUPLE"]
    if tuples:
        avg_tuple = sum(len(r.tuple_bytes) for r in tuples) / len(tuples)
        overhead = (4 + 4) / avg_tuple
        rows.append(["PGNO + order-number overhead",
                     f"{100 * overhead:.1f}%",
                     f"avg tuple {avg_tuple:.0f} B", "paper: under 10%"])

    emit(capsys, format_table(
        "Section VII(a): space overhead",
        ["metric", "value", "detail", "paper"], rows))
    assert l_size > 0
    assert small_bytes > big_bytes  # smaller cache => more READ hashes


def test_space_tsb_migration(benchmark, tmp_path, pages_after_load,
                             capsys):
    """STOCK as a normal B+-tree vs a time-split tree (threshold 0.5)."""
    def workload():
        plain, _ = _run(tmp_path / "plain",
                        ComplianceMode.LOG_CONSISTENT, pages_after_load,
                        cache_ratio=0.3, migration=False)
        tsb, _ = _run(tmp_path / "tsb", ComplianceMode.LOG_CONSISTENT,
                      pages_after_load, cache_ratio=0.3, migration=True)
        return plain, tsb

    plain, tsb = benchmark.pedantic(workload, rounds=1, iterations=1)
    rows = []
    for db, label in ((plain, "ordinary B+-tree"),
                      (tsb, "time-split B+-tree")):
        info = db.engine.relation("stock")
        live = len(info.tree.leaf_pgnos())
        hist = db.engine.histdir.page_count(info.relation_id)
        rows.append([label, live, hist,
                     "audited" if hist == 0 else
                     f"{hist} pages exempt from future audits"])
    emit(capsys, format_table(
        "Section VII(a): STOCK pages, normal vs time-split "
        "(threshold 0.5)",
        ["layout", "live leaf pages", "WORM (historical) pages", "note"],
        rows,
        note="paper: 70 K B+-tree pages -> 18 K live + 55 K historical"))
