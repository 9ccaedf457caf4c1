"""Figure 3(c): 1 warehouse, cache ≈ database — the memory-resident case.

Paper setup: a 320 MB (1-warehouse) database in a 256 MB cache: initially
everything fits in memory; as the version history grows past the cache,
the curves show a knee.  Claim: the log-consistent slowdown is "more
profound here because the DBMS accumulates many dirty pages that must be
written to disk", but stays under ≈ 30 % "even after the knee of the
curve".
"""

import pytest

from repro.bench import (bench_scale, bench_txns, build_db, emit,
                         format_table, make_driver)
from repro.common.config import ComplianceMode
from repro.tpcc import TPCCScale

_results = {}


def _one_warehouse(scale: TPCCScale) -> TPCCScale:
    clone = TPCCScale(**vars(scale))
    clone.warehouses = 1
    return clone


@pytest.mark.parametrize("mode", [ComplianceMode.REGULAR,
                                  ComplianceMode.LOG_CONSISTENT,
                                  ComplianceMode.HASH_ON_READ])
def test_fig3c_runtime(benchmark, tmp_path, mode, pages_after_load):
    scale = _one_warehouse(bench_scale())
    txns = bench_txns() * 2  # long enough to grow past the cache
    # cache sized to hold the initial database with a little headroom:
    # memory-resident at the start, outgrown as history accumulates
    buffer_pages = max(24, int(pages_after_load * 0.8))
    db = build_db(tmp_path / mode.value, mode, scale,
                  buffer_pages=buffer_pages)
    driver = make_driver(db, scale)
    outcome = benchmark.pedantic(lambda: driver.run_series(txns,
                                                           points=12),
                                 rounds=1, iterations=1)
    counters = db.metrics()["counters"]
    hits = counters["buffer_hits_total"]
    total = hits + counters["buffer_misses_total"]
    hit_ratio = hits / total if total else 0.0
    _results[mode] = (outcome, hit_ratio)
    benchmark.extra_info["mode"] = mode.value
    benchmark.extra_info["hit_ratio"] = hit_ratio


def test_fig3c_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_results) < 3:
        pytest.skip("run the three mode benchmarks first")
    base, base_hit = _results[ComplianceMode.REGULAR]
    rows = []
    for count, _ in base.series:
        row = [count]
        for mode in (ComplianceMode.REGULAR,
                     ComplianceMode.LOG_CONSISTENT,
                     ComplianceMode.HASH_ON_READ):
            series = dict(_results[mode][0].series)
            row.append(series.get(count, float("nan")))
        rows.append(row)
    base_total = base.series[-1][1]
    lc_total = _results[ComplianceMode.LOG_CONSISTENT][0].series[-1][1]
    emit(capsys, format_table(
        "Figure 3(c): 1 warehouse, memory-resident start (cache ≈ data)",
        ["txns", "regular", "log-consistent", "+hash-on-read"], rows,
        note=(f"hit ratio {base_hit:.2f}; log-consistent overhead "
              f"{100 * (lc_total / base_total - 1):+.1f}% "
              "(paper: < 30% even past the knee)")))
