#!/usr/bin/env python3
"""TPC-C under compliance: the paper's evaluation, end to end.

Loads a scaled TPC-C database in each of the three architectures, runs the
standard transaction mix, reports the throughput overhead of compliance
(the Fig. 3 claim), and finishes with a full audit of the compliant runs.

Run:  python examples/tpcc_compliance_demo.py [txns]
"""

import sys
import tempfile
from pathlib import Path

from repro import Auditor, ComplianceMode
from repro.bench import build_db, make_driver
from repro.tpcc import TPCCScale


def main() -> None:
    txns = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    workdir = Path(tempfile.mkdtemp(prefix="repro-tpcc-"))
    scale = TPCCScale.tiny()
    results = {}

    for mode in (ComplianceMode.REGULAR, ComplianceMode.LOG_CONSISTENT,
                 ComplianceMode.HASH_ON_READ):
        print(f"\n=== {mode.value} ===")
        db = build_db(workdir / mode.value, mode, scale, buffer_pages=48)
        driver = make_driver(db, scale)
        result = driver.run(txns)
        results[mode] = result
        print(f"  {result.transactions} txns in "
              f"{result.elapsed_seconds:.2f}s "
              f"({result.tps:.0f} tps); {result.rolled_back} rollbacks; "
              f"mix={result.by_kind}")
        if mode is not ComplianceMode.REGULAR:
            # the live histogram the plugin maintains (no log re-parse)
            counts = db.obs.registry.labelled_values(
                "clog_records_total", "type")
            interesting = {k: v for k, v in sorted(counts.items())}
            print(f"  compliance log: {db.clog.size() / 1024:.0f} KiB "
                  f"{interesting}")
            report = Auditor(db).audit()
            print(f"  audit: {'COMPLIANT' if report.ok else 'FAILED'} — "
                  f"{report.final_tuples} tuples, "
                  f"{report.log_records} log records, "
                  f"{report.read_hashes_checked} read hashes checked")

    base = results[ComplianceMode.REGULAR].elapsed_seconds
    print("\n=== overhead vs regular (paper: ~10% / ~20%) ===")
    for mode in (ComplianceMode.LOG_CONSISTENT,
                 ComplianceMode.HASH_ON_READ):
        overhead = results[mode].elapsed_seconds / base - 1
        print(f"  {mode.value}: {100 * overhead:+.1f}%")


if __name__ == "__main__":
    main()
