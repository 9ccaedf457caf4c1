#!/usr/bin/env python3
"""Compare two sets of benchmark results, or characterise one set.

    python3 benchmarks/ledger/compare.py A.json... -- B.json...
    python3 benchmarks/ledger/compare.py --noise RUN.json... > noise.json

The first form applies the bounds in ``BENCHMARK.json`` to every
(end-to-end metric, workload) pair and prints one row each: A's and B's
median with quartiles and run count, the change as a share of **A's
median** (every ratio carries its base), the bound, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's inter-quartile spread is wider than
  the bound, so the data cannot say "unchanged" (unless every run of B
  reads better than every run of A, which is ``improved``);
* ``improved``   — every B run beats every A run, or B's median is
  better by more than A's own inter-quartile spread;
* ``unchanged``  — otherwise.

Exit code 1 when any row is regressed or unresolved.  The second form
writes the per-(workload, metric) median, quartiles and spread of one
set of runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
Samples = Dict[Tuple[str, str], List[float]]


def collect(paths: List[Path]) -> Samples:
    """(workload, metric) -> values, over every result file given."""
    samples: Samples = {}
    for path in paths:
        document = json.loads(path.read_text())
        for workload, result in document["workloads"].items():
            for metric, value in result.get("end_to_end", {}).items():
                samples.setdefault((workload, metric), []).append(value)
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); one run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, B's change for the worse as a share of A's median)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = quartiles(b)[1]
    worse_by = sign * (b_median - a_median) / abs(a_median) \
        if a_median else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread(a), spread(b)) > bound:
        return ("improved" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if all_better or -worse_by * abs(a_median) > (a_q3 - a_q1) > 0:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(a_files: List[Path], b_files: List[Path]) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    a, b = collect(a_files), collect(b_files)
    bad = 0
    print(f"{'workload':<22}{'metric':<19}{'unit':<7}"
          f"{'A median [q1, q3] n':<38}{'B median [q1, q3] n':<38}"
          f"{'B vs A median':>14}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            if key not in a or key not in b:
                continue
            outcome, worse_by = verdict(a[key], b[key], entry["better"],
                                        entry["bound"])
            bad += outcome in ("regressed", "unresolved")
            cells = []
            for values in (a[key], b[key]):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"{len(values)}")
            change = worse_by if entry["better"] == "lower" else -worse_by
            print(f"{workload:<22}{entry['name']:<19}{entry['unit']:<7}"
                  f"{cells[0]:<38}{cells[1]:<38}{change:>+13.2%} "
                  f"{entry['bound']:>6.1%}  {outcome}")
    print(f"{bad} (metric, workload) pair(s) regressed or unresolved")
    return 1 if bad else 0


def noise(files: List[Path]) -> int:
    report: Dict[str, Dict[str, Any]] = {}
    for (workload, metric), values in sorted(collect(files).items()):
        q1, median, q3 = quartiles(values)
        report.setdefault(workload, {})[metric] = {
            "runs": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": spread(values)}
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--noise", action="store_true",
                        help="characterise one set of runs as JSON")
    parser.add_argument("files", nargs="+", type=Path,
                        help="A.json... -- B.json...")
    # argparse would swallow the bare "--": split before it parses
    argv = sys.argv[1:]
    b_files: List[Path] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, b_files = argv[:cut], [Path(p) for p in argv[cut + 1:]]
    args = parser.parse_args(argv)
    if args.noise:
        return noise(args.files + b_files)
    if not b_files:
        parser.error("give two sets of result files separated by --")
    return compare(args.files, b_files)


if __name__ == "__main__":
    sys.exit(main())
