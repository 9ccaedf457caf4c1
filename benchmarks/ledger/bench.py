#!/usr/bin/env python3
"""The repo's benchmark: five device-free workloads, end-to-end metrics
with bounds, and an outside-in per-layer ledger.

    python3 benchmarks/ledger/bench.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Each workload runs in a fresh child process (so ``peak_rss_mib`` is that
run's own).  Without ``--trace`` a run is the full five phases and
reports the end-to-end metrics; with it, an untraced and a traced
process run phases A-C on the same seed, must end in the same state,
and report the per-layer metrics.  Every metric is printed by name with
its unit, the result is written as JSON, and the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Any failed correctness gate makes the run incorrect and
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parents[2]
SPEC_FILE = REPO / "BENCHMARK.json"
OUT_DIR = REPO / ".ledger_out"
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(REPO / "src"))
try:
    import metrics  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as exc:
    # e.g. a directory holding only BENCHMARK.json and this harness
    sys.exit(f"bench.py: {exc}: the benchmark measures the program in "
             f"{REPO / 'src'}, which is not there")


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def _child(args: argparse.Namespace) -> int:
    """One workload in this process; raw measurements on stdout."""
    raw = workloads.run_workload(
        args.workload[0], args.seed, args.ops, Path(args.scratch),
        traced=bool(args.traced), full=bool(args.full))
    print(json.dumps(raw))
    return 0


def _spawn(name: str, seed: int, ops: int, traced: bool,
           full: bool) -> Dict[str, Any]:
    scratch = OUT_DIR / f"scratch-{os.getpid()}-{name}-{int(traced)}"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--workload", name, "--seed", str(seed), "--ops", str(ops),
         "--traced", str(int(traced)), "--full", str(int(full)),
         "--scratch", str(scratch)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        check=True,
        # fixed str/bytes hashing: set iteration order, hence page access
        # order, must not differ between two runs of one seed
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(name: str, seed: int, run_seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run one workload and turn raw measurements into named metrics."""
    ops = workloads.ops_for(name, run_seconds)
    raw = _spawn(name, seed, ops, traced=False, full=not trace)
    result: Dict[str, Any] = {"raw": raw, "gates": dict(raw["gates"])}
    if trace:
        traced = _spawn(name, seed, ops, traced=True, full=False)
        problems = metrics.tracing_changed_behaviour(raw, traced)
        result["gates"].update(traced_run_audit_clean=traced["gates"][
            "audit_clean"], tracing_changed_nothing=not problems)
        result["tracing_differences"] = problems
        result["accounting_s"] = metrics.accounting(traced)
        result["per_layer"] = metrics.per_layer(raw, traced,
                                                result["accounting_s"])
        result["ledger"] = traced["ledger"]
    else:
        result["end_to_end"] = metrics.end_to_end(raw)
    result["failed_share"] = metrics.failed_share(raw, result["gates"])
    result["correct"] = all(result["gates"].values())
    return result


def environment(seed: int, run_seconds: float,
                load_start: float) -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a bare checkout is not a git repository
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_1min_start": load_start,
            "loadavg_1min_end": os.getloadavg()[0],
            "seed": seed, "run_seconds": run_seconds}


def print_report(spec: Dict[str, Any], results: Dict[str, Any],
                 ratios: Optional[Dict[str, Any]]) -> None:
    """Every metric by name with its unit, one block per workload."""
    kinds = {"end_to_end": spec["end_to_end"],
             "per_layer": spec["per_layer"]}
    for name, result in results.items():
        raw = result["raw"]
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"== {name}  seed={raw['seed']} ops={raw['ops']} "
              f"clients={raw['clients']} (closed loop)  {verdict}")
        for gate, passed in result["gates"].items():
            print(f"   gate {gate:<28} {'ok' if passed else 'FAILED'}")
        for difference in result.get("tracing_differences", []):
            print(f"   traced vs untraced: {difference}")
        print(f"   {'failed_share':<42} {result['failed_share']:>14.6g} "
              f"ratio   (must be 0)")
        samples = raw["latency"]["all"]
        print(f"   latency samples: {samples['samples']} "
              f"({samples['samples_beyond_p99']} beyond p99); "
              f"p99 {samples['p99_ms']:.6g} ms; audit x"
              f"{len(raw['audit']['seconds'])}, recover x"
              f"{len(raw.get('recover_s', []))}")
        for kind, entries in kinds.items():
            values = result.get(kind)
            if values is None:
                continue
            for entry in entries:
                bound = f"  bound {entry['bound']:.0%}" \
                    if "bound" in entry else ""
                print(f"   {entry['name']:<42} "
                      f"{values[entry['name']]:>14.6g} "
                      f"{entry['unit']:<6} ({entry['better']} is better)"
                      f"{bound}")
        books = result.get("accounting_s")
        if books:
            print("   traced client-seconds {client_seconds:.3f} = layers "
                  "{layers:.3f} + queue wait {queue_wait:.3f} + transit "
                  "{transit:.3f} + residual {residual:.3f}".format(**books))
    if ratios:
        print("== derived paper ratios (report-only, never gated): "
              "phase-B elapsed over tpcc_regular_cold")
        for label, row in ratios.items():
            print(f"   {label:<12} base {row['base_regular_elapsed_s']:.3f}"
                  f" s   lc_overhead_pct {row['lc_overhead_pct']:+.1f}"
                  f"   hr_overhead_pct {row['hr_overhead_pct']:+.1f}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable); "
                             "default: all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="nominal phase-B length; fixes the op count")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="result JSON path")
    for hidden in ("--ops", "--traced", "--full"):
        parser.add_argument(hidden, type=int, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    load_start = os.getloadavg()[0]
    selected = args.workload or names
    results = {name: run_one(name, args.seed, args.seconds,
                             bool(args.trace)) for name in selected}
    ratios = None if args.trace else metrics.paper_ratios(results)
    print_report(spec, results, ratios)

    document = {"environment": environment(args.seed, args.seconds,
                                           load_start),
                "trace": bool(args.trace), "claim": None,
                "workloads": results, "derived_paper_ratios": ratios}
    out = args.out or OUT_DIR / (
        f"{'-'.join(selected) if args.workload else 'all'}"
        f"-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"result written to {out}")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    correct = all(result["correct"] for result in results.values())
    attempted = sum(r["raw"]["phase_b"]["attempted"]
                    for r in results.values())
    failed = sum(r["raw"]["phase_b"]["failed"] for r in results.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": failed if correct else attempted,
        "metrics": {
            (metric if len(results) == 1 else f"{name}/{metric}"):
                {"value": value, "unit": units[metric]}
            for name, result in results.items()
            for metric, value in result[kind].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
