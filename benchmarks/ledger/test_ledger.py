"""Checks on the benchmark harness itself, at tiny scale.

Run by explicit path (tier-1 ``testpaths`` does not include it):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = bench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SINGLE_DRIVER = [name for name in NAMES if name != "wire_kv_mixed"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_ops(name):
    return 200 if name == "wire_kv_mixed" else 100


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: a full run, and an untraced/traced A-C pair, all
    on one seed; plus what the traced run left behind in the program."""
    saved = workloads.SETUPS
    workloads.SETUPS = 1  # the median of three set-ups is not under test
    before = tracer.targets_snapshot()
    out = {}
    try:
        for name in NAMES:
            scratch = tmp_path_factory.mktemp(name)
            out[name] = {
                kind: workloads.run_workload(
                    name, 7, tiny_ops(name), scratch / kind,
                    traced=(kind == "traced"), full=(kind == "full"))
                for kind in ("full", "untraced", "traced")}
    finally:
        workloads.SETUPS = saved
    out["wrappers_removed"] = tracer.targets_snapshot() == before
    return out


def test_spec_names_units_and_bounds():
    assert NAMES == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    every = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in every]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in SPEC["end_to_end"])
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("name", NAMES)
def test_every_gate_passes_and_metrics_match_the_spec(runs, name):
    full, untraced, traced = (runs[name][k]
                              for k in ("full", "untraced", "traced"))
    assert full["gates"] == {
        "no_failed_ops": True, "audit_clean": True,
        "acked_commits_readable": True,
        "post_recovery_audit_clean": True, "tamper_detected": True}
    assert metrics.failed_share(full, full["gates"]) == 0
    end_to_end = metrics.end_to_end(full)
    assert list(end_to_end) == [e["name"] for e in SPEC["end_to_end"]]
    assert all(value > 0 for value in end_to_end.values())
    layers = metrics.per_layer(untraced, traced,
                               metrics.accounting(traced))
    assert sorted(layers) == sorted(e["name"] for e in SPEC["per_layer"])
    assert full["latency"]["all"]["samples"] == tiny_ops(name)


@pytest.mark.parametrize("name", NAMES)
def test_tracing_costs_time_but_changes_nothing(runs, name):
    untraced, traced = runs[name]["untraced"], runs[name]["traced"]
    # the h() memo is process-wide and these runs share this process
    # (the bench gives each run its own), so hash counts carry over
    assert [p for p in metrics.tracing_changed_behaviour(untraced, traced)
            if not p.startswith("counter hash_")] == []
    layers = metrics.per_layer(untraced, traced,
                               metrics.accounting(traced))
    assert abs(layers["trace.residual_pct"]) <= 5
    busiest = max(tracer.LAYERS,
                  key=lambda layer: layers[f"{layer}.self_ms_per_op"])
    assert layers[f"{busiest}.self_ms_per_op"] > 0


def test_wrappers_are_removed_after_a_traced_run(runs):
    assert runs["wrappers_removed"]
    from repro.storage.page import Page
    assert not hasattr(Page.from_bytes.__func__, "__wrapped__")


@pytest.mark.parametrize("name", SINGLE_DRIVER)
def test_same_seed_repeats_counts_exactly(runs, name):
    first, second = runs[name]["full"], runs[name]["untraced"]

    def counts(raw):  # minus the process-wide h() memo's, see above
        return {name: value for name, value
                in metrics.deterministic_counters(raw).items()
                if not name.startswith("hash_")}
    # device_ios_per_op and log_kib_per_op are functions of these
    assert counts(first) == counts(second)
    assert first["audit"]["final_digest"] == \
        second["audit"]["final_digest"]
    books = metrics.accounting(runs[name]["traced"])
    one = metrics.per_layer(first, runs[name]["traced"], books)
    two = metrics.per_layer(second, runs[name]["traced"], books)
    for metric in one:
        if metric.startswith("core.clog."):
            assert one[metric] == two[metric]


def test_an_auditor_that_checks_nothing_fails_the_run(tmp_path,
                                                      monkeypatch):
    def blind(self):
        return {"seconds": 0.001, "ok": True, "final_digest": "",
                "log_records": 0, "pages_scanned": 0}
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads.WireKvTarget, "verify", blind)
    raw = workloads.run_workload("wire_kv_mixed", 7, 40, tmp_path / "s")
    assert raw["gates"]["tamper_detected"] is False
    assert metrics.failed_share(raw, raw["gates"]) == 1.0


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_command_line_contract(tmp_path, trace, kind):
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload",
         "wire_kv_mixed", "--seed", "11", "--seconds", "0.05",
         "--trace", str(trace), "--out", str(tmp_path / "r.json")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = {e["name"]: e["unit"] for e in SPEC[kind]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == wanted
    assert all(set(m) == {"value", "unit"}
               for m in last["metrics"].values())
    document = json.loads((tmp_path / "r.json").read_text())
    assert document["claim"] is None
    assert {"commit", "python", "nproc", "cpu_affinity", "seed",
            "loadavg_1min_start", "loadavg_1min_end"} <= \
        set(document["environment"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.05)[0] == "unchanged"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, "lower", 0.05)[0] == "regressed"
    assert compare.verdict(steady, slower, "higher", 0.05)[0] == "improved"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, steady, "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(noisy, [v / 2 for v in steady], "lower",
                           0.05)[0] == "improved"
    outcome, worse_by = compare.verdict([10.0], [10.4], "lower", 0.05)
    assert outcome == "unchanged" and worse_by == pytest.approx(0.04)
