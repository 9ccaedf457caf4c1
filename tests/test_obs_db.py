"""Integration tests: the observability subsystem wired into CompliantDB.

Every instrumented layer must emit at least one metric and one span into
the database's single registry/tracer; ``CompliantDB.metrics()`` and the
``repro-admin metrics`` exporter expose them; traces are deterministic
across identical replays; and the redesigned construction API keeps its
marker back-compat working.
"""

import json

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.config import ObsConfig
from repro.obs import Observability
from repro.tools.admin import main as admin_main

LEDGER = Schema("ledger", [
    Field("entry_id", FieldType.INT),
    Field("account", FieldType.STR),
    Field("amount", FieldType.INT),
], key_fields=["entry_id"])


def make_db(tmp_path, mode=ComplianceMode.LOG_CONSISTENT, obs=None,
            obs_config=None):
    clock = SimulatedClock()
    config = DBConfig(engine=EngineConfig(page_size=1024, buffer_pages=16),
                      compliance=ComplianceConfig(
                          mode=mode, regret_interval=minutes(5)),
                      obs=obs_config or ObsConfig())
    db = CompliantDB.create(tmp_path / "db", config, clock=clock, obs=obs)
    db.create_relation(LEDGER)
    return db


def add_entries(db, start, count, account="ops"):
    for i in range(start, start + count):
        with db.transaction() as txn:
            db.insert(txn, "ledger",
                      {"entry_id": i, "account": account, "amount": i * 10})


class TestEveryLayerEmits:
    def test_metrics_and_spans_cover_all_layers(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        add_entries(db, 0, 120)       # enough rows to split leaves
        with db.transaction() as txn:
            db.update(txn, "ledger", {"entry_id": 3, "account": "ops",
                                      "amount": 999})
        txn = db.begin()
        db.insert(txn, "ledger", {"entry_id": 900, "account": "x",
                                  "amount": 1})
        db.abort(txn)
        db.engine.checkpoint()
        db.vacuum()
        report = Auditor(db).audit()
        assert report.ok

        metrics = db.metrics()
        counters = metrics["counters"]
        # WORM server
        assert counters["worm_appends_total"] > 0
        assert counters["worm_flushes_total"] > 0
        # pager + buffer pool
        assert counters["pager_writes_total"] > 0
        assert counters["buffer_hits_total"] > 0
        assert counters["buffer_misses_total"] > 0
        # B-tree
        assert counters['btree_splits_total{kind="leaf"}'] > 0
        # transactions
        assert counters["txn_begin_total"] >= 122
        assert counters["txn_commit_total"] >= 121
        assert counters["txn_abort_total"] >= 1
        # compliance log
        assert counters['clog_records_total{type="NEW_TUPLE"}'] >= 120
        assert counters["clog_barrier_flushes_total"] > 0
        # retention / shredding maintenance
        assert counters["vacuum_runs_total"] == 1
        # audit + epoch rotation
        assert counters['audits_total{outcome="pass"}'] == 1
        assert counters["epoch_rotations_total"] == 1
        assert metrics["gauges"]["db_epoch"] == 2

        phases = [key for key in metrics["histograms"]
                  if key.startswith("audit_phase_seconds")]
        assert 'audit_phase_seconds{phase="log"}' in phases
        assert 'audit_phase_seconds{phase="rotate"}' in phases

        spans = metrics["spans"]
        for name in ("worm.flush", "buffer.flush_batch", "btree.split",
                     "txn.commit", "txn.abort", "engine.checkpoint",
                     "vacuum", "audit", "audit.log", "audit.rotate",
                     "epoch.rotate", "clog.seal"):
            assert spans.get(name, 0) > 0, f"missing span {name}"
        assert metrics["spans_dropped"] == 0
        db.close()

    def test_metrics_survive_crash_and_recover(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 10)
        before = db.metrics()["counters"]["txn_commit_total"]
        db.crash()
        db.recover()
        counters = db.metrics()["counters"]
        # process-lifetime semantics: the simulated crash resets the
        # database's volatile state, not the process's metrics
        assert counters["txn_commit_total"] == before
        assert counters["db_crashes_total"] == 1
        assert counters["db_recoveries_total"] == 1
        assert db.metrics()["spans"].get("db.recover", 0) == 1
        add_entries(db, 100, 3)
        assert db.metrics()["counters"]["txn_commit_total"] == before + 3
        db.close()


class TestWormBytesByFileClass:
    def test_file_classes_sum_to_bytes_written(self, tmp_path):
        db = CompliantDB.create(
            tmp_path / "db", clock=SimulatedClock(),
            config=DBConfig(engine=EngineConfig(page_size=1024,
                                                buffer_pages=16),
                            compliance=ComplianceConfig(
                                mode=ComplianceMode.HASH_ON_READ,
                                regret_interval=minutes(5),
                                worm_migration=True,
                                split_threshold=0.6)))
        db.create_relation(LEDGER)
        add_entries(db, 0, 20)
        for round_ in range(120):  # versions pile up: time splits
            db.clock.advance(1000)
            with db.transaction() as txn:
                db.update(txn, "ledger", {"entry_id": 1, "account": "ops",
                                          "amount": round_})
        db.engine.run_stamper()
        assert db.engine.histdir.page_count() > 0
        assert Auditor(db).audit().ok  # the next epoch's snapshot
        registry = db.obs.registry
        by_class = registry.labelled_values("worm_file_bytes_total",
                                            "file_class")
        assert {"clog", "aux", "txnlog", "snapshot", "hist"} <= \
            set(by_class) <= {"clog", "aux", "txnlog", "snapshot",
                              "witness", "hist"}
        assert sum(by_class.values()) == \
            registry.value("worm_bytes_written_total")

    @pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                      ComplianceMode.HASH_ON_READ])
    def test_txnlog_bytes_do_not_grow_with_the_payload(self, tmp_path,
                                                       mode):
        db = make_db(tmp_path, mode=mode)
        registry, wal = db.obs.registry, db.engine.wal.path

        def commit_bytes(entry_id, account):
            """(txnlog bytes, r/w WAL bytes) one committed insert adds"""
            mirror = registry.value("worm_file_bytes_total",
                                    file_class="txnlog")
            size = wal.stat().st_size
            add_entries(db, entry_id, 1, account=account)
            return (registry.value("worm_file_bytes_total",
                                   file_class="txnlog") - mirror,
                    wal.stat().st_size - size)

        small_mirror, small_wal = commit_bytes(1, "x")
        heavy_mirror, heavy_wal = commit_bytes(2, "x" * 600)
        assert heavy_wal - small_wal == 599  # the r/w WAL carries it
        assert heavy_mirror == small_mirror > 0


class TestTraceDeterminism:
    def _trace(self, root):
        db = make_db(root)
        add_entries(db, 0, 30)
        db.engine.checkpoint()
        trace = db.obs.tracer.finished()
        db.close()
        return trace

    def test_identical_workloads_identical_traces(self, tmp_path):
        first = self._trace(tmp_path / "a")
        second = self._trace(tmp_path / "b")
        assert first == second
        assert len(first) > 0


class TestObsWiring:
    def test_injected_bundle_receives_metrics(self, tmp_path):
        shared = Observability()
        db = make_db(tmp_path, obs=shared)
        add_entries(db, 0, 5)
        assert db.obs is shared
        assert shared.registry.value("txn_commit_total") >= 5
        db.close()

    def test_trace_capacity_flows_from_config(self, tmp_path):
        db = make_db(tmp_path, obs_config=ObsConfig(trace_capacity=8))
        add_entries(db, 0, 20)
        assert db.obs.tracer.capacity == 8
        assert len(db.obs.tracer.finished()) == 8
        assert db.metrics()["spans_dropped"] > 0
        db.close()


class TestConstructionAPI:
    def test_for_mode_is_the_replacement(self, tmp_path):
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.REGULAR),
            clock=SimulatedClock())
        assert db.mode is ComplianceMode.REGULAR
        db.close()

    def test_mode_kwarg_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            CompliantDB.create(tmp_path / "db", clock=SimulatedClock(),
                               mode=ComplianceMode.HASH_ON_READ)
        assert not (tmp_path / "db").exists()

    def test_open_marker_without_obs_section(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 3)
        db.close()
        marker_path = tmp_path / "db" / "mode.json"
        marker = json.loads(marker_path.read_text())
        del marker["obs"]     # markers from before the obs redesign
        marker_path.write_text(json.dumps(marker))
        reopened = CompliantDB.open(tmp_path / "db", SimulatedClock())
        reopened.recover()
        assert reopened.config.obs == ObsConfig()
        assert reopened.get("ledger", (1,))["amount"] == 10
        reopened.close()

    def test_open_top_level_mode_is_authoritative(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        add_entries(db, 0, 3)
        db.close()
        marker_path = tmp_path / "db" / "mode.json"
        marker = json.loads(marker_path.read_text())
        # simulate a pre-redesign marker whose compliance section kept
        # the dataclass default instead of the real mode
        marker["compliance"]["mode"] = ComplianceMode.LOG_CONSISTENT.value
        marker_path.write_text(json.dumps(marker))
        reopened = CompliantDB.open(tmp_path / "db", SimulatedClock())
        reopened.recover()
        assert reopened.mode is ComplianceMode.HASH_ON_READ
        reopened.close()

    def test_obs_config_round_trips_through_marker(self, tmp_path):
        db = make_db(tmp_path, obs_config=ObsConfig(trace_capacity=123))
        db.close()
        reopened = CompliantDB.open(tmp_path / "db", SimulatedClock())
        assert reopened.config.obs.trace_capacity == 123
        assert reopened.obs.tracer.capacity == 123
        reopened.close()


class TestAdminMetricsCommand:
    @pytest.fixture
    def db_path(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 5)
        db.close()
        return str(tmp_path / "db")

    def test_prometheus_output(self, db_path, capsys):
        assert admin_main(["metrics", db_path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE worm_appends_total counter" in out
        assert "# TYPE db_epoch gauge" in out
        assert "pager_reads_total" in out

    def test_json_output(self, db_path, capsys):
        assert admin_main(["metrics", db_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"counters", "gauges", "histograms",
                               "spans", "spans_dropped"}
        assert report["gauges"]["db_epoch"] == 1
