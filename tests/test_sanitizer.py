"""Tests for the runtime concurrency sanitizer.

The centrepiece is the seeded-bug acceptance test: an injected
out-of-order lock acquisition MUST be detected, or the sanitizer is
decoration.  Each test installs a private
:class:`~repro.analysis.sanitizer.LockOrderSanitizer` instance so the
seeded violations never leak into the session-wide sanitizer the
conftest gate watches under ``REPRO_SANITIZE=1``.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.analysis import sanitizer
from repro.common.config import ComplianceMode, DBConfig
from repro.core.database import CompliantDB
from repro.server.service import SingleWriterExecutor
from repro.txn.locks import LockMode, LockTable


@pytest.fixture
def san():
    active = sanitizer.LockOrderSanitizer()
    active.install()
    try:
        yield active
    finally:
        active.uninstall()


def table_db(table):
    """A CompliantDB-shaped shell around a bare LockTable."""
    return SimpleNamespace(engine=SimpleNamespace(
        txns=SimpleNamespace(locks=table)))


class TestLockOrder:
    def test_seeded_out_of_order_acquisition_is_detected(self, san):
        # THE acceptance test: inject the textbook inversion and make
        # sure the sanitizer calls it out
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        with lock_a:
            with lock_b:
                pass
        with lock_b:  # opposite order: closes the a->b->a cycle
            with lock_a:
                pass

        kinds = [v.kind for v in san.violations]
        assert "lock-order" in kinds, san.violations
        with pytest.raises(sanitizer.SanitizerError):
            san.assert_clean()

    def test_inversion_across_threads_is_detected(self, san):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def run(first, second):
            def body():
                with first:
                    with second:
                        pass
            worker = threading.Thread(target=body)
            worker.start()
            worker.join()

        run(lock_a, lock_b)
        run(lock_b, lock_a)
        assert any(v.kind == "lock-order" for v in san.violations)

    def test_report_names_the_creation_sites(self, san):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        message = san.violations[0].message
        assert "test_sanitizer.py" in message
        assert "deadlock" in message

    def test_consistent_order_is_clean(self, san):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert san.violations == []
        san.assert_clean()

    def test_disjoint_scopes_are_clean(self, san):
        # never held together: opposite orders are fine
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            pass
        with lock_b:
            pass
        with lock_b:
            pass
        with lock_a:
            pass
        assert san.violations == []

    def test_reset_forgets_the_graph(self, san):
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        assert san.violations
        san.reset()
        assert san.violations == []
        san.assert_clean()


class TestConfinement:
    def test_off_writer_touch_is_flagged(self, san):
        table = LockTable()
        executor = SingleWriterExecutor(4)
        san.confine(table_db(table), executor)
        executor.start()
        try:
            executor.submit(lambda: None).result()  # writer is live
            table.acquire(1, "page:1", LockMode.EXCLUSIVE)
            table.release_all(1)
        finally:
            executor.stop()
        kinds = [v.kind for v in san.violations]
        assert kinds == ["confinement"], san.violations
        assert "writer thread" in san.violations[0].message

    def test_writer_thread_touch_is_clean(self, san):
        table = LockTable()
        executor = SingleWriterExecutor(4)
        san.confine(table_db(table), executor)
        executor.start()
        try:
            def job():
                table.acquire(2, "page:2", LockMode.EXCLUSIVE)
                table.release_all(2)
            executor.submit(job).result()
        finally:
            executor.stop()
        assert san.violations == []

    def test_confinement_lifts_once_writer_stops(self, san):
        table = LockTable()
        executor = SingleWriterExecutor(4)
        san.confine(table_db(table), executor)
        executor.start()
        executor.submit(lambda: None).result()
        executor.stop()
        table.acquire(3, "page:3", LockMode.EXCLUSIVE)
        table.release_all(3)
        assert san.violations == []


class TestResourceOrder:
    def test_inversion_is_a_warning_not_a_violation(self, san):
        # the strict-2PL table rejects conflicts immediately instead of
        # blocking, so an order inversion is a latent hazard only
        table = LockTable()
        table.acquire(1, "rel:a", LockMode.EXCLUSIVE)
        table.acquire(1, "rel:b", LockMode.EXCLUSIVE)
        table.release_all(1)
        table.acquire(2, "rel:b", LockMode.EXCLUSIVE)
        table.acquire(2, "rel:a", LockMode.EXCLUSIVE)
        table.release_all(2)
        assert any(w.kind == "resource-order" for w in san.warnings)
        assert san.violations == []
        san.assert_clean()


class TestLifecycle:
    def test_uninstall_restores_every_patch(self):
        before = (threading.Lock, LockTable.acquire,
                  SingleWriterExecutor._run)
        active = sanitizer.LockOrderSanitizer()
        active.install()
        assert threading.Lock is not before[0]
        assert LockTable.acquire is not before[1]
        active.uninstall()
        assert (threading.Lock, LockTable.acquire,
                SingleWriterExecutor._run) == before

    def test_install_is_idempotent(self, san):
        saved = dict(san._saved)
        san.install()  # second call must not re-wrap the seams
        assert san._saved == saved

    def test_env_enabled_parsing(self, monkeypatch):
        for value, expected in (("1", True), ("yes", True),
                                ("true", True), ("0", False),
                                ("false", False), ("no", False),
                                ("", False)):
            monkeypatch.setenv(sanitizer.ENV_VAR, value)
            assert sanitizer.env_enabled() is expected, value
        monkeypatch.delenv(sanitizer.ENV_VAR)
        assert sanitizer.env_enabled() is False

    def test_ensure_installed_from_env_is_a_no_op_when_off(
            self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        if sanitizer.current() is None:
            assert sanitizer.ensure_installed_from_env() is None
            assert sanitizer.current() is None

    def test_module_level_install_returns_the_active_instance(self):
        pre = sanitizer.current()
        active = sanitizer.install()
        try:
            assert sanitizer.install() is active
            assert sanitizer.current() is active
        finally:
            if pre is None:  # leave a session-wide sanitizer alone
                sanitizer.uninstall()
                assert sanitizer.current() is None

    def test_env_opt_in_installs_the_sanitizer_on_open(self, tmp_path,
                                                       monkeypatch):
        pre = sanitizer.current()
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        config = DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT)
        db = CompliantDB.create(tmp_path / "db", config)
        try:
            assert sanitizer.current() is not None
        finally:
            db.close()
            if pre is None:
                sanitizer.uninstall()
