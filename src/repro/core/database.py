"""The compliant database facade — the paper's architecture, assembled.

:class:`CompliantDB` wires together the storage engine, the WORM server,
the compliance plugin, and the epoch bookkeeping:

* ``REGULAR`` mode is the paper's baseline ("native Berkeley DB"): just the
  transaction-time engine, no compliance logging.
* ``LOG_CONSISTENT`` adds the Section IV architecture: compliance log on
  WORM, signed snapshots, WAL tail mirrored to WORM, witness files,
  auditable crash recovery.
* ``HASH_ON_READ`` further enables the Section V refinement: tuple order
  numbers, READ_HASH records for every page read from disk, PAGE_SPLIT
  content logging — giving a finite query verification interval.

WORM migration (Section VI) is orthogonal: enable it via
``ComplianceConfig.worm_migration`` and relations are stored in time-split
B+-trees whose history migrates to WORM pages.

Layout on disk::

    <path>/db/    the engine (data.db, wal.log, histdir.json)
    <path>/worm/  the simulated WORM volume (compliance log epochs,
                  snapshots, witness files, WAL mirror, historical pages)
"""

from __future__ import annotations

import json
import os
from dataclasses import fields as dc_fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..common.clock import SimulatedClock
from ..common.codec import Schema
from ..common.config import (ComplianceConfig, ComplianceMode, DBConfig,
                             EngineConfig, ObsConfig)
from ..common.errors import ConfigError
from ..crypto import AuditorKey
from ..obs import Observability, metrics_report, publish_hash_stats
from ..temporal.engine import Engine, RecoveryReport
from ..worm import WormServer
from .compliance_log import ComplianceLog, aux_name
from .holds import HOLDS_SCHEMA, HoldManager
from .plugin import CompliancePlugin
from .shredding import EXPIRY_SCHEMA, Shredder
from .snapshot import write_snapshot


def wal_mirror_name(epoch: int) -> str:
    """WORM file name of an epoch's transaction-log mirror."""
    return f"txnlog/epoch-{epoch:06d}.log"


class CompliantDB:
    """A term-immutable database instance."""

    def __init__(self, path: os.PathLike, clock: SimulatedClock,
                 config: DBConfig, auditor_key: AuditorKey,
                 _create: bool, obs: Optional[Observability] = None):
        self.path = Path(path)
        self.clock = clock
        self.config = config
        self.auditor_key = auditor_key
        config.validate()
        mode = config.compliance.mode
        self.mode = mode
        if os.environ.get("REPRO_SANITIZE"):
            # lazy: the engine must not pay the lint-framework import
            # unless the concurrency sanitizer was actually requested
            from ..analysis import sanitizer
            if sanitizer.env_enabled():
                sanitizer.install()
        #: one bundle threads through every layer; span timestamps come
        #: from the simulated clock, so traces are replay-deterministic
        self.obs = obs if obs is not None else \
            Observability.from_config(config.obs, now=clock.now)
        registry = self.obs.registry
        self._c_crashes = registry.counter(
            "db_crashes_total", help="simulated process crashes")
        self._c_recoveries = registry.counter(
            "db_recoveries_total", help="crash recoveries performed")
        self._c_rotations = registry.counter(
            "epoch_rotations_total", help="audit-epoch rotations")
        self._g_epoch = registry.gauge(
            "db_epoch", help="current audit epoch")

        self.worm = WormServer(self.path / "worm", clock,
                               default_retention=config.compliance
                               .worm_retention, obs=self.obs)
        engine_cls = Engine.create if _create else Engine.open
        self.engine = engine_cls(
            self.path / "db", clock, config=config.engine, worm=self.worm,
            assign_seq=(mode is ComplianceMode.HASH_ON_READ),
            worm_migration=config.compliance.worm_migration,
            split_threshold=config.compliance.split_threshold,
            worm_retention=config.compliance.worm_retention,
            obs=self.obs)

        self.plugin: Optional[CompliancePlugin] = None
        self.clog: Optional[ComplianceLog] = None
        self._was_clean = self.engine.was_clean_shutdown() or _create

        if _create:
            self._write_mode_marker()
            meta = self.engine.buffer.get(0)
            meta.meta["audit_epoch"] = 1
            self.engine.buffer.mark_dirty(meta)
        else:
            self._check_mode_marker()
            # a reopened database may be handed a *fresh* SimulatedClock
            # (repro-admin, repro.server): fast-forward past every
            # persisted timestamp, or new commits would stamp earlier
            # than records already in L and fail the auditor's
            # stamp-order check
            clock.advance_to(self._persisted_high_time())

        if mode is not ComplianceMode.REGULAR:
            self.clog = ComplianceLog(self.worm, self.epoch,
                                      retention=config.compliance
                                      .worm_retention)
            self.plugin = CompliancePlugin(
                self.engine, self.clog, mode,
                config.compliance.regret_interval,
                witness_retention=config.compliance.worm_retention,
                obs=self.obs)
            self.plugin.attach()
            if not _create:
                self.plugin.load_epoch_state()
            self.engine.wal.set_worm_mirror(
                self.worm, wal_mirror_name(self.epoch),
                retention=config.compliance.worm_retention)

        self.shredder = Shredder(self)
        self.holds = HoldManager(self)
        self._g_epoch.set(self.epoch)

        if _create:
            if mode is not ComplianceMode.REGULAR:
                # genesis snapshot: the signed, empty state opening epoch 1
                self.engine.checkpoint()
                write_snapshot(self.worm, auditor_key, self.engine,
                               epoch=1,
                               retention=config.compliance.worm_retention)
            self.engine.create_relation(EXPIRY_SCHEMA, use_tsb=False)
            self.engine.create_relation(HOLDS_SCHEMA, use_tsb=False)
            self.engine.checkpoint()

    # -- construction ---------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike,
               config: Optional[DBConfig] = None, *,
               clock: Optional[SimulatedClock] = None,
               auditor_key: Optional[AuditorKey] = None,
               obs: Optional[Observability] = None) -> "CompliantDB":
        """Create a fresh compliant database at ``path``.

        ``config`` is the single construction surface: the architecture
        variant is ``config.compliance.mode`` (see
        :meth:`DBConfig.for_mode`), engine knobs live in
        ``config.engine``, and metrics/tracing in ``config.obs``.
        """
        return cls(path, clock or SimulatedClock(),
                   config or DBConfig(),
                   auditor_key or AuditorKey.generate(), _create=True,
                   obs=obs)

    @classmethod
    def open(cls, path: os.PathLike, clock: SimulatedClock,
             auditor_key: Optional[AuditorKey] = None,
             obs: Optional[Observability] = None) -> "CompliantDB":
        """Re-open an existing database (mode and config come from its
        marker file, so the page size and compliance parameters always
        match what the database was created with).

        Call :meth:`recover` afterwards; it is a no-op after a clean
        shutdown and performs auditable crash recovery otherwise.
        """
        marker = json.loads((Path(path) / "mode.json").read_text())

        def section(cls: Any, name: str, **override: Any) -> Any:
            # compatibility both ways: a marker written before a knob
            # existed lacks the key (the dataclass default applies); one
            # written by a build that had a knob this one dropped
            # carries a key that is ignored
            saved = {**marker.get(name, {}), **override}
            return cls(**{f.name: saved[f.name] for f in dc_fields(cls)
                          if f.name in saved})

        # the top-level marker field is authoritative: markers written
        # before the config-first API may carry a stale default mode in
        # their compliance section
        config = DBConfig(
            engine=section(EngineConfig, "engine"),
            compliance=section(ComplianceConfig, "compliance",
                               mode=ComplianceMode(marker["mode"])),
            obs=section(ObsConfig, "obs"))
        return cls(path, clock, config,
                   auditor_key or AuditorKey.generate(), _create=False,
                   obs=obs)

    def _write_mode_marker(self) -> None:
        from dataclasses import asdict
        engine = asdict(self.config.engine)
        compliance = asdict(self.config.compliance)
        compliance["mode"] = self.config.compliance.mode.value
        (self.path / "mode.json").write_text(json.dumps(
            {"mode": self.mode.value, "engine": engine,
             "compliance": compliance,
             "obs": asdict(self.config.obs)}))

    def _check_mode_marker(self) -> None:
        marker = json.loads((self.path / "mode.json").read_text())
        if ComplianceMode(marker["mode"]) is not self.mode:
            raise ConfigError(
                f"database was created in mode {marker['mode']!r}")

    def _persisted_high_time(self) -> int:
        """Highest timestamp recoverable from durable state.

        Sources: WORM file creation times (the trusted box's clock
        survives restarts) and the current epoch's auxiliary stamp
        index (exact commit times).  REGULAR mode has neither and
        returns 0 — a no-op fast-forward.
        """
        from .records import iter_aux
        high = 0
        for name in self.worm.list_files():
            high = max(high, self.worm.meta(name).create_time)
        aux = aux_name(self.epoch)
        if self.worm.exists(aux):
            for entry in iter_aux(self.worm.read(aux)):
                high = max(high, entry.commit_time)
        return high

    # -- epoch bookkeeping -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current audit epoch (starts at 1)."""
        return self.engine.buffer.get(0).meta["audit_epoch"]

    def rotate_epoch(self) -> int:
        """Advance to the next epoch (called by the auditor after success).
        """
        with self.obs.tracer.span("epoch.rotate", epoch=self.epoch):
            meta = self.engine.buffer.get(0)
            new_epoch = meta.meta["audit_epoch"] + 1
            meta.meta["audit_epoch"] = new_epoch
            self.engine.buffer.mark_dirty(meta)
            if self.mode is not ComplianceMode.REGULAR:
                with self.obs.tracer.span("clog.seal",
                                          epoch=new_epoch - 1):
                    self.clog.seal(close_time=self.clock.now())
                self.clog = ComplianceLog(self.worm, new_epoch,
                                          retention=self.config.compliance
                                          .worm_retention)
                self.plugin.rotate_epoch(self.clog)
                self.worm.seal(wal_mirror_name(new_epoch - 1))
                self.engine.wal.truncate()
                self.engine.wal.set_worm_mirror(
                    self.worm, wal_mirror_name(new_epoch),
                    retention=self.config.compliance.worm_retention)
            self.engine.checkpoint()
        self._c_rotations.inc()
        self._g_epoch.set(new_epoch)
        return new_epoch

    # -- data API (delegation) -----------------------------------------------------------

    def begin(self):
        """Start a transaction."""
        return self.engine.begin()

    def commit(self, txn) -> int:
        """Commit a transaction; returns the commit time."""
        return self.engine.commit(txn)

    def abort(self, txn) -> None:
        """Roll back a transaction."""
        self.engine.abort(txn)

    def prepare(self, txn, gid: str) -> None:
        """2PC phase one: durably prepare under the coordinator's gid.

        The transaction keeps its locks and admits no further writes;
        commit or abort it once the coordinator decides (see
        :mod:`repro.shard`)."""
        self.engine.prepare(txn, gid)

    def transaction(self):
        """Context manager: commit on success, abort on exception."""
        return self.engine.transaction()

    @property
    def halted(self) -> bool:
        """Whether transaction processing is halted (a commit/abort
        listener failed after the durable outcome; see
        :mod:`repro.txn.manager`).  Repair with :meth:`crash` +
        :meth:`recover`."""
        return self.engine.txns.halted

    def create_relation(self, schema: Schema,
                        use_tsb: Optional[bool] = None):
        """Create a relation (transaction-time, audited) from a
        :class:`Schema`."""
        from ..api import require_schema
        return self.engine.create_relation(require_schema(schema),
                                           use_tsb=use_tsb)

    def insert(self, txn, relation: str, row: Dict[str, Any]) -> None:
        """Insert a tuple."""
        self.engine.insert(txn, relation, row)

    def insert_many(self, txn, relation: str,
                    rows: List[Dict[str, Any]]) -> None:
        """Insert a batch of tuples into one relation (batched codec)."""
        self.engine.insert_many(txn, relation, rows)

    def update(self, txn, relation: str, row: Dict[str, Any]) -> None:
        """Write a new version of an existing tuple."""
        self.engine.update(txn, relation, row)

    def delete(self, txn, relation: str, key: Tuple[Any, ...]) -> None:
        """Logically delete a tuple (end-of-life version)."""
        self.engine.delete(txn, relation, key)

    def get(self, relation: str, key: Tuple[Any, ...], txn=None,
            at: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Read a row, current or as of a past time."""
        return self.engine.get(relation, key, txn=txn, at=at)

    def scan(self, relation: str, lo=None, hi=None, txn=None,
             at: Optional[int] = None):
        """Range scan of visible rows."""
        return self.engine.scan(relation, lo=lo, hi=hi, txn=txn, at=at)

    def versions(self, relation: str, key: Tuple[Any, ...]):
        """Full version history of a key (live tree + WORM pages)."""
        return self.engine.versions(relation, key)

    def set_retention(self, relation: str, period: int) -> None:
        """Record a relation's retention period in the Expiry relation."""
        self.shredder.set_retention(relation, period)

    def vacuum(self):
        """Shred expired tuples (Section VIII); returns a VacuumReport."""
        return self.shredder.vacuum()

    def place_hold(self, relation: str, key: Optional[Tuple] = None,
                   case_ref: str = "") -> int:
        """Place a litigation hold: the tuple (or whole relation) becomes
        unshreddable until the hold is released, even after expiry."""
        return self.holds.place(relation, key=key, case_ref=case_ref)

    def release_hold(self, hold_id: int) -> None:
        """Release a litigation hold (the hold's history is preserved)."""
        self.holds.release(hold_id)

    # -- maintenance / lifecycle ----------------------------------------------------------

    def maintenance(self, force: bool = False) -> bool:
        """Regret-interval duties: checkpoint, witness file, heartbeat.

        Call this from the driver loop; it is a no-op until a regret
        interval has elapsed since the last one (unless forced).
        """
        if self.plugin is None:
            return False
        return self.plugin.maintenance(force=force)

    def pass_time(self, duration: int) -> None:
        """Advance the simulated clock through ``duration``, running
        maintenance each regret interval so liveness witnesses exist."""
        interval = self.config.compliance.regret_interval
        remaining = duration
        while remaining > 0:
            step = min(interval, remaining)
            self.clock.advance(step)
            remaining -= step
            self.maintenance()

    def now(self) -> int:
        """The database's current simulated time."""
        return self.clock.now()

    def checkpoint(self) -> None:
        """Apply pending lazy stamps, then flush WAL and dirty pages.

        The backend-protocol spelling of ``engine.checkpoint()`` — remote
        and sharded backends expose the same method, so loaders need no
        engine access."""
        self.engine.checkpoint()

    def prepare_for_audit(self) -> None:
        """Quiesce for audit: drain transactions, stamps, dirty pages."""
        self.engine.quiesce()

    def crash(self) -> None:
        """Simulate a process crash (volatile state vanishes).

        This includes the WORM group-commit buffer: compliance records
        appended since the last durability barrier never reached the
        WORM box, exactly like unsent network writes.  Call
        :meth:`recover` before using the database again.
        """
        self.engine.crash()
        self.worm.drop_buffers()
        if self.plugin is not None:
            self.plugin.on_crash()
        self._was_clean = False
        self._c_crashes.inc()

    def recover(self, in_doubt_commits: Optional[Any] = None
                ) -> RecoveryReport:
        """Auditable crash recovery (a true no-op after a clean shutdown).

        After a clean shutdown nothing is replayed at all: replaying the
        WAL against a quiesced database would silently *repair* any
        tampering an adversary performed while the DBMS was down, masking
        it from the audit.  Only an actual crash warrants recovery.

        ``in_doubt_commits`` is the 2PC coordinator's set of committed
        gids (from its decision journal): a prepared-but-undecided
        transaction found in the WAL commits iff its gid is in the set
        (presumed abort otherwise).  When the WAL holds in-doubt
        transactions and no set is given, recovery raises
        :class:`~repro.common.errors.RecoveryError` rather than guess.
        """
        if self._was_clean:
            return RecoveryReport()
        resolver = None
        if in_doubt_commits is not None:
            decided = frozenset(in_doubt_commits)
            resolver = decided.__contains__
        with self.obs.tracer.span("db.recover"):
            if self.plugin is not None:
                self.plugin.begin_recovery()
                report = self.engine.recover(
                    on_outcomes=self.plugin.recovery_outcomes,
                    resolve_in_doubt=resolver)
                self.shredder.finish_pending()
            else:
                report = self.engine.recover(resolve_in_doubt=resolver)
        self._was_clean = True
        self._c_recoveries.inc()
        return report

    def metrics(self) -> Dict[str, Any]:
        """Snapshot of every metric and span count across all layers.

        The counters are process-lifetime: a simulated :meth:`crash`
        does not reset them (the *process* survived), so the report also
        covers recovery work.  The shape is the JSON exporter's —
        ``{"counters", "gauges", "histograms", "spans",
        "spans_dropped"}``.  The process-wide SHA-512 work counters are
        mirrored into ``hash_sha512_calls`` / ``hash_memo_hits`` gauges
        on every call, so digest work per mode shows up next to the
        digest-pool counters.
        """
        publish_hash_stats(self.obs.registry)
        return metrics_report(self.obs.registry, self.obs.tracer)

    def close(self) -> None:
        """Clean shutdown: final checkpoint, then drain the compliance
        log's group-commit buffer so nothing rides only in memory."""
        self.engine.close()
        if self.plugin is not None:
            self.plugin.barrier()
