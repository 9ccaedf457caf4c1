"""Configuration dataclasses for the storage engine and compliance layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .clock import minutes, years
from .errors import ConfigError

DEFAULT_PAGE_SIZE = 4096
MIN_PAGE_SIZE = 256


class ComplianceMode(enum.Enum):
    """Which architecture variant a :class:`~repro.core.database.CompliantDB`
    runs in.

    * ``REGULAR`` — plain transaction-time DBMS; no compliance log.  This is
      the paper's "native Berkeley DB" baseline.
    * ``LOG_CONSISTENT`` — Section IV: NEW_TUPLE/STAMP_TRANS/ABORT/UNDO
      records go to the compliance log on WORM; snapshot-based audits.
    * ``HASH_ON_READ`` — Section V refinement: additionally hash every page
      read from disk (READ records) and log PAGE_SPLIT contents, enabling
      query-result verification at audit time.
    """

    REGULAR = "regular"
    LOG_CONSISTENT = "log-consistent"
    HASH_ON_READ = "hash-on-read"


@dataclass
class EngineConfig:
    """Storage-engine knobs (the Berkeley-DB-equivalent layer)."""

    page_size: int = DEFAULT_PAGE_SIZE
    buffer_pages: int = 256
    #: fsync data/log files on flush.  Off by default: the reproduction runs
    #: on scratch dirs and simulated crashes never rely on the OS cache.
    sync_writes: bool = False
    #: simulated seconds per data-page I/O (see Pager.io_delay); the
    #: benchmarks use this to restore the paper's I/O-vs-CPU cost balance
    io_delay_seconds: float = 0.0

    def validate(self) -> None:
        if self.page_size < MIN_PAGE_SIZE:
            raise ConfigError(f"page_size must be >= {MIN_PAGE_SIZE}")
        if self.buffer_pages < 8:
            raise ConfigError("buffer_pages must be >= 8")


@dataclass
class ComplianceConfig:
    """Compliance-layer knobs (the paper's contribution)."""

    mode: ComplianceMode = ComplianceMode.LOG_CONSISTENT
    #: minimum time between a tuple's commit and any tampering attempt
    #: (Section II).  Dirty pages must reach disk — and hence their
    #: NEW_TUPLE records must reach WORM — within one regret interval.
    regret_interval: int = minutes(5)
    #: default retention period for WORM files (snapshots, logs).
    worm_retention: int = years(7)
    #: migrate historical pages of time-split B+-trees to WORM (Section VI).
    worm_migration: bool = False
    #: key-vs-time split threshold for time-split B+-trees (Section VI):
    #: if distinct-keys/tuples on a leaf is below the threshold, key-split,
    #: otherwise time-split.
    split_threshold: float = 0.5
    #: default ``workers`` of an :class:`~repro.core.audit.Auditor`
    #: (Section VI audit cost): 0 = one in-process pass, 1 = the
    #: partitioned plan run in-process, N > 1 = the same plan on a pool
    #: of N worker processes
    audit_workers: int = 0

    def validate(self) -> None:
        if self.regret_interval <= 0:
            raise ConfigError("regret_interval must be positive")
        if self.worm_retention <= 0:
            raise ConfigError("worm_retention must be positive")
        if not 0.0 <= self.split_threshold <= 1.0:
            raise ConfigError("split_threshold must be in [0, 1]")
        if self.audit_workers < 0:
            raise ConfigError("audit_workers must be non-negative")


@dataclass
class ObsConfig:
    """Observability knobs (the ``repro.obs`` registry and tracer)."""

    #: ring-buffer capacity for finished tracing spans (oldest dropped
    #: first, with a drop counter)
    trace_capacity: int = 4096

    def validate(self) -> None:
        if self.trace_capacity < 0:
            raise ConfigError("trace_capacity must be non-negative")


@dataclass
class DBConfig:
    """Top-level configuration for a compliant database instance.

    The single construction path: ``CompliantDB.create(path, config)``
    and ``open`` consume one of these (``compliance.mode`` selects the
    architecture variant; ``obs`` configures the metrics/tracing
    layer).
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    compliance: ComplianceConfig = field(default_factory=ComplianceConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    @classmethod
    def for_mode(cls, mode: ComplianceMode, **compliance: Any) -> \
            "DBConfig":
        """Convenience: a default config running in ``mode``.

        Extra keyword arguments become :class:`ComplianceConfig`
        fields, e.g. ``DBConfig.for_mode(mode, worm_migration=True)``.
        """
        return cls(compliance=ComplianceConfig(mode=mode, **compliance))

    def validate(self) -> None:
        self.engine.validate()
        self.compliance.validate()
        self.obs.validate()
