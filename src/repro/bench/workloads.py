"""Shared workload construction for the benchmark harness."""

from __future__ import annotations

import os
from pathlib import Path

from ..common.clock import SimulatedClock, minutes, seconds
from ..common.config import ComplianceConfig, ComplianceMode, DBConfig, \
    EngineConfig
from ..core import CompliantDB
from ..tpcc import TPCCDriver, TPCCLoader, TPCCScale

#: the paper's regret interval in its experiments
REGRET = minutes(5)
#: simulated gap between transactions — 100k txns in 2-3 hours ≈ 0.1 s
TXN_GAP = seconds(0.1)


def build_db(path: Path, mode: ComplianceMode, scale: TPCCScale,
             buffer_pages: int, page_size: int = 2048, seed: int = 42,
             worm_migration: bool = False,
             split_threshold: float = 0.5) -> CompliantDB:
    """Create and populate a TPC-C database in the given architecture.

    The simulated per-page I/O delay comes from the ``REPRO_IO_DELAY``
    environment variable (default 0.2 ms).
    """
    clock = SimulatedClock()
    io_delay = float(os.environ.get("REPRO_IO_DELAY", "0.0002"))
    config = DBConfig(
        engine=EngineConfig(page_size=page_size,
                            buffer_pages=buffer_pages,
                            io_delay_seconds=io_delay),
        compliance=ComplianceConfig(mode=mode,
                                    regret_interval=REGRET,
                                    worm_migration=worm_migration,
                                    split_threshold=split_threshold))
    db = CompliantDB.create(path, config, clock=clock)
    TPCCLoader(db, scale, seed=seed).load()
    return db


def make_driver(db: CompliantDB, scale: TPCCScale,
                seed: int = 7) -> TPCCDriver:
    """A driver with the paper-equivalent simulated transaction pacing."""
    return TPCCDriver(db, scale, seed=seed, simulated_txn_gap=TXN_GAP)
