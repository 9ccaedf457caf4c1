"""repro — reproduction of *An Architecture for Regulatory Compliant
Database Management* (Mitra, Winslett, Snodgrass, Yaduvanshi, Ambokar;
ICDE 2009).

A term-immutable DBMS built from scratch in Python: a transaction-time
storage engine (slotted pages, buffer cache, WAL, B+-trees), a simulated
WORM compliance server, the paper's log-consistent compliance architecture
with its hash-page-on-read and WORM-migration refinements, auditable
shredding, an auditor, an adversary toolkit, and a TPC-C workload.

Quickstart::

    from repro import CompliantDB, ComplianceMode, DBConfig
    db = CompliantDB.create(
        "/tmp/demo", DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT))

See ``examples/quickstart.py`` for a full tour.
"""

__version__ = "1.0.0"

from .api import ComplianceBackend
from .common.clock import SimulatedClock, days, minutes, seconds, years
from .common.codec import Field, FieldType, Schema
from .common.config import (ComplianceConfig, ComplianceMode, DBConfig,
                            EngineConfig)
from .core import (AuditReport, Auditor, CompliantDB, Finding,
                   VacuumReport)
from .crypto import AddHash, AuditorKey, SeqHash
from .shard import DistributedAuditor, DistributedAuditReport, ShardedDB

__all__ = [
    "AddHash", "AuditReport", "Auditor", "AuditorKey",
    "ComplianceBackend", "ComplianceConfig",
    "ComplianceMode", "CompliantDB", "DBConfig",
    "DistributedAuditReport", "DistributedAuditor", "EngineConfig",
    "Field",
    "FieldType", "Finding", "Schema", "SeqHash",
    "ShardedDB", "SimulatedClock",
    "VacuumReport", "days", "minutes", "seconds", "years", "__version__",
]
