"""The paper's contribution: the log-consistent compliant DBMS layer."""

from .audit import Auditor, sorted_completeness_check
from .audit_scan import AuditReport, Finding, ScanState, validate_undos
from .compliance_log import ComplianceLog, aux_name, log_name
from .database import CompliantDB, wal_mirror_name
from .plugin import CompliancePlugin, decode_index_content, \
    index_content_bytes
from .records import AuxStampEntry, CLogRecord, CLogType, peek_frame
from .shredding import (EXPIRY_RELATION, EXPIRY_SCHEMA, Shredder,
                        VacuumReport)
from .snapshot import Snapshot, load_snapshot, snapshot_name, \
    write_snapshot

__all__ = [
    "AuditReport", "Auditor", "AuxStampEntry", "CLogRecord", "CLogType",
    "ComplianceLog", "CompliancePlugin", "CompliantDB", "EXPIRY_RELATION",
    "EXPIRY_SCHEMA", "Finding", "Shredder", "Snapshot", "VacuumReport",
    "ScanState",
    "aux_name", "decode_index_content", "index_content_bytes", "log_name",
    "load_snapshot", "peek_frame", "snapshot_name",
    "sorted_completeness_check", "validate_undos",
    "wal_mirror_name", "write_snapshot",
]

from .attacks import Adversary, AttackFailed

__all__.extend(["Adversary", "AttackFailed"])

from .holds import HOLDS_RELATION, HOLDS_SCHEMA, Hold, HoldManager

__all__.extend(["HOLDS_RELATION", "HOLDS_SCHEMA", "Hold", "HoldManager"])
