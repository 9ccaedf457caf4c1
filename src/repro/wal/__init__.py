"""Write-ahead logging: records, the log with WORM tail, recovery analysis."""

from .log import TransactionLog
from .records import WalRecord, WalRecordType, iter_mirror, mirror_frame
from .recovery import RecoveryPlan, analyse

__all__ = ["RecoveryPlan", "TransactionLog", "WalRecord", "WalRecordType",
           "analyse", "iter_mirror", "mirror_frame"]
