"""Transactions: locking, WAL, recovery, long-duration workspaces."""

from .locks import (
    DATABASE,
    IS,
    IX,
    S,
    X,
    LockManager,
    class_resource,
    compatible,
    object_resource,
)
from .long_tx import CheckinConflict, CheckinReport, PrivateWorkspace
from .recovery import RecoveryReport, checkpoint, recover
from .transaction import ACTIVE, ABORTED, COMMITTED, Transaction, TransactionManager
from .wal import (
    ABORT,
    BEGIN,
    CHECKPOINT,
    COMMIT,
    DELETE,
    INSERT,
    UPDATE,
    LogRecord,
    WriteAheadLog,
)

__all__ = [
    "DATABASE",
    "IS",
    "IX",
    "S",
    "X",
    "LockManager",
    "class_resource",
    "compatible",
    "object_resource",
    "CheckinConflict",
    "CheckinReport",
    "PrivateWorkspace",
    "RecoveryReport",
    "checkpoint",
    "recover",
    "ACTIVE",
    "ABORTED",
    "COMMITTED",
    "Transaction",
    "TransactionManager",
    "ABORT",
    "BEGIN",
    "CHECKPOINT",
    "COMMIT",
    "DELETE",
    "INSERT",
    "UPDATE",
    "LogRecord",
    "WriteAheadLog",
]
