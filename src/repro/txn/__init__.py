"""Transactions: locking, WAL, recovery."""

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
