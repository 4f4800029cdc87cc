"""kimdb DL: the unified DDL/DML/DCL database language (Section 3.1)."""

from .ddl import Interpreter, StatementResult, describe_class

__all__ = ["Interpreter", "StatementResult", "describe_class"]
