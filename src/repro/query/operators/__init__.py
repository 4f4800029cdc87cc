"""repro.query.operators — the physical operator layer.

A Volcano-style pull pipeline that moves batches
(``open()/next_batch(n)/close()``) with live per-operator counters
(``rows_out``, ``elapsed``, probe counts).  The planner's
:class:`~repro.query.planner.Plan` compiles into a chain of these via
:func:`compile_plan`; the executor is a thin driver, EXPLAIN ANALYZE
reads stats straight off the operators, and the federation layer reuses
the same operators over row dicts through its own kernel.
"""

from .base import ObjectKernel, PhysicalOperator
from .leaves import ExtentScanOp, IndexOrderScanOp, IndexProbeOp, VirtualScanOp
from .pipeline import Pipeline, compile_plan
from .unary import (
    AggregateOp,
    DerefOp,
    FilterOp,
    GroupByOp,
    LimitOp,
    ProjectOp,
    SortOp,
)

__all__ = [
    "AggregateOp",
    "DerefOp",
    "ExtentScanOp",
    "FilterOp",
    "GroupByOp",
    "IndexOrderScanOp",
    "IndexProbeOp",
    "LimitOp",
    "ObjectKernel",
    "PhysicalOperator",
    "Pipeline",
    "ProjectOp",
    "SortOp",
    "VirtualScanOp",
    "compile_plan",
]
