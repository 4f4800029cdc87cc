"""Query model: OQL parsing, object algebra, planning, execution."""

from .ast import (
    AdtPredicate,
    And,
    Comparison,
    Const,
    Expr,
    MethodCall,
    Not,
    Or,
    Path,
    Query,
    conjuncts,
)
from .executor import Executor, ResultSet
from .operators import (
    ObjectKernel,
    PhysicalOperator,
    Pipeline,
    compile_plan,
)
from .parser import parse_query
from .paths import compare, evaluate_path, validate_path
from .planner import (
    AccessPath,
    AdtIndexProbe,
    ExtentScan,
    IndexEqProbe,
    IndexInProbe,
    IndexOrderScan,
    IndexRangeProbe,
    Plan,
    Planner,
)

__all__ = [
    "AdtPredicate",
    "And",
    "Comparison",
    "Const",
    "Expr",
    "MethodCall",
    "Not",
    "Or",
    "Path",
    "Query",
    "conjuncts",
    "Executor",
    "ResultSet",
    "ObjectKernel",
    "PhysicalOperator",
    "Pipeline",
    "compile_plan",
    "parse_query",
    "compare",
    "evaluate_path",
    "validate_path",
    "AccessPath",
    "AdtIndexProbe",
    "ExtentScan",
    "IndexEqProbe",
    "IndexInProbe",
    "IndexOrderScan",
    "IndexRangeProbe",
    "Plan",
    "Planner",
]
