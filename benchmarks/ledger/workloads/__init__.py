"""The five workloads; ``REGISTRY`` maps manifest names to classes."""

from .commit_write import CommitWrite
from .fig1_scan import Fig1Scan
from .oo1_traverse import OO1Traverse
from .query_point import QueryPoint
from .server_mixed import ServerMixed

REGISTRY = {
    cls.name: cls
    for cls in (Fig1Scan, QueryPoint, OO1Traverse, CommitWrite, ServerMixed)
}
