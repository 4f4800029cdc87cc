"""Secondary indexing: B+-tree, attribute (single-class / class-hierarchy), nested."""

from .attribute import AttributeIndex
from .base import Index, attribute_keys
from .btree import BTree, normalize_key
from .manager import IndexManager
from .nested import NestedAttributeIndex

__all__ = [
    "AttributeIndex",
    "Index",
    "attribute_keys",
    "BTree",
    "normalize_key",
    "IndexManager",
    "NestedAttributeIndex",
]
