"""Schema inference and maintenance (the tuple compactor's schema structure)."""

from .dictionary import FieldNameDictionary
from .nodes import (
    CollectionNode,
    ObjectNode,
    ScalarNode,
    SchemaNode,
    UnionNode,
    leaf_paths,
    nodes_equal,
)
from .schema import InferredSchema

__all__ = [
    "FieldNameDictionary",
    "SchemaNode",
    "ScalarNode",
    "ObjectNode",
    "CollectionNode",
    "UnionNode",
    "nodes_equal",
    "leaf_paths",
    "InferredSchema",
]
