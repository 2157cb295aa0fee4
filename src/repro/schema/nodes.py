"""Schema tree structure (paper §3.2.1, Figure 10b).

An inferred schema is a tree whose inner nodes describe nested values
(objects and collections) and whose leaves describe scalar values.  A
*union* node appears wherever an object field or a collection item was
observed with more than one type.  Every node carries a ``counter`` — the
number of records (more precisely, value occurrences) that contributed it —
which is what lets delete/upsert operations shrink the schema again
(paper §3.2.2, Figure 11).

Node children of object nodes are keyed by ``FieldNameID`` (see
:mod:`repro.schema.dictionary`); the mapping back to strings lives in the
schema's dictionary, never in the tree itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import SchemaError
from ..types import TypeTag, tag_name


class SchemaNode:
    """Base class for all schema tree nodes."""

    __slots__ = ("counter", "plan_slot")

    #: TypeTag this node describes; overridden per subclass/instance.
    tag: TypeTag = TypeTag.ANY

    def __init__(self, counter: int = 0) -> None:
        self.counter = counter
        #: This node's position in its schema's ``plan_nodes``, or -1: how a
        #: flush-time plan names the node (see ``InferredSchema.plans``).
        self.plan_slot = -1

    # -- counters --------------------------------------------------------------

    def increment(self, by: int = 1) -> None:
        self.counter += by

    def decrement(self, by: int = 1) -> None:
        self.counter -= by
        if self.counter < 0:
            raise SchemaError(
                f"schema counter underflow on {type(self).__name__} ({self.counter})"
            )

    @property
    def is_dead(self) -> bool:
        """A node with counter 0 no longer describes any live record."""
        return self.counter <= 0

    # -- structure ----------------------------------------------------------------

    def children(self) -> Iterator["SchemaNode"]:
        return iter(())

    def node_count(self) -> int:
        """Number of nodes in this subtree (including this node)."""
        return 1 + sum(child.node_count() for child in self.children())

    def clone(self) -> "SchemaNode":
        raise NotImplementedError

    def describe(self, dictionary=None, indent: int = 0) -> str:
        """Human-readable dump used by examples and error messages."""
        raise NotImplementedError


class ScalarNode(SchemaNode):
    """Leaf describing a scalar value of a single type."""

    __slots__ = ("tag",)

    def __init__(self, tag: TypeTag, counter: int = 0) -> None:
        super().__init__(counter)
        if tag.is_nested or tag is TypeTag.UNION:
            raise SchemaError(f"{tag.name} is not a scalar tag")
        self.tag = tag

    def clone(self) -> "ScalarNode":
        return ScalarNode(self.tag, self.counter)

    def describe(self, dictionary=None, indent: int = 0) -> str:
        return f"{tag_name(self.tag)} ({self.counter})"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ScalarNode({self.tag.name}, counter={self.counter})"


class ObjectNode(SchemaNode):
    """Inner node describing an object; children keyed by FieldNameID."""

    __slots__ = ("fields",)

    tag = TypeTag.OBJECT

    def __init__(self, counter: int = 0) -> None:
        super().__init__(counter)
        self.fields: Dict[int, SchemaNode] = {}

    def children(self) -> Iterator[SchemaNode]:
        return iter(self.fields.values())

    def child(self, field_name_id: int) -> Optional[SchemaNode]:
        return self.fields.get(field_name_id)

    def set_child(self, field_name_id: int, node: SchemaNode) -> None:
        self.fields[field_name_id] = node

    def remove_child(self, field_name_id: int) -> None:
        self.fields.pop(field_name_id, None)

    def clone(self) -> "ObjectNode":
        copy = ObjectNode(self.counter)
        copy.fields = {fid: child.clone() for fid, child in self.fields.items()}
        return copy

    def describe(self, dictionary=None, indent: int = 0) -> str:
        pad = "  " * (indent + 1)
        lines = [f"object ({self.counter})"]
        for field_name_id, child in sorted(self.fields.items()):
            label = dictionary.decode(field_name_id) if dictionary is not None else f"#{field_name_id}"
            lines.append(f"{pad}{label}: {child.describe(dictionary, indent + 1)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ObjectNode(fields={sorted(self.fields)}, counter={self.counter})"


class CollectionNode(SchemaNode):
    """Inner node describing an array or multiset; at most one item child."""

    __slots__ = ("tag", "item")

    def __init__(self, tag: TypeTag, counter: int = 0) -> None:
        super().__init__(counter)
        if not tag.is_collection:
            raise SchemaError(f"{tag.name} is not a collection tag")
        self.tag = tag
        self.item: Optional[SchemaNode] = None

    def children(self) -> Iterator[SchemaNode]:
        return iter(() if self.item is None else (self.item,))

    def clone(self) -> "CollectionNode":
        copy = CollectionNode(self.tag, self.counter)
        copy.item = None if self.item is None else self.item.clone()
        return copy

    def describe(self, dictionary=None, indent: int = 0) -> str:
        inner = "<empty>" if self.item is None else self.item.describe(dictionary, indent)
        return f"{tag_name(self.tag)} of {inner} ({self.counter})"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CollectionNode({self.tag.name}, counter={self.counter})"


class UnionNode(SchemaNode):
    """Inner node describing a value observed with multiple types.

    Children are keyed by the child's own :class:`TypeTag`; a union can have
    at most as many children as the data model has value types (the paper
    notes 27 for AsterixDB).
    """

    __slots__ = ("options",)

    tag = TypeTag.UNION

    def __init__(self, counter: int = 0) -> None:
        super().__init__(counter)
        self.options: Dict[TypeTag, SchemaNode] = {}

    def children(self) -> Iterator[SchemaNode]:
        return iter(self.options.values())

    def option(self, tag: TypeTag) -> Optional[SchemaNode]:
        return self.options.get(tag)

    def set_option(self, node: SchemaNode) -> None:
        self.options[node.tag] = node

    def remove_option(self, tag: TypeTag) -> None:
        self.options.pop(tag, None)

    def collapse_if_single(self) -> SchemaNode:
        """Return the lone child when only one option remains, else self.

        Deleting the last record carrying one branch of a union collapses the
        union back to a plain node (the paper's ``union(int,string) -> int``
        example after deleting record id 3).
        """
        if len(self.options) == 1:
            return next(iter(self.options.values()))
        return self

    def clone(self) -> "UnionNode":
        copy = UnionNode(self.counter)
        copy.options = {tag: child.clone() for tag, child in self.options.items()}
        return copy

    def describe(self, dictionary=None, indent: int = 0) -> str:
        inner = ", ".join(
            child.describe(dictionary, indent) for _, child in sorted(self.options.items())
        )
        return f"union({inner}) ({self.counter})"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"UnionNode(options={sorted(t.name for t in self.options)}, counter={self.counter})"


def new_node(tag: TypeTag, counter: int = 0) -> SchemaNode:
    """A fresh node describing a value of type ``tag``."""
    if tag is TypeTag.OBJECT:
        return ObjectNode(counter)
    if tag.is_collection:
        return CollectionNode(tag, counter)
    return ScalarNode(tag, counter)


def nodes_equal(left: SchemaNode, right: SchemaNode, *, compare_counters: bool = False) -> bool:
    """Structural equality of two schema subtrees.

    Counters are ignored by default because two partitions that saw different
    record volumes can still have the same *shape*; tests that care about
    counters pass ``compare_counters=True``.
    """
    if type(left) is not type(right):
        return False
    if compare_counters and left.counter != right.counter:
        return False
    if isinstance(left, ScalarNode):
        return left.tag is right.tag
    if isinstance(left, ObjectNode):
        if left.fields.keys() != right.fields.keys():
            return False
        return all(
            nodes_equal(left.fields[fid], right.fields[fid], compare_counters=compare_counters)
            for fid in left.fields
        )
    if isinstance(left, CollectionNode):
        if left.tag is not right.tag:
            return False
        if (left.item is None) != (right.item is None):
            return False
        if left.item is None:
            return True
        return nodes_equal(left.item, right.item, compare_counters=compare_counters)
    if isinstance(left, UnionNode):
        if left.options.keys() != right.options.keys():
            return False
        return all(
            nodes_equal(left.options[tag], right.options[tag], compare_counters=compare_counters)
            for tag in left.options
        )
    raise SchemaError(f"unknown node type {type(left).__name__}")


def leaf_paths(node: SchemaNode, dictionary=None, prefix: Tuple[str, ...] = ()) -> List[Tuple[Tuple[str, ...], TypeTag]]:
    """Enumerate ``(path, scalar tag)`` leaves; used by tests and reports."""
    results: List[Tuple[Tuple[str, ...], TypeTag]] = []
    if isinstance(node, ScalarNode):
        results.append((prefix, node.tag))
    elif isinstance(node, ObjectNode):
        for field_name_id, child in sorted(node.fields.items()):
            label = dictionary.decode(field_name_id) if dictionary is not None else f"#{field_name_id}"
            results.extend(leaf_paths(child, dictionary, prefix + (label,)))
    elif isinstance(node, CollectionNode):
        if node.item is not None:
            results.extend(leaf_paths(node.item, dictionary, prefix + ("[]",)))
    elif isinstance(node, UnionNode):
        for tag, child in sorted(node.options.items()):
            results.extend(leaf_paths(child, dictionary, prefix + (f"|{tag_name(tag)}",)))
    return results
