"""Inferred schema: inference, union/merge, delete maintenance, serialization.

An :class:`InferredSchema` couples the schema tree structure of
:mod:`repro.schema.nodes` with the field-name dictionary of
:mod:`repro.schema.dictionary`.  It supports the four operations the tuple
compactor needs (paper §3.1–3.2):

* ``observe(record)`` — add one record's structure during a flush, growing
  the tree and counters ("the newly inferred schema is a super-set of all
  previously inferred schemas").
* ``remove(payload)`` — process an *anti-schema*: decrement counters along
  a deleted/updated record's stored bytes and prune nodes whose counter
  reaches zero (Figure 11), collapsing unions that lose all but one branch.
* ``merge_newest`` — during LSM merges only the most recent schema needs to
  be kept (monotonicity), so merging is a choice, not a tree union; the
  classmethod documents and enforces that.
* ``to_bytes`` / ``from_bytes`` — persistence into a component's metadata
  page.

It also holds the flush-time plans of
:func:`~repro.vector.compaction.infer_and_compact` (``plans``,
``replay_plan``, ``keep_plan``, ``drop_plans``): what walking a record
layout did to this schema object, replayed for the next record of that
layout.  Plans belong to the object; no copy carries them.

Declared fields (the dataset's pre-declared datatype, at the root level)
are *not* inferred — their description already lives in the metadata node —
matching the paper's treatment of the ``id`` field.
"""

from __future__ import annotations

import struct
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..types import AMultiset, Datatype, Missing, TypeTag, type_tag_of
from .dictionary import FieldNameDictionary
from .nodes import (
    CollectionNode,
    ObjectNode,
    ScalarNode,
    SchemaNode,
    UnionNode,
    new_node,
    nodes_equal,
)

_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")

#: Record layouts one schema keeps flush-time plans for.  A partition of
#: generated tweets keeps about 100 (a union promotion drops them all); a
#: tweet's key takes about 0.5 KiB and its plan 0.25 KiB, so this bounds a
#: table to under 1 MiB.  A full table drops its oldest quarter.
PLAN_CAPACITY = 1024


class InferredSchema:
    """Schema inferred for one dataset partition.

    Parameters
    ----------
    datatype:
        The dataset's declared datatype.  Root-level declared fields are
        skipped during inference (their metadata is in the catalog).
    """

    def __init__(self, datatype: Optional[Datatype] = None) -> None:
        self.datatype = datatype
        self.dictionary = FieldNameDictionary()
        self.root = ObjectNode()
        #: Monotonically increasing version; bumped on every mutation so
        #: on-disk components can record which schema snapshot covered them.
        self.version = 0
        #: Flush-time plans of :func:`~repro.vector.compaction.infer_and_compact`:
        #: uncompacted record layout -> the ``plan_slot`` of each node its
        #: walk incremented (in walk order, with repeats; an ``array("I")``'s
        #: bytes), then the packed ``FieldNameID`` entries it wrote.  One
        #: ``bytes`` per plan, so a plan adds nothing the cyclic collector
        #: tracks or counts.  A copy (:meth:`snapshot`, :meth:`from_bytes`)
        #: starts with none.
        self.plans: Dict[bytes, bytes] = {}
        #: Every node with a slot, at that slot: a node's ``plan_slot`` is
        #: either -1 or its index here.
        self.plan_nodes: List[SchemaNode] = []

    # ------------------------------------------------------------------ plans

    def replay_plan(self, plan: bytes, id_count: int) -> bytes:
        """Fold in one more record of a planned layout, as its walk would:
        increment the root and every node ``plan`` names and bump the
        version.  Returns the plan's ``id_count`` packed ids."""
        ids_at = len(plan) - 2 * id_count
        nodes = self.plan_nodes
        self.root.counter += 1
        for slot in array("I", plan[:ids_at]):
            nodes[slot].counter += 1
        self.version += 1
        return plan[ids_at:]

    def slotted(self, node: SchemaNode) -> SchemaNode:
        """``node``, which has no slot, with the next one."""
        node.plan_slot = len(self.plan_nodes)
        self.plan_nodes.append(node)
        return node

    def keep_plan(self, layout: bytes, trail: List[int], ids: bytes) -> None:
        """Store the plan of a walk that promoted nothing: ``trail`` holds the
        ``plan_slot`` of every node it incremented, ``ids`` its packed entries.

        A trail that names a node with no slot (a copy's tree, nodes
        :meth:`observe` made, every node after :meth:`drop_plans`) stores no
        plan; every node of the tree gets a slot instead, for the next walk.
        """
        if -1 in trail:
            pending = [self.root]
            for node in pending:
                if node.plan_slot < 0:
                    self.slotted(node)
                pending.extend(node.children())
            return
        plans = self.plans
        if len(plans) >= PLAN_CAPACITY:
            for old in list(plans)[:PLAN_CAPACITY // 4]:
                del plans[old]
        plans[layout] = array("I", trail).tobytes() + ids

    def drop_plans(self) -> None:
        """Forget every plan and slot: a node some plan increments has been
        replaced in its parent (a union promotion, a collapse) or has left the
        tree (a prune)."""
        self.plans.clear()
        for node in self.plan_nodes:
            node.plan_slot = -1
        self.plan_nodes.clear()

    # ------------------------------------------------------------------ infer

    def observe(self, record: Dict[str, Any]) -> None:
        """Infer/extend the schema from one record (insert path)."""
        if not isinstance(record, dict):
            raise SchemaError("only object records can be observed")
        self.drop_plans()  # it may promote a node some plan increments
        self.root.increment()
        self._observe_object_fields(self.root, record, is_root=True)
        self.version += 1

    def observe_all(self, records: Iterable[Dict[str, Any]]) -> None:
        for record in records:
            self.observe(record)

    def _declared_root_names(self) -> set:
        if self.datatype is None:
            return set()
        return set(self.datatype.declared_names)

    def _observe_object_fields(self, node: ObjectNode, record: Dict[str, Any], is_root: bool) -> None:
        skip = self._declared_root_names() if is_root else set()
        for name, value in record.items():
            if isinstance(value, Missing):
                continue
            if name in skip:
                self._register_names(value)
                continue
            field_name_id = self.dictionary.encode(name)
            child = node.child(field_name_id)
            node.set_child(field_name_id, self._observe_value(child, value))

    def _register_names(self, value: Any) -> None:
        """Give ids to the names nested under a declared field.

        The field itself is described by the catalog and not inferred, but a
        compacted record stores a ``FieldNameID`` for every inline name.
        """
        if isinstance(value, dict):
            for name, child in value.items():
                if not isinstance(child, Missing):
                    self.dictionary.encode(name)
                    self._register_names(child)
        elif isinstance(value, (list, tuple, AMultiset)):
            for item in value:
                self._register_names(item)

    def _observe_value(self, existing: Optional[SchemaNode], value: Any) -> SchemaNode:
        """Merge one observed value into an existing child node (or create it)."""
        tag = type_tag_of(value)
        if existing is None:
            node = new_node(tag)
            self._descend(node, value)
            node.increment()
            return node
        if isinstance(existing, UnionNode):
            option = existing.option(tag)
            if option is None:
                option = new_node(tag)
                existing.set_option(option)
            self._descend(option, value)
            option.increment()
            existing.increment()
            return existing
        if existing.tag is tag:
            self._descend(existing, value)
            existing.increment()
            return existing
        # Type conflict: promote the existing node to a union of both types
        # (the paper's age: int -> union(int, string) transition, Figure 9b).
        union = UnionNode(existing.counter)
        union.set_option(existing)
        fresh = new_node(tag)
        self._descend(fresh, value)
        fresh.increment()
        union.set_option(fresh)
        union.increment()
        return union

    def _descend(self, node: SchemaNode, value: Any) -> None:
        """Recurse into nested values under an already-typed node."""
        if isinstance(node, ObjectNode):
            self._observe_object_fields(node, value, is_root=False)
        elif isinstance(node, CollectionNode):
            for item in value:
                node.item = self._observe_value(node.item, item)

    # ------------------------------------------------------------------ delete

    def remove(self, payload: bytes) -> None:
        """Process the *anti-schema* of a deleted (or overwritten) record.

        ``payload`` is the old version's stored vector-based bytes.
        Decrements the counters along the record's structure and prunes any
        node whose counter reaches zero; a union that loses all but one of
        its branches collapses back to the surviving branch (paper §3.2.2).
        """
        from ..vector.compaction import remove_encoded

        remove_encoded(payload, self)

    # ------------------------------------------------------------------ merge

    @classmethod
    def merge_newest(cls, schemas: Sequence["InferredSchema"]) -> "InferredSchema":
        """Pick the schema covering a merged component (paper §3.1, Fig. 9c).

        Within a partition schemas only grow, so the most recent schema of
        the merged components is a superset of the rest and is the only one
        the merged component needs to persist.  The newest schema is the one
        with the largest version (ties broken by node count).
        """
        if not schemas:
            raise SchemaError("cannot merge an empty list of schemas")
        return max(schemas, key=lambda schema: (schema.version, schema.root.node_count()))

    def is_superset_of(self, other: "InferredSchema") -> bool:
        """Structural superset check used to validate monotonic growth."""
        return _covers(self.root, other.root)

    # ------------------------------------------------------------------ copy/eq

    def snapshot(self) -> "InferredSchema":
        """Deep copy persisted alongside a flushed component."""
        copy = InferredSchema(self.datatype)
        copy.dictionary = self.dictionary.copy()
        copy.root = self.root.clone()
        copy.version = self.version
        return copy

    def structurally_equal(self, other: "InferredSchema", *, compare_counters: bool = False) -> bool:
        return nodes_equal(self.root, other.root, compare_counters=compare_counters)

    @property
    def field_count(self) -> int:
        return len(self.root.fields)

    def describe(self) -> str:
        """Readable dump (used by the examples)."""
        return self.root.describe(self.dictionary)

    # ------------------------------------------------------------------ encode field names

    def field_name_id(self, name: str) -> Optional[int]:
        return self.dictionary.lookup(name)

    def field_name(self, field_name_id: int) -> str:
        return self.dictionary.decode(field_name_id)

    # ------------------------------------------------------------------ serialization

    _NODE_SCALAR = 0
    _NODE_OBJECT = 1
    _NODE_COLLECTION = 2
    _NODE_UNION = 3

    def to_bytes(self) -> bytes:
        """Serialize dictionary + tree for a component's metadata page."""
        parts = [_U32.pack(self.version), self.dictionary.to_bytes()]
        self._write_node(self.root, parts)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes, datatype: Optional[Datatype] = None) -> "InferredSchema":
        schema = cls(datatype)
        (schema.version,) = _U32.unpack_from(payload, 0)
        dictionary, consumed = FieldNameDictionary.from_bytes(payload[4:])
        schema.dictionary = dictionary
        node, _ = cls._read_node(payload, 4 + consumed)
        if not isinstance(node, ObjectNode):
            raise SchemaError("persisted schema root is not an object node")
        schema.root = node
        return schema

    def _write_node(self, node: SchemaNode, parts: List[bytes]) -> None:
        if isinstance(node, ScalarNode):
            parts.append(_U8.pack(self._NODE_SCALAR))
            parts.append(_U8.pack(int(node.tag)))
            parts.append(_U32.pack(node.counter))
        elif isinstance(node, ObjectNode):
            parts.append(_U8.pack(self._NODE_OBJECT))
            parts.append(_U32.pack(node.counter))
            parts.append(_U32.pack(len(node.fields)))
            for field_name_id in sorted(node.fields):
                parts.append(_U32.pack(field_name_id))
                self._write_node(node.fields[field_name_id], parts)
        elif isinstance(node, CollectionNode):
            parts.append(_U8.pack(self._NODE_COLLECTION))
            parts.append(_U8.pack(int(node.tag)))
            parts.append(_U32.pack(node.counter))
            parts.append(_U8.pack(0 if node.item is None else 1))
            if node.item is not None:
                self._write_node(node.item, parts)
        elif isinstance(node, UnionNode):
            parts.append(_U8.pack(self._NODE_UNION))
            parts.append(_U32.pack(node.counter))
            parts.append(_U32.pack(len(node.options)))
            for tag in sorted(node.options):
                self._write_node(node.options[tag], parts)
        else:  # pragma: no cover - defensive
            raise SchemaError(f"cannot serialize node type {type(node).__name__}")

    @classmethod
    def _read_node(cls, payload: bytes, offset: int) -> Tuple[SchemaNode, int]:
        kind = payload[offset]
        offset += 1
        if kind == cls._NODE_SCALAR:
            tag = TypeTag(payload[offset])
            (counter,) = _U32.unpack_from(payload, offset + 1)
            return ScalarNode(tag, counter), offset + 5
        if kind == cls._NODE_OBJECT:
            (counter,) = _U32.unpack_from(payload, offset)
            (count,) = _U32.unpack_from(payload, offset + 4)
            offset += 8
            node = ObjectNode(counter)
            for _ in range(count):
                (field_name_id,) = _U32.unpack_from(payload, offset)
                child, offset = cls._read_node(payload, offset + 4)
                node.set_child(field_name_id, child)
            return node, offset
        if kind == cls._NODE_COLLECTION:
            tag = TypeTag(payload[offset])
            (counter,) = _U32.unpack_from(payload, offset + 1)
            has_item = payload[offset + 5]
            offset += 6
            node = CollectionNode(tag, counter)
            if has_item:
                node.item, offset = cls._read_node(payload, offset)
            return node, offset
        if kind == cls._NODE_UNION:
            (counter,) = _U32.unpack_from(payload, offset)
            (count,) = _U32.unpack_from(payload, offset + 4)
            offset += 8
            node = UnionNode(counter)
            for _ in range(count):
                child, offset = cls._read_node(payload, offset)
                node.set_option(child)
            return node, offset
        raise SchemaError(f"unknown serialized node kind {kind}")


def _covers(wide: SchemaNode, narrow: SchemaNode) -> bool:
    """True when ``wide`` describes every structure ``narrow`` describes."""
    if isinstance(wide, UnionNode) and not isinstance(narrow, UnionNode):
        option = wide.option(narrow.tag)
        return option is not None and _covers(option, narrow)
    if type(wide) is not type(narrow):
        return False
    if isinstance(wide, ScalarNode):
        return wide.tag is narrow.tag
    if isinstance(wide, ObjectNode):
        return all(
            fid in wide.fields and _covers(wide.fields[fid], child)
            for fid, child in narrow.fields.items()
        )
    if isinstance(wide, CollectionNode):
        if wide.tag is not narrow.tag:
            return False
        if narrow.item is None:
            return True
        return wide.item is not None and _covers(wide.item, narrow.item)
    if isinstance(wide, UnionNode):
        return all(
            tag in wide.options and _covers(wide.options[tag], child)
            for tag, child in narrow.options.items()
        )
    return False
