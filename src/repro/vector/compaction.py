"""Record compaction and expansion against an inferred schema.

Compaction (paper §3.3.2, Figure 14) replaces the inline field-name strings
of an uncompacted vector-based record with the ``FieldNameID``\\ s assigned
by the inferred schema, and drops the name bytes entirely.  Only the field
names vector and the header change; the tags vector and both value vectors
are copied through untouched, which is why compaction is cheap enough to
run inside LSM flush operations.

:func:`infer_and_compact` and :func:`remove_encoded` are the two halves of
the tuple compactor's schema maintenance, each one metadata-only walk of a
record's tags and field-name vectors (see the cursor discipline in
:mod:`repro.vector.decoder`).  A flush runs the first on every inserted
record: schema inference and compaction fused, walked once per *record
layout* the partition's schema meets — a layout it has walked replays the
walk's plan (its counter increments and ``FieldNameID``\\ s).  It runs the
second, always a walk, on the stored payload of every version a delete or
upsert superseded: the anti-schema decrement of paper §3.2.2.
:func:`compact_record` is the bytes-side half of the first alone — with
``InferredSchema.observe(view.structure())`` it forms the reference the
insert walk is tested against; ``tests/reference.py`` holds the dict walk
the delete walk is tested against, and a schema that keeps no plan, which
the plans are tested against.

Where the paper signals compaction by zeroing the fourth header offset,
this implementation keeps the offset (the section still holds the ID
entries) and records compaction in the header's flags byte; the effect —
"no field-name bytes are stored in the record" — is identical.

Expansion is the inverse operation.  The engine itself never needs it
(queries read compacted records directly through
:class:`~repro.vector.decoder.VectorRecordView`), but it is exposed for
tests, tooling, and data export.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from ..errors import EncodingError, SchemaError
from ..schema.dictionary import FieldNameDictionary
from ..schema.nodes import UnionNode, new_node
from .decoder import torn_record
from .layout import (
    DECLARED_FIELD_BIT,
    FLAG_COMPACTED,
    HEADER,
    NAME_ENTRY_MAX,
    POP_MARKER_BIT,
    RAW_EOV,
    RAW_NESTED,
    RAW_OBJECT,
    TAG_OF_RAW,
    U32,
)


def _name_entries(payload: bytes, offset_names: int) -> Tuple[int, ...]:
    """The u16 entries of the names section."""
    (count,) = U32.unpack_from(payload, offset_names)
    return struct.unpack_from("<%dH" % count, payload, offset_names + 4)


def _packed(entries: Sequence[int]) -> bytes:
    return struct.pack("<%dH" % len(entries), *entries)


def _with_names(payload: bytes, header: Tuple[int, ...], flags: int,
                entries: bytes, name_bytes: bytes = b"") -> bytes:
    """``payload`` with its packed name entries (and inline name bytes) replaced."""
    offset_names = header[9]
    new_total = offset_names + 4 + len(entries) + len(name_bytes)
    return b"".join((
        HEADER.pack(new_total, header[1], flags, *header[3:]),
        payload[HEADER.size:offset_names + 4],  # tags, both value vectors, the count
        entries,
        name_bytes,
    ))


def _id_overflow(field_name_id: int) -> EncodingError:
    return EncodingError(f"FieldNameID {field_name_id} exceeds the 15-bit entry capacity")


def infer_and_compact(payload: bytes, schema) -> bytes:
    """Fold one uncompacted record into ``schema`` and return its compacted form.

    A record's walk depends only on its *layout* — the tag count, the tags
    vector and the names section — and on the schema.  So the schema keeps
    a **plan** per layout it has walked (``InferredSchema.plans``): the slots
    of the nodes the walk incremented, in walk order with repeats, and the
    packed ``FieldNameID`` entries it wrote.  A record whose layout has a
    plan increments those counters and splices ``header' + tags + value
    vectors + ids``; any other is walked, and the walk stores its plan.

    The walk is one loop over the tags vector, consuming one name entry per
    child of an object; the value vectors are never read.  The stack holds
    *schema nodes*: each value resolves its node under the parent by
    ``(FieldNameID, tag byte)`` and creates it, promotes it to a union, or
    increments it in place — the counters, unions and ``FieldNameID`` order
    come out exactly as ``schema.observe(view.structure())`` leaves them.
    Fields the datatype declares are not inferred (their description lives
    in the catalog) but names nested under them still get ids.  A walk that
    promotes a node to a union (Figure 9b) drops every plan — a plan through
    the replaced node would skip the union's increment — and stores none.
    """
    header = HEADER.unpack_from(payload, 0)
    if header[2] & FLAG_COMPACTED:
        raise EncodingError("cannot infer from an already compacted record")
    tag_count, offset_tags, offset_names = header[1], header[6], header[9]
    # The tag count first, so no two layouts make one key.
    layout = b"".join((payload[4:8], payload[offset_tags:offset_tags + tag_count],
                       payload[offset_names:]))
    plan = schema.plans.get(layout)
    if plan is not None:
        ids = schema.replay_plan(plan, U32.unpack_from(payload, offset_names)[0])
        return _with_names(payload, header, header[2] | FLAG_COMPACTED, ids)

    entries = _name_entries(payload, offset_names)
    name_cursor = offset_names + 4 + 2 * len(entries)
    name_index = 0
    ids = list(entries)
    dictionary = schema.dictionary
    known_id = dictionary.ids_by_utf8.get
    slotted = schema.slotted
    # The slot of every node incremented, in walk order: the plan, unless
    # the walk promoted a node.
    trail: List[int] = []
    promoted = False

    # ``node`` describes the open container; None inside a declared field.
    node = schema.root
    node.counter += 1
    in_object = True
    stack = []
    field_name_id = 0
    try:
        for raw in payload[offset_tags + 1:offset_tags + tag_count]:  # [0] is the root OBJECT
            if raw & POP_MARKER_BIT:
                node, in_object = stack.pop()
                continue
            if raw == RAW_EOV:
                break
            inferred = node is not None
            if in_object:
                entry = entries[name_index]
                if entry & DECLARED_FIELD_BIT:
                    inferred = False
                else:
                    name = payload[name_cursor:name_cursor + entry]
                    name_cursor += entry
                    field_name_id = known_id(name)
                    if field_name_id is None:
                        field_name_id = dictionary.encode_utf8(name)
                    if field_name_id > NAME_ENTRY_MAX:
                        raise _id_overflow(field_name_id)
                    ids[name_index] = field_name_id
                name_index += 1
            if inferred:
                child = node.fields.get(field_name_id) if in_object else node.item
                linked = None  # set when the parent has to point at another node
                if child is None:
                    linked = child = slotted(new_node(TAG_OF_RAW[raw], 1))
                elif child.tag == raw:
                    child.counter += 1
                elif type(child) is UnionNode:
                    union = child
                    union.counter += 1
                    trail.append(union.plan_slot)
                    child = union.options.get(raw)
                    if child is None:
                        child = slotted(new_node(TAG_OF_RAW[raw], 1))
                        union.set_option(child)
                    else:
                        child.counter += 1
                else:  # type conflict: promote to a union of both (Figure 9b)
                    promoted = True
                    schema.drop_plans()
                    linked = UnionNode(child.counter + 1)
                    linked.set_option(child)
                    child = slotted(new_node(TAG_OF_RAW[raw], 1))
                    linked.set_option(child)
                trail.append(child.plan_slot)
                if linked is not None:
                    if in_object:
                        node.fields[field_name_id] = linked
                    else:
                        node.item = linked
            else:
                child = None
            if raw in RAW_NESTED:
                stack.append((node, in_object))
                node, in_object = child, raw == RAW_OBJECT
    except IndexError:  # a name entry the record lacks, or a pop marker with nothing open
        raise torn_record() from None
    ids = _packed(ids)
    if not promoted:
        schema.keep_plan(layout, trail, ids)
    schema.version += 1
    return _with_names(payload, header, header[2] | FLAG_COMPACTED, ids)


def remove_encoded(payload: bytes, schema) -> None:
    """Decrement ``schema`` by one stored record: its anti-schema (§3.2.2).

    The delete-side twin of :func:`infer_and_compact`: one loop over the
    tags vector, consuming one name entry per child of an object.  A
    compacted record's entries are ``FieldNameID``\\ s; an uncompacted one
    (a version still in a sealed memtable when it was superseded) resolves
    its inline names through the dictionary.  Declared fields are skipped
    with their subtree.  Each value's node is decremented once its subtree
    is done (post-order): a node whose counter reaches zero is pruned from
    its parent, and a union left with one branch collapses to that branch
    (Figure 11).  An anti-schema the schema does not describe raises
    :class:`SchemaError`.
    """
    header = HEADER.unpack_from(payload, 0)
    tag_count, offset_tags, offset_names = header[1], header[6], header[9]
    entries = _name_entries(payload, offset_names)
    dictionary = schema.dictionary
    known_id = None if header[2] & FLAG_COMPACTED else dictionary.ids_by_utf8.get
    name_cursor = offset_names + 4 + 2 * len(entries)
    name_index = 0

    root = schema.root
    if root.counter <= 0:
        root.decrement()  # raises the underflow error
    root.counter -= 1
    # ``node`` is the open container; None inside a declared field.
    node = root
    in_object = True
    stack = []
    field_name_id = 0
    try:
        for raw in payload[offset_tags + 1:offset_tags + tag_count]:  # [0] is the root OBJECT
            if raw & POP_MARKER_BIT:
                node, in_object, field_name_id, union, child = stack.pop()
                if child is None:
                    continue
            elif raw == RAW_EOV:
                break
            else:
                inferred = node is not None
                if in_object:
                    entry = entries[name_index]
                    name_index += 1
                    if entry & DECLARED_FIELD_BIT:
                        inferred = False
                    elif known_id is None:
                        field_name_id = entry
                    else:
                        name = payload[name_cursor:name_cursor + entry]
                        name_cursor += entry
                        if inferred:
                            field_name_id = known_id(name)
                            # None: a name observe() or from_bytes() gave its id
                            if field_name_id is None:
                                decoded = name.decode("utf-8")
                                field_name_id = dictionary.lookup(decoded)
                                if field_name_id is None:
                                    raise SchemaError(
                                        f"anti-schema references unknown field {decoded!r}")
                child = union = None
                if inferred:
                    slot = node.fields.get(field_name_id) if in_object else node.item
                    if slot is None:
                        raise SchemaError(f"anti-schema references untracked field #{field_name_id}"
                                          if in_object else
                                          "anti-schema removes items from an empty collection node")
                    if type(slot) is UnionNode:
                        union = slot
                        child = union.options.get(raw)
                        if child is None:
                            raise SchemaError(
                                f"anti-schema type {TAG_OF_RAW[raw].name} absent from union")
                    elif slot.tag == raw:
                        child = slot
                    else:
                        raise SchemaError(f"anti-schema type {TAG_OF_RAW[raw].name} does not match "
                                          f"schema node {slot.tag.name}")
                if raw in RAW_NESTED:
                    stack.append((node, in_object, field_name_id, union, child))
                    node, in_object = child, raw == RAW_OBJECT
                    continue
                if child is None:
                    continue
            # ``child``'s subtree is done: decrement it, then prune or collapse.
            counter = child.counter
            if counter <= 0:
                child.decrement()  # raises the underflow error
            child.counter = counter - 1
            if union is None:
                if counter > 1:
                    continue
            else:
                if counter == 1:
                    del union.options[child.tag]
                    schema.drop_plans()
                counter = union.counter
                if counter <= 0:
                    union.decrement()
                union.counter = counter - 1
                if counter > 1 and union.options:
                    if len(union.options) > 1:
                        continue
                    child = next(iter(union.options.values()))
                    schema.drop_plans()
                    if in_object:
                        node.fields[field_name_id] = child
                    else:
                        node.item = child
                    continue
            schema.drop_plans()
            if in_object:
                del node.fields[field_name_id]
            else:
                node.item = None
    except IndexError:  # a name entry the record lacks, or a pop marker with nothing open
        raise torn_record() from None
    schema.version += 1


def compact_record(payload: bytes, dictionary: FieldNameDictionary) -> bytes:
    """Compact an uncompacted vector-based record.

    Every inline field name must already be present in ``dictionary``,
    otherwise a :class:`SchemaError` is raised — compaction alone never
    mutates the schema.
    """
    header = HEADER.unpack_from(payload, 0)
    if header[2] & FLAG_COMPACTED:
        return payload  # already compacted; idempotent

    entries = _name_entries(payload, header[9])
    cursor = header[9] + 4 + 2 * len(entries)
    ids = list(entries)
    for index, entry in enumerate(entries):
        if entry & DECLARED_FIELD_BIT:
            continue
        name = payload[cursor:cursor + entry].decode("utf-8")
        cursor += entry
        field_name_id = dictionary.lookup(name)
        if field_name_id is None:
            raise SchemaError(f"cannot compact: field name {name!r} is not in the schema dictionary")
        if field_name_id > NAME_ENTRY_MAX:
            raise _id_overflow(field_name_id)
        ids[index] = field_name_id
    return _with_names(payload, header, header[2] | FLAG_COMPACTED, _packed(ids))


def expand_record(payload: bytes, dictionary: FieldNameDictionary) -> bytes:
    """Inverse of :func:`compact_record`: re-inline the field-name strings."""
    header = HEADER.unpack_from(payload, 0)
    if not header[2] & FLAG_COMPACTED:
        return payload

    lengths = list(_name_entries(payload, header[9]))
    name_bytes = bytearray()
    for index, entry in enumerate(lengths):
        if entry & DECLARED_FIELD_BIT:
            continue
        name = dictionary.decode(entry)
        encoded = name.encode("utf-8")
        if len(encoded) > NAME_ENTRY_MAX:
            raise EncodingError(f"field name too long to re-inline: {name[:32]!r}...")
        lengths[index] = len(encoded)
        name_bytes += encoded
    return _with_names(payload, header, header[2] & ~FLAG_COMPACTED, _packed(lengths),
                       bytes(name_bytes))
