"""Batched column extraction over vector-based records (ROADMAP item 2).

A :class:`BatchExtractor` compiles the requested paths into a small trie
once per query.  It reads a record by **replaying a plan**: where each
request's value lives in that record, worked out once per *prefix* a walk
read and kept in a bounded table.

Key
    A plan is valid for every record whose walk reads the same bytes, and
    the walk stops at the first tag after which nothing requested can
    follow.  So the key is what the walk read: the tags up to where it
    stopped, the name entries it consumed and the inline name bytes up to
    its name cursor (an uncompacted record's names), with the serial of the
    view's dictionary *family* (:class:`~repro.schema.dictionary.IdFamily`;
    serials are never reused) and the names the datatype declares, by index.
    Records that differ only past that point share one plan: 1 600
    generated tweets repeat about 275 layouts, but make 1 plan for
    ``timestamp_ms`` (a tweet's second field), 2 for ``text, user.name`` and
    16 for ``user.name, entities.hashtags[*].text``.  A walk that ran off
    the end of a torn tags vector (no EOV) depended on where the tags end:
    its plan is keyed on the record's whole layout.  Within a family an id
    always names the same field: every flush's schema snapshot shares its
    partition's family, so one plan serves the records of every component,
    while a schema rolled back after a failed flush starts a family of its
    own once it gives out an id again.  A plan also records the largest id
    it resolved; a view whose dictionary is too short for it is walked
    again, and raises as the walk does.

Lookup
    How far a record's walk would go is known only after walking it, so a
    read does not start from the prefix key.  It looks the record's whole
    layout up in ``layouts``, an index from layout to plan: one slice of
    each section and one probe, as cheap as when plans were keyed by layout
    (trying every prefix shape on each read cost 0.7 µs more per tweet).  A
    layout first seen tries the few prefix ``shapes`` of the keys in
    ``plans`` — a slice of each section and a probe per shape — and only
    when none matches is the record walked.

Plan
    What the replay reads, all offsets relative to the record's own vectors:
    every requested fixed-width value with one ``struct.Struct`` read at
    ``offset_fixed`` (pad bytes over the values between them); a varlen
    value by its index into the varlen lengths; NULL and MISSING as
    constants; a wildcard's collection as the list of its items' values; a
    requested nested value by :func:`~repro.vector.decoder.build_value`
    started from the cursors the walk recorded, with :func:`navigate` applied
    for any steps left.  Keys and plans are tuples of bytes, numbers and
    strings, which the cyclic collector stops tracking: a full table adds
    nothing to what a full collection walks.

Cap
    An extractor keeps at most :data:`PLAN_CAPACITY` plans and as many
    layouts.  A full table drops its oldest quarter, so plans for
    dictionaries no component uses any more age out instead of pinning it.

One path
    Every value a vector record yields comes out of a replayed plan.  A
    record whose prefix has no plan is walked once to compile one, and the
    plan is then replayed like any other.  The walk is the trie walk over
    the cursors of :mod:`repro.vector.decoder`: each value's name entry is
    matched against the open container's trie node — a compacted id by
    indexing the dictionary's name list, an inline name by its UTF-8 bytes,
    never decoded — and then

    * a value the trie does not know is **skipped**: a scalar advances its
      cursor by the width ``layout.WIDTHS`` gives its tag, a nested value
      runs the tight depth loop that only counts widths, varlen entries and
      name entries up to its pop marker; once every child a container was
      asked for has been seen, the rest of the container is skipped the same
      way;
    * a value a request ends at is **located**: its cursor is recorded in
      the plan (a nested one is then skipped);
    * a container on the way to a request is entered, and the walk stops at
      the first tag after which nothing requested can follow — so the plan
      of a torn record reads exactly what the walk read.

It computes, from the encoded bytes, what :func:`repro.types.navigate`
defines over the materialized record.  The walk itself handles exact paths
and the aligned single-wildcard form (one entry per item of the collection,
scalar/object passthrough); wherever two requests would need the same bytes
twice — one ends where another passes through, a wildcard beside a name or
an index, several wildcards — the trie stops at that node, the value there
is built once and ``navigate`` answers each request from it.
:meth:`VectorRecordView.get_values` delegates here, and the property suite
asserts equality with ``navigate`` on random records, for these plans and
for every other record view.  Plans are immutable, a new shape replaces the
``shapes`` tuple (one lost to a race costs a walk) and a replay writes only
its own lists, so threads share an extractor without a lock.
:class:`ColumnBatch` is the column-major container the batch operators
consume; the scan operator fills it with one extractor applied across N
records.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from operator import length_hint
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DecodingError
from ..types import MISSING, VARLEN, TypeTag, navigate
from .decoder import Path, PathStep, VectorRecordView, WILDCARD, build_value, torn_record
from .layout import (
    CLOSE,
    DECLARED_FIELD_BIT,
    NAME_ENTRY_MAX,
    NESTED,
    POP_TO_OBJECT,
    RAW_OBJECT,
    TAG_TABLE,
    U32,
    WIDTHS,
)

#: Plans, and layouts, one extractor keeps.  Generated tweets repeat about
#: 275 layouts per 1 600 records and dictionary family (one per
#: partition), which share 1-16 plans per path set of the twitter queries;
#: a sensor partition repeats one layout.  A layout key or a plan with its
#: key takes 0.3-0.8 KiB, and the layout tables of a busy process stay full,
#: so this bounds their memory.
PLAN_CAPACITY = 768

#: Shared by every node that has no children to enter; never written.
_NO_CHILDREN: Dict[Any, "_TrieNode"] = {}


class _TrieNode:
    """The requests that share the path prefix leading here, compiled.

    Exactly one of three shapes: ``capture`` — the value here is decoded (or
    built) and every listed request answered from it; ``wild`` — the value is
    the collection of single-wildcard requests, walked item by item; or
    ``children`` alone — a container to enter.
    """

    __slots__ = ("children", "fanout", "wild", "rids", "capture", "aligned", "targets")

    def __init__(self, pending: List[Tuple[int, Path]], aligned: bool = False) -> None:
        #: ``(request id, steps still to navigate inside the value)``.
        self.capture: Optional[List[Tuple[int, Path]]] = None
        #: Child under ``"*"``, and the ids of every request through it.
        self.wild: Optional["_TrieNode"] = None
        self.rids = [rid for rid, _ in pending]
        #: Children by step; a field name also by its UTF-8 bytes, which is
        #: how an uncompacted record spells it.  ``fanout`` counts the nodes.
        self.children: Dict[Any, "_TrieNode"] = _NO_CHILDREN
        self.fanout = 0
        #: Below a ``"*"``: results land in the current item's list entry.
        self.aligned = aligned
        #: Values in this subtree the walk has to find before it may stop
        #: early: one per wildcard collection, one per capture outside a ``"*"``.
        self.targets = 1
        groups: Dict[PathStep, List[Tuple[int, Path]]] = {}
        for rid, rest in pending:
            if rest:
                groups.setdefault(rest[0], []).append((rid, rest[1:]))
        wild = groups.get(WILDCARD)
        if (not all(rest for _, rest in pending)               # a request ends here
                or wild is not None and (len(groups) > 1       # "*" beside a name or an index
                                         or any(WILDCARD in rest for _, rest in wild))):  # flattened
            self.capture = pending
            self.targets = int(not aligned)
            return
        if wild is not None:
            self.wild = _TrieNode(wild, True)
            return
        self.children = {}
        self.fanout = len(groups)
        self.targets = 0
        for step, group in groups.items():
            child = self.children[step] = _TrieNode(group, aligned)
            self.targets += child.targets
            if isinstance(step, str):
                self.children[step.encode("utf-8")] = child


def _field_layout(width: int, read: Any) -> Optional[Tuple[str, int]]:
    if width <= 0:
        return None
    layout = read.__self__  # a fixed-width scalar's read is a bound Struct.unpack_from
    return layout.format[1:], len(layout.unpack(bytes(width)))


#: ``raw tag -> (struct format without its byte order, fields it unpacks)``
#: for every fixed-width scalar: the pieces a plan's one read is made of.
_FIELD_LAYOUTS = tuple(_field_layout(width, read) for width, read, _ in TAG_TABLE)

#: The ``Struct`` of a format a plan reads with, found at every replay: a
#: plan holds the format string, which the cyclic collector does not track.
_struct = lru_cache(maxsize=PLAN_CAPACITY)(struct.Struct)

# What the walk records for a located value: ``(source, k)``, the k-th of
# the constants, the fixed-width fields, the varlen reads, the nested builds
# or the navigations.  A replay lists them in that order, constants first
# (and then the copies that line up a wildcard's items).
_CONSTANT, _FIXED, _VAR, _NESTED, _NAVIGATED = range(5)
_MISSING_REF, _NULL_REF = (_CONSTANT, 0), (_CONSTANT, 1)
#: A varlen value is a string (decoded) or a binary (its bytes).
_RAW_STRING = TypeTag.STRING.value


#: A finished plan: ``(fixed, wraps, lengths, var_reads, nested, sources,
#: rests, copies, picks, lists, ids)`` — see :class:`_PlanBuilder`.
Plan = Tuple[Any, ...]


def _groups(flat: Tuple[int, ...], size: int) -> Any:
    """The consecutive ``size``-tuples a flat tuple of a plan holds."""
    return zip(*[iter(flat)] * size)


class _PlanBuilder:
    """Where every request's value lives in records of one layout, as one
    walk finds it: :meth:`scalar`, :meth:`build` and :meth:`navigate` for
    each value it locates, :meth:`finish` at the end.

    A replay (:func:`_replay`) lists the values it reads — MISSING and NULL;
    the fixed-width fields (one ``Struct`` of format ``fixed``; ``wraps``
    holds ``(field, fields, tag)`` triples whose fields become that tag's
    value type); the varlen values (``lengths`` reads the varlen count and
    the lengths up to the last one read; ``var_reads`` holds each one's
    index, or its complement for a binary); the nested builds (``nested``
    holds six cursors each); ``navigate(values[source], rest)`` for each of
    ``sources`` and ``rests``; and ``values[i]`` for each of ``copies``, so
    the items of every wildcard's collection sit side by side.  ``picks``
    gives each request its value by index, ``lists`` holds a ``(request,
    start, stop)`` triple per wildcard request, whose value is the list
    ``values[start:stop]``, and ``ids`` is the largest field-name id the walk
    resolved.  So a plan is a tuple of numbers, strings and flat tuples of
    them, which the cyclic collector stops tracking once the plan has lived
    through a collection or two, however many plans the tables hold.
    """

    __slots__ = ("formats", "end", "fields", "wraps", "var_reads", "nested", "navigated")

    def __init__(self) -> None:
        #: The fixed-width read's format pieces, its end relative to
        #: ``offset_fixed`` and the fields it unpacks, so far.
        self.formats: List[str] = []
        self.end = self.fields = 0
        self.wraps: List[int] = []
        self.var_reads: List[int] = []
        self.nested: List[int] = []
        self.navigated: List[Tuple[Tuple[int, int], Path]] = []

    def scalar(self, raw: int, fixed: int, var_index: int) -> Tuple[int, int]:
        """A requested scalar at these cursors (its tag's width is checked)."""
        width, _, wrap = TAG_TABLE[raw]
        if width > 0:
            layout, count = _FIELD_LAYOUTS[raw]
            if fixed > self.end:
                self.formats.append("%dx" % (fixed - self.end))
            self.formats.append(layout)
            self.end = fixed + width
            if wrap is not None:
                self.wraps += (2 + self.fields, count, raw)
            self.fields += count
            return (_FIXED, self.fields - count)
        if width == VARLEN:
            self.var_reads.append(var_index if raw == _RAW_STRING else ~var_index)
            return (_VAR, len(self.var_reads) - 1)
        return _NULL_REF if wrap is None else _MISSING_REF

    def build(self, position: int, raw: int, name_index: int, name_bytes: int,
              fixed: int, var_index: int) -> Tuple[int, int]:
        """A requested nested value: its opening tag ``raw`` was read just
        before tags-vector ``position``, its children start at these cursors
        (``name_bytes`` relative to the start of the inline name bytes, which
        moves with the record's name-entry count)."""
        self.nested += (position, raw, name_index, name_bytes, fixed, var_index)
        return (_NESTED, len(self.nested) // 6 - 1)

    def navigate(self, ref: Tuple[int, int], rest: Path) -> Tuple[int, int]:
        if not rest:
            return ref
        self.navigated.append((ref, rest))
        return (_NAVIGATED, len(self.navigated) - 1)

    def finish(self, results: List[Any], ids: int) -> Plan:
        """The plan: ``results`` holds each request's reference (a list of
        them for a wildcard's items), ``ids`` the largest field-name id the
        walk resolved."""
        var_first = 2 + self.fields
        nested_first = var_first + len(self.var_reads)
        navigated_first = nested_first + len(self.nested) // 6
        firsts = (0, 2, var_first, nested_first, navigated_first)
        copies: List[int] = []
        copies_first = navigated_first + len(self.navigated)
        picks: List[int] = []
        lists: List[int] = []
        for rid, entry in enumerate(results):
            if entry.__class__ is list:
                items = [firsts[kind] + k for kind, k in entry]
                start = items[0] if items else 0
                if items != list(range(start, start + len(items))):
                    start = copies_first + len(copies)
                    copies += items
                lists += (rid, start, start + len(items))
                entry = _MISSING_REF
            picks.append(firsts[entry[0]] + entry[1])
        # the last varlen value read has the largest index (a binary's complement)
        last = max(self.var_reads[-1], ~self.var_reads[-1]) if self.var_reads else 0
        return (sys.intern("<" + "".join(self.formats)) if self.formats else None,
                tuple(self.wraps),
                sys.intern("<%dI" % (last + 2)) if self.var_reads else None,
                tuple(self.var_reads),
                tuple(self.nested),
                tuple([firsts[kind] + k for (kind, k), _ in self.navigated]),
                tuple([rest for _, rest in self.navigated]),
                tuple(copies), tuple(picks), tuple(lists), ids)


def _replay(plan: Plan, view: VectorRecordView) -> List[Any]:
    """Read one record's requested values through its layout's plan."""
    (fixed, wraps, lengths_format, var_reads, nested, sources, rests, copies,
     picks, lists, _) = plan
    payload = view.payload
    values: List[Any] = [MISSING, None]
    if fixed is not None:
        values += _struct(fixed).unpack_from(payload, view.offset_fixed)
        if wraps:
            for slot, count, raw in _groups(wraps, 3):
                values[slot] = TAG_TABLE[raw][2](*values[slot:slot + count])
    if lengths_format is not None:
        lengths = _struct(lengths_format).unpack_from(payload, view.offset_varlen)
        if lengths[0] < len(lengths) - 1:
            raise DecodingError(f"varlen vector holds {lengths[0]} values, its tags "
                                f"at least {len(lengths) - 1}")
        first = view.offset_varlen + 4 + 4 * lengths[0]
        for var_index in var_reads:
            index = var_index if var_index >= 0 else ~var_index  # a binary's complement
            start = first + sum(lengths[1:index + 1])
            value = payload[start:start + lengths[index + 1]]
            values.append(value.decode() if var_index >= 0 else value)
    if nested:
        tags, vectors, names_at, _, first = view._vectors()
        for position, raw, name_index, name_bytes, fixed_at, var_index in _groups(nested, 6):
            values.append(build_value(
                view, iter(tags[position:]), raw, vectors, name_index,
                names_at + name_bytes, view.offset_fixed + fixed_at,
                var_index, first + sum(vectors[2][:var_index]))[0])
    if sources:
        for source, rest in zip(sources, rests):
            values.append(navigate(values[source], rest))
    if copies:
        values += [values[index] for index in copies]
    results = [values[index] for index in picks]
    if lists:
        for rid, start, stop in _groups(lists, 3):
            results[rid] = values[start:stop]
    return results


def _make_room(table: Dict[Tuple[Any, ...], Plan]) -> bool:
    """Drop a full table's oldest quarter: plans of dictionaries no component
    uses any more are the first to go.  ``list(table)`` is one C call, so no
    other thread's insert can interleave with it."""
    if len(table) < PLAN_CAPACITY:
        return False
    for old in list(table)[:PLAN_CAPACITY // 4]:
        table.pop(old, None)
    return True


class BatchExtractor:
    """Compiled multi-path extractor, reusable across records and threads.

    A record of the other format, an ``ADMRecordView``, navigates by offset
    and has no consolidated access: it resolves the paths itself, with one
    ``get_field`` per path.  Memtable and component rows alike arrive as
    one of these two views.
    """

    def __init__(self, paths: Sequence[Sequence[PathStep]]) -> None:
        self.requests: List[Path] = [tuple(path) for path in paths]
        self.root = _TrieNode(list(enumerate(self.requests)))
        #: Requests that default to ``[]`` (any wildcard) rather than MISSING.
        self.list_rids = [rid for rid, request in enumerate(self.requests)
                          if WILDCARD in request]
        #: What a walk read -> its plan, at most ``PLAN_CAPACITY`` of them,
        #: in the order they were made.
        self.plans: Dict[Tuple[Any, ...], Plan] = {}
        #: ``(tag bytes, end of the name entries, inline name bytes)`` read
        #: by the walks of ``plans``, counted from each section's start.
        self.shapes: Tuple[Tuple[int, int, int], ...] = ()
        #: Record layout -> the plan that reads it, at most
        #: ``PLAN_CAPACITY`` of them.
        self.layouts: Dict[Tuple[Any, ...], Plan] = {}

    def extract(self, view: Any) -> List[Any]:
        """Resolve every compiled path against one record view."""
        if not self.requests:
            return []
        if not isinstance(view, VectorRecordView):
            return [view.get_field(*request) for request in self.requests]
        payload = view.payload
        id_names = view._resolvers()[0]
        # What the name entries mean: inline names (None), or the ids of one
        # dictionary family (0: a compacted record read with no dictionary);
        # and the declared fields' names by index.
        family = None
        if id_names is not None:
            family = view.dictionary.family.serial if view.dictionary is not None else 0
        layout = (payload[view.offset_tags:view.offset_tags + view.tag_count],
                  payload[view.offset_names:view.total_length], family,
                  view.datatype.name_order if view.datatype is not None else ())
        plan = self.layouts.get(layout)
        # A plan resolved ids (its last item) past the end of the view's names
        # only when the view's dictionary is an older copy in the family than
        # the one it was made with: walk the record again, to raise as the
        # walk does.
        if plan is None or plan[-1] > len(id_names or ()):
            plan = self._plan(view, layout, len(id_names or ()))
        return _replay(plan, view)

    def _plan(self, view: VectorRecordView, layout: Tuple[Any, ...], id_count: int) -> Plan:
        """The plan of a layout first seen: the plan of a prefix some walk
        read that the record starts with too, else the one its own walk
        makes."""
        tags, names, family, name_order = layout
        inline = 4 + 2 * U32.unpack_from(view.payload, view.offset_names)[0]
        plans = self.plans
        for n, entries_end, k in self.shapes:
            # (a record with fewer name entries than a prefix holds is walked,
            # to raise as the walk does)
            if entries_end <= inline:
                plan = plans.get((tags[:n], names[4:entries_end], names[inline:inline + k],
                                  family, name_order))
                if plan is not None and plan[-1] <= id_count:
                    break
        else:
            try:
                plan, read = self._compile(view)
            except IndexError:  # a name entry the record lacks
                raise torn_record() from None
            key = layout  # a walk that ran off the end of a torn tags vector
            if read is not None:
                n, m, k = read
                entries_end = 4 + 2 * m
                key = (tags[:n], names[4:entries_end], names[inline:inline + k],
                       family, name_order)
            if _make_room(plans):
                self.shapes = tuple(dict.fromkeys(
                    (len(old[0]), 4 + len(old[1]), len(old[2]))
                    for old in list(plans) if len(old) == 5))
            plans[key] = plan
            if read is not None and (n, entries_end, k) not in self.shapes:
                self.shapes += ((n, entries_end, k),)
        _make_room(self.layouts)
        self.layouts[layout] = plan
        return plan

    def _compile(self, view: VectorRecordView) -> Tuple[Plan, Optional[Tuple[int, int, int]]]:
        """Walk one record and record where each request's value lives.

        Returns the plan and what the walk read: the tags, the name entries
        and the inline name bytes up to where it stopped, or ``None`` when it
        ran off the end of the tags vector without closing the record.
        """
        tags, vectors, name_bytes, _, _ = view._vectors(values=False)
        payload, entries, _, declared, id_names = vectors
        located = _PlanBuilder()
        names_at = name_bytes
        node = self.root
        if node.capture is not None or node.wild is not None:
            # a request for the root itself: the whole record, built
            record = located.build(1, RAW_OBJECT, 0, 0, 0, 0)
            return located.finish([located.navigate(record, request)
                                   for request in self.requests], 0), (1, 0, 0)
        results: List[Any] = [_MISSING_REF] * len(self.requests)
        for rid in self.list_rids:
            results[rid] = []
        inline = id_names is None
        id_count = 0 if inline else len(id_names)
        name_index = fixed = var_index = ids = 0
        remaining = node.targets
        # The open container: its trie children (or, for the collection of
        # wildcard requests, ``wild`` and the result ``lists`` to extend per
        # item), whether its values carry names, the next item index, and how
        # many of its requested children are still to come.
        children, wild, lists = node.children, None, None
        in_object, item, want = True, 0, node.fanout
        stack: List[Tuple[Any, ...]] = []
        cursor = iter(tags)
        next(cursor)  # the root OBJECT
        for raw in cursor:
            width = WIDTHS[raw]
            if width == CLOSE:
                depth, closing = 0, True
            else:
                if in_object:
                    entry = entries[name_index]
                    name_index += 1
                    if entry & DECLARED_FIELD_BIT:
                        if entry & NAME_ENTRY_MAX >= len(declared):
                            raise view._unresolved(entry)
                        node = children.get(declared[entry & NAME_ENTRY_MAX].name)
                    elif inline:
                        node = children.get(payload[name_bytes:name_bytes + entry])
                        name_bytes += entry
                    elif 0 < entry <= id_count:
                        node = children.get(id_names[entry - 1])
                        if entry > ids:
                            ids = entry
                    else:
                        raise view._unresolved(entry)
                elif lists is None:
                    node = children.get(item)
                    item += 1
                else:
                    node = wild
                    for column in lists:
                        column.append(_MISSING_REF)
                if node is not None:
                    want -= 1
                    capture = node.capture
                    if width == NESTED and capture is None and (
                            raw != RAW_OBJECT or node.wild is None):
                        # a container on the way to a request: enter it
                        stack.append((children, wild, lists, in_object, item, want))
                        children, wild, in_object, item = node.children, node.wild, raw == RAW_OBJECT, 0
                        if wild is None:
                            lists, want = None, node.fanout
                        else:  # never runs out of items to match
                            lists, want = [results[rid] for rid in wild.rids], -1
                        continue
                    if capture is None and node.wild is None:
                        node = None  # a scalar where a container was expected
                if node is None:
                    if width >= 0:
                        fixed += width
                        continue
                    if width == VARLEN:
                        var_index += 1
                        continue
                    if width != NESTED:
                        raise DecodingError(f"unexpected tag {raw} in tags vector")
                    depth, closing, skip_object = 1, False, raw == RAW_OBJECT
                else:
                    depth = 0
                    if width == NESTED:
                        ref = located.build(len(tags) - length_hint(cursor), raw,
                                            name_index, name_bytes - names_at, fixed, var_index)
                        depth = 1  # its tags are still ahead of the cursor
                    elif width >= VARLEN:
                        ref = located.scalar(raw, fixed, var_index)
                        if width > 0:
                            fixed += width
                        elif width == VARLEN:
                            var_index += 1
                    else:
                        raise DecodingError(f"unexpected tag {raw} in tags vector")
                    if capture is None:
                        # a scalar or an object where the wildcard's collection
                        # was expected: passed through (absent stays [])
                        if ref is not _NULL_REF and ref is not _MISSING_REF:
                            for rid in node.wild.rids:
                                results[rid] = ref
                        remaining -= 1
                    elif node.aligned:
                        for rid, rest in capture:
                            results[rid][-1] = located.navigate(ref, rest)
                    else:
                        for rid, rest in capture:
                            results[rid] = located.navigate(ref, rest)
                        remaining -= 1
                    if not remaining:
                        return located.finish(results, ids), (
                            len(tags) - length_hint(cursor), name_index, name_bytes - names_at)
                    if want:
                        if not depth:
                            continue
                        closing, skip_object = False, raw == RAW_OBJECT
                    elif not stack:
                        return located.finish(results, ids), (
                            len(tags) - length_hint(cursor), name_index, name_bytes - names_at)
                    else:
                        # everything this container was asked for has been
                        # seen: skip the rest of it (a located nested value too)
                        skip_object = raw == RAW_OBJECT if depth else in_object
                        depth, closing = depth + 1, True
            while True:
                if depth:
                    # the skipper: count widths, varlen entries and name
                    # entries up to the pop marker that closes ``depth``
                    for raw in cursor:
                        width = WIDTHS[raw]
                        if width == CLOSE:
                            depth -= 1
                            if not depth:
                                break
                            skip_object = raw == POP_TO_OBJECT
                            continue
                        if skip_object:
                            if inline:
                                entry = entries[name_index]
                                if not entry & DECLARED_FIELD_BIT:
                                    name_bytes += entry
                            name_index += 1
                        if width >= 0:
                            fixed += width
                        elif width == VARLEN:
                            var_index += 1
                        elif width == NESTED:
                            depth += 1
                            skip_object = raw == RAW_OBJECT
                        else:
                            raise DecodingError(f"unexpected tag {raw} in tags vector")
                if not closing:
                    break
                # the open container has just closed (or the skipper ran off
                # the end of a torn tags vector: ``depth`` is left open)
                if not stack or lists is not None and remaining == 1:
                    return located.finish(results, ids), None if depth else (
                        len(tags) - length_hint(cursor), name_index, name_bytes - names_at)
                if lists is not None:
                    remaining -= 1
                children, wild, lists, in_object, item, want = stack.pop()
                if want:
                    break
                depth, skip_object = 1, in_object
        return located.finish(results, ids), None


class ColumnBatch:
    """Column-major container for N records' requested value slices.

    ``columns`` is keyed ``(variable, path) -> list of values``; a variable
    bound whole (a LET name, an UNNEST item) uses the empty path.  ``views``
    retains the record views for whole-record projections (``SELECT t``)
    and is replicated through UNNEST flattening; ``params`` are the run's.
    """

    __slots__ = ("length", "views", "columns", "params")

    def __init__(self, views: Optional[List[Any]],
                 columns: Dict[Tuple[str, Path], List[Any]],
                 length: Optional[int] = None, params: Sequence[Any] = ()) -> None:
        self.views = views
        self.columns = columns
        self.length = len(views) if length is None else length
        self.params = params

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Row subset (the batch SELECT's filtered output)."""
        views = [self.views[i] for i in indices] if self.views is not None else None
        columns = {key: [column[i] for i in indices]
                   for key, column in self.columns.items()}
        return ColumnBatch(views, columns, len(indices), self.params)

    def __len__(self) -> int:
        return self.length
