"""Batched column extraction over vector-based records (ROADMAP item 2).

A :class:`BatchExtractor` compiles the requested paths into a small trie
once per query, then walks each record's tag/fixed/varlen/name vectors (the
cursor discipline of :mod:`repro.vector.decoder`) in a tight loop that

* skips decoding scalars on paths nobody asked for (cursors advance by the
  tag's known width instead of unpacking the value),
* skips decoding field names inside irrelevant subtrees, and
* allocates no per-value event or path objects.

It computes, from the encoded bytes, what :func:`repro.types.navigate`
defines over the materialized record (exact paths, aligned single-wildcard
paths with scalar/object passthrough, subtree capture for nested values):
:meth:`VectorRecordView.get_values` delegates here, and the property suite
asserts equality with ``navigate`` on random records, for this walk and for
every other record view.  :class:`ColumnBatch` is the column-major
container the batch operators consume; the scan operator fills it with one
extractor applied across N records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..types import AMultiset, MISSING, navigate, unpack_fixed, unpack_variable
from .decoder import Path, PathStep, VectorRecordView, WILDCARD
from .layout import (
    DECLARED_FIELD_BIT,
    FIXED_WIDTH,
    NAME_ENTRY_MAX,
    POP_MARKER_BIT,
    RAW_EOV,
    RAW_MISSING,
    RAW_MULTISET,
    RAW_NESTED,
    RAW_NULL,
    RAW_OBJECT,
    RAW_VARLEN,
    TAG_OF_RAW,
    U16,
    U32,
)


class _TrieNode:
    """One step of the compiled request trie."""

    __slots__ = ("children", "wild", "exact_ids", "wild_ids", "subtree_ids")

    def __init__(self) -> None:
        self.children: Dict[PathStep, "_TrieNode"] = {}
        #: Child reached through the ``"*"`` step (matches int item indexes).
        self.wild: Optional["_TrieNode"] = None
        #: Exact requests terminating at this node.
        self.exact_ids: List[int] = []
        #: Single-wildcard requests terminating at this node.
        self.wild_ids: List[int] = []
        #: On a wild node: every single-wildcard request in its subtree —
        #: the requests resolved together when the collection at the prefix
        #: turns out to be a scalar/object (passthrough) or closes (aligned).
        self.subtree_ids: List[int] = []


class _SubtreeCapture:
    """Builds one nested value inline while the tight walk passes over it.

    Same container discipline as :meth:`VectorRecordView.materialize`: every
    value goes straight into its parent, a multiset is wrapped when it closes.
    """

    __slots__ = ("slot", "stack", "container", "kind", "value")

    def __init__(self, slot: Tuple[Any, ...], raw: int) -> None:
        self.slot = slot
        #: One ``(parent container, parent kind, key in parent)`` per open child.
        self.stack: List[Tuple[Any, int, Optional[PathStep]]] = []
        self.container: Any = {} if raw == RAW_OBJECT else []
        self.kind = raw
        self.value: Any = MISSING

    def feed_scalar(self, step: Optional[PathStep], value: Any) -> None:
        if self.kind == RAW_OBJECT:
            self.container[step] = value
        else:
            self.container.append(value)

    def feed_enter(self, step: Optional[PathStep], raw: int) -> None:
        child: Any = {} if raw == RAW_OBJECT else []
        self.feed_scalar(step, child)
        self.stack.append((self.container, self.kind, step))
        self.container, self.kind = child, raw

    def feed_exit(self) -> bool:
        is_multiset = self.kind == RAW_MULTISET
        finished = AMultiset(self.container) if is_multiset else self.container
        if not self.stack:
            self.value = finished
            return True
        self.container, self.kind, step = self.stack.pop()
        if is_multiset:
            if self.kind == RAW_OBJECT:
                self.container[step] = finished
            else:
                self.container[-1] = finished
        return False


class BatchExtractor:
    """Compiled multi-path extractor, reusable across records.

    Record views of other formats resolve the paths themselves: a
    ``DictRecordView`` (memtable row) through its own ``get_values``; an
    ``ADMRecordView``, which navigates by offset and has no consolidated
    access, with one ``get_field`` per path.  Paths with more than one
    wildcard (never produced by the optimizer) stay out of the trie and are
    resolved by ``navigate`` over the materialized record.
    """

    def __init__(self, paths: Sequence[Sequence[PathStep]]) -> None:
        self.requests: List[Path] = [tuple(path) for path in paths]
        self.root = _TrieNode()
        self.exact_count = 0
        self.wild_ids: List[int] = []
        self.multi_wild_ids: List[int] = []
        for rid, request in enumerate(self.requests):
            stars = sum(1 for step in request if step == WILDCARD)
            if stars > 1:
                self.multi_wild_ids.append(rid)
                continue
            node = self.root
            wild_node: Optional[_TrieNode] = None
            for step in request:
                if step == WILDCARD:
                    if node.wild is None:
                        node.wild = _TrieNode()
                    node = node.wild
                    wild_node = node
                else:
                    node = node.children.setdefault(step, _TrieNode())
            if stars == 1:
                node.wild_ids.append(rid)
                wild_node.subtree_ids.append(rid)
                self.wild_ids.append(rid)
            else:
                node.exact_ids.append(rid)
                self.exact_count += 1

    def extract(self, view: Any) -> List[Any]:
        """Resolve every compiled path against one record view."""
        if not self.requests:
            return []
        if not isinstance(view, VectorRecordView):
            if hasattr(view, "get_values"):
                return view.get_values(*self.requests)
            return [view.get_field(*request) for request in self.requests]
        results = self._extract_vector(view)
        if self.multi_wild_ids:
            record = view.materialize()
            for rid in self.multi_wild_ids:
                results[rid] = navigate(record, self.requests[rid])
        return results

    # The tight walk: the decoder module's cursor discipline, allocation-free
    # for untouched values and guided by the trie.
    def _extract_vector(self, view: VectorRecordView) -> List[Any]:
        payload = view.payload
        tags_start = view.offset_tags
        tag_count = view.tag_count
        fixed_cursor = view.offset_fixed
        (var_count,) = U32.unpack_from(payload, view.offset_varlen)
        var_length_cursor = view.offset_varlen + 4
        var_value_cursor = var_length_cursor + 4 * var_count
        (name_count,) = U32.unpack_from(payload, view.offset_names)
        name_entry_cursor = view.offset_names + 4
        name_bytes_cursor = name_entry_cursor + 2 * name_count
        datatype = view.datatype
        dictionary = view.dictionary
        compacted = view.is_compacted

        results: List[Any] = [MISSING] * len(self.requests)
        for wid in self.wild_ids:
            results[wid] = []
        pending_exact = self.exact_count
        open_wild = set(self.wild_ids)
        wild_matches: Dict[int, Dict[int, Any]] = {wid: {} for wid in self.wild_ids}
        wild_counts: Dict[int, int] = {wid: 0 for wid in self.wild_ids}
        captures: List[_SubtreeCapture] = []

        def resolve(slot: Tuple[Any, ...], value: Any) -> None:
            nonlocal pending_exact
            kind = slot[0]
            if kind == "e":
                results[slot[1]] = value
                pending_exact -= 1
            elif kind == "w":
                wild_matches[slot[1]][slot[2]] = value
            else:  # passthrough: the collection itself was an object
                for wid in slot[1]:
                    if wid in open_wild:
                        open_wild.discard(wid)
                        results[wid] = value

        def close_frame(counting: List[int]) -> None:
            for wid in counting:
                if wid in open_wild:
                    open_wild.discard(wid)
                    matches = wild_matches[wid]
                    results[wid] = [matches.get(item, MISSING)
                                    for item in range(wild_counts[wid])]

        def feed_exits() -> None:
            kept = []
            for cap in captures:
                if cap.feed_exit():
                    resolve(cap.slot, cap.value)
                else:
                    kept.append(cap)
            captures[:] = kept

        # Frame: [is_object, next_item_index, pairs, counting_ids] where
        # pairs is [(trie node, wildcard item index)] for the container.
        stack: List[List[Any]] = []

        index = 0
        while index < tag_count:
            raw = payload[tags_start + index]
            index += 1
            if raw & POP_MARKER_BIT:
                frame = stack.pop()
                close_frame(frame[3])
                if captures:
                    feed_exits()
                if not pending_exact and not open_wild and not captures:
                    return results
                continue
            if raw == RAW_EOV:
                while stack:
                    frame = stack.pop()
                    close_frame(frame[3])
                    if captures:
                        feed_exits()
                break

            # Path step under the parent container (field name or item index).
            step: Any = None
            pairs: List[Tuple[_TrieNode, int]] = ()
            if stack:
                frame = stack[-1]
                pairs = frame[2]
                if frame[0]:  # object parent: consume one name entry
                    (entry,) = U16.unpack_from(payload, name_entry_cursor)
                    name_entry_cursor += 2
                    if entry & DECLARED_FIELD_BIT:
                        if pairs or captures:
                            step = datatype.fields[entry & NAME_ENTRY_MAX].name
                    elif compacted:
                        if pairs or captures:
                            step = dictionary.decode(entry)
                    else:
                        if pairs or captures:
                            step = payload[name_bytes_cursor:name_bytes_cursor + entry].decode("utf-8")
                        name_bytes_cursor += entry
                else:
                    step = frame[1]
                    frame[1] += 1
                for wid in frame[3]:
                    wild_counts[wid] += 1
                child_pairs: List[Tuple[_TrieNode, int]] = []
                if pairs and step is not None:
                    is_item = isinstance(step, int)
                    for node, ctx in pairs:
                        nxt = node.children.get(step)
                        if nxt is not None:
                            child_pairs.append((nxt, ctx))
                        if is_item and node.wild is not None:
                            child_pairs.append((node.wild, step))
            else:
                # record root (no parent): matched by the trie root itself
                child_pairs = [(self.root, -1)]

            if raw in RAW_NESTED:
                for cap in captures:
                    cap.feed_enter(step, raw)
                counting: List[int] = []
                for node, ctx in child_pairs:
                    for rid in node.exact_ids:
                        captures.append(_SubtreeCapture(("e", rid), raw))
                    for wid in node.wild_ids:
                        captures.append(_SubtreeCapture(("w", wid, ctx), raw))
                    if node.wild is not None:
                        if raw == RAW_OBJECT:
                            remaining = [wid for wid in node.wild.subtree_ids
                                         if wid in open_wild]
                            if remaining:
                                captures.append(_SubtreeCapture(("p", remaining), raw))
                        else:
                            counting.extend(node.wild.subtree_ids)
                stack.append([raw == RAW_OBJECT, 0, child_pairs, counting])
                continue

            # scalar value: decode only when someone needs it
            need_value = bool(captures)
            if not need_value:
                for node, _ in child_pairs:
                    if node.exact_ids or node.wild_ids or node.wild is not None:
                        need_value = True
                        break
            if raw == RAW_NULL:
                value = None
            elif raw == RAW_MISSING:
                value = MISSING
            elif raw in RAW_VARLEN:
                (length,) = U32.unpack_from(payload, var_length_cursor)
                var_length_cursor += 4
                value = (unpack_variable(TAG_OF_RAW[raw],
                                         payload[var_value_cursor:var_value_cursor + length])
                         if need_value else None)
                var_value_cursor += length
            else:
                value = (unpack_fixed(TAG_OF_RAW[raw], payload, fixed_cursor)
                         if need_value else None)
                fixed_cursor += FIXED_WIDTH[raw]
            if need_value:
                for cap in captures:
                    cap.feed_scalar(step, value)
                for node, ctx in child_pairs:
                    for rid in node.exact_ids:
                        results[rid] = value
                        pending_exact -= 1
                    for wid in node.wild_ids:
                        wild_matches[wid][ctx] = value
                    if node.wild is not None:
                        # scalar where a collection was expected: passthrough
                        # (an absent one — NULL or MISSING — stays [])
                        for wid in node.wild.subtree_ids:
                            if wid in open_wild:
                                open_wild.discard(wid)
                                if value is not None and value is not MISSING:
                                    results[wid] = value
                if not pending_exact and not open_wild and not captures:
                    return results
        return results


class ColumnBatch:
    """Column-major container for N records' requested value slices.

    ``columns`` is keyed ``(variable, path) -> list of values``; a variable
    bound whole (a LET name, an UNNEST item) uses the empty path.  ``views``
    retains the record views for whole-record projections (``SELECT t``)
    and is replicated through UNNEST flattening.
    """

    __slots__ = ("length", "views", "columns")

    def __init__(self, views: Optional[List[Any]],
                 columns: Dict[Tuple[str, Path], List[Any]],
                 length: Optional[int] = None) -> None:
        self.views = views
        self.columns = columns
        self.length = len(views) if length is None else length

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Row subset (the batch SELECT's filtered output)."""
        views = [self.views[i] for i in indices] if self.views is not None else None
        columns = {key: [column[i] for i in indices]
                   for key, column in self.columns.items()}
        return ColumnBatch(views, columns, len(indices))

    def __len__(self) -> int:
        return self.length
