"""Batched column extraction over vector-based records (ROADMAP item 2).

A :class:`BatchExtractor` compiles the requested paths into a small trie
once per query.  Per record it opens the vectors once (tags sliced, name
entries and varlen lengths bulk-unpacked — the cursor discipline of
:mod:`repro.vector.decoder`) and walks the tags with one iterator.  Each
value's name entry is matched against the open container's trie node — a
compacted id by indexing the dictionary's name list, an inline name by its
UTF-8 bytes, never decoded — and then

* a value the trie does not know is **skipped**: a scalar advances its
  cursor by the width ``layout.WIDTHS`` gives its tag, a nested value runs
  the tight depth loop that only counts widths, varlen entries and name
  entries up to its pop marker; once every child a container was asked for
  has been seen, the rest of the container is skipped the same way;
* a value a request ends at is decoded from ``layout.TAG_TABLE`` or, when
  nested, **built** by :func:`~repro.vector.decoder.build_value` — the
  routine ``materialize()`` applies to the root;
* a container on the way to a request is entered, and the walk returns at
  the first tag after which nothing requested can follow.

It computes, from the encoded bytes, what :func:`repro.types.navigate`
defines over the materialized record.  The walk itself handles exact paths
and the aligned single-wildcard form (one entry per item of the collection,
scalar/object passthrough); wherever two requests would need the same bytes
twice — one ends where another passes through, a wildcard beside a name or
an index, several wildcards — the trie stops at that node, the value there
is built once and ``navigate`` answers each request from it.
:meth:`VectorRecordView.get_values` delegates here, and the property suite
asserts equality with ``navigate`` on random records, for this walk and for
every other record view.  :class:`ColumnBatch` is the column-major
container the batch operators consume; the scan operator fills it with one
extractor applied across N records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DecodingError
from ..types import MISSING, VARLEN, navigate
from .decoder import Path, PathStep, VectorRecordView, WILDCARD, build_value
from .layout import (
    CLOSE,
    DECLARED_FIELD_BIT,
    NAME_ENTRY_MAX,
    NESTED,
    POP_TO_OBJECT,
    RAW_OBJECT,
    TAG_TABLE,
    WIDTHS,
)

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


class BatchExtractor:
    """Compiled multi-path extractor, reusable across records.

    Record views of other formats resolve the paths themselves: a
    ``DictRecordView`` (memtable row) through its own ``get_values``; an
    ``ADMRecordView``, which navigates by offset and has no consolidated
    access, with one ``get_field`` per path.
    """

    def __init__(self, paths: Sequence[Sequence[PathStep]]) -> None:
        self.requests: List[Path] = [tuple(path) for path in paths]
        self.root = _TrieNode(list(enumerate(self.requests)))
        #: Requests that default to ``[]`` (any wildcard) rather than MISSING.
        self.list_rids = [rid for rid, request in enumerate(self.requests)
                          if WILDCARD in request]

    def extract(self, view: Any) -> List[Any]:
        """Resolve every compiled path against one record view."""
        if not self.requests:
            return []
        if not isinstance(view, VectorRecordView):
            if hasattr(view, "get_values"):
                return view.get_values(*self.requests)
            return [view.get_field(*request) for request in self.requests]
        return self._extract_vector(view)

    def _extract_vector(self, view: VectorRecordView) -> List[Any]:
        node = self.root
        if node.capture is not None or node.wild is not None:
            record = view.materialize()  # a request for the root itself
            return [navigate(record, request) for request in self.requests]
        results: List[Any] = [MISSING] * len(self.requests)
        for rid in self.list_rids:
            results[rid] = []
        tags, vectors, name_bytes, fixed, var_bytes = view._vectors()
        payload, entries, lengths, declared, id_names = vectors
        inline = id_names is None
        id_count = 0 if inline else len(id_names)
        name_index = var_index = 0
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
                    else:
                        raise view._unresolved(entry)
                elif lists is None:
                    node = children.get(item)
                    item += 1
                else:
                    node = wild
                    for column in lists:
                        column.append(MISSING)
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
                        var_bytes += lengths[var_index]
                        var_index += 1
                        continue
                    if width != NESTED:
                        raise DecodingError(f"unexpected tag {raw} in tags vector")
                    depth, closing, skip_object = 1, False, raw == RAW_OBJECT
                else:
                    if width == NESTED:
                        value, name_index, name_bytes, fixed, var_index, var_bytes = build_value(
                            view, cursor, raw, vectors,
                            name_index, name_bytes, fixed, var_index, var_bytes)
                    else:
                        _, read, wrap = TAG_TABLE[raw]
                        if width > 0:
                            if wrap is None:
                                (value,) = read(payload, fixed)
                            else:
                                value = wrap(*read(payload, fixed))
                            fixed += width
                        elif width == VARLEN:
                            length = lengths[var_index]
                            var_index += 1
                            value = read(payload[var_bytes:var_bytes + length])
                            var_bytes += length
                        elif not width:
                            value = wrap  # NULL or MISSING
                        else:
                            raise DecodingError(f"unexpected tag {raw} in tags vector")
                    if capture is None:
                        # a scalar or an object where the wildcard's collection
                        # was expected: passed through (absent stays [])
                        if value is not None and value is not MISSING:
                            for rid in node.wild.rids:
                                results[rid] = value
                        remaining -= 1
                    elif node.aligned:
                        for rid, rest in capture:
                            results[rid][-1] = navigate(value, rest) if rest else value
                    else:
                        for rid, rest in capture:
                            results[rid] = navigate(value, rest) if rest else value
                        remaining -= 1
                    if not remaining:
                        return results
                    if want:
                        continue
                    # everything this container was asked for has been seen
                    if not stack:
                        return results
                    depth, closing, skip_object = 1, True, in_object
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
                            var_bytes += lengths[var_index]
                            var_index += 1
                        elif width == NESTED:
                            depth += 1
                            skip_object = raw == RAW_OBJECT
                        else:
                            raise DecodingError(f"unexpected tag {raw} in tags vector")
                if not closing:
                    break
                # the open container has just closed
                if not stack:
                    return results
                if lists is not None:
                    remaining -= 1
                    if not remaining:
                        return results
                children, wild, lists, in_object, item, want = stack.pop()
                if want:
                    break
                depth, skip_object = 1, in_object
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
