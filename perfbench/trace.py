"""Outside-in tracing: benchmark-owned wrappers around the engine's public entry points.

``Tracer.install()`` replaces each listed function with a wrapper that records a
span — (name, start, end, parent) — on the CPU clock, and ``uninstall()`` puts
the originals back.  A class method is patched on its class; a module-level
function is patched in every loaded ``repro`` module that holds a reference to
it (``from .pages import unpack_leaf`` binds the name where it is looked up).
Nothing under ``src/`` is edited, and the end-to-end run never installs these.

Spans live in memory until :meth:`Tracer.write`.  A layer's *self time* is its
spans' busy time minus the busy time of their direct children; for a wrapped
generator, busy time is the time spent inside ``next()`` only — the consumer's
time between two items is not the producer's.

The engine under test runs on one thread (``parallelism=1``, synchronous LSM),
so the open-span stack is a plain list.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record layout: [name, start, end, parent, busy, size]
_NAME, _START, _END, _PARENT, _BUSY, _SIZE = range(6)


def _targets() -> List[Tuple[str, Any, str, Optional[Callable[[Any], int]]]]:
    """(span name, owner, attribute, size-of-result) for every wrapped entry point."""
    import repro.sqlpp
    from repro.adm import ADMEncoder, ADMRecordView
    from repro.btree import BTree, BulkLoader, pages
    from repro.cache import column_cache
    from repro.core import Partition, TupleCompactor
    from repro.core.formats import RecordFormatCodec
    from repro.lsm import LSMBTree
    from repro.query import QueryExecutor
    from repro.schema import InferredSchema
    from repro.storage.buffer_cache import BufferCache
    from repro.storage.compression import ZlibCodec
    from repro.storage.file_manager import BaseFileManager
    from repro.storage.wal import WriteAheadLog
    from repro.vector import BatchExtractor, VectorEncoder, VectorRecordView, compaction

    return [
        ("sqlpp.compile", repro.sqlpp, "compile", None),
        ("optimizer.prepare", QueryExecutor, "prepare_physical", None),
        ("executor.execute", QueryExecutor, "execute_physical", None),
        ("executor.execute", QueryExecutor, "execute_prepared", None),
        ("column_cache.scan", column_cache, "cached_component_scan", None),
        ("vector.encode", VectorEncoder, "encode", len),
        ("vector.extract", BatchExtractor, "extract", None),
        ("vector.materialize", VectorRecordView, "materialize", None),
        ("vector.structure", VectorRecordView, "structure", None),
        ("vector.compact", compaction, "compact_record", len),
        ("adm.encode", ADMEncoder, "encode", len),
        # Its size counts the ADM views opened: the records ``adm.decode`` served.
        ("codec.view", RecordFormatCodec, "view",
         lambda view: isinstance(view, ADMRecordView)),
        ("adm.decode", ADMRecordView, "materialize", None),
        ("adm.decode", ADMRecordView, "get_field", None),
        ("adm.decode", ADMRecordView, "get_items", None),
        ("schema.observe", InferredSchema, "observe", None),
        ("schema.remove", InferredSchema, "remove", None),
        # No metric of its own: taken at every flush, so it is a child that
        # ``lsm.flush_s`` (self time) must not be charged for.
        ("schema.snapshot", InferredSchema, "snapshot", None),
        ("compactor.transform", TupleCompactor, "transform_record", None),
        ("lsm.insert", LSMBTree, "insert", None),
        ("lsm.upsert", LSMBTree, "upsert", None),
        ("lsm.search", LSMBTree, "search", None),
        ("lsm.flush", LSMBTree, "flush", None),
        ("lsm.merge", LSMBTree, "merge", None),
        ("lsm.recover", Partition, "recover", None),
        ("btree.search", BTree, "search", None),
        ("btree.bulk_build", BulkLoader, "build", None),
        ("btree.unpack_leaf", pages, "unpack_leaf", None),
        ("btree.pack_leaf", pages, "pack_leaf", None),
        ("buffer_cache.read_page", BufferCache, "read_page", None),
        ("file_manager.read_page", BaseFileManager, "read_page", None),
        ("file_manager.write_page", BaseFileManager, "write_page", None),
        ("compression.compress", ZlibCodec, "compress", None),
        ("compression.decompress", ZlibCodec, "decompress", None),
        ("wal.append", WriteAheadLog, "append", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ patching

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, size_of in _targets():
            original = owner.__dict__[attribute]
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, size_of)
            wrapper.__wrapped__ = original
            if isinstance(owner, type):
                self._replace(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ wrappers

    def _wrap_call(self, name: str, function: Callable,
                   size_of: Optional[Callable[[Any], int]]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.process_time

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if size_of is not None:
                record[_SIZE] = size_of(result)
            return result

        return traced

    def _wrap_generator(self, name: str, function: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.process_time

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            # This body first runs at the consumer's first next(): the span
            # starts there, under whatever span is open at that moment.
            inner = function(*args, **kwargs)
            started = clock()
            record = [name, started, started, stack[-1] if stack else -1, 0.0, 0]
            index = len(spans)
            spans.append(record)
            try:
                while True:
                    stack.append(index)
                    started = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        record[_END] = clock()
                        record[_BUSY] += record[_END] - started
                        stack.pop()
                    yield item
            finally:
                inner.close()

        return traced

    # ------------------------------------------------------------------ results

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds, summed result sizes."""
        spans = self.spans
        child_busy = [0.0] * len(spans)
        for record in spans:
            if record[_PARENT] >= 0:
                child_busy[record[_PARENT]] += _busy(record)
        totals: Dict[str, Dict[str, float]] = {}
        for index, record in enumerate(spans):
            entry = totals.setdefault(record[_NAME], {"calls": 0, "busy_s": 0.0,
                                                      "self_s": 0.0, "size": 0})
            busy = _busy(record)
            entry["calls"] += 1
            entry["busy_s"] += busy
            entry["self_s"] += busy - child_busy[index]
            entry["size"] += record[_SIZE]
        return totals

    def direct_children(self, parent: str, child: str) -> int:
        """How many ``child`` spans were opened directly under a ``parent`` span."""
        spans = self.spans
        return sum(1 for record in spans if record[_NAME] == child
                   and record[_PARENT] >= 0 and spans[record[_PARENT]][_NAME] == parent)

    def write(self, path: str) -> None:
        """Write the span list as JSON: names once, spans as arrays."""
        names = sorted({record[_NAME] for record in self.spans})
        number = {name: index for index, name in enumerate(names)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "clock": "time.process_time",
                "fields": ["name", "start", "end", "parent", "busy"],
                "names": names,
                "spans": [[number[record[_NAME]], record[_START], record[_END],
                           record[_PARENT], _busy(record)] for record in self.spans],
            }, handle, separators=(",", ":"))


def _busy(record: List[Any]) -> float:
    if record[_BUSY] is not None:
        return record[_BUSY]
    return record[_END] - record[_START]


