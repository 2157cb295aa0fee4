"""The tuple compactor — the paper's core contribution (§3).

The :class:`TupleCompactor` is an LSM lifecycle callback attached to a
partition's primary index when the dataset is created with
``{"tuple-compactor-enabled": true}`` (paper Figure 8).  During each flush
it:

1. scans the type-tag and field-name vectors of every flushed record,
   folding them into the partition's in-memory schema
   (:class:`~repro.schema.InferredSchema`) and, in the same pass, rewriting
   the record into its compacted form — field names replaced by the
   schema's ``FieldNameID``\\ s (§3.3.2).  The scan runs once per record
   *layout* (tags vector plus names section) the schema meets: it keeps
   what the scan did — the counters it incremented, the ids it wrote — as
   a plan, and a record of a layout seen before replays that plan;
2. processes the anti-schemas carried by delete/upsert entries — the
   superseded versions' stored payloads — decrementing the schema's
   counters in one walk of their tags and field-name vectors, so the
   schema can shrink again (§3.2.2);
3. persists a snapshot of the inferred schema into the new component's
   metadata page (§3.1.1).

Merges never touch the in-memory schema: the merged component simply keeps
the most recent schema among the merged components, which is a superset of
the others because schemas only grow between deletes (§3.1.1, Figure 9c).
Crash recovery re-loads the newest valid component's schema via
:meth:`load_schema` (§3.1.2).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..lsm.component import OnDiskComponent
from ..lsm.component_id import ComponentId
from ..lsm.lifecycle import FlushCallback
from ..schema import InferredSchema
from ..types import Datatype
from ..vector import infer_and_compact


class TupleCompactor(FlushCallback):
    """Schema-inferring, record-compacting LSM flush callback."""

    needs_antischema = True

    def __init__(self, datatype: Optional[Datatype] = None) -> None:
        #: The partition's current in-memory schema (grows across flushes).
        self.schema = InferredSchema(datatype)
        self.datatype = datatype
        self.flush_count = 0
        self.records_compacted = 0
        self.bytes_saved = 0

    # ------------------------------------------------------------------ flush hooks

    def begin_flush(self, component_id: ComponentId) -> None:
        self.flush_count += 1

    def snapshot_state(self) -> Any:
        """Deep-copy the cumulative schema state for flush-retry rollback.

        The schema (and its counters) grow record by record during a flush;
        if the flush fails mid-way and is retried, replaying the memtable
        against the mutated schema would double-count every observed field
        — so the engine restores this snapshot first.  The copy keeps no
        flush-time plans: a retry walks each layout again.
        """
        return (self.schema.snapshot(), self.flush_count,
                self.records_compacted, self.bytes_saved)

    def restore_state(self, state: Any) -> None:
        (self.schema, self.flush_count,
         self.records_compacted, self.bytes_saved) = state

    def transform_record(self, key: Any, encoded: bytes) -> bytes:
        """Infer the record's schema and compact it, in one pass.

        :func:`~repro.vector.infer_and_compact` reads only the type-tag and
        field-name vectors of ``encoded`` — the flush-time scan the paper
        describes, or the plan of a layout it scanned before; the value
        vectors are copied through.
        """
        compacted = infer_and_compact(encoded, self.schema)
        self.records_compacted += 1
        self.bytes_saved += len(encoded) - len(compacted)
        return compacted

    def process_antischema(self, payload: bytes) -> None:
        """Decrement the schema by a superseded version's stored bytes."""
        self.schema.remove(payload)

    def end_flush(self) -> Tuple[bytes, Optional[InferredSchema]]:
        snapshot = self.schema.snapshot()
        return snapshot.to_bytes(), snapshot

    # ------------------------------------------------------------------ merge hook

    def select_merge_schema(self, components: Sequence[OnDiskComponent]) -> Tuple[bytes, Optional[InferredSchema]]:
        """Persist the most recent schema among the merged components."""
        newest = max(components, key=lambda component: component.component_id)
        if newest.schema is None:
            return b"", None
        return newest.schema.to_bytes(), newest.schema

    # ------------------------------------------------------------------ recovery & maintenance

    def load_schema(self, schema: InferredSchema) -> None:
        """Adopt a copy of the schema recovered from the newest valid on-disk
        component: later flushes grow the copy, never the component's own
        schema.  The copy's dictionary stays in the component's family, so
        extraction plans serve both."""
        self.schema = schema.snapshot()
        self.schema.datatype = self.datatype
