"""LSM lifecycle callbacks — the hook the tuple compactor piggybacks on.

The paper's central architectural idea is that flush (and merge) operations
are a natural place to run extra work over the records being written: the
records are immutable for the duration of the operation and the operation is
atomic, so a transformation applied during it is atomic too (paper §3.1.2).
AsterixDB exposes this through LSM I/O operation callbacks; this module
defines the equivalent interface.

:class:`FlushCallback` is a no-op base class.  The engine invokes it as::

    callback.begin_flush(component_id)
    for entry in memtable (key order):
        callback.process_antischema(old_payload)   # deletes & upserts of a stored key
        payload = callback.transform_record(key, encoded)   # inserts
    schema_bytes, schema = callback.end_flush()

where ``encoded`` is the record's in-memory encoding — the memtable holds
nothing else of it — and ``old_payload`` is the stored bytes of the version
the entry supersedes, fetched by the delete or upsert's point lookup (paper
§3.2.2).

and, for merges::

    schema_bytes, schema = callback.select_merge_schema(components)

The tuple compactor (:mod:`repro.core.tuple_compactor`) implements schema
inference and record compaction on top of these hooks; datasets without the
compactor run with the default pass-through behaviour.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..schema import InferredSchema
from .component import OnDiskComponent
from .component_id import ComponentId


class FlushCallback:
    """Pass-through lifecycle callback (no schema inference, no compaction)."""

    #: Whether delete/upsert operations must fetch the old record's stored
    #: payload — its anti-schema — via a point lookup (paper §3.2.2).
    #: Pass-through datasets skip that lookup entirely, which is why the
    #: paper's open/closed configurations ingest the 50 %-update workload at
    #: insert-only speed.
    needs_antischema = False

    def begin_flush(self, component_id: ComponentId) -> None:
        """Called when a flush starts, before any entry is processed."""

    def transform_record(self, key: Any, encoded: bytes) -> bytes:
        """Transform one inserted record's payload before it is written.

        The default keeps the in-memory encoding unchanged; the tuple
        compactor returns the compacted form here.
        """
        return encoded

    def process_antischema(self, payload: bytes) -> None:
        """Handle the anti-schema carried by a delete/upsert entry: the
        stored payload of the version it supersedes."""

    def end_flush(self) -> Tuple[bytes, Optional[InferredSchema]]:
        """Called after the last entry; returns the schema blob to persist."""
        return b"", None

    def select_merge_schema(self, components: Sequence[OnDiskComponent]) -> Tuple[bytes, Optional[InferredSchema]]:
        """Pick the schema persisted with a merged component.

        The default persists nothing; the tuple compactor returns the most
        recent component's schema (paper §3.1: merges never need to touch the
        in-memory schema, so flushes and merges can proceed concurrently).
        """
        return b"", None

    def load_schema(self, schema: InferredSchema) -> None:
        """Adopt the schema recovery read from the newest valid component."""

    def snapshot_state(self) -> Any:
        """Capture whatever cumulative state a flush mutates.

        Taken by the engine before each flush attempt so a failed attempt can
        be rolled back with :meth:`restore_state` and retried safely — the
        tuple compactor's inferred schema grows in ``transform_record`` /
        ``process_antischema``, and replaying a half-processed memtable
        without the rollback would double-count every field.  The default
        callback keeps no state.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Roll back to a :meth:`snapshot_state` capture after a failed flush."""
