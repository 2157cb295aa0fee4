"""Record-format codecs and uniform record views.

A dataset's :class:`~repro.config.StorageFormat` decides how its records are
physically encoded (paper §4: *open* and *closed* use the ADM format,
*inferred* and *SL-VB* use the vector-based format) and, consequently, how
fields are accessed at query time: offset-guided navigation for ADM records
versus a consolidated linear scan for vector-based records.

To keep the query engine format-agnostic, every stored record is exposed to
it through the small ``RecordView`` protocol — ``get_field``, ``materialize``
and, where one walk can serve several paths, ``get_values`` — implemented by
the ADM view, the vector view, and a plain-dict view (records still in the
memtable).  What a path *means* is the same for all three and is written
down once, on :func:`repro.types.navigate`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..adm import ADMEncoder, ADMRecordView
from ..config import StorageFormat
from ..schema import InferredSchema
from ..types import Datatype, navigate
from ..vector import VectorEncoder, VectorRecordView


class DictRecordView:
    """Record view over an already-materialized Python dict."""

    def __init__(self, record: Dict[str, Any]) -> None:
        self.record = record

    def materialize(self) -> Dict[str, Any]:
        return self.record

    def get_field(self, *path: Any) -> Any:
        return navigate(self.record, path)

    def get_values(self, *paths: Sequence[Any]) -> List[Any]:
        return [navigate(self.record, path) for path in paths]


class RecordFormatCodec:
    """Encodes records for storage and re-opens stored payloads as views."""

    def __init__(self, storage_format: StorageFormat, datatype: Optional[Datatype],
                 validate: bool = True) -> None:
        self.storage_format = storage_format
        self.datatype = datatype
        if storage_format.uses_vector_format:
            self._encoder = VectorEncoder(datatype, validate=validate)
        else:
            self._encoder = ADMEncoder(datatype, validate=validate)

    # -- encoding -----------------------------------------------------------------

    def encode(self, record: Dict[str, Any]) -> bytes:
        """Encode one record into its in-memory-component representation.

        For vector-based formats this is always the *uncompacted* form; the
        tuple compactor produces the compacted form during flushes.
        """
        return self._encoder.encode(record)

    # -- views ----------------------------------------------------------------------

    def view(self, payload: bytes, schema: Optional[InferredSchema] = None):
        """Open a stored payload as a record view."""
        if self.storage_format.uses_vector_format:
            dictionary = schema.dictionary if schema is not None else None
            return VectorRecordView(payload, self.datatype, dictionary)
        return ADMRecordView(payload, self.datatype)

    def decode(self, payload: bytes, schema: Optional[InferredSchema] = None) -> Dict[str, Any]:
        """Materialize a stored payload back into a Python record."""
        return self.view(payload, schema).materialize()
