"""Record-format codecs and uniform record views.

A dataset's :class:`~repro.config.StorageFormat` decides how its records are
physically encoded (paper §4: *open* and *closed* use the ADM format,
*inferred* and *SL-VB* use the vector-based format) and, consequently, how
fields are accessed at query time: offset-guided navigation for ADM records
versus a consolidated linear scan for vector-based records.

To keep the query engine format-agnostic, every stored record — in a
memtable or in a component — is exposed to it through the small
``RecordView`` protocol — ``get_field``, ``materialize`` and, where one walk
can serve several paths, ``get_values`` — implemented by the ADM view and
the vector view.  A record's bytes are its only representation: no view
holds the dict it was encoded from.  What a path *means* is the same for
both and is written down once, on :func:`repro.types.navigate`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..adm import ADMEncoder, ADMRecordView
from ..config import StorageFormat
from ..schema import InferredSchema
from ..types import Datatype
from ..vector import VectorEncoder, VectorRecordView


class RecordFormatCodec:
    """Encodes records for storage and re-opens stored payloads as views."""

    def __init__(self, storage_format: StorageFormat, datatype: Optional[Datatype]) -> None:
        self.datatype = datatype
        self._vector = storage_format.uses_vector_format
        if self._vector:
            self._encoder = VectorEncoder(datatype, validate=True)
        else:
            self._encoder = ADMEncoder(datatype)

    # -- encoding -----------------------------------------------------------------

    def encode(self, record: Dict[str, Any]) -> bytes:
        """Encode one record into its in-memory-component representation.

        For vector-based formats this is always the *uncompacted* form; the
        tuple compactor produces the compacted form during flushes.
        """
        return self._encoder.encode(record)

    # -- views ----------------------------------------------------------------------

    def view(self, payload: bytes, schema: Optional[InferredSchema] = None):
        """Open a stored payload as a record view.

        ``schema`` is the one of the component the payload came from; a
        memtable row is uncompacted (its names are inline) and needs none.
        """
        if self._vector:
            return VectorRecordView(payload, self.datatype,
                                    schema.dictionary if schema is not None else None)
        return ADMRecordView(payload, self.datatype)
