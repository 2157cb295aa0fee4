"""Vector-based physical record format (the paper's compaction-friendly format)."""

from .encoder import VectorEncoder, is_compacted, record_total_length
from .decoder import VectorRecordView, WILDCARD, extractor_for
from .batch import BatchExtractor, ColumnBatch
from .compaction import compact_record, expand_record, infer_and_compact, remove_encoded

__all__ = [
    "VectorEncoder",
    "VectorRecordView",
    "WILDCARD",
    "BatchExtractor",
    "ColumnBatch",
    "extractor_for",
    "is_compacted",
    "record_total_length",
    "compact_record",
    "expand_record",
    "infer_and_compact",
    "remove_encoded",
]
