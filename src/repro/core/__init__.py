"""Core public API: datasets, partitions, the tuple compactor, record codecs."""

from .dataset import Dataset, hash_partition
from .environment import StorageEnvironment
from .formats import RecordFormatCodec
from .partition import Partition
from .tuple_compactor import TupleCompactor

__all__ = [
    "Dataset",
    "hash_partition",
    "StorageEnvironment",
    "Partition",
    "TupleCompactor",
    "RecordFormatCodec",
]
