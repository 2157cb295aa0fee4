"""Immutable page-based B+-tree (bulk load + read path)."""

from .btree import BTree
from .bulk_loader import BTreeInfo, BulkLoader
from .keycodec import Key, decode_key, encode_key
from .pages import FLAG_ANTIMATTER, LeafEntry, leaf_head

__all__ = [
    "BTree",
    "BTreeInfo",
    "BulkLoader",
    "Key",
    "encode_key",
    "decode_key",
    "LeafEntry",
    "leaf_head",
    "FLAG_ANTIMATTER",
]
