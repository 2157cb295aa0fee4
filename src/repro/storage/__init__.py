"""Storage substrate: devices, page files, buffer cache, compression, WAL."""

from .buffer_cache import BufferCache, CacheStats
from .compression import Codec, NoneCodec, ZlibCodec, compress_page, get_codec, register_codec
from .device import IOStats, SimulatedStorageDevice
from .file_manager import BaseFileManager, InMemoryFileManager
from .laf import ENTRY_SIZE as LAF_ENTRY_SIZE
from .laf import LookAsideFile
from .wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "BufferCache",
    "CacheStats",
    "Codec",
    "NoneCodec",
    "ZlibCodec",
    "compress_page",
    "get_codec",
    "register_codec",
    "IOStats",
    "SimulatedStorageDevice",
    "BaseFileManager",
    "InMemoryFileManager",
    "LookAsideFile",
    "LAF_ENTRY_SIZE",
    "LogRecord",
    "LogRecordType",
    "WriteAheadLog",
]
