"""Storage substrate: devices, page files, buffer cache, compression, WAL."""

from .buffer_cache import BufferCache, CacheStats
from .compression import ZlibCodec, compress_page, get_codec
from .device import IOStats, SimulatedStorageDevice
from .file_manager import LAF_ENTRY_SIZE, FileManager
from .wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "BufferCache",
    "CacheStats",
    "ZlibCodec",
    "compress_page",
    "get_codec",
    "IOStats",
    "SimulatedStorageDevice",
    "FileManager",
    "LAF_ENTRY_SIZE",
    "LogRecord",
    "LogRecordType",
    "WriteAheadLog",
]
