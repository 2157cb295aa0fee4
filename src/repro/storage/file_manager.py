"""File manager: named page files, optionally compressed via LAFs.

A *page file* is a named sequence of fixed-size logical pages.  LSM
components write their pages strictly sequentially (flush, merge, and
bulk-load all produce components front to back), which keeps the compressed
representation simple: compressed payloads are appended back-to-back and the
:class:`~repro.storage.laf.LookAsideFile` maps logical page numbers to
``(offset, length)`` pairs, exactly as described in paper §2.4.

Page payloads live in process memory (:class:`InMemoryFileManager`, the
one backend), so measured times reflect the engine's CPU work and the
*simulated* device model, not the test machine's disk: every physical
read/write is charged to the
:class:`~repro.storage.device.SimulatedStorageDevice` the manager is given.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import CorruptPageError, PageNotFoundError, StorageError
from ..faults import corrupt_payload, fire_fault
from .compression import Codec, NoneCodec, compress_page
from .device import SimulatedStorageDevice
from .laf import LookAsideFile


class _PageFileState:
    """Book-keeping for one open page file."""

    __slots__ = ("name", "laf", "page_count", "uncompressed_bytes", "stored_bytes",
                 "checksums")

    def __init__(self, name: str) -> None:
        self.name = name
        self.laf = LookAsideFile()
        self.page_count = 0
        self.uncompressed_bytes = 0
        self.stored_bytes = 0
        #: CRC32 of each logical (uncompressed) page, keyed by page number;
        #: verified on every read so bit rot and torn writes surface as
        #: CorruptPageError instead of decoded garbage.
        self.checksums: Dict[int, int] = {}


class BaseFileManager:
    """Page-file bookkeeping, compression, checksums and device accounting
    over a byte-store backend (the ``_backend_*`` hooks)."""

    def __init__(self, device: SimulatedStorageDevice, page_size: int,
                 codec: Optional[Codec] = None) -> None:
        self.device = device
        self.page_size = page_size
        self.codec = codec or NoneCodec()
        self._files: Dict[str, _PageFileState] = {}
        self._page_checksum_failures = device.metrics.counter(
            "checksum_failures_total", kind="page")

    # -- file lifecycle -----------------------------------------------------------

    def create_file(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"page file {name!r} already exists")
        self._files[name] = _PageFileState(name)
        self._backend_create(name)

    def delete_file(self, name: str) -> None:
        if name not in self._files:
            return
        del self._files[name]
        self._backend_delete(name)

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def num_pages(self, name: str) -> int:
        return self._state(name).page_count

    def _state(self, name: str) -> _PageFileState:
        try:
            return self._files[name]
        except KeyError as exc:
            raise StorageError(f"unknown page file {name!r}") from exc

    # -- page I/O --------------------------------------------------------------------

    def write_page(self, name: str, page_no: int, data: bytes) -> None:
        """Write one logical page (must be exactly ``page_size`` bytes)."""
        fire_fault("file.write_page")
        if len(data) != self.page_size:
            raise StorageError(
                f"page writes must be exactly {self.page_size} bytes, got {len(data)}"
            )
        state = self._state(name)
        if page_no > state.page_count:
            raise StorageError(
                f"pages must be written sequentially (page {page_no}, have {state.page_count})"
            )
        payload, compressed = compress_page(self.codec, data)
        if page_no == state.page_count:
            offset = state.laf.end_offset()
            state.laf.add_entry(page_no, offset, len(payload))
            state.page_count += 1
            state.uncompressed_bytes += self.page_size
            state.stored_bytes += len(payload)
        else:
            # Rewrite of an existing page (component metadata page validation).
            old_offset, old_length = state.laf.entry(page_no)
            if len(payload) > old_length:
                # Pad the logical page's slot is impossible for a longer payload;
                # fall back to storing it uncompressed-size at a new offset only
                # when it still fits the original slot.  Metadata pages compress
                # deterministically, so in practice rewrites fit; guard anyway.
                payload = data
                compressed = False
                if len(payload) > old_length and old_length != self.page_size:
                    raise StorageError(
                        f"rewritten page {page_no} of {name!r} does not fit its slot"
                    )
            state.stored_bytes += len(payload) - old_length
            state.laf.add_entry(page_no, old_offset, len(payload))
            offset = old_offset
        state.checksums[page_no] = zlib.crc32(data)
        self._backend_write(name, offset, payload)
        self.device.record_write(len(payload), io_class="data")
        if not isinstance(self.codec, NoneCodec):
            # The LAF entry itself is eventually persisted; charge its bytes.
            self.device.record_write(12, io_class="laf")

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read one logical page, decompressing if needed."""
        state = self._state(name)
        if page_no < 0 or page_no >= state.page_count:
            raise PageNotFoundError(f"page {page_no} of {name!r} does not exist")
        offset, length = state.laf.entry(page_no)
        if not isinstance(self.codec, NoneCodec):
            self.device.record_read(12, io_class="laf")
        payload = self._backend_read(name, offset, length)
        self.device.record_read(length, io_class="data")
        if length == self.page_size:
            page = payload
        else:
            try:
                page = self.codec.decompress(payload, self.page_size)
            except Exception as exc:
                self._page_checksum_failures.inc()
                raise CorruptPageError(
                    f"page {page_no} of {name!r} failed to decompress: {exc}") from exc
        # Fault injection corrupts the logical page *before* verification so
        # the checksum path is exactly the one real bit rot would take.
        page = corrupt_payload("file.read_page", page)
        expected = state.checksums.get(page_no)
        if expected is not None and zlib.crc32(page) != expected:
            self._page_checksum_failures.inc()
            raise CorruptPageError(
                f"page {page_no} of {name!r} failed its CRC32 check")
        return page

    # -- sizes -----------------------------------------------------------------------

    def file_size(self, name: str) -> int:
        """On-disk size of a page file, including its LAF when compressed."""
        state = self._state(name)
        if isinstance(self.codec, NoneCodec):
            return state.stored_bytes
        return state.stored_bytes + state.laf.size_bytes

    def total_size(self, names: Optional[Iterable[str]] = None) -> int:
        selected = self.list_files() if names is None else list(names)
        return sum(self.file_size(name) for name in selected if name in self._files)

    # -- backend hooks -----------------------------------------------------------------

    def _backend_create(self, name: str) -> None:
        raise NotImplementedError

    def _backend_delete(self, name: str) -> None:
        raise NotImplementedError

    def _backend_write(self, name: str, offset: int, payload: bytes) -> None:
        raise NotImplementedError

    def _backend_read(self, name: str, offset: int, length: int) -> bytes:
        raise NotImplementedError


class InMemoryFileManager(BaseFileManager):
    """Backend keeping page payloads in process memory."""

    def __init__(self, device: SimulatedStorageDevice, page_size: int,
                 codec: Optional[Codec] = None) -> None:
        super().__init__(device, page_size, codec)
        self._blobs: Dict[str, bytearray] = {}

    def _backend_create(self, name: str) -> None:
        self._blobs[name] = bytearray()

    def _backend_delete(self, name: str) -> None:
        self._blobs.pop(name, None)

    def _backend_write(self, name: str, offset: int, payload: bytes) -> None:
        blob = self._blobs[name]
        end = offset + len(payload)
        if len(blob) < end:
            blob.extend(b"\x00" * (end - len(blob)))
        blob[offset:end] = payload

    def _backend_read(self, name: str, offset: int, length: int) -> bytes:
        blob = self._blobs[name]
        if offset + length > len(blob):
            raise PageNotFoundError(f"read past end of {name!r}")
        return bytes(blob[offset:offset + length])
