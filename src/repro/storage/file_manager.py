"""File manager: named, write-once page files, optionally compressed.

A *page file* is a named sequence of fixed-size logical pages.  LSM
components are immutable and written strictly front to back (flush, merge
and bulk load all build one), so a file is simply the list of its stored
page payloads: page ``n`` is written exactly once, when the file holds ``n``
pages, and never again.

With a codec set, pages are stored compressed and therefore have arbitrary
sizes.  The paper (§2.4) keeps AsterixDB's fixed-size-page layout by storing
them back to back and recording each page's ``(offset, length)`` in a side
file, the *look-aside file* (LAF): 12 bytes per page (8-byte offset + 4-byte
length, so a 128 KB LAF page holds 10 922 entries).  Payloads live in process
memory here, so nothing needs the offsets; what remains of the LAF is its
cost, which is arithmetic: its bytes count toward :meth:`FileManager.file_size`
and every page read or write of a compressed file also charges one LAF entry
to the device under the ``"laf"`` I/O class — the "extra IO to read a data
page" the paper mentions.

Measured times therefore reflect the engine's CPU work and the *simulated*
device model, not the test machine's disk: every physical read/write is
charged to the :class:`~repro.storage.device.SimulatedStorageDevice` the
manager is given.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import CorruptPageError, PageNotFoundError, StorageError
from ..faults import corrupt_payload, fire_fault
from .compression import ZlibCodec, compress_page
from .device import SimulatedStorageDevice

#: Bytes of one look-aside entry (u64 offset + u32 length), as in the paper.
LAF_ENTRY_SIZE = 12
#: Fixed bytes of a look-aside file before its entries (the entry count).
_LAF_HEADER_SIZE = 4


class _PageFile:
    """One page file: its stored pages and their total size."""

    __slots__ = ("pages", "stored_bytes")

    def __init__(self) -> None:
        #: ``(stored payload, CRC32 of the logical page)`` per page number; the
        #: CRC is verified on every read so bit rot and torn writes surface as
        #: CorruptPageError instead of decoded garbage.
        self.pages: List[Tuple[bytes, int]] = []
        #: Sum of the payload lengths, kept because the merge policy asks for
        #: every component's size on every flush.
        self.stored_bytes = 0


class FileManager:
    """Page files with compression, checksums and device accounting."""

    def __init__(self, device: SimulatedStorageDevice, page_size: int,
                 codec: Optional[ZlibCodec] = None) -> None:
        self.device = device
        self.page_size = page_size
        self.codec = codec
        self._files: Dict[str, _PageFile] = {}
        self._page_checksum_failures = device.metrics.counter(
            "checksum_failures_total", kind="page")

    # -- file lifecycle -----------------------------------------------------------

    def create_file(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"page file {name!r} already exists")
        self._files[name] = _PageFile()

    def delete_file(self, name: str) -> None:
        self._files.pop(name, None)

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def num_pages(self, name: str) -> int:
        return len(self._state(name).pages)

    def _state(self, name: str) -> _PageFile:
        try:
            return self._files[name]
        except KeyError as exc:
            raise StorageError(f"unknown page file {name!r}") from exc

    # -- page I/O --------------------------------------------------------------------

    def write_page(self, name: str, page_no: int, data: bytes) -> None:
        """Append one logical page (exactly ``page_size`` bytes) to a file."""
        fire_fault("file.write_page")
        if len(data) != self.page_size:
            raise StorageError(
                f"page writes must be exactly {self.page_size} bytes, got {len(data)}"
            )
        state = self._state(name)
        if page_no != len(state.pages):
            raise StorageError(
                f"pages are written once, in order (page {page_no} of {name!r}, "
                f"have {len(state.pages)})"
            )
        payload = data if self.codec is None else compress_page(self.codec, data)
        # Charged before the page is kept: a device fault leaves no page behind.
        self.device.record_write(len(payload), io_class="data")
        if self.codec is not None:
            self.device.record_write(LAF_ENTRY_SIZE, io_class="laf")
        state.pages.append((payload, zlib.crc32(data)))
        state.stored_bytes += len(payload)

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read one logical page, decompressing if needed."""
        state = self._state(name)
        if not 0 <= page_no < len(state.pages):
            raise PageNotFoundError(f"page {page_no} of {name!r} does not exist")
        payload, expected = state.pages[page_no]
        if self.codec is not None:
            self.device.record_read(LAF_ENTRY_SIZE, io_class="laf")
        self.device.record_read(len(payload), io_class="data")
        if len(payload) == self.page_size:
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
        if zlib.crc32(page) != expected:
            self._page_checksum_failures.inc()
            raise CorruptPageError(
                f"page {page_no} of {name!r} failed its CRC32 check")
        return page

    # -- sizes -----------------------------------------------------------------------

    def file_size(self, name: str) -> int:
        """On-disk size of a page file, including its LAF when compressed."""
        state = self._state(name)
        if self.codec is None:
            return state.stored_bytes
        return state.stored_bytes + _LAF_HEADER_SIZE + LAF_ENTRY_SIZE * len(state.pages)

    def total_size(self, names: Optional[Iterable[str]] = None) -> int:
        selected = self.list_files() if names is None else list(names)
        return sum(self.file_size(name) for name in selected if name in self._files)


#: The name ``perfbench/trace.py`` imports to wrap ``read_page``/``write_page``
#: (pinned by ``tests/test_perfbench_pins.py``); everything else says FileManager.
BaseFileManager = FileManager
