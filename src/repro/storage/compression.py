"""Page compression (the paper's "syntactic" approach, §2.4).

AsterixDB's page-level compression uses Snappy; Snappy is not available in
this offline environment, so the one codec is ``zlib`` at its fastest level,
which has the same compress-on-write / decompress-on-read behaviour and a
comparable compression profile on JSON-ish page content.  An uncompressed
dataset has no codec at all (``None``), selected per dataset via
:class:`repro.config.StorageConfig`.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..errors import StorageError


class ZlibCodec:
    """zlib/DEFLATE page codec standing in for Snappy (see module docstring)."""

    name = "zlib"

    def compress(self, payload: bytes) -> bytes:
        return zlib.compress(payload, 1)

    def decompress(self, payload: bytes, original_size: int) -> bytes:
        expanded = zlib.decompress(payload)
        if len(expanded) != original_size:
            raise StorageError(
                f"decompressed page size {len(expanded)} does not match expected {original_size}"
            )
        return expanded


def get_codec(name: Optional[str]) -> Optional[ZlibCodec]:
    """Resolve a codec by name; ``None`` means compression is off.

    ``"snappy"`` is what the paper (and MongoDB) use; it maps onto the zlib
    stand-in so experiment configs can keep the paper's codec name.
    """
    if name is None:
        return None
    if name in ("zlib", "snappy"):
        return ZlibCodec()
    raise StorageError(f"unknown compression codec {name!r}")


def compress_page(codec: ZlibCodec, page: bytes) -> bytes:
    """The payload to store for a page: compressed, or the page itself when
    compression does not pay.

    Storing an incompressible page uncompressed mirrors what real engines
    (and Snappy framing) do; a stored payload of exactly the page size is
    how a reader knows it was kept.
    """
    compressed = codec.compress(page)
    return compressed if len(compressed) < len(page) else page
