"""Dictionary-encoding of inferred field names (paper §3.2.1, Figure 10c).

Children of *different* object nodes may share a field name (``name`` in
the paper's example appears both at the root and inside ``dependents``
items), so the schema structure canonicalizes names into integer
``FieldNameID``\\ s through this dictionary.  IDs start at 1; ID 0 is
reserved so that compacted records can use 0-valued entries for control
purposes and so an "unknown" sentinel never collides with a real name.
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import SchemaError

_U32 = struct.Struct("<I")


#: Serial numbers of :class:`IdFamily`, never reused within a process.
_family_serials = itertools.count(1)


class IdFamily:
    """A dictionary and its copies, as long as they agree on every id.

    Copies of one dictionary (a schema snapshot per flush, a rollback copy)
    share their family and its count of ids handed out.  A copy that falls
    behind the family and then assigns an id, which another member already
    gave a name, starts a family of its own.  So within one family an id
    always names the same field, and the query side keys its extraction
    plans on the family's ``serial`` rather than on one copy.
    """

    __slots__ = ("serial", "assigned")

    def __init__(self, assigned: int = 0) -> None:
        self.serial = next(_family_serials)
        self.assigned = assigned


class FieldNameDictionary:
    """Bidirectional field-name <-> FieldNameID mapping."""

    def __init__(self) -> None:
        self._name_to_id: Dict[str, int] = {}
        #: Index ``i`` holds the name with id ``i + 1``.  The query-side walks
        #: index it directly (checking ``0 < id <= len``) instead of calling
        #: :meth:`decode` per field; only :meth:`encode` appends.
        self.names: List[str] = []
        #: UTF-8 bytes -> id memo of :meth:`encode_utf8`, so the flush-time
        #: pass never decodes an inline name it has met before.  Part of the
        #: dictionary's state: :meth:`copy` carries it, which keeps a schema
        #: restored after a failed flush free of ids it never assigned.  Hot
        #: loops may read it (``ids_by_utf8.get``) but fill it only through
        #: :meth:`encode_utf8`.
        self.ids_by_utf8: Dict[bytes, int] = {}
        self.family = IdFamily()

    # -- core mapping ---------------------------------------------------------

    def encode(self, name: str) -> int:
        """Return the id for ``name``, assigning a fresh one if unseen."""
        existing = self._name_to_id.get(name)
        if existing is not None:
            return existing
        new_id = len(self.names) + 1
        if self.family.assigned >= new_id:  # another copy gave this id out
            self.family = IdFamily(len(self.names))
        self.family.assigned = new_id
        self._name_to_id[name] = new_id
        self.names.append(name)
        return new_id

    def encode_utf8(self, raw: bytes) -> int:
        """:meth:`encode` for a name given as its UTF-8 bytes."""
        existing = self.ids_by_utf8.get(raw)
        if existing is None:
            existing = self.ids_by_utf8[raw] = self.encode(raw.decode("utf-8"))
        return existing

    def lookup(self, name: str) -> Optional[int]:
        """Return the id for ``name`` or ``None`` without assigning one."""
        return self._name_to_id.get(name)

    def decode(self, field_name_id: int) -> str:
        """Return the name for an id; raises SchemaError for unknown ids."""
        index = field_name_id - 1
        if index < 0 or index >= len(self.names):
            raise SchemaError(f"unknown FieldNameID {field_name_id}")
        return self.names[index]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def items(self) -> Iterator[Tuple[int, str]]:
        """Iterate ``(id, name)`` pairs in id order."""
        for index, name in enumerate(self.names):
            yield index + 1, name

    # -- copying / merging ----------------------------------------------------

    def copy(self) -> "FieldNameDictionary":
        clone = FieldNameDictionary()
        clone._name_to_id = dict(self._name_to_id)
        clone.names = list(self.names)
        clone.ids_by_utf8 = dict(self.ids_by_utf8)
        clone.family = self.family
        return clone

    def is_prefix_of(self, other: "FieldNameDictionary") -> bool:
        """True when ``other`` extends this dictionary without remapping ids.

        Inferred schemas grow monotonically within one partition, so the
        dictionary persisted with an older component is always a prefix of
        the newer one; this check guards that invariant in tests and during
        merges.
        """
        if len(self) > len(other):
            return False
        return all(self.names[i] == other.names[i] for i in range(len(self.names)))

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as ``count | (len | utf8)*`` for the metadata page."""
        parts = [_U32.pack(len(self.names))]
        for name in self.names:
            encoded = name.encode("utf-8")
            parts.append(_U32.pack(len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> Tuple["FieldNameDictionary", int]:
        """Inverse of :meth:`to_bytes`; returns the dictionary and bytes read."""
        dictionary = cls()
        if len(payload) < 4:
            raise SchemaError("field-name dictionary payload too short")
        (count,) = _U32.unpack_from(payload, 0)
        cursor = 4
        for _ in range(count):
            (length,) = _U32.unpack_from(payload, cursor)
            cursor += 4
            name = payload[cursor:cursor + length].decode("utf-8")
            cursor += length
            dictionary.encode(name)
        return dictionary, cursor
