"""Value wrappers and Python-value <-> type-tag mapping.

Records enter the system as plain Python objects (the JSON-ish output of
``json.loads`` plus the wrapper types below for ADM extensions such as
dates and points).  This module is the single place that decides which
:class:`~repro.types.typetag.TypeTag` a Python value carries, how it is
packed into bytes (:data:`VALUE_ENCODERS`) and read back
(:data:`SCALAR_DECODERS`), so the ADM format, the vector-based format, and
the schema inference all agree on typing.
"""

from __future__ import annotations

import datetime as _dt
import struct
import uuid as _uuid
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import EncodingError, TypeError_
from .typetag import TypeTag

_EPOCH_DATE = _dt.date(1970, 1, 1)


@dataclass(frozen=True, order=True)
class ADate:
    """ADM ``date`` value, stored as days since the Unix epoch."""

    days_since_epoch: int

    @classmethod
    def from_iso(cls, text: str) -> "ADate":
        parsed = _dt.date.fromisoformat(text)
        return cls((parsed - _EPOCH_DATE).days)

    def to_date(self) -> _dt.date:
        return _EPOCH_DATE + _dt.timedelta(days=self.days_since_epoch)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"date('{self.to_date().isoformat()}')"


@dataclass(frozen=True, order=True)
class ADateTime:
    """ADM ``datetime`` value, stored as milliseconds since the Unix epoch."""

    millis_since_epoch: int

    @classmethod
    def from_iso(cls, text: str) -> "ADateTime":
        parsed = _dt.datetime.fromisoformat(text)
        return cls(int(parsed.timestamp() * 1000))

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"datetime({self.millis_since_epoch})"


@dataclass(frozen=True, order=True)
class ATime:
    """ADM ``time`` value, stored as milliseconds since midnight."""

    millis_since_midnight: int


@dataclass(frozen=True, order=True)
class APoint:
    """ADM 2-D ``point`` value."""

    x: float
    y: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"point({self.x}, {self.y})"


@dataclass(frozen=True)
class AMultiset:
    """ADM unordered collection (``{{ ... }}``).

    Stored as a tuple to stay hashable; equality is order-insensitive only
    at the data-model level (collection comparison helpers), not here.
    """

    items: Tuple[Any, ...]

    def __init__(self, items) -> None:
        object.__setattr__(self, "items", tuple(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


class Missing:
    """Singleton marker for ADM ``missing`` (absent field accessed)."""

    _instance = None

    def __new__(cls) -> "Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: The canonical MISSING singleton used across the query engine.
MISSING = Missing()

#: The path step that matches every item of a collection (``t.tags[*]``).
WILDCARD = "*"


def collection_items(value: Any) -> Optional[List[Any]]:
    """The items of an array or multiset as a list; ``None`` for any other value."""
    if isinstance(value, AMultiset):
        return list(value.items)
    if isinstance(value, (list, tuple)):
        return list(value)
    return None


def navigate(value: Any, path: Sequence[Any]) -> Any:
    """Follow ``path`` — field names, collection indexes, ``"*"`` — into a plain value.

    This is the one statement of what a path means.  Every record view
    answers ``get_field``/``get_values`` with exactly this function's result
    for the record it holds — the dict view by calling it, the ADM view by
    calling it from the first ``"*"`` on, the vector view through the
    trie-guided walk the property suite holds to it — so a path reads the
    same on every storage format, in the memtable and on disk.

    * No wildcard — *exact*: the value, or ``MISSING`` as soon as a step is
      absent (a name the object lacks, an index out of range, a step into a
      scalar, NULL or MISSING).
    * One ``"*"`` — *aligned*: one entry per item of the collection at the
      wildcard's prefix, ``MISSING`` where the rest of the path does not
      resolve in an item, so the list has the collection's cardinality
      whatever the items look like.  An absent (NULL or MISSING) prefix
      gives ``[]``; a scalar or object prefix gives that value itself, not a
      list, so the caller can apply SQL++'s singleton-collection rule (the
      pushed-down UNNEST does).
    * Several ``"*"`` — *flattened*: every value the path reaches, in
      document order, with no entry for items where it does not resolve.
    """
    if WILDCARD in path:
        at = path.index(WILDCARD)
        suffix = path[at + 1:]
        if WILDCARD in suffix:
            reached = [value]
            for step in path:
                if step == WILDCARD:
                    reached = [item for each in reached
                               for item in collection_items(each) or ()]
                else:
                    found = (navigate(each, (step,)) for each in reached)
                    reached = [each for each in found if each is not MISSING]
            return reached
        collection = navigate(value, path[:at])
        items = collection_items(collection)
        if items is None:
            return [] if collection is None or collection is MISSING else collection
        return [navigate(item, suffix) for item in items] if suffix else items
    for step in path:
        if isinstance(step, str):
            if not isinstance(value, dict) or step not in value:
                return MISSING
            value = value[step]
        else:
            items = value.items if isinstance(value, AMultiset) else value
            if (not isinstance(items, (list, tuple)) or not isinstance(step, int)
                    or not 0 <= step < len(items)):
                return MISSING
            value = items[step]
    return value


#: Type ranks of :func:`sort_key`, in ascending order.
(RANK_BOOL, RANK_NUMBER, RANK_STRING, RANK_DATE, RANK_TIME, RANK_DATETIME,
 RANK_OTHER, RANK_ABSENT) = range(8)

#: The rank of each exact type that is its own sort value: one dict probe
#: for the common case; subclasses take :func:`sort_key`'s general path.
_RANK_OF_TYPE = {bool: RANK_BOOL, int: RANK_NUMBER, float: RANK_NUMBER, str: RANK_STRING}


def sort_key(value: Any) -> Tuple[int, Any]:
    """The one statement of value order: ``(type rank, value)``.

    Open schemas make mixed-type fields routine (an int in one record, a
    string in another), and raw comparisons across types raise
    ``TypeError``.  Ranking by type first, value within the type second,
    gives every pair of values a defined order: booleans, numbers, strings,
    dates, times and datetimes (each by its stored count, the order the
    evaluator compares them in), everything else by textual form, and
    NULL/MISSING **last** (``DESC`` reverses all of it, absent values
    included).  ORDER BY sorts by it; secondary indexes file their keys by
    it (:func:`index_key`).
    """
    rank = _RANK_OF_TYPE.get(type(value))
    if rank is not None:
        return (rank, value)
    if value is None or isinstance(value, Missing):
        return (RANK_ABSENT, 0)
    if isinstance(value, bool):
        return (RANK_BOOL, value)
    if isinstance(value, (int, float)):
        return (RANK_NUMBER, value)
    if isinstance(value, str):
        return (RANK_STRING, value)
    if isinstance(value, ADate):
        return (RANK_DATE, value.days_since_epoch)
    if isinstance(value, ATime):
        return (RANK_TIME, value.millis_since_midnight)
    if isinstance(value, ADateTime):
        return (RANK_DATETIME, value.millis_since_epoch)
    return (RANK_OTHER, str(value))


#: An index key's first byte is this plus its value's rank: above every
#: ``encode_key`` kind byte, so no primary key starts like an index key.
INDEX_KEY_BASE = 0x10
_NUMBER_BYTE = INDEX_KEY_BASE + RANK_NUMBER
_STRING_HEAD = bytes((INDEX_KEY_BASE + RANK_STRING,))
_SIGN, _ALL_BITS = 1 << 63, (1 << 64) - 1
_DOUBLE, _BITS = struct.Struct(">d"), struct.Struct(">Q")
#: A number, date, time or datetime key: rank byte, then 8 ordered bytes.
_FIXED_INDEX_KEY = struct.Struct(">BQ")
#: The ranks whose index key is :data:`FIXED_INDEX_KEY_SIZE` bytes long
#: (any other indexed value is a string, which ends at its terminator).
FIXED_INDEX_KEY_RANKS = (RANK_NUMBER, RANK_DATE, RANK_TIME, RANK_DATETIME)
FIXED_INDEX_KEY_SIZE = _FIXED_INDEX_KEY.size
#: Each UTF-8 byte plus one (UTF-8 never uses 0xFF).
_SHIFT_UP = bytes(range(1, 256)) + b"\xff"


def index_key(value: Any) -> Optional[bytes]:
    """The bytes a secondary index files ``value`` under (and a probe bound
    is encoded by), or None when no index holds it.

    Byte order is :func:`sort_key` order: a rank byte (:data:`INDEX_KEY_BASE`
    + rank), then a number's double, big-endian with the sign bit flipped
    (every bit of a negative one) and ``-0.0`` folded into ``0.0``; a
    string's UTF-8 bytes, each plus one, and a 0x00 terminator, so no
    length or escape is needed; a date's, time's or datetime's count plus
    2**63, big-endian.  Doubles are exact up to 2**53; a larger int rounds
    monotonically, so two numbers may share a key but never swap
    (:func:`index_key_range` widens its bounds there).  A secondary tree
    appends the primary key's ``encode_key`` bytes, whose kind byte sorts
    below the 0xFF a bound appends.

    Not indexed: absent (NULL/MISSING) and non-scalar values and NaN, which
    no range predicate is true of; values ranked "other" (points, binaries),
    whose textual order is not the evaluator's (their literals plan a scan);
    and what no record stores (a number no double holds, a string UTF-8
    cannot encode, a count outside int64).  A boolean is filed as its
    ``int``: the evaluator compares ``TRUE = 1``.
    """
    rank = _RANK_OF_TYPE.get(type(value))
    if rank is None:
        if value is None or isinstance(value, (dict, list, tuple, AMultiset)):
            return None
        rank, value = sort_key(value)
    try:
        if rank <= RANK_NUMBER:
            if value != value:
                return None
            (bits,) = _BITS.unpack(_DOUBLE.pack(float(value) + 0.0))
            return _FIXED_INDEX_KEY.pack(_NUMBER_BYTE, bits ^ (_ALL_BITS if bits & _SIGN else _SIGN))
        if rank == RANK_STRING:
            return _STRING_HEAD + value.encode().translate(_SHIFT_UP) + b"\x00"
        if rank < RANK_OTHER:
            return _FIXED_INDEX_KEY.pack(INDEX_KEY_BASE + rank, value + _SIGN)
    except (OverflowError, UnicodeEncodeError, struct.error):
        pass
    return None


def index_value_end(key: bytes, offset: int = 0) -> int:
    """Where the value of the index key at ``offset`` ends and its primary key starts."""
    if key[offset] == _STRING_HEAD[0]:
        return key.index(0, offset + 1) + 1
    return offset + FIXED_INDEX_KEY_SIZE


def index_key_number(key: bytes) -> float:
    """The double a number's :func:`index_key` holds."""
    (bits,) = _BITS.unpack_from(key, 1)
    return _DOUBLE.unpack(_BITS.pack(bits ^ (_SIGN if bits & _SIGN else _ALL_BITS)))[0]


def index_key_range(low: Any, high: Any, low_inclusive: bool = True,
                    high_inclusive: bool = True) -> Optional[Tuple[bytes, bytes]]:
    """A probe's bounds as one half-open interval ``[lo, hi)`` of index keys
    — bare, or with a primary key appended — or None when it holds none.

    A comparison across ranks is never true, so bounds of two ranks give
    None, a missing bound (or one no index holds) is its rank's edge, and
    no bound at all spans every key.  An exclusive bound of magnitude 2**53
    or more is applied inclusively: a larger int shares its key with a
    neighbouring double, so ``v > 2**53`` must still find ``2**53 + 1``.
    """
    low_key, high_key = index_key(low), index_key(high)
    if low_key is None:
        lo = high_key[:1] if high_key else b""
    else:
        lo = low_key if _widened(low_key, low_inclusive) else low_key + b"\xff"
    if high_key is None:
        hi = bytes((low_key[0] + 1,)) if low_key else b"\xff"
    else:
        hi = high_key + b"\xff" if _widened(high_key, high_inclusive) else high_key
    if low_key and high_key and low_key[0] != high_key[0] or lo >= hi:
        return None
    return lo, hi


def _widened(key: bytes, inclusive: bool) -> bool:
    return inclusive or key[0] == _NUMBER_BYTE and abs(index_key_number(key)) >= 2 ** 53


#: Kinds of a :data:`VALUE_ENCODERS` entry: a fixed-length scalar (the packer
#: returns its bytes), a string or binary (the packer returns its bytes, which
#: a length prefixes), an object, an array or multiset, and NULL or MISSING
#: (the tag alone).
KIND_FIXED, KIND_VAR, KIND_OBJECT, KIND_COLLECTION, KIND_EMPTY = range(5)

_I32 = struct.Struct("<i").pack
_I64 = struct.Struct("<q").pack
_POINT = struct.Struct("<dd").pack

#: How every Python value is written, ``exact type -> (tag, kind, packer)``:
#: the write-side mirror of :data:`SCALAR_DECODERS`.  The ADM and vector
#: encoders, schema inference and ``Datatype.validate`` all index it; a
#: subclass misses it and goes through :func:`encoder_of`.  Integers are
#: ``INT64`` (the paper's examples use one integer width for inferred fields;
#: narrower widths come only from declared closed datatypes).
VALUE_ENCODERS = {
    bool: (TypeTag.BOOLEAN, KIND_FIXED, struct.Struct("<?").pack),
    int: (TypeTag.INT64, KIND_FIXED, _I64),
    float: (TypeTag.DOUBLE, KIND_FIXED, struct.Struct("<d").pack),
    str: (TypeTag.STRING, KIND_VAR, str.encode),
    bytes: (TypeTag.BINARY, KIND_VAR, bytes),
    bytearray: (TypeTag.BINARY, KIND_VAR, bytes),
    type(None): (TypeTag.NULL, KIND_EMPTY, None),
    Missing: (TypeTag.MISSING, KIND_EMPTY, None),
    ADate: (TypeTag.DATE, KIND_FIXED, lambda value: _I32(value.days_since_epoch)),
    ATime: (TypeTag.TIME, KIND_FIXED, lambda value: _I32(value.millis_since_midnight)),
    ADateTime: (TypeTag.DATETIME, KIND_FIXED, lambda value: _I64(value.millis_since_epoch)),
    APoint: (TypeTag.POINT, KIND_FIXED, lambda value: _POINT(value.x, value.y)),
    _uuid.UUID: (TypeTag.UUID, KIND_FIXED, lambda value: value.bytes),
    dict: (TypeTag.OBJECT, KIND_OBJECT, None),
    list: (TypeTag.ARRAY, KIND_COLLECTION, None),
    tuple: (TypeTag.ARRAY, KIND_COLLECTION, None),
    AMultiset: (TypeTag.MULTISET, KIND_COLLECTION, None),
}

# The fallback's order: ``bool`` before ``int`` (bool subclasses int),
# ``AMultiset`` before the sequences.
_SUBCLASS_ORDER = (Missing, bool, int, float, str, bytes, bytearray, ADate, ATime, ADateTime,
                   APoint, _uuid.UUID, dict, AMultiset, list, tuple)


def encoder_of(value: Any) -> Tuple[TypeTag, int, Any]:
    """The :data:`VALUE_ENCODERS` entry of a value, subclasses included."""
    entry = VALUE_ENCODERS.get(type(value))
    if entry is not None:
        return entry
    for base in _SUBCLASS_ORDER:
        if isinstance(value, base):
            return VALUE_ENCODERS[base]
    raise TypeError_(f"value of Python type {type(value).__name__!r} has no ADM mapping: {value!r}")


def type_tag_of(value: Any) -> TypeTag:
    """Return the :class:`TypeTag` describing a Python value."""
    return encoder_of(value)[0]


def unencodable(record: Any, error: Exception) -> EncodingError:
    """The error for a record whose walk raised ``struct.error`` or
    ``UnicodeEncodeError``.

    An encoder catches both once around its whole walk, so naming the value
    costs nothing until one fails: a string that is not UTF-8 encodable names
    itself; for a pack failure this re-walks the record and packs each
    fixed-length scalar alone to find the first that does not fit its width
    (an integer outside the int64 range, a date outside int32, ...).
    """
    if isinstance(error, UnicodeEncodeError):
        return EncodingError(f"cannot encode {error.object[:64]!r} as UTF-8: {error.reason}")
    pending = [record]
    while pending:
        value = pending.pop()
        tag, kind, pack = encoder_of(value)
        if kind == KIND_FIXED:
            try:
                pack(value)
            except struct.error as exc:
                return EncodingError(f"cannot encode {value!r} as {tag.name}: {exc}")
        elif kind == KIND_OBJECT:
            pending.extend(reversed(list(value.values())))
        elif kind == KIND_COLLECTION:
            pending.extend(reversed(list(value)))
    return EncodingError(f"cannot encode record: {error}")


def _fixed(fmt: str, wrap: Any = None) -> Tuple[int, Any, Any]:
    layout = struct.Struct(fmt)
    return layout.size, layout.unpack_from, wrap


#: Width class of a string or binary in :data:`SCALAR_DECODERS`.
VARLEN = -1

#: How every scalar tag is read back, ``tag -> (width, read, wrap)``; keyed by
#: ``TypeTag``, so the raw tag byte finds its entry too.  ``width > 0`` is a
#: fixed-length value: ``read`` is a bound ``Struct.unpack_from`` and the value
#: is its one field, or ``wrap(*fields)``.  Width 0 is NULL or MISSING: the
#: value is ``wrap`` itself.  ``VARLEN``: ``read(value bytes)``.  The ADM and
#: vector decoders index this table instead of comparing tags one by one.
SCALAR_DECODERS = {
    TypeTag.MISSING: (0, None, MISSING),
    TypeTag.NULL: (0, None, None),
    TypeTag.BOOLEAN: _fixed("<?"),
    TypeTag.INT8: _fixed("<b"),
    TypeTag.INT16: _fixed("<h"),
    TypeTag.INT32: _fixed("<i"),
    TypeTag.INT64: _fixed("<q"),
    TypeTag.FLOAT: _fixed("<f"),
    TypeTag.DOUBLE: _fixed("<d"),
    TypeTag.DATE: _fixed("<i", ADate),
    TypeTag.TIME: _fixed("<i", ATime),
    TypeTag.DATETIME: _fixed("<q", ADateTime),
    TypeTag.POINT: _fixed("<dd", APoint),
    TypeTag.UUID: _fixed("<16s", lambda raw: _uuid.UUID(bytes=raw)),
    TypeTag.STRING: (VARLEN, bytes.decode, None),
    TypeTag.BINARY: (VARLEN, bytes, None),
}


def deep_copy(value: Any) -> Any:
    """A copy of ``value`` that shares nothing mutable with it: dicts,
    lists, tuples and multisets are rebuilt all the way down, every other
    value is shared."""
    kind = type(value)
    if kind is dict:
        return {key: deep_copy(item) for key, item in value.items()}
    if kind is list:
        return [deep_copy(item) for item in value]
    if kind is tuple:
        return tuple(deep_copy(item) for item in value)
    if kind is AMultiset:
        return AMultiset([deep_copy(item) for item in value.items])
    return value


def deep_equals(left: Any, right: Any) -> bool:
    """Structural equality that treats multisets as unordered collections."""
    if isinstance(left, AMultiset) and isinstance(right, AMultiset):
        if len(left) != len(right):
            return False
        remaining = list(right.items)
        for item in left.items:
            for index, candidate in enumerate(remaining):
                if deep_equals(item, candidate):
                    del remaining[index]
                    break
            else:
                return False
        return True
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return False
        return all(deep_equals(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(deep_equals(a, b) for a, b in zip(left, right))
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right or left == right
    return left == right
