"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while the
more specific subclasses keep failure modes distinguishable in tests and in
production logging.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TypeError_(ReproError):
    """A value does not match the type expected by the data model.

    Named with a trailing underscore to avoid shadowing the built-in
    ``TypeError`` while still reading naturally at call sites
    (``raise TypeError_(...)``).
    """


class EncodingError(ReproError):
    """A record could not be encoded into a physical format."""


class DecodingError(ReproError):
    """A byte payload could not be decoded back into a record."""


class SchemaError(ReproError):
    """Schema inference or maintenance hit an inconsistent state."""


class SchemaViolationError(SchemaError):
    """A record violates a *declared* (closed) datatype.

    Raised, for instance, when a closed datatype declares ``age: int`` and an
    incoming record carries ``age`` as a string, or omits a non-optional
    declared field.
    """


class StorageError(ReproError):
    """Low-level storage failure (pages, files, buffer cache)."""


class PageNotFoundError(StorageError):
    """A page id was requested that does not exist in the file."""


class TransientIOError(StorageError):
    """An I/O operation failed in a way that is expected to succeed on retry.

    The class real devices surface as EAGAIN/EINTR-style hiccups and cloud
    block stores surface as throttling.  The maintenance scheduler retries
    these with exponential backoff inside the failing task (see
    ``LSMIOScheduler``); everything else treats them like any
    :class:`StorageError`.
    """


class RecordTooLargeError(StorageError):
    """A record cannot fit in one B+-tree leaf page of the configured size.

    Raised by the LSM write path before the record is logged or buffered:
    accepted, it could never be flushed, and its partition could never
    persist another write.
    """


class PermanentIOError(StorageError):
    """An I/O operation failed in a way retrying cannot fix (ENOSPC, EIO)."""


class CorruptPageError(StorageError):
    """A page or log record failed its CRC32 integrity check.

    Raised by the file manager when a component page's stored checksum does
    not match the bytes read back, and by the WAL for records whose payload
    checksum mismatches outside recovery (during recovery the torn tail is
    truncated instead).  LSM read paths catch it to quarantine the corrupt
    component.
    """


class QuarantinedComponentError(StorageError):
    """A query needed data from a component that is quarantined as corrupt.

    With no replica to route to, failing with a typed error is the only
    correct answer — silently skipping the component would return wrong
    rows.  Carries the component's file name in ``component_name``.
    """

    def __init__(self, message: str, component_name: "str | None" = None) -> None:
        super().__init__(message)
        self.component_name = component_name


class FaultSpecError(StorageError):
    """A ``REPRO_FAULTS`` fault-injection spec string could not be parsed."""


class ComponentStateError(ReproError):
    """An LSM component was used in a state that does not permit the call.

    Examples: reading from an INVALID component, flushing an already-flushed
    in-memory component, or merging components that are not adjacent.
    """


class SchedulerError(ReproError):
    """The background LSM maintenance scheduler failed or was misused.

    Wraps the first exception raised by a background flush/merge worker so
    the writer thread (or a ``drain()``/``close()`` call) surfaces it instead
    of hanging; also raised when work is submitted to a closed scheduler.
    """


class DatasetError(ReproError):
    """Dataset-level misuse (unknown dataset, duplicate creation, ...)."""


class DuplicateKeyError(DatasetError):
    """An insert supplied a primary key that already exists."""


class KeyNotFoundError(DatasetError):
    """A delete/update referenced a primary key that does not exist."""


class QueryError(ReproError):
    """A query plan could not be built or executed."""


class QueryDeadlineError(QueryError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Raised by the executor when its ``deadline`` elapses before the query
    completes; partition workers observe the shared cancellation flag at
    row/batch boundaries, so the abort is prompt but never tears a
    partially-consumed iterator.
    """


class SqlppError(QueryError):
    """A SQL++ query string could not be lexed, parsed, or bound.

    Carries the 1-based ``line`` and ``column`` of the offending position and,
    when available, the ``token`` text found there, so callers (and tests) can
    point at the exact spot in the query string.
    """

    def __init__(self, message: str, line: int, column: int,
                 token: "str | None" = None) -> None:
        location = f"line {line}, column {column}"
        if token:
            detail = f"{location}: {message} (at {token!r})"
        else:
            detail = f"{location}: {message}"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.column = column
        self.token = token


class FeedError(ReproError):
    """A data feed was misconfigured or used after being closed."""


class ClusterError(ReproError):
    """Cluster-level misconfiguration (bad partition counts, node ids...)."""
