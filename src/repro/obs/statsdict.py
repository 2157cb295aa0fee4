"""Common ``to_dict()`` protocol for the engine's stats dataclasses.

Every subsystem reports through a small dataclass (``IOStats``,
``CacheStats``, ``IngestStats``, ``ExecutionStats``, ``FeedReport``, ...),
and before this mixin each benchmark hand-rolled its own dict conversion
for ``extra_info`` JSON export.  :class:`StatsDictMixin` gives them all one
recursive, JSON-serializable ``to_dict()``:

* every dataclass field is included, except names listed in ``_EXCLUDE``
  (e.g. a report's embedded ``QueryResult`` — rows do not belong in a
  metrics export);
* property names listed in ``_DERIVED`` are evaluated and included too, so
  derived ratios (``hit_ratio``, ``write_amplification``,
  ``measured_speedup``) travel with the raw counters they come from;
* nested values convert recursively: anything with a ``to_dict`` uses it,
  sequences map over their items, dict keys are stringified, enums export
  their ``value``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, ClassVar, Dict, Tuple


def convert_value(value: Any) -> Any:
    """Best-effort conversion of one value into JSON-serializable data."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): convert_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [convert_value(item) for item in value]
    return value


class StatsDictMixin:
    """Uniform ``to_dict()`` for stats/report dataclasses."""

    #: Property names to evaluate and include alongside the fields.
    _DERIVED: ClassVar[Tuple[str, ...]] = ()
    #: Field names to leave out of the export.
    _EXCLUDE: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            if spec.name in self._EXCLUDE:
                continue
            out[spec.name] = convert_value(getattr(self, spec.name))
        for name in self._DERIVED:
            out[name] = convert_value(getattr(self, name))
        return out

    def diff(self, earlier: "StatsDictMixin") -> "StatsDictMixin":
        """Field-wise ``self - earlier`` for an all-numeric stats dataclass:
        what accumulated since an earlier snapshot of the same counters."""
        return type(self)(**{spec.name: getattr(self, spec.name) - getattr(earlier, spec.name)
                             for spec in dataclasses.fields(self)})
