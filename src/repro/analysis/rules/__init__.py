"""Pluggable lint rules for ``python -m repro.analysis``.

Each rule lives in a themed module and is registered here;
:func:`default_rules` builds the fresh instances one analysis run uses
(rules are stateful across ``check_module`` calls, so instances are never
shared between runs).
"""

from __future__ import annotations

from typing import List

from ..lint import Rule
from .fault_rules import FaultPointRule
from .knob_rules import KnobAccessorRule
from .lock_rules import BlockingUnderLockRule, GuardedByRule, LockHierarchyRule
from .obs_rules import MetricNameRule

__all__ = [
    "BlockingUnderLockRule",
    "LockHierarchyRule",
    "GuardedByRule",
    "KnobAccessorRule",
    "FaultPointRule",
    "MetricNameRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """The shipped rule set, in report order."""
    return [
        BlockingUnderLockRule(),
        LockHierarchyRule(),
        GuardedByRule(),
        KnobAccessorRule(),
        FaultPointRule(),
        MetricNameRule(),
    ]
