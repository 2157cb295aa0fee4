"""LSM merge policies.

AsterixDB's default is the *prefix* merge policy (paper §4.3): it merges the
suffix of most-recent small components once their count crosses a threshold,
and never touches components that have already grown past the maximum
mergeable size.  A no-merge policy is provided for experiments that want to
isolate flush behaviour from merge behaviour.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ReproError
from .component import OnDiskComponent

#: Prefix policy: maximum size (bytes) of a component eligible for merging.
MAX_MERGABLE_COMPONENT_SIZE = 1024 * 1024 * 1024


class MergePolicy:
    """Decides which on-disk components (newest-first list) to merge."""

    name = "abstract"

    def select_merge(self, components: Sequence[OnDiskComponent]) -> List[OnDiskComponent]:
        """Return the components to merge (possibly empty), newest first.

        The returned components must be contiguous in recency order so their
        component ids remain mergeable.
        """
        raise NotImplementedError


class NoMergePolicy(MergePolicy):
    """Never merge; used by experiments that want pure flush behaviour."""

    name = "none"

    def select_merge(self, components: Sequence[OnDiskComponent]) -> List[OnDiskComponent]:
        return []


class PrefixMergePolicy(MergePolicy):
    """AsterixDB's prefix merge policy.

    Looking from the most recent component backwards, collect components whose
    individual size is below ``max_mergable_component_size`` and whose running
    total stays below it as well; once that suffix holds at least
    ``max_tolerable_component_count`` components, merge it.  Components larger
    than the threshold are left alone (they are the already-merged "prefix" of
    the sequence).
    """

    name = "prefix"

    def __init__(self, max_mergable_component_size: int = MAX_MERGABLE_COMPONENT_SIZE,
                 max_tolerable_component_count: int = 5) -> None:
        if max_tolerable_component_count < 2:
            raise ReproError("prefix merge policy needs a component count of at least 2")
        self.max_mergable_component_size = max_mergable_component_size
        self.max_tolerable_component_count = max_tolerable_component_count

    def select_merge(self, components: Sequence[OnDiskComponent]) -> List[OnDiskComponent]:
        mergeable: List[OnDiskComponent] = []
        total_size = 0
        for component in components:  # newest first
            size = component.size_bytes()
            if size > self.max_mergable_component_size:
                break
            if total_size + size > self.max_mergable_component_size:
                break
            mergeable.append(component)
            total_size += size
        if len(mergeable) >= self.max_tolerable_component_count:
            return mergeable
        return []


def make_merge_policy(name: str, max_tolerable_component_count: int) -> MergePolicy:
    """Build a merge policy from an :class:`~repro.config.LSMConfig` pair."""
    if name == "prefix":
        return PrefixMergePolicy(
            max_tolerable_component_count=max_tolerable_component_count)
    if name == "none":
        return NoMergePolicy()
    raise ReproError(f"unknown merge policy {name!r}")
