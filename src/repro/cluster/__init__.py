"""Data feeds: continuous ingestion into a dataset (paper §4.3)."""

from .feed import DataFeed, FeedReport

__all__ = ["DataFeed", "FeedReport"]
