"""Per-record cost of the vector layer's hot loops (ROADMAP item 1b).

A plain script, not a pytest module and not gated: it localises a regression
in one loop without a 30 s perfbench run.

    PYTHONPATH=src python benchmarks/micro_vector.py [records] [rounds]

Prints µs per record — the median over the rounds of (CPU time of one pass
over all records) / records — for encode, the flush-time infer+compact,
``materialize``, ``structure`` and a 4-path ``BatchExtractor.extract`` over
generated tweets.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, List

from repro.datasets import twitter
from repro.schema import InferredSchema
from repro.types import open_only_primary_key
from repro.vector import BatchExtractor, VectorEncoder, VectorRecordView, infer_and_compact

PATHS = (("user", "name"), ("text",), ("entities", "hashtags", "*", "text"), ("timestamp_ms",))


def _us_per_record(passes: Callable[[], object], records: int, rounds: int) -> float:
    samples: List[float] = []
    for _ in range(rounds):
        started = time.process_time()
        passes()
        samples.append((time.process_time() - started) / records)
    return 1e6 * statistics.median(samples)


def main(records: int = 2000, rounds: int = 7) -> None:
    datatype = open_only_primary_key("TweetType")
    tweets = list(twitter.generate(records))
    encoder = VectorEncoder(datatype)
    payloads = [encoder.encode(tweet) for tweet in tweets]
    schema = InferredSchema(datatype)
    compacted = [infer_and_compact(payload, schema) for payload in payloads]
    views = [VectorRecordView(payload, datatype, schema.dictionary) for payload in compacted]
    extractor = BatchExtractor(PATHS)

    def infer_and_compact_all() -> None:
        fresh = InferredSchema(datatype)
        for payload in payloads:
            infer_and_compact(payload, fresh)

    loops = [
        ("vector encode", lambda: [encoder.encode(tweet) for tweet in tweets]),
        ("infer + compact", infer_and_compact_all),
        ("materialize", lambda: [view.materialize() for view in views]),
        ("structure", lambda: [view.structure() for view in views]),
        ("extract, 4 paths", lambda: [extractor.extract(view) for view in views]),
    ]
    print(f"{records} tweets, median of {rounds} rounds, CPU µs per record")
    for name, passes in loops:
        print(f"  {name:<18}{_us_per_record(passes, records, rounds):8.1f}")


if __name__ == "__main__":
    main(*(int(argument) for argument in sys.argv[1:3]))
