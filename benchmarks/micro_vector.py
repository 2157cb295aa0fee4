"""Per-record cost of the vector layer's hot loops (ROADMAP item 1b).

A plain script, not a pytest module: it localises a regression in one loop
without a 30 s perfbench run.

    PYTHONPATH=src python benchmarks/micro_vector.py [records] [rounds]

Prints µs per record — the median over the rounds of (CPU time of one pass
over all records) / records — for the vector and ADM encoders, the
flush-time infer+compact walked for every record (the schema's plan table
emptied before each one) and planned (one fresh schema per pass, so a
record layout met before replays its plan), anti-schema remove
(``InferredSchema.remove`` of each compacted payload), ``materialize``,
``structure``, a 4-path
``BatchExtractor.extract`` and the twitter Q3 paths (``user.name``,
``entities.hashtags[*].text``) extracted at first sight (empty plan tables
before every record, so every record is walked), through a fresh table (one
fresh extractor each round: a record is walked only when no earlier walk
read the prefix it starts with) and once seen (every plan kept) over
generated tweets, for ADM ``materialize`` and
one ``get_field`` per path of the same four over the ADM payloads of the
same tweets, and ``WriteAheadLog.append`` of each tweet's vector payload
under its int key (one fresh log per round, device and registry attached).

The rounds run round-robin: each round times every loop once, so a burst
of load from elsewhere on the box falls on both sides of a gate alike
rather than on the rows that happened to run during it.

Nine gates, run by CI at ``500 5``; each compares two numbers from this
process, so the box's speed cancels, and the exit status is 1 when any
fails:

* reading four fields must cost less than rebuilding the record ("extract,
  4 paths" below "materialize", ROADMAP item 1);
* building a vector-based record must cost under 0.7x building its ADM
  record ("vector encode" below 0.7 x "adm encode") — the paper's
  construction advantage for the vector format (§3.3.1), ROADMAP item 2(a);
* rebuilding an ADM record must cost under 3.5x rebuilding its vector-based
  record ("adm materialize" below 3.5 x "materialize"), so the open-vs-
  inferred query comparison (Fig. 18-22) measures the formats rather than
  an interpreted walk — ROADMAP item 2(d);
* decrementing the schema by a stored record must cost under 1.5x
  inferring it ("anti-schema remove" below 1.5 x "infer + compact"): the
  delete side of §3.2.2 is one walk of the tag and field-id vectors like
  the insert side, not a skeleton dict walked by name (about 2.8x) —
  ROADMAP item 8.  Both sides are walks: "infer + compact" empties the
  plan table before every record;
* folding the tweets into a fresh schema must cost under 0.75x walking
  every one ("infer + compact, planned" below 0.75 x "infer + compact"): a
  layout the schema has walked replays its plan — the counters its walk
  incremented and the ids it wrote — so 500 tweets of 169 layouts walk 175
  (0.40-0.52 over ten runs at ``500 5`` on a 2-core box, once 0.79 beside
  another busy process; about 1.0 with no plan kept);
* reading the Q3 paths from records whose layouts have plans must cost
  under 0.6x reading them at first sight ("extract, seen" below 0.6 x
  "extract, first sight"): a kept plan reads its values by offset instead of
  walking the tags (about 1.0 with no plans kept);
* reading them through a fresh table must cost under 0.33x reading them at
  first sight ("extract, fresh table" below 0.33 x "extract, first sight"):
  records that share the prefix a walk read share its plan, so 500 tweets
  of 169 layouts compile 16 plans (0.17-0.21 at ``500 5`` with plans
  keyed by that prefix, 0.45-0.49 with one plan per whole record layout);
* logging a tweet must cost under 0.2x encoding it ("wal append" below 0.2
  x "vector encode"): a record's CRC starts from a seed kept per (type,
  dataset, partition), its size is computed once, and its bytes are
  counted once per number, in the log's totals and the device's cell,
  which the registry counters read (0.15-0.16 at ``500 5`` on a 2-core
  box; 0.33-0.35 with a CRC rebuilt from strings and four locked counter
  increments per record);
* reading the four paths from an ADM record must cost under 0.5x building
  it ("adm get_field, 4 paths" below 0.5 x "adm encode", the encoder being
  a walk of the same tweets in the same format): each path is resolved
  once into a kept form and an open field is found by one byte search
  checked against the offset table (0.31-0.44 over ten runs at ``500 5``
  on a 2-core box; 0.54-0.73 when every call re-derives the path and
  compares names entry by entry).  "adm materialize" has no gate of its
  own beyond 3.5x vector: its flat walk reads 0.73-0.81x "adm encode", and
  the walk with a ``_value`` call per scalar 0.84-1.14x, too close for a
  same-run bound.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.adm import ADMEncoder, ADMRecordView
from repro.datasets import twitter
from repro.obs import MetricsRegistry
from repro.schema import InferredSchema
from repro.storage import LogRecordType, SimulatedStorageDevice, WriteAheadLog
from repro.types import open_only_primary_key
from repro.vector import BatchExtractor, VectorEncoder, VectorRecordView, infer_and_compact

PATHS = (("user", "name"), ("text",), ("entities", "hashtags", "*", "text"), ("timestamp_ms",))
Q3_PATHS = (("user", "name"), ("entities", "hashtags", "*", "text"))


def _us_per_record(loops: Sequence[Tuple[str, Callable[[], object]]], records: int,
                   rounds: int) -> Dict[str, float]:
    """Each loop's median µs per record, every round timing every loop once."""
    samples: Dict[str, List[float]] = {name: [] for name, _ in loops}
    for _ in range(rounds):
        for name, passes in loops:
            started = time.process_time()
            passes()
            samples[name].append((time.process_time() - started) / records)
    return {name: 1e6 * statistics.median(times) for name, times in samples.items()}


def main(records: int = 2000, rounds: int = 7) -> int:
    datatype = open_only_primary_key("TweetType")
    tweets = list(twitter.generate(records))
    encoder = VectorEncoder(datatype)
    adm_encoder = ADMEncoder(datatype)
    payloads = [encoder.encode(tweet) for tweet in tweets]
    schema = InferredSchema(datatype)
    compacted = [infer_and_compact(payload, schema) for payload in payloads]
    views = [VectorRecordView(payload, datatype, schema.dictionary) for payload in compacted]
    adm_views = [ADMRecordView(adm_encoder.encode(tweet), datatype) for tweet in tweets]
    extractor = BatchExtractor(PATHS)
    seen = BatchExtractor(Q3_PATHS)
    for view in views:
        seen.extract(view)

    def infer_and_compact_all() -> None:
        fresh = InferredSchema(datatype)
        for payload in payloads:
            fresh.plans.clear()
            infer_and_compact(payload, fresh)

    def infer_and_compact_planned() -> None:
        fresh = InferredSchema(datatype)
        for payload in payloads:
            infer_and_compact(payload, fresh)

    def extract_at_first_sight() -> None:
        fresh = BatchExtractor(Q3_PATHS)
        for view in views:
            fresh.plans, fresh.shapes, fresh.layouts = {}, (), {}
            fresh.extract(view)

    def extract_through_a_fresh_table() -> None:
        fresh = BatchExtractor(Q3_PATHS)
        for view in views:
            fresh.extract(view)

    def append_all() -> None:
        registry = MetricsRegistry()
        wal = WriteAheadLog(SimulatedStorageDevice(metrics=registry), registry)
        for tweet, payload in zip(tweets, payloads):
            wal.append(LogRecordType.INSERT, "tweets", 0, key=tweet["id"], payload=payload)

    def remove_all() -> None:
        counted = schema.snapshot()
        for payload in compacted:
            counted.remove(payload)

    loops = [
        ("vector encode", lambda: [encoder.encode(tweet) for tweet in tweets]),
        ("adm encode", lambda: [adm_encoder.encode(tweet) for tweet in tweets]),
        ("infer + compact", infer_and_compact_all),
        ("infer + compact, planned", infer_and_compact_planned),
        ("anti-schema remove", remove_all),
        ("wal append", append_all),
        ("materialize", lambda: [view.materialize() for view in views]),
        ("structure", lambda: [view.structure() for view in views]),
        ("extract, 4 paths", lambda: [extractor.extract(view) for view in views]),
        ("extract, first sight", extract_at_first_sight),
        ("extract, fresh table", extract_through_a_fresh_table),
        ("extract, seen", lambda: [seen.extract(view) for view in views]),
        ("adm materialize", lambda: [view.materialize() for view in adm_views]),
        ("adm get_field, 4 paths",
         lambda: [[view.get_field(*path) for path in PATHS] for view in adm_views]),
    ]
    print(f"{records} tweets, median of {rounds} rounds, CPU µs per record")
    cost = _us_per_record(loops, records, rounds)
    for name, _ in loops:
        print(f"  {name:<26}{cost[name]:8.1f}")
    extract = cost["extract, 4 paths"] / cost["materialize"]
    print(f"  extract / materialize    = {extract:.2f} (gate: < 1)")
    encode = cost["vector encode"] / cost["adm encode"]
    print(f"  vector / adm encode      = {encode:.2f} (gate: < 0.7)")
    adm = cost["adm materialize"] / cost["materialize"]
    print(f"  adm / vector materialize = {adm:.2f} (gate: < 3.5)")
    remove = cost["anti-schema remove"] / cost["infer + compact"]
    print(f"  remove / infer + compact = {remove:.2f} (gate: < 1.5)")
    planned = cost["infer + compact, planned"] / cost["infer + compact"]
    print(f"  planned / walked infer   = {planned:.2f} (gate: < 0.75)")
    plans = cost["extract, seen"] / cost["extract, first sight"]
    print(f"  seen / first sight       = {plans:.2f} (gate: < 0.6)")
    shared = cost["extract, fresh table"] / cost["extract, first sight"]
    print(f"  fresh / first sight      = {shared:.2f} (gate: < 0.33)")
    logged = cost["wal append"] / cost["vector encode"]
    print(f"  wal append / encode      = {logged:.2f} (gate: < 0.2)")
    adm_paths = cost["adm get_field, 4 paths"] / cost["adm encode"]
    print(f"  adm get_field / encode   = {adm_paths:.2f} (gate: < 0.5)")
    return 0 if (extract < 1 and encode < 0.7 and adm < 3.5 and remove < 1.5 and planned < 0.75
                 and plans < 0.6 and shared < 0.33 and logged < 0.2 and adm_paths < 0.5) else 1


if __name__ == "__main__":
    sys.exit(main(*(int(argument) for argument in sys.argv[1:3])))
