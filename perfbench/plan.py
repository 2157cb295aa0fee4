"""Seeded inputs and the plain-Python oracle.

``build_plan`` turns ``(workload, seed)`` into everything a repetition needs:
the records to ingest, the exact operation sequence of every round, and — from
a plain ``dict`` model replayed alongside — the answer every operation must
give.  The engine never sees the seed, only the generated inputs, and the same
seed always gives the same plan.  All of this runs in set-up, so checking an
answer during a run is a comparison, never a recomputation inside a timed
region.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.datasets import sensors, twitter

from .workloads import Workload

Record = Dict[str, Any]

#: Fraction of writes that are upserts / new inserts (the rest are deletes).
UPSERT_SHARE, INSERT_SHARE = 0.6, 0.3
ZIPF_EXPONENT = 0.99
ABSENT_GET_SHARE = 0.05
#: A probe selects ``timestamp_ms`` in [low, low + PROBE_SPAN]: 3 of a few
#: thousand records, about 0.1 %.
PROBE_SPAN = 2
RECOVERY_WRITES = 40
RECOVERY_SAMPLE = 300
_FLOAT_TOLERANCE = 1e-9


def user_bytes(record: Record) -> int:
    """Size of a record as the user holds it: compact JSON, UTF-8."""
    return len(json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode("utf-8"))


def probe_text(low: int, high: int) -> str:
    return (f"SELECT VALUE t.id FROM Tweets AS t "
            f"WHERE t.timestamp_ms >= {low} AND t.timestamp_ms <= {high}")


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------

@dataclass
class TopK:
    """Expected answer of a GROUP BY … ORDER BY value DESC LIMIT k statement.

    Ties in the ordering value make the k-th group ambiguous, so an answer is
    right when its values are the k largest and each named group really has
    the value the row claims.
    """

    key_field: str
    value_field: str
    groups: Dict[Any, float]
    limit: int = 10

    def matches(self, rows: Sequence[Dict[str, Any]]) -> bool:
        wanted = sorted(self.groups.values(), reverse=True)[:self.limit]
        if len(rows) != len(wanted):
            return False
        for row, value in zip(rows, wanted):
            got = row.get(self.value_field)
            own = self.groups.get(row.get(self.key_field))
            if got is None or own is None:
                return False
            if not (_close(got, value) and _close(got, own)):
                return False
        return True


@dataclass
class Exact:
    """Expected rows, compared with ``==``."""

    rows: List[Any]

    def matches(self, rows: Sequence[Any]) -> bool:
        return list(rows) == self.rows


def _close(left: float, right: float) -> bool:
    return abs(left - right) <= _FLOAT_TOLERANCE * max(1.0, abs(left), abs(right))


def average_length_by_user(model: Dict[int, Record]) -> TopK:
    """Appendix A.1 Q2 over the live records."""
    lengths: Dict[str, List[int]] = {}
    for record in model.values():
        lengths.setdefault(record["user"]["name"], []).append(len(record["text"]))
    return TopK("uname", "a", {name: sum(values) / len(values)
                               for name, values in lengths.items()})


def tweet_answers(model: Dict[int, Record]) -> Dict[str, Any]:
    """Appendix A.1 Q1–Q4 recomputed over the live records."""
    jobs: Dict[str, int] = {}
    for record in model.values():
        if any(tag["text"].lower() == "jobs" for tag in record["entities"]["hashtags"]):
            name = record["user"]["name"]
            jobs[name] = jobs.get(name, 0) + 1
    ordered = sorted(model.values(), key=lambda record: record["timestamp_ms"])
    return {
        "Q1": Exact([{"count": len(model)}]),
        "Q2": average_length_by_user(model),
        "Q3": TopK("uname", "c", jobs),
        "Q4": Exact([{"record": record} for record in ordered]),
    }


def sensor_answers(records: Sequence[Record]) -> Dict[str, Any]:
    """Appendix A.3 Q1–Q4 recomputed over the generated sensor reports."""
    temps = [reading["temp"] for record in records for reading in record["readings"]]
    low = sensors.REPORT_TIME_BASE - 1
    high = low + 2 * sensors.REPORT_INTERVAL_MS

    def averages(rows: Sequence[Record]) -> Dict[int, float]:
        grouped: Dict[int, List[float]] = {}
        for record in rows:
            grouped.setdefault(record["sensor_id"], []).extend(
                reading["temp"] for reading in record["readings"])
        return {sensor: sum(values) / len(values) for sensor, values in grouped.items()}

    return {
        "Q1": Exact([{"count": len(temps)}]),
        "Q2": Exact([{"max_temp": max(temps), "min_temp": min(temps)}]),
        "Q3": TopK("sid", "avg_temp", averages(records)),
        "Q4": TopK("sid", "avg_temp", averages(
            [record for record in records if low < record["report_time"] < high])),
    }


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """One round's operations with the answer each must give."""

    #: ("upsert" | "insert", record) or ("delete", key), in order.
    writes: List[Tuple[str, Any]] = field(default_factory=list)
    after_write: Optional[TopK] = None
    get_keys: List[int] = field(default_factory=list)
    get_expected: List[Optional[Record]] = field(default_factory=list)
    probes: List[Tuple[int, int]] = field(default_factory=list)
    probe_expected: List[Set[int]] = field(default_factory=list)


@dataclass
class Plan:
    workload: Workload
    seed: int
    records: List[Record]
    sensor_records: List[Record]
    rounds: List[Round]
    #: Answers of the scan statements, which run right after the ingest:
    #: ``"tw"`` (both tweet tables must give it) and ``"se"``.
    answers: Dict[str, Dict[str, Any]]
    #: Records alive after the last round.
    live_count: int
    #: Compact-JSON bytes of the ingested records.
    ingested_user_bytes: int
    #: Compact-JSON bytes handed to the engine (ingest + every written record).
    submitted_user_bytes: int
    #: Compact-JSON bytes of the records alive after the last round.
    live_user_bytes: int
    #: Unflushed writes made just before the simulated crash, and what a
    #: sample of keys must read as after recovery.
    recovery_writes: List[Tuple[str, Any]] = field(default_factory=list)
    recovery_count: int = 0
    recovery_keys: List[int] = field(default_factory=list)
    recovery_expected: List[Optional[Record]] = field(default_factory=list)


def _zipf_sampler(keys: Sequence[int], traffic: random.Random) -> Callable[[], int]:
    """Zipf(0.99) over a permutation of ``keys`` (hot keys scattered)."""
    ranked = list(keys)
    traffic.shuffle(ranked)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** ZIPF_EXPONENT
        cumulative.append(total)

    def draw() -> int:
        return ranked[bisect.bisect_left(cumulative, traffic.random() * total)]

    return draw


def _apply(model: Dict[int, Record], live: List[int], position: Dict[int, int],
           operation: Tuple[str, Any]) -> None:
    kind, argument = operation
    if kind == "delete":
        del model[argument]
        # O(1) removal from the sampling list: swap with the last key.
        index = position.pop(argument)
        last = live.pop()
        if last != argument:
            live[index] = last
            position[last] = index
        return
    key = argument["id"]
    if key not in model:
        position[key] = len(live)
        live.append(key)
    model[key] = argument


def _writes(count: int, model: Dict[int, Record], live: List[int],
            position: Dict[int, int], fresh: List[Record],
            traffic: random.Random, rng: random.Random) -> List[Tuple[str, Any]]:
    operations: List[Tuple[str, Any]] = []
    for _ in range(count):
        draw = traffic.random()
        if draw < UPSERT_SHARE:
            operation = ("upsert", twitter.generate_update(model[traffic.choice(live)], rng))
        elif draw < UPSERT_SHARE + INSERT_SHARE:
            operation = ("insert", fresh.pop())
        else:
            operation = ("delete", traffic.choice(live))
        _apply(model, live, position, operation)
        operations.append(operation)
    return operations


def build_plan(workload: Workload, seed: int) -> Plan:
    # The seed decides what the records hold and how an upsert changes one.
    # The traffic — which operation comes next, on which key, which keys are
    # hot, which ranges are probed — is the workload's, the same for every
    # seed: the hottest key alone draws an eighth of the gets, and whether a
    # seed's writes happened to leave it in the memtable moved ``get_ms`` by
    # 8 % between seeds, the binomial upsert/insert split ``update_ops_per_s``
    # by 5 %.
    rng = random.Random(seed)
    traffic = random.Random(workload.tweets)
    records = list(twitter.generate(workload.tweets, seed=seed))
    sensor_records = list(sensors.generate(workload.sensors, seed=seed + 1))
    total_writes = workload.rounds * workload.writes_per_round + RECOVERY_WRITES
    fresh = list(twitter.generate(total_writes, seed=seed + 2, start_id=workload.tweets))
    fresh.reverse()  # popped from the end, so ids still arrive ascending

    model: Dict[int, Record] = {record["id"]: record for record in records}
    live = list(model)
    position = {key: index for index, key in enumerate(live)}
    ingested = submitted = sum(user_bytes(record) for record in records)
    answers = {"tw": tweet_answers(model), "se": sensor_answers(sensor_records)}
    absent_base = 10 * (workload.tweets + total_writes)
    lowest = records[0]["timestamp_ms"]

    rounds: List[Round] = []
    used_probes: Set[int] = set()
    for _ in range(workload.rounds):
        step = Round()
        step.writes = _writes(workload.writes_per_round, model, live, position, fresh,
                              traffic, rng)
        submitted += sum(user_bytes(argument) for kind, argument in step.writes
                         if kind != "delete")
        step.after_write = average_length_by_user(model)
        # Popularity shifts between rounds: with one hot set per run, what the
        # few hottest records happen to hold under a seed moved ``get_ms`` by
        # 5 % between seeds.
        draw_key = _zipf_sampler(live, traffic)
        for _ in range(workload.gets_per_round):
            key = absent_base + traffic.randrange(1000) \
                if traffic.random() < ABSENT_GET_SHARE \
                else draw_key()
            step.get_keys.append(key)
            step.get_expected.append(model.get(key))
        while len(step.probes) < workload.probes_per_round:
            low = lowest + traffic.randrange(workload.tweets)
            if low in used_probes:
                continue  # distinct literals, so every probe misses the plan cache
            used_probes.add(low)
            step.probes.append((low, low + PROBE_SPAN))
            step.probe_expected.append({key for key, record in model.items()
                                        if low <= record["timestamp_ms"] <= low + PROBE_SPAN})
        rounds.append(step)

    plan = Plan(
        workload=workload, seed=seed, records=records, sensor_records=sensor_records,
        rounds=rounds, answers=answers, live_count=len(model),
        ingested_user_bytes=ingested, submitted_user_bytes=submitted,
        live_user_bytes=sum(user_bytes(record) for record in model.values()))

    plan.recovery_writes = _writes(RECOVERY_WRITES, model, live, position, fresh, traffic, rng)
    plan.recovery_count = len(model)
    touched = [argument if kind == "delete" else argument["id"]
               for kind, argument in plan.recovery_writes]
    sample = touched + traffic.sample(live, min(len(live), RECOVERY_SAMPLE - len(touched)))
    plan.recovery_keys = sample
    plan.recovery_expected = [model.get(key) for key in sample]
    return plan
