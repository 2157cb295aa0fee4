"""The engine against one reference model, under every engine setting.

One hypothesis state machine.  Its model is a plain ``{key: record}`` dict
plus ``tests/reference.py``; its parameters, drawn once per example, are the
storage format, compression, partition count, batch size, parallelism, plan
cache and column-slice cache on or off, and a synchronous or background LSM
lifecycle.  Its rules interleave inserts, upserts, deletes, flushes, merges,
a bulk load, CREATE INDEX, crash-and-recover and queries.  Every query must
return exactly the rows ``reference_rows`` computes over the dict, ``get``
and ``count`` must agree with it, and once everything is flushed each
INFERRED partition's schema must be the schema of its live records, every
node's counter included — union promotion and anti-schema removal (paper
§3.2.2) across flush, merge and recovery.

Records carry a field whose type changes from record to record (int,
string, list, object), and one index covers it: its probes, numeric and
string bounds alike, must return what the scan returns across flush, merge
and recovery.  A failure prints the rule sequence that reproduces it;
``--hypothesis-seed=N`` replays a run.

``test_fixed_walk`` drives the same machine through one fixed rule sequence
per storage format and setting, so no setting's code path depends on the
random search drawing it.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro import (ColumnSliceCache, Dataset, LSMConfig, MetricsRegistry, PlanCache, StorageConfig,
                   StorageEnvironment, StorageFormat, compile_sqlpp)
from repro.schema import CollectionNode, InferredSchema, ObjectNode, UnionNode, leaf_paths
from repro.types import Datatype

from reference import partition_records, reference_rows

KEYS = 40
_SHAPES = (lambda v: v, lambda v: f"s{v}", lambda v: [v, f"s{v}"],
           lambda v: {"k": v % 3, "s": f"s{v}"})


def _record(key, v, shape):
    record = {"id": key, "v": v, "name": f"n{v % 4}", "tags": [f"t{i}" for i in range(v % 3)],
              "shape": _SHAPES[shape](v)}
    if v % 5:
        record["nested"] = {"score": v % 7}
    return record


#: Declared from a sample covering every shape the generator makes, the way
#: ``test_batch_execution.py`` declares its CLOSED datasets.
_CLOSED_TYPE = Datatype.from_records("ModelType", [_record(0, v, shape) for v in range(10)
                                                   for shape in range(len(_SHAPES))],
                                     is_open=True, primary_key="id")
_INDEXES = (("ix_v", "v"), ("ix_score", "nested.score"), ("ix_shape", "shape"))
_STATEMENTS = (
    "SELECT VALUE count(*) FROM M AS t",
    "SELECT VALUE t.id FROM M AS t",
    "SELECT t.id AS id, t.shape AS shape FROM M AS t LIMIT 4",
    'SELECT t.id AS id, t.name AS name FROM M AS t WHERE t.name >= "n1" LIMIT 12',
    "SELECT * FROM M AS t WHERE t.v < 30 ORDER BY t.id",
    "SELECT t.id AS id, t.shape.k AS k FROM M AS t WHERE t.shape.k >= 1 ORDER BY t.v DESC, t.id LIMIT 5",
    "SELECT name, count(*) AS n, sum(t.v) AS s FROM M AS t GROUP BY t.name AS name ORDER BY name",
    "SELECT t.id AS id, tag AS tag FROM M AS t UNNEST t.tags AS tag WHERE t.nested.score > 2",
    "SELECT k, count(*) AS n FROM M AS t GROUP BY t.shape AS k",
)


def _range(path, low, high, low_op, high_op):
    """A possibly empty, inverted, open-ended or mixed-type range over an
    indexable field (string bounds are SQL++ string literals)."""
    conjuncts = [f"t.{path} {op} {bound}" for op, bound in ((low_op, low), (high_op, high))
                 if bound is not None]
    return "SELECT VALUE t.id FROM M AS t" + "".join(
        (" WHERE " if i == 0 else " AND ") + conjunct for i, conjunct in enumerate(conjuncts))


_values = st.integers(0, 99)
_shapes = st.integers(0, len(_SHAPES) - 1)
_bounds = st.sampled_from([None, -5, 0, 3, 10, 25, 50, 99, 105, "'s'", "'s3'", "'s50'", "'t'"])
_queries = st.sampled_from(_STATEMENTS) | st.builds(
    _range, st.sampled_from([path for _, path in _INDEXES]), _bounds, _bounds,
    st.sampled_from([">", ">="]), st.sampled_from(["<", "<="]))


def _counted_nodes(node, dictionary, path=()):
    """``(path, node kind, tag, counter)`` of every node, fields by name."""
    yield path, type(node).__name__, node.tag, node.counter
    if isinstance(node, ObjectNode):
        for field_name_id, child in node.fields.items():
            yield from _counted_nodes(child, dictionary, path + (dictionary.decode(field_name_id),))
    elif isinstance(node, UnionNode):
        for child in node.options.values():
            yield from _counted_nodes(child, dictionary, path + ("|",))
    elif isinstance(node, CollectionNode) and node.item is not None:
        yield from _counted_nodes(node.item, dictionary, path + ("[]",))


class EngineModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dataset = None

    @initialize(storage_format=st.sampled_from(StorageFormat), compression=st.sampled_from([None, "zlib"]),
                partitions=st.sampled_from([1, 3]), batch_size=st.sampled_from([1, 7, 1024]),
                parallelism=st.sampled_from([1, None]), plan_cache=st.booleans(),
                column_cache=st.booleans(), background=st.booleans(), max_sealed=st.sampled_from([1, 2]))
    def configure(self, storage_format, compression, partitions, batch_size, parallelism, plan_cache,
                  column_cache, background, max_sealed):
        self.storage_format, self.partitions = storage_format, partitions
        self.batch_size, self.parallelism, self.plan_cache = batch_size, parallelism, plan_cache
        self.environment = StorageEnvironment(
            StorageConfig(page_size=4096, buffer_cache_pages=64, compression=compression),
            metrics=MetricsRegistry())
        if not column_cache:
            self.environment.column_cache = ColumnSliceCache(capacity_bytes=0,
                                                             metrics=self.environment.metrics)
        self.lsm = LSMConfig(memory_component_budget=512, max_tolerable_component_count=3,
                             background_maintenance=background, max_sealed_memtables=max_sealed)
        self.model, self.indexes, self.written = {}, [], False
        self._open()

    def _open(self):
        """A new dataset on the same environment, its indexes re-created."""
        self.dataset = Dataset.create(
            "M", self.storage_format, environment=self.environment, partitions=self.partitions,
            datatype=_CLOSED_TYPE if self.storage_format is StorageFormat.CLOSED else None,
            lsm=self.lsm)
        if not self.plan_cache:
            self.dataset.plan_cache = PlanCache(capacity=0, metrics=self.dataset.metrics)
        for name, path in self.indexes:
            self.dataset.create_index(name, path)
        self.planned = set()
        self.tallies = {"inserts": 0, "upserts": 0, "deletes": 0}
        self.base = dict(self.tallies)

    def teardown(self):
        if self.dataset is not None:
            self.dataset.close()

    def _write(self, kind, record):
        getattr(self.dataset, kind)(record)
        self.model[record["id"]] = record
        self.tallies[kind + "s"] += 1
        self.written = True

    @precondition(lambda self: len(self.model) < KEYS)
    @rule(start=st.integers(0, KEYS - 1), v=_values, shape=_shapes)
    def insert(self, start, v, shape):
        key = next(key % KEYS for key in range(start, start + KEYS) if key % KEYS not in self.model)
        self._write("insert", _record(key, v, shape))

    @rule(key=st.integers(0, KEYS - 1), v=_values, shape=_shapes)
    def upsert(self, key, v, shape):
        self._write("upsert", _record(key, v, shape))

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, KEYS - 1))
    def delete(self, pick):
        key = sorted(self.model)[pick % len(self.model)]
        self.dataset.delete(key)
        del self.model[key]
        self.tallies["deletes"] += 1

    @rule()
    def flush_all(self):
        self.dataset.flush_all()
        self._check_persisted()

    @rule(pick=st.integers(0, 2))
    def merge(self, pick):
        self.dataset.drain()
        index = self.dataset.partitions[pick % self.partitions].index
        if index.component_count() >= 2:
            index.merge(list(index.components))
        self._check_slices()

    @precondition(lambda self: not self.written)
    @rule(rows=st.lists(st.tuples(st.integers(0, KEYS - 1), _values, _shapes), max_size=30,
                        unique_by=lambda row: row[0]))
    def bulk_load(self, rows):
        records = [_record(*row) for row in rows]
        self.dataset.bulk_load(records)
        self.model.update((record["id"], record) for record in records)
        self.tallies["inserts"] += len(records)
        self.written = True

    @precondition(lambda self: len(self.indexes) < len(_INDEXES))
    @rule(pick=st.integers(0, len(_INDEXES) - 1))
    def create_index(self, pick):
        missing = [index for index in _INDEXES if index not in self.indexes]
        name, path = missing[pick % len(missing)]
        self.dataset.query(f"CREATE INDEX {name} ON M ({path})")
        self.indexes.append((name, path))

    @rule()
    def crash_and_recover(self):
        """Lose every memtable: drain, drop the dataset, recover a new one."""
        self.dataset.close()
        self._open()
        for partition in self.dataset.partitions:
            partition.recover()
        ingest = self.dataset.ingest_stats()
        self.base = {counter: ingest[counter] for counter in self.tallies}
        self._check_persisted()

    @rule(text=_queries, access_path=st.sampled_from(["auto", "scan", "index"]),
          key=st.integers(0, KEYS - 1))
    def query(self, text, access_path, key):
        dataset = self.dataset
        spec = compile_sqlpp(text).spec
        expected = reference_rows(spec, partition_records(self.model.values(), self.partitions))
        plain_limit = not spec.is_aggregation and not spec.order_by and spec.limit is not None
        width = min(self.batch_size, spec.limit) if plain_limit else self.batch_size
        for _ in range(2):  # the second run may be served by the plan and slice caches
            result = dataset.query(text, access_path=access_path, batch_size=self.batch_size,
                                   parallelism=self.parallelism)
            stats = result.stats
            assert result.rows == expected
            assert stats.parallelism == min(self.parallelism or self.partitions, self.partitions)
            assert all(partition.batches == -(-partition.records_scanned // width)
                       for partition in stats.per_partition)
            # Only the text keys a plan: no write, flush, merge or index retires it.
            cached = self.plan_cache and text in self.planned
            assert stats.plan_source == ("cache" if cached else "compiled")
            self.planned.add(text)
        assert dataset.get(key) == self.model.get(key)
        assert dataset.count() == len(self.model)
        ingest = dataset.ingest_stats()
        assert {counter: ingest[counter] - self.base[counter] for counter in self.tallies} \
            == self.tallies

    def _check_slices(self):
        """With no maintenance running, every cached slice is of a live component."""
        cache = self.environment.column_cache
        live = [component.file_name for partition in self.dataset.partitions
                for component in partition.index.components]
        assert cache.entry_count() == sum(cache.entry_count(name) for name in live)

    def _check_persisted(self):
        """With nothing left in memory, each INFERRED partition's schema is
        exactly the schema of its live records."""
        self._check_slices()
        if self.storage_format is not StorageFormat.INFERRED:
            return
        buckets = partition_records(self.model.values(), self.partitions)
        for partition, records in zip(self.dataset.partitions, buckets):
            expected = InferredSchema(self.dataset.datatype)
            expected.observe_all(records)
            schema = partition.current_schema()
            assert sorted(leaf_paths(schema.root, schema.dictionary)) \
                == sorted(leaf_paths(expected.root, expected.dictionary))
            assert sorted(_counted_nodes(schema.root, schema.dictionary)) \
                == sorted(_counted_nodes(expected.root, expected.dictionary))


TestEngineModel = EngineModel.TestCase
# At most 30 statements per example: never more plans than the plan cache's 64.
TestEngineModel.settings = settings(max_examples=150, stateful_step_count=30, deadline=None,
                                    suppress_health_check=[HealthCheck.too_slow])


#: One parameter moved off its default each, every other kept on it, so each
#: setting's code path is checked on every run, not only when it is drawn.
_SETTINGS = {"serial": dict(parallelism=1), "small-batches": dict(batch_size=7),
             "plan-cache-off": dict(plan_cache=False), "column-cache-off": dict(column_cache=False),
             "background": dict(background=True, max_sealed=2)}
_DEFAULTS = dict(compression=None, partitions=3, batch_size=1024, parallelism=None,
                 plan_cache=True, column_cache=True, background=False, max_sealed=1)
_WALK_QUERIES = _STATEMENTS + (_range("v", 10, 50, ">=", "<"), _range("nested.score", 3, None, ">", "<"),
                               _range("v", 50, 10, ">", "<="), _range("shape", 10, None, ">=", "<"),
                               _range("shape", "'s1'", "'s5'", ">=", "<="),
                               _range("shape", None, "'s50'", ">", "<"),
                               _range("shape", 3, "'t'", ">", "<"))


def _query_all(machine):
    for position, text in enumerate(_WALK_QUERIES):
        machine.query(text, ("auto", "scan", "index")[position % 3], position % KEYS)


@pytest.mark.parametrize("setting", sorted(_SETTINGS))
@pytest.mark.parametrize("storage_format", list(StorageFormat), ids=lambda fmt: fmt.value)
def test_fixed_walk(storage_format, setting):
    """Every rule in one fixed order; ``shape`` moves through all four types
    and deleted keys are re-inserted and re-upserted in the same memtable."""
    machine = EngineModel()
    machine.configure(storage_format=storage_format, **dict(_DEFAULTS, **_SETTINGS[setting]))
    try:
        machine.bulk_load([(key, key * 3 % 100, key % 4) for key in range(0, 24, 2)])
        machine.query(_STATEMENTS[4], "auto", 2)
        machine.create_index(0)
        machine.create_index(1)  # ix_shape, over every shape
        for key in range(1, 24, 2):
            machine.insert(key, key * 7 % 100, key % 4)
        machine.flush_all()
        for key in range(0, 24, 3):
            machine.upsert(key, key * 11 % 100, (key + 1) % 4)
        for pick in (0, 4, 8, 12, 16):  # keys 0, 5, 10, 15, 20
            machine.delete(pick)
        machine.upsert(5, 42, 3)
        machine.insert(10, 8, 1)
        _query_all(machine)
        machine.flush_all()
        for pick in range(machine.partitions):
            machine.merge(pick)
        machine.query(_STATEMENTS[6], "auto", 7)
        machine.crash_and_recover()
        machine.create_index(0)
        for key in range(24, 32):
            machine.insert(key, key % 100, key % 4)
        machine.upsert(1, 99, 2)
        machine.delete(2)  # key 3
        machine.crash_and_recover()
        machine.flush_all()
        _query_all(machine)
    finally:
        machine.teardown()
