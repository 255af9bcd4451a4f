"""Tests of the telemetry stores, the label-pair summary, models and registry.

The sketch contract is probabilistic in general but deterministic here:
every stream is generated from a fixed seed, so the count-min assertions
(never under-count, ``eps * total`` over-count bound, heavy-hitter
recovery) are exact regression checks, not flaky statistics.

:class:`UnionRefreshStore` keeps the candidate refresh the sketch used
before it merged sorted keys without a sort (``np.union1d`` of the
candidates and the fresh keys) and before it reused a batch's table
cells; it is the oracle of the sorted merge and of that reuse.
:class:`ConsolidatingExactStore` and :class:`RowTableSketch` keep the
observation the stores had before keys were prepared in batches:
validate, consolidate the raw keys with ``np.unique``, then concatenate
(exact) or hash them into a per-row ``(depth, width)`` table (sketch).
They share no code with the stores under test and are the oracles of
prepared-batch observation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.network.telemetry import (
    TELEMETRY,
    CountMinPairStore,
    ExactPairStore,
    ExactTelemetry,
    KeyBatch,
    PairStore,
    PairTelemetry,
    SketchTelemetry,
    get_telemetry,
)


def skewed_stream(seed: int, size: int, distinct: int):
    """A deterministic zipf-ish (keys, values) stream with heavy hitters."""
    rng = np.random.default_rng(seed)
    keys = rng.zipf(1.3, size=size).astype(np.int64) % distinct
    values = rng.uniform(0.1, 2.0, size=size)
    return keys, values


class UnionRefreshStore(CountMinPairStore):
    """A count-min store whose candidate refresh sorts the union again."""

    def _refresh_candidates(self, fresh_keys, fresh_cells=None):
        # Hashes the pool again, whatever cells the batch brought.
        pool = np.union1d(self._candidates, fresh_keys)
        if pool.size > self._top_capacity:
            estimates = self.estimate_many(pool)
            cut = pool.size - self._top_capacity
            threshold = np.partition(estimates, cut)[cut]
            keep = np.flatnonzero(estimates >= threshold)
            order = np.lexsort((pool[keep], -estimates[keep]))[: self._top_capacity]
            pool = np.sort(pool[keep][order])
        self._candidates = pool


def _oracle_observation(keys, values):
    """Validate and consolidate raw observations: sorted keys, summed values."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be matching 1-D arrays")
    if values.size and values.min() < 0:
        raise ValueError("telemetry values must be non-negative")
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique, np.bincount(inverse, weights=values, minlength=unique.size)


def _oracle_top(keys, values, count):
    if count <= 0 or not keys.size:
        return ()
    order = np.lexsort((keys, -values))[:count]
    return tuple(
        (int(key), float(value))
        for key, value in zip(keys[order], values[order])
        if value > 0.0
    )


class ConsolidatingExactStore:
    """Exact totals that re-consolidate everything on each observation."""

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=float)

    def observe(self, keys, values) -> None:
        keys, values = _oracle_observation(keys, values)
        if keys.size:
            self.keys, self.values = _oracle_observation(
                np.concatenate([self.keys, keys]),
                np.concatenate([self.values, values]),
            )

    def merge(self, other: "ConsolidatingExactStore") -> None:
        self.observe(other.keys, other.values)

    def estimate_many(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if not self.keys.size:
            return np.zeros(keys.shape)
        positions = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[positions] == keys, self.values[positions], 0.0)

    def top(self, count: int) -> tuple:
        return _oracle_top(self.keys, self.values, count)

    def total(self) -> float:
        return float(self.values.sum())


class RowTableSketch:
    """A count-min sketch with a ``(depth, width)`` table, hashing every call."""

    def __init__(
        self, width: int = 4096, depth: int = 4, seed: int = 0, top_capacity: int = 64
    ) -> None:
        self.width, self.depth, self.top_capacity = width, depth, top_capacity
        self.shift = np.uint64(64 - int(width).bit_length() + 1)
        rng = np.random.default_rng(seed)
        self.salts = rng.integers(1, 2**63, size=depth, dtype=np.uint64) | np.uint64(1)
        self.table = np.zeros((depth, width), dtype=float)
        self.candidates = np.empty(0, dtype=np.int64)
        self.sum = 0.0

    def _columns(self, keys):
        mixed = keys.astype(np.uint64)[None, :] * self.salts[:, None]
        return (mixed >> self.shift).astype(np.intp)

    def observe(self, keys, values) -> None:
        keys, values = _oracle_observation(keys, values)
        if not keys.size:
            return
        columns = self._columns(keys)
        for row in range(self.depth):
            np.add.at(self.table[row], columns[row], values)
        self.sum += float(values.sum())
        self._refresh(keys)

    def merge(self, other: "RowTableSketch") -> None:
        self.table += other.table
        self.sum += other.sum
        self._refresh(other.candidates)

    def _refresh(self, fresh_keys) -> None:
        pool = np.union1d(self.candidates, fresh_keys)
        if pool.size > self.top_capacity:
            estimates = self.estimate_many(pool)
            cut = pool.size - self.top_capacity
            threshold = np.partition(estimates, cut)[cut]
            keep = np.flatnonzero(estimates >= threshold)
            order = np.lexsort((pool[keep], -estimates[keep]))[: self.top_capacity]
            pool = np.sort(pool[keep][order])
        self.candidates = pool

    def estimate_many(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return np.empty(0, dtype=float)
        rows = np.arange(self.depth)[:, None]
        return self.table[rows, self._columns(keys)].min(axis=0)

    def top(self, count: int) -> tuple:
        if not self.candidates.size:
            return ()
        return _oracle_top(self.candidates, self.estimate_many(self.candidates), count)

    def total(self) -> float:
        return self.sum


class TestExactPairStore:
    def test_observe_consolidates_duplicates(self):
        store = ExactPairStore()
        store.observe([3, 1, 3, 2], [1.0, 2.0, 0.5, 4.0])
        store.observe([2, 5], [1.0, 0.25])
        assert store.distinct == 4
        assert store.estimate(3) == 1.5
        assert store.estimate(2) == 5.0
        assert store.estimate(99) == 0.0
        assert store.total() == pytest.approx(8.75)

    def test_top_orders_by_value_then_key_and_drops_zeros(self):
        store = ExactPairStore()
        store.observe([10, 7, 4, 2], [3.0, 5.0, 5.0, 0.0])
        assert store.top(10) == ((4, 5.0), (7, 5.0), (10, 3.0))
        assert store.top(1) == ((4, 5.0),)
        assert store.top(0) == ()

    def test_rejects_bad_observations(self):
        store = ExactPairStore()
        with pytest.raises(ValueError):
            store.observe([1, 2], [1.0])
        with pytest.raises(ValueError):
            store.observe([1], [-0.5])
        store.observe([], [])  # empty batch is a no-op
        assert store.distinct == 0

    def test_estimates_from_an_empty_store_are_zero(self):
        store = ExactPairStore()
        assert store.estimate(3) == 0.0
        np.testing.assert_array_equal(store.estimate_many([0, 7, 2**40]), np.zeros(3))
        assert store.estimate_many(np.empty(0, dtype=np.int64)).shape == (0,)


class TestCountMinPairStore:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CountMinPairStore(width=1000)  # not a power of two
        with pytest.raises(ValueError):
            CountMinPairStore(depth=0)
        with pytest.raises(ValueError):
            CountMinPairStore(top_capacity=0)
        # Non-integers and bools fail as ValueErrors naming the parameter.
        for name in ("width", "depth", "top_capacity"):
            for bad in (4096.0, 4.5, True, False, "64", None):
                with pytest.raises(ValueError, match=f"sketch {name} "):
                    CountMinPairStore(**{name: bad})
        # NumPy integers are integers.
        assert CountMinPairStore(width=np.int64(1024), depth=np.int32(2)).width == 1024

    def test_never_undercounts_and_meets_eps_bound(self):
        keys, values = skewed_stream(seed=42, size=50_000, distinct=20_000)
        exact = ExactPairStore()
        sketch = CountMinPairStore(width=4096, depth=4, seed=0)
        for start in range(0, keys.size, 5000):
            batch = slice(start, start + 5000)
            exact.observe(keys[batch], values[batch])
            sketch.observe(keys[batch], values[batch])

        true = exact.values
        estimates = sketch.estimate_many(exact.keys)
        total = exact.total()
        assert sketch.total() == pytest.approx(total)
        # Classic count-min guarantees, deterministic under the fixed seed:
        # estimates never drop below the truth (up to float accumulation
        # noise) and overshoot by at most eps * total, eps = e / width.
        assert (estimates >= true - 1e-9 * total).all()
        assert (estimates <= true + (np.e / sketch.width) * total).all()

    def test_heavy_hitters_survive_candidate_pressure(self):
        # Far more distinct keys than candidate slots: the bounded set must
        # still surface the true heavy hitters, with their full totals.
        keys, values = skewed_stream(seed=7, size=40_000, distinct=10_000)
        exact = ExactPairStore()
        sketch = CountMinPairStore(width=4096, depth=4, seed=0, top_capacity=16)
        for start in range(0, keys.size, 2000):
            batch = slice(start, start + 2000)
            exact.observe(keys[batch], values[batch])
            sketch.observe(keys[batch], values[batch])
        top_true = [key for key, _ in exact.top(5)]
        top_sketch = dict(sketch.top(5))
        assert list(top_sketch) == top_true
        for key in top_true:
            assert top_sketch[key] >= exact.estimate(key) - 1e-9

    def test_memory_constant_in_stream_length(self):
        sketch = CountMinPairStore(width=1024, depth=4, top_capacity=32)
        empty_bytes = sketch.memory_bytes()
        rng = np.random.default_rng(3)
        for _ in range(20):
            keys = rng.integers(0, 2**40, size=5000).astype(np.int64)
            sketch.observe(keys, np.ones(keys.size))
        # Only the bounded candidate array grows, never the table.
        assert sketch.memory_bytes() <= empty_bytes + 32 * 8

    def test_merge_equals_single_stream(self):
        keys, values = skewed_stream(seed=11, size=20_000, distinct=5_000)
        whole = CountMinPairStore(width=2048, depth=4, seed=0)
        whole.observe(keys, values)
        left = CountMinPairStore(width=2048, depth=4, seed=0)
        right = CountMinPairStore(width=2048, depth=4, seed=0)
        left.observe(keys[:12_000], values[:12_000])
        right.observe(keys[12_000:], values[12_000:])
        left.merge(right)
        assert left.total() == pytest.approx(whole.total())
        probe = np.unique(keys)
        np.testing.assert_allclose(
            left.estimate_many(probe), whole.estimate_many(probe), rtol=1e-12
        )

    def test_merge_rejects_mismatched_geometry(self):
        base = CountMinPairStore(width=1024, depth=4, seed=0)
        with pytest.raises(ValueError):
            base.merge(CountMinPairStore(width=2048, depth=4, seed=0))
        with pytest.raises(ValueError):
            base.merge(CountMinPairStore(width=1024, depth=4, seed=1))

    def test_salts_are_drawn_once_per_geometry_and_read_only(self):
        first = CountMinPairStore(width=1024, depth=4, seed=3)
        second = CountMinPairStore(width=2048, depth=4, seed=3)
        drawn = np.random.default_rng(3).integers(1, 2**63, size=4, dtype=np.uint64)
        assert np.array_equal(first._salts, drawn | np.uint64(1))
        assert np.array_equal(second._salts, first._salts)
        with pytest.raises(ValueError, match="read-only"):
            first._salts[0] = 1
        assert not np.array_equal(
            CountMinPairStore(depth=4, seed=4)._salts, first._salts
        )
        assert CountMinPairStore(depth=3, seed=3)._salts.size == 3
        assert first.memory_bytes() == 4 * 1024 * 8 + 4 * 8
        keys, values = skewed_stream(seed=6, size=2_000, distinct=300)
        first.observe(keys, values)
        merged = CountMinPairStore(width=1024, depth=4, seed=3)
        merged.merge(first)
        probe = np.unique(keys)
        np.testing.assert_array_equal(
            merged.estimate_many(probe), first.estimate_many(probe)
        )

    def test_pickle_round_trip_preserves_estimates(self):
        keys, values = skewed_stream(seed=5, size=5_000, distinct=500)
        sketch = CountMinPairStore(width=1024, depth=4, seed=0)
        sketch.observe(keys, values)
        clone = pickle.loads(pickle.dumps(sketch))
        probe = np.unique(keys)
        np.testing.assert_array_equal(
            clone.estimate_many(probe), sketch.estimate_many(probe)
        )
        assert clone.top(5) == sketch.top(5)


class TestRefreshCandidates:
    """The sorted-merge refresh keeps exactly the candidates the union kept."""

    @staticmethod
    def _pair(capacity):
        # A narrow table makes keys collide, so estimates tie at the cut.
        geometry = dict(width=256, depth=3, seed=0, top_capacity=capacity)
        return CountMinPairStore(**geometry), UnionRefreshStore(**geometry)

    @staticmethod
    def _batch(rng):
        size = int(rng.integers(0, 80))
        keys = rng.integers(0, int(rng.integers(1, 200)), size)
        # Few distinct values: many estimates tie, at the cut too.
        return keys, rng.integers(0, 3, size).astype(float)

    @staticmethod
    def _assert_same(store, oracle):
        assert store._candidates.dtype == oracle._candidates.dtype
        np.testing.assert_array_equal(store._candidates, oracle._candidates)
        assert store.top(store._top_capacity) == oracle.top(oracle._top_capacity)

    def test_random_batches_with_ties_at_the_cut(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            store, oracle = self._pair(int(rng.integers(1, 24)))
            for _ in range(int(rng.integers(1, 6))):
                keys, values = self._batch(rng)
                store.observe(keys, values)
                oracle.observe(keys, values)
                self._assert_same(store, oracle)

    def test_empty_candidates_and_an_empty_batch(self):
        store, oracle = self._pair(8)
        empty = np.empty(0, dtype=np.int64)
        for side in (store, oracle):
            side._refresh_candidates(empty)  # empty candidates, empty batch
            side.observe([], [])
        self._assert_same(store, oracle)
        assert store._candidates.size == 0
        keys, values = skewed_stream(seed=4, size=300, distinct=60)
        for side in (store, oracle):
            side.observe(keys, values)  # empty candidates, full batch
            side._refresh_candidates(empty)  # full candidates, empty batch
        self._assert_same(store, oracle)
        assert store._candidates.size == 8

    def test_sketch_merges(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            capacity = int(rng.integers(1, 24))
            stores, oracles = zip(*(self._pair(capacity) for _ in range(2)))
            for store, oracle in zip(stores, oracles):
                for _ in range(int(rng.integers(0, 3))):  # may stay empty
                    keys, values = self._batch(rng)
                    store.observe(keys, values)
                    oracle.observe(keys, values)
            stores[0].merge(stores[1])
            oracles[0].merge(oracles[1])
            self._assert_same(stores[0], oracles[0])

    def test_candidates_do_not_share_the_callers_keys(self):
        store = CountMinPairStore(width=256, depth=3, top_capacity=16)
        keys = np.array([5, 3, 9], dtype=np.int64)
        store.observe(keys, np.ones(3))
        keys[:] = 0
        np.testing.assert_array_equal(store._candidates, [3, 5, 9])


class TestMergeStores:
    def _streams(self):
        keys, values = skewed_stream(seed=23, size=8_000, distinct=1_000)
        return (keys[:4_000], values[:4_000]), (keys[4_000:], values[4_000:])

    def test_exact_pair_merges_in_place(self):
        (k1, v1), (k2, v2) = self._streams()
        left, right = ExactPairStore(), ExactPairStore()
        left.observe(k1, v1)
        right.observe(k2, v2)
        left.merge(right)
        whole = ExactPairStore()
        whole.observe(np.concatenate([k1, k2]), np.concatenate([v1, v2]))
        np.testing.assert_array_equal(left.keys, whole.keys)
        np.testing.assert_allclose(left.estimate_many(whole.keys), whole.values)

    @pytest.mark.parametrize("exact_side", ["left", "right"])
    def test_mixed_merge_raises_type_error(self, exact_side):
        exact = ExactPairStore()
        sketch = CountMinPairStore(width=2048, depth=4, seed=0)
        left, right = (exact, sketch) if exact_side == "left" else (sketch, exact)
        with pytest.raises(TypeError, match=type(left).__name__) as raised:
            left.merge(right)
        assert type(right).__name__ in str(raised.value)

    def test_unknown_store_type_rejected(self):
        class Odd(PairStore):
            def observe_batch(self, batch, values):  # pragma: no cover - stub
                pass

            def estimate_many(self, keys):  # pragma: no cover - stub
                return np.zeros(0)

            def top(self, count):  # pragma: no cover - stub
                return ()

            def total(self):  # pragma: no cover - stub
                return 0.0

            def memory_bytes(self):  # pragma: no cover - stub
                return 0

            def _fold(self, other):  # pragma: no cover - stub
                pass

        with pytest.raises(TypeError, match="Odd"):
            ExactPairStore().merge(Odd())
        with pytest.raises(TypeError, match="ExactPairStore"):
            Odd().merge(ExactPairStore())


class TestPairTelemetry:
    LABELS = ("London", "New York", "Tokyo")

    def test_encode_decode_round_trip(self):
        telemetry = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        telemetry.observe_pairs([0, 0, 2], [1, 2, 0], [5.0, 3.0, 2.0])
        telemetry.observe_pairs([0], [1], [1.0])
        assert telemetry.estimate_pair("London", "New York") == 6.0
        assert telemetry.estimate_pair("Tokyo", "London") == 2.0
        assert telemetry.estimate_pair("New York", "Tokyo") == 0.0
        assert telemetry.top_pairs(2) == (
            ("London", "New York", 6.0),
            ("London", "Tokyo", 3.0),
        )
        assert telemetry.total() == pytest.approx(11.0)

    def test_estimate_pair_on_an_empty_store(self):
        for model in TELEMETRY.values():
            telemetry = PairTelemetry(labels=self.LABELS, store=model.store())
            assert telemetry.estimate_pair("London", "Tokyo") == 0.0
            assert telemetry.top_pairs(3) == ()
            assert telemetry.total() == 0.0

    def test_estimate_pair_rejects_an_unknown_label(self):
        telemetry = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        with pytest.raises(ValueError, match="'Paris'") as raised:
            telemetry.estimate_pair("London", "Paris")
        assert "New York" in str(raised.value)
        with pytest.raises(ValueError, match="'Paris'"):
            telemetry.estimate_pair("Paris", "London")

    def test_observe_takes_encoded_keys(self):
        by_ids = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        by_keys = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        by_ids.observe_pairs([0, 2], [1, 0], [5.0, 2.0])
        by_keys.observe([0 * 3 + 1, 2 * 3 + 0], [5.0, 2.0])
        assert by_keys.top_pairs(5) == by_ids.top_pairs(5)

    @pytest.mark.parametrize(
        "src, dst, bad",
        [([0, 3], [1, 0], "source id 3 "), ([1, 0], [1, -1], "destination id -1 ")],
    )
    def test_observe_pairs_rejects_ids_outside_the_labels(self, src, dst, bad):
        # Encoded unchecked, (0, 3) would count as the pair (1, 0) and
        # (1, -1) as (0, 2).
        for model in TELEMETRY.values():
            telemetry = PairTelemetry(labels=self.LABELS, store=model.store())
            with pytest.raises(ValueError, match=rf"{bad}.*\[0, 3\)"):
                telemetry.observe_pairs(src, dst, [1.0, 1.0])
            assert telemetry.total() == 0.0

    def test_pair_batches_are_checked_once_when_built(self):
        with pytest.raises(ValueError, match="source id -1 "):
            KeyBatch.from_pairs([-1, 1], [1, 2], 3)
        with pytest.raises(ValueError, match="matching"):
            KeyBatch.from_pairs([0, 1], [1], 3)
        batch = KeyBatch.from_pairs([2, 0], [1, 2], 3)
        np.testing.assert_array_equal(batch.keys, [2, 7])

    def test_merge_requires_matching_labels(self):
        a = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        b = PairTelemetry(labels=("London", "Tokyo"), store=ExactPairStore())
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_accumulates(self):
        a = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        b = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        a.observe_pairs([0], [1], [2.0])
        b.observe_pairs([0, 1], [1, 2], [3.0, 7.0])
        a.merge(b)
        assert a.estimate_pair("London", "New York") == 5.0
        assert a.estimate_pair("New York", "Tokyo") == 7.0


class TestTelemetryRegistry:
    def test_registry_names_match_models(self):
        assert set(TELEMETRY) == {"exact", "sketch"}
        for name, model in TELEMETRY.items():
            assert model.name == name
            assert get_telemetry(name) is model

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry model"):
            get_telemetry("census")

    def test_model_store_types(self):
        assert isinstance(ExactTelemetry().store(), ExactPairStore)
        assert isinstance(SketchTelemetry().store(), CountMinPairStore)


class TestPreparedBatches:
    """One batch observed by many stores equals the raw-key observation.

    The simulator consolidates (and a sketch hashes) a flow plan's pair keys
    once and lets every scenario's store sum its own scaled demand over
    them.  Each store must end up bit-identical to the oracle store that
    consolidates and hashes the raw keys itself, whether it observed the
    shared batch or called ``observe`` on the raw keys, before and after
    merges.
    """

    SKETCH = dict(width=512, depth=3, seed=0, top_capacity=24)

    @staticmethod
    def _steps(rng, distinct: bool):
        """Per step: keys (distinct like a plan's pairs, or repeating) and
        one value vector per scenario multiplier."""
        steps = []
        for _ in range(4):
            size = int(rng.integers(30, 300))
            if distinct:
                keys = rng.choice(5000, size=size, replace=False)
            else:
                keys = rng.integers(0, 200, size=size)
            base = rng.lognormal(0.0, 1.5, size=size)
            steps.append((keys, [base * m for m in (1.0, 0.3, 3.0, 1.0 / 3.0)]))
        return steps

    @staticmethod
    def _assert_same(store, oracle):
        assert store.total() == oracle.total()
        assert store.top(64) == oracle.top(64)
        probe = np.arange(5000)
        estimates = store.estimate_many(probe)
        assert estimates.tobytes() == oracle.estimate_many(probe).tobytes()

    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("kind", ["exact", "sketch"])
    def test_shared_batch_equals_raw_key_oracle(self, kind, distinct):
        def fresh():
            if kind == "exact":
                return ExactPairStore()
            return CountMinPairStore(**self.SKETCH)

        def oracle():
            if kind == "exact":
                return ConsolidatingExactStore()
            return RowTableSketch(**self.SKETCH)

        rng = np.random.default_rng(31 + distinct)
        steps = self._steps(rng, distinct)
        multipliers = len(steps[0][1])
        # Per multiplier: (batch-fed, observe-fed, oracle) aggregates.
        aggregates = [None] * multipliers
        for keys, vectors in steps:
            batch = KeyBatch(keys)
            for index, values in enumerate(vectors):
                stores = (fresh(), fresh(), oracle())
                stores[0].observe_batch(batch, values)
                stores[1].observe(keys, values)
                stores[2].observe(keys, values)
                self._assert_same(stores[0], stores[2])
                self._assert_same(stores[1], stores[2])
                if aggregates[index] is None:
                    aggregates[index] = stores
                    continue
                for aggregate, store in zip(aggregates[index], stores):
                    aggregate.merge(store)
                self._assert_same(aggregates[index][0], aggregates[index][2])
                self._assert_same(aggregates[index][1], aggregates[index][2])
            if kind == "sketch":
                assert len(batch.cells) == 1  # hashed once for every store

    def test_a_batch_hashes_once_per_sketch_geometry(self):
        keys, values = skewed_stream(seed=3, size=400, distinct=150)
        batch = KeyBatch(keys)
        for seed in (0, 1, 0):
            shared = CountMinPairStore(**dict(self.SKETCH, seed=seed))
            oracle = RowTableSketch(**dict(self.SKETCH, seed=seed))
            shared.observe_batch(batch, values)
            oracle.observe(keys, values)
            self._assert_same(shared, oracle)
        assert len(batch.cells) == 2

    def test_batch_values_are_checked_per_observation(self):
        batch = KeyBatch([4, 1, 4])
        np.testing.assert_array_equal(batch.keys, [1, 4])
        for store in (ExactPairStore(), CountMinPairStore(**self.SKETCH)):
            with pytest.raises(ValueError, match="matching"):
                store.observe_batch(batch, [1.0, 2.0])
            with pytest.raises(ValueError, match="non-negative"):
                store.observe_batch(batch, [1.0, -2.0, 0.0])
            store.observe_batch(batch, [1.0, 2.0, 0.5])
            assert store.estimate(4) == 1.5 and store.total() == 3.5
