"""Streaming step telemetry: exact and sketch summaries keyed by label pairs.

At ~10^2 flows per step per-flow statistics are free; at the 10^5-10^6
flows per step the columnar simulator handles, an exact per-pair
breakdown costs O(distinct pairs) memory per step -- the same order as the
flow store itself.  This module makes that cost a policy: a
:class:`TelemetryModel` builds each step's store, either **exact**
(consolidated key/value arrays, :class:`ExactPairStore`) or
**approximate** in fixed memory (a count-min sketch with a bounded
heavy-hitter candidate set, :class:`CountMinPairStore`).  Models are
registered by name in :data:`TELEMETRY` (``"exact"`` and ``"sketch"``),
mirroring ``FAULT_MODELS``/``STEERING_POLICIES``, so scenario definitions
select them declaratively
(:attr:`repro.network.simulation.Scenario.telemetry`).

:class:`PairTelemetry` is the one summary the simulator keeps: a store plus
the label table its keys decode against, ``a * len(labels) + b`` for the
pair ``(labels[a], labels[b])``.  Station-pair demand is keyed by
``(source, destination)`` station ids; link utilisation by the snapshot's
own link codes (``min * n + max`` over the same node labels), which are
such keys already.

Every store observes through a :class:`KeyBatch`: the batch's keys
consolidated once (``np.unique``) and, for a sketch, hashed to table cells
once per hash geometry.  ``observe(keys, values)`` builds the batch and
takes the same path as ``observe_batch``, so a caller holding many value
vectors over the same keys prepares the keys once.  The simulator does
that per flow plan: the scenarios sharing a plan (one per demand
multiplier) observe the same station pairs, so only the per-key sums
(``np.bincount``) and the sketch updates (``np.add.at``) see each
scenario's values -- a fixed cost per update whatever the key work was.
The batch checks pair ids against the labels once, when it is built.

Every store merges with a store of its own kind, and only with one:
per-step stores fold into a per-scenario aggregate, and -- because stores
are plain numpy containers -- they pickle cheaply, so sweeps run in worker
processes ship each worker's aggregates back to the coordinator.
Count-min addition is commutative, which keeps merged results independent
of worker scheduling.

The count-min estimate never under-counts: for non-negative values the
sketch returns ``true <= estimate <= true + eps * total`` with high
probability, where ``eps ~ e / width``.  Heavy hitters are tracked as a
bounded candidate set refreshed on every observation batch; a pair's
estimate includes all of its past contributions (the sketch remembers what
the candidate set may have evicted), so a pair that becomes heavy late
still surfaces with its full count.  The exact store is the sketch tests'
brute-force anchor.
"""

from __future__ import annotations

import functools
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .backends import merge_codes

__all__ = [
    "KeyBatch",
    "PairStore",
    "ExactPairStore",
    "CountMinPairStore",
    "PairTelemetry",
    "TelemetryModel",
    "ExactTelemetry",
    "SketchTelemetry",
    "TELEMETRY",
    "get_telemetry",
]


class KeyBatch:
    """Observation keys consolidated once, for any number of value vectors.

    ``keys`` holds the batch's sorted distinct keys and ``inverse`` the
    position in ``keys`` of each observation (``np.unique`` with
    ``return_inverse``).  Every store observes through a batch: it sums its
    values into ``keys`` order (:meth:`sums`) and, for a sketch, hashes
    ``keys`` to table cells once per hash geometry.
    So value vectors over the same keys -- a flow plan's demand under each
    scenario's multiplier -- share the key work, and only the sums and the
    table updates see each vector.  ``keys`` and ``inverse`` are never
    written after the batch is built, so stores may keep ``keys`` itself;
    ``cells`` is a cache, filled by the first sketch of each (width,
    salts) geometry that observes the batch and read by every later one
    (the scenarios sharing a flow plan share its batch).
    """

    __slots__ = ("size", "keys", "inverse", "cells")

    def __init__(self, keys) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("keys and values must be matching 1-D arrays")
        #: Observations in the batch (``keys`` may hold fewer, distinct).
        self.size = keys.size
        self.keys, self.inverse = np.unique(keys, return_inverse=True)
        #: Sketch table cells of ``keys``, per (width, salts) geometry.
        self.cells: dict[tuple[int, bytes], np.ndarray] = {}

    @classmethod
    def from_pairs(cls, src_ids, dst_ids, labels: int) -> "KeyBatch":
        """The batch of pair keys ``src * labels + dst`` over ``labels`` labels.

        Raises ``ValueError`` naming the first id outside ``[0, labels)``,
        which would otherwise decode as another pair.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if src_ids.shape != dst_ids.shape:
            raise ValueError("source and destination ids must be matching arrays")
        for side, ids in (("source", src_ids), ("destination", dst_ids)):
            outside = (ids < 0) | (ids >= labels)
            if outside.any():
                position = int(np.argmax(outside))
                raise ValueError(
                    f"{side} id {int(ids[position])} (observation {position}) is "
                    f"outside [0, {labels})"
                )
        return cls(src_ids * labels + dst_ids)

    def sums(self, values) -> np.ndarray:
        """Each key's sum of ``values`` (one non-negative value per observation)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError("keys and values must be matching 1-D arrays")
        if values.size and values.min() < 0:
            raise ValueError("telemetry values must be non-negative")
        return np.bincount(self.inverse, weights=values, minlength=self.keys.size)


def _consolidate(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum values of duplicate keys; returns sorted unique keys."""
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique, np.bincount(inverse, weights=values, minlength=unique.size)


class PairStore(ABC):
    """Accumulator of non-negative values keyed by int64 pair codes."""

    def observe(self, keys, values) -> None:
        """Add a batch of (key, value) observations (arrays of equal length)."""
        self.observe_batch(KeyBatch(keys), values)

    @abstractmethod
    def observe_batch(self, batch: KeyBatch, values) -> None:
        """Add one value per observation of a prepared :class:`KeyBatch`.

        The batch's values are summed per key first, then added to the
        store.
        """

    @abstractmethod
    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Return the (possibly approximate) accumulated value of each key."""

    @abstractmethod
    def top(self, count: int) -> tuple[tuple[int, float], ...]:
        """Largest ``count`` (key, value) pairs, ties broken by smaller key."""

    @abstractmethod
    def total(self) -> float:
        """Sum of every observed value."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Bytes held by the store's numpy state (constant for sketches)."""

    @abstractmethod
    def _fold(self, other: "PairStore") -> None:
        """Add ``other``, a store of this store's own type, into this one."""

    def merge(self, other: "PairStore") -> None:
        """Fold ``other`` into this store in place; both must be one kind."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}: "
                "stores merge only with their own kind"
            )
        self._fold(other)

    def estimate(self, key: int) -> float:
        return float(self.estimate_many(np.array([key], dtype=np.int64))[0])


def _top_of(keys: np.ndarray, values: np.ndarray, count: int) -> tuple:
    """Top ``count`` by value descending, key ascending -- deterministic."""
    if count <= 0 or not keys.size:
        return ()
    order = np.lexsort((keys, -values))[:count]
    return tuple(
        (int(key), float(value))
        for key, value in zip(keys[order], values[order])
        if value > 0.0
    )


class ExactPairStore(PairStore):
    """Exact per-pair totals as consolidated (sorted keys, values) arrays.

    Every operation is whole-array numpy; memory grows with the number of
    *distinct* pairs observed, which is what the sketch bound trades away.
    A batch is summed per key before it is added, and an empty store takes
    the batch's (or a merged store's) arrays as they are, so the arrays
    are replaced, never written in place.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=float)

    @property
    def distinct(self) -> int:
        return self._keys.size

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    @property
    def values(self) -> np.ndarray:
        return self._values

    def observe_batch(self, batch: KeyBatch, values) -> None:
        self._add(batch.keys, batch.sums(values))

    def _add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add sorted distinct ``keys`` with their ``values``."""
        if not keys.size:
            return
        if not self._keys.size:
            self._keys, self._values = keys, values
            return
        self._keys, self._values = _consolidate(
            np.concatenate([self._keys, keys]),
            np.concatenate([self._values, values]),
        )

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if not self._keys.size:
            return np.zeros(keys.shape)
        positions = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return np.where(self._keys[positions] == keys, self._values[positions], 0.0)

    def top(self, count: int) -> tuple:
        return _top_of(self._keys, self._values, count)

    def total(self) -> float:
        return float(self._values.sum())

    def memory_bytes(self) -> int:
        return int(self._keys.nbytes + self._values.nbytes)

    def _fold(self, other: "ExactPairStore") -> None:
        self._add(other.keys, other.values)


@functools.cache
def _salts(seed: int, depth: int) -> np.ndarray:
    """The odd 64-bit hash salts of every sketch with this ``seed`` and ``depth``.

    Drawn once per geometry, however many stores a sweep builds, and
    read-only because they all share the one array.
    """
    rng = np.random.default_rng(seed)
    salts = rng.integers(1, 2**63, size=depth, dtype=np.uint64) | np.uint64(1)
    salts.flags.writeable = False
    return salts


class CountMinPairStore(PairStore):
    """Count-min sketch plus a bounded heavy-hitter candidate set.

    ``depth`` rows of ``width`` counters, stored flat (width must be a
    power of two: row hashes are multiply-shift over the full 64-bit key
    mix, and a key's cell in row ``r`` is ``r * width`` plus its column).
    ``add`` is ``np.add.at`` per row; ``estimate`` is the minimum over
    rows, which for non-negative values never under-counts.  The candidate
    set keeps the ``top_capacity`` keys with the largest sketch estimates
    seen so far, refreshed on every batch -- fixed memory however many
    pairs stream by.
    It is sorted and distinct, and may share memory with an observed
    batch's consolidated keys or a merged sketch's candidates, so it is
    replaced, never written in place.

    Two sketches merge by elementwise table addition, valid only when their
    shapes and hash salts agree (same ``seed``/geometry -- the registry
    model guarantees this across process workers).
    """

    def __init__(
        self,
        width: int = 4096,
        depth: int = 4,
        seed: int = 0,
        top_capacity: int = 64,
    ) -> None:
        geometry = {"width": width, "depth": depth, "top_capacity": top_capacity}
        for name, value in geometry.items():
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value <= 0
            ):
                raise ValueError(
                    f"sketch {name} must be a positive integer, got {value!r}"
                )
        if width & (width - 1):
            raise ValueError(f"sketch width must be a power of two, got {width}")
        self._width = width
        self._depth = depth
        self._seed = seed
        self._shift = np.uint64(64 - int(width).bit_length() + 1)
        self._salts = _salts(seed, int(depth))
        self._table = np.zeros(depth * width, dtype=float)
        self._candidates = np.empty(0, dtype=np.int64)
        self._top_capacity = top_capacity
        self._total = 0.0

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def seed(self) -> int:
        return self._seed

    def _cells(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) flat table cells of each key, by multiply-shift hashing."""
        mixed = keys.astype(np.uint64)[None, :] * self._salts[:, None]
        rows = np.arange(self._depth, dtype=np.intp)[:, None] * self._width
        return (mixed >> self._shift).astype(np.intp) + rows

    def observe_batch(self, batch: KeyBatch, values) -> None:
        values = batch.sums(values)
        if not batch.keys.size:
            return
        geometry = (int(self._width), self._salts.tobytes())
        cells = batch.cells.get(geometry)
        if cells is None:
            cells = batch.cells[geometry] = self._cells(batch.keys)
        for row in cells:
            np.add.at(self._table, row, values)
        self._total += float(values.sum())
        self._refresh_candidates(batch.keys, cells)

    def _refresh_candidates(
        self, fresh_keys: np.ndarray, fresh_cells: "np.ndarray | None" = None
    ) -> None:
        # Both sides are sorted and distinct (consolidated batch keys or a
        # sketch's candidates), so the sorted merge is their union.  When
        # it is the fresh keys themselves (no candidate is missing from
        # them), their table cells, if given, are the pool's.
        pool = merge_codes(self._candidates, fresh_keys)
        if pool.size > self._top_capacity:
            if pool is fresh_keys and fresh_cells is not None:
                estimates = self._estimates(fresh_cells)
            else:
                estimates = self.estimate_many(pool)
            # Preselect with argpartition (O(pool)), widened to ties at the
            # cut so the small lexsort below returns exactly what a full
            # (value desc, key asc) sort of the pool would.
            cut = pool.size - self._top_capacity
            threshold = np.partition(estimates, cut)[cut]
            keep = np.flatnonzero(estimates >= threshold)
            order = np.lexsort((pool[keep], -estimates[keep]))[: self._top_capacity]
            pool = np.sort(pool[keep][order])
        self._candidates = pool

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return np.empty(0, dtype=float)
        return self._estimates(self._cells(keys))

    def _estimates(self, cells: np.ndarray) -> np.ndarray:
        """Count-min estimate of the keys whose table cells are ``cells``."""
        return self._table[cells].min(axis=0)

    def top(self, count: int) -> tuple:
        if not self._candidates.size:
            return ()
        return _top_of(self._candidates, self.estimate_many(self._candidates), count)

    def total(self) -> float:
        return self._total

    def memory_bytes(self) -> int:
        return int(
            self._table.nbytes + self._salts.nbytes + self._candidates.nbytes
        )

    def _fold(self, other: "CountMinPairStore") -> None:
        if (
            (self._width, self._depth) != (other._width, other._depth)
            or not np.array_equal(self._salts, other._salts)
        ):
            raise ValueError(
                "count-min sketches merge only with identical geometry and "
                "hash salts (same telemetry model configuration)"
            )
        self._table += other._table
        self._total += other._total
        self._refresh_candidates(other._candidates)


@dataclass
class PairTelemetry:
    """A summary keyed by label pairs: a :class:`PairStore` plus its labels.

    The pair ``(labels[a], labels[b])`` is keyed ``a * len(labels) + b``.
    The simulator keeps two of these per scenario:

    * station-pair offered demand, labelled by the scenario's stations (in
      simulator order) and observed through :meth:`observe_pairs`;
    * per-link utilisation, labelled by the snapshot group's node labels
      and observed through :meth:`observe` with the edge list's
      :attr:`~repro.network.backends.SnapshotEdgeList.link_codes` -- the
      keys steering's EWMA state uses.  Each step adds that step's
      utilisation, so a link at 0.9 for ten steps scores 9.0 while one
      that spiked to 1.0 once scores 1.0 (*sustained heat*).

    The wrapper owns encoding and decoding, so stores stay label-free and
    two summaries merge only when their label tables agree.
    """

    labels: tuple
    store: PairStore

    def observe(self, keys, values) -> None:
        """Add one batch of (pair key, value) arrays."""
        self.store.observe(keys, values)

    def observe_pairs(self, src_ids, dst_ids, values) -> None:
        """Add one batch of (first label id, second label id, value) arrays.

        Raises ``ValueError`` naming the first id outside
        ``[0, len(labels))``.
        """
        batch = KeyBatch.from_pairs(src_ids, dst_ids, len(self.labels))
        self.store.observe_batch(batch, values)

    def merge(self, other: "PairTelemetry") -> None:
        if self.labels != other.labels:
            raise ValueError(
                "telemetry summaries merge only over one label table "
                "(one station subset or snapshot group)"
            )
        self.store.merge(other.store)

    def top_pairs(self, count: int) -> tuple[tuple[object, object, float], ...]:
        """Largest ``count`` (label_a, label_b, value) pairs, deterministic order."""
        size = len(self.labels)
        return tuple(
            (self.labels[key // size], self.labels[key % size], value)
            for key, value in self.store.top(count)
        )

    def estimate_pair(self, src, dst) -> float:
        """Accumulated value of the pair ``(src, dst)`` of labels (0.0 if unseen)."""
        for label in (src, dst):
            if label not in self.labels:
                raise ValueError(
                    f"label {label!r} is not in this summary; its labels are "
                    f"{self.labels!r}"
                )
        src_id, dst_id = self.labels.index(src), self.labels.index(dst)
        return self.store.estimate(src_id * len(self.labels) + dst_id)

    def total(self) -> float:
        """Sum of every observed value."""
        return self.store.total()


class TelemetryModel(ABC):
    """Factory of per-step :class:`PairStore` instances, registry-named."""

    name: str = ""
    #: How many (src, dst, value) pairs each step's statistics carry.
    summary_pairs: int = 5

    @abstractmethod
    def store(self) -> PairStore:
        """Return a fresh, empty store."""


@dataclass
class ExactTelemetry(TelemetryModel):
    """Always-exact summaries; memory grows with distinct pairs."""

    name: str = field(default="exact", init=False)

    def store(self) -> PairStore:
        return ExactPairStore()


@dataclass
class SketchTelemetry(TelemetryModel):
    """Always-sketched summaries: fixed memory at any flow count."""

    name: str = field(default="sketch", init=False)
    width: int = 4096
    depth: int = 4
    seed: int = 0
    top_capacity: int = 64

    def store(self) -> PairStore:
        return CountMinPairStore(
            width=self.width,
            depth=self.depth,
            seed=self.seed,
            top_capacity=self.top_capacity,
        )


#: Telemetry models addressable by name (scenario definitions use these),
#: mirroring :data:`repro.network.faults.FAULT_MODELS`.
TELEMETRY: dict[str, TelemetryModel] = {
    model.name: model for model in (ExactTelemetry(), SketchTelemetry())
}


def get_telemetry(name: str) -> TelemetryModel:
    """Return the telemetry model registered under ``name``."""
    try:
        return TELEMETRY[name]
    except KeyError:
        raise ValueError(
            f"unknown telemetry model {name!r}; available: {sorted(TELEMETRY)}"
        ) from None
