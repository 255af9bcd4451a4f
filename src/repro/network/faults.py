"""Fault injection and resilience modelling over snapshot sequences.

The scenario-sweep engine so far only varied *demand*: every satellite, ISL
and ground station stayed permanently healthy.  This module adds the stress
axis -- what the constellation delivers when parts of it are down -- as a
first-class, declarative subsystem:

* a :class:`FaultSpec` names a fault model from the :data:`FAULT_MODELS`
  registry together with its parameters and seed, so fault scenarios are
  picklable, hashable and comparable values that ride inside
  :class:`repro.network.simulation.Scenario` definitions;
* a :class:`FaultModel` compiles one spec against a :class:`FaultContext`
  (the topology, the epoch grid and the attached ground stations) into a
  :class:`FaultSchedule` -- dense per-step **node masks** and **capacity
  factors** over all satellites and stations, produced by vectorised numpy
  (seeded :func:`numpy.random.default_rng` streams, no per-entity Python
  loops);
* :class:`repro.network.topology.SnapshotSequence` applies a schedule on top
  of its precomputed feasibility tensors when producing per-step edge
  lists and CSR edge arrays: a link survives a step only if both endpoints
  are up, and its capacity is scaled by the worse endpoint's degradation
  factor.  The routing arrays and every sweep executor therefore see the
  *same* degraded network, bit for bit.

Five models ship with the library:

``random_satellite``
    Independent per-satellite outages: a fixed per-step failure hazard,
    each outage lasting ``duration_steps`` (repair time).

``plane_outage``
    Correlated outages: whole orbital planes (or whole shells of a
    :class:`~repro.network.topology.MultiShellTopology`) go down together
    during a window -- the "common-cause" failure mode that stresses the
    +Grid's cross-plane redundancy.

``radiation``
    Radiation-driven failures consuming :mod:`repro.radiation`: satellites
    are ranked by their accumulated daily fluence
    (:class:`~repro.radiation.exposure.ExposureCalculator`), the
    highest-fluence fraction is capacity-degraded for the whole run, and the
    per-step failure hazard scales with relative fluence -- boosted further
    on steps where the satellite actually sits inside the high proton-flux
    (South Atlantic Anomaly) region, so failures cluster on SAA passes.

``station_outage``
    Ground-segment windows: deterministic periodic maintenance (staggered
    per station) or random weather outages with a repair time.

``link_degradation``
    Fractional capacity degradation: a seeded subset of satellites carries a
    capacity factor < 1 during a window, modelling pointing losses, partial
    hardware failures or rain fade on their links.

Because schedules are compiled **once** per sweep by the driver and shipped
to worker processes as plain numpy arrays (or pre-applied to the shipped
edge lists), a fixed-seed fault sweep is result-identical whether it runs
serially or in worker processes.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..orbits.time import Epoch

__all__ = [
    "FaultSpec",
    "FaultContext",
    "FaultSchedule",
    "FaultModel",
    "RandomSatelliteOutages",
    "CorrelatedGroupOutages",
    "RadiationOutages",
    "StationOutages",
    "LinkDegradation",
    "MissingSeedWarning",
    "FAULT_MODELS",
    "get_fault_model",
    "compile_faults",
    "normalise_fault_specs",
]


def _freeze(value):
    """Recursively convert a parameter value to a hashable canonical form.

    Mappings become sorted ``(key, value)`` tuples, sequences become tuples;
    scalars pass through.  This is what lets a :class:`FaultSpec` -- and
    therefore a whole ``Scenario.faults`` tuple -- serve as a dict key when
    the sweep engine groups scenarios sharing one compiled schedule.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), _freeze(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    raise ValueError(
        f"fault parameter values must be scalars, sequences or mappings, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault-model selection of a scenario.

    Attributes
    ----------
    model:
        Registry name of the fault model (:data:`FAULT_MODELS`).
    params:
        Model parameters; accepted as a mapping and canonicalised to a
        sorted tuple of ``(name, value)`` pairs so specs hash and compare by
        value.  Every model accepts a ``seed`` parameter (default 0) feeding
        its :func:`numpy.random.default_rng` stream.
    """

    model: str
    # __post_init__ canonicalises any mapping to a sorted tuple, so the
    # frozen spec stays hashable despite the Mapping annotation.
    params: "Mapping | tuple" = ()  # repro-lint: ignore[RPL005]

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            frozen = _freeze(params)
        elif isinstance(params, tuple):
            frozen = _freeze(dict(params)) if params else ()
        else:
            raise ValueError(
                f"fault params must be a mapping of parameter names, "
                f"got {type(params).__name__}"
            )
        object.__setattr__(self, "params", frozen)
        get_fault_model(self.model).validate(self.params_dict())

    def params_dict(self) -> dict:
        """Return the parameters as a plain dict (values stay canonical)."""
        return {key: value for key, value in self.params}


def normalise_fault_specs(value) -> "tuple[FaultSpec, ...] | None":
    """Normalise a scenario's ``faults`` field to a tuple of specs.

    Accepts ``None``, a single :class:`FaultSpec`, a bare model name, a
    ``(name, params)`` pair, or an iterable of any of those -- and raises a
    clear :class:`ValueError` for anything malformed, so a bad fault spec
    fails at :class:`~repro.network.simulation.Scenario` construction
    instead of mid-sweep.
    """
    if value is None:
        return None
    if _is_single_spec(value):
        specs = (_as_spec(value),)
    elif isinstance(value, Iterable) and not isinstance(value, (str, Mapping)):
        specs = tuple(_as_spec(item) for item in value)
    else:
        raise ValueError(
            f"malformed fault spec {value!r}: expected a FaultSpec, a model "
            f"name, a (name, params) pair, or an iterable of those"
        )
    return specs or None


def _is_single_spec(value) -> bool:
    if isinstance(value, (FaultSpec, str)):
        return True
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], Mapping)
    )


def _as_spec(item) -> FaultSpec:
    if isinstance(item, FaultSpec):
        return item
    if isinstance(item, str):
        return FaultSpec(model=item)
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[0], str)
        and isinstance(item[1], Mapping)
    ):
        return FaultSpec(model=item[0], params=item[1])
    raise ValueError(
        f"malformed fault spec {item!r}: expected a FaultSpec, a model name, "
        f"or a (name, params) pair"
    )


class FaultContext:
    """Everything a fault model may consult when compiling a schedule.

    Wraps the topology, epoch grid and attached ground stations of one
    scenario group, and lazily caches the derived quantities several models
    share (the batched Earth-fixed position stack, plane/shell membership
    keys).  ``station_names`` must be the *scenario's own* station subset --
    never a sweep-wide union -- so a compiled schedule depends only on the
    scenario's definition, exactly as if it ran through an independent
    simulator (:meth:`with_stations` derives subset contexts that share the
    expensive caches).
    """

    def __init__(
        self,
        topology,
        epochs: Sequence[Epoch],
        station_names: Iterable[str] = (),
    ):
        self.topology = topology
        self.epochs = list(epochs)
        if not self.epochs:
            raise ValueError("fault context requires at least one epoch")
        self.station_names = tuple(station_names)
        # The position stack and group keys depend only on (topology,
        # epochs); a shared mutable cache lets every with_stations()
        # derivative of one sweep reuse them.
        self._cache: dict = {"positions": None, "group_keys": {}}

    def with_stations(self, station_names: Iterable[str]) -> "FaultContext":
        """Return a context for another station subset, sharing the caches."""
        derived = FaultContext(self.topology, self.epochs, station_names)
        derived._cache = self._cache
        return derived

    @property
    def steps(self) -> int:
        """Number of time steps of the sweep."""
        return len(self.epochs)

    @property
    def satellite_count(self) -> int:
        """Number of satellites of the topology."""
        return self.topology.satellite_count

    def positions_ecef(self) -> np.ndarray:
        """Return (and cache) the ``(T, N, 3)`` Earth-fixed position stack."""
        if self._cache["positions"] is None:
            self._cache["positions"] = self.topology.positions_ecef_over(self.epochs)
        return self._cache["positions"]

    def group_keys(self, scope: str) -> np.ndarray:
        """Return per-satellite group ordinals for correlated outages.

        ``scope="plane"`` groups satellites by (shell, plane); ``"shell"``
        by shell alone (every satellite of a single-shell topology shares
        shell 0).  Ordinals follow first appearance in node-id order, so the
        mapping is deterministic for a given topology.
        """
        if scope not in ("plane", "shell"):
            raise ValueError(f"scope must be 'plane' or 'shell', got {scope!r}")
        keys = self._cache["group_keys"].get(scope)
        if keys is None:
            order: dict = {}
            ordinals = []
            for _, attributes in self.topology.graph_nodes():
                shell = attributes.get("shell", 0)
                key = (shell, attributes["plane"]) if scope == "plane" else shell
                ordinals.append(order.setdefault(key, len(order)))
            keys = np.asarray(ordinals, dtype=np.intp)
            self._cache["group_keys"][scope] = keys
        return keys

    def group_count(self, scope: str) -> int:
        """Number of distinct groups under ``scope``."""
        keys = self.group_keys(scope)
        return int(keys.max()) + 1 if keys.size else 0


class FaultSchedule:
    """Compiled per-step outage masks and capacity factors of one sweep.

    The dense, picklable product of fault compilation: boolean up/down masks
    and ``[0, 1]`` capacity factors for every satellite and every ground
    station at every step.  :class:`~repro.network.topology.SnapshotSequence`
    applies these on top of its precomputed feasibility tensors -- a link
    exists only while both endpoints are up, and carries
    ``capacity * min(factor_a, factor_b)`` -- so masked snapshots cost one
    extra vectorised pass, never per-edge Python work.
    """

    def __init__(
        self,
        satellite_up: np.ndarray,
        satellite_factor: np.ndarray,
        station_names: tuple[str, ...],
        station_up: np.ndarray,
        station_factor: np.ndarray,
    ):
        self.satellite_up = np.asarray(satellite_up, dtype=bool)
        self.satellite_factor = np.asarray(satellite_factor, dtype=float)
        self.station_names = tuple(station_names)
        self.station_up = np.asarray(station_up, dtype=bool)
        self.station_factor = np.asarray(station_factor, dtype=float)
        steps = self.satellite_up.shape[0]
        if self.satellite_factor.shape != self.satellite_up.shape:
            raise ValueError("satellite mask and factor shapes must match")
        expected = (steps, len(self.station_names))
        if self.station_up.shape != expected or self.station_factor.shape != expected:
            raise ValueError("station mask shapes must be (steps, n_stations)")
        self._columns = {name: index for index, name in enumerate(self.station_names)}

    # -- construction ------------------------------------------------------------

    @classmethod
    def healthy(
        cls, steps: int, satellite_count: int, station_names: Iterable[str] = ()
    ) -> "FaultSchedule":
        """Return an all-up schedule (the identity for :meth:`combined`)."""
        names = tuple(station_names)
        return cls(
            satellite_up=np.ones((steps, satellite_count), dtype=bool),
            satellite_factor=np.ones((steps, satellite_count)),
            station_names=names,
            station_up=np.ones((steps, len(names)), dtype=bool),
            station_factor=np.ones((steps, len(names))),
        )

    def combined(self, other: "FaultSchedule") -> "FaultSchedule":
        """Compose two schedules: outages AND together, factors multiply."""
        if self.station_names != other.station_names:
            raise ValueError("schedules to combine must share the station table")
        if self.satellite_up.shape != other.satellite_up.shape:
            raise ValueError("schedules to combine must share the time/satellite grid")
        return FaultSchedule(
            satellite_up=self.satellite_up & other.satellite_up,
            satellite_factor=self.satellite_factor * other.satellite_factor,
            station_names=self.station_names,
            station_up=self.station_up & other.station_up,
            station_factor=self.station_factor * other.station_factor,
        )

    # -- introspection -----------------------------------------------------------

    @property
    def steps(self) -> int:
        """Number of time steps the schedule covers."""
        return self.satellite_up.shape[0]

    @property
    def satellite_count(self) -> int:
        """Number of satellites the schedule covers."""
        return self.satellite_up.shape[1]

    def station_column(self, name: str) -> int:
        """Return the station's column, or raise a clear error."""
        try:
            return self._columns[name]
        except KeyError:
            raise ValueError(
                f"station {name!r} is not covered by this fault schedule; "
                f"covered: {sorted(self.station_names)}"
            ) from None

    def satellites_up_fraction(self, step: int) -> float:
        """Fraction of satellites up at ``step``."""
        return float(np.mean(self.satellite_up[step]))

    def stations_up_fraction(self, step: int, names: Iterable[str] | None = None) -> float:
        """Fraction of (the selected) stations up at ``step``."""
        if names is None:
            columns = np.arange(len(self.station_names))
        else:
            columns = np.asarray([self.station_column(name) for name in names], dtype=np.intp)
        if columns.size == 0:
            return 1.0
        return float(np.mean(self.station_up[step, columns]))


# -- model implementations -------------------------------------------------------


class MissingSeedWarning(UserWarning):
    """A stochastic fault model was compiled without an explicit ``seed``.

    The stream still defaults to ``seed=0`` -- results stay deterministic --
    but relying on the implicit default makes it easy to compile two
    "independent" fault axes from the *same* stream.  Pass ``seed``
    explicitly to silence this.
    """


def _seeded_rng(params: Mapping) -> np.random.Generator:
    """Return the spec's deterministic random stream (``seed`` param)."""
    if "seed" not in params:
        warnings.warn(
            "stochastic fault model compiled without an explicit 'seed' "
            "parameter; defaulting to seed=0 (pass seed=... to silence)",
            MissingSeedWarning,
            stacklevel=2,
        )
    return np.random.default_rng(int(params.get("seed", 0)))


def _sustain(starts: np.ndarray, duration_steps: int) -> np.ndarray:
    """Extend outage starts to ``duration_steps``-long down windows."""
    down = starts.copy()
    for shift in range(1, duration_steps):
        down[shift:] |= starts[:-shift]
    return down


def _window(steps: int, start_step: int, duration_steps) -> np.ndarray:
    """Return the ``(steps,)`` mask of an outage window."""
    window = np.zeros(steps, dtype=bool)
    end = steps if duration_steps is None else min(steps, start_step + int(duration_steps))
    window[min(start_step, steps) : end] = True
    return window


def _check_unit_interval(model: str, name: str, value, upper_inclusive: bool = True) -> None:
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0 or (
        not upper_inclusive and value == 1.0
    ):
        raise ValueError(f"fault model {model!r}: {name} must lie in [0, 1], got {value}")


def _check_count(model: str, name: str, value, minimum: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"fault model {model!r}: {name} must be an integer >= {minimum}, got {value!r}"
        )


class FaultModel(ABC):
    """One fault family: validates parameters and compiles schedules.

    Implementations must be stateless (one shared registry instance serves
    every sweep) and **deterministic**: the same spec compiled against the
    same context must produce bit-identical schedules, whatever the host --
    all randomness flows from the spec's ``seed`` through
    :func:`numpy.random.default_rng`.
    """

    #: Registry name of the model.
    name: ClassVar[str]
    #: Accepted parameter names (``seed`` is always included).
    parameters: ClassVar[frozenset]

    def validate(self, params: Mapping) -> None:
        """Raise :class:`ValueError` for unknown or malformed parameters."""
        unknown = set(params) - set(self.parameters) - {"seed"}
        if unknown:
            raise ValueError(
                f"fault model {self.name!r} got unknown parameters "
                f"{sorted(unknown)}; accepted: {sorted(self.parameters | {'seed'})}"
            )
        if "seed" in params:
            _check_count(self.name, "seed", params["seed"], minimum=0)
        self._validate(dict(params))

    def _validate(self, params: dict) -> None:
        """Model-specific semantic validation hook."""

    def compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        """Validate ``params``, then compile per-step masks over ``context``.

        Validation runs here as well as in :class:`FaultSpec` so callers
        that compile a model directly -- bypassing the spec -- still get a
        loud :class:`ValueError` for a typoed parameter name instead of the
        model silently falling back to its defaults.
        """
        self.validate(params)
        return self._compile(dict(params), context)

    @abstractmethod
    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        """Compile the (validated) spec into per-step masks."""


class RandomSatelliteOutages(FaultModel):
    """Independent random satellite outages with a repair time.

    Parameters: ``rate`` (per-satellite per-step failure hazard, default
    0.05), ``duration_steps`` (outage length, default 1), ``seed``.
    """

    name = "random_satellite"
    parameters = frozenset({"rate", "duration_steps"})

    def _validate(self, params: dict) -> None:
        _check_unit_interval(self.name, "rate", params.get("rate", 0.05))
        _check_count(self.name, "duration_steps", params.get("duration_steps", 1))

    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        rate = float(params.get("rate", 0.05))
        duration = int(params.get("duration_steps", 1))
        starts = _seeded_rng(params).random(
            (context.steps, context.satellite_count)
        ) < rate
        schedule = FaultSchedule.healthy(
            context.steps, context.satellite_count, context.station_names
        )
        schedule.satellite_up &= ~_sustain(starts, duration)
        return schedule


class CorrelatedGroupOutages(FaultModel):
    """Correlated whole-plane (or whole-shell) outages during a window.

    Parameters: ``scope`` ("plane" or "shell", default "plane"), ``count``
    (how many groups fail, default 1) or ``groups`` (explicit group
    ordinals, overriding the seeded random pick), ``start_step`` (default
    0), ``duration_steps`` (default: the rest of the run), ``seed``.
    """

    name = "plane_outage"
    parameters = frozenset({"scope", "count", "groups", "start_step", "duration_steps"})

    def _validate(self, params: dict) -> None:
        scope = params.get("scope", "plane")
        if scope not in ("plane", "shell"):
            raise ValueError(
                f"fault model {self.name!r}: scope must be 'plane' or 'shell', "
                f"got {scope!r}"
            )
        _check_count(self.name, "count", params.get("count", 1))
        _check_count(self.name, "start_step", params.get("start_step", 0), minimum=0)
        if params.get("duration_steps") is not None:
            _check_count(self.name, "duration_steps", params["duration_steps"])
        groups = params.get("groups")
        if groups is not None:
            for group in groups:
                _check_count(self.name, "groups entry", group, minimum=0)

    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        scope = params.get("scope", "plane")
        keys = context.group_keys(scope)
        available = context.group_count(scope)
        groups = params.get("groups")
        if groups is None:
            count = int(params.get("count", 1))
            if count > available:
                # Consistent with the explicit-groups path: an oversized
                # correlated-failure spec must fail loudly, not silently
                # simulate a weaker fault.
                raise ValueError(
                    f"fault model {self.name!r}: count={count} exceeds the "
                    f"topology's {available} {scope}s"
                )
            chosen = _seeded_rng(params).choice(available, size=count, replace=False)
        else:
            chosen = np.asarray(sorted(set(int(group) for group in groups)), dtype=np.intp)
            if chosen.size and chosen.max() >= available:
                raise ValueError(
                    f"fault model {self.name!r}: group ordinal {int(chosen.max())} "
                    f"out of range; topology has {available} {scope}s"
                )
        member = np.isin(keys, chosen)
        window = _window(
            context.steps, int(params.get("start_step", 0)), params.get("duration_steps")
        )
        schedule = FaultSchedule.healthy(
            context.steps, context.satellite_count, context.station_names
        )
        schedule.satellite_up &= ~(window[:, None] & member[None, :])
        return schedule


class RadiationOutages(FaultModel):
    """Radiation-driven failures and degradation from :mod:`repro.radiation`.

    Satellites are ranked by accumulated daily fluence
    (:class:`~repro.radiation.exposure.ExposureCalculator`, electron +
    proton): the top ``degraded_fraction`` is capacity-degraded to
    ``degraded_factor`` for the whole run, and every satellite fails with a
    per-step hazard of ``base_rate`` scaled by its fluence relative to the
    constellation median -- multiplied by ``saa_boost`` on steps where the
    satellite sits inside the high proton-flux (SAA) region, so failures
    cluster on anomaly passes.  Outages last ``duration_steps``.

    Parameters: ``base_rate`` (default 0.01), ``duration_steps`` (default
    3), ``degraded_fraction`` (default 0.25), ``degraded_factor`` (default
    0.5), ``saa_boost`` (default 4.0), ``saa_threshold_fraction`` (default
    0.5, of the peak per-step proton flux), ``exposure_step_s`` (fluence
    sampling interval, default 120), ``seed``.
    """

    name = "radiation"
    parameters = frozenset(
        {
            "base_rate",
            "duration_steps",
            "degraded_fraction",
            "degraded_factor",
            "saa_boost",
            "saa_threshold_fraction",
            "exposure_step_s",
        }
    )

    def _validate(self, params: dict) -> None:
        _check_unit_interval(self.name, "base_rate", params.get("base_rate", 0.01))
        _check_count(self.name, "duration_steps", params.get("duration_steps", 3))
        _check_unit_interval(
            self.name, "degraded_fraction", params.get("degraded_fraction", 0.25)
        )
        _check_unit_interval(
            self.name, "degraded_factor", params.get("degraded_factor", 0.5)
        )
        saa_boost = float(params.get("saa_boost", 4.0))
        if not np.isfinite(saa_boost) or saa_boost < 1.0:
            raise ValueError(
                f"fault model {self.name!r}: saa_boost must be >= 1, got {saa_boost}"
            )
        _check_unit_interval(
            self.name,
            "saa_threshold_fraction",
            params.get("saa_threshold_fraction", 0.5),
        )
        step_s = float(params.get("exposure_step_s", 120.0))
        if not np.isfinite(step_s) or step_s <= 0.0:
            raise ValueError(
                f"fault model {self.name!r}: exposure_step_s must be positive, "
                f"got {step_s}"
            )

    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        from ..radiation.exposure import ExposureCalculator

        base_rate = float(params.get("base_rate", 0.01))
        duration = int(params.get("duration_steps", 3))
        degraded_fraction = float(params.get("degraded_fraction", 0.25))
        degraded_factor = float(params.get("degraded_factor", 0.5))
        saa_boost = float(params.get("saa_boost", 4.0))
        saa_threshold = float(params.get("saa_threshold_fraction", 0.5))
        calculator = ExposureCalculator(step_s=float(params.get("exposure_step_s", 120.0)))

        # Per-satellite accumulated dose (cached inside the calculator per
        # distinct (altitude, inclination, RAAN), so Walker shells are cheap).
        fluences = calculator.constellation_fluences(
            [node.elements for node in context.topology.nodes]
        )
        total = np.array([fluence.electron + fluence.proton for fluence in fluences])
        median = float(np.median(total))
        relative = total / median if median > 0.0 else np.ones_like(total)

        schedule = FaultSchedule.healthy(
            context.steps, context.satellite_count, context.station_names
        )
        if degraded_fraction > 0.0 and total.size:
            threshold = np.quantile(total, 1.0 - degraded_fraction)
            schedule.satellite_factor[:, total >= threshold] = degraded_factor

        hazard = np.broadcast_to(
            base_rate * relative, (context.steps, context.satellite_count)
        ).copy()
        if saa_boost > 1.0:
            # Steps spent inside the high proton-flux region (the SAA at LEO
            # altitudes) multiply the hazard: failures cluster on passes.
            positions = context.positions_ecef()
            flux = calculator.model.proton_flux(
                positions.reshape(-1, 3)
            ).reshape(context.steps, context.satellite_count)
            peak = float(flux.max()) if flux.size else 0.0
            if peak > 0.0:
                hazard[flux > saa_threshold * peak] *= saa_boost
        np.clip(hazard, 0.0, 1.0, out=hazard)
        starts = _seeded_rng(params).random(hazard.shape) < hazard
        schedule.satellite_up &= ~_sustain(starts, duration)
        return schedule


class StationOutages(FaultModel):
    """Ground-station maintenance or weather windows.

    With ``period_steps`` the outages are deterministic maintenance windows
    of ``duration_steps`` every ``period_steps``, offset by ``offset_steps``
    and staggered ``stagger_steps`` per station (so stations rotate through
    maintenance instead of vanishing together).  Without it, ``rate`` gives
    seeded random weather outages with ``duration_steps`` repair time.

    Parameters: ``stations`` (names, default: every station of the sweep),
    ``period_steps``/``offset_steps``/``stagger_steps`` or ``rate``,
    ``duration_steps`` (default 1), ``seed``.
    """

    name = "station_outage"
    parameters = frozenset(
        {"stations", "rate", "duration_steps", "period_steps", "offset_steps", "stagger_steps"}
    )

    def _validate(self, params: dict) -> None:
        if params.get("rate") is None and params.get("period_steps") is None:
            raise ValueError(
                f"fault model {self.name!r} requires either 'rate' (random "
                f"weather outages) or 'period_steps' (periodic maintenance)"
            )
        if params.get("rate") is not None:
            _check_unit_interval(self.name, "rate", params["rate"])
        if params.get("period_steps") is not None:
            _check_count(self.name, "period_steps", params["period_steps"])
        _check_count(self.name, "duration_steps", params.get("duration_steps", 1))
        _check_count(self.name, "offset_steps", params.get("offset_steps", 0), minimum=0)
        _check_count(self.name, "stagger_steps", params.get("stagger_steps", 0), minimum=0)
        stations = params.get("stations")
        if stations is not None and (
            isinstance(stations, str)
            or not all(isinstance(name, str) for name in stations)
        ):
            raise ValueError(
                f"fault model {self.name!r}: stations must be a sequence of names"
            )

    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        selected = params.get("stations")
        selected = context.station_names if selected is None else tuple(selected)
        unknown = set(selected) - set(context.station_names)
        if unknown:
            raise ValueError(
                f"fault model {self.name!r} references stations not attached "
                f"to this sweep: {sorted(unknown)}"
            )
        duration = int(params.get("duration_steps", 1))
        columns = np.asarray(
            [context.station_names.index(name) for name in selected], dtype=np.intp
        )
        if params.get("period_steps") is not None:
            period = int(params["period_steps"])
            offsets = int(params.get("offset_steps", 0)) + int(
                params.get("stagger_steps", 0)
            ) * np.arange(columns.size)
            phase = (np.arange(context.steps)[:, None] - offsets[None, :]) % period
            down = phase < duration
        else:
            rate = float(params["rate"])
            starts = _seeded_rng(params).random((context.steps, columns.size)) < rate
            down = _sustain(starts, duration)
        schedule = FaultSchedule.healthy(
            context.steps, context.satellite_count, context.station_names
        )
        if columns.size:
            schedule.station_up[:, columns] &= ~down
        return schedule


class LinkDegradation(FaultModel):
    """Fractional capacity degradation on a subset of satellites.

    A seeded random ``fraction`` of satellites (or an explicit
    ``satellites`` list of node ids) carries capacity factor ``factor``
    during a window; every link incident to a degraded satellite is scaled
    by the worse endpoint's factor.

    Parameters: ``fraction`` (default 0.2), ``factor`` (default 0.5),
    ``satellites`` (explicit node ids, overrides ``fraction``),
    ``start_step`` (default 0), ``duration_steps`` (default: rest of run),
    ``seed``.
    """

    name = "link_degradation"
    parameters = frozenset(
        {"fraction", "factor", "satellites", "start_step", "duration_steps"}
    )

    def _validate(self, params: dict) -> None:
        _check_unit_interval(self.name, "fraction", params.get("fraction", 0.2))
        _check_unit_interval(self.name, "factor", params.get("factor", 0.5))
        _check_count(self.name, "start_step", params.get("start_step", 0), minimum=0)
        if params.get("duration_steps") is not None:
            _check_count(self.name, "duration_steps", params["duration_steps"])
        satellites = params.get("satellites")
        if satellites is not None:
            for node_id in satellites:
                _check_count(self.name, "satellites entry", node_id, minimum=0)

    def _compile(self, params: Mapping, context: FaultContext) -> FaultSchedule:
        factor = float(params.get("factor", 0.5))
        satellites = params.get("satellites")
        if satellites is None:
            fraction = float(params.get("fraction", 0.2))
            member = _seeded_rng(params).random(context.satellite_count) < fraction
        else:
            member = np.zeros(context.satellite_count, dtype=bool)
            ids = np.asarray([int(node_id) for node_id in satellites], dtype=np.intp)
            if ids.size and ids.max() >= context.satellite_count:
                raise ValueError(
                    f"fault model {self.name!r}: satellite id {int(ids.max())} out "
                    f"of range; topology has {context.satellite_count} satellites"
                )
            member[ids] = True
        window = _window(
            context.steps, int(params.get("start_step", 0)), params.get("duration_steps")
        )
        schedule = FaultSchedule.healthy(
            context.steps, context.satellite_count, context.station_names
        )
        schedule.satellite_factor[window[:, None] & member[None, :]] = factor
        return schedule


#: Fault models addressable by name (scenario definitions use these).
FAULT_MODELS: dict[str, FaultModel] = {
    model.name: model
    for model in (
        RandomSatelliteOutages(),
        CorrelatedGroupOutages(),
        RadiationOutages(),
        StationOutages(),
        LinkDegradation(),
    )
}


def get_fault_model(model: "str | FaultModel") -> FaultModel:
    """Resolve a fault-model instance or registry name to an instance."""
    if isinstance(model, FaultModel):
        return model
    try:
        return FAULT_MODELS[model]
    except KeyError:
        raise ValueError(
            f"unknown fault model {model!r}; available: {sorted(FAULT_MODELS)}"
        ) from None


def compile_faults(
    specs: "Iterable[FaultSpec] | None", context: FaultContext
) -> "FaultSchedule | None":
    """Compile a scenario's fault specs into one combined schedule.

    Returns ``None`` for an empty spec list (the healthy run), so callers
    can skip mask application entirely.  Specs compose in order: outages AND
    together, capacity factors multiply.
    """
    if specs is None:
        return None
    specs = tuple(specs)
    if not specs:
        return None
    schedule: FaultSchedule | None = None
    for spec in specs:
        compiled = get_fault_model(spec.model).compile(spec.params_dict(), context)
        schedule = compiled if schedule is None else schedule.combined(compiled)
    return schedule
