"""Closed-loop congestion steering: utilisation feedback into edge weights.

Routing in the simulator has always been open-loop: every step recomputes
static lowest-delay paths that ignore the utilisation the allocator just
measured.  This module closes the loop as a pluggable control plane over
the existing data-plane kernels.  A :class:`SteeringPolicy` -- registered
by name in :data:`STEERING_POLICIES`, mirroring
``FAULT_MODELS``/``TELEMETRY`` -- transforms
each step's edge weights from the *previous* step's per-link utilisation,
which the allocation stage exports as a plain ``(E,)`` array in link-index
order (no label round-trips anywhere on the feedback path).

The control loop is the wanctl idiom (measure, smooth, hysteresis, act)
as whole-array numpy over the snapshot's int64 link codes
(:attr:`~repro.network.backends.SnapshotEdgeList.link_codes`, the one
link encoding, owned by the edge list):

* **EWMA smoothing** -- per-link utilisation folds into an exponentially
  weighted moving average (``alpha`` per step), so one congested step does
  not yank routes around;
* **hysteresis bands with cooldown** -- a link *engages* (starts being
  penalised) only when its smoothed load crosses ``enter_band`` and
  *disengages* only below ``exit_band``; after any flip the link is held
  for ``cooldown_steps`` steps.  Flips suppressed by the cooldown are
  counted as *flap events*, applied flips as *reroutes* -- both surface in
  :class:`~repro.network.simulation.StepStatistics`;
* **per-policy state across steps** -- each scenario of a sweep owns one
  :class:`SteeringController` holding the sorted code table, EWMA vector,
  engagement mask and cooldown counters; controllers are created per run
  (and per process worker, which replays every step in order, so results
  are bit-identical between serial and worker-process sweeps).

Within a step the ordering is::

    steered = controller.steer(edge_list)     # uses *previous* steps' state
    ...route on steered weights, allocate on ORIGINAL capacities...
    controller.observe(edge_list, utilisation)  # fold this step's signal in

Steering only ever scales ``delay_ms`` used for *routing*; capacities,
real link delays and therefore the reported latency statistics are always
taken from the unsteered snapshot: after routing on steered weights the
simulator re-reads true path latencies as a per-flow sum of the unsteered
delays over the incidence its allocation just compiled
(:meth:`~repro.network.alloc_arrays.FlowLinkSystem.flow_totals`).

Multipliers must be finite and positive (:meth:`SteeringController.steer`
rejects anything else, naming the policy), and every shipped policy's are
``>= 1``: steering only makes engaged links *more* expensive.  That is what
lets a steered scenario reuse its snapshot group's open-loop routes.  A
base shortest path that crosses no changed link is still a shortest path
on the steered weights, so the simulator re-solves only the sources, and
re-walks only the flows, whose base path crosses a changed link.  A policy
that lowers any weight (a multiplier in ``(0, 1)``) re-walks every
reachable flow on its steered weights instead.

Shipped policies:

``"static"``
    The identity reference: no state, no weight changes -- bit-identical
    to running without steering (the simulator bypasses the controller
    machinery entirely, so it is also free).

``"utilisation-weighted"``
    Engaged links are scaled by ``1 + gain * smoothed_load``: the hotter a
    link has been, the less attractive it looks, proportionally.

``"congestion-aware"``
    Engaged links (those whose smoothed load crossed the ``enter_band``
    knee) take a flat multiplicative ``penalty`` -- a hard detour
    incentive that reroutes everything with a cheaper alternative while
    keeping the link available (connectivity is never changed).

``"load-spreading"``
    ECMP-ish deterministic perturbation: engaged links get ``1 + jitter *
    h`` where ``h`` is a seeded multiply-shift hash of (link code, step)
    in [0, 1).  Near-tied shortest paths through a hot region then split
    by hash rather than all piling onto the same geometric winner, and the
    split pattern rotates step to step -- deterministically, with no RNG
    state to carry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .backends import SnapshotEdgeList, merge_codes

__all__ = [
    "SteeringPolicy",
    "SteeringController",
    "StaticSteering",
    "UtilisationWeightedSteering",
    "CongestionAwareSteering",
    "LoadSpreadingSteering",
    "STEERING_POLICIES",
    "get_steering_policy",
]


def _hash01(codes: np.ndarray, seed: int, step: int) -> np.ndarray:
    """Deterministic per-(code, seed, step) uniforms in [0, 1).

    The same multiply-shift 64-bit mixing family the count-min sketch
    uses: stateless, endian-stable, identical in every process.
    """
    mask = (1 << 64) - 1
    salt = np.uint64((0x9E3779B97F4A7C15 * (2 * int(seed) + 1)) & mask)
    step_salt = np.uint64((0xBF58476D1CE4E5B9 * (int(step) + 1)) & mask)
    mixed = codes.astype(np.uint64)
    mixed = (mixed ^ salt) + step_salt
    mixed = mixed * np.uint64(0x94D049BB133111EB)
    mixed = mixed ^ (mixed >> np.uint64(29))
    mixed = mixed * np.uint64(0xD6E8FEB86659FD93)
    return (mixed >> np.uint64(40)).astype(float) / float(1 << 24)


class SteeringController:
    """Per-scenario, per-run mutable state of one steering policy.

    Owns the union-aligned state arrays keyed by sorted int64 link codes:
    the EWMA-smoothed utilisation, the hysteresis engagement mask and the
    per-link cooldown counters.  One controller lives for the duration of
    one scenario's sweep (created fresh per run, and per process worker --
    workers replay every step in order, which is what keeps adaptive
    results bit-identical across executors).

    The controller is driven once per step, in order: :meth:`steer` (reads
    the state accumulated over previous steps), then -- after routing and
    allocation -- :meth:`observe` with the step's per-link utilisation,
    then :meth:`step_stats` for the step's observability counters.
    """

    def __init__(self, policy: "SteeringPolicy") -> None:
        self.policy = policy
        self._codes = np.empty(0, dtype=np.int64)  # sorted
        self._ewma = np.empty(0, dtype=float)
        self._engaged = np.empty(0, dtype=bool)
        self._cooldown = np.empty(0, dtype=np.int64)
        self._step = 0
        self._reroutes = 0
        self._flaps = 0
        self._max_smoothed = 0.0

    def steer(self, edge_list: SnapshotEdgeList) -> SnapshotEdgeList:
        """Return the edge list with routing weights steered by past load.

        Only ``delay_ms`` changes (multiplied per engaged link by the
        policy); endpoints, capacities and distances are shared with the
        input, and when no link is engaged the input is returned as-is --
        zero copies, zero cost.  Connectivity is never modified: penalised
        links stay routable, so steering cannot strand a flow that static
        routing could deliver.

        Raises :class:`ValueError`, naming the policy and the value, when the
        policy returns a multiplier that is not finite or not positive.
        """
        self._step += 1
        if not self.policy.adaptive or not self._engaged.any():
            return edge_list
        codes = edge_list.link_codes
        positions = np.searchsorted(self._codes, codes)
        positions = np.minimum(positions, self._codes.size - 1)
        known = self._codes[positions] == codes
        engaged = known & self._engaged[positions]
        if not engaged.any():
            return edge_list
        values = np.asarray(
            self.policy.multipliers(
                self._ewma[positions[engaged]], codes[engaged], self._step
            ),
            dtype=float,
        )
        # NaN and inf weights would turn links into non-edges (csgraph drops
        # them) and non-positive ones corrupt the search: reject them here.
        bad = ~(np.isfinite(values) & (values > 0.0))
        if bad.any():
            name = getattr(self.policy, "name", type(self.policy).__name__)
            raise ValueError(
                f"steering policy {name!r} returned multiplier "
                f"{float(values[bad][0])!r}; multipliers must be finite and > 0"
            )
        multiplier = np.ones(codes.size)
        multiplier[engaged] = values
        return replace(edge_list, delay_ms=edge_list.delay_ms * multiplier)

    def observe(self, edge_list: SnapshotEdgeList, utilisation: np.ndarray) -> None:
        """Fold one step's per-link utilisation (link-index order) in.

        Updates the EWMA over the union of known and current link codes
        (links absent from this snapshot decay toward zero), then applies
        the hysteresis state machine: links crossing ``enter_band`` engage
        and links falling below ``exit_band`` disengage, but only when
        their cooldown has expired -- a suppressed flip is counted as a
        flap event, an applied flip as a reroute and (re)arms the cooldown.
        """
        if not self.policy.adaptive:
            return
        policy = self.policy
        codes = edge_list.link_codes
        utilisation = np.asarray(utilisation, dtype=float)
        merged = merge_codes(self._codes, edge_list.link_lookup[0])
        ewma = np.zeros(merged.size)
        engaged = np.zeros(merged.size, dtype=bool)
        cooldown = np.zeros(merged.size, dtype=np.int64)
        if self._codes.size:
            old = np.searchsorted(merged, self._codes)
            ewma[old] = self._ewma
            engaged[old] = self._engaged
            cooldown[old] = self._cooldown
        signal = np.zeros(merged.size)
        signal[np.searchsorted(merged, codes)] = utilisation
        ewma = (1.0 - policy.alpha) * ewma + policy.alpha * signal
        wants_flip = (~engaged & (ewma >= policy.enter_band)) | (
            engaged & (ewma <= policy.exit_band)
        )
        ready = cooldown == 0
        flips = wants_flip & ready
        engaged ^= flips
        cooldown = np.maximum(cooldown - 1, 0)
        cooldown[flips] = policy.cooldown_steps
        self._reroutes = int(flips.sum())
        self._flaps = int((wants_flip & ~ready).sum())
        self._max_smoothed = float(ewma.max()) if ewma.size else 0.0
        # Drop dead state (disengaged, cooled, decayed to ~zero) so memory
        # tracks the hot set, not every link ever seen.
        keep = engaged | (cooldown > 0) | (ewma > 1e-12)
        self._codes = merged[keep]
        self._ewma = ewma[keep]
        self._engaged = engaged[keep]
        self._cooldown = cooldown[keep]

    def step_stats(self) -> tuple[int, float, int]:
        """Return ``(reroutes, max smoothed utilisation, flaps)`` of the step."""
        return self._reroutes, self._max_smoothed, self._flaps

    @property
    def engaged_count(self) -> int:
        """Number of links currently engaged (penalised)."""
        return int(self._engaged.sum())

    def memory_bytes(self) -> int:
        """Bytes held by the controller's per-link state arrays.

        Pruning (see :meth:`observe`) keeps this proportional to the hot
        link set; the observability layer records it as the
        ``"steering_state_bytes"`` high-watermark gauge so adaptive sweeps
        can verify the state never grows with run length.
        """
        return int(
            self._codes.nbytes
            + self._ewma.nbytes
            + self._engaged.nbytes
            + self._cooldown.nbytes
        )


@dataclass(frozen=True)
class SteeringPolicy(ABC):
    """Base of registry steering policies: control-loop constants + kernel.

    Frozen (policies are shared registry singletons, like fault and
    telemetry models); all mutable per-run state lives in the
    :class:`SteeringController` built by :meth:`controller`.
    """

    #: Registry name of the policy.
    name: ClassVar[str]
    #: Whether the policy reacts to feedback.  The simulator bypasses the
    #: controller machinery entirely for non-adaptive policies, which is
    #: what makes ``"static"`` bit-identical to (and as cheap as) running
    #: with no steering at all.
    adaptive: ClassVar[bool] = True

    #: EWMA weight of the newest step's utilisation (1.0 = no smoothing).
    alpha: float = 0.5
    #: Smoothed utilisation at or above which a link engages.
    enter_band: float = 0.55
    #: Smoothed utilisation at or below which an engaged link disengages.
    exit_band: float = 0.35
    #: Steps a link is held after any engagement flip (anti-flap).
    cooldown_steps: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.exit_band < self.enter_band:
            raise ValueError("bands must satisfy 0 <= exit_band < enter_band")
        if self.cooldown_steps < 0:
            raise ValueError("cooldown_steps must be non-negative")

    def controller(self) -> SteeringController:
        """Return a fresh per-run controller carrying this policy's state."""
        return SteeringController(self)

    @abstractmethod
    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        """Per-engaged-link routing-weight multipliers.

        ``smoothed`` is the EWMA utilisation of the engaged links,
        ``codes`` their link codes and ``step`` the 1-based step counter
        (for policies that rotate deterministically over time).

        Values must be finite and > 0 (:meth:`SteeringController.steer`
        raises otherwise).  Values >= 1 only make links more expensive, so
        the simulator reuses the group's open-loop routes for every flow
        that avoids a changed link; a step with any value in ``(0, 1)``
        takes a full shortest-path solve on the steered weights instead.
        """


@dataclass(frozen=True)
class StaticSteering(SteeringPolicy):
    """The identity reference: open-loop shortest paths, zero overhead."""

    name: ClassVar[str] = "static"
    adaptive: ClassVar[bool] = False

    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        return np.ones(codes.size)


@dataclass(frozen=True)
class UtilisationWeightedSteering(SteeringPolicy):
    """Scale engaged links by ``1 + gain * smoothed_load``."""

    name: ClassVar[str] = "utilisation-weighted"

    #: Weight added per unit of smoothed utilisation.
    gain: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")

    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        return 1.0 + self.gain * smoothed


@dataclass(frozen=True)
class CongestionAwareSteering(SteeringPolicy):
    """Flat multiplicative penalty on links above the utilisation knee.

    The knee *is* the hysteresis ``enter_band``: once a link's smoothed
    load crosses it, every alternative path up to ``penalty`` times longer
    becomes preferable until the link cools below ``exit_band``.
    """

    name: ClassVar[str] = "congestion-aware"

    #: Routing-weight multiplier applied to engaged links.
    penalty: float = 8.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.penalty <= 1.0:
            raise ValueError("penalty must exceed 1.0")

    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        return np.full(codes.size, self.penalty)


@dataclass(frozen=True)
class LoadSpreadingSteering(SteeringPolicy):
    """Deterministic ECMP-ish jitter that splits demand off hot links."""

    name: ClassVar[str] = "load-spreading"

    #: Maximum fractional jitter added to an engaged link's weight.
    jitter: float = 0.75
    #: Hash seed; sweeps vary it to sample different split patterns.
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.jitter <= 0.0:
            raise ValueError("jitter must be positive")

    def multipliers(
        self, smoothed: np.ndarray, codes: np.ndarray, step: int
    ) -> np.ndarray:
        return 1.0 + self.jitter * _hash01(codes, self.seed, step)


#: Steering policies addressable by name (scenario definitions use these),
#: mirroring :data:`repro.network.faults.FAULT_MODELS`.
STEERING_POLICIES: dict[str, SteeringPolicy] = {
    policy.name: policy
    for policy in (
        StaticSteering(),
        UtilisationWeightedSteering(),
        CongestionAwareSteering(),
        LoadSpreadingSteering(),
    )
}


def get_steering_policy(policy: "str | SteeringPolicy") -> SteeringPolicy:
    """Resolve a policy instance or registry name to a policy instance."""
    if isinstance(policy, SteeringPolicy):
        return policy
    try:
        return STEERING_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown steering policy {policy!r}; available: "
            f"{sorted(STEERING_POLICIES)}"
        ) from None
