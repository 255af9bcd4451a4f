"""Congestion steering: closing the loop between allocation and routing.

Run with:  python examples/steering_sweep.py

Open-loop shortest-path routing sends every flow down the geometrically
best path, whatever yesterday's utilisation said about it.  This example
runs the same faulted constellation -- a correlated plane outage plus a
scatter of zero-capacity links -- under four steering policies from the
``repro.network.steering.STEERING_POLICIES`` registry and compares what
each delivers:

- ``static``              -- the open-loop reference (bit-identical to no
                             steering at all);
- ``utilisation-weighted``-- engaged links scaled by 1 + gain * load;
- ``congestion-aware``    -- flat penalty on links above the hysteresis
                             knee, a hard detour incentive;
- ``sticky-congestion``   -- a tuned congestion-aware variant (instant
                             engagement, no decay-driven disengagement)
                             registered inline, showing that policies are
                             plain frozen dataclasses: construct one with
                             different control constants, drop it in the
                             registry, and every ``Scenario`` can name it.

Each adaptive scenario owns a ``SteeringController`` carrying EWMA-smoothed
per-link utilisation, hysteresis engagement bands and anti-flap cooldowns
across steps; the allocation stage feeds it the per-link utilisation array
it exports in link-index order.  Reported latencies are always re-read
from the *unsteered* delay column -- steered weights are routing
preferences, not physics.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.coverage.walker import WalkerDelta
from repro.demand.traffic_matrix import City, GravityTrafficModel
from repro.network.ground_station import GroundStation
from repro.network.simulation import NetworkSimulator, Scenario
from repro.network.steering import STEERING_POLICIES, CongestionAwareSteering
from repro.network.topology import ConstellationTopology
from repro.orbits.time import Epoch

CITIES = (
    City("London", 51.5, -0.1, 9.6),
    City("New York", 40.7, -74.0, 20.0),
    City("Tokyo", 35.7, 139.7, 37.0),
    City("Sao Paulo", -23.6, -46.6, 22.0),
)

#: One lost plane plus 10% of links at zero capacity: the open-loop routes
#: that cross a dead link strand their demand even though detours exist.
FAULTS = (
    ("plane_outage", {"count": 1, "seed": 7}),
    ("link_degradation", {"factor": 0.0, "fraction": 0.1, "seed": 3}),
)


def main() -> None:
    epoch = Epoch.from_calendar(2025, 3, 20, 12, 0, 0.0)
    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=240, planes=12, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in CITIES]
    simulator = NetworkSimulator(
        topology=topology,
        ground_stations=stations,
        traffic_model=GravityTrafficModel(cities=CITIES, total_demand=40.0),
        flows_per_step=12,
    )

    # Policies are frozen dataclasses: registering a tuned instance under a
    # new name is all it takes to make it addressable from a Scenario.
    STEERING_POLICIES["sticky-congestion"] = CongestionAwareSteering(
        alpha=0.9, enter_band=0.5, exit_band=0.0, cooldown_steps=0, penalty=12.0
    )
    try:
        policies = (
            "static",
            "utilisation-weighted",
            "congestion-aware",
            "sticky-congestion",
        )
        scenarios = [
            Scenario(
                name=policy,
                allocator="proportional_array",
                faults=FAULTS,
                telemetry="exact",
                steering=policy,
            )
            for policy in policies
        ]
        print(
            f"Steering sweep over a faulted {topology.satellite_count}-satellite "
            "Walker constellation (10 h, 1 h steps):"
        )
        sweep = simulator.run_scenarios(scenarios, epoch, duration_hours=10.0)
    finally:
        del STEERING_POLICIES["sticky-congestion"]

    rows = []
    for name, result in sweep.items():
        rows.append(
            [
                name,
                round(result.mean_delivery_ratio(), 3),
                round(result.mean_stranded_gbps(), 2),
                sum(step.steering_reroutes for step in result.steps),
                sum(step.steering_flaps for step in result.steps),
                round(max(step.steering_max_utilisation for step in result.steps), 2),
            ]
        )
    print(
        format_table(
            [
                "policy",
                "delivery",
                "stranded Gbps",
                "reroutes",
                "flaps",
                "max EWMA util",
            ],
            rows,
        )
    )

    static = sweep["static"]
    sticky = sweep["sticky-congestion"]
    recovered = static.mean_stranded_gbps() - sticky.mean_stranded_gbps()
    print(
        f"\nThe sticky policy recovers {recovered:.2f} Gbps of stranded demand "
        "per step by iteratively mapping out the dead links its flows hit and "
        "detouring around them; the default hysteresis (built for transient "
        "congestion, not permanent outages) forgets a dead link a couple of "
        "steps after routing away from it."
    )
    hot = static.sustained_hot_links(3)
    if hot:
        print("\nSustained-hot links of the open-loop run (link telemetry):")
        for a, b, heat in hot:
            print(f"  {a} -- {b}: summed utilisation {heat:.2f}")
    print(
        "\nAdaptive runs are deterministic: fixed fault seeds and the pure-"
        "numpy control loop reproduce these numbers bit for bit across the "
        "serial, thread and process executors."
    )


if __name__ == "__main__":
    main()
