"""The benchmark's workloads: named lists of seeded scenario cells.

Every workload is a fixed list of :class:`Cell` s built from the run's
``--seed``.  A cell is one :class:`repro.experiments.spec.ScenarioSpec`
plus the correctness checks that its finished run must pass.  Cells run
serially in one process through ``run_spec``; nothing here uses the
process pool or the result cache, so every timed cell is real simulation.

See ``perfbench/WORKLOADS.md`` for why each workload exists and which layer
it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chaos.events import Crash
from repro.chaos.scenarios import replica_link_degradation
from repro.engine.replication import planned_followers
from repro.experiments.spec import (
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    scale_out_spec,
)

__all__ = ["Cell", "WORKLOADS", "cells_for"]

#: Quiescence before the atomicity / durability / lock-leak checks.  The
#: runner's default 0.2 s leaves 2PC votes undecided on the steady cell.
SETTLE_S = 1.5

#: The crash lands here in every crash cell (sim seconds).
CRASH_AT = 3.0
CRASH_DOWN_S = 4.0
#: Long enough that all four coordination modes commit their failover
#: (zk-small, the slowest, commits near 14.3 s at this size).
CRASH_HORIZON_S = 20.0

CRASH_MODES = ("marlin", "zk-small", "fdb", "lease")


@dataclass
class Cell:
    """One seeded scenario plus what its finished run must satisfy."""

    name: str
    spec: ScenarioSpec
    #: ``"steady"``, ``"scale_out"``, ``"crash"`` or ``"replicated_crash"``.
    kind: str
    #: Scale-out cells: members and migrations expected at the end.
    expect_members: Optional[int] = None
    expect_migrations: Optional[int] = None


def _crash_schedule() -> list:
    return [
        {
            "at": CRASH_AT,
            "kind": "crash",
            "node": 1,
            "rejoin": True,
            "duration": CRASH_DOWN_S,
        }
    ]


#: The steady cell's table is 3,000 granules x 64 keys at 8 keys/page:
#: 6,000 pages per node, three times a 2,048-page buffer cache, so the cache
#: evicts (the preset's 16,384 pages would never fill within the horizon).
#: 3,000 granules also make lock conflicts frequent enough (~800 aborts per
#: run) that the abort ratio varies little from seed to seed; at 12,000
#: granules a few dozen conflict bursts decide it.
STEADY_GRANULES = 3_000
STEADY_CACHE_PAGES = 2_048


def steady_cell(seed: int) -> Cell:
    """4-node marlin YCSB, 64 closed-loop clients, table larger than cache.

    A quarter of the transactions spill to a second owner, so 2PC runs
    alongside the single-site path.
    """
    spec = ScenarioSpec(
        name="ycsb-steady-marlin",
        topology=TopologySpec(
            nodes=4,
            coordination="marlin",
            node_param_overrides={"cache_pages": STEADY_CACHE_PAGES},
        ),
        workload=WorkloadSpec(
            kind="ycsb",
            clients=64,
            granules=STEADY_GRANULES,
            keys_per_granule=64,
            remote_fraction=0.25,
        ),
        seed=seed,
        duration=28.0,
        settle=SETTLE_S,
    )
    return Cell(spec.name, spec, "steady")


def scale_out_cell(
    system: str,
    seed: int,
    *,
    initial: int = 8,
    added: int = 8,
    clients: int = 16,
    granules: int = 3_200,
    name: Optional[str] = None,
) -> Cell:
    """The paper's section 6.2 scale-out (default 8 -> 16 nodes), light load."""
    spec = scale_out_spec(
        system,
        initial_nodes=initial,
        added_nodes=added,
        clients=clients,
        granules=granules,
        scale_at=1.0,
        tail=4.0,
        seed=seed,
        name=name,
    ).with_(settle=SETTLE_S)
    # Contiguous rebalancing hands each new node an equal share.
    moved = granules * added // (initial + added)
    return Cell(
        spec.name,
        spec,
        "scale_out",
        expect_members=initial + added,
        expect_migrations=moved,
    )


def crash_cell(
    system: str,
    seed: int,
    *,
    clients: int = 16,
    granules: int = 800,
    name: Optional[str] = None,
) -> Cell:
    """One node crashes at t=3 and rejoins 4 s later; detectors on."""
    spec = ScenarioSpec(
        name=name or f"crash-{system}",
        topology=TopologySpec(nodes=4, coordination=system),
        workload=WorkloadSpec(kind="ycsb", clients=clients, granules=granules),
        faults=FaultSpec(schedule=_crash_schedule(), failure_detection=True),
        seed=seed,
        duration=CRASH_HORIZON_S,
        settle=SETTLE_S,
        # A fenced victim rejoins with stale views; the ground-truth checks
        # below (atomicity, durability, locks) are what the cell must pass.
        check_invariants=False,
    )
    return Cell(spec.name, spec, "crash")


def replicated_crash_cell(seed: int) -> Cell:
    """Sync-quorum replica sets (factor 3, quorum 2): lagged primary crash.

    The primary's ship paths degrade at t=1.5 for 1 s, then the primary
    crashes at t=3 and a follower is promoted.  Sync quorum must lose no
    acknowledged byte (``rpo_bytes == 0``).
    """
    victim, factor = 1, 3
    followers = planned_followers(seed, victim, range(4), factor)
    schedule = replica_link_degradation(victim, followers, at=1.5, duration=1.0)
    schedule.at(CRASH_AT, Crash(node=victim, rejoin=True, duration=6.0))
    spec = ScenarioSpec(
        name="replicated-crash-sync-q2",
        topology=TopologySpec(
            nodes=4,
            coordination="marlin",
            replication={"factor": factor, "mode": "sync_quorum", "quorum": 2},
        ),
        # Few clients: this cell's abort count swings most across seeds
        # (2x to 5x), so it is kept small next to the four crash cells.
        workload=WorkloadSpec(
            kind="ycsb", clients=8, granules=800, remote_fraction=0.25
        ),
        faults=FaultSpec(
            schedule=schedule.to_spec(),
            failure_detection=True,
            detector_interval=0.5,
            detector_timeout=0.5,
            detector_misses=3,
        ),
        seed=seed,
        duration=14.0,
        settle=SETTLE_S,
        check_invariants=False,
    )
    return Cell(spec.name, spec, "replicated_crash")


# -- control-plane probes ------------------------------------------------------
#
# Every end-to-end metric must be non-zero on every workload, so a workload
# that does not exercise scale-out (or failover) carries one small, fixed
# probe cell that does.  Each probe is under a tenth of its workload's wall
# time.


def probe_scale_out(seed: int) -> Cell:
    return scale_out_cell(
        "marlin",
        seed,
        initial=2,
        added=2,
        clients=4,
        granules=256,
        name="probe-scale-out-marlin",
    )


def probe_crash(seed: int) -> Cell:
    return crash_cell(
        "marlin", seed, clients=4, granules=64, name="probe-crash-marlin"
    )


def _ycsb_steady(seed: int) -> List[Cell]:
    return [steady_cell(seed), probe_scale_out(seed), probe_crash(seed)]


def _scaleout_reconfig(seed: int) -> List[Cell]:
    return [
        scale_out_cell("marlin", seed),
        scale_out_cell("zk-small", seed),
        probe_crash(seed),
    ]


def _failover_chaos(seed: int) -> List[Cell]:
    cells = [crash_cell(mode, seed) for mode in CRASH_MODES]
    cells.append(replicated_crash_cell(seed))
    cells.append(probe_scale_out(seed))
    return cells


WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "ycsb_steady": _ycsb_steady,
    "scaleout_reconfig": _scaleout_reconfig,
    "failover_chaos": _failover_chaos,
}


def cells_for(workload: str, seed: int) -> List[Cell]:
    """The workload's cells for benchmark seed ``seed`` (>= 0).

    Scenario seeds are ``seed + 1``: a scenario seed of 0 would zero every
    client's RNG seed (client seeds are ``scenario seed x factor``).
    """
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return build(seed + 1)
