"""Run cells, time them, check them, and read what each layer counted.

``run_pass`` executes one workload's cells serially through ``run_spec`` and
returns, per cell, the wall time (cluster construction excluded), the
simulated outcome, the correctness verdicts and the layers' public counters.
Only the benchmark's own files are involved: the program is driven through
its public API and read through counters it already keeps.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster import Cluster
from repro.core.invariants import (
    check_atomicity,
    check_durability,
    check_no_leaked_locks,
)
from repro.experiments import runner as spec_runner

from cells import CRASH_AT, Cell

__all__ = ["CellRun", "pool_outcomes", "run_cell", "run_pass"]


@dataclass
class CellRun:
    """One executed cell: timing, outcome, verdicts and layer counters."""

    name: str
    kind: str
    wall_s: float
    committed: int
    aborted: int
    latencies_s: np.ndarray
    cost_usd: float
    reconfig_s: float
    failover_s: float
    #: Failed checks, as human-readable messages (empty = passed).
    failures: List[str] = field(default_factory=list)
    #: Deterministic per-cell counts (identical for identical seeds).
    counts: Dict[str, float] = field(default_factory=dict)


class _TimedBuild:
    """Stands in for ``Cluster`` inside the runner and times construction.

    Cluster construction is set-up (``setup_s``), not the timed cell, so the
    cell's wall time subtracts it.
    """

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, config):
        t0 = time.perf_counter()
        cluster = Cluster(config)
        self.seconds += time.perf_counter() - t0
        return cluster


def run_cell(cell: Cell) -> CellRun:
    # Reclaim the previous cell's cluster now, untimed: its reference cycles
    # would otherwise be collected inside this cell's timed region.
    gc.collect()
    build = _TimedBuild()
    spec_runner.Cluster = build
    try:
        t0 = time.perf_counter()
        result = spec_runner.run_spec(cell.spec)
        elapsed = time.perf_counter() - t0
    finally:
        spec_runner.Cluster = Cluster
    cluster = result.cluster
    metrics = cluster.metrics
    failures = check_cell(cell, cluster)
    failover_s = 0.0
    if cell.kind in ("crash", "replicated_crash") and metrics.failovers:
        failover_s = metrics.failovers[0][0] - CRASH_AT
    return CellRun(
        name=cell.name,
        kind=cell.kind,
        wall_s=elapsed - build.seconds,
        committed=metrics.total_committed,
        aborted=metrics.total_aborted,
        latencies_s=np.array(
            [v for values in metrics.latencies.values() for v in values]
        ),
        cost_usd=result.cost.total,
        reconfig_s=metrics.migration_duration if cell.kind == "scale_out" else 0.0,
        failover_s=failover_s,
        failures=failures,
        counts=layer_counts(cluster),
    )


def check_cell(cell: Cell, cluster) -> List[str]:
    """Every correctness check the cell must pass; returns the failures."""
    failures: List[str] = []
    live = [cluster.nodes[n] for n in cluster.live_node_ids()]
    logs = cluster.all_logs()
    checks = (
        ("atomicity", lambda: check_atomicity(logs)),
        ("durability", lambda: check_durability(logs, [n.glog for n in live])),
        ("no_leaked_locks", lambda: check_no_leaked_locks(live)),
    )
    for name, check in checks:
        try:
            check()
        except AssertionError as err:
            failures.append(f"{cell.name}: {name}: {err}")
    metrics = cluster.metrics
    if cell.kind == "scale_out":
        if len(live) != cell.expect_members:
            failures.append(
                f"{cell.name}: {len(live)} members, expected {cell.expect_members}"
            )
        if metrics.total_migrations != cell.expect_migrations:
            failures.append(
                f"{cell.name}: {metrics.total_migrations} migrations, "
                f"expected {cell.expect_migrations}"
            )
    if cell.kind in ("crash", "replicated_crash"):
        fencings = cluster.failure_detection_stats()["fencings_committed"]
        if fencings != 1 or len(metrics.failovers) != 1:
            failures.append(
                f"{cell.name}: {fencings} fencings and "
                f"{len(metrics.failovers)} failovers committed, expected 1"
            )
    if cell.kind == "replicated_crash":
        rpo = list(metrics.rpo_samples)
        if not rpo or max(rpo) != 0.0:
            failures.append(f"{cell.name}: rpo_bytes {rpo}, expected [0.0]")
    if metrics.total_committed == 0:
        failures.append(f"{cell.name}: no transaction committed")
    return failures


def layer_counts(cluster) -> Dict[str, float]:
    """The layers' own public counters, summed over the cell's cluster."""
    nodes = list(cluster.nodes.values())
    network = cluster.network
    stats = [n.stats for n in nodes]
    committed = sum(s["committed"] for s in stats)
    hits = sum(n.cache.hits for n in nodes)
    misses = sum(n.cache.misses for n in nodes)
    batches = sum(n.committer.batches_flushed for n in nodes)
    records = sum(n.committer.records_flushed for n in nodes)
    counts: Dict[str, float] = {
        "sim.events": cluster.sim.events_executed,
        "sim.rpc.requests": sum(
            ep.requests_served for ep in network.endpoints.values()
        ),
        "sim.net.messages": network.messages_sent,
        "sim.net.dropped": network.messages_dropped,
        "engine.lock.acquisitions": sum(n.locks.acquisitions for n in nodes),
        "engine.lock.waits": sum(n.locks.waits for n in nodes),
        "engine.lock.conflicts": sum(n.locks.conflicts for n in nodes),
        "engine.gc.batches": batches,
        "engine.gc.records": records,
        "engine.gc.cas_failures": sum(n.committer.cas_failures for n in nodes),
        "engine.txn.committed": committed,
        "engine.txn.two_pc_commits": sum(s["two_pc_commits"] for s in stats),
        "engine.txn.lock_conflict_aborts": sum(s["lock_conflicts"] for s in stats),
        "engine.txn.wrong_node_aborts": sum(s["wrong_node"] for s in stats),
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.evictions": sum(n.cache.evictions for n in nodes),
        "storage.appends": sum(
            s.appends_served for s in cluster.storages.values()
        ),
        "storage.reads": sum(s.reads_served for s in cluster.storages.values()),
        "core.migrations": cluster.metrics.total_migrations,
        "core.failovers": len(cluster.metrics.failovers),
        "core.recovery.passes": len(cluster.recovery_reports),
        "core.recovery.in_doubt": sum(
            r.in_doubt for r in cluster.recovery_reports
        ),
        "coord.requests": 0,
        "txn.committed": cluster.metrics.total_committed,
        "txn.aborted": cluster.metrics.total_aborted,
    }
    if cluster.service is not None:
        service_ep = network.endpoints.get(cluster.service.address)
        if service_ep is not None:
            counts["coord.requests"] = service_ep.requests_served
    detection = {
        "suspicions_raised": 0,
        "stand_downs": 0,
        "renewal_rpcs": 0,
    }
    if cluster._all_detectors:
        detection = cluster.failure_detection_stats()
    counts["core.detector.suspicions"] = detection["suspicions_raised"]
    counts["core.detector.stand_downs"] = detection["stand_downs"]
    counts["core.detector.renewal_rpcs"] = detection["renewal_rpcs"]
    repl = cluster.replicas.stats() if cluster.replicas is not None else {}
    for key in ("ships", "acks", "ship_failures", "bytes_shipped", "quorum_stalls"):
        counts[f"engine.repl.{key}"] = repl.get(key, 0)
    return counts


def run_pass(cells: List[Cell]) -> List[CellRun]:
    """Run every cell once, serially, in declaration order."""
    return [run_cell(cell) for cell in cells]


def pool_outcomes(runs: List[CellRun]) -> Dict[str, float]:
    """The workload's simulated outcomes, pooled over its cells."""
    committed = sum(r.committed for r in runs)
    aborted = sum(r.aborted for r in runs)
    latencies = np.concatenate([r.latencies_s for r in runs])
    return {
        "committed": committed,
        "aborted": aborted,
        "txn_samples": int(latencies.size),
        "txn_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "txn_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "abort_ratio": aborted / (committed + aborted),
        "cost_per_mtxn_usd": sum(r.cost_usd for r in runs) / committed * 1e6,
        "reconfig_s": sum(r.reconfig_s for r in runs),
        "failover_s": sum(r.failover_s for r in runs),
    }
