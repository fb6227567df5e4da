"""End-to-end benchmark of the Marlin reproduction (one command).

Run from the repository root::

    python3 perfbench/run.py --workload ycsb_steady --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload's end-to-end metrics: set-up time over
repeated fresh-interpreter set-ups, then timed passes over the workload's
cells until ``--seconds`` have elapsed (at least three), reporting medians.
``--trace 1`` makes one pass under the per-layer profiler
(``perfbench/layers.py``) and reports every per-layer metric instead.

Every cell of every pass is checked (atomicity, durability, lock leaks, plus
the cell's own expectations); any failed check, or a count that differs
between two runs of the same seed in this process, fails the run.  Human
readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` carrying exactly
the metrics ``BENCHMARK.json`` declares.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
#: Fresh-interpreter set-ups before each timed pass; ``setup_s`` is the
#: median of all of them (at least 9 per run).
SETUP_SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")


def _child(root: Path, *args: str) -> dict:
    """Run this script in a fresh interpreter; return its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_p75(values):
    if len(values) == 1:
        return values[0], values[0]
    _q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3


def count_diffs(reference: dict, other: dict) -> list:
    """``(cell, "cell:key a != b")`` for every per-cell count that differs."""
    diffs = []
    for cell, counts in reference.items():
        theirs = other.get(cell, {})
        for key, value in counts.items():
            if theirs.get(key) != value:
                diffs.append((cell, f"{cell}:{key} {value} != {theirs.get(key)}"))
    return diffs


class Verdicts:
    """Failed checks and nondeterministic counts across a run's passes."""

    def __init__(self, reference):
        #: Per-cell counts every other same-seed pass must reproduce.
        self.reference = {r.name: r.counts for r in reference}
        self.messages = []
        self.failed = set()
        self.attempted = 0

    def add_pass(self, label: str, runs) -> None:
        self.attempted += len(runs)
        for r in runs:
            self.messages.extend(r.failures)
            if r.failures:
                self.failed.add((label, r.name))
        diffs = count_diffs(self.reference, {r.name: r.counts for r in runs})
        for cell, diff in diffs:
            self.messages.append(f"{label}: nondeterministic count {diff}")
            self.failed.add((label, cell))


# -- child modes ---------------------------------------------------------------


def child_setup(workload: str, seed: int) -> dict:
    """Imports + every cell's spec and Cluster: the set-up ``setup_s`` times."""
    from repro.cluster import Cluster
    from repro.experiments.runner import build_config

    import cells

    built = [Cluster(build_config(c.spec)) for c in cells.cells_for(workload, seed)]
    return {"t_end": time.perf_counter(), "clusters": len(built)}


def child_pass(workload: str, seed: int) -> dict:
    """One untraced pass in a fresh interpreter: wall time and counts."""
    import cells
    import measure

    runs = measure.run_pass(cells.cells_for(workload, seed))
    return {
        "wall_s": sum(r.wall_s for r in runs),
        "counts": {r.name: r.counts for r in runs},
        "failures": {r.name: r.failures for r in runs},
    }


# -- the two run modes ---------------------------------------------------------


def measure_end_to_end(root: Path, workload: str, seed: int, seconds: float):
    import cells
    import measure

    setups = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            out = _child(root, "--child", "setup", "--workload", workload,
                         "--seed", str(seed))
            setups.append(out["t_end"] - t0)

    cell_list = cells.cells_for(workload, seed)
    started = time.perf_counter()
    # Set-up samples are spread between the passes, so one slow stretch of
    # the machine cannot decide the median of either.
    time_setups(SETUP_SAMPLES_PER_PASS)
    passes = [measure.run_pass(cell_list)]
    # Peak memory of one pass (later passes only add allocator slack).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        time_setups(SETUP_SAMPLES_PER_PASS)
        passes.append(measure.run_pass(cell_list))

    verdicts = Verdicts(passes[0])
    for index, runs in enumerate(passes):
        verdicts.add_pass(f"pass {index}", runs)

    walls = [sum(r.wall_s for r in runs) for runs in passes]
    wall, wall_p75 = _median_p75(walls)
    setup, setup_p75 = _median_p75(setups)
    outcome = measure.pool_outcomes(passes[0])
    metrics = {
        "wall_s": wall,
        "committed_per_wall_s": outcome["committed"] / wall,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "txn_p50_ms": outcome["txn_p50_ms"],
        "txn_p99_ms": outcome["txn_p99_ms"],
        "abort_ratio": outcome["abort_ratio"],
        "cost_per_mtxn_usd": outcome["cost_per_mtxn_usd"],
        "reconfig_s": outcome["reconfig_s"],
        "failover_s": outcome["failover_s"],
    }
    print(f"workload {workload} seed {seed}: {len(cell_list)} cells "
          f"({', '.join(c.name for c in cell_list)}), {len(passes)} passes")
    print(f"  wall_s median {wall:.4f} p75 {wall_p75:.4f} n={len(walls)}")
    print(f"  setup_s median {setup:.4f} p75 {setup_p75:.4f} n={len(setups)}")
    print(f"  txn latency over n={outcome['txn_samples']} commits; "
          f"committed {outcome['committed']}, aborted {outcome['aborted']}")
    return metrics, verdicts


def measure_layers(root: Path, workload: str, seed: int):
    import cells
    import measure
    from layers import LAYERS, LayerProfiler, layer_metrics
    from repro.experiments.spec import TraceSpec

    child = _child(root, "--child", "pass", "--workload", workload,
                   "--seed", str(seed))
    cell_list = cells.cells_for(workload, seed)
    with LayerProfiler() as prof:
        runs = measure.run_pass(cell_list)
    off = measure.run_pass(cell_list)
    on = measure.run_pass(
        [replace(c, spec=c.spec.with_(trace=TraceSpec())) for c in cell_list]
    )
    verdicts = Verdicts(runs)
    verdicts.add_pass("profiled", runs)
    verdicts.add_pass("untraced", off)
    verdicts.add_pass("TraceSpec", on)
    verdicts.attempted += len(child["counts"])
    for cell, failures in child["failures"].items():
        verdicts.messages.extend(failures)
        if failures:
            verdicts.failed.add(("fresh interpreter", cell))
    # Across interpreter invocations: reported, not failed (str hashing is
    # salted per process, so hash()-ordered code shows up here).
    cross = count_diffs(verdicts.reference, child["counts"])
    for _cell, diff in cross:
        print(f"  cross-process count differs: {diff}")

    metrics = layer_metrics([r.counts for r in runs], prof)
    attributed = sum(prof.events_by_layer.values())
    if attributed != metrics["sim.events"]:
        verdicts.messages.append(
            f"events by layer sum to {attributed}, "
            f"the kernel executed {metrics['sim.events']}"
        )
        verdicts.failed.add(("profiled", "attribution"))
    metrics["trace.overhead"] = prof.total_s / child["wall_s"]
    metrics["obs.tracer_wall_ratio"] = (
        sum(r.wall_s for r in on) / sum(r.wall_s for r in off)
    )
    metrics["determinism.cross_process_diffs"] = len(cross)

    print(f"workload {workload} seed {seed}: profiled pass {prof.total_s:.3f} s, "
          f"untraced {child['wall_s']:.3f} s (fresh interpreter)")
    for layer in LAYERS:
        print(f"  {layer:12s} self {prof.self_s.get(layer, 0.0):8.3f} s  "
              f"events {prof.events_by_layer.get(layer, 0)}")
    return metrics, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")

    root = Path.cwd()
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
        _import_program(root)
    except (OSError, ValueError, RuntimeError, ImportError) as err:
        return _fail(f"cannot load the benchmark or the program from {root}: {err}")
    import cells

    if args.workload not in cells.WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; expected one of "
            f"{sorted(cells.WORKLOADS)}"
        )

    if args.child == "setup":
        print(json.dumps(child_setup(args.workload, args.seed)))
        return 0
    if args.child == "pass":
        print(json.dumps(child_pass(args.workload, args.seed)))
        return 0

    if args.trace:
        metrics, verdicts = measure_layers(root, args.workload, args.seed)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, verdicts = measure_end_to_end(
            root, args.workload, args.seed, args.seconds
        )
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(metrics) != set(units):
        return _fail(
            f"measured metrics {sorted(set(metrics) ^ set(units))} do not "
            "match BENCHMARK.json"
        )
    for message in verdicts.messages:
        print(f"  CHECK FAILED: {message}")
    correct = not verdicts.messages
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
