"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cells  # noqa: E402
import measure  # noqa: E402
from layers import LAYERS, LayerProfiler, layer_of_path  # noqa: E402

#: Self times partition the profiled interval; only float rounding and the
#: few clock reads around the hook's own bookkeeping may separate them.
SELF_TIME_TOLERANCE = 0.01


def test_layer_of_path():
    assert layer_of_path("/x/src/repro/sim/core.py") == "sim"
    assert layer_of_path("/x/src/repro/engine/node.py") == "engine"
    assert layer_of_path("/x/src/repro/__init__.py") == "other"
    assert layer_of_path("/usr/lib/python3/random.py") == "other"


def test_every_workload_builds_deterministic_cells():
    for workload in cells.WORKLOADS:
        first = [c.spec.to_dict() for c in cells.cells_for(workload, 3)]
        again = [c.spec.to_dict() for c in cells.cells_for(workload, 3)]
        other = [c.spec.to_dict() for c in cells.cells_for(workload, 4)]
        assert first == again
        assert first != other
    with pytest.raises(ValueError):
        cells.cells_for("nope", 0)


@pytest.fixture(scope="module")
def profiled_probe():
    cell = cells.probe_crash(5)
    with LayerProfiler() as prof:
        run = measure.run_cell(cell)
    return prof, run


def test_self_times_sum_to_traced_total(profiled_probe):
    prof, _run = profiled_probe
    assert set(prof.self_s) <= set(LAYERS)
    total = sum(prof.self_s.values())
    assert total == pytest.approx(prof.total_s, rel=SELF_TIME_TOLERANCE)
    assert prof.self_s["sim"] > 0 and prof.self_s["engine"] > 0


def test_events_by_layer_sum_exactly_to_kernel_events(profiled_probe):
    prof, run = profiled_probe
    assert sum(prof.events_by_layer.values()) == run.counts["sim.events"]
    assert prof.events_by_layer["engine"] > 0
    assert prof.txns_generated > 0


def test_probe_cells_pass_their_checks_and_repeat_exactly(profiled_probe):
    _prof, traced = profiled_probe
    untraced = measure.run_cell(cells.probe_crash(5))
    assert traced.failures == untraced.failures == []
    assert traced.counts == untraced.counts
    assert untraced.failover_s > 0
    scale = measure.run_cell(cells.probe_scale_out(5))
    assert scale.failures == []
    assert scale.reconfig_s > 0


def test_failed_check_is_reported():
    cell = cells.probe_scale_out(5)
    cell.expect_migrations += 1
    run = measure.run_cell(cell)
    assert any("migrations" in f for f in run.failures)


def test_exits_nonzero_without_a_result_when_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb_steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_declares_what_the_runner_measures(profiled_probe):
    prof, run = profiled_probe
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from layers import layer_metrics

    per_layer = set(layer_metrics([run.counts], prof)) | {
        "trace.overhead", "obs.tracer_wall_ratio",
        "determinism.cross_process_diffs",
    }
    assert per_layer == {m["name"] for m in declared["per_layer"]}
    timed = {"wall_s", "committed_per_wall_s", "setup_s", "peak_rss_mb"}
    pooled = set(measure.pool_outcomes([run]))
    for metric in declared["end_to_end"]:
        assert metric["name"] in timed or metric["name"] in pooled
    assert [w["name"] for w in declared["workloads"]] == list(cells.WORKLOADS)
