"""Per-layer split of a traced run, measured from outside the program.

:class:`LayerProfiler` installs a ``sys.setprofile`` hook.  A *layer* is a
``repro.<package>`` (``sim``, ``engine``, ``storage``, ...); C functions are
the ``builtins`` layer and any other Python code is ``other``.  The hook
opens a span whenever a call crosses from one layer into another and closes
it when that call returns, so each layer's self time is the wall time spent
with its code on top of the stack, children in other layers excluded.  The
self times partition the profiled interval exactly.

The hook also attributes every event the simulation kernel executes to the
layer whose code the event runs: a call made directly by
``Simulator.run``/``Simulator.step`` is one event.  A process resumption
(``Process._step`` / ``Process._resume_from_future``) counts for the module
of the generator it resumes -- the innermost one of a ``yield from`` chain,
which is the code that actually runs.

The hook costs every Python call a Python-level callback, so traced wall
time is several times untraced wall time and leans toward call-heavy layers
(``trace.overhead`` reports the ratio).  Counts are exact.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from types import GeneratorType
from typing import Dict

from repro.sim.core import Process, Simulator
from repro.workload.tpcc import TpccWorkload
from repro.workload.ycsb import YcsbWorkload

__all__ = ["LAYERS", "LayerProfiler", "layer_metrics", "layer_of_path"]

#: Layers reported by the traced run, in report order.
LAYERS = (
    "sim",
    "engine",
    "storage",
    "workload",
    "core",
    "coord",
    "cluster",
    "chaos",
    "experiments",
    "obs",
    "builtins",
    "other",
)

_KERNEL_LOOPS = frozenset((Simulator.run.__code__, Simulator.step.__code__))
_RESUMES = frozenset(
    (Process._step.__code__, Process._resume_from_future.__code__)
)
#: C functions the kernel loop calls to pop its queues (not events).
_KERNEL_POPS = frozenset(("heappop", "popleft"))
#: Calls counted as ``workload.txns_generated``.
_TXN_GENERATORS = frozenset(
    (YcsbWorkload.next_txn.__code__, TpccWorkload.next_txn.__code__)
)

_SEP = os.sep
_MARK = f"{_SEP}repro{_SEP}"


def layer_of_path(path: str) -> str:
    """``.../repro/<package>/<module>.py`` -> ``<package>``; else ``other``."""
    at = path.rfind(_MARK)
    if at < 0:
        return "other"
    rest = path[at + len(_MARK):]
    package, sep, _module = rest.partition(_SEP)
    return package if sep and package in LAYERS else "other"


class LayerProfiler:
    """Self time and executed events per layer over one profiled interval.

    Use as a context manager around the code to measure; read
    :attr:`self_s`, :attr:`events_by_layer`, :attr:`txns_generated` and
    :attr:`total_s` afterwards.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.events_by_layer: Dict[str, int] = defaultdict(int)
        self.txns_generated = 0
        self.total_s = 0.0
        self._layer_of_code: Dict[object, str] = {}

    def _code_layer(self, code) -> str:
        layer = self._layer_of_code.get(code)
        if layer is None:
            layer = self._layer_of_code[code] = layer_of_path(code.co_filename)
        return layer

    def _event_layer(self, frame) -> str:
        code = frame.f_code
        if code not in _RESUMES:
            return self._code_layer(code)
        proc = frame.f_locals.get("self")
        gen = getattr(proc, "gen", None)
        if gen is None:
            return self._code_layer(code)
        inner = gen.gi_yieldfrom
        while isinstance(inner, GeneratorType):
            gen, inner = inner, inner.gi_yieldfrom
        return self._code_layer(gen.gi_code)

    def __enter__(self) -> "LayerProfiler":
        clock = time.perf_counter
        self_s = self.self_s
        events = self.events_by_layer
        code_layer = self._code_layer
        event_layer = self._event_layer
        # Open spans: (frame or C function that opened it, layer it left).
        spans = []
        state = ["other", 0.0]  # current layer, time it became current

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                caller = frame.f_back
                if caller is not None and caller.f_code in _KERNEL_LOOPS:
                    events[event_layer(frame)] += 1
                if code in _TXN_GENERATORS:
                    self.txns_generated += 1
                layer = code_layer(code)
                if layer != state[0]:
                    now = clock()
                    self_s[state[0]] += now - state[1]
                    spans.append((frame, state[0]))
                    state[0] = layer
                    state[1] = now
            elif event == "return":
                if spans and spans[-1][0] is frame:
                    now = clock()
                    self_s[state[0]] += now - state[1]
                    state[0] = spans.pop()[1]
                    state[1] = now
            elif event == "c_call":
                if (
                    frame.f_code in _KERNEL_LOOPS
                    and arg.__name__ not in _KERNEL_POPS
                ):
                    events["builtins"] += 1
                if state[0] != "builtins":
                    now = clock()
                    self_s[state[0]] += now - state[1]
                    spans.append((arg, state[0]))
                    state[0] = "builtins"
                    state[1] = now
            elif spans and spans[-1][0] is arg:  # c_return / c_exception
                now = clock()
                self_s[state[0]] += now - state[1]
                state[0] = spans.pop()[1]
                state[1] = now

        self._state = state
        self._t0 = state[1] = clock()
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        now = time.perf_counter()
        state = self._state
        self.self_s[state[0]] += now - state[1]
        self.total_s = now - self._t0


def layer_metrics(cell_counts, prof: LayerProfiler) -> Dict[str, float]:
    """Per-layer metrics of one profiled pass.

    ``cell_counts`` holds each cell's layer counters
    (:func:`measure.layer_counts`); they are summed over the pass, and the
    ratios are taken over the sums.
    """
    total: Dict[str, float] = defaultdict(int)
    for counts in cell_counts:
        for key, value in counts.items():
            total[key] += value

    def ratio(num: str, den: str) -> float:
        return total[num] / total[den] if total[den] else 0.0

    total["engine.cache.lookups"] = (
        total["engine.cache.hits"] + total["engine.cache.misses"]
    )
    metrics: Dict[str, float] = {
        name: total[name]
        for name in (
            "sim.events",
            "sim.rpc.requests",
            "sim.net.messages",
            "sim.net.dropped",
            "engine.lock.acquisitions",
            "engine.lock.waits",
            "engine.lock.conflicts",
            "engine.gc.batches",
            "engine.gc.cas_failures",
            "engine.txn.lock_conflict_aborts",
            "engine.txn.wrong_node_aborts",
            "engine.cache.evictions",
            "engine.repl.ships",
            "engine.repl.acks",
            "engine.repl.ship_failures",
            "engine.repl.bytes_shipped",
            "engine.repl.quorum_stalls",
            "storage.appends",
            "storage.reads",
            "core.migrations",
            "core.failovers",
            "core.detector.suspicions",
            "core.detector.stand_downs",
            "core.detector.renewal_rpcs",
            "core.recovery.passes",
            "core.recovery.in_doubt",
            "coord.requests",
        )
    }
    metrics["engine.gc.records_per_batch"] = ratio(
        "engine.gc.records", "engine.gc.batches"
    )
    metrics["engine.txn.two_pc_share"] = ratio(
        "engine.txn.two_pc_commits", "engine.txn.committed"
    )
    metrics["engine.cache.hit_rate"] = ratio(
        "engine.cache.hits", "engine.cache.lookups"
    )
    metrics["workload.txns_generated"] = prof.txns_generated
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = prof.self_s.get(layer, 0.0)
        metrics[f"sim.events_by_layer.{layer}"] = prof.events_by_layer.get(layer, 0)
    metrics["trace.total_s"] = prof.total_s
    return metrics
