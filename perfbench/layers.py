"""Per-layer spans recorded from outside the program.

The benchmark never edits the package under test. Instead, for a
traced run it replaces the public entry points of each layer (a
module-level function or a class method) with a thin wrapper that
accumulates, per span name, the number of calls, the inclusive time
and the self time (inclusive time minus the time of wrapped calls made
inside it). Spans are aggregated in memory as they close, so a layer
called millions of times costs one list update per call, not one
record.

:func:`installed` patches every binding of a wrapped function inside
the ``repro`` package (``from x import f`` copies included) and puts
the originals back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: ``(span name, module, attribute)``. A ``Class.*`` attribute wraps
#: every public method the class itself defines.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("traces.build", "repro.traces.dieselnet", "generate_dieselnet_trace"),
    ("traces.build", "repro.traces.nus", "generate_nus_trace"),
    ("sim.runner.init", "repro.sim.runner", "Simulation.__init__"),
    ("sim.engine.run", "repro.sim.engine", "Simulator.run"),
    ("core.mbt.contacts", "repro.core.mbt", "MobileBitTorrent.handle_contacts"),
    ("core.mbt.internet_sync", "repro.core.mbt", "MobileBitTorrent.internet_sync"),
    ("core.mbt.expire_all", "repro.core.mbt", "MobileBitTorrent.expire_all"),
    ("core.mbt.daily_batch", "repro.core.mbt", "MobileBitTorrent.on_daily_batch"),
    ("core.discovery.candidates", "repro.core.discovery", "build_metadata_candidates"),
    ("core.download.candidates", "repro.core.download", "build_piece_candidates"),
    ("core.credits", "repro.core.credits", "CreditLedger.*"),
    ("core.credits", "repro.core.credits", "ReputationCreditLedger.*"),
    ("catalog.server.search", "repro.catalog.server", "MetadataServer.search"),
    ("catalog.server.top_popular", "repro.catalog.server", "MetadataServer.top_popular"),
    ("catalog.server.publish", "repro.catalog.server", "MetadataServer.publish"),
    ("catalog.server.publish", "repro.catalog.server", "FileServer.publish"),
    ("catalog.server.refresh", "repro.catalog.server", "MetadataServer.refresh_popularities"),
    ("catalog.generator.generate_day", "repro.catalog.generator", "CatalogGenerator.generate_day"),
    ("sim.metrics.result", "repro.sim.metrics", "MetricsCollector.result"),
    ("exec.run_many", "repro.exec.kernel", "run_many"),
)

#: Spans whose returned list length is also summed (candidates built).
COUNTED = frozenset({"core.discovery.candidates", "core.download.candidates"})

#: Attribute under which a sweep worker returns its spans on the RunResult.
SPANS_ATTR = "_perfbench_spans"

#: Per span: [calls, inclusive ns, self ns, items returned].
Stats = Dict[str, List[int]]


class Tracer:
    """Aggregated span table plus the stack of open spans' child time."""

    def __init__(self) -> None:
        self.stats: Stats = {}
        self._stack: List[int] = [0]

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0, 0, 0]
        self._stack[:] = [0]

    def snapshot(self) -> Stats:
        return {name: list(entry) for name, entry in self.stats.items() if entry[0]}

    def merge(self, other: Stats) -> None:
        for name, values in other.items():
            entry = self.stats.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(values):
                entry[i] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        entry = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                stack[-1] += elapsed
            if counted:
                entry[3] += len(result)
            return result

        return traced


def _targets(module_name: str, attr: str) -> Iterator[Tuple[object, str]]:
    module = importlib.import_module(module_name)
    if "." not in attr:
        yield module, attr
        return
    cls_name, method = attr.split(".")
    cls = getattr(module, cls_name)
    if method != "*":
        yield cls, method
        return
    for name, value in vars(cls).items():
        if not name.startswith("_") and callable(value):
            yield cls, name


def _worker_execute(tracer: Tracer, original: Callable, parent_pid: int) -> Callable:
    """``repro.exec.execute`` that ships a sweep worker's spans home.

    Pool workers are forked from the benchmark, so they inherit the
    wrapped layers; each spec starts from an empty table and returns
    it on the result. Inline (single-process) execution records into
    the parent's table directly.
    """

    @functools.wraps(original)
    def execute(spec):
        if os.getpid() == parent_pid:
            return original(spec)
        tracer.reset()
        run = original(spec)
        object.__setattr__(run, SPANS_ATTR, tracer.snapshot())
        return run

    return execute


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer in :data:`LAYERS`; restore the originals on exit."""
    restore: List[Tuple[object, str, object]] = []

    def rebind(original: object, replacement: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, value))
                    setattr(mod, key, replacement)

    try:
        for name, module_name, attr in LAYERS:
            for owner, key in _targets(module_name, attr):
                original = vars(owner)[key]
                wrapped = tracer.wrap(name, original)
                if isinstance(owner, type):
                    restore.append((owner, key, original))
                    setattr(owner, key, wrapped)
                else:
                    rebind(original, wrapped)
        kernel = importlib.import_module("repro.exec.kernel")
        rebind(kernel.execute, _worker_execute(tracer, kernel.execute, os.getpid()))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
