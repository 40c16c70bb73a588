"""The shared execution kernel: picklable run specs + process fan-out.

Every experiment harness in the repository — the figure and extension
panels, the benchmark suite and the CLI — reduces to the same
primitive: *run one simulation for one (trace, config) pair*. This
module makes that primitive a first-class, picklable value so a flat
list of runs can be executed serially or fanned out across worker
processes with bitwise-identical results:

* :class:`TraceSpec` — a declarative, picklable description of how to
  build a contact trace (a dotted-path builder plus arguments);
* :class:`RunSpec` — one run: a trace spec, a
  :class:`~repro.sim.runner.SimulationConfig` and an optional seed
  override, plus an opaque ``tag`` that round-trips to the result;
* :func:`execute` — the pure mapping ``RunSpec -> RunResult``;
* :func:`run_many` — one pass over the specs, serially or with one
  future per spec on a :class:`~concurrent.futures.ProcessPoolExecutor`,
  preserving input order.

Errors
------
A spec whose simulation raises, or whose worker process dies
(``BrokenExecutor``), either aborts the sweep (``on_error="fail_fast"``,
the exception propagates) or leaves a :class:`RunError` in its result
slot (``on_error="collect"``). Failed specs are not re-run: simulation
errors are deterministic, and a paper-scale sweep takes seconds, so a
crashed sweep is simply started again.

Determinism
-----------
``execute`` derives all randomness from the spec: the trace builder is
seeded by the spec's arguments and the simulation by
``config.seed`` (or the spec's ``seed`` override), each through its own
``random.Random`` instance. No module-level RNG is consulted, so the
results are independent of execution order and of the process the run
lands in — ``run_many(specs, jobs=4)`` equals ``jobs=1`` exactly.

Trace memo
----------
A sweep reuses one trace across many (x, protocol) cells, so each
process memoizes built traces in a small least-recently-used table
keyed by the full builder recipe (dotted path + every argument). Specs
with unhashable arguments are built every time.

Inline or pool
--------------
:func:`run_many` only spins up a process pool when it can actually
help: with ``jobs <= 1`` or on a single-CPU machine it executes inline —
no pool, no pickling, no fork overhead. Tests that need the real pool
on any host pin ``os.cpu_count`` above one.

Pool workers are handed the module-level :func:`execute` by name, looked
up when :func:`run_many` is called, so a caller that rebinds
``repro.exec.kernel.execute`` (a profiler wrapping every run) reaches
inline runs and, through ``fork``, worker processes alike.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.detlint.hashseed import ensure_hash_seed
from repro.sim.metrics import SimulationResult
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import ContactTrace

__all__ = [
    "RunError",
    "RunResult",
    "RunSpec",
    "TraceSpec",
    "build_trace",
    "execute",
    "resolve_callable",
    "run_many",
    "trace_cache_clear",
]


def resolve_callable(fn: Callable[..., Any]) -> Optional[str]:
    """Dotted ``"module:qualname"`` path of ``fn``, or None.

    Only module-level callables resolve (closures and lambdas carry
    ``<locals>`` or ``<lambda>`` in their qualname and cannot be
    re-imported by a worker). The path is validated by importing it
    back and checking identity.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<locals>" in qualname or "<lambda>" in qualname:
        return None
    try:
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    return f"{module}:{qualname}" if target is fn else None


def _import_callable(path: str) -> Callable[..., Any]:
    module, _, qualname = path.partition(":")
    target: Any = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


@dataclass(frozen=True)
class TraceSpec:
    """Picklable recipe for one contact trace.

    ``builder`` names a module-level callable as ``"module:qualname"``;
    :meth:`build` imports and calls it with ``args``/``kwargs``. Cheap to
    pickle and cacheable by value.
    """

    builder: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, fn: Callable[..., ContactTrace], *args: Any, **kwargs: Any) -> "TraceSpec":
        """Spec for a module-level trace builder and its arguments."""
        path = resolve_callable(fn)
        if path is None:
            raise ValueError(f"{fn!r} is not an importable module-level callable")
        return cls(builder=path, args=tuple(args), kwargs=tuple(sorted(kwargs.items())))

    @property
    def cache_key(self) -> Optional[Tuple[Any, ...]]:
        """Hashable identity for the per-worker cache (None = uncached)."""
        key = (self.builder, self.args, self.kwargs)
        try:
            hash(key)
        except TypeError:
            return None  # unhashable builder arguments: rebuild every time
        return key

    def build(self) -> ContactTrace:
        """Materialize the trace (no caching; see :func:`execute`)."""
        fn = _import_callable(self.builder)
        return fn(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described by picklable data.

    ``seed`` (when not None) overrides ``config.seed``; ``tag`` is an
    opaque tuple of ``(key, value)`` pairs that round-trips unchanged to
    the :class:`RunResult`, letting consumers map a flat result list
    back onto their grid (x value, protocol, seed, …).
    """

    trace: TraceSpec
    config: SimulationConfig
    seed: Optional[int] = None
    tag: Tuple[Tuple[str, Any], ...] = ()

    def resolved_config(self) -> SimulationConfig:
        """The config actually run (seed override applied)."""
        if self.seed is None:
            return self.config
        return replace(self.config, seed=self.seed)

    def labels(self) -> Dict[str, Any]:
        """The tag as a plain dict."""
        return dict(self.tag)

    @staticmethod
    def make_tag(**labels: Any) -> Tuple[Tuple[str, Any], ...]:
        """Build a deterministic tag tuple from keyword labels."""
        return tuple(sorted(labels.items()))


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`execute`: the spec, its result and wall time."""

    spec: RunSpec
    result: SimulationResult
    wall_time: float


@dataclass(frozen=True)
class RunError:
    """Failure of one spec (``on_error="collect"`` slot value).

    ``error`` is ``"ExceptionType: message"`` of the exception the
    simulation raised, or of the ``BrokenExecutor`` that a dead worker
    process left behind.
    """

    spec: RunSpec
    error: str

    def labels(self) -> Dict[str, Any]:
        """The spec's tag as a plain dict (mirrors ``RunSpec.labels``)."""
        return dict(self.spec.tag)


#: Distinct traces one process keeps built. Bounded so a long-lived
#: worker sweeping many trace parameters cannot grow without limit;
#: eviction is least-recently-used, so a sweep's hot trace stays cached
#: however many cold ones pass through.
_TRACE_CACHE_LIMIT = 16


@functools.lru_cache(maxsize=_TRACE_CACHE_LIMIT)
def _cached_build(spec: TraceSpec) -> ContactTrace:
    # A spec's equality and hash are those of its recipe
    # (builder, args, kwargs), so this memo is keyed by that triple.
    return spec.build()


def build_trace(spec: TraceSpec) -> ContactTrace:
    """Materialize a trace through this process's trace memo."""
    if spec.cache_key is None:
        return spec.build()
    return _cached_build(spec)


def trace_cache_clear() -> None:
    """Drop this process's trace memo (cold-cache tests and benches)."""
    _cached_build.cache_clear()


def execute(spec: RunSpec) -> RunResult:
    """Run one spec to completion (pure: output depends only on the spec).

    With ``REPRO_DETCHECK`` enabled (see
    :mod:`repro.detlint.sanitizer`), the run is executed under the
    runtime sanitizer — double-run fingerprint cross-check, global-RNG
    guard and hash-seed verification — and the first run's result is
    returned, so sanitized and unsanitized executions are
    interchangeable. The environment variable is inherited by pool
    workers, covering parallel sweeps too.
    """
    # Pin PYTHONHASHSEED before the run so the recorded
    # detcheck.pythonhashseed counter is identical whether this spec
    # executes inline or in a worker.
    ensure_hash_seed()
    start = time.perf_counter()
    trace = build_trace(spec.trace)
    from repro.detlint import sanitizer  # deferred: pulls in hashing/json only

    if sanitizer.detcheck_enabled():
        result = sanitizer.checked_run(trace, spec.resolved_config())
    else:
        result = Simulation(trace, spec.resolved_config()).run()
    return RunResult(spec=spec, result=result, wall_time=time.perf_counter() - start)


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    *,
    on_error: str = "fail_fast",
) -> List[Union[RunResult, RunError]]:
    """Execute every spec once, preserving input order.

    ``jobs`` <= 1 (the default) runs serially in-process; larger values
    submit each spec as its own future to one
    :class:`ProcessPoolExecutor` with up to ``jobs`` workers — unless the
    machine has a single CPU, where the pool cannot pay for itself and
    the sweep runs inline with no pickling or fork overhead. Results are
    identical either way — specs are self-contained and :func:`execute`
    consults no shared mutable state.

    ``on_error="fail_fast"`` (the default) re-raises the first failure
    in input order: the simulation's own exception, or the
    ``BrokenExecutor`` of a worker that died. ``"collect"`` puts a
    :class:`RunError` in the failed spec's slot and keeps going; a dead
    worker breaks the pool, so every spec still unfinished at that
    moment is collected as failed too.
    """
    specs = list(specs)
    # Worker bootstrap: pool workers inherit the parent environment, so
    # pinning PYTHONHASHSEED here (when the caller left it unset)
    # guarantees every spawned interpreter runs unsalted — and that the
    # detcheck.pythonhashseed counter recorded by each run is identical
    # across serial and parallel executions of the same sweep.
    ensure_hash_seed()
    jobs = 1 if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if on_error not in ("fail_fast", "collect"):
        raise ValueError(f'on_error must be "fail_fast" or "collect", got {on_error!r}')

    results: List[Union[RunResult, RunError]] = []

    def settle(spec: RunSpec, outcome: Callable[[], RunResult]) -> None:
        try:
            results.append(outcome())
        except Exception as exc:
            if on_error == "fail_fast":
                raise
            results.append(RunError(spec=spec, error=f"{type(exc).__name__}: {exc}"))

    if jobs == 1 or (os.cpu_count() or 1) <= 1 or not specs:
        for spec in specs:
            settle(spec, functools.partial(execute, spec))
        return results
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    try:
        futures = [pool.submit(execute, spec) for spec in specs]
        for spec, future in zip(specs, futures):
            settle(spec, future.result)
    finally:
        # Under fail_fast, specs not yet started are dropped, not run.
        pool.shutdown(wait=True, cancel_futures=True)
    return results
