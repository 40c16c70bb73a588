"""Shared execution kernel: picklable run specs, parallel fan-out.

See :mod:`repro.exec.kernel` for the full story. Typical use::

    from repro.exec import RunSpec, TraceSpec, run_many
    from repro.experiments.workloads import dieselnet_trace, dieselnet_base_config

    specs = [
        RunSpec(trace=TraceSpec.of(dieselnet_trace, "fast", seed),
                config=dieselnet_base_config(seed))
        for seed in range(8)
    ]
    for run in run_many(specs, jobs=4):
        print(run.spec.resolved_config().seed, run.result.describe())
"""

from repro.exec.kernel import (
    RunError,
    RunResult,
    RunSpec,
    TraceSpec,
    build_trace,
    execute,
    resolve_callable,
    run_many,
    trace_cache_clear,
)

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
