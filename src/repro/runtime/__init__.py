"""Parallel Monte-Carlo execution engine.

The runtime layer sits between the stochastic models (:mod:`repro.san`,
:mod:`repro.core`) and the output analysis (:mod:`repro.stats`): it shards
replications into deterministic, seed-stable chunks
(:mod:`~repro.runtime.plan`), executes them on a fault-tolerant process
pool (:mod:`~repro.runtime.pool`), pools per-chunk moment summaries
(:mod:`~repro.runtime.merge`), memoises finished runs in a
content-addressed on-disk cache (:mod:`~repro.runtime.cache`) and reports
throughput/utilization telemetry (:mod:`~repro.runtime.telemetry`).

The headline guarantee: for a fixed seed the merged estimate is
**bit-identical for any worker count** — parallelism changes who computes
a chunk, never what is computed or in which order it is merged.

See ``docs/parallel_runtime.md`` for the architecture notes.
"""

from repro.runtime.cache import ResultCache, cache_key, content_key, fingerprint
from repro.runtime.merge import (
    ChunkSummary,
    combine,
    merge_two,
    pooled_intervals,
)
from repro.runtime.plan import ChunkSpec, ReplicationPlan
from repro.runtime.pool import ParallelResult, ParallelRunner, ReplicationTask
from repro.runtime.telemetry import (
    TelemetryRecorder,
    TelemetrySnapshot,
    WorkerStats,
)

__all__ = [
    "ChunkSpec",
    "ReplicationPlan",
    "ChunkSummary",
    "merge_two",
    "combine",
    "pooled_intervals",
    "ResultCache",
    "cache_key",
    "content_key",
    "fingerprint",
    "ParallelRunner",
    "ParallelResult",
    "ReplicationTask",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "WorkerStats",
]
