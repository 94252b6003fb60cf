"""OpenMetrics / Prometheus text exposition of run telemetry.

Renders either source of run accounting as the standard scrape format:

* a **run ledger** — the ``repro-events/1`` envelopes written by
  :class:`~repro.obs.ledger.RunLedger` (counters from the event stream,
  a wall-seconds histogram from ``ChunkCompleted`` timings);
* an **artifact telemetry dict** — the ``telemetry`` section a
  ``repro-estimates/1`` report embeds
  (:meth:`repro.runtime.telemetry.TelemetrySnapshot.to_dict`), including
  the merged per-activity :class:`~repro.obs.metrics.MetricSummary`.

The output follows the OpenMetrics text exposition conventions that
Prometheus scrapes: one ``# TYPE`` line per family, counters suffixed
``_total``, histograms as ``_bucket{le=...}`` / ``_sum`` / ``_count``
series, and a terminating ``# EOF`` line.  Everything here is pure
rendering — no state, no randomness — and depends on nothing outside
the standard library.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

__all__ = [
    "CHUNK_SECONDS_BUCKETS",
    "render_openmetrics",
    "metrics_from_events",
    "metrics_from_telemetry",
]

#: default ``le`` bucket bounds of the chunk wall-seconds histogram
CHUNK_SECONDS_BUCKETS: tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)


def _fmt(value: float) -> str:
    """Exposition-format a sample value (integers without the .0)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


class _Family:
    """One metric family: TYPE/HELP header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: list[tuple[str, dict, float]] = []

    def add(self, value: float, labels: Optional[dict] = None, suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), float(value)))

    def render(self) -> list[str]:
        lines = [
            f"# TYPE {self.name} {self.kind}",
            f"# HELP {self.name} {self.help_text}",
        ]
        for suffix, labels, value in self.samples:
            if labels:
                body = ",".join(
                    f'{key}="{_escape(val)}"'
                    for key, val in sorted(labels.items())
                )
                lines.append(f"{self.name}{suffix}{{{body}}} {_fmt(value)}")
            else:
                lines.append(f"{self.name}{suffix} {_fmt(value)}")
        return lines


class _Histogram:
    """Cumulative-bucket histogram accumulator."""

    def __init__(self, bounds: Iterable[float] = CHUNK_SECONDS_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self.counts = [0] * len(self.bounds)
        self.inf_count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.inf_count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1

    @property
    def count(self) -> int:
        return self.inf_count

    def fill(self, family: _Family, labels: Optional[dict] = None) -> None:
        labels = dict(labels or {})
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.counts):
            cumulative = bucket
            family.add(
                cumulative, {**labels, "le": _fmt(bound)}, suffix="_bucket"
            )
        family.add(self.inf_count, {**labels, "le": "+Inf"}, suffix="_bucket")
        family.add(self.total, labels, suffix="_sum")
        family.add(self.inf_count, labels, suffix="_count")


def _families_to_text(families: Iterable[_Family]) -> str:
    lines: list[str] = []
    for family in families:
        if family.samples:
            lines.extend(family.render())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# source: ledger event stream
# ----------------------------------------------------------------------
def metrics_from_events(events: Iterable[dict]) -> str:
    """OpenMetrics text from ``repro-events/1`` envelopes."""
    replications = _Family(
        "repro_replications_total", "counter",
        "Replications completed, summed over ChunkCompleted events.",
    )
    chunks = _Family(
        "repro_chunks_total", "counter", "Chunks completed.",
    )
    scheduled = _Family(
        "repro_chunks_scheduled_total", "counter", "Chunks scheduled.",
    )
    retries = _Family(
        "repro_retries_total", "counter", "Chunk attempts retried.",
    )
    failures = _Family(
        "repro_chunk_failures_total", "counter",
        "Chunks that exhausted their retries.",
    )
    cache = _Family(
        "repro_cache_lookups_total", "counter",
        "Content-addressed cache lookups by result.",
    )
    sim_events = _Family(
        "repro_sim_events_total", "counter",
        "Simulation events executed, summed over ChunkCompleted events.",
    )
    draws = _Family(
        "repro_rng_draws_total", "counter",
        "RNG draws consumed, summed over ChunkCompleted events.",
    )
    rounds = _Family(
        "repro_rounds_total", "counter", "Orchestrator rounds allocated.",
    )
    workers = _Family(
        "repro_workers", "gauge", "Configured worker-process count.",
    )
    elapsed = _Family(
        "repro_run_elapsed_seconds", "gauge",
        "Wall-clock seconds between the first and last ledger event.",
    )
    finished = _Family(
        "repro_run_finished", "gauge",
        "1 once a RunFinished event was recorded, by outcome.",
    )
    stops = _Family(
        "repro_budget_stops_total", "counter",
        "Budget-ledger stop decisions by reason.",
    )
    chunk_seconds = _Family(
        "repro_chunk_seconds", "histogram",
        "Worker-side wall seconds per completed chunk.",
    )

    histogram = _Histogram()
    totals = {
        "replications": 0, "chunks": 0, "scheduled": 0, "retries": 0,
        "failures": 0, "hits": 0, "misses": 0, "events": 0, "draws": 0,
        "rounds": 0,
    }
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    workers_seen: Optional[int] = None
    outcome: Optional[str] = None
    stop_reasons: dict[str, int] = {}

    for envelope in events:
        ts = envelope.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = ts if first_ts is None else first_ts
            last_ts = ts
        name = envelope.get("event")
        data = envelope.get("data") or {}
        if name == "RunStarted":
            workers_seen = int(data.get("workers", workers_seen or 1))
        elif name == "ChunkScheduled":
            totals["scheduled"] += 1
        elif name == "ChunkCompleted":
            totals["chunks"] += 1
            totals["replications"] += int(data.get("n", 0))
            totals["events"] += int(data.get("events", 0))
            totals["draws"] += int(data.get("draws", 0))
            histogram.observe(float(data.get("elapsed_seconds", 0.0)))
        elif name == "ChunkRetried":
            totals["retries"] += 1
        elif name == "ChunkFailed":
            totals["failures"] += 1
        elif name == "CacheHit":
            totals["hits"] += 1
        elif name == "CacheMiss":
            totals["misses"] += 1
        elif name == "RoundAllocated":
            totals["rounds"] = max(
                totals["rounds"], int(data.get("round", 0)) + 1
            )
        elif name == "BudgetStopped":
            reason = str(data.get("reason", "unknown"))
            stop_reasons[reason] = stop_reasons.get(reason, 0) + 1
        elif name == "RunFinished":
            outcome = str(data.get("outcome", "unknown"))

    replications.add(totals["replications"])
    chunks.add(totals["chunks"])
    scheduled.add(totals["scheduled"])
    retries.add(totals["retries"])
    failures.add(totals["failures"])
    if totals["hits"] or totals["misses"]:
        cache.add(totals["hits"], {"result": "hit"})
        cache.add(totals["misses"], {"result": "miss"})
    if totals["events"]:
        sim_events.add(totals["events"])
    if totals["draws"]:
        draws.add(totals["draws"])
    if totals["rounds"]:
        rounds.add(totals["rounds"])
    if workers_seen is not None:
        workers.add(workers_seen)
    if first_ts is not None and last_ts is not None:
        elapsed.add(max(0.0, last_ts - first_ts))
    if outcome is not None:
        finished.add(1, {"outcome": outcome})
    for reason in sorted(stop_reasons):
        stops.add(stop_reasons[reason], {"reason": reason})
    if histogram.count:
        histogram.fill(chunk_seconds)

    return _families_to_text(
        (
            replications, chunks, scheduled, retries, failures, cache,
            sim_events, draws, rounds, workers, elapsed, finished, stops,
            chunk_seconds,
        )
    )


# ----------------------------------------------------------------------
# source: artifact telemetry dict
# ----------------------------------------------------------------------
def metrics_from_telemetry(telemetry: dict) -> str:
    """OpenMetrics text from an artifact's ``telemetry`` section.

    Accepts the dict produced by
    :meth:`repro.runtime.telemetry.TelemetrySnapshot.to_dict` (as
    embedded in ``repro-estimates/1`` artifacts), including the
    optional merged per-activity ``activity_metrics`` summary.
    """
    replications = _Family(
        "repro_replications_total", "counter",
        "Replications completed over the run.",
    )
    chunks = _Family("repro_chunks_total", "counter", "Chunks completed.")
    retries = _Family(
        "repro_retries_total", "counter", "Chunk attempts retried.",
    )
    fallbacks = _Family(
        "repro_fallbacks_total", "counter",
        "Chunks that fell back to in-process execution.",
    )
    cache = _Family(
        "repro_cache_lookups_total", "counter",
        "Content-addressed cache lookups by result.",
    )
    sim_events = _Family(
        "repro_sim_events_total", "counter", "Simulation events executed.",
    )
    draws = _Family(
        "repro_rng_draws_total", "counter", "RNG draws consumed.",
    )
    workers = _Family(
        "repro_workers", "gauge", "Configured worker-process count.",
    )
    elapsed = _Family(
        "repro_run_elapsed_seconds", "gauge", "Run wall-clock seconds.",
    )
    busy = _Family(
        "repro_worker_busy_seconds_total", "counter",
        "Busy worker-side wall seconds by worker.",
    )
    worker_units = _Family(
        "repro_worker_units_total", "counter",
        "Units completed by worker.",
    )
    point_seconds = _Family(
        "repro_point_busy_seconds_total", "counter",
        "Busy worker-side wall seconds by sweep point.",
    )
    firings = _Family(
        "repro_activity_firings_total", "counter",
        "Activity firings from the merged metric summary.",
    )
    absorptions = _Family(
        "repro_absorptions_total", "counter",
        "Absorbing outcomes from the merged metric summary.",
    )

    replications.add(int(telemetry.get("units", 0)))
    chunks.add(int(telemetry.get("chunks", 0)))
    retries.add(int(telemetry.get("retries", 0)))
    fallbacks.add(int(telemetry.get("fallbacks", 0)))
    hits = int(telemetry.get("cache_hits", 0))
    misses = int(telemetry.get("cache_misses", 0))
    if hits or misses:
        cache.add(hits, {"result": "hit"})
        cache.add(misses, {"result": "miss"})
    if telemetry.get("events"):
        sim_events.add(int(telemetry["events"]))
    if telemetry.get("draws"):
        draws.add(int(telemetry["draws"]))
    workers.add(int(telemetry.get("workers", 1)))
    elapsed.add(float(telemetry.get("elapsed_seconds", 0.0)))
    for worker, stats in sorted((telemetry.get("per_worker") or {}).items()):
        busy.add(float(stats.get("busy_seconds", 0.0)), {"worker": worker})
        worker_units.add(int(stats.get("units", 0)), {"worker": worker})
    for point, seconds in sorted(
        (telemetry.get("point_seconds") or {}).items()
    ):
        point_seconds.add(float(seconds), {"point": point})
    activity = telemetry.get("activity_metrics") or {}
    for name, count in sorted((activity.get("firings") or {}).items()):
        firings.add(int(count), {"activity": name})
    for name, count in sorted((activity.get("absorptions") or {}).items()):
        absorptions.add(int(count), {"outcome": name})

    return _families_to_text(
        (
            replications, chunks, retries, fallbacks, cache, sim_events,
            draws, workers, elapsed, busy, worker_units, point_seconds,
            firings, absorptions,
        )
    )


def render_openmetrics(source: dict | list) -> str:
    """Render whichever accounting source is at hand.

    Lists are treated as ledger envelopes; dicts as either a whole
    ``repro-estimates/1`` artifact (its ``telemetry`` section is used)
    or a bare telemetry dict.
    """
    if isinstance(source, list):
        return metrics_from_events(source)
    if isinstance(source, dict):
        telemetry = source.get("telemetry", source)
        if not isinstance(telemetry, dict):
            raise ValueError("artifact has no telemetry section")
        return metrics_from_telemetry(telemetry)
    raise TypeError(f"cannot render metrics from {type(source).__name__}")
