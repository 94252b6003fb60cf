"""OpenMetrics exposition: format validity and counter correctness."""

from __future__ import annotations

import re

from repro.obs.events import (
    BudgetStopped,
    CacheHit,
    CacheMiss,
    ChunkCompleted,
    ChunkFailed,
    ChunkRetried,
    ChunkScheduled,
    EventBus,
    RoundAllocated,
    RunFinished,
    RunStarted,
)
from repro.obs.openmetrics import (
    CHUNK_SECONDS_BUCKETS,
    metrics_from_events,
    metrics_from_telemetry,
    render_openmetrics,
)

# exposition-text grammar: metric lines and comment lines only
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"      # metric name
    r"(\{[^{}]*\})?"                   # optional label set
    r" -?[0-9eE+\-.infINF]+$"          # value
)
_COMMENT = re.compile(r"^# (TYPE|HELP|EOF)")


def assert_valid_exposition(text: str) -> None:
    """Every line parses as a comment or sample; ends with # EOF."""
    assert text.endswith("# EOF\n")
    for line in text.rstrip("\n").splitlines():
        assert _SAMPLE.match(line) or _COMMENT.match(line), line
    # label values are always quoted
    for label_set in re.findall(r"\{([^{}]*)\}", text):
        for pair in label_set.split(","):
            key, value = pair.split("=", 1)
            assert value.startswith('"') and value.endswith('"'), pair


def ledger_events():
    records = []
    ticks = iter(float(i) for i in range(20))
    bus = EventBus("run-m", sinks=[records.append], clock=lambda: next(ticks))
    bus.emit(RunStarted(kind="run", workers=2, total=12))
    bus.emit(CacheMiss(scope="run"))
    bus.emit(ChunkScheduled(chunk_id="chunk-0", start=0, count=8))
    bus.emit(ChunkScheduled(chunk_id="chunk-1", start=8, count=4))
    bus.emit(ChunkRetried(chunk_id="chunk-0", attempt=1, error="died"))
    bus.emit(ChunkCompleted(chunk_id="chunk-0", n=8, worker="w1",
                            elapsed_seconds=0.04, events=100, draws=80))
    bus.emit(ChunkCompleted(chunk_id="chunk-1", n=4, worker="w2",
                            elapsed_seconds=2.0, events=50, draws=40))
    bus.emit(ChunkFailed(chunk_id="chunk-2", error="boom"))
    bus.emit(CacheHit(scope="chunk", chunk_id="chunk-3"))
    bus.emit(RoundAllocated(round=2, awards={"p": 4}, spent=12))
    bus.emit(BudgetStopped(reason="replications-exhausted", spent=12,
                           rounds=2))
    bus.emit(RunFinished(outcome="ok", units=12))
    return records


class TestEventsExport:
    def test_output_is_valid_exposition_text(self):
        assert_valid_exposition(metrics_from_events(ledger_events()))

    def test_counters_reflect_the_event_stream(self):
        text = metrics_from_events(ledger_events())
        assert "repro_replications_total 12" in text
        assert "repro_chunks_total 2" in text
        assert "repro_chunks_scheduled_total 2" in text
        assert "repro_retries_total 1" in text
        assert "repro_chunk_failures_total 1" in text
        assert 'repro_cache_lookups_total{result="hit"} 1' in text
        assert 'repro_cache_lookups_total{result="miss"} 1' in text
        assert "repro_sim_events_total 150" in text
        assert "repro_rng_draws_total 120" in text
        # RoundAllocated(round=2) is the third round (0-based index)
        assert "repro_rounds_total 3" in text
        assert "repro_workers 2" in text
        assert 'repro_run_finished{outcome="ok"} 1' in text
        assert (
            'repro_budget_stops_total{reason="replications-exhausted"} 1'
            in text
        )

    def test_histogram_buckets_are_cumulative(self):
        text = metrics_from_events(ledger_events())
        # 0.04s lands in le=0.05 and above; 2.0s first lands in le=5.0
        assert 'repro_chunk_seconds_bucket{le="0.01"} 0' in text
        assert 'repro_chunk_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_chunk_seconds_bucket{le="5"} 2' in text
        assert 'repro_chunk_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_chunk_seconds_count 2" in text
        assert "repro_chunk_seconds_sum 2.04" in text
        # bucket counts never decrease as le grows
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'repro_chunk_seconds_bucket\{le="[^"]*"\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)
        assert len(counts) == len(CHUNK_SECONDS_BUCKETS) + 1

    def test_empty_event_stream_still_terminates(self):
        text = metrics_from_events([])
        assert_valid_exposition(text)
        assert "repro_replications_total 0" in text


class TestTelemetryExport:
    def telemetry(self):
        return {
            "workers": 2,
            "unit": "replications",
            "elapsed_seconds": 1.5,
            "units": 30,
            "chunks": 3,
            "retries": 1,
            "fallbacks": 1,
            "draws": 300,
            "events": 400,
            "cache_hits": 2,
            "cache_misses": 1,
            "per_worker": {
                "pid-1.ab": {"units": 20, "busy_seconds": 0.9},
                "pid-2.cd": {"units": 10, "busy_seconds": 0.4},
            },
            "point_seconds": {"fig12/n=4": 0.75},
            "activity_metrics": {
                "firings": {"L_FM1": 12, "recover": 3},
                "absorptions": {"unsafe": 2},
            },
        }

    def test_output_is_valid_exposition_text(self):
        assert_valid_exposition(metrics_from_telemetry(self.telemetry()))

    def test_per_worker_point_and_activity_series(self):
        text = metrics_from_telemetry(self.telemetry())
        assert "repro_replications_total 30" in text
        assert "repro_fallbacks_total 1" in text
        assert 'repro_worker_busy_seconds_total{worker="pid-1.ab"} 0.9' in text
        assert 'repro_worker_units_total{worker="pid-2.cd"} 10' in text
        assert 'repro_point_busy_seconds_total{point="fig12/n=4"} 0.75' in text
        assert 'repro_activity_firings_total{activity="L_FM1"} 12' in text
        assert 'repro_absorptions_total{outcome="unsafe"} 2' in text


class TestDispatch:
    def test_list_renders_as_events(self):
        text = render_openmetrics(ledger_events())
        assert "repro_chunks_scheduled_total" in text

    def test_artifact_dict_uses_its_telemetry_section(self):
        artifact = {
            "schema": "repro-estimates/1",
            "telemetry": TestTelemetryExport().telemetry(),
        }
        text = render_openmetrics(artifact)
        assert "repro_fallbacks_total 1" in text

    def test_bare_telemetry_dict_accepted(self):
        text = render_openmetrics(TestTelemetryExport().telemetry())
        assert "repro_replications_total 30" in text

    def test_label_values_escaped(self):
        events = [
            {"schema": "repro-events/1", "run_id": "r", "seq": 0, "ts": 0.0,
             "event": "RunStarted", "data": {"kind": "run", "workers": 1,
                                             "unit": "replications"}},
            {"schema": "repro-events/1", "run_id": "r", "seq": 1, "ts": 1.0,
             "event": "BudgetStopped",
             "data": {"reason": 'say "no"\nplease', "spent": 0,
                      "rounds": 0}},
        ]
        text = metrics_from_events(events)
        assert '\\"no\\"' in text
        assert "\\n" in text
