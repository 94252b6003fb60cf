"""RunLedger JSONL sink, status sidecar, tailing, and chunk forensics."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import (
    ChunkCompleted,
    ChunkFailed,
    ChunkScheduled,
    EventBus,
    RunFinished,
    RunStarted,
    validate_events,
)
from repro.obs.ledger import (
    BUNDLE_SCHEMA,
    LedgerStatus,
    RunLedger,
    bundle_of,
    chunk_failures,
    follow_events,
    forensic_bundle,
    iter_jsonl,
    read_events,
    replay_chunk,
    write_status,
)
from repro.runtime.plan import ChunkSpec, ReplicationPlan


class SampleTask:
    """Minimal picklable replication task (module-level for pickling)."""

    def cache_token(self):
        return {"kind": "sample-task"}

    def build(self):
        return object()

    def sample(self, context, stream):
        return stream.random()


class FaultyTask(SampleTask):
    """Raises deterministically on one seeded replication."""

    def cache_token(self):
        return {"kind": "faulty-task", "fault_at": "rep-5"}

    def sample(self, context, stream):
        if stream.label == "rep-5":
            raise RuntimeError("seeded fault at rep-5")
        return stream.random()


def drive(bus):
    """A complete, valid little run."""
    bus.emit(RunStarted(kind="run", workers=2, total=8))
    bus.emit(ChunkScheduled(chunk_id="chunk-0", start=0, count=4))
    bus.emit(ChunkScheduled(chunk_id="chunk-1", start=4, count=4))
    bus.emit(ChunkCompleted(chunk_id="chunk-0", n=4, worker="w1",
                            elapsed_seconds=0.25, draws=40))
    bus.emit(ChunkCompleted(chunk_id="chunk-1", n=4, worker="w2",
                            elapsed_seconds=0.5, draws=44))
    bus.emit(RunFinished(outcome="ok", units=8, converged=True))


class TestRunLedger:
    def test_writes_one_valid_envelope_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            with EventBus("run-l", sinks=[ledger]) as bus:
                drive(bus)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        events = read_events(path)
        assert validate_events(events) == []
        assert [e["event"] for e in events][0] == "RunStarted"
        assert [e["event"] for e in events][-1] == "RunFinished"

    def test_status_sidecar_reaches_finished(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            with EventBus("run-l", sinks=[ledger]) as bus:
                drive(bus)
        sidecar = tmp_path / "run.jsonl.status.json"
        assert sidecar.exists()
        status = json.loads(sidecar.read_text())
        assert status["schema"] == "repro-status/1"
        assert status["state"] == "finished"
        assert status["units_done"] == 8
        assert status["units_total"] == 8
        assert status["chunks_completed"] == 2

    def test_status_rounds_match_the_orchestration_report(self, tmp_path):
        from repro.core import AHSParameters
        from repro.orchestrate import (
            Budget,
            EstimatorPolicy,
            SweepPoint,
            orchestrate,
        )
        from repro.runtime import ParallelRunner

        point = SweepPoint(
            "hot", AHSParameters(base_failure_rate=2e-2, max_platoon_size=2),
            (1.0,),
        )
        path = tmp_path / "run.jsonl"
        runner = ParallelRunner(workers=1, chunk_size=32)
        try:
            with RunLedger(path) as ledger:
                with EventBus("run-r", sinks=[ledger]) as bus:
                    report = orchestrate(
                        [point], Budget(replications=128), runner,
                        estimator_policy=EstimatorPolicy(forced="simulation"),
                        seed=3, events=bus,
                    )
        finally:
            runner.close()
        status = json.loads((tmp_path / "run.jsonl.status.json").read_text())
        assert len(report.rounds) >= 2
        assert status["rounds"] == len(report.rounds)

    def test_status_rewrites_are_throttled_but_final_on_finish(self, tmp_path):
        ticks = iter([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        writes = []
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, status_interval=10.0, clock=lambda: next(ticks))

        original = ledger._status
        import repro.obs.ledger as module

        def spy(target, status):
            writes.append(status.state)

        monkey = pytest.MonkeyPatch()
        monkey.setattr(module, "write_status", spy)
        try:
            with EventBus("run-t", sinks=[ledger]) as bus:
                drive(bus)
        finally:
            monkey.undo()
        # first event writes, the interval throttles the middle, the
        # terminal RunFinished always writes
        assert writes[0] == "running"
        assert writes.count("finished") >= 1
        assert len(writes) < 6
        assert original.state == "finished"

    def test_closed_ledger_rejects_writes(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.close()
        with pytest.raises(ValueError):
            ledger({"event": "RunStarted"})
        ledger.close()  # idempotent

    def test_append_mode_preserves_prior_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for run_id in ("run-a", "run-b"):
            with RunLedger(path) as ledger:
                with EventBus(run_id, sinks=[ledger]) as bus:
                    drive(bus)
        events = read_events(path)
        assert len(events) == 12
        assert validate_events(events) == []
        assert len(read_events(path, run_id="run-a")) == 6

    def test_numpy_values_serialise(self, tmp_path):
        import numpy as np

        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            with EventBus("run-np", sinks=[ledger]) as bus:
                bus.emit(RunStarted(kind="run", workers=2))
                bus.emit(
                    ChunkCompleted(
                        chunk_id="chunk-0",
                        n=np.int64(4),
                        elapsed_seconds=np.float64(0.5),
                        draws=np.int64(7),
                    )
                )
                bus.emit(RunFinished(outcome="ok", units=4))
        events = read_events(path)
        # numpy scalars land as plain JSON numbers and re-validate cleanly
        assert validate_events(events) == []
        assert events[1]["data"]["n"] == 4
        assert events[1]["data"]["draws"] == 7


class TestReading:
    def test_iter_jsonl_skips_partial_trailing_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn": ')
        assert list(iter_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_follow_yields_existing_then_stops_on_finish(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            with EventBus("run-f", sinks=[ledger]) as bus:
                drive(bus)
        seen = [
            e["event"]
            for e in follow_events(path, sleep=lambda s: None)
        ]
        assert seen[0] == "RunStarted"
        assert seen[-1] == "RunFinished"
        assert len(seen) == 6

    def test_follow_times_out_on_quiet_file(self, tmp_path):
        path = tmp_path / "quiet.jsonl"
        path.write_text("")
        ticks = iter(float(i) for i in range(100))
        seen = list(
            follow_events(
                path,
                timeout_seconds=2.0,
                clock=lambda: next(ticks),
                sleep=lambda s: None,
            )
        )
        assert seen == []

    def test_follow_tolerates_missing_file_until_timeout(self, tmp_path):
        ticks = iter(float(i) for i in range(100))
        seen = list(
            follow_events(
                tmp_path / "never.jsonl",
                timeout_seconds=1.0,
                clock=lambda: next(ticks),
                sleep=lambda s: None,
            )
        )
        assert seen == []


class TestLedgerStatus:
    def test_eta_and_rate_derive_from_timestamps(self):
        status = LedgerStatus()
        status.update({"ts": 0.0, "run_id": "r", "event": "RunStarted",
                       "data": {"kind": "run", "total": 100}})
        status.update({"ts": 2.0, "run_id": "r", "event": "ChunkCompleted",
                       "data": {"chunk_id": "c", "n": 50}})
        assert status.state == "running"
        assert status.units_done == 50
        assert status.units_per_second == pytest.approx(25.0)
        assert status.eta_seconds == pytest.approx(2.0)
        assert status.fraction_done == pytest.approx(0.5)
        line = status.format()
        assert "[running]" in line
        assert "50/100" in line

    def test_failed_outcome_sets_failed_state(self):
        status = LedgerStatus()
        status.update({"ts": 0.0, "run_id": "r", "event": "RunStarted",
                       "data": {"kind": "run"}})
        status.update({"ts": 1.0, "run_id": "r", "event": "ChunkFailed",
                       "data": {"chunk_id": "chunk-3", "error": "boom"}})
        status.update({"ts": 1.0, "run_id": "r", "event": "RunFinished",
                       "data": {"outcome": "failed", "units": 0,
                                "error": "boom"}})
        assert status.state == "failed"
        assert status.failures == 1
        assert status.failed_chunk_ids == ["chunk-3"]
        record = status.to_dict()
        assert record["outcome"] == "failed"
        assert record["failed_chunk_ids"] == ["chunk-3"]

    def test_write_status_atomic_rewrite(self, tmp_path):
        status = LedgerStatus(run_id="r")
        target = tmp_path / "nested" / "status.json"
        write_status(target, status)
        assert json.loads(target.read_text())["run_id"] == "r"
        # no temp droppings
        assert list(target.parent.iterdir()) == [target]


class TestForensics:
    def make_failure_events(self):
        task = FaultyTask()
        plan = ReplicationPlan(seed=7, chunk_size=4)
        spec = ChunkSpec(index=1, start=4, count=4)
        bundle = forensic_bundle(task, plan, spec)
        return [
            {"schema": "repro-events/1", "run_id": "r", "seq": 0, "ts": 0.0,
             "event": "RunStarted", "data": {"kind": "run", "workers": 1,
                                             "unit": "replications"}},
            {"schema": "repro-events/1", "run_id": "r", "seq": 1, "ts": 1.0,
             "event": "ChunkFailed",
             "data": {"chunk_id": "chunk-1", "error": "seeded fault",
                      "bundle": bundle}},
        ]

    def test_bundle_metadata_readable_without_unpickling(self):
        bundle = forensic_bundle(
            FaultyTask(), ReplicationPlan(seed=7, chunk_size=4),
            ChunkSpec(index=1, start=4, count=4),
        )
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["task"]["type"] == "FaultyTask"
        assert bundle["seed_entropy"] == 7
        assert bundle["chunk_size"] == 4
        assert bundle["start"] == 4
        assert bundle["count"] == 4
        assert "pickle" in bundle
        json.dumps(bundle)  # JSON-safe

    def test_unpicklable_task_degrades_to_metadata(self):
        class Local(SampleTask):  # local classes don't pickle
            pass

        bundle = forensic_bundle(
            Local(), ReplicationPlan(seed=1, chunk_size=2),
            ChunkSpec(index=0, start=0, count=2),
        )
        assert "pickle" not in bundle
        assert "pickle_error" in bundle
        with pytest.raises(ValueError):
            replay_chunk(bundle)

    def test_replay_reproduces_the_seeded_fault(self):
        events = self.make_failure_events()
        assert set(chunk_failures(events)) == {"chunk-1"}
        bundle = bundle_of(events, "chunk-1")
        with pytest.raises(RuntimeError, match="seeded fault at rep-5"):
            replay_chunk(bundle)

    def test_replay_completes_for_healthy_chunk(self):
        bundle = forensic_bundle(
            SampleTask(), ReplicationPlan(seed=7, chunk_size=4),
            ChunkSpec(index=0, start=0, count=4),
        )
        summary = replay_chunk(bundle)
        assert summary.n == 4
        assert summary.draws > 0

    def test_bundle_of_unknown_chunk_raises_keyerror(self):
        events = self.make_failure_events()
        with pytest.raises(KeyError, match="chunk-9"):
            bundle_of(events, "chunk-9")

    def test_replay_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="bundle"):
            replay_chunk({"schema": "something-else/1"})
