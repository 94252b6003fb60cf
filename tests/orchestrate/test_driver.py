"""Tests for repro.orchestrate.driver — the determinism contract.

The acceptance property of the orchestrator: for a fixed
``(points, seed, budget, policy)`` the pooled per-point estimates are
bit-identical across worker counts and across interrupted-and-resumed
runs.  The sweeps here run at inflated failure rates (as the benchmarks
do) so plain Monte-Carlo sees events within a few hundred replications.
"""

import json

import pytest

from repro.core import AHSParameters
from repro.orchestrate import (
    Budget,
    EstimatorPolicy,
    Orchestrator,
    SweepPoint,
    orchestrate,
    point_seed,
)
from repro.runtime import ParallelRunner, ResultCache

pytestmark = pytest.mark.slow


#: inflated-rate sweep: tiny state space, failures visible at 1 h horizon
POINTS = [
    SweepPoint(
        "hot",
        AHSParameters(base_failure_rate=2e-2, max_platoon_size=2),
        (0.5, 1.0),
    ),
    SweepPoint(
        "warm",
        AHSParameters(base_failure_rate=1e-2, max_platoon_size=2),
        (0.5, 1.0),
    ),
]
FORCE_SIM = EstimatorPolicy(forced="simulation")
BUDGET = Budget(replications=768, target_relative_ci=0.5)
SEED = 11


def run(
    workers,
    budget=BUDGET,
    cache=None,
    chunk_cache=False,
    policy="greedy",
    sweep_batch=False,
):
    runner = ParallelRunner(
        workers=workers, chunk_size=64, cache=cache, chunk_cache=chunk_cache
    )
    try:
        return orchestrate(
            POINTS,
            budget,
            runner,
            policy=policy,
            estimator_policy=FORCE_SIM,
            seed=SEED,
            sweep_batch=sweep_batch,
        )
    finally:
        runner.close()


def estimates(report):
    """The bit-comparable core of a report: per-point pooled results."""
    return {
        p.point_id: (p.values, p.half_widths, p.n_replications)
        for p in report.points
    }


class TestPointSeed:
    def test_deterministic(self):
        assert point_seed(42, 3) == point_seed(42, 3)

    def test_mixes_index_and_seed(self):
        assert point_seed(42, 0) != point_seed(42, 1)
        assert point_seed(42, 0) != point_seed(43, 0)


class TestConstruction:
    def test_rejects_empty_sweep(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(ValueError, match="at least one"):
            Orchestrator([], BUDGET, runner)

    def test_rejects_duplicate_point_ids(self):
        runner = ParallelRunner(workers=1)
        twice = [POINTS[0], POINTS[0]]
        with pytest.raises(ValueError, match="duplicate"):
            Orchestrator(twice, BUDGET, runner)

    def test_round_chunks_default_ignores_worker_count(self):
        # the schedule must not depend on parallelism
        for workers in (1, 4):
            runner = ParallelRunner(workers=workers)
            orch = Orchestrator(POINTS, BUDGET, runner)
            assert orch.allocator.round_chunks == max(8, 2 * len(POINTS))


class TestWorkerInvariance:
    def test_pooled_estimates_bit_identical(self):
        serial = run(workers=1)
        parallel = run(workers=2)
        assert estimates(serial) == estimates(parallel)
        assert serial.ledger["spent"] == parallel.ledger["spent"]
        assert serial.ledger["stop_reason"] == parallel.ledger["stop_reason"]
        # the full allocation trace replays, round for round
        assert [r.to_dict() for r in serial.rounds] == [
            r.to_dict() for r in parallel.rounds
        ]


def deterministic_sections(report):
    """The byte-comparable artifact core: points + rounds + ledger.

    Wall-clock figures are excluded by construction: telemetry entirely
    (elapsed, busy seconds, per-point seconds) and the ledger's
    ``elapsed_seconds`` — they legitimately differ between runs.
    """
    record = report.to_dict()
    ledger = {
        key: value
        for key, value in record["ledger"].items()
        if key != "elapsed_seconds"
    }
    return json.dumps(
        {
            "schema": record["schema"],
            "points": record["points"],
            "rounds": record["rounds"],
            "ledger": ledger,
        },
        sort_keys=True,
    )


class TestSweepBatch:
    def test_artifact_byte_identical_to_per_chunk_dispatch(self):
        """--sweep-batch is pure scheduling: the repro-estimates/1
        deterministic sections must match the per-point path byte for
        byte, for serial and pooled runners alike."""
        reference = run(workers=1)
        for workers in (1, 2):
            batched = run(workers=workers, sweep_batch=True)
            assert deterministic_sections(batched) == deterministic_sections(
                reference
            )

    def test_point_seconds_recorded_in_telemetry_only(self):
        report = run(workers=1, sweep_batch=True)
        telemetry = report.to_dict()["telemetry"]
        seconds = telemetry["point_seconds"]
        assert set(seconds) == {p.point_id for p in POINTS}
        assert all(value > 0.0 for value in seconds.values())
        # the wall-clock figures stay out of the deterministic sections
        assert "point_seconds" not in deterministic_sections(report)
        assert "point seconds:" in report.format()


class TestTensorize:
    """--tensorize is pure scheduling too: one cross-point SoA tensor
    per dispatch round instead of one engine loop per point, with the
    repro-estimates/1 deterministic sections byte-identical to per-point
    stepped execution at every worker count."""

    @staticmethod
    def run_stepped(workers, tensorize, sweep_batch=False,
                    cost_model="events"):
        runner = ParallelRunner(workers=workers, chunk_size=64)
        try:
            return orchestrate(
                POINTS,
                BUDGET,
                runner,
                policy="greedy",
                estimator_policy=FORCE_SIM,
                seed=SEED,
                engine="stepped",
                sweep_batch=sweep_batch,
                tensorize=tensorize,
                cost_model=cost_model,
            )
        finally:
            runner.close()

    def test_artifact_byte_identical_to_per_point_dispatch(self):
        reference = self.run_stepped(workers=1, tensorize=False)
        for workers in (1, 2):
            tensorized = self.run_stepped(workers=workers, tensorize=True)
            assert deterministic_sections(tensorized) == (
                deterministic_sections(reference)
            )

    def test_matches_sweep_batch_path(self):
        batched = self.run_stepped(workers=2, tensorize=False,
                                   sweep_batch=True)
        tensorized = self.run_stepped(workers=2, tensorize=True)
        assert deterministic_sections(tensorized) == (
            deterministic_sections(batched)
        )

    def test_non_stepped_engine_warns_and_falls_back(self):
        runner = ParallelRunner(workers=1, chunk_size=64)
        try:
            with pytest.warns(UserWarning, match=r"\[TZ001\].*stepped engine"):
                report = orchestrate(
                    POINTS,
                    Budget(replications=128),
                    runner,
                    estimator_policy=FORCE_SIM,
                    seed=SEED,
                    engine="compiled",
                    tensorize=True,
                )
        finally:
            runner.close()
        assert report.ledger["spent"] == 128  # ran per-point, not aborted

    def test_fallback_emits_typed_ledger_event(self):
        from repro.obs import EventBus, validate_events

        records: list = []
        bus = EventBus("run-tf")
        bus.subscribe(records.append)
        runner = ParallelRunner(workers=1, chunk_size=64)
        try:
            with pytest.warns(UserWarning, match=r"\[TZ001\]"):
                orchestrator = Orchestrator(
                    POINTS,
                    Budget(replications=128),
                    runner,
                    estimator_policy=FORCE_SIM,
                    seed=SEED,
                    engine="compiled",
                    tensorize=True,
                    events=bus,
                )
            orchestrator.run()
        finally:
            runner.close()
        validate_events(records)
        kinds = [record["event"] for record in records]
        assert kinds[0] == "RunStarted"
        assert kinds[1] == "TensorFallback"
        fallback = records[1]["data"]
        assert fallback["rule"] == "TZ001"
        assert fallback["engine"] == "compiled"
        assert "stepped engine" in fallback["reason"]

    def test_no_fallback_event_on_the_stepped_engine(self):
        from repro.obs import EventBus

        records: list = []
        bus = EventBus("run-ok")
        bus.subscribe(records.append)
        runner = ParallelRunner(workers=1, chunk_size=64)
        try:
            Orchestrator(
                POINTS,
                Budget(replications=128),
                runner,
                estimator_policy=FORCE_SIM,
                seed=SEED,
                engine="stepped",
                tensorize=True,
                events=bus,
            ).run()
        finally:
            runner.close()
        assert "TensorFallback" not in {r["event"] for r in records}

    def test_wall_cost_model_keeps_chunk_estimates(self):
        # wall-clock cost only reorders allocation; every pooled chunk
        # stays bit-identical, so per-point (values, n) pairs that both
        # schedules computed in full must agree
        reference = self.run_stepped(workers=1, tensorize=True)
        walled = self.run_stepped(workers=1, tensorize=True,
                                  cost_model="wall")
        assert walled.ledger["spent"] <= BUDGET.replications
        assert {p.point_id for p in walled.points} == {
            p.point_id for p in reference.points
        }

    def test_wall_cost_model_validated(self):
        runner = ParallelRunner(workers=1)
        try:
            with pytest.raises(ValueError, match="cost_model"):
                Orchestrator(POINTS, BUDGET, runner, cost_model="cpu")
        finally:
            runner.close()


class TestResume:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        reference = run(workers=1)

        # interrupted: same seed/policy/points, but the round cap kills the
        # run after the warm-up + one adaptive round
        cache = ResultCache(tmp_path / "chunks")
        truncated_budget = Budget(
            replications=BUDGET.replications,
            target_relative_ci=BUDGET.target_relative_ci,
            max_rounds=2,
        )
        truncated = run(
            workers=2, budget=truncated_budget, cache=cache, chunk_cache=True
        )
        assert truncated.ledger["stop_reason"] == "rounds-exhausted"
        assert truncated.ledger["spent"] < reference.ledger["spent"]

        # resumed: full budget, different worker count, warm chunk cache
        resumed = run(workers=1, cache=cache, chunk_cache=True)
        assert estimates(resumed) == estimates(reference)
        assert resumed.ledger["spent"] == reference.ledger["spent"]
        assert resumed.ledger["stop_reason"] == reference.ledger["stop_reason"]
        # every chunk the truncated run computed came back from the cache
        assert resumed.telemetry["cache_hits"] > 0

    def test_rerun_on_warm_cache_hits_every_chunk(self, tmp_path):
        cache = ResultCache(tmp_path / "chunks")
        first = run(workers=2, cache=cache, chunk_cache=True)
        again = run(workers=1, cache=cache, chunk_cache=True)
        assert estimates(first) == estimates(again)
        assert again.telemetry["cache_misses"] == 0
        assert again.telemetry["cache_hits"] > 0


class TestEstimatorRouting:
    def test_rare_point_short_circuits_analytically(self):
        rare = SweepPoint(
            "rare",
            AHSParameters(base_failure_rate=1e-7, max_platoon_size=2),
            (0.5, 1.0),
        )
        runner = ParallelRunner(workers=1, chunk_size=64)
        try:
            report = orchestrate([rare], BUDGET, runner, seed=SEED)
        finally:
            runner.close()
        point = report.point("rare")
        assert point.estimator == "analytical"
        assert point.n_replications == 0
        assert point.converged
        assert point.half_widths is None
        assert report.total_replications == 0
        assert report.ledger["stop_reason"] == "converged"

    def test_pure_pool_budget_spends_everything(self):
        report = run(workers=1, budget=Budget(replications=256))
        assert report.ledger["spent"] == 256
        assert report.ledger["stop_reason"] == "replications-exhausted"
        assert report.total_replications == 256


class TestReportShape:
    def test_to_dict_is_json_serialisable(self):
        report = run(workers=1, budget=Budget(replications=128))
        record = json.loads(json.dumps(report.to_dict()))
        assert record["schema"] == "repro-estimates/1"
        assert record["policy"] == "greedy"
        assert {p["point_id"] for p in record["points"]} == {"hot", "warm"}
        for point in record["points"]:
            assert point["source"] == "orchestrate"
            assert len(point["times"]) == len(point["values"])
        assert record["ledger"]["stop_reason"] in (
            "replications-exhausted",
            "converged",
        )

    def test_format_renders_trace(self):
        report = run(workers=1, budget=Budget(replications=128))
        text = report.format()
        assert "orchestration: policy=greedy" in text
        assert "allocation trace:" in text
        assert "hot" in text and "warm" in text


class TestHonestStatus:
    def test_no_target_reports_no_target(self):
        report = run(workers=1, budget=Budget(replications=128))
        assert [p.converged for p in report.points] == [None, None]
        assert not report.all_converged
        record = json.loads(json.dumps(report.to_dict()))
        for point in record["points"]:
            assert point["converged"] is None
            assert point["status"] == "no-target"
        rows = [line for line in report.format().splitlines()
                if line.startswith(("hot", "warm"))]
        assert len(rows) == 2
        assert all(row.endswith("no-target") for row in rows)

    def test_target_keeps_two_valued_status(self):
        report = run(workers=1)
        assert all(isinstance(p.converged, bool) for p in report.points)
        statuses = {p["status"] for p in report.to_dict()["points"]}
        assert statuses <= {"converged", "budget-stop"}
