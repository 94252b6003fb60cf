"""The orchestrator's default engine against the scalar compiled kernel.

Orchestrated chunks run on the stepped engine by default.  It replays
each stream's draws exactly as the compiled kernel does, so on every
estimator route the reports — pooled values, half-widths, replication
counts, simulator events and the round-by-round allocation — must be
identical to an ``engine="compiled"`` run, at any worker count.
"""

import pytest

from repro.core import AHSParameters
from repro.core.partasks import ImportanceSimulationTask, UnsafetySimulationTask
from repro.orchestrate import Budget, EstimatorPolicy, Orchestrator, SweepPoint
from repro.runtime import ParallelRunner

pytestmark = pytest.mark.slow

#: a figure-12-shaped grid (S at one horizon over λ × n), at inflated
#: failure rates so crude Monte-Carlo sees events within a few chunks
POINTS = [
    SweepPoint(
        f"fig12/lambda={lam:g}/n={n}",
        AHSParameters(base_failure_rate=lam, max_platoon_size=n),
        (1.0,),
    )
    for lam in (1e-2, 1.5e-2)
    for n in (2, 3)
]
SEED = 12

ROUTES = {
    "simulation": (
        EstimatorPolicy(forced="simulation"),
        Budget(replications=640, target_relative_ci=0.5),
    ),
    "importance": (
        EstimatorPolicy(forced="importance", boost=10.0),
        Budget(replications=640, target_relative_ci=0.3),
    ),
    "splitting": (
        EstimatorPolicy(forced="splitting", splitting_trials=8),
        Budget(replications=24),
    ),
}


def run(route, workers, **engine):
    policy, budget = ROUTES[route]
    runner = ParallelRunner(workers=workers, chunk_size=64)
    try:
        return Orchestrator(
            POINTS,
            budget,
            runner,
            estimator_policy=policy,
            seed=SEED,
            splitting_chunk_size=2,
            **engine,
        ).run()
    finally:
        runner.close()


def comparable(report):
    return (
        [
            (p.point_id, p.estimator, p.values, p.half_widths,
             p.n_replications, p.events)
            for p in report.points
        ],
        [(r.index, r.awards, r.spent) for r in report.rounds],
        report.ledger["spent"],
        report.ledger["stop_reason"],
    )


def test_default_engine_is_stepped():
    runner = ParallelRunner(workers=1)
    try:
        assert Orchestrator(POINTS, Budget(replications=64), runner).engine == (
            "stepped"
        )
    finally:
        runner.close()
    params = AHSParameters()
    assert UnsafetySimulationTask(params=params, times=(1.0,)).engine == "stepped"
    assert ImportanceSimulationTask(params=params, times=(1.0,)).engine == (
        "stepped"
    )


@pytest.mark.parametrize(
    "engine, expected",
    [("stepped", "compiled"), ("compiled", "compiled"),
     ("interpreted", "interpreted")],
)
def test_splitting_points_run_serially(engine, expected):
    # one trajectory per call: a batch engine would build its tables only
    # to hand every trajectory to its compiled delegate
    runner = ParallelRunner(workers=1)
    try:
        orchestrator = Orchestrator(
            POINTS, Budget(replications=64), runner, engine=engine
        )
        task = orchestrator._make_task(POINTS[0], "splitting")
    finally:
        runner.close()
    assert task.engine == expected
    assert orchestrator._make_task(POINTS[0], "importance").engine == engine


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_default_engine_matches_compiled(route):
    reference = comparable(run(route, workers=1, engine="compiled"))
    points, rounds, spent, _stop = reference
    # the route was taken and saw events, so the comparison has teeth
    assert {point[1] for point in points} == {route}
    assert spent > 0 and rounds
    assert any(any(point[2]) for point in points)
    for workers in (1, 2):
        assert comparable(run(route, workers=workers)) == reference
        assert comparable(
            run(route, workers=workers, engine="compiled")
        ) == reference
