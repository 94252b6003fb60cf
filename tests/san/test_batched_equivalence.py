"""Bit-exact equivalence of batched runs and the compiled jump engine.

The stepped engine (:mod:`repro.san.stepped`) is the one batch engine:
it advances a lockstep batch of replications through a NumPy
structure-of-arrays kernel, but promises *exactly* the per-stream
results of :class:`~repro.san.compiled.CompiledJumpEngine` — same draw
order, same selections, same importance-sampling likelihood-ratio
weights — at any batch size.  This suite holds batched runs to that
contract at width 1 and through the surfaces around the kernel: the
same model zoo as ``test_compiled_equivalence.py`` (two-state SAN,
branchy model, One_vehicle submodel, composed AHS model, biased
importance sampling, deadlock/survival edge cases, random SANs), the
importance-sampling estimator, pooled confidence intervals, observer
delegation, rate rewards through the compiled delegate, constructor
validation and engine dispatch.  ``test_stepped_equivalence.py`` covers
wider batches and the step loop's own machinery.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.composed import build_composed_model, build_one_vehicle_model
from repro.core.configuration_model import SharedPlaces
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing, ImportanceSamplingEstimator
from repro.san import (
    ENGINES,
    Case,
    CompiledJumpEngine,
    MarkovJumpSimulator,
    Place,
    SANModel,
    SteppedJumpEngine,
    TimedActivity,
    input_arc,
    make_jump_engine,
    output_arc,
)
from repro.san.marking import MarkingFunction
from repro.san.rewards import RateReward, TransientEstimate
from repro.stochastic import StreamFactory

from tests.conftest import make_two_state_model
from tests.san.test_compiled_equivalence import (
    assert_runs_identical,
    make_branchy_model,
    random_san,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def run_batch_both(
    model,
    seed,
    horizon,
    n_streams,
    batch_size,
    stop_predicate=None,
    bias=None,
    rewards=None,
):
    """(compiled runs, batched runs, draw-count lists) under one seed.

    The compiled reference executes the streams one by one; the stepped
    engine executes them through ``run_batch`` sliced at
    ``batch_size``.  Per-stream results must be bit-identical.
    """
    compiled = CompiledJumpEngine(model, bias=bias)
    batched = SteppedJumpEngine(model, bias=bias, batch_size=batch_size)
    streams_a = StreamFactory(seed).stream_batch("eq", n_streams)
    streams_b = StreamFactory(seed).stream_batch("eq", n_streams)
    runs_a = [
        compiled.run(s, horizon, stop_predicate, rate_rewards=rewards)
        for s in streams_a
    ]
    runs_b = []
    for start in range(0, n_streams, batch_size):
        runs_b.extend(
            batched.run_batch(
                streams_b[start:start + batch_size],
                horizon,
                stop_predicate,
                rate_rewards=rewards,
            )
        )
    draws_a = [s.draw_count for s in streams_a]
    draws_b = [s.draw_count for s in streams_b]
    return runs_a, runs_b, draws_a, draws_b


def assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places):
    assert len(runs_b) == len(runs_a)
    for run_a, run_b in zip(runs_a, runs_b):
        assert_runs_identical(run_a, run_b, places)
    assert draws_a == draws_b


# ----------------------------------------------------------------------
# batch size 1: draw-for-draw identity with the compiled engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_state_b1_identical(seed):
    model, up, down = make_two_state_model()
    reward = RateReward("down_frac", MarkingFunction({"d": down}, lambda g: g["d"]))
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed, horizon=25.0, n_streams=1, batch_size=1, rewards=[reward]
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, [up, down])
    assert runs_a[0].firings > 0


def test_run_matches_run_batch_of_one():
    model, up, down = make_two_state_model()
    engine = SteppedJumpEngine(model, batch_size=1)
    run_single = engine.run(StreamFactory(5).stream("eq"), 25.0)
    [run_batch] = engine.run_batch([StreamFactory(5).stream("eq")], 25.0)
    assert_runs_identical(run_single, run_batch, [up, down])


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_branchy_model_b1_identical(seed):
    model, places = make_branchy_model()
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed, horizon=40.0, n_streams=1, batch_size=1
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places)


def test_one_vehicle_model_b1_identical():
    params = AHSParameters(max_platoon_size=3)
    shared = SharedPlaces(params)
    model = build_one_vehicle_model(shared, params)
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed=17, horizon=100.0, n_streams=1, batch_size=1
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, model.places)


def test_deadlock_b1_identical():
    a = Place("a", 2)
    b = Place("b", 0)
    model = SANModel("drain")
    model.add_activity(
        TimedActivity(
            "move",
            rate=1.5,
            input_gates=[input_arc(a)],
            cases=[Case(1.0, [output_arc(b)])],
        )
    )
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed=8, horizon=1000.0, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, [a, b])
    assert runs_a[0].firings == 2
    assert runs_a[0].end_time < 1000.0


def test_survival_weight_at_horizon_identical():
    model, up, down = make_two_state_model(fail_rate=1e-4, repair_rate=5.0)
    runs_a, runs_b, _, _ = run_batch_both(
        model,
        seed=21,
        horizon=2.0,
        n_streams=8,
        batch_size=8,
        bias={"fail": 1000.0},
    )
    for run_a, run_b in zip(runs_a, runs_b):
        assert not run_a.stopped
        assert run_a.weight == run_b.weight
        assert run_a.weight != 1.0
        assert math.isfinite(run_a.weight)


# ----------------------------------------------------------------------
# wider batches on the composed AHS model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [1, 16])
def test_composed_model_identical(batch_size):
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    predicate = ahs.unsafe_predicate()
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        ahs.model,
        seed=9,
        horizon=10.0,
        n_streams=16,
        batch_size=batch_size,
        stop_predicate=predicate,
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, ahs.model.places)
    assert sum(r.firings for r in runs_a) > 100


def test_composed_biased_weights_identical_any_width():
    """IS likelihood-ratio weights — the most fragile field — must agree
    bit-for-bit whether the batch advances 1 or 16 rows in lockstep."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=100.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    bias = biasing.plan_for(ahs.model)
    predicate = ahs.unsafe_predicate()
    for batch_size in (1, 16):
        runs_a, runs_b, draws_a, draws_b = run_batch_both(
            ahs.model,
            seed=2,
            horizon=10.0,
            n_streams=16,
            batch_size=batch_size,
            stop_predicate=predicate,
            bias=bias,
        )
        assert_batch_identical(runs_a, runs_b, draws_a, draws_b, ahs.model.places)
        assert all(r.weight != 1.0 for r in runs_a)


def test_importance_estimator_batched_agrees():
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=50.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    estimates = {}
    for engine, width in (("compiled", 256), ("stepped", 16), ("stepped", 256)):
        estimator = ImportanceSamplingEstimator(
            ahs.model,
            ahs.unsafe_predicate(),
            biasing,
            engine=engine,
            batch_size=width,
        )
        estimates[(engine, width)] = estimator.estimate(
            [5.0, 10.0], 40, StreamFactory(99)
        )
    reference = estimates[("compiled", 256)]
    for width in (16, 256):
        candidate = estimates[("stepped", width)]
        # bit-identical, which trivially satisfies the pooled-CI criterion
        assert list(candidate.values) == list(reference.values)
        assert list(candidate.half_widths) == list(reference.half_widths)


def test_batched_estimates_within_pooled_confidence_intervals():
    """The acceptance-style statistical check: estimates from B=16 and
    B=256 sweeps agree with the compiled engine within pooled 99% CIs
    (they are in fact bit-identical, so the margin is zero)."""
    ahs = build_composed_model(
        AHSParameters(max_platoon_size=2, base_failure_rate=5e-3)
    )
    predicate = ahs.unsafe_predicate()
    times = [5.0, 10.0]

    def estimate(engine_name, width):
        engine = make_jump_engine(
            ahs.model, engine=engine_name, batch_size=width
        )
        streams = StreamFactory(31).stream_batch("ci", 256)
        run_batch = getattr(engine, "run_batch", None)
        if callable(run_batch):
            runs = []
            for start in range(0, len(streams), width):
                runs.extend(run_batch(streams[start:start + width], 10.0, predicate))
        else:
            runs = [engine.run(s, 10.0, predicate) for s in streams]
        return TransientEstimate.from_indicator_runs(
            times, runs, confidence=0.99
        )

    reference = estimate("compiled", 256)
    for width in (16, 256):
        candidate = estimate("stepped", width)
        for ref_v, ref_h, cand_v, cand_h in zip(
            reference.values,
            reference.half_widths,
            candidate.values,
            candidate.half_widths,
        ):
            pooled = math.hypot(ref_h, cand_h)
            assert abs(cand_v - ref_v) <= max(pooled, 1e-15)
            assert cand_v == ref_v  # and in fact exactly equal


# ----------------------------------------------------------------------
# observer invariance
# ----------------------------------------------------------------------
def test_observer_forces_delegation_and_preserves_rng():
    """A traced stepped engine must produce the compiled engine's exact
    trace *and* the exact untraced results (instrumentation never touches
    the RNG stream)."""
    from repro.obs import Observation, TraceRecorder

    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    predicate = ahs.unsafe_predicate()

    def traced_runs(engine_name):
        recorder = TraceRecorder(capacity=50_000)
        observer = Observation(trace=recorder)
        engine = make_jump_engine(
            ahs.model, engine=engine_name, observer=observer, batch_size=4
        )
        streams = StreamFactory(13).stream_batch("obs", 8)
        run_batch = getattr(engine, "run_batch", None)
        if callable(run_batch):
            runs = []
            for start in range(0, len(streams), 4):
                runs.extend(run_batch(streams[start:start + 4], 8.0, predicate))
        else:
            runs = [engine.run(s, 8.0, predicate) for s in streams]
        events = [e.to_dict() for e in recorder.events()]
        return runs, events, [s.draw_count for s in streams]

    runs_c, trace_c, draws_c = traced_runs("compiled")
    runs_b, trace_b, draws_b = traced_runs("stepped")
    assert draws_b == draws_c
    assert trace_b == trace_c
    for run_c, run_b in zip(runs_c, runs_b):
        assert_runs_identical(run_c, run_b, ahs.model.places)

    # and the untraced batched results are the same as the traced ones
    plain = SteppedJumpEngine(ahs.model, batch_size=4)
    streams = StreamFactory(13).stream_batch("obs", 8)
    runs_plain = []
    for start in range(0, 8, 4):
        runs_plain.extend(plain.run_batch(streams[start:start + 4], 8.0, predicate))
    for run_p, run_b in zip(runs_plain, runs_b):
        assert_runs_identical(run_p, run_b, ahs.model.places)


# ----------------------------------------------------------------------
# property-style: random small SANs
# ----------------------------------------------------------------------
@given(data=random_san())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_sans_batched_identical(data):
    model, places, horizon, seed = data
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed, horizon, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places)


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_make_jump_engine_dispatch_batched():
    """``batched`` is no engine name any more: dispatch and the CLI
    reject it, listing the three engines that remain."""
    model, _up, _down = make_two_state_model()
    assert ENGINES == ("interpreted", "compiled", "stepped")
    with pytest.raises(ValueError, match="unknown engine 'batched'") as got:
        make_jump_engine(model, engine="batched", batch_size=32)
    for name in ENGINES:
        assert repr(name) in str(got.value)
    assert isinstance(
        make_jump_engine(model, engine="stepped", batch_size=32),
        SteppedJumpEngine,
    )
    assert isinstance(
        make_jump_engine(model, engine="interpreted"), MarkovJumpSimulator
    )
    assert isinstance(
        make_jump_engine(model, engine="compiled"), CompiledJumpEngine
    )
    with pytest.raises(ValueError, match="unknown engine"):
        make_jump_engine(model, engine="turbo")


def test_cli_rejects_the_batched_engine(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exited:
        main(["unsafety", "--method", "simulation", "--engine", "batched"])
    assert exited.value.code == 2
    assert "invalid choice: 'batched'" in capsys.readouterr().err


def test_constructor_validation():
    model, _up, _down = make_two_state_model()
    with pytest.raises(ValueError, match="batch_size"):
        SteppedJumpEngine(model, batch_size=0)
    with pytest.raises(ValueError, match="bias refers to unknown activities"):
        SteppedJumpEngine(model, bias={"nope": 2.0})
    with pytest.raises(ValueError, match="must be finite and > 0"):
        SteppedJumpEngine(model, bias={"fail": -1.0})
    from repro.stochastic.distributions import Deterministic

    semi_markov = SANModel("semi")
    place = Place("p", 1)
    semi_markov.add_activity(
        TimedActivity(
            "det",
            distribution=Deterministic(1.0),
            input_gates=[input_arc(place)],
            cases=[Case(1.0, [output_arc(place)])],
        )
    )
    with pytest.raises(TypeError, match="requires exponential activities"):
        SteppedJumpEngine(semi_markov)


def test_fired_events_counter_batched():
    model, _up, _down = make_two_state_model()
    engine = SteppedJumpEngine(model, batch_size=4)
    assert engine.fired_events == 0
    runs = engine.run_batch(StreamFactory(1).stream_batch("ev", 4), 10.0)
    assert engine.fired_events == sum(r.firings for r in runs)


def test_lowering_covers_paper_model_gates():
    """The compile pass must lower *every* timed activity of the AHS model
    to column ops — including the per-vehicle maneuver activities, whose
    occupancy helpers are kept float()-free precisely so they trace."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=3))
    engine = SteppedJumpEngine(ahs.model)
    stats = engine.lowering_stats()
    assert stats["timed_activities"] == stats["lowered"] + stats["fallback"]
    assert stats["fallback"] == 0
    assert engine.fallback_reasons == {}

    # a purely structural model lowers completely
    model, _up, _down = make_two_state_model()
    assert SteppedJumpEngine(model).lowering_stats()["fallback"] == 0


def test_rate_rewards_batched():
    """Rate-reward runs go through the compiled delegate: every field
    and every draw matches the compiled engine bit for bit."""
    model, up, down = make_two_state_model()
    reward = RateReward(
        "down_frac", MarkingFunction({"d": down}, lambda g: g["d"])
    )
    runs_a, runs_b, draws_a, draws_b = run_batch_both(
        model, seed=6, horizon=25.0, n_streams=8, batch_size=8,
        rewards=[reward],
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, [up, down])
    for run_a, run_b in zip(runs_a, runs_b):
        assert run_a.reward_integrals == run_b.reward_integrals
        assert run_a.reward_integrals["down_frac"] > 0.0
