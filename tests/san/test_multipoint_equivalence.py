"""Bit-exact equivalence of cross-point tensorized execution.

A :class:`~repro.san.multipoint.MultiPointContext` stacks R replications
× P sweep points into one padded SoA tensor and runs the stepped
engine's batch-step loop once over all B = R·P rows.  The contract it
must keep: for every job, the returned :class:`SimulationRun` objects —
end times, stop flags, stop times, importance-sampling weights, firing
counts, final markings — and the per-stream draw order are *bit
identical* to what :class:`~repro.san.compiled.CompiledJumpEngine`
produces running each stream alone.  (The reference is the compiled
engine rather than a single-point ``run_batch``: that is the same step
loop with one job, so it could not disagree with itself.)  This suite
enforces the contract at several (R, P) shapes, on a ragged sweep
(mixed platoon sizes padded to the widest point's layout), under
importance-sampling bias, and across jobs that share one engine
object.

The padding argument these tests pin down empirically: a narrow point's
rows carry trailing zero rate columns, which leave the row's cumsum
prefix and total bitwise unchanged, so selection indices, draw counts
and weights cannot drift no matter which other points share the tensor.
"""

from __future__ import annotations

import pytest

from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing
from repro.san import (
    CompiledJumpEngine,
    MultiPointContext,
    MultiPointJob,
    SteppedJumpEngine,
    tensor_compatible,
)
from repro.stochastic import StreamFactory

from tests.san.test_compiled_equivalence import assert_runs_identical


# inflated failure rate so unsafe events land inside short horizons
def make_ahs(n):
    return build_composed_model(
        AHSParameters(max_platoon_size=n, base_failure_rate=2e-2)
    )


def make_point(n, biased=False, batch_size=64):
    """(tensor engine, compiled reference engine, predicate, places).

    Both engines compile the *same* model object so their markings share
    ``Place`` identities and compare directly.
    """
    ahs = make_ahs(n)
    bias = (
        FailureBiasing(
            boost=30.0, name_predicate=lambda name: name.startswith("L_FM")
        ).plan_for(ahs.model)
        if biased
        else None
    )
    engine_t = SteppedJumpEngine(ahs.model, bias=bias, batch_size=batch_size)
    engine_s = CompiledJumpEngine(ahs.model, bias=bias)
    return engine_t, engine_s, ahs.unsafe_predicate(), list(
        engine_t.compiled.places
    )


def solo_runs(engine, streams, horizon, predicate):
    """The compiled reference: each stream run on its own."""
    return [engine.run(stream, horizon, predicate) for stream in streams]


def run_both_ways(point_specs, reps, seed=7):
    """Tensorized vs per-stream runs for ``point_specs`` = [(n, horizon)].

    Returns ``[(tensor_runs, solo_runs, places, draws_t, draws_s)]`` —
    one tuple per point, with per-stream draw-count lists from each path.
    """
    jobs, solo, stream_pairs = [], [], []
    for index, (n, horizon) in enumerate(point_specs):
        engine_t, engine_s, predicate, places = make_point(n)
        label = f"pt{index}"
        streams_t = StreamFactory(seed).stream_batch(label, reps)
        streams_s = StreamFactory(seed).stream_batch(label, reps)
        jobs.append(MultiPointJob(engine_t, streams_t, horizon, predicate))
        solo.append((engine_s, streams_s, horizon, predicate, places))
        stream_pairs.append((streams_t, streams_s))
    tensor_results = MultiPointContext(jobs).run()
    out = []
    for (engine_s, streams_s, horizon, predicate, places), t_runs, (
        streams_t,
        _,
    ) in zip(solo, tensor_results, stream_pairs):
        s_runs = solo_runs(engine_s, streams_s, horizon, predicate)
        out.append(
            (
                t_runs,
                s_runs,
                places,
                [s.draw_count for s in streams_t],
                [s.draw_count for s in streams_s],
            )
        )
    return out


# ----------------------------------------------------------------------
# (R, P) shape sweep — uniform layout, differing horizons per point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reps,points", [(1, 1), (3, 2), (5, 3), (2, 4)])
def test_shapes_bit_identical(reps, points):
    specs = [(2, 4.0 + 3.0 * k) for k in range(points)]
    for t_runs, s_runs, places, draws_t, draws_s in run_both_ways(
        specs, reps
    ):
        assert len(t_runs) == reps
        for run_t, run_s in zip(t_runs, s_runs):
            assert_runs_identical(run_s, run_t, places)
        assert draws_t == draws_s


# ----------------------------------------------------------------------
# ragged sweep: mixed platoon sizes share one padded tensor
# ----------------------------------------------------------------------
def test_ragged_sweep_bit_identical():
    specs = [(2, 10.0), (3, 10.0), (4, 10.0)]
    total_firings = 0
    for t_runs, s_runs, places, draws_t, draws_s in run_both_ways(
        specs, reps=5
    ):
        for run_t, run_s in zip(t_runs, s_runs):
            assert_runs_identical(run_s, run_t, places)
            total_firings += run_t.firings
        assert draws_t == draws_s
    assert total_firings > 0  # the sweep actually simulated something


# ----------------------------------------------------------------------
# importance sampling: biased rows keep exact likelihood-ratio weights
# ----------------------------------------------------------------------
def test_biased_sweep_bit_identical():
    jobs, refs = [], []
    for index, n in enumerate((2, 3)):
        engine_t, engine_s, predicate, places = make_point(n, biased=True)
        streams_t = StreamFactory(11).stream_batch(f"is{index}", 4)
        streams_s = StreamFactory(11).stream_batch(f"is{index}", 4)
        jobs.append(MultiPointJob(engine_t, streams_t, 10.0, predicate))
        refs.append((engine_s, streams_s, predicate, places))
    results = MultiPointContext(jobs).run()
    weights = set()
    for job, (engine_s, streams_s, predicate, places), t_runs in zip(
        jobs, refs, results
    ):
        s_runs = solo_runs(engine_s, streams_s, 10.0, predicate)
        for run_t, run_s in zip(t_runs, s_runs):
            assert_runs_identical(run_s, run_t, places)
            weights.add(run_t.weight)
        assert [s.draw_count for s in job.streams] == [
            s.draw_count for s in streams_s
        ]
    assert any(w != 1.0 for w in weights)  # bias actually engaged


def test_mixed_bias_rejected():
    plain, _, predicate_a, _ = make_point(2)
    biased, _, predicate_b, _ = make_point(2, biased=True)
    jobs = [
        MultiPointJob(plain, StreamFactory(1).stream_batch("a", 2), 5.0,
                      predicate_a),
        MultiPointJob(biased, StreamFactory(1).stream_batch("b", 2), 5.0,
                      predicate_b),
    ]
    with pytest.raises(ValueError, match="partition jobs"):
        MultiPointContext(jobs)


# ----------------------------------------------------------------------
# one engine object serving several jobs (chunked dispatch shape)
# ----------------------------------------------------------------------
def test_shared_engine_jobs_bit_identical():
    engine_t, engine_s, predicate, places = make_point(3)
    jobs = [
        MultiPointJob(
            engine_t,
            StreamFactory(5).stream_batch(f"chunk{k}", 3),
            8.0,
            predicate,
        )
        for k in range(3)
    ]
    before = engine_t.fired_events
    results = MultiPointContext(jobs).run()
    fired = 0
    for k, t_runs in enumerate(results):
        streams_s = StreamFactory(5).stream_batch(f"chunk{k}", 3)
        s_runs = solo_runs(engine_s, streams_s, 8.0, predicate)
        for run_t, run_s in zip(t_runs, s_runs):
            assert_runs_identical(run_s, run_t, places)
            fired += run_t.firings
        assert [s.draw_count for s in jobs[k].streams] == [
            s.draw_count for s in streams_s
        ]
    # kernel-event telemetry flushes exactly the timed firings executed
    assert engine_t.fired_events - before == fired


# ----------------------------------------------------------------------
# eligibility probing
# ----------------------------------------------------------------------
def test_tensor_compatible_verdicts():
    stepped, _, _, _ = make_point(2)
    assert tensor_compatible(stepped) is None
    compiled = CompiledJumpEngine(make_ahs(2).model)
    assert "stepped" in tensor_compatible(compiled)


def test_incompatible_job_rejected():
    compiled = CompiledJumpEngine(make_ahs(2).model)
    job = MultiPointJob(
        compiled, StreamFactory(1).stream_batch("x", 2), 5.0, None
    )
    with pytest.raises(ValueError, match="cannot be tensorized"):
        MultiPointContext([job])


def test_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        MultiPointContext([])
