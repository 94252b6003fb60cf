"""The compiled engine's refresh memo changes speed, never results.

:class:`~repro.san.compiled.CompiledJumpEngine` memoises each lowered
activity's ``(enabled·rate, read set)`` on the marking values of its
lowered footprint, one table per group of activities sharing gate/rate
code.  These tests hold it to the engine's equivalence contract: runs
are bit-identical to the interpreted oracle and to the same engine with
the memo off (``_MEMO_CAP = 0``) — on the AHS models at several sizes
and strategies, biased or not, from splitting-pool markings, with an
observer attached, and under forced evictions — and the negative- and
NaN-rate guards and the extended-place exclusion still hold.
"""

from __future__ import annotations

import math

import pytest

from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters, Strategy
from repro.obs import Observation, TraceRecorder
from repro.rare import FailureBiasing
from repro.san import (
    Case,
    CompiledJumpEngine,
    ExtendedPlace,
    MarkovJumpSimulator,
    Place,
    SANModel,
    TimedActivity,
    input_arc,
    output_arc,
)
from repro.san import compiled as compiled_module
from repro.san.gates import InputGate
from repro.san.marking import MarkingFunction
from repro.stochastic import StreamFactory


def summary(run):
    """Every field of a run (or path segment), final marking by name."""
    marking = run.final_marking if hasattr(run, "final_marking") else run.marking
    return (
        getattr(run, "end_time", getattr(run, "time", None)),
        run.stopped,
        run.stop_time,
        run.weight,
        run.firings,
        sorted(marking.as_dict().items()),
    )


def replay(engine, seed, count, horizon, predicate=None):
    """``count`` replications under one seed, with their draw counts."""
    streams = StreamFactory(seed).stream_batch("memo", count)
    runs = [summary(engine.run(s, horizon, predicate)) for s in streams]
    return runs, [s.draw_count for s in streams]


@pytest.fixture
def memo_off(monkeypatch):
    """Build engines whose refresh memo stores nothing."""

    def disable():
        monkeypatch.setattr(compiled_module, "_MEMO_CAP", 0)

    return disable


def paper_engine(n, strategy=Strategy.DD, lam=1e-5, boost=None):
    ahs = build_composed_model(
        AHSParameters(max_platoon_size=n, base_failure_rate=lam,
                      strategy=strategy)
    )
    bias = None
    if boost is not None:
        bias = FailureBiasing(
            boost=boost, name_predicate=lambda name: name.startswith("L_FM")
        ).plan_for(ahs.model)
    return ahs, bias


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("n", [1, 5, 10, 20])
@pytest.mark.parametrize("boost", [None, 30.0], ids=["crude", "biased"])
def test_identical_to_oracle_and_to_memo_off(n, strategy, boost, monkeypatch):
    ahs, bias = paper_engine(n, strategy, lam=1e-3, boost=boost)
    predicate = ahs.unsafe_predicate()
    horizon = 3.0
    memo = CompiledJumpEngine(ahs.model, bias=bias)
    expected = replay(memo, 40 + n, 4, horizon, predicate)
    assert memo.refresh_stats()["hits"] > 0
    oracle = MarkovJumpSimulator(ahs.model, bias=bias)
    assert replay(oracle, 40 + n, 2, horizon, predicate) == (
        expected[0][:2], expected[1][:2]
    )
    monkeypatch.setattr(compiled_module, "_MEMO_CAP", 0)
    plain = CompiledJumpEngine(ahs.model, bias=bias)
    assert replay(plain, 40 + n, 4, horizon, predicate) == expected
    stats = plain.refresh_stats()
    assert stats["hits"] == 0 and stats["entries"] == 0
    assert stats["misses"] > 0


def test_paper_point_identical_to_oracle():
    """The §4.1 importance-sampling configuration (n = 10, λ = 1e-5)."""
    ahs, bias = paper_engine(10, boost=30.0)
    predicate = ahs.unsafe_predicate()
    memo = replay(CompiledJumpEngine(ahs.model, bias=bias), 101, 3, 10.0,
                  predicate)
    oracle = replay(MarkovJumpSimulator(ahs.model, bias=bias), 101, 3, 10.0,
                    predicate)
    assert memo == oracle


def test_simulate_from_splitting_pool_marking(memo_off):
    ahs, _ = paper_engine(4, lam=1e-3)
    level = ahs.severity_level()
    oracle = MarkovJumpSimulator(ahs.model)
    # an entry marking as a splitting pool hands it out: dict-backed
    entry = oracle.simulate(
        ahs.model.initial_marking(), 0.0, 5.0, StreamFactory(3).stream("entry"),
        level_fn=level, level_target=1.0,
    ).marking
    memo = CompiledJumpEngine(ahs.model)

    def segments(engine):
        return [
            summary(engine.simulate(
                entry.copy(), 0.5, 6.0, stream, level_fn=level,
                level_target=3.0,
            ))
            for stream in StreamFactory(4).stream_batch("seg", 6)
        ]

    expected = segments(oracle)
    assert sum(segment[4] for segment in expected) > 20
    assert segments(memo) == expected
    memo_off()
    assert segments(CompiledJumpEngine(ahs.model)) == expected


def test_observer_sees_identical_trajectories(memo_off):
    ahs, bias = paper_engine(5, lam=1e-3, boost=30.0)
    predicate = ahs.unsafe_predicate()

    def traced():
        trace = TraceRecorder(capacity=50_000)
        engine = CompiledJumpEngine(
            ahs.model, bias=bias, observer=Observation(trace=trace)
        )
        runs = replay(engine, 8, 4, 3.0, predicate)
        return runs, [event.to_dict() for event in trace.events()]

    with_memo = traced()
    assert with_memo[1]
    bare = replay(CompiledJumpEngine(ahs.model, bias=bias), 8, 4, 3.0,
                  predicate)
    assert bare == with_memo[0]
    memo_off()
    assert traced() == with_memo


def test_cap_one_forces_evictions(monkeypatch):
    ahs, bias = paper_engine(5, lam=1e-3, boost=30.0)
    predicate = ahs.unsafe_predicate()
    expected = replay(CompiledJumpEngine(ahs.model, bias=bias), 9, 4, 3.0,
                      predicate)
    monkeypatch.setattr(compiled_module, "_MEMO_CAP", 1)
    engine = CompiledJumpEngine(ahs.model, bias=bias)
    assert replay(engine, 9, 4, 3.0, predicate) == expected
    stats = engine.refresh_stats()
    assert stats["entries"] <= len(engine._memos)
    assert stats["misses"] > stats["entries"]  # entries were evicted


def test_paper_point_hit_rate():
    """At n = 10 the memo answers > 90 % of refreshes in 16 replications."""
    ahs, bias = paper_engine(10, boost=30.0)
    engine = CompiledJumpEngine(ahs.model, bias=bias)
    replay(engine, 101, 16, 10.0, ahs.unsafe_predicate())
    stats = engine.refresh_stats()
    assert stats["hits"] > 0.9 * stats["refreshes"]
    assert stats["refreshes"] == stats["hits"] + stats["misses"]


# ----------------------------------------------------------------------
# guards and exclusions
# ----------------------------------------------------------------------
def has_token(g):
    return g["p"] > 0


def take_token(g):
    g.dec("p")


def leak_rate(g):
    return 2.5 - g["out"]


def make_draining_model():
    """Two activities sharing gate and rate code (one memo group).

    Each moves a token at rate ``2.5 - out``: once three tokens have
    moved, the rate is negative.
    """
    model = SANModel("draining")
    for name in ("leak", "spill"):
        src, dst = Place(f"{name}_src", 5), Place(f"{name}_dst", 0)
        model.add_activity(
            TimedActivity(
                name,
                rate=MarkingFunction({"out": dst}, leak_rate),
                input_gates=[InputGate(f"IG_{name}", {"p": src}, has_token,
                                       take_token)],
                cases=[Case(1.0, [output_arc(dst)])],
            )
        )
    return model


def test_negative_rate_raises_and_memo_is_not_poisoned():
    model = make_draining_model()
    engine = CompiledJumpEngine(model)
    (table,) = engine._memos
    oracle = MarkovJumpSimulator(model)
    for seed in (1, 2):
        with pytest.raises(ValueError, match="negative rate -0.5") as got:
            engine.run(StreamFactory(seed).stream("neg"), 100.0)
        with pytest.raises(ValueError, match="negative rate") as want:
            oracle.run(StreamFactory(seed).stream("neg"), 100.0)
        assert str(got.value) == str(want.value)
        # keys are (src, dst) values; the failing dst = 3 stored nothing
        assert {dst for _src, dst in table} == {0, 1, 2}
        assert all(value >= 0.0 for value, _ in table.values())
    # runs that stop short of the negative rate still match a fresh engine
    for seed in (5, 6):
        short = replay(engine, seed, 3, 0.3)
        assert short == replay(CompiledJumpEngine(model), seed, 3, 0.3)
        assert short == replay(MarkovJumpSimulator(model), seed, 3, 0.3)


def make_nan_model(gate_open: bool = True):
    """Two places; ``leak``'s rate is NaN once ``dst`` holds two tokens.

    With ``gate_open`` the leak is enabled whenever ``dst`` is marked, so
    the NaN rate is evaluated and must raise.  Otherwise its gate can
    never hold (there are only three tokens), its rate is never
    evaluated, and the model shuttles tokens until the horizon.
    """
    src, dst = Place("src", 3), Place("dst", 0)
    threshold = 0 if gate_open else 3
    model = SANModel("nan-rate")
    for name, a, b in (("move", src, dst), ("back", dst, src)):
        model.add_activity(
            TimedActivity(name, rate=1.0, input_gates=[input_arc(a)],
                          cases=[Case(1.0, [output_arc(b)])])
        )
    model.add_activity(
        TimedActivity(
            "leak",
            rate=MarkingFunction(
                {"d": dst}, lambda g: math.nan if g["d"] >= 2 else 0.5
            ),
            input_gates=[
                InputGate("IG_leak", {"d": dst},
                          lambda g: g["d"] > threshold,
                          lambda g: g.dec("d"))
            ],
            cases=[Case(1.0, [output_arc(src)])],
        )
    )
    return model


def test_nan_rate_raises_and_memo_is_not_poisoned():
    model = make_nan_model()
    engine = CompiledJumpEngine(model)
    leak = [a.name for a in engine.compiled.timed].index("leak")
    table = engine._memo_tables[leak]
    oracle = MarkovJumpSimulator(model)
    for seed in (1, 2):
        with pytest.raises(ValueError, match="rate is NaN") as got:
            engine.run(StreamFactory(seed).stream("nan"), 100.0)
        with pytest.raises(ValueError, match="rate is NaN") as want:
            oracle.run(StreamFactory(seed).stream("nan"), 100.0)
        assert str(got.value) == str(want.value)
        # keys are dst values; the failing dst = 2 stored nothing
        assert {key[0] for key in table} == {0, 1}
        assert not any(math.isnan(value) for value, _ in table.values())
    # behind a false gate the NaN rate is never evaluated
    gated = make_nan_model(gate_open=False)
    for seed in (5, 6):
        runs = replay(CompiledJumpEngine(gated), seed, 3, 20.0)
        assert runs == replay(MarkovJumpSimulator(gated), seed, 3, 20.0)
        assert all(run[0] == 20.0 for run in runs[0])


def test_extended_place_readers_are_never_memoised():
    slots = ExtendedPlace("slots", (1, 0))
    free = Place("free", 1)
    taken = Place("taken", 0)
    model = SANModel("extended")
    model.add_activity(
        TimedActivity(
            "grab",
            rate=1.0,
            input_gates=[
                InputGate("IG_grab", {"s": slots, "f": free},
                          lambda g: g["f"] > 0 and g["s"][0] > 0,
                          lambda g: g.dec("f"))
            ],
            cases=[Case(1.0, [output_arc(taken)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "put",
            rate=2.0,
            input_gates=[input_arc(taken)],
            cases=[Case(1.0, [output_arc(free)])],
        )
    )
    engine = CompiledJumpEngine(model)
    grab, put = (a.name for a in engine.compiled.timed)
    assert (grab, put) == ("grab", "put")
    assert engine._memo_keys[0] is None
    assert engine._memo_keys[1] is not None
    runs = replay(engine, 3, 4, 5.0)
    assert runs == replay(MarkovJumpSimulator(model), 3, 4, 5.0)
    stats = engine.refresh_stats()
    assert stats["refreshes"] > stats["hits"] + stats["misses"]


# ----------------------------------------------------------------------
# totals
# ----------------------------------------------------------------------
def test_left_to_right_sum_on_a_table_where_compensation_differs():
    """Each 1e-16 is below half an ulp of 1.0, so left to right they all
    vanish; a compensated sum (CPython >= 3.12 ``sum``) keeps them."""
    rates = [1.0] + [1e-16] * 8
    assert math.fsum(rates) == 1.0 + 8e-16 != 1.0
    assert compiled_module._ltr_sum(rates) == 1.0
    assert compiled_module._ltr_sum_accumulate(rates) == 1.0
    assert compiled_module._ltr_sum_accumulate([]) == 0.0


def test_totals_match_the_oracle_where_compensation_differs():
    """Holding times and weights use the interpreted engine's ``+=`` sum.

    The first firing absorbs, so each stop time is one holding time
    drawn at the total rate, and the weight carries the biased one.
    """
    hub, sink = Place("hub", 1), Place("sink", 0)
    model = SANModel("tiny-rates")
    for k, rate in enumerate([1.0] + [1e-16] * 8):
        model.add_activity(
            TimedActivity(
                f"t{k}",
                rate=rate,
                input_gates=[input_arc(hub)],
                cases=[Case(1.0, [output_arc(sink)])],
            )
        )

    def absorbed(marking):
        return marking.get(sink) > 0

    bias = {f"t{k}": 3.0 for k in range(1, 9)}
    for engine_bias in (None, bias):
        expected = replay(MarkovJumpSimulator(model, bias=engine_bias), 2, 6,
                          50.0, absorbed)
        got = replay(CompiledJumpEngine(model, bias=engine_bias), 2, 6, 50.0,
                     absorbed)
        assert got == expected
        assert all(run[1] for run in got[0])
