"""Per-engine memory hygiene of the batch engine.

A pool worker caches its built engines between chunks, so whatever an
idle engine holds is paid once per cached context.  The stepped engine
builds its per-row compiled delegate only when a run needs it
(observed runs, rate rewards and ``simulate``), and its step loop
releases each batch's rows and marking matrix before ``run_batch``
returns.  The delegate takes its refresh-memo footprints from the
lowering the stepped engine already ran, and diagnose engines build
neither memo nor closures.
"""

import gc
import weakref

import pytest

from repro.obs import Observation, TraceRecorder
from repro.san import CompiledJumpEngine, SteppedJumpEngine
from repro.san import compiled as compiled_module
from repro.san.stepped import _BatchCursor
from repro.san.multipoint import MultiPointContext, MultiPointJob
from repro.stochastic import StreamFactory
from tests.conftest import make_two_state_model

BATCH_ENGINES = [SteppedJumpEngine]


def streams(seed, count):
    return StreamFactory(seed).stream_batch("mem", count)


@pytest.fixture(params=BATCH_ENGINES, ids=lambda cls: cls.engine_name)
def engine_cls(request):
    return request.param


@pytest.fixture
def matrix_refs(monkeypatch):
    """Weak references to every matrix bound to a batch cursor."""
    refs = []
    original = _BatchCursor.bind_batch

    def recording(self, rows, matrix):
        refs.append(weakref.ref(matrix))
        return original(self, rows, matrix)

    monkeypatch.setattr(_BatchCursor, "bind_batch", recording)
    return refs


class TestLazyDelegate:
    def test_unobserved_runs_never_build_it(self, engine_cls):
        model, *_ = make_two_state_model()
        engine = engine_cls(model)
        runs = engine.run_batch(streams(3, 16), 4.0)
        runs.append(engine.run(streams(4, 1)[0], 4.0))
        assert engine._compiled_delegate is None
        assert engine.fired_events == sum(run.firings for run in runs) > 0

    def test_observed_run_builds_it_and_counts_its_firings(self, engine_cls):
        model, *_ = make_two_state_model()
        engine = engine_cls(model, observer=Observation(trace=TraceRecorder()))
        assert engine._compiled_delegate is None
        runs = engine.run_batch(streams(5, 4), 4.0)
        runs.append(engine.run(streams(6, 1)[0], 4.0))
        delegate = engine._compiled_delegate
        assert delegate is not None
        assert delegate.fired_events == sum(run.firings for run in runs) > 0
        assert engine.fired_events == delegate.fired_events

    def test_simulate_builds_it_and_counts_its_firings(self, engine_cls):
        model, *_ = make_two_state_model()
        engine = engine_cls(model)
        kernel = engine.run_batch(streams(7, 8), 4.0)
        engine.simulate(None, 0.0, 6.0, streams(8, 1)[0])
        delegate = engine._compiled_delegate
        assert delegate is not None and delegate.fired_events > 0
        assert engine.fired_events == (
            sum(run.firings for run in kernel) + delegate.fired_events
        )

    def test_delegate_is_built_once(self, engine_cls):
        model, *_ = make_two_state_model()
        engine = engine_cls(model)
        first = engine._delegate
        engine.simulate(None, 0.0, 1.0, streams(9, 1)[0])
        assert engine._delegate is first

    def test_diagnose_never_builds_it(self, engine_cls):
        model, *_ = make_two_state_model()
        engine = engine_cls(model, diagnose=True)
        assert engine._delegate is None
        with pytest.raises(RuntimeError, match="diagnose=True"):
            engine.simulate()
        assert engine._compiled_delegate is None
        assert engine.fired_events == 0


class TestSharedLowering:
    def test_delegate_reuses_the_parents_lowering(self, engine_cls,
                                                  monkeypatch):
        passes = []
        lower_timed = compiled_module.lower_timed

        def counting(compiled):
            passes.append(compiled)
            return lower_timed(compiled)

        monkeypatch.setattr(compiled_module, "lower_timed", counting)
        model, *_ = make_two_state_model()
        engine = engine_cls(model)
        assert passes == [engine.compiled]
        delegate = engine._delegate
        assert passes == [engine.compiled]
        assert delegate.compiled.lowering() is engine.compiled.lowering()
        engine.simulate(None, 0.0, 6.0, streams(15, 1)[0])
        stats = delegate.refresh_stats()
        # one memo per gate-code group, each holding both token counts
        assert len(delegate._memos) == 2
        assert stats["hits"] > 0 and stats["entries"] == 4
        assert passes == [engine.compiled]

    def test_diagnose_builds_no_memo_and_no_closures(self, engine_cls,
                                                     monkeypatch):
        memos = []
        monkeypatch.setattr(CompiledJumpEngine, "_bind_memo",
                            lambda engine: memos.append(engine))
        model, *_ = make_two_state_model()
        engine = engine_cls(model, diagnose=True)
        assert engine.lowering_stats()["lowered"] == 2
        assert engine._delegate is None
        assert memos == []
        assert (engine._choosers, engine._firers, engine._insta) == ([], [], [])
        assert engine._fb_enabled == [] and engine._fb_rate_fns == []


class TestBatchRelease:
    def test_run_batch_releases_its_matrix(self, engine_cls, matrix_refs):
        model, *_ = make_two_state_model()
        engine = engine_cls(model)
        runs = engine.run_batch(streams(11, 32), 4.0)
        assert len(runs) == 32
        gc.collect()
        assert len(matrix_refs) == 1 and matrix_refs[0]() is None
        assert engine._cursor._rows == []
        assert engine._cursor._matrix is None

    def test_released_on_error(self, engine_cls, matrix_refs):
        model, *_ = make_two_state_model()
        engine = engine_cls(model)

        def explode(marking):
            raise RuntimeError("stop predicate failed")

        with pytest.raises(RuntimeError, match="stop predicate failed"):
            engine.run_batch(streams(12, 8), 4.0, explode)
        gc.collect()
        assert len(matrix_refs) == 1 and matrix_refs[0]() is None
        assert engine._cursor._matrix is None

    def test_multipoint_run_releases_the_tensor(self, matrix_refs):
        engines = [
            SteppedJumpEngine(make_two_state_model(fail_rate=rate)[0])
            for rate in (0.5, 1.5)
        ]
        jobs = [
            MultiPointJob(engine=engine, streams=streams(14 + k, 8),
                          horizon=4.0)
            for k, engine in enumerate(engines)
        ]
        results = MultiPointContext(jobs).run()
        assert [len(runs) for runs in results] == [8, 8]
        gc.collect()
        assert matrix_refs and all(ref() is None for ref in matrix_refs)
        for engine in engines:
            assert engine._cursor._matrix is None
