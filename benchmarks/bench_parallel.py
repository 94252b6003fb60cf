"""Parallel runtime — serial vs multi-worker Monte Carlo on a Figure-10 load.

Same workload as ``bench_fig10`` at Monte-Carlo scale: S(t) for one
platoon size via :class:`~repro.core.partasks.UnsafetySimulationTask`.
Run with ``pytest benchmarks/bench_parallel.py --benchmark-only -s``;
the JSON artefact (``--benchmark-json``) has the same shape as the other
bench files.  Wall-clock speedup assertions only fire on hosts with
enough cores to show one (``os.cpu_count() >= 4``).
"""

import os
import time

import numpy as np
import pytest

from repro.core.parameters import AHSParameters
from repro.core.partasks import UnsafetySimulationTask
from repro.runtime import ParallelRunner, ResultCache

#: λ inflated to 1e-2/hr so 600 replications produce non-zero estimates;
#: pinned to the scalar compiled kernel (the task default is the stepped
#: batch engine) so the per-chunk work, and hence the scaling measured
#: here, stays comparable across revisions
WORKLOAD = UnsafetySimulationTask(
    params=AHSParameters(max_platoon_size=4, base_failure_rate=1e-2),
    times=(0.5, 1.0, 2.0),
    engine="compiled",
)
N_REPLICATIONS = 600
CHUNK_SIZE = 100
SEED = 2009


def _run(workers: int, cache=None):
    with ParallelRunner(
        workers=workers, chunk_size=CHUNK_SIZE, cache=cache
    ) as runner:
        return runner.run(WORKLOAD, seed=SEED, n_replications=N_REPLICATIONS)


@pytest.fixture(scope="module")
def serial_reference():
    return _run(1)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_unsafety(benchmark, workers, serial_reference):
    result = benchmark.pedantic(_run, args=(workers,), rounds=1, iterations=1)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["replications"] = result.n_replications
    benchmark.extra_info["replications_per_sec"] = round(
        result.telemetry.units_per_second, 1
    )
    # any worker count reproduces the serial answer bit-for-bit
    assert np.array_equal(result.values, serial_reference.values)
    assert np.array_equal(result.half_widths, serial_reference.half_widths)
    assert (result.values > 0).all()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 physical cores to manifest",
)
def test_four_workers_at_least_twice_as_fast():
    start = time.perf_counter()
    _run(1)
    serial_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    _run(4)
    parallel_elapsed = time.perf_counter() - start

    assert serial_elapsed / parallel_elapsed >= 2.0


def test_warm_cache_rerun_under_ten_percent(tmp_path):
    cache = ResultCache(tmp_path)

    start = time.perf_counter()
    cold = _run(1, cache=cache)
    cold_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    warm = _run(1, cache=cache)
    warm_elapsed = time.perf_counter() - start

    assert not cold.from_cache
    assert warm.from_cache
    assert np.array_equal(cold.values, warm.values)
    assert warm_elapsed < 0.1 * cold_elapsed
