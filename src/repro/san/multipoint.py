"""Cross-point tensorized sweeps: one SoA tensor for many sweep points.

A figure sweep runs the *same step loop* P times — once per parameter
point — and each per-point batch pays the loop's fixed Python and NumPy
overhead (array slicing, cumulative sums, kernel dispatch) on its own R
rows.  This module stacks R replications × P points into one
``B = R·P``-row tensor so neighbouring sweep points share every masked
time advance, cumsum selection, delta scatter and direct-address table
lookup, leaving one Python-level step loop for the whole figure.

The loop is the stepped engine's own, :func:`repro.san.stepped.run_jobs`
(a single-point ``run_batch`` is its one-job case).  Each point's
stepped engine keeps its own compile artifacts (slot layout, lowered
groups, fire programs, refresh tables); the tensor is padded to the
sweep's widest layout and each engine's kernels touch only its own rows
and columns — see ``run_jobs`` for why the padding is exact.

Equivalence contract: per stream, runs are **bit-identical** to the
compiled engine (draw order, IS weights, stop times, final markings) at
every (R, P) shape, including ragged sweeps where points differ in
layout.  Each row draws only from its own
:class:`~repro.stochastic.rng.RandomStream`; a row's holding times,
selection uniforms and case choices are pure functions of its own
marking trajectory, so co-residence with other points' rows is
unobservable.  The intentional divergences are the stepped engine's
own: error *ordering* within a step, and re-evaluation timing of
model-bug errors.

Biased (importance-sampled) and unbiased engines cannot share a tensor
— the biased step draws against ``Rb`` while computing weights from
``Ro`` — so :class:`MultiPointContext` requires a uniform bias flag;
callers partition jobs by :attr:`SteppedJumpEngine.has_bias` first (the
pool's grouped dispatch does).

See ``docs/engine_perf.md`` for measurements and when per-point wins.
"""

from __future__ import annotations

from typing import Optional

from repro.san.simulator import SimulationRun
from repro.san.stepped import MultiPointJob, SteppedJumpEngine, run_jobs

__all__ = ["MultiPointJob", "MultiPointContext", "tensor_compatible"]


def tensor_compatible(engine) -> Optional[str]:
    """Why ``engine`` cannot ride in a multi-point tensor, or ``None``.

    The tensor step loop is the stepped engine's; anything that forces
    per-row delegation (observers) or a different loop entirely (other
    engine kinds) keeps its per-point path.
    """
    if not isinstance(engine, SteppedJumpEngine):
        name = getattr(engine, "engine_name", type(engine).__name__)
        return f"engine {name!r} is not the stepped engine"
    if engine.diagnose:
        return "diagnose-mode engines have no runtime kernels"
    if engine.observer is not None:
        return "observers force per-row compiled delegation"
    return None


class MultiPointContext:
    """Shared SoA tensor over many sweep points' stepped engines.

    Construction validates every job's engine (see
    :func:`tensor_compatible`) and enforces a uniform bias flag;
    :meth:`run` executes all jobs' replications in one step loop and
    demultiplexes per-job results in stream order.
    """

    def __init__(self, jobs: list[MultiPointJob]) -> None:
        if not jobs:
            raise ValueError("MultiPointContext needs at least one job")
        for job in jobs:
            reason = tensor_compatible(job.engine)
            if reason is not None:
                raise ValueError(f"job cannot be tensorized: {reason}")
        self.jobs = list(jobs)
        # dedupe engines by identity (several chunks of one point share
        # one memoised engine) preserving first-seen order
        self.engines: list = []
        seen: set[int] = set()
        for job in self.jobs:
            if id(job.engine) not in seen:
                seen.add(id(job.engine))
                self.engines.append(job.engine)
        flags = {bool(engine.has_bias) for engine in self.engines}
        if len(flags) > 1:
            raise ValueError(
                "cannot tensorize biased and unbiased engines together; "
                "partition jobs by engine.has_bias first"
            )
        self.has_bias = flags.pop()
        self.n_rows = sum(len(job.streams) for job in self.jobs)

    def run(self) -> list[list[SimulationRun]]:
        """Advance every job's replications; one result list per job."""
        if self.n_rows == 0:
            return [[] for _ in self.jobs]
        return run_jobs(self.engines, self.jobs)
