"""The three workloads: what one answer runs, and how its output is checked.

Each ``answer_*`` function runs in a fresh child process (see
``answer.py``), so every answer pays the same cold start a user of the
package pays.  It calls public entry points with default engine and
dispatch settings and returns plain JSON-able outputs.  The ``check_*``
functions run in the benchmark process, after the answer, and return the
list of failed checks.

Why these workloads (see NOTES.md for the full table):

* ``analytic-figures`` — every table and figure at full size plus
  ``verify_all()``: the paper's deliverable.  Pure lumped-CTMC work; it
  bypasses the jump engines, estimators, runtime and orchestrator.
* ``is-paper-point`` — importance sampling at the paper's §4.1 point:
  the jump kernel under failure biasing, serial, so it bypasses the
  runtime and the orchestrator.
* ``orchestrate-fig12`` — the orchestrator on a figure-12-shaped grid at
  inflated failure rates, run to a uniform target CI on two workers:
  crude Monte-Carlo through the runtime, cache and ledger; it bypasses
  the rare-event biasing.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

#: §4.1 of the paper: n = 10, λ = 1e-5 /h, DD, trips of 2…10 h, boost 30
IS_N = 10
IS_LAMBDA = 1e-5
IS_TIMES = (2.0, 4.0, 6.0, 8.0, 10.0)
IS_BOOST = 30.0
#: replications per answer (the default engine runs ~40 ms each at n = 10)
IS_REPLICATIONS = 192
#: leading replications compared bit for bit with the interpreted oracle
IS_ORACLE_REPLICATIONS = 3

#: figure-12 shape (S at the horizon versus n, one series per λ) at
#: inflated λ so crude Monte-Carlo sees events.  At a 30 % target 20 of
#: 21 seeds tried converge in two rounds (3 072 replications); at 25 %
#: about one seed in ten stops a round early (see NOTES.md)
ORCH_LAMBDAS = (1e-2, 1.5e-2)
ORCH_SIZES = (4, 5)
ORCH_TIMES = (2.0,)
ORCH_TARGET = 0.3
ORCH_WORKERS = 2
#: a correct program misses the combined interval at this z with
#: probability ~1e-5 per point, so ~70 runs see no false failure
CHECK_Z = 4.42

Z95 = 1.959963984540054
#: relative CI reported for an estimate of zero (unbounded in truth)
REL_CI_CAP = 1e3
#: |log10| gap reported when the estimate is zero
GAP_CAP_DEX = 20.0


def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest reaped child's."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + workers * kids) / 1024.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# analytic-figures
# ----------------------------------------------------------------------
def answer_analytic(seed: int, probe, work: Path, smoke: bool) -> dict:
    from repro import experiments
    from repro.core.partasks import AnalyticalCurveTask
    from repro.experiments import claims

    probe.time_units(AnalyticalCurveTask, "__call__")
    builds: list[str] = []
    if probe.trace:
        _trace_analytical(probe, builds)
        probe.span(experiments, "run_experiment", "experiments.run_experiment")
        probe.span(claims, "verify_all", "experiments.verify_all")

    experiments_to_run = [e.experiment_id for e in experiments.list_experiments()]
    if smoke:
        experiments_to_run = ["figure10", "table1"]

    def entry():
        # through the module attributes, so traced runs see the spans
        results = [
            experiments.run_experiment(experiment_id)
            for experiment_id in experiments_to_run
        ]
        verdicts = claims.verify_all() if not smoke else []
        return results, verdicts

    (results, verdicts), answer_s, cpu_s = _timed(probe, entry)
    out = {
        "answer_s": answer_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(0),
        "points": len(probe.units),
        "series": figure_series(results),
        "verdicts": [[v.experiment_id, v.claim, bool(v.holds)] for v in verdicts],
    }
    if probe.trace:
        out["layers"] = {
            **_layer_metrics(probe),
            "core.analytical.builds": float(len(builds)),
            "core.analytical.distinct_ratio": (
                len(set(builds)) / len(builds) if builds else 0.0
            ),
        }
    return out


def figure_series(outcomes) -> dict:
    """``{figure id: {series label: values}}`` of the figure outcomes."""
    return {
        outcome.experiment_id: {
            label: [float(v) for v in values]
            for label, values in outcome.result.series.items()
        }
        for outcome in outcomes
        if hasattr(outcome.result, "series")
    }


def check_analytic(outputs: dict, smoke: bool) -> list[str]:
    failures = []
    if not smoke:
        verdicts = outputs["verdicts"]
        held = sum(1 for _, _, holds in verdicts if holds)
        if not verdicts or held != len(verdicts):
            failures.append(f"verify_all: {held}/{len(verdicts)} claims hold")
    reference = json.loads((REFERENCE / "analytic-figures.json").read_text())
    for figure_id, series in outputs["series"].items():
        expected = reference.get(figure_id)
        if expected is None or set(expected) != set(series):
            failures.append(f"{figure_id}: series labels differ from the reference")
            continue
        for label, values in series.items():
            want = expected[label]
            if len(want) != len(values) or any(
                not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)
                for a, b in zip(values, want)
            ):
                failures.append(f"{figure_id}/{label}: values differ from the reference")
    if not smoke and set(outputs["series"]) != set(reference):
        failures.append("the set of figures differs from the reference")
    return failures


# ----------------------------------------------------------------------
# is-paper-point
# ----------------------------------------------------------------------
def is_params():
    from repro.core import AHSParameters

    return AHSParameters(max_platoon_size=IS_N, base_failure_rate=IS_LAMBDA)


def answer_is(seed: int, probe, work: Path, smoke: bool) -> dict:
    from repro.core.measures import unsafety
    from repro.rare.importance import ImportanceSamplingEstimator
    from repro.san import compiled

    def instrument(engine) -> None:
        # time the kernel calls of whichever engine the defaults build
        for cls in type(engine).__mro__:
            for attr in ("run", "run_batch"):
                if attr in cls.__dict__ and (cls, attr) not in instrumented:
                    instrumented.add((cls, attr))
                    probe.time_units(cls, attr)
                    if probe.trace:
                        probe.span(cls, attr, "san.kernel", outermost=True)

    instrumented: set = set()
    probe.on_return(compiled, "make_jump_engine", instrument)
    # the answer's replications, for the oracle check and weight diagnostics
    estimators: list = []
    replications_seen: list = []
    probe.before(ImportanceSamplingEstimator, "runs", lambda self, *a, **k: estimators.append(self))
    probe.on_return(ImportanceSamplingEstimator, "runs", replications_seen.append)
    if probe.trace:
        _trace_simulation(probe)

    params = is_params()
    replications = 16 if smoke else IS_REPLICATIONS

    def entry():
        return unsafety(
            params,
            IS_TIMES,
            method="importance",
            n_replications=replications,
            seed=seed,
            boost=IS_BOOST,
        )

    estimate, answer_s, cpu_s = _timed(probe, entry)
    estimator, runs = estimators[-1], replications_seen[-1]
    events = sum(r.firings for r in runs)
    out = {
        "answer_s": answer_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(0),
        "points": 1,
        "values": [float(v) for v in estimate.values],
        "half_widths": [float(v) for v in estimate.half_widths],
        "head": [
            [bool(r.stopped), float(r.stop_time), float(r.weight), int(r.firings)]
            for r in runs[:IS_ORACLE_REPLICATIONS]
        ],
        "replications": len(runs),
        "events": events,
    }
    if probe.trace:
        surrogate = unsafety(params, IS_TIMES, method="analytical").values
        layers = _layer_metrics(probe)
        weights = estimator.diagnose_weights(runs)
        hits = weights["hits"]
        layers.update(
            {
                "rare.hits": hits,
                "rare.ess_ratio": weights["ess_ratio"],
                "rare.max_weight_share": (
                    weights["max_weight"] / (weights["mean_weight"] * hits)
                    if hits else 0.0
                ),
                "san.events": float(events),
                "reps_per_s": len(runs) / answer_s,
                "events_per_s": events / answer_s,
                **_quality(
                    float(estimate.values[-1]),
                    float(estimate.half_widths[-1]),
                    cpu_s,
                    float(surrogate[-1]),
                ),
            }
        )
        out["layers"] = layers
    return out


def check_is(outputs: dict, seed: int) -> list[str]:
    failures = []
    values = outputs["values"]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        failures.append(f"importance estimate not finite and non-negative: {values}")
    oracle = oracle_head(seed, len(outputs["head"]))
    if oracle != outputs["head"]:
        failures.append(
            f"leading replications differ from the interpreted oracle: "
            f"{outputs['head']} != {oracle}"
        )
    return failures


@functools.lru_cache(maxsize=None)
def oracle_head(seed: int, count: int) -> list:
    """The first ``count`` replications on the interpreted reference engine."""
    from repro.core.composed import build_composed_model
    from repro.rare.importance import FailureBiasing, ImportanceSamplingEstimator
    from repro.stochastic import StreamFactory

    ahs = build_composed_model(is_params())
    # the same biasing ``unsafety(method="importance")`` applies
    biasing = FailureBiasing(
        boost=IS_BOOST, name_predicate=lambda name: name.startswith("L_FM")
    )
    estimator = ImportanceSamplingEstimator(
        ahs.model, ahs.unsafe_predicate(), biasing, engine="interpreted"
    )
    runs = estimator.runs(count, max(IS_TIMES), StreamFactory(seed))
    return [
        [bool(r.stopped), float(r.stop_time), float(r.weight), int(r.firings)]
        for r in runs
    ]


# ----------------------------------------------------------------------
# orchestrate-fig12
# ----------------------------------------------------------------------
def orch_points():
    from repro.core import AHSParameters
    from repro.orchestrate import SweepPoint

    return [
        SweepPoint(
            point_id=f"fig12/lambda={lam:g}/n={n}",
            params=AHSParameters(base_failure_rate=lam, max_platoon_size=n),
            times=ORCH_TIMES,
        )
        for lam in ORCH_LAMBDAS
        for n in ORCH_SIZES
    ]


def answer_orch(seed: int, probe, work: Path, smoke: bool) -> dict:
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs import EventBus, RunLedger
    from repro.orchestrate import Budget, orchestrate
    from repro.runtime import ParallelRunner, ResultCache
    from repro.san import compiled

    def instrument(engine) -> None:
        # speed probes in the workers, between kernel calls
        for cls in type(engine).__mro__:
            for attr in ("run", "run_batch"):
                key = (os.getpid(), cls, attr)
                if attr in cls.__dict__ and key not in instrumented:
                    instrumented.add(key)
                    probe.probe_speed(cls, attr)

    instrumented: set = set()
    probe.on_return(compiled, "make_jump_engine", instrument, every_process=True)
    # set-up ends once the pool has forked its workers
    probe.mark_first(ProcessPoolExecutor, "submit")
    if probe.trace:
        _trace_orchestrate(probe)

    ledger_path = work / "ledger.jsonl"
    cache_dir = work / "cache"
    points = orch_points()
    target = 0.5 if smoke else ORCH_TARGET
    bus = EventBus(f"perfbench-{seed}", sinks=[RunLedger(ledger_path)])
    runner = ParallelRunner(
        workers=ORCH_WORKERS, cache=ResultCache(cache_dir), chunk_cache=True
    )

    def entry():
        return orchestrate(
            points, Budget(target_relative_ci=target), runner, seed=seed, events=bus
        )

    try:
        report, answer_s, cpu_s = _timed(probe, entry, teardown=runner.close)
    finally:
        runner.close()
        bus.close()
    chunk_s = [
        event["data"]["elapsed_seconds"]
        for event in map(json.loads, ledger_path.read_text().splitlines())
        if event["event"] == "ChunkCompleted"
    ]
    probe.units[:] = chunk_s
    telemetry = report.telemetry or {}
    spent = int(report.ledger["spent"])
    events = sum(p.events for p in report.points)
    out = {
        "answer_s": answer_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(ORCH_WORKERS),
        "points": len(report.points),
        "target": target,
        "stop_reason": report.ledger["stop_reason"],
        "estimates": {
            p.point_id: {
                "estimator": p.estimator,
                "values": list(p.values),
                "half_widths": list(p.half_widths or ()),
                "n": p.n_replications,
                "converged": bool(p.converged),
            }
            for p in report.points
        },
    }
    if probe.trace:
        layers = _layer_metrics(probe)
        busy = sum(
            w.get("busy_seconds", 0.0)
            for w in telemetry.get("per_worker", {}).values()
        )
        dispatch = layers["runtime.dispatch_s"]
        quality = [
            _quality(
                p.values[-1],
                p.half_widths[-1],
                cpu_s,
                p.surrogate[-1] if p.surrogate else 0.0,
            )
            for p in report.points
        ]
        # replications each point needed: its spend scaled by (CI / target)²
        needed = sum(
            p.n_replications * min(1.0, (q["rel_ci"] / target) ** 2)
            for p, q in zip(report.points, quality)
        )
        layers.update(
            {
                "runtime.busy_s": busy,
                "runtime.idle_frac": (
                    1.0 - busy / (ORCH_WORKERS * dispatch) if dispatch else 0.0
                ),
                "runtime.chunks": float(telemetry.get("chunks", 0)),
                "runtime.retries": float(telemetry.get("retries", 0)),
                "runtime.fallbacks": float(telemetry.get("fallbacks", 0)),
                "runtime.cache_misses": float(telemetry.get("cache_misses", 0)),
                "runtime.cache_bytes": float(_tree_bytes(cache_dir)),
                "orchestrate.rounds": float(report.ledger["rounds"]),
                "orchestrate.alloc_efficiency": needed / spent if spent else 0.0,
                "obs.ledger_bytes": float(ledger_path.stat().st_size),
                "reps_per_s": spent / answer_s,
                "events_per_s": events / answer_s,
                "reps_to_target": float(spent),
                **{
                    key: max(q[key] for q in quality)
                    for key in ("rel_ci", "wnrv", "surrogate_gap_dex")
                },
            }
        )
        out["layers"] = layers
    out["retries"] = int(telemetry.get("retries", 0)) + int(telemetry.get("fallbacks", 0))
    out["chunks"] = int(telemetry.get("chunks", 0))
    return out


def check_orch(outputs: dict) -> list[str]:
    failures = []
    reference = json.loads((REFERENCE / "orchestrate-fig12.json").read_text())
    target = outputs["target"]
    if outputs["stop_reason"] != "converged":
        failures.append(f"orchestrate stopped on {outputs['stop_reason']!r}")
    for point_id, est in outputs["estimates"].items():
        value, half = est["values"][-1], est["half_widths"][-1]
        if est["estimator"] != "simulation":
            failures.append(f"{point_id}: routed to {est['estimator']}, not crude MC")
        if not (est["converged"] and value > 0 and half / value <= target):
            failures.append(f"{point_id}: relative CI {half / value if value else 'inf'} above {target}")
        ref = reference["points"].get(point_id)
        if ref is None:
            failures.append(f"{point_id}: no reference value")
            continue
        se = math.hypot(half / Z95, ref["half_width"] / Z95)
        if abs(value - ref["value"]) > CHECK_Z * se:
            failures.append(
                f"{point_id}: {value:.5g} disagrees with the reference "
                f"{ref['value']:.5g} (combined se {se:.3g})"
            )
    return failures


# ----------------------------------------------------------------------
# shared helpers (child side)
# ----------------------------------------------------------------------
def _timed(probe, entry, teardown=None):
    """Run ``entry`` as the answer: wall seconds, CPU seconds incl. workers.

    CPU is read after ``teardown`` so that reaped workers are counted.
    """
    cpu0 = _cpu()
    root = probe.open("answer") if probe.trace else None
    start = time.perf_counter()
    result = entry()
    answer_s = time.perf_counter() - start
    if root is not None:
        probe.close(root)
    if teardown is not None:
        teardown()
    return result, answer_s, _cpu() - cpu0


def _quality(value: float, half: float, cpu_s: float, surrogate: float) -> dict:
    """Relative CI, work-normalised relative variance and surrogate gap."""
    rel = half / value if value > 0 else REL_CI_CAP
    gap = abs(math.log10(value / surrogate)) if value > 0 and surrogate > 0 else GAP_CAP_DEX
    return {
        "rel_ci": rel,
        "wnrv": (rel / Z95) ** 2 * cpu_s,
        "surrogate_gap_dex": gap,
    }


def _trace_analytical(probe, builds: list) -> None:
    from repro.core.analytical import AnalyticalEngine
    from repro.ctmc import stationary, transient

    probe.before(
        AnalyticalEngine, "__init__",
        lambda self, params, *a, **k: builds.append(repr(params)),
    )
    probe.span(AnalyticalEngine, "__init__", "core.analytical.build")
    probe.span(AnalyticalEngine, "unsafety", "core.analytical.solve")
    probe.span(transient, "transient_distribution", "ctmc.transient")
    probe.span(stationary, "stationary_distribution", "ctmc.stationary")


def _trace_simulation(probe) -> None:
    from repro.core import composed
    from repro.rare.importance import ImportanceSamplingEstimator
    from repro.san import compiled

    probe.span(composed, "build_composed_model", "core.composed.build")
    probe.span(compiled, "make_jump_engine", "san.compile")
    probe.span(ImportanceSamplingEstimator, "estimate", "rare.estimate")


def _trace_orchestrate(probe) -> None:
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs.events import EventBus
    from repro.orchestrate import driver, surrogate
    from repro.runtime.pool import ParallelRunner

    probe.span(surrogate, "warm_start", "orchestrate.warm_start")
    probe.span(driver.Orchestrator, "run", "orchestrate.run")
    probe.span(ParallelRunner, "chunk_jobs", "runtime.chunk_jobs")
    for attr in ("execute_jobs", "execute_jobs_grouped", "map"):
        probe.span(ParallelRunner, attr, "runtime.dispatch", outermost=True)
    probe.span(ProcessPoolExecutor, "__init__", "runtime.pool_start")
    probe.span(
        ProcessPoolExecutor,
        "submit",
        "runtime.pool_start",
        when=lambda executor, *a, **k: not executor._processes,
    )
    probe.span(EventBus, "emit", "obs.emit")


#: span name -> (per-layer metric, "self" or "total" seconds)
_SPAN_METRICS = {
    "core.analytical.build": ("core.analytical.build_s", "self_s"),
    "core.analytical.solve": ("core.analytical.solve_s", "self_s"),
    "ctmc.transient": ("ctmc.transient_s", "total_s"),
    "ctmc.stationary": ("ctmc.stationary_s", "total_s"),
    "core.composed.build": ("core.composed.build_s", "total_s"),
    "san.compile": ("san.compile_s", "total_s"),
    "san.kernel": ("san.kernel_s", "total_s"),
    "rare.estimate": ("rare.self_s", "self_s"),
    "experiments.run_experiment": ("experiments.self_s", "self_s"),
    "experiments.verify_all": ("experiments.self_s", "self_s"),
    "orchestrate.warm_start": ("orchestrate.warm_start_s", "total_s"),
    "orchestrate.run": ("orchestrate.driver_self_s", "self_s"),
    "runtime.dispatch": ("runtime.dispatch_s", "total_s"),
    "runtime.chunk_jobs": ("runtime.chunk_jobs_s", "total_s"),
    "runtime.pool_start": ("runtime.pool_start_s", "total_s"),
    "obs.emit": ("obs.emit_s", "total_s"),
    "answer": ("trace.unattributed_s", "self_s"),
}


def _layer_metrics(probe) -> dict:
    from tracing import layer_times

    times = layer_times(probe.spans)
    layers = dict.fromkeys((metric for metric, _ in _SPAN_METRICS.values()), 0.0)
    for span, (metric, kind) in _SPAN_METRICS.items():
        layers[metric] += times.get(span, {}).get(kind, 0.0)
    kernel = [end - start for name, start, end, _ in probe.spans if name == "san.kernel"]
    layers["san.first_call_ms"] = 1e3 * kernel[0] if kernel else 0.0
    rest = sorted(kernel[1:])
    layers["san.call_p50_ms"] = 1e3 * rest[len(rest) // 2] if rest else 0.0
    layers["obs.events"] = float(times.get("obs.emit", {}).get("calls", 0))
    return layers


ANSWERS = {
    "analytic-figures": answer_analytic,
    "is-paper-point": answer_is,
    "orchestrate-fig12": answer_orch,
}


def check(workload: str, outputs: dict, seed: int, smoke: bool) -> list[str]:
    """Failed output checks of one answer (empty when it is correct)."""
    if workload == "analytic-figures":
        return check_analytic(outputs, smoke)
    if workload == "is-paper-point":
        return check_is(outputs, seed)
    return [] if smoke else check_orch(outputs)
