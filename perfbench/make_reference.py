"""Regenerate the reference values the benchmark checks answers against.

    python3 perfbench/make_reference.py [--replications N]

* ``reference/analytic-figures.json`` — every figure series at full size,
  from the lumped analytical engine (deterministic).
* ``reference/orchestrate-fig12.json`` — long-run crude Monte-Carlo values
  of S at the horizon for each grid point of ``orchestrate-fig12``, with
  their 95 % half-widths (the stepped engine, bit-identical to the
  default engine per seed, only faster).

Run it only when the model itself changes on purpose.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE_SEED = 1_000_003


def analytic_figures() -> dict:
    from repro.experiments import list_experiments, run_experiment

    return workloads.figure_series(
        run_experiment(experiment.experiment_id) for experiment in list_experiments()
    )


def orchestrate_points(replications: int) -> dict:
    from repro.core.measures import unsafety

    points = {}
    for point in workloads.orch_points():
        estimate = unsafety(
            point.params,
            point.times,
            method="simulation",
            n_replications=replications,
            seed=REFERENCE_SEED,
            engine="stepped",
        )
        points[point.point_id] = {
            "value": float(estimate.values[-1]),
            "half_width": float(estimate.half_widths[-1]),
        }
        print(point.point_id, points[point.point_id], flush=True)
    return {
        "method": "simulation",
        "engine": "stepped",
        "replications": replications,
        "seed": REFERENCE_SEED,
        "times": list(workloads.ORCH_TIMES),
        "points": points,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=200_000)
    args = parser.parse_args()
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    (out / "analytic-figures.json").write_text(
        json.dumps(analytic_figures(), indent=1) + "\n"
    )
    (out / "orchestrate-fig12.json").write_text(
        json.dumps(orchestrate_points(args.replications), indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
