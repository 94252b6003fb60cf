"""One answer of one workload, in a fresh process (started by ``run.py``).

    python3 perfbench/answer.py --workload NAME --seed N --out FILE
        [--trace] [--smoke]

The clock starts before ``repro`` is imported, so set-up covers the import,
model build, compile and pool start up to the first unit of work.  The
result is written to ``--out`` as JSON; stdout is left to the program.

Times are reported at a reference CPU speed: each is multiplied by
``REFERENCE_SPIN_S / mean(spin)``, where the spins are speed probes taken
in the processes doing the work, during that work (see
``tracing.SpeedLog``).  The raw times are kept under ``"raw"``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Probe, SpeedLog, spin_seconds  # noqa: E402

spin_seconds()  # the first probe builds its table and runs cold
START_SPINS = [spin_seconds(), spin_seconds()]
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

from workloads import ANSWERS  # noqa: E402

#: what one speed probe takes at the reference speed (seconds)
REFERENCE_SPIN_S = 0.0025


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ANSWERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    speed = SpeedLog(work)
    probe = Probe(trace=args.trace, speed=speed)
    try:
        result = ANSWERS[args.workload](args.seed, probe, work, args.smoke)
    finally:
        probe.restore()
        spins = speed.samples()
        shutil.rmtree(work, ignore_errors=True)
    if probe.first_unit is None:
        raise SystemExit("no unit of work was observed")

    setup_scale = REFERENCE_SPIN_S / statistics.fmean(START_SPINS + probe.setup_spins)
    scale = REFERENCE_SPIN_S / statistics.fmean(spins or probe.setup_spins)
    result["raw"] = {
        "setup_s": probe.first_unit - STARTED,
        "answer_s": result["answer_s"],
        "cpu_s": result["cpu_s"],
        "spins": len(spins),
        "scale": scale,
    }
    result["setup_s"] = (probe.first_unit - STARTED) * setup_scale
    result["answer_s"] *= scale
    result["cpu_s"] *= scale
    result["units_s"] = [u * scale for u in probe.units]
    if args.trace:
        result["spans"] = probe.spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
