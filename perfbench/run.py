"""End-to-end benchmark of S(t) time-to-answer, with an optional layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh-process answers of one workload (``answer.py``) until ``S``
seconds have passed and at least three answers are in (answer ``i`` uses
seed ``N + i``), checks every answer's
output (``workloads.check``) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json`` (medians over the answers);
``--trace 1`` alternates untraced and traced answers and reports the
per-layer metrics, the unattributed remainder and the tracing overhead.

Every run appends one row, tagged with the seed, source revision, nproc
and Python/NumPy versions, to ``perfbench/out/history.jsonl`` and writes
the traced spans to ``perfbench/out/spans-<run id>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: an untraced run measures at least this many answers (each also sets up
#: once), so that the median is not decided by one seed: time to a target
#: CI depends on the seed through whole allocation rounds
MIN_ANSWERS = 3
#: a child answer that runs longer than this is killed and counted failed
CHILD_TIMEOUT_S = 150
#: percentiles tried for the tail, highest first; the first with at least
#: ten samples above it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def run_child(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One fresh-process answer; ``{"error": ...}`` when it did not finish."""
    out = OUT / f"answer-{os.getpid()}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(HERE / "answer.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    command += ["--trace"] * trace + ["--smoke"] * smoke
    # own process group, so that a timeout also stops the pool workers
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": f"answer exceeded {CHILD_TIMEOUT_S}s"}
    try:
        if child.returncode != 0:
            return {"error": stderr.strip().splitlines()[-1:] or child.returncode}
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 above it."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10.0:
            break
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return pct, ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(answers: list[dict]) -> dict:
    units = [u for a in answers for u in a["units_s"]]
    pct, tail_s = tail(units)
    median = lambda key: statistics.median(a[key] for a in answers)  # noqa: E731
    return {
        "setup_s": median("setup_s"),
        "answer_s": median("answer_s"),
        "unit_p50_ms": 1e3 * statistics.median(units),
        "unit_tail_ms": 1e3 * tail_s,
        "points_per_s": statistics.median(a["points"] / a["answer_s"] for a in answers),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        # recorded with the row, not reported as metrics
        "_unit_tail_pct": pct,
        "_unit_samples": len(units),
    }


def revision() -> str:
    """The git commit, or a digest of the package sources outside git."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny answers, for the benchmark's own self-test",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose one of {names}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    trace = bool(args.trace)
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    started = time.monotonic()
    for index in itertools.count():
        # a traced answer repeats its untraced twin's seed, so that their
        # difference is the tracing overhead
        for with_trace in (False, True) if trace else (False,):
            seed = args.seed + index
            answer = run_child(args.workload, seed, with_trace, args.smoke)
            if "error" in answer:
                errors.append(f"answer failed: {answer['error']}")
            else:
                answer["seed"] = seed
                (traced if with_trace else untraced).append(answer)
        enough = trace or index + 1 >= MIN_ANSWERS
        if (enough and time.monotonic() - started >= args.seconds) or len(errors) > 1:
            break
    if not untraced or (trace and not traced):
        print("; ".join(map(str, errors)) or "no answer completed", file=sys.stderr)
        return 1

    # attempted operations: answers plus dispatched chunks; failed: failed
    # output checks and answers, plus chunk retries and fallbacks
    failures = list(errors)
    attempted = len(errors)
    retries = 0
    for answer in untraced + traced:
        failures += workloads.check(args.workload, answer, answer["seed"], args.smoke)
        retries += answer.get("retries", 0)
        attempted += 1 + answer.get("chunks", 0)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    e2e = end_to_end(untraced)
    if trace:
        keys = sorted({k for a in traced for k in a["layers"]})
        metrics = {
            key: statistics.median(a["layers"].get(key, 0.0) for a in traced)
            for key in keys
        }
        metrics["trace.overhead_s"] = (
            statistics.median(a["answer_s"] for a in traced) - e2e["answer_s"]
        )
        metrics["unit_tail_pct"] = e2e["_unit_tail_pct"]
        metrics["unit_samples"] = float(e2e["_unit_samples"])
        metrics["failed_frac"] = (len(failures) + retries) / attempted
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    report = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }

    run_id = f"{args.workload}-{args.seed}-{int(time.time())}-{os.getpid()}"
    import numpy

    row = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "answers": len(untraced) + len(traced),
        "answer_seeds": [a["seed"] for a in untraced],
        "answer_s": [a["answer_s"] for a in untraced],
        "setup_s": [a["setup_s"] for a in untraced],
        "raw": [a.get("raw") for a in untraced],
        "unit_tail_pct": e2e["_unit_tail_pct"],
        "unit_samples": e2e["_unit_samples"],
        "failures": failures,
        "metrics": {k: v["value"] for k, v in report.items()},
    }
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    if traced:
        with open(OUT / f"spans-{run_id}.jsonl", "w", encoding="utf-8") as handle:
            for index, answer in enumerate(traced):
                for name, start, end, parent in answer["spans"]:
                    handle.write(json.dumps({
                        "run_id": f"{run_id}/{index}", "name": name,
                        "start": start, "end": end, "parent": parent,
                    }) + "\n")

    for name, entry in report.items():
        print(f"{args.workload:<18} {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures) + retries,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
