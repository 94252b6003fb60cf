"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps the benchmark's format rules, that
``layers.json`` names only metrics and workloads that exist, that every
workload emits every end-to-end metric (untraced) and every per-layer
metric (traced) with its unit, and that the benchmark refuses to run
without the package beside it.  Exits non-zero on the first problem list.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = []
    for section, fields in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for entry in spec[section]:
            if set(entry) != fields:
                problems.append(f"{section} entry {entry} has keys {sorted(entry)}")
            if not NAME.match(entry["name"]):
                problems.append(f"bad name {entry['name']!r}")
            names.append(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better' in {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"'why' of {entry['name']} is not one short line")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    setup = e2e.get("setup_s", {})
    if (setup.get("unit"), setup.get("better")) != ("s", "lower"):
        problems.append("setup_s must be in s, lower is better")
    elif setup["bound"] < max(m["bound"] for m in e2e.values()):
        problems.append("setup_s must have the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path:
            problems.append(f"path {path!r} is not a directory inside the repo")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    return problems


def check_layers(spec: dict) -> list[str]:
    layers = json.loads((HERE / "layers.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for layer, entry in layers.items():
        if layer == "_no_change":
            problems += [
                f"_no_change names unknown workload {w!r}" for w in entry if w not in workloads
            ]
            continue
        if layer not in per_layer:
            problems.append(f"layers.json: {layer!r} is not a per-layer metric")
        problems += [
            f"layers.json: {layer} moves unknown metric {m!r}"
            for m in entry["moves"] if m not in metrics
        ]
        problems += [
            f"layers.json: {layer} names unknown workload {w!r}"
            for w in entry["workloads"] if w not in workloads
        ]
    return problems


def last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = last_json_line(done.stdout)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0 or result is None:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-400:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: output checks failed: {done.stderr[-400:]}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics/units differ: {set(got) ^ set(wanted)}")
            if trace == 0:
                problems += [
                    f"{where}: {name} is {entry['value']}, not a positive number"
                    for name, entry in result["metrics"].items()
                    if not entry["value"] > 0
                ]
    return problems


def check_refuses_without_package(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        scratch = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, scratch / path, ignore=shutil.ignore_patterns("out"))
        done = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or last_json_line(done.stdout) is not None:
        return ["the benchmark ran without the package beside it"]
    return []


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_layers(spec)
    problems += check_refuses_without_package(spec)
    problems += check_runs(spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
