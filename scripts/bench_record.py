"""Record the benchmark's end-to-end metrics for the checked-out commit.

    python3 scripts/bench_record.py

For every workload in BENCHMARK.json and every seed in ``SEEDS``, one run at a
time, this runs

    python3 hbbench/run.py --workload W --seed N --seconds 25 --trace 0

and writes ``BENCH_<short-sha>.json`` to the repository root. Per workload the
file holds the median, min and interquartile range of each end-to-end metric
over the seeds, the per-seed values, and the operations attempted and failed.
For each simulator workload and seed it also holds the sha256 of the report's
``canonical_json``, from one untimed ``SimulatorWorkload(name, seed).call()``
made between runs, so two files show whether the reports differ.
It also holds ``nproc``, the platform, the Python and numpy versions, the git
sha and whether ``src/`` or ``hbbench/`` differed from that commit. Times are
the benchmark's reference seconds (``hbbench/probe.py``).

Compare two files only when they were recorded on the same host.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "hbbench")]
from workloads import SIMULATOR_RUNS, SimulatorWorkload  # noqa: E402


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metric values, or the error that stopped it."""
    cmd = [
        sys.executable, "hbbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "exit_code": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed}: {values} failed={result['failed']}", flush=True)
    return {
        "seed": seed,
        "exit_code": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }


def report_sha256(workload: str, seed: int) -> str | None:
    """sha256 of a simulator workload's ``canonical_json`` for one seed; None for analysis."""
    if workload not in SIMULATOR_RUNS:
        return None
    text = SimulatorWorkload(workload, seed).call()
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "min": min(values), "iqr": q3 - q1}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    sha = git("rev-parse", "--short", "HEAD").stdout.strip()
    if not sha:
        sys.stderr.write(f"{ROOT} is not a git checkout\n")
        return 2
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(workload, seed, bench["run_seconds"])
            digest = report_sha256(workload, seed)
            if digest is not None:
                run["report_sha256"] = digest
            runs.append(run)
        done = [r for r in runs if "metrics" in r]
        workloads[workload] = {
            "runs": runs,
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "aborted_runs": len(runs) - len(done),
            "metrics": {
                name: dict(unit=unit, **summarize([r["metrics"][name] for r in done]))
                for name, unit in metrics.items()
            }
            if len(done) >= 2
            else {},
        }
    record = {
        "git_sha": sha,
        "source_differs_from_commit": bool(git("status", "--porcelain", "--", "src", "hbbench").stdout),
        "command": "python3 hbbench/run.py --workload W --seed N "
        f"--seconds {bench['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"-> {path}")
    return 0 if all(w["failed"] == 0 and w["aborted_runs"] == 0 for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
