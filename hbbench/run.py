"""hbsim benchmark: run one workload and print its metrics.

    python3 hbbench/run.py --workload flat --seed 1 --seconds 20 --trace 0

The run starts ``WORKERS`` fresh worker processes one after another; each sets
the workload up and times repeats of its call for its share of
``--seconds``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced repeats. Every time is in
reference seconds: measured, then scaled by the host-speed probe (probe.py).
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The exit code is 0 only if every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("flat", "tree", "concurrent", "analysis")
WORKERS = 4
WORKER_GRACE_S = 45.0

END_TO_END_UNITS = {"wall_s": "s", "tx_per_s": "tx/s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "report.bytes":
        return "bytes"
    if name.endswith("_per_generated"):
        return "ratio"
    return "count"


def run_worker(args, index: int, budget: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", str(args.trace), "--index", str(index),
    ]
    before = probe()
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget + WORKER_GRACE_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = (record["setup_done_at"] - spawned_at) * REFERENCE_S / (
        (before + record["setup_probe_s"]) / 2
    )
    for r in record["repeats"]:
        r["scale"] = REFERENCE_S / r["probe_s"]
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, required=True, help="measured seconds of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "hbsim" / "__init__.py").is_file():
        sys.stderr.write(f"hbsim sources not found under {ROOT / 'src'}\n")
        return 2

    records = []
    measured = 0.0
    try:
        for k in range(WORKERS):
            # each worker gets an equal share of what is left, so one that
            # overran or stopped short is made up by the next
            records.append(run_worker(args, k, max(0.0, (args.seconds - measured) / (WORKERS - k))))
            measured += records[-1]["measured_s"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1

    repeats = [r for rec in records for r in rec["repeats"]]
    reference = repeats[0]["digest"]
    failed = 0
    for r in repeats:
        problems = list(r["failures"])
        if r["digest"] != reference:
            problems.append(f"output digest {r['digest']} differs from the first repeat's {reference}")
        if problems:
            failed += 1
            for p in problems:
                print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {p}")

    plain = [r for r in repeats if not r["traced"]]
    if args.trace:
        traced = [r for r in repeats if r["traced"]]
        units = {name: layer_unit(name) for name in traced[0]["layers"]}
        metrics = {
            name: statistics.median(r["layers"][name] * r["scale"] for r in traced)
            if unit == "s"
            else statistics.median_low(r["layers"][name] for r in traced)
            for name, unit in units.items()
        }
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] * r["scale"] for r in traced
        ) - statistics.median(r["wall_s"] * r["scale"] for r in plain)
        units["trace.overhead_s"] = "s"
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in plain),
            "tx_per_s": statistics.median(r["work"] / (r["wall_s"] * r["scale"]) for r in plain),
            "peak_rss_mb": statistics.median(rec["peak_rss_kb"] for rec in records) / 1024,
            "setup_s": statistics.median(rec["setup_s"] for rec in records),
        }
        units = END_TO_END_UNITS

    print(
        f"{args.workload} seed {args.seed}: {len(repeats)} operations, {failed} failed; "
        f"unscaled median wall {statistics.median(r['wall_s'] for r in plain):.4g} s, "
        f"median probe {statistics.median(r['probe_s'] for r in repeats) * 1000:.3g} ms "
        f"(reference {REFERENCE_S * 1000:.3g} ms)"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(repeats),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
