"""Record the benchmark's end-to-end metrics for the checked-out commit.

    python3 scripts/bench_record.py
    python3 scripts/bench_record.py --base <sha>

For every workload in BENCHMARK.json and every seed in ``SEEDS``, one run at a
time, this runs

    python3 hbbench/run.py --workload W --seed N --seconds 25 --trace 0

and writes ``BENCH_<short-sha>.json`` to the repository root. Per workload the
file holds the median, min and interquartile range of each end-to-end metric
over the seeds, the per-seed values, and the operations attempted and failed.
For each simulator workload and seed it also holds the sha256 of the report's
``canonical_json``, from one untimed ``SimulatorWorkload(name, seed).call()``
made in a subprocess between runs, so two files show whether the reports
differ. If that subprocess fails, the run keeps its timings, holds the tail
of the error as ``report_error`` instead, and the recorder exits 1. The file
also holds ``nproc``, the platform, the Python and numpy versions, the git
sha and whether ``src/`` or ``hbbench/`` differed from that commit.
Times are the benchmark's reference seconds (``hbbench/probe.py``).

With ``--base <sha>`` the recording is paired. The base commit is checked out
with ``git worktree`` into a temporary directory (removed at the end), and
base and head run alternately, one workload and seed at a time, each from its
own ``src/`` and ``hbbench/``; which side runs first alternates from one seed
to the next. Both BENCH files are written, and the head's file gains a
``paired`` section: for every end-to-end metric and workload, the per-seed
head/base ratio, the median of those ratios, the number of seeds on which
head was better, and the base's median and interquartile range; for every
simulator workload, ``reports_identical``, the number of seeds whose report
sha256 matches the base's. A gain holds when head was better on at least 9
of 10 seeds and its median beats the base's by more than the base's
interquartile range. Only such a pair, taken in one invocation, is evidence
of a change; two files recorded at different times on a shared host are not.

Compare two files only when they were recorded on the same host.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))  # 10 pairs: enough to claim a gain on 9 of 10

# Prints the sha256 of a simulator workload's canonical_json, or nothing for
# the analysis workload; run with the checkout as working directory.
REPORT_SHA256 = """
import hashlib, sys
sys.path[:0] = ["src", "hbbench"]
from workloads import SIMULATOR_RUNS, SimulatorWorkload
name, seed = sys.argv[1], int(sys.argv[2])
if name in SIMULATOR_RUNS:
    print(hashlib.sha256(SimulatorWorkload(name, seed).call().encode()).hexdigest())
"""


def git(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)


def resolve_base(base: str) -> str:
    """``base`` as a short sha that differs from the checked-out commit; exits 2 otherwise."""
    base_sha = git("rev-parse", "--short", base).stdout.strip()
    if not base_sha:
        sys.stderr.write(f"unknown base commit {base!r}\n")
        raise SystemExit(2)
    if base_sha == git("rev-parse", "--short", "HEAD").stdout.strip():
        sys.stderr.write(f"base {base_sha} is the checked-out commit; nothing to pair\n")
        raise SystemExit(2)
    return base_sha


@contextlib.contextmanager
def worktree(sha: str) -> Iterator[Path]:
    """Check ``sha`` out into a temporary ``git worktree``, removed on exit.

    A terminated script still removes it: SIGTERM becomes SystemExit, which
    runs the ``finally`` below. Exits 2 if the checkout fails.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmpdir:
        root = Path(tmpdir) / f"base-{sha}"
        added = git("worktree", "add", "--detach", str(root), sha)
        if added.returncode:
            sys.stderr.write(added.stderr)
            raise SystemExit(2)
        try:
            yield root
        finally:
            git("worktree", "remove", "--force", str(root))
            git("worktree", "prune")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the checkout at ``root``: its metric values, or the error that stopped it."""
    cmd = [
        sys.executable, "hbbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "exit_code": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{root.name} {workload} seed {seed}: {values} failed={result['failed']}", flush=True)
    return {
        "seed": seed,
        "exit_code": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """``run_once`` plus the report's sha256 from ``root``'s own code, or the error that stopped it."""
    run = run_once(root, workload, seed, seconds)
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_SHA256, workload, str(seed)], cwd=root, capture_output=True, text=True
    )
    if proc.returncode:
        run["report_error"] = proc.stderr.strip()[-2000:]
    elif proc.stdout.strip():
        run["report_sha256"] = proc.stdout.strip()
    return run


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "min": min(values), "iqr": q3 - q1}


def workload_summary(runs: list[dict], metrics: dict[str, str]) -> dict:
    done = [r for r in runs if "metrics" in r]
    return {
        "runs": runs,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "aborted_runs": len(runs) - len(done),
        "report_errors": sum("report_error" in r for r in runs),
        "metrics": {
            name: dict(unit=unit, **summarize([r["metrics"][name] for r in done]))
            for name, unit in metrics.items()
        }
        if len(done) >= 2
        else {},
    }


def paired_ratios(head: list[dict], base: list[dict], better: dict[str, str]) -> dict:
    """Per-seed head/base ratio of each metric, their median, the seeds head
    was better on, and the base's median and interquartile range over the
    same pairs; for a simulator workload also the seeds whose reports match.
    """
    pairs = [(h["metrics"], b["metrics"]) for h, b in zip(head, base) if "metrics" in h and "metrics" in b]
    out = {}
    for name, direction in better.items():
        ratios = [h[name] / b[name] for h, b in pairs]
        base_stats = summarize([b[name] for _, b in pairs]) if len(pairs) >= 2 else {}
        out[name] = {
            "ratios": ratios,
            "median_ratio": statistics.median(ratios) if ratios else None,
            "head_better_in": sum((r < 1.0) if direction == "lower" else (r > 1.0) for r in ratios),
            "pairs": len(ratios),
            "base_median": base_stats.get("median"),
            "base_iqr": base_stats.get("iqr"),
        }
    if any("report_sha256" in b for b in base):
        out["reports_identical"] = sum(
            "report_sha256" in h and h["report_sha256"] == b.get("report_sha256") for h, b in zip(head, base)
        )
    return out


def record(root: Path, sha: str, bench: dict, workloads: dict) -> dict:
    return {
        "git_sha": sha,
        "source_differs_from_commit": bool(
            git("status", "--porcelain", "--", "src", "hbbench", cwd=root).stdout
        ),
        "command": "python3 hbbench/run.py --workload W --seed N "
        f"--seconds {bench['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }


def write(sha: str, rec: dict) -> None:
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(rec, indent=2) + "\n")
    print(f"-> {path}")


def clean(workloads: dict) -> bool:
    return all(w["failed"] == 0 and w["aborted_runs"] == 0 and w["report_errors"] == 0 for w in workloads.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="record a pair: this commit and the checked-out head, alternating")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    sha = git("rev-parse", "--short", "HEAD").stdout.strip()
    if not sha:
        sys.stderr.write(f"{ROOT} is not a git checkout\n")
        return 2
    if args.base is None:
        workloads = {
            name: workload_summary([measure(ROOT, name, seed, seconds) for seed in SEEDS], metrics)
            for name in names
        }
        write(sha, record(ROOT, sha, bench, workloads))
        return 0 if clean(workloads) else 1

    base_sha = resolve_base(args.base)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with worktree(base_sha) as base_root:
        runs: dict[str, dict[str, list[dict]]] = {name: {"head": [], "base": []} for name in names}
        for name in names:
            for i, seed in enumerate(SEEDS):
                order = [("base", base_root), ("head", ROOT)]
                for side, root in order if i % 2 == 0 else order[::-1]:
                    runs[name][side].append(measure(root, name, seed, seconds))
        base_workloads = {name: workload_summary(runs[name]["base"], metrics) for name in names}
        head_workloads = {name: workload_summary(runs[name]["head"], metrics) for name in names}
        base_record = record(base_root, base_sha, bench, base_workloads)
    head_record = record(ROOT, sha, bench, head_workloads)
    head_record["paired"] = {
        "base": base_sha,
        "ratio": "head / base, per seed, base and head alternating which ran first",
        "workloads": {
            name: paired_ratios(runs[name]["head"], runs[name]["base"], better) for name in names
        },
    }
    base_record["paired"] = {"head": sha}
    write(base_sha, base_record)
    write(sha, head_record)
    return 0 if clean(base_workloads) and clean(head_workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
