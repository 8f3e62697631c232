"""Time the analysis path at paper scale: load, segment(6), level_stats, estimate.

    python3 scripts/paper_scale.py [--src DIR]
    python3 scripts/paper_scale.py --base <sha> [--src DIR]

Writes the ``hbsim gen --seed 3 --rate 132 --duration 7200`` dataset
(948,370 rows, 76 MB) once into a temporary directory. Then each of
``REPEATS`` repeats runs the path in a fresh Python process that imports
``hbsim`` from ``--src`` (default: this checkout's ``src/``), times every
step in host seconds and reads the process's peak RSS (``ru_maxrss``) after
it. Prints the median of each figure over the repeats.

With ``--base <sha>`` the timing is paired: the base commit is checked out
with ``git worktree`` into a temporary directory (removed at the end, also
when the script is terminated), and base and head run in alternating fresh
processes, ``REPEATS`` each, which side goes first alternating from one
repeat to the next. Prints both sides' medians and the head/base ratio of
each step's time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import resolve_base, worktree

ROOT = Path(__file__).resolve().parent.parent
GEN = ["gen", "--seed", "3", "--rate", "132", "--duration", "7200", "--out", "paper.csv"]
STEPS = ("load", "segment", "level_stats", "estimate")
REPEATS = 5

# One repeat: prints {step: [seconds, peak RSS in MB after the step]} as JSON.
CHILD = """
import json, resource, sys, time
from hbsim import dataio, economics, segmentation
def step(name, fn):
    start = time.perf_counter()
    result = fn()
    out[name] = [time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return result
out = {}
table, summary = step("load", lambda: dataio.load_dataset(sys.argv[1]))
seg = step("segment", lambda: segmentation.segment(6, table))
stats = step("level_stats", lambda: segmentation.level_stats(seg))
def estimate():
    blocks = summary.num_blocks
    eta = economics.eta_levels_flat(economics.compute_c_eta_flat(stats, blocks, 600.0), stats)
    times = economics.time_per_level(eta, [s.bits_total / blocks for s in stats])
    return economics.fee_rates(eta, 1.0), economics.reward_split_flat(times, 6.25)
step("estimate", estimate)
print(json.dumps(out))
"""


def env_for(src: str | Path) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.abspath(src)}


def run_repeat(src: str | Path, path: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, path], env=env_for(src), check=True, capture_output=True
    )
    return json.loads(proc.stdout)


def medians(runs: list[dict]) -> dict[str, tuple[float, float]]:
    """Per step (and ``total``), the median seconds and median peak RSS in MB."""
    out = {
        name: (statistics.median(r[name][0] for r in runs), statistics.median(r[name][1] for r in runs))
        for name in STEPS
    }
    out["total"] = (statistics.median(sum(r[name][0] for name in STEPS) for r in runs), out[STEPS[-1]][1])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import hbsim from")
    parser.add_argument("--base", help="time this commit and --src in alternating processes")
    args = parser.parse_args()
    base_sha = resolve_base(args.base) if args.base else None
    with tempfile.TemporaryDirectory() as tmp:
        gen = "from hbsim.cli import main; main()"
        subprocess.run([sys.executable, "-c", gen, *GEN, "--out-dir", tmp], env=env_for(args.src), check=True)
        path = os.path.join(tmp, "paper.csv")
        if base_sha is None:
            head = medians([run_repeat(args.src, path) for _ in range(REPEATS)])
            print(f"{REPEATS} fresh processes, hbsim from {args.src}")
            print("median host seconds and peak RSS after each step")
            for name, (seconds, rss) in head.items():
                print(f"{name:12s} {seconds:7.3f} s  {rss:6.1f} MB")
            return 0
        with worktree(base_sha) as base_root:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for i in range(REPEATS):
                order = [("base", base_root / "src"), ("head", args.src)]
                for side, src in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_repeat(src, path))
    base, head = medians(runs["base"]), medians(runs["head"])
    print(f"{REPEATS} fresh processes per side, alternating; base {base_sha}, head hbsim from {args.src}")
    print("median host seconds (peak RSS after the step)")
    print(f"{'step':12s} {'base':>21s} {'head':>21s}  head/base")
    for name in base:
        (b_s, b_rss), (h_s, h_rss) = base[name], head[name]
        print(f"{name:12s} {b_s:7.3f} s ({b_rss:6.1f} MB) {h_s:7.3f} s ({h_rss:6.1f} MB)  {h_s / b_s:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
