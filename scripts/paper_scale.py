"""Time the analysis path at paper scale: load, segment(6), level_stats, estimate.

    python3 scripts/paper_scale.py [--src DIR]

Writes the ``hbsim gen --seed 3 --rate 132 --duration 7200`` dataset
(948,370 rows, 76 MB) once into a temporary directory. Then each of
``REPEATS`` repeats runs the path in a fresh Python process that imports
``hbsim`` from ``--src`` (default: this checkout's ``src/``), times every
step in host seconds and reads the process's peak RSS (``ru_maxrss``) after
it. Prints the median of each figure over the repeats.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import hbsim from")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    with tempfile.TemporaryDirectory() as tmp:
        gen = "from hbsim.cli import main; main()"
        subprocess.run([sys.executable, "-c", gen, *GEN, "--out-dir", tmp], env=env, check=True)
        path = os.path.join(tmp, "paper.csv")
        runs = []
        for _ in range(REPEATS):
            child = [sys.executable, "-c", CHILD, path]
            proc = subprocess.run(child, env=env, check=True, capture_output=True)
            runs.append(json.loads(proc.stdout))
    print(f"{REPEATS} fresh processes, hbsim from {args.src}")
    print("median host seconds and peak RSS after each step")
    for name in STEPS:
        seconds = statistics.median(run[name][0] for run in runs)
        rss = statistics.median(run[name][1] for run in runs)
        print(f"{name:12s} {seconds:7.3f} s  {rss:6.1f} MB")
    total = statistics.median(sum(run[name][0] for name in STEPS) for run in runs)
    print(f"{'total':12s} {total:7.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
