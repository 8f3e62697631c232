"""One benchmark process: set up one workload, then time repeats of its call.

Started by ``run.py`` in a fresh interpreter, so its set-up (interpreter
start, import, input generation) is the set-up a user pays. The host-speed
probe runs right after set-up and right after every repeat, so each repeat
has a probe on either side. Every repeat's output is hashed and checked
outside the timed region. The last line on
standard output is one JSON object for ``run.py``.

    python3 hbbench/worker.py --workload flat --seed 1 --budget 5 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import probe  # noqa: E402
from tracer import Tracer  # noqa: E402

TRACE_DIR = BENCH_DIR / ".traces"


def layer_metrics(tracer: Tracer, out: dict, text: str) -> dict[str, float]:
    """The per-layer figures of one traced repeat."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    metrics: dict[str, float] = {}
    for name in (
        "sharding.shard_path",
        "sharding.tx_shard",
        "chainstate.pick_at_least",
        "chainstate.validate_block",
        "chainstate.apply_block",
        "chainstate.digest",
        "engine.take_by_fee_rate",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["engine.self_s"] = self_s("engine")
    simulated = "txs_generated" in out
    for key in ("txs_generated", "txs_confirmed", "txs_evicted", "txs_skipped", "blocks_accepted"):
        metrics[f"engine.{key}"] = out[key] if simulated else 0
    generated = metrics["engine.txs_generated"]
    metrics["engine.confirmed_per_generated"] = (
        metrics["engine.txs_confirmed"] / generated if generated else 0.0
    )
    economics = [n for n in totals if n.startswith("economics.")]
    metrics["economics.calls"] = sum(calls(n) for n in economics)
    metrics["economics.self_s"] = sum(self_s(n) for n in economics)
    for name in ("segmentation.segment", "segmentation.level_stats", "segmentation.summarize_level"):
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["dataio.load_dataset.self_s"] = self_s("dataio.load_dataset")
    metrics["dataio.load_dataset.rows"] = 0 if simulated else out["rows_read"]
    metrics["report.canonical_json.self_s"] = self_s("report.canonical_json")
    metrics["report.bytes"] = len(text) if simulated else 0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, default=0, help="worker number within the run")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        workload = workloads.make(args.workload, args.seed, Path(tmp))
        check = checks.CHECKS[args.workload]
        setup_done_at = time.monotonic()
        setup_probe_s = before = probe()
        first_call_at = time.monotonic()
        repeats = []
        tracer = None
        # Untraced repeats fill the budget, or its first half when tracing;
        # traced repeats fill the rest. Each phase runs at least once and
        # starts another repeat only if at least half of it would fit.
        phases = [(False, args.budget / 2), (True, args.budget)] if args.trace else [(False, args.budget)]
        for traced, phase_end in phases:
            last = 0.0
            ran = 0
            while ran == 0 or time.monotonic() - first_call_at + last / 2 <= phase_end:
                if traced:
                    tracer = Tracer()
                    tracer.install()
                    call = tracer.wrap("workload", workload.call)
                else:
                    call = workload.call
                t0 = time.monotonic()
                try:
                    text = call()
                finally:
                    wall = time.monotonic() - t0
                    if traced:
                        tracer.uninstall()
                after = probe()
                out = json.loads(text)
                repeat = {
                    "traced": traced,
                    "wall_s": wall,
                    "probe_s": (before + after) / 2,
                    "work": workload.work(out),
                    "digest": hashlib.sha256(text.encode()).hexdigest(),
                    "failures": check(out, workload.expected()),
                }
                if traced:
                    repeat["layers"] = layer_metrics(tracer, out, text)
                repeats.append(repeat)
                before = after
                del text, out
                last = time.monotonic() - t0
                ran += 1
        measured_s = time.monotonic() - first_call_at
    if tracer is not None:
        tracer.write(TRACE_DIR / f"{args.workload}-{args.index}.npz")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "setup_done_at": setup_done_at,
                "setup_probe_s": setup_probe_s,
                "measured_s": measured_s,
                "peak_rss_kb": peak_kb,
                "repeats": repeats,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
