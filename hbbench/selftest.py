"""Self-test of the output checks: every check must be able to fail.

For each workload this runs the real call once, confirms the genuine output
passes its check, then applies each corruption below to a fresh copy of the
output and confirms the check rejects it. Exits 1 if any corruption slips
through or the genuine output fails.

    python3 hbbench/selftest.py [--seed 1]
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _set(path: str, fn):
    """A corruption that replaces the value at a '/'-separated path with fn(value)."""

    def corrupt(out: dict) -> None:
        *parents, last = path.split("/")
        node = out
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if isinstance(node, list):
            node[int(last)] = fn(node[int(last)])
        else:
            node[last] = fn(node[last])

    return corrupt


def _swap_eta(out: dict) -> None:
    eta = out["epochs"][-1]["eta"]
    eta[0], eta[1] = eta[1], eta[0]


def _tilt_security(out: dict) -> None:
    consts = out["epochs"][-1]["security_consts"]
    consts[0] *= 1 + 1e-6


def _perturb_raw_sample(out: dict) -> None:
    samples = out["tree"]["raw_value_samples_per_epoch"][-1]["2,3"]
    samples[-1] *= 1 + 1e-9


def _drop_tx_from_level(out: dict) -> None:
    out["levels"][-1]["count"] -= 1


def _swap_latency_medians(out: dict) -> None:
    conc = out["concurrent"]
    deepest = str(len(conc["inclusion_latency"]) - 1)
    conc["inclusion_latency"][deepest]["median"] = conc["root_path_latency"][deepest]["median"]


CORRUPTIONS = {
    "flat": {
        "blocks_accepted": _set("blocks_accepted", lambda v: v - 1),
        "minted": _set("minted_sat", lambda v: v + 1),
        "genesis": _set("genesis_sat", lambda v: v - 1),
        "conservation": _set("fees_sat", lambda v: v + 1),
        "eta order": _swap_eta,
        "security constants": _tilt_security,
    },
    "tree": {
        "stalled": _set("tree/stalled", lambda v: {"round": 7, "shard": [2, 1]}),
        "blocks_accepted": _set("blocks_accepted", lambda v: v + 7),
        "published c_eta": _set("tree/published/0/c_eta", lambda v: math.nextafter(v, math.inf)),
        "raw samples": _perturb_raw_sample,
        "reference audit": _set("tree/reference_audit/child_references", lambda v: v - 1),
        "conservation": _set("unspent_sat", lambda v: v - 1),
    },
    "concurrent": {
        "orphans": _set("concurrent/audit/orphans", lambda v: 1),
        "audit blocks": _set("concurrent/audit/blocks", lambda v: v + 1),
        "inclusion counts": _set("concurrent/inclusion_latency/1/count", lambda v: v - 1),
        "latency order": _swap_latency_medians,
        "conservation": _set("minted_sat", lambda v: v + 1),
    },
    "analysis": {
        "rows": _set("rows_read", lambda v: v + 1),
        "drops": _set("dropped_zero_value", lambda v: v - 1),
        "blocks": _set("num_blocks", lambda v: v + 1),
        "boundaries": _set("boundaries/2", lambda v: v + 1e-12),
        "level count": _drop_tx_from_level,
        "level value": _set("levels/0/value_total", lambda v: v + 1),
        "level bits": _set("levels/3/bits_total", lambda v: v - 8),
        "reward split": _set("reward_split_sat/0", lambda v: v + 1),
        "c_eta": _set("c_eta", lambda v: v * (1 + 1e-8)),
    },
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = 0
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, args.seed, Path(tmp))
            out = json.loads(workload.call())
            expected = workload.expected()
            check = checks.CHECKS[name]
            genuine = check(out, expected)
            if genuine:
                problems += 1
                print(f"FAIL {name}: genuine output rejected: {genuine}")
            for label, corrupt in CORRUPTIONS[name].items():
                bad = copy.deepcopy(out)
                corrupt(bad)
                caught = check(bad, expected)
                if caught:
                    print(f"ok   {name}: {label} rejected ({caught[0]})")
                else:
                    problems += 1
                    print(f"FAIL {name}: {label} corruption passed the check")
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
