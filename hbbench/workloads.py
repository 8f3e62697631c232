"""The four benchmark workloads: their inputs and the one call each times.

Every workload's timed call returns text: the simulator's ``canonical_json()``
or, for ``analysis``, a canonical JSON of the ``hbsim estimate`` results. The
harness hashes that text for the determinism check and parses it for the
output checks, both outside the timed region.

hbsim is looked up through module attributes at call time (``engine.simulate``,
``segmentation.segment``, ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

NUM_LEVELS = 3
TARGET_TIME = 600.0
BLOCK_REWARD_BTC = 6.25

# The ROADMAP baseline workload: 400-byte transactions at 0.2 tx/s with
# lg(beta) ~ N(3, 1) satoshi per bit.
TX_RATE = 0.2
TX_BYTES = 400
LG_BETA_MU = 3.0
LG_BETA_SIGMA = 1.0

# name -> (SimConfig keyword arguments, periods); the run lasts periods * TARGET_TIME.
SIMULATOR_RUNS = {
    "flat": ({"mode": "flat"}, 800),
    "tree": ({"mode": "tree", "miners": 64}, 500),
    "concurrent": ({"mode": "concurrent", "chain_target_times": (429.0, 124.0, 44.5)}, 500),
}

ANALYSIS_ROWS = 200_000
ANALYSIS_LEVELS = 6
ANALYSIS_TX_PER_BLOCK = 250
ANALYSIS_ZERO_VALUE_SHARE = 0.01
KAPPA_FEE = 1.0

WORKLOADS = (*SIMULATOR_RUNS, "analysis")


class SimulatorWorkload:
    """One ``simulate`` run at a fixed config followed by ``canonical_json``."""

    def __init__(self, name: str, seed: int):
        from hbsim.dataio import WorkloadSpec
        from hbsim.simulator import SimConfig, equal_miners

        extra, periods = SIMULATOR_RUNS[name]
        extra = dict(extra)
        if "miners" in extra:
            extra["miners"] = equal_miners(extra["miners"])
        self.config = SimConfig(
            num_levels=NUM_LEVELS,
            duration=TARGET_TIME * periods,
            seed=seed,
            workload=WorkloadSpec(
                rate=TX_RATE,
                lg_beta_mu=LG_BETA_MU,
                lg_beta_sigma=LG_BETA_SIGMA,
                size_mode="fixed",
                size_params=(TX_BYTES,),
            ),
            **extra,
        )

    def call(self) -> str:
        from hbsim.simulator import engine

        return engine.simulate(self.config).canonical_json()

    @staticmethod
    def work(out: dict) -> int:
        """Transactions the run generated: the numerator of ``tx_per_s``."""
        return out["txs_generated"]

    def expected(self) -> dict:
        return {"num_levels": NUM_LEVELS}


class AnalysisWorkload:
    """The ``hbsim estimate`` path over a CSV this benchmark generates itself."""

    def __init__(self, seed: int, workdir: Path):
        self.columns = generate_dataset(seed, ANALYSIS_ROWS)
        self.path = workdir / "dataset.csv"
        write_dataset_csv(self.path, self.columns)
        self._expected: dict | None = None

    def call(self) -> str:
        from hbsim import dataio, economics, segmentation

        txs, summary = dataio.load_dataset(self.path)
        seg = segmentation.segment(ANALYSIS_LEVELS, txs)
        stats = segmentation.level_stats(seg)
        blocks = summary.num_blocks
        c_eta = economics.compute_c_eta_flat(stats, blocks, TARGET_TIME)
        eta = economics.eta_levels_flat(c_eta, stats)
        times = economics.time_per_level(eta, [s.bits_total / blocks for s in stats])
        fees = economics.fee_rates(eta, KAPPA_FEE)
        rewards = economics.reward_split_flat(times, BLOCK_REWARD_BTC)
        return json.dumps(
            {
                "rows_read": summary.rows_read,
                "transactions": summary.transactions,
                "dropped_zero_value": summary.dropped_zero_value,
                "num_blocks": blocks,
                "extra_columns": list(summary.extra_columns),
                "boundaries": list(seg.boundaries),
                "levels": [
                    {
                        "count": s.count,
                        "value_total": s.value_total,
                        "bits_total": s.bits_total,
                        "beta_mean": s.beta_mean,
                    }
                    for s in stats
                ],
                "c_eta": c_eta,
                "eta": eta,
                "time_per_level": times,
                "fee_rate_per_bit": fees,
                "reward_split_sat": rewards,
            },
            sort_keys=True,
        )

    @staticmethod
    def work(out: dict) -> int:
        """Dataset rows loaded: the numerator of ``tx_per_s``."""
        return out["rows_read"]

    def expected(self) -> dict:
        """Reference results computed from the generated rows, without hbsim.

        Computed once, after the first timed call, so it is not part of set-up,
        and the generated columns are dropped afterwards.
        """
        if self._expected is None:
            self._expected = expected_analysis(self.columns, ANALYSIS_LEVELS)
            self.columns = None
        return self._expected


def make(name: str, seed: int, workdir: Path):
    if name == "analysis":
        return AnalysisWorkload(seed, workdir)
    return SimulatorWorkload(name, seed)


def generate_dataset(seed: int, rows: int) -> dict[str, np.ndarray]:
    """Seeded dataset columns in the shape of a chain export.

    Sizes are log-normal around 400 bytes, values per bit follow
    lg(beta) ~ N(3, 1), about 1% of rows carry a zero value (dropped by the
    loader), and rows fall into blocks of about ``ANALYSIS_TX_PER_BLOCK``.
    """
    rng = np.random.default_rng(seed)
    heights = 800_000 + np.sort(rng.integers(0, rows // ANALYSIS_TX_PER_BLOCK, rows))
    sizes = np.maximum(60, np.rint(np.exp(rng.normal(math.log(TX_BYTES), 0.5, rows)))).astype(np.int64)
    beta = 10.0 ** rng.normal(LG_BETA_MU, LG_BETA_SIGMA, rows)
    values = np.maximum(1, np.rint(beta * 8 * sizes)).astype(np.int64)
    values[rng.random(rows) < ANALYSIS_ZERO_VALUE_SHARE] = 0
    outputs = rng.integers(1, 5, rows)
    txids = rng.bytes(32 * rows).hex()
    return {"heights": heights, "sizes": sizes, "values": values, "outputs": outputs, "txids": txids}


def write_dataset_csv(path: Path, columns: dict) -> None:
    """Write the columns as ``block_height,txid,size,output_value`` plus one extra column."""
    txids = columns["txids"]
    lines = ["block_height,txid,size,output_value,n_outputs"]
    for i, (h, s, v, o) in enumerate(
        zip(
            columns["heights"].tolist(),
            columns["sizes"].tolist(),
            columns["values"].tolist(),
            columns["outputs"].tolist(),
        )
    ):
        lines.append(f"{h},{txids[64 * i : 64 * i + 64]},{s},{v},{o}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def expected_analysis(columns: dict, num_levels: int) -> dict:
    """Load counts, segmentation and c_eta recomputed from first principles.

    Level membership follows the documented rule: a row sits in level l iff
    boundaries[l] >= lg(beta) > boundaries[l+1], the lowest boundary
    inclusive, where beta = value / (8 * size) and the boundaries split
    [lg beta_min, lg beta_max] into equal steps. Sums are exact integers;
    the beta means use ``math.fsum``.
    """
    values = columns["values"].tolist()
    sizes = columns["sizes"].tolist()
    kept = [(v, s) for v, s in zip(values, sizes) if v != 0]
    betas = [v / (8 * s) for v, s in kept]
    lg_max = math.log10(max(betas))
    lg_min = math.log10(min(betas))
    step = (lg_max - lg_min) / num_levels
    boundaries = [lg_max - l * step for l in range(num_levels + 1)]
    members: list[list[int]] = [[] for _ in range(num_levels)]
    for i, beta in enumerate(betas):
        lg = math.log10(beta)
        level = 0
        while level < num_levels - 1 and lg < boundaries[level + 1]:
            level += 1
        members[level].append(i)
    levels = []
    for idx in members:
        levels.append(
            {
                "count": len(idx),
                "value_total": sum(kept[i][0] for i in idx),
                "bits_total": 8 * sum(kept[i][1] for i in idx),
                "beta_mean": math.fsum(betas[i] for i in idx) / len(idx) if idx else None,
            }
        )
    num_blocks = len(set(columns["heights"].tolist()))
    denom = math.fsum(l["beta_mean"] * l["bits_total"] for l in levels if l["count"])
    return {
        "rows_read": len(values),
        "transactions": len(kept),
        "dropped_zero_value": len(values) - len(kept),
        "num_blocks": num_blocks,
        "extra_columns": ["n_outputs"],
        "boundaries": boundaries,
        "levels": levels,
        "c_eta": TARGET_TIME * num_blocks * 100_000_000 / denom,
        "reward_total_sat": round(BLOCK_REWARD_BTC * 100_000_000),
    }
