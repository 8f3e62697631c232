"""Run reports: immutable after a run, JSON-serializable, bit-reproducible."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class EpochTrace:
    """Retarget-epoch snapshot of the calibration state."""

    index: int
    c_eta: float
    eta: list[float]
    eta_applied: list[float]
    t_hat: list[float]
    avg_block_bits: list[float]
    beta_means: list[float | None]
    gain: float
    realized_mean_time: float
    security_consts: list[float | None]
    lam: float | None = None


@dataclass
class SimReport:
    """Time series and aggregates of one simulation run."""

    mode: str
    seed: int
    num_levels: int
    config: dict
    sim_end_time: float = 0.0
    superblock_times: list[float] = field(default_factory=list)
    level_time_means: list[float] = field(default_factory=list)
    level_block_counts: list[int] = field(default_factory=list)
    epochs: list[EpochTrace] = field(default_factory=list)
    txs_generated: int = 0
    txs_confirmed: int = 0
    txs_skipped: int = 0
    txs_evicted: int = 0
    blocks_accepted: int = 0
    blocks_rejected: dict = field(default_factory=dict)
    genesis_sat: int = 0
    minted_sat: int = 0
    fees_sat: int = 0
    unspent_sat: int = 0
    conservation_checks: int = 0
    conservation_violations: int = 0
    throughput_tps: float = 0.0
    cadence_rel_error: float | None = None
    mfn: dict | None = None
    energy: dict | None = None
    schedule_final: dict = field(default_factory=dict)
    monotonicity_repairs: int = 0
    # mode-specific sections
    hybrid: dict | None = None
    tree: dict | None = None
    concurrent: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        """Canonical serialization; equal strings mean equal reports."""
        return json.dumps(self.to_dict(), sort_keys=True)
