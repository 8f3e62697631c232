"""Run configuration for the chain simulator."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..dataio import WorkloadSpec

MODE_FLAT = "flat"
MODE_HYBRID = "hybrid"
MODE_TREE = "tree"
MODE_CONCURRENT = "concurrent"
MODES = (MODE_FLAT, MODE_HYBRID, MODE_TREE, MODE_CONCURRENT)

BROADCAST_PER_SUBBLOCK = "per-subblock"
BROADCAST_WHOLE_MULTIBLOCK = "whole-multiblock"
BROADCAST_HYBRID_BATCH = "hybrid-batch"
BROADCASTS = (BROADCAST_PER_SUBBLOCK, BROADCAST_WHOLE_MULTIBLOCK, BROADCAST_HYBRID_BATCH)

# Tree and concurrent runs keep per-shard lists over all 2^L - 1 shards and
# walk them every round, so their level count is capped (65,535 shards).
MAX_SHARDED_LEVELS = 16

# Concurrent runs mine about duration * sum_l 2^l / cadence_l blocks, and
# each costs a validate/apply and a reward mint at the root. A config whose
# expected block count passes this bound is refused before it runs; the
# largest configs in the test suite expect about 98,000 blocks.
MAX_CONCURRENT_BLOCKS = 1_000_000


def check_concurrent_blocks(duration: float, cadence) -> None:
    """Refuse a concurrent run expected to mine more than ``MAX_CONCURRENT_BLOCKS``.

    ``cadence`` holds the expected block time of each level's chains; level
    l has 2^l chains.
    """
    expected = duration * sum(2**l / t for l, t in enumerate(cadence))
    if expected > MAX_CONCURRENT_BLOCKS:
        times = ", ".join(f"{t:.3g}" for t in cadence)
        raise ValueError(
            f"concurrent run expects {expected:,.0f} blocks over {duration:g} s at chain times "
            f"({times}) s; the bound is {MAX_CONCURRENT_BLOCKS:,}: shorten the run or lengthen "
            f"the chain times"
        )


@dataclass(frozen=True)
class Miner:
    """A mining participant; the branch it works on is re-derived every round."""

    peer_id: bytes
    hashrate: float

    def __post_init__(self) -> None:
        if self.hashrate <= 0.0:
            raise ValueError("miner hashrate must be positive")


def equal_miners(count: int, total_hashrate: float = 1e18) -> tuple[Miner, ...]:
    """A roster of identical miners with deterministic peer ids."""
    if count < 1:
        raise ValueError("need at least one miner")
    share = total_hashrate / count
    return tuple(
        Miner(peer_id=b"miner-" + i.to_bytes(4, "big"), hashrate=share) for i in range(count)
    )


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; a fixed seed makes the report bit-reproducible."""

    mode: str
    num_levels: int
    duration: float
    seed: int
    workload: WorkloadSpec
    retarget_window: int = 32
    target_time: float = 600.0
    miners: tuple[Miner, ...] = ()
    propagation_ms_per_byte: float = 1.0
    propagation_floor_ms: float = 80.0
    broadcast: str | None = None
    block_reward_btc: float = 6.25
    kappa_fee: float | None = None
    fee_reference_sat_per_bit: float = 50.0
    header_bytes: int = 80
    max_subblock_bytes: int = 1024**2
    genesis_outputs: int = 512
    genesis_value_sat: int = 10**13
    max_child_batch: int | None = None
    fee_overpay_max: float = 1.5
    bootstrap_txs: int = 4000
    timing_gain_bounds: tuple[float, float] = (0.05, 20.0)
    # Demand-to-capacity ratio for the bootstrap-derived per-level size caps.
    # Above 1 the caps bind, which is what keeps block times stationary when
    # mining time grows with block size; None falls back to the global cap.
    cap_fill_ratio: float | None = 1.5
    min_cap_bytes: int = 800
    # Mempool bounds: how many cap-fulls of backlog a level may hold before
    # the lowest fee rates are evicted, and how much backlog exists at t=0 so
    # runs start inside the cap-bound regime instead of spinning up to it.
    mempool_depth_blocks: float = 6.0
    preseed_periods: float = 4.0
    # Fixed per-chain expected block times (concurrent mode only); overrides
    # the bootstrap calibration as the protocol cadence.
    chain_target_times: tuple[float, ...] | None = None
    # Reference terms for the report's energy aggregates; the simulation
    # itself is scale-free in absolute hashrate.
    reference_hashrate_ths: float = 1.2e8
    energy_efficiency_j_per_th: float = 30.0
    energy_price_usd_per_kwh: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.mode in (MODE_TREE, MODE_CONCURRENT) and self.num_levels > MAX_SHARDED_LEVELS:
            raise ValueError(
                f"{self.mode} mode keeps 2^L - 1 shards; num_levels must be <= "
                f"{MAX_SHARDED_LEVELS}, got {self.num_levels}"
            )
        if self.mode == MODE_HYBRID and self.num_levels < 2:
            raise ValueError("hybrid mode needs a legacy level plus at least one multi level")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.retarget_window < 1:
            raise ValueError("retarget_window must be >= 1")
        if self.target_time <= 0.0:
            raise ValueError("target_time must be positive")
        if self.mode == MODE_TREE and not self.miners:
            raise ValueError("tree mode needs a miner roster to divide among shards")
        if self.broadcast is not None:
            if self.mode != MODE_FLAT:
                raise ValueError("broadcast only applies to flat mode")
            if self.broadcast not in BROADCASTS:
                raise ValueError(f"unknown broadcast policy {self.broadcast!r}")
        if self.max_child_batch is not None and self.max_child_batch < 1:
            raise ValueError("max_child_batch must be >= 1: a parent references at least one child block")
        if self.genesis_outputs < 1:
            raise ValueError("need at least one genesis output")
        if self.genesis_value_sat < 1:
            raise ValueError("genesis_value_sat must be >= 1: outputs carry at least one satoshi")
        if self.fee_overpay_max < 1.0:
            raise ValueError("fee_overpay_max must be >= 1")
        if self.bootstrap_txs < 2:
            raise ValueError("bootstrap_txs must be >= 2")
        if self.cap_fill_ratio is not None and self.cap_fill_ratio <= 0.0:
            raise ValueError("cap_fill_ratio must be positive")
        if self.mempool_depth_blocks < 1.0:
            raise ValueError("mempool_depth_blocks must be >= 1")
        if self.chain_target_times is not None:
            if self.mode != MODE_CONCURRENT:
                raise ValueError("chain_target_times only applies to concurrent mode")
            if len(self.chain_target_times) != self.num_levels:
                raise ValueError("chain_target_times needs one entry per level")
            if any(t <= 0 for t in self.chain_target_times):
                raise ValueError("chain_target_times must be positive")
            check_concurrent_blocks(self.duration, self.chain_target_times)

    @property
    def header_bits(self) -> int:
        return 8 * self.header_bytes

    def to_dict(self) -> dict:
        data = asdict(self)
        data["miners"] = [
            {"peer_id": m["peer_id"].hex(), "hashrate": m["hashrate"]} for m in data["miners"]
        ]
        data["workload"] = {
            "rate": self.workload.rate,
            "lg_beta_mu": self.workload.lg_beta_mu,
            "lg_beta_sigma": self.workload.lg_beta_sigma,
            "size_mode": self.workload.size_mode,
            "size_params": list(self.workload.size_params),
            "level_override_fraction": self.workload.level_override_fraction,
        }
        data["timing_gain_bounds"] = list(self.timing_gain_bounds)
        return data
