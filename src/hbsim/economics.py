"""Protocol calibration: time investments, fees, rewards, blend weight, energy.

The central constant is c_eta (seconds per BTC), the computational time the
network invests to secure one BTC of transacted value. Per-level time
investments, expected sub-block times, fee rates and reward shares all derive
from it. beta means are in satoshi/bit throughout, hence the 10^8 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import SATOSHI_PER_BTC, TARGET_BLOCK_TIME_S, NetworkParams, btc_to_satoshi
from .segmentation import LevelStats

# Propagation floor for an empty 80-byte header at ~1 ms/B.
HEADER_PROPAGATION_FLOOR_S = 0.08

BLOCKS_PER_YEAR = 6 * 24 * 365


@dataclass(frozen=True)
class LevelSchedule:
    """Per-level protocol parameters in force between two retarget epochs.

    ``eta`` must be strictly decreasing in the level index; equal or
    increasing entries mean the segmentation failed to order values per bit
    and the schedule is rejected. ``reward_share`` must sum to one.
    """

    boundaries: tuple[float, ...]
    eta: tuple[float, ...]
    fee_rate_per_bit: tuple[float, ...]
    reward_share: tuple[float, ...]
    expected_block_time: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.eta)
        if n < 1:
            raise ValueError("schedule needs at least one level")
        if not (len(self.fee_rate_per_bit) == len(self.reward_share) == len(self.expected_block_time) == n):
            raise ValueError("all per-level vectors must have the same length")
        if len(self.boundaries) != n + 1:
            raise ValueError("boundaries must have num_levels + 1 entries")
        if any(e <= 0.0 for e in self.eta):
            raise ValueError("all eta entries must be positive")
        if any(t <= 0.0 for t in self.expected_block_time):
            raise ValueError("all expected block times must be positive")
        for l in range(n - 1):
            if not self.eta[l + 1] < self.eta[l]:
                raise ValueError(
                    f"eta must be strictly decreasing across levels; violated at level {l}"
                )
        if abs(sum(self.reward_share) - 1.0) > 1e-12:
            raise ValueError("reward shares must sum to 1")

    @property
    def num_levels(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class EnergyParams:
    """Inputs of the electric-energy model."""

    efficiency_j_per_th: float
    electricity_usd_per_kwh: float
    btcusd: float
    fee_usd_per_bit: float
    block_reward_btc: float

    def __post_init__(self) -> None:
        for name in ("efficiency_j_per_th", "electricity_usd_per_kwh", "btcusd"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.fee_usd_per_bit < 0.0 or self.block_reward_btc < 0.0:
            raise ValueError("fee and reward must be non-negative")


def compute_c_eta_flat(
    stats: LevelStats, num_blocks: int, target_time: float = TARGET_BLOCK_TIME_S
) -> float:
    """Calibration constant (s/BTC) from per-level beta means and total bits.

    c_eta = target_time * num_blocks * 10^8 / sum_l beta_mean_l * bits_l,
    with beta in satoshi/bit. Empty levels contribute nothing.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    denom = 0.0
    for summary in stats:
        if summary.count > 0:
            denom += summary.beta_mean * summary.bits_total
    if denom == 0.0:
        raise ValueError("cannot calibrate c_eta: every level is empty")
    return target_time * num_blocks * SATOSHI_PER_BTC / denom


def c_eta_from_total_value(
    total_value_sat: int, num_blocks: int, target_time: float = TARGET_BLOCK_TIME_S
) -> float:
    """Alternative c_eta estimator: target time over transacted value per block."""
    if total_value_sat <= 0:
        raise ValueError("total transacted value must be positive")
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    return target_time * num_blocks * SATOSHI_PER_BTC / total_value_sat


def eta_levels_flat(
    c_eta: float,
    stats: LevelStats,
    previous: Sequence[float] | None = None,
) -> list[float]:
    """Per-level time investments eta_l = c_eta * beta_mean_l / 10^8.

    An empty level carries the previous schedule's value, mirroring how
    difficulty behaves when no data arrives; without a previous schedule an
    empty level is an error.
    """
    if c_eta <= 0.0:
        raise ValueError("c_eta must be positive")
    etas: list[float] = []
    for l, summary in enumerate(stats):
        if summary.count > 0:
            etas.append(c_eta * summary.beta_mean / SATOSHI_PER_BTC)
        elif previous is not None:
            etas.append(previous[l])
        else:
            raise ValueError(f"level {l} is empty and no previous schedule value exists")
    return etas


def eta_levels_tree(
    c_eta: float,
    stats: LevelStats,
    previous: Sequence[float] | None = None,
) -> list[float]:
    """Tree-sharded time investments: 2^l times the flat value at level l."""
    flat = eta_levels_flat(c_eta, stats, previous=previous)
    return [2**l * e for l, e in enumerate(flat)]


def time_per_level(eta: Sequence[float], avg_block_bits: Sequence[float]) -> list[float]:
    """Expected signing time per level: eta_l times average block bits at level l."""
    if len(eta) != len(avg_block_bits):
        raise ValueError("eta and avg_block_bits must have equal length")
    return [e * b for e, b in zip(eta, avg_block_bits)]


def check_min_level_time(
    schedule: LevelSchedule | Sequence[float], t_min: float
) -> tuple[bool, int]:
    """Does the deepest level's expected time clear ``t_min``?

    Returns (ok, recommended_levels) where recommended_levels is the longest
    level prefix whose last entry still exceeds ``t_min``.
    """
    times = schedule.expected_block_time if isinstance(schedule, LevelSchedule) else tuple(schedule)
    if not times:
        raise ValueError("schedule has no levels")
    ok = times[-1] > t_min
    recommended = 0
    for l, t in enumerate(times):
        if t > t_min:
            recommended = l + 1
        else:
            break
    return ok, recommended


def fee_rates(eta: Sequence[float], kappa_fee: float) -> list[float]:
    """Fee per bit at each level, proportional to the time investment."""
    if kappa_fee <= 0.0:
        raise ValueError("kappa_fee must be positive")
    return [kappa_fee * e for e in eta]


def _largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Split an integer ``total`` proportionally to ``weights``, exactly."""
    weight_sum = float(sum(weights))
    raw = [total * w / weight_sum for w in weights]
    base = [math.floor(r) for r in raw]
    remainder = total - sum(base)
    # Hand out the leftover units to the largest fractional parts; ties go to
    # the lower index so the split is deterministic.
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


def reward_split_flat(times: Sequence[float], block_reward_btc: float) -> list[int]:
    """Per-level block rewards in satoshi, proportional to expected level times.

    The shares close exactly on the total at satoshi granularity.
    """
    if not times:
        raise ValueError("times must be non-empty")
    if any(t < 0 for t in times):
        raise ValueError("times must be non-negative")
    if sum(times) == 0:
        raise ValueError("cannot split a reward over all-zero level times")
    total_sat = btc_to_satoshi(block_reward_btc)
    return _largest_remainder(times, total_sat)


def reward_split_tree(
    times: Sequence[float], num_levels: int, block_reward_btc: float
) -> list[list[int]]:
    """Per-shard rewards: the flat level share divided among the 2^l shards.

    Returns one list per level, length 2^l, in satoshi; the grand total equals
    the block reward exactly.
    """
    if len(times) != num_levels:
        raise ValueError("times must have one entry per level")
    flat = reward_split_flat(times, block_reward_btc)
    return [_largest_remainder([1.0] * 2**l, level_total) for l, level_total in enumerate(flat)]


def recurrent_average(prev: float, index: int, sample: float) -> float:
    """Online mean update: after step ``index`` the result averages samples 0..index."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return index / (index + 1) * prev + sample / (index + 1)


def homotopy_lambda(
    t_n: float,
    target: float = TARGET_BLOCK_TIME_S,
    floor_s: float = HEADER_PROPAGATION_FLOOR_S,
) -> float:
    """Blend weight of the new block structure: average new-block time over target.

    Propagating even an empty header takes time, so the weight is floored at
    ``floor_s / target``.
    """
    if t_n < 0.0:
        raise ValueError("t_n must be non-negative")
    if t_n > target:
        raise ValueError(f"t_n ({t_n}) exceeds the target period ({target})")
    return min(max(t_n, floor_s) / target, 1.0)


def energy_per_block(ep: EnergyParams, net: NetworkParams) -> tuple[float, float]:
    """(kWh, USD) to mine one full block period with the whole network."""
    hashrate_ths = net.total_hashrate / 1e12
    kwh = ep.efficiency_j_per_th * hashrate_ths * net.target_superblock_time / 3.6e6
    return kwh, kwh * ep.electricity_usd_per_kwh


def energy_per_tx(ep: EnergyParams, net: NetworkParams, size_bytes: int) -> tuple[float, float]:
    """(kWh, USD) attributable to one transaction of ``size_bytes`` in a full 1 MiB block."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative")
    block_kwh, block_usd = energy_per_block(ep, net)
    share = size_bytes / 1024**2
    return block_kwh * share, block_usd * share


def energy_upper_bound(ep: EnergyParams) -> float:
    """Rational-miner bound in kWh per block: total block revenue over electricity price.

    Revenue is the block reward at the current exchange rate plus the fees of
    a full 1 MiB block.
    """
    total_reward_usd = ep.block_reward_btc * ep.btcusd + 1024**2 * 8 * ep.fee_usd_per_bit
    return total_reward_usd / ep.electricity_usd_per_kwh


def annualized_energy_kwh(kwh_per_block: float) -> float:
    """Scale a per-block energy figure to a year of six blocks per hour."""
    return kwh_per_block * BLOCKS_PER_YEAR
