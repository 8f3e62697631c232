"""Core domain quantities of the value-proportional security model.

Everything here is a pure function over immutable value types. Values are
integer satoshi, sizes are stored in bytes and converted to bits (x8) at
formula boundaries, hashrates are H/s and time investments are seconds per
bit. Derived reals use ordinary binary floats.
"""

from __future__ import annotations

from dataclasses import dataclass

SATOSHI_PER_BTC = 100_000_000
TARGET_BLOCK_TIME_S = 600.0

# Hashes expected per difficulty unit per block period. The exact constant is
# canonical; the 2^32 form is the widely quoted approximation (they differ by
# a factor 65536/65535).
HASHES_PER_DIFFICULTY_EXACT = 2**48 / 65535
HASHES_PER_DIFFICULTY_APPROX = float(2**32)


def btc_to_satoshi(amount_btc: float) -> int:
    """Convert a BTC amount to integer satoshi (round-half-even)."""
    return round(amount_btc * SATOSHI_PER_BTC)


@dataclass(frozen=True)
class ExtendedTransaction:
    """A value transfer annotated with the two security tuning parameters.

    ``lam`` is the fraction of the total network hashrate asked to sign the
    transaction; ``eta`` is the per-bit signing time in s/b. ``eta`` is left
    unset until a level schedule assigns one. ``input_ref`` points at the
    single unspent output being spent; analysis-only records (e.g. dataset
    rows) may leave it unset. Extra input references are allowed only for
    transactions pinned to level 0 of the hierarchy.
    """

    id: bytes
    value: int
    size_bytes: int
    lam: float = 1.0
    eta: float | None = None
    input_ref: bytes | None = None
    extra_input_refs: tuple[bytes, ...] = ()
    requested_level: int | None = None

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"transaction {self.id.hex()}: value must be >= 1 satoshi, got {self.value}")
        if self.size_bytes < 1:
            raise ValueError(f"transaction {self.id.hex()}: size_bytes must be >= 1, got {self.size_bytes}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"transaction {self.id.hex()}: lam must be in (0, 1], got {self.lam}")
        if self.eta is not None and self.eta <= 0.0:
            raise ValueError(f"transaction {self.id.hex()}: eta must be positive, got {self.eta}")
        if self.extra_input_refs and self.requested_level not in (None, 0):
            raise ValueError(
                f"transaction {self.id.hex()}: multiple inputs are only allowed at level 0"
            )

    @property
    def size_bits(self) -> int:
        return 8 * self.size_bytes

    @property
    def n_inputs(self) -> int:
        base = 1 if self.input_ref is not None else 0
        return base + len(self.extra_input_refs)


@dataclass(frozen=True)
class NetworkParams:
    """Global network constants: total hashrate h, difficulty and cadence."""

    total_hashrate: float
    difficulty: float
    target_superblock_time: float = TARGET_BLOCK_TIME_S
    retarget_window: int = 2016
    max_block_bits: int = 8 * 1024**2

    def __post_init__(self) -> None:
        if self.total_hashrate <= 0.0:
            raise ValueError("total_hashrate must be positive")
        if self.difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        if self.retarget_window < 1:
            raise ValueError("retarget_window must be >= 1")


def value_per_bit(tx: ExtendedTransaction) -> float:
    """Output value per bit, in satoshi/bit: value / (8 * size_bytes)."""
    if tx.value <= 0:
        raise ValueError(f"transaction {tx.id.hex()}: zero-value transactions have no value per bit")
    return tx.value / (8 * tx.size_bytes)


def hash_time(size_bits: float, eta: float) -> float:
    """Expected signing time in seconds for ``size_bits`` bits at time investment ``eta``."""
    if size_bits < 0:
        raise ValueError("size_bits must be non-negative")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return eta * size_bits


def tx_difficulty(tx: ExtendedTransaction, net: NetworkParams) -> float:
    """Transaction difficulty in hashes: lam * h * eta * bits."""
    if tx.eta is None:
        raise ValueError(
            f"transaction {tx.id.hex()}: eta is unset; assign the transaction to a level first"
        )
    return tx.lam * net.total_hashrate * tx.eta * tx.size_bits


def tx_security(tx: ExtendedTransaction, net: NetworkParams) -> float:
    """Security in hashes per satoshi: difficulty divided by output value."""
    if tx.value <= 0:
        raise ValueError(f"transaction {tx.id.hex()}: security is undefined for zero output value")
    return tx_difficulty(tx, net) / tx.value


def hashrate_from_difficulty(difficulty: float, target_time: float = TARGET_BLOCK_TIME_S) -> float:
    """Network hashrate implied by a difficulty, exact 2^48/65535 form."""
    if difficulty <= 0.0:
        raise ValueError("difficulty must be positive")
    return HASHES_PER_DIFFICULTY_EXACT * difficulty / target_time


def hashrate_from_difficulty_approx(difficulty: float, target_time: float = TARGET_BLOCK_TIME_S) -> float:
    """Approximate 2^32 form of :func:`hashrate_from_difficulty`."""
    if difficulty <= 0.0:
        raise ValueError("difficulty must be positive")
    return HASHES_PER_DIFFICULTY_APPROX * difficulty / target_time


def difficulty_from_hashrate(hashrate: float, target_time: float = TARGET_BLOCK_TIME_S) -> float:
    """Inverse of :func:`hashrate_from_difficulty`."""
    if hashrate <= 0.0:
        raise ValueError("hashrate must be positive")
    return hashrate * target_time / HASHES_PER_DIFFICULTY_EXACT


def eta_B_estimate(avg_block_bits: float, target_time: float = TARGET_BLOCK_TIME_S) -> float:
    """Whole-network time investment estimate: target block time over average block bits."""
    if avg_block_bits <= 0.0:
        raise ValueError("avg_block_bits must be positive")
    return target_time / avg_block_bits
