"""Shard assignment, the global nonce fold, and the minimal-full-node math.

Miners, nodes and transactions are mapped onto the binary block tree by
walking the leading bits of a sha256 digest of their identifier, most
significant bit of byte 0 first, a zero bit selecting the left child. The
shard index at a level is therefore the digest's leading ``level`` bits read
as an integer; ``shard_index`` computes it directly, while ``shard_path``
walks the bits one by one and returns the full branch. All closed-form
capacity, storage and routing curves for minimal full nodes (MFNs) live here
too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .core import ExtendedTransaction

E_MULTI_INPUT_SHARDED = "E_MULTI_INPUT_SHARDED"


class MultiInputShardedError(ValueError):
    """A transaction with several inputs was routed below level 0."""

    code = E_MULTI_INPUT_SHARDED


@dataclass(frozen=True)
class ShardCoord:
    """A (level, shard index) tree address plus the root-to-node branch."""

    level: int
    index: int
    branch: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if len(self.branch) != self.level + 1:
            raise ValueError("branch must list one shard per level from the root")
        if self.branch[0] != 0:
            raise ValueError("branch must start at the root shard 0")
        for i in range(self.level):
            if self.branch[i + 1] not in (2 * self.branch[i], 2 * self.branch[i] + 1):
                raise ValueError(f"branch step {i} is not a child of its parent")
        if self.branch[self.level] != self.index:
            raise ValueError("index must equal the last branch entry")

    def __str__(self) -> str:  # compact "(l,s)" form for logs and reports
        return f"({self.level},{self.index})"


@dataclass(frozen=True)
class GlobalNonce:
    """The folded network-wide random nonce and its per-shard intermediates."""

    value: bytes
    intermediates: Mapping[tuple[int, int], bytes]


def _nonce_bytes(nonce: bytes | GlobalNonce | None) -> bytes:
    if nonce is None:
        return b""
    return nonce.value if isinstance(nonce, GlobalNonce) else nonce


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError("level must be >= 0")
    if level >= 256:
        raise ValueError("level must be < 256: the 256-bit digest is exhausted")


def shard_path(level: int, identifier: bytes, nonce: bytes | GlobalNonce | None = None) -> ShardCoord:
    """Walk the digest of ``identifier`` down to ``level`` and return the branch.

    With a nonce the digest covers identifier || nonce, so reassignments can
    be re-randomized every period.
    """
    _check_level(level)
    digest = hashlib.sha256(identifier + _nonce_bytes(nonce)).digest()
    branch = [0]
    shard = 0
    for i in range(level):
        bit = (digest[i // 8] >> (7 - i % 8)) & 1
        shard = 2 * shard + bit
        branch.append(shard)
    return ShardCoord(level=level, index=shard, branch=tuple(branch))


def shard_index(level: int, identifier: bytes, nonce: bytes | GlobalNonce | None = None) -> int:
    """The shard index ``shard_path(level, identifier, nonce).index``, without the branch.

    The index is the digest's leading ``level`` bits as a big-endian integer.
    The index at any shallower level l is ``shard_index(level, ...) >> (level - l)``.
    """
    _check_level(level)
    return int.from_bytes(hashlib.sha256(identifier + _nonce_bytes(nonce)).digest(), "big") >> (256 - level)


def _check_tx(level: int, tx: ExtendedTransaction) -> None:
    if tx.input_ref is None:
        raise ValueError(f"transaction {tx.id.hex()} has no input reference to shard on")
    if tx.extra_input_refs and level > 0:
        raise MultiInputShardedError(
            f"{E_MULTI_INPUT_SHARDED}: transaction {tx.id.hex()} has {tx.n_inputs} inputs "
            f"and can only be placed at level 0, not level {level}"
        )


def tx_shard(
    level: int, tx: ExtendedTransaction, nonce: bytes | GlobalNonce | None = None
) -> ShardCoord:
    """Shard of a transaction: the bit-walk applied to its single input reference."""
    _check_tx(level, tx)
    return shard_path(level, tx.input_ref, nonce)


def tx_shard_index(
    level: int, tx: ExtendedTransaction, nonce: bytes | GlobalNonce | None = None
) -> int:
    """``tx_shard(level, tx, nonce).index``, with the same checks and errors, hashed in one call."""
    ref = tx.input_ref
    if ref is None or (level > 0 and tx.extra_input_refs):
        _check_tx(level, tx)  # raises with the per-transaction message
    if not 0 <= level < 256:
        _check_level(level)
    if nonce is not None:
        ref = ref + (nonce.value if isinstance(nonce, GlobalNonce) else nonce)
    return int.from_bytes(hashlib.sha256(ref).digest(), "big") >> (256 - level)


def shard_indices(
    level: int, identifiers: Iterable[bytes], nonce: bytes | GlobalNonce | None = None
) -> Iterator[int]:
    """``shard_index(level, identifier, nonce)`` per identifier, each hashed only when pulled."""
    _check_level(level)
    suffix, shift = _nonce_bytes(nonce), 256 - level
    return (int.from_bytes(hashlib.sha256(ref + suffix).digest(), "big") >> shift for ref in identifiers)


def tx_shard_indices(
    level: int, txs: Iterable[ExtendedTransaction], nonce: bytes | GlobalNonce | None = None
) -> Iterator[int]:
    """``tx_shard_index(level, tx, nonce)`` per transaction, yielded lazily.

    ``level`` is checked when called; a transaction's checks and hash run when
    its index is pulled, and a failing check raises the per-transaction error.
    """
    _check_level(level)
    return (tx_shard_index(level, tx, nonce) for tx in txs)


def nonce_step(local: bytes, left: bytes = b"", right: bytes = b"") -> bytes:
    """One shard's step of the global nonce fold: sha256(local || left || right).

    A leaf has no children, so it hashes its local randomness alone.
    """
    return hashlib.sha256(local + left + right).digest()


def fold_global_nonce(
    local_random: Mapping[tuple[int, int], bytes], num_levels: int
) -> GlobalNonce:
    """Fold per-shard local randomness bottom-up into the root nonce.

    Leaves hash their own randomness; every interior shard hashes its local
    randomness followed by the left and right child results.
    """
    if num_levels < 1:
        raise ValueError("num_levels must be >= 1")
    intermediates: dict[tuple[int, int], bytes] = {}
    for level in range(num_levels - 1, -1, -1):
        for shard in range(2**level):
            try:
                local = local_random[(level, shard)]
            except KeyError:
                raise ValueError(f"missing local randomness for shard ({level},{shard})") from None
            if level == num_levels - 1:
                intermediates[(level, shard)] = nonce_step(local)
            else:
                left = intermediates.get((level + 1, 2 * shard))
                right = intermediates.get((level + 1, 2 * shard + 1))
                if left is None or right is None:
                    raise ValueError(f"missing child nonce below shard ({level},{shard})")
                intermediates[(level, shard)] = nonce_step(local, left, right)
    return GlobalNonce(value=intermediates[(0, 0)], intermediates=intermediates)


def mfn_fraction(level: int) -> float:
    """Fraction of all nodes that validate and store a given level: 2^-level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return 2.0**-level


def mfn_ratio(num_tx: float, num_levels: int) -> float:
    """Ratio of shards an MFN must handle to the whole tree: N L^2/(2^L-1)^2 + L/(2^L-1)."""
    if num_tx < 1 or num_levels < 1:
        raise ValueError("num_tx and num_levels must be >= 1")
    shards = 2**num_levels - 1
    return num_tx * num_levels**2 / shards**2 + num_levels / shards


def tree_throughput(num_levels: int, target_time: float = 600.0) -> float:
    """Theoretical capacity in tx/s: one transaction per shard per block period."""
    if num_levels < 1:
        raise ValueError("num_levels must be >= 1")
    return (2**num_levels - 1) / target_time


def mfn_store_rate(tx_per_second: float, num_levels: float) -> float:
    """Transactions per second an MFN stores: n L/(2^L - 1)."""
    if tx_per_second <= 0:
        raise ValueError("tx_per_second must be positive")
    return tx_per_second * num_levels / (2**num_levels - 1)


def mfn_download_rate(tx_per_second: float, num_levels: float) -> float:
    """Upper bound on transactions per second an MFN downloads: n L^2/(2^L-1) + L."""
    if tx_per_second < 0:
        raise ValueError("tx_per_second must be non-negative")
    return tx_per_second * num_levels**2 / (2**num_levels - 1) + num_levels


def rate_to_mb_per_day(tx_per_second: float, tx_bytes: int = 250) -> float:
    """Convert a transaction rate to megabytes per day at a fixed tx size."""
    return tx_per_second * 86400 * tx_bytes / 1024**2


@dataclass(frozen=True)
class OptimalLevels:
    """Result of minimizing the MFN download over the (continuous) level count."""

    levels: float
    levels_int: int
    download_tps: float
    store_tps: float
    download_mb_day: float
    store_mb_day: float


def optimal_levels(
    tx_per_second: float,
    lo: float = 1.0,
    hi: float = 64.0,
    tol: float = 1e-6,
    tx_bytes: int = 250,
) -> OptimalLevels:
    """Level count minimizing the MFN download rate for a given throughput.

    Golden-section search over the (unimodal) continuous download curve, plus
    the better of the two integer neighbours.
    """
    if tx_per_second <= 0:
        raise ValueError("tx_per_second must be positive")
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = mfn_download_rate(tx_per_second, c)
    fd = mfn_download_rate(tx_per_second, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = mfn_download_rate(tx_per_second, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = mfn_download_rate(tx_per_second, d)
    best = (a + b) / 2
    candidates = [max(1, math.floor(best)), max(1, math.ceil(best))]
    best_int = min(candidates, key=lambda L: mfn_download_rate(tx_per_second, L))
    download = mfn_download_rate(tx_per_second, best)
    store = mfn_store_rate(tx_per_second, best)
    return OptimalLevels(
        levels=best,
        levels_int=best_int,
        download_tps=download,
        store_tps=store,
        download_mb_day=rate_to_mb_per_day(download, tx_bytes),
        store_mb_day=rate_to_mb_per_day(store, tx_bytes),
    )


def routing_miss_probability(n_peers: int, level: int) -> float:
    """Probability that none of ``n_peers`` random peers belongs to a level-l shard."""
    if n_peers < 0:
        raise ValueError("n_peers must be >= 0")
    if level < 0:
        raise ValueError("level must be >= 0")
    return (1.0 - 0.5**level) ** n_peers


def required_peers(target_p: float, level: int) -> int:
    """Peers needed so the miss probability is at most ``target_p`` at a level."""
    if not (0.0 < target_p < 1.0):
        raise ValueError("target_p must be in (0, 1)")
    if level < 0:
        raise ValueError("level must be >= 0")
    if level == 0:
        return 1
    return math.ceil(math.log10(target_p) / math.log10(1.0 - 0.5**level))
