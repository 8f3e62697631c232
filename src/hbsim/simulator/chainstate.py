"""Blocks, the ownership registry, and the block validation rules.

The registry is a flat map from output id to unspent value; which shard owns
an output is a pure function of its id, so uniqueness of the id guarantees
uniqueness of the owning shard. Conservation is tracked with running integer
totals and re-checked after every state change:

    unspent + fees collected == minted rewards + injected genesis value

Layout: outputs are grouped in buckets by ``value.bit_length()`` for the input
sampler, and one dict maps each output id to ``value << 32 | pos``, ``pos``
being the output's index in its bucket. So a removal can swap the bucket's
last output into the freed slot, and a sample compares packed entries against
``needed << 32`` without unpacking them. ``ChainState.unspent`` is a read-only
``id -> value`` view of that dict. Per output this costs one dict slot, one
int and one bucket slot: 97 bytes at 100,000 outputs and 85 at 2**18
(tracemalloc, the ids themselves not counted), where a second dict of
positions beside the value map took 141 and 116.

The registry alone owns reservation: ``pick_at_least`` reserves what it
returns until ``release`` (eviction) or a spend (``_remove``) clears it. A
per-bucket count of reserved outputs lets a pick skip scanning a boundary
bucket in which every output is reserved.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import struct
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from ..core import ExtendedTransaction
from ..sharding import E_MULTI_INPUT_SHARDED, tx_shard_index

E_DOUBLE_SPEND = "E_DOUBLE_SPEND"
E_SHARD_MISMATCH = "E_SHARD_MISMATCH"
E_BAD_CARRIED_AVERAGE = "E_BAD_CARRIED_AVERAGE"
E_MALFORMED_BLOCK = "E_MALFORMED_BLOCK"

# A registry entry is ``value << _POS_BITS | pos``: the output's value above
# its index in its bucket. Values stay unbounded ints; only pos has a width.
_POS_BITS = 32
_POS_MASK = (1 << _POS_BITS) - 1
_VALUE_MASK = ~_POS_MASK

# SubBlock.digest packs each fee as a little-endian int64.
_MAX_FEE = 2**63 - 1

# Samples pick_at_least draws from the boundary bucket on, and again above it.
_TRIES = 8


class ConservationError(AssertionError):
    """The value-conservation identity failed; this is always a simulator bug."""


@dataclass(frozen=True)
class CarriedValues:
    """Distributed-computation fields a sub-block carries in its header.

    ``value_avg`` is the windowed average of (mean beta * block bits) for this
    shard; ``subtree_sum`` folds the children's sums into it. The per-level
    sum vectors propagate the windowed beta and bits averages of every shard
    up to the root, which is what the root needs to publish the calibration.
    """

    value_avg: float
    subtree_sum: float
    beta_level_sums: tuple[float, ...]
    bits_level_sums: tuple[float, ...]
    nonce: bytes

    def pack(self) -> bytes:
        floats = (self.value_avg, self.subtree_sum, *self.beta_level_sums, *self.bits_level_sums)
        return struct.pack(f"<{len(floats)}d", *floats) + self.nonce


@dataclass
class SubBlock:
    """One mined block at a (level, shard) tree coordinate; unsharded levels use shard 0."""

    level: int
    shard: int
    seq: int
    parent_ref: bytes
    child_refs: tuple[bytes, ...]
    txs: tuple[ExtendedTransaction, ...]
    fees_sat: tuple[int, ...]
    mined_at: float
    size_bits: int
    carried: CarriedValues | None = None
    _digest: bytes | None = field(default=None, repr=False, compare=False)

    def digest(self) -> bytes:
        if self._digest is None:
            parts = [struct.pack("<iiqd", self.level, self.shard, self.seq, self.mined_at), self.parent_ref]
            parts += self.child_refs
            for tx, fee in zip(self.txs, self.fees_sat):
                parts += (tx.id, struct.pack("<q", fee))
            if self.carried is not None:
                parts.append(self.carried.pack())
            self._digest = hashlib.sha256(b"".join(parts)).digest()
        return self._digest


def change_output_id(tx_id: bytes) -> bytes:
    return hashlib.sha256(tx_id + b"/change").digest()


def reward_output_id(tag: str) -> bytes:
    return hashlib.sha256(b"reward/" + tag.encode()).digest()


class _UnspentView(Mapping):
    """Read-only ``output id -> value`` view of ``ChainState``'s packed entries."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[bytes, int]) -> None:
        self._entries = entries

    def __getitem__(self, output_id: bytes) -> int:
        return self._entries[output_id] >> _POS_BITS

    def __contains__(self, output_id: object) -> bool:
        return output_id in self._entries

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class ChainState:
    """Unspent-output registry and the conservation ledger.

    Which block a new block extends is the caller's to track: the sharded
    modes keep each shard's last accepted block and link to its digest.
    """

    def __init__(self) -> None:
        # output id -> value << _POS_BITS | index in _buckets[value.bit_length()]
        self._entries: dict[bytes, int] = {}
        self.unspent: Mapping[bytes, int] = _UnspentView(self._entries)
        # outputs grouped by value.bit_length() so a sufficiently large input
        # can be sampled in O(#buckets) regardless of registry size
        self._buckets: dict[int, list[bytes]] = {}
        self._bucket_keys: list[int] = []
        # _starts[i] = outputs in the buckets before _bucket_keys[i], with the
        # grand total appended; None once _add or _remove has moved a count
        self._starts: list[int] | None = None
        # outputs picked and neither released nor spent; how many of them
        # each bucket holds (a key per existing bucket)
        self._reserved: set[bytes] = set()
        self._reserved_counts: dict[int, int] = {}
        self.total_unspent = 0
        self.fees_collected = 0
        self.minted = 0
        self.genesis_injected = 0
        self.conservation_checks = 0
        self.conservation_violations = 0

    # -- registry ---------------------------------------------------------

    def _add(self, output_id: bytes, value: int) -> None:
        entries = self._entries
        if output_id in entries:
            raise ValueError(f"output id {output_id.hex()} already exists")
        if value < 1:
            raise ValueError("outputs must carry at least one satoshi")
        key = value.bit_length()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            self._reserved_counts[key] = 0
            bisect.insort(self._bucket_keys, key)
        pos = len(bucket)
        if pos > _POS_MASK:
            raise OverflowError(f"bucket {key} already holds 2**{_POS_BITS} outputs")
        entries[output_id] = value << _POS_BITS | pos
        bucket.append(output_id)
        self._starts = None
        self.total_unspent += value

    def _remove(self, output_id: bytes) -> int:
        entries = self._entries
        entry = entries.pop(output_id)
        value = entry >> _POS_BITS
        pos = entry & _POS_MASK
        key = value.bit_length()
        bucket = self._buckets[key]
        last = bucket.pop()
        if last != output_id:
            bucket[pos] = last
            entries[last] = entries[last] & _VALUE_MASK | pos
        if output_id in self._reserved:
            self._reserved.remove(output_id)
            self._reserved_counts[key] -= 1
        if not bucket:
            del self._buckets[key]
            del self._reserved_counts[key]
            self._bucket_keys.remove(key)
        self._starts = None
        self.total_unspent -= value
        return value

    def inject_genesis(self, output_id: bytes, value: int) -> None:
        self._add(output_id, value)
        self.genesis_injected += value
        self.check_conservation()

    def mint(self, output_id: bytes, value: int) -> None:
        if value == 0:
            return
        self._add(output_id, value)
        self.minted += value
        self.check_conservation()

    def release(self, output_ids: Iterable[bytes]) -> None:
        """Free reserved outputs for later picks (their pending transactions left the pool)."""
        counts, entries = self._reserved_counts, self._entries
        for output_id in output_ids:
            self._reserved.remove(output_id)
            counts[(entries[output_id] >> _POS_BITS).bit_length()] -= 1

    def pick_at_least(self, needed: int, rng) -> bytes | None:
        """Reserve and return an unreserved unspent output worth at least ``needed`` satoshi.

        No later pick returns it until ``release`` or a spend clears it.
        Sampling is uniform over the candidate buckets' members; a reserved
        or too-small sample misses. Only the boundary bucket (same bit length
        as ``needed``) can hold too-small values, so after ``_TRIES`` misses
        sampling moves strictly above it, and as a last resort the boundary
        bucket is scanned for its first unreserved output large enough,
        unless its reserved count says every output there is reserved.

        One sample draws a position below the count ``n`` of outputs in the
        buckets from ``lo`` on and bisects the cached bucket starts (rebuilt
        only after the registry changed) for the output there. Only one
        bisect finds ``lo``: the phase above the boundary starts one bucket
        later if the boundary bucket exists, found once the first phase
        missed. The draw is ``rng.randrange(n)`` written out on ``getrandbits``:
        on the pinned CPython 3.11.7 it consumes exactly the words ``randrange``
        does, as the stateful test (``tests/test_chainstate_stateful.py``)
        checks against the ``randrange`` reference in ``tests/reference_sampler.py``.

        A candidate's packed entry is compared with ``needed << _POS_BITS``,
        which is ``value >= needed`` because its position is below
        ``2**_POS_BITS``; every output above the boundary bucket passes.
        """
        floor_key = needed.bit_length()
        least = needed << _POS_BITS
        entries = self._entries
        reserved, counts = self._reserved, self._reserved_counts
        keys = self._bucket_keys
        buckets = self._buckets
        starts = self._starts
        if starts is None:
            starts = self._starts = list(
                itertools.accumulate((len(buckets[key]) for key in keys), initial=0)
            )
        end = starts[-1]
        getrandbits = rng.getrandbits
        bisect_right = bisect.bisect_right
        # first from the boundary bucket on, then strictly above it; with no
        # output from the boundary on, the boundary scan below finds none
        lo = bisect.bisect_left(keys, floor_key)
        for _phase in (0, 1):
            first = starts[lo]
            n = end - first
            if not n:
                break
            k = n.bit_length()
            for _ in range(_TRIES):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                pick = first + r
                i = bisect_right(starts, pick, lo) - 1
                key = keys[i]
                output_id = buckets[key][pick - starts[i]]
                if output_id not in reserved and entries[output_id] >= least:
                    reserved.add(output_id)
                    counts[key] += 1
                    return output_id
            # a miss: the next phase starts past the boundary bucket, if
            # keys[lo] (which exists, since n > 0) is that bucket
            lo += keys[lo] == floor_key
        if counts.get(floor_key, 0) < len(bucket := buckets.get(floor_key, ())):
            for output_id in bucket:
                if output_id not in reserved and entries[output_id] >= least:
                    reserved.add(output_id)
                    counts[floor_key] += 1
                    return output_id
        return None

    # -- conservation -----------------------------------------------------

    def check_conservation(self) -> None:
        self.conservation_checks += 1
        if self.total_unspent + self.fees_collected != self.minted + self.genesis_injected:
            self.conservation_violations += 1
            raise ConservationError(
                f"conservation broken: unspent={self.total_unspent} fees={self.fees_collected} "
                f"minted={self.minted} genesis={self.genesis_injected}"
            )


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    code: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


_ACCEPTED = ValidationResult(accepted=True)


def _reject(code: str, detail: str) -> ValidationResult:
    return ValidationResult(accepted=False, code=code, detail=f"{code}: {detail}")


def validate_block(
    block: SubBlock,
    state: ChainState,
    nonce: bytes | None = None,
    check_shard: bool = True,
    expected_carried: CarriedValues | None = None,
) -> ValidationResult:
    """Check a block against the current state.

    Every transaction must spend existing unspent outputs, sit in the shard
    its input hashes to (sharded modes), respect the level-0-only rule for
    multi-input spends, and not overdraw its inputs. When the validator has
    recomputed the carried header values itself, they must match exactly.
    """
    if len(block.txs) != len(block.fees_sat):
        return _reject(E_MALFORMED_BLOCK, "fee list does not match transaction list")
    entries = state._entries
    seen_inputs: set[bytes] = set()
    for tx, fee in zip(block.txs, block.fees_sat):
        refs = (tx.input_ref, *tx.extra_input_refs)
        if tx.extra_input_refs and block.level > 0:
            return _reject(
                E_MULTI_INPUT_SHARDED,
                f"transaction {tx.id.hex()} has {tx.n_inputs} inputs at level {block.level}",
            )
        total_in = 0
        for ref in refs:
            entry = entries.get(ref)
            if entry is None:
                return _reject(
                    E_DOUBLE_SPEND,
                    f"transaction {tx.id.hex()} spends a missing or already spent output",
                )
            if ref in seen_inputs:
                return _reject(
                    E_DOUBLE_SPEND, f"transaction {tx.id.hex()} re-spends an input inside the block"
                )
            seen_inputs.add(ref)
            total_in += entry >> _POS_BITS
        if fee < 0 or total_in < tx.value + fee:
            return _reject(
                E_DOUBLE_SPEND, f"transaction {tx.id.hex()} spends more than its inputs hold"
            )
        if fee > _MAX_FEE:
            return _reject(
                E_MALFORMED_BLOCK, f"transaction {tx.id.hex()} pays a fee past the int64 a block digest holds"
            )
        if check_shard:
            index = tx_shard_index(block.level, tx, nonce)
            if index != block.shard:
                return _reject(
                    E_SHARD_MISMATCH,
                    f"transaction {tx.id.hex()} maps to shard {index} "
                    f"but the block is at shard {block.shard}",
                )
    if expected_carried is not None:
        got = block.carried
        if (
            got is None
            or got.value_avg != expected_carried.value_avg
            or got.subtree_sum != expected_carried.subtree_sum
            or got.beta_level_sums != expected_carried.beta_level_sums
            or got.bits_level_sums != expected_carried.bits_level_sums
        ):
            return _reject(E_BAD_CARRIED_AVERAGE, "carried header averages do not recompute")
    return _ACCEPTED


def apply_block(block: SubBlock, state: ChainState) -> None:
    """Apply an accepted block: spend inputs, create outputs and change, take fees."""
    for tx, fee in zip(block.txs, block.fees_sat):
        total_in = 0
        for ref in (tx.input_ref, *tx.extra_input_refs):
            total_in += state._remove(ref)
        state._add(tx.id, tx.value)
        change = total_in - tx.value - fee
        if change > 0:
            state._add(change_output_id(tx.id), change)
        state.fees_collected += fee
    state.check_conservation()
