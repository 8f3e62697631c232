"""Stateful test of ``ChainState``: registry, conservation, block validation
and the input sampler, driven by random sequences of operations.

The sampler is checked against the two-walk reference in
``reference_sampler.py``: on the same state, a generator seeded alike must
yield the same output and end in the same state, the reference excluding
the outputs a model set says are reserved. Picks reserve, releases and
spends free, and the state's reserved set and per-bucket counts must agree
with that model after every step.
"""

import hashlib
import itertools
import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from hbsim.core import ExtendedTransaction
from hbsim.sharding import E_MULTI_INPUT_SHARDED
from hbsim.simulator import (
    E_DOUBLE_SPEND,
    E_MALFORMED_BLOCK,
    ChainState,
    SubBlock,
    apply_block,
    change_output_id,
    validate_block,
)
from hbsim.simulator.engine import ArrivalTx
from reference_sampler import two_walk_pick_at_least

# Small values share a few buckets. The others sit about 2**32, the width of
# a registry entry's position field, at the engine's default genesis value,
# and past 2**64, so that a value spilling into the position field shows.
VALUES = st.one_of(
    st.integers(1, 2**20),
    st.integers(2**32 - 2, 2**32 + 2),
    st.just(10**13),
    st.integers(2**64, 2**66),
)
POS_BITS = 32  # a registry entry is value << POS_BITS | index in its bucket
MAX_FEE = 2**63 - 1  # a block digest packs each fee as an int64
RECORDS = st.sampled_from([ExtendedTransaction, ArrivalTx])
INVALID_KINDS = (
    "missing", "spent", "respend", "overdraft", "negative_fee", "multi_input_sharded", "fee_past_int64",
)


def block(txs, fees, level=0):
    return SubBlock(
        level=level,
        shard=0,
        seq=0,
        parent_ref=b"\x00" * 32,
        child_refs=(),
        txs=tuple(txs),
        fees_sat=tuple(fees),
        mined_at=1.0,
        size_bits=640 + sum(t.size_bits for t in txs),
    )


def snapshot(state):
    return (
        dict(state.unspent),
        {key: list(bucket) for key, bucket in state._buckets.items()},
        list(state._bucket_keys),
        dict(state._entries),
        None if state._starts is None else list(state._starts),
        set(state._reserved),
        dict(state._reserved_counts),
        state.total_unspent,
        state.fees_collected,
        state.minted,
        state.genesis_injected,
    )


class ChainStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = ChainState()
        self._ids = (hashlib.sha256(b"id/%d" % i).digest() for i in itertools.count())
        self.spent: list[bytes] = []
        # the unspent outputs the operations so far should leave: id -> value
        self.model: dict[bytes, int] = {}
        # the outputs picked and neither released nor spent since
        self.reserved: set[bytes] = set()

    def fresh_id(self) -> bytes:
        return next(self._ids)

    def draw_spends(self, data, refs):
        """Valid single-input spends of ``refs``: (transactions, fees)."""
        txs, fees = [], []
        for ref in refs:
            held = self.state.unspent[ref]
            fee = data.draw(st.integers(0, min(held - 1, MAX_FEE)))
            value = data.draw(st.integers(1, held - fee))
            record = data.draw(RECORDS)
            size = data.draw(st.integers(1, 900))
            if record is ArrivalTx:
                txs.append(ArrivalTx(self.fresh_id(), value, size, ref, fee, 0))
            else:
                txs.append(ExtendedTransaction(id=self.fresh_id(), value=value, size_bytes=size, input_ref=ref))
            fees.append(fee)
        return txs, fees

    def inject_one(self, value):
        output_id = self.fresh_id()
        self.state.inject_genesis(output_id, value)
        self.model[output_id] = value

    @rule(value=VALUES)
    def inject(self, value):
        self.inject_one(value)

    @rule(values=st.lists(st.integers(1, 2**8), min_size=2, max_size=20))
    def inject_crowd(self, values):
        """Many small outputs share a few buckets, so a pick often misses in
        the boundary bucket and falls back to scanning it."""
        for value in values:
            self.inject_one(value)

    @rule(value=st.integers(0, 2**20))
    def mint(self, value):
        before = self.state.minted
        output_id = self.fresh_id()
        self.state.mint(output_id, value)
        assert self.state.minted == before + value
        if value:
            self.model[output_id] = value

    @precondition(lambda self: self.state.unspent)
    @rule(data=st.data())
    def apply_valid_block(self, data):
        self.apply_spending(data, sorted(self.state.unspent))

    @precondition(lambda self: self.reserved)
    @rule(data=st.data())
    def apply_block_spending_reserved(self, data):
        """A block spends reserved outputs only: the spends clear them."""
        self.apply_spending(data, sorted(self.reserved))

    def apply_spending(self, data, candidates):
        """Apply a valid block spending some of ``candidates``."""
        outputs = st.sampled_from(candidates)
        refs = data.draw(st.lists(outputs, min_size=1, max_size=6, unique=True))
        if len(refs) >= 2 and data.draw(st.booleans()):
            # a two-input spend, allowed at level 0 only
            first, second, refs = refs[0], refs[1], refs[2:]
            held = self.state.unspent[first] + self.state.unspent[second]
            fee = data.draw(st.integers(0, min(held - 1, MAX_FEE)))
            multi = ExtendedTransaction(
                id=self.fresh_id(), value=data.draw(st.integers(1, held - fee)), size_bytes=300,
                input_ref=first, extra_input_refs=(second,),
            )
            txs, fees = self.draw_spends(data, refs)
            txs.insert(0, multi)
            fees.insert(0, fee)
            spent = [first, second, *refs]
        else:
            txs, fees = self.draw_spends(data, refs)
            spent = refs
        candidate = block(txs, fees)
        assert validate_block(candidate, self.state, check_shard=False)
        total_before = self.state.total_unspent
        apply_block(candidate, self.state)
        assert self.state.total_unspent == total_before - sum(fees)
        for ref in spent:
            assert ref not in self.state.unspent
        for tx in txs:
            assert self.state.unspent[tx.id] == tx.value
        self.spent.extend(spent)
        self.reserved.difference_update(spent)
        for tx, fee in zip(txs, fees):
            change = sum(self.model.pop(ref) for ref in (tx.input_ref, *tx.extra_input_refs)) - tx.value - fee
            self.model[tx.id] = tx.value
            if change:
                self.model[change_output_id(tx.id)] = change

    @rule(data=st.data(), kind=st.sampled_from(INVALID_KINDS))
    def attempt_invalid_block(self, data, kind):
        unspent = sorted(self.state.unspent)
        if kind == "spent" and not self.spent:
            kind = "missing"
        if kind not in ("missing", "spent") and len(unspent) < (2 if kind == "multi_input_sharded" else 1):
            kind = "missing"
        rich = [r for r in unspent if self.state.unspent[r] > MAX_FEE + 1]
        if kind == "fee_past_int64" and not rich:
            kind = "missing"
        expected = {"multi_input_sharded": E_MULTI_INPUT_SHARDED, "fee_past_int64": E_MALFORMED_BLOCK}.get(
            kind, E_DOUBLE_SPEND
        )
        level = 1 if kind == "multi_input_sharded" else 0
        if kind in ("missing", "spent"):
            ref = self.fresh_id() if kind == "missing" else data.draw(st.sampled_from(self.spent))
            bad_txs, bad_fees = [ArrivalTx(self.fresh_id(), 1, 250, ref, 0, 0)], [0]
            others = unspent
        elif kind == "respend":
            ref = data.draw(st.sampled_from(unspent))
            bad_txs, bad_fees = self.draw_spends(data, [ref, ref])
            others = [r for r in unspent if r != ref]
        elif kind == "multi_input_sharded":
            first, second = data.draw(st.lists(st.sampled_from(unspent), min_size=2, max_size=2, unique=True))
            bad_txs = [ExtendedTransaction(id=self.fresh_id(), value=1, size_bytes=250,
                                           input_ref=first, extra_input_refs=(second,))]
            bad_fees = [0]
            others = [r for r in unspent if r not in (first, second)]
        elif kind == "fee_past_int64":
            # covered by its input, but no block digest can hold the fee
            ref = data.draw(st.sampled_from(rich))
            held = self.state.unspent[ref]
            fee = data.draw(st.integers(MAX_FEE + 1, held - 1))
            bad_txs, bad_fees = [ArrivalTx(self.fresh_id(), held - fee, 250, ref, fee, 0)], [fee]
            others = [r for r in unspent if r != ref]
        else:
            ref = data.draw(st.sampled_from(unspent))
            held = self.state.unspent[ref]
            if kind == "overdraft":
                fee = data.draw(st.integers(0, held))
                value = data.draw(st.integers(max(1, held - fee + 1), held + 10))
            else:
                fee, value = data.draw(st.integers(-held, -1)), 1
            bad_txs, bad_fees = [ArrivalTx(self.fresh_id(), value, 250, ref, fee, 0)], [fee]
            others = [r for r in unspent if r != ref]
        # valid spends of other outputs ahead of the bad one
        prefix = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
        txs, fees = self.draw_spends(data, prefix)
        before = snapshot(self.state)
        result = validate_block(block(txs + bad_txs, fees + bad_fees, level), self.state, check_shard=False)
        assert not result
        assert result.code == expected
        assert snapshot(self.state) == before

    def reserve_all(self, rng):
        """Reserve every output by picks, from the highest bucket down.

        A pick for the least value of bucket ``key`` samples only that
        bucket and those above, already all reserved, and ends in a scan
        of that bucket; so it finds an output until the bucket is reserved.
        """
        for key in reversed(self.state._bucket_keys):
            while (got := self.state.pick_at_least(1 << (key - 1), rng)) is not None:
                assert got not in self.reserved
                self.reserved.add(got)
        assert self.reserved == self.state.unspent.keys()

    @rule(data=st.data(), picks=st.integers(1, 4))
    def pick(self, data, picks):
        """Several picks on one state, each with its own ``needed``; each
        found output is reserved, so no later pick returns it."""
        unspent = self.state.unspent
        ids = sorted(unspent)
        for _ in range(picks):
            seed = data.draw(st.integers(0, 2**32))
            if ids and data.draw(st.booleans()):
                # all but a few outputs reserved, and ``needed`` at or just
                # above the value of one kept: the tries mostly miss, and
                # the answer, if any, is left to the boundary-bucket scan
                kept = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
                self.reserve_all(random.Random(seed))
                self.state.release(kept)
                self.reserved.difference_update(kept)
                needed = max(1, unspent[kept[0]] + data.draw(st.integers(-1, 1)))
            else:
                values = sorted(set(unspent.values()))
                base = data.draw(st.one_of(VALUES, st.sampled_from(values)) if values else VALUES)
                needed = max(1, base + data.draw(st.integers(-1, 1)))
            reference_rng, rng = random.Random(seed), random.Random(seed)
            expected = two_walk_pick_at_least(self.state, needed, reference_rng, set(self.reserved))
            got = self.state.pick_at_least(needed, rng)
            assert got == expected
            assert rng.getstate() == reference_rng.getstate()
            if got is not None:
                assert got not in self.reserved and self.state.unspent[got] >= needed
                self.reserved.add(got)

    @precondition(lambda self: self.reserved)
    @rule(data=st.data())
    def release(self, data):
        """Release some reserved outputs, as an eviction does."""
        released = data.draw(st.lists(st.sampled_from(sorted(self.reserved)), min_size=1, unique=True))
        self.state.release(released)
        self.reserved.difference_update(released)

    @invariant()
    def value_conserved(self):
        s = self.state
        assert s.total_unspent == sum(s.unspent.values())
        assert s.total_unspent + s.fees_collected == s.minted + s.genesis_injected
        assert s.conservation_violations == 0

    @invariant()
    def unspent_matches_model(self):
        assert dict(self.state.unspent) == self.model

    @invariant()
    def reserved_matches_model(self):
        s = self.state
        assert s._reserved == self.reserved
        assert s._reserved <= s._entries.keys()
        assert s._reserved_counts == {
            key: sum(output_id in s._reserved for output_id in bucket) for key, bucket in s._buckets.items()
        }

    @invariant()
    def index_matches_unspent(self):
        s = self.state
        assert s._bucket_keys == sorted(s._buckets)
        assert all(s._buckets.values())
        assert s._entries.keys() == s.unspent.keys()
        assert sum(map(len, s._buckets.values())) == len(s.unspent)
        for output_id, entry in s._entries.items():
            value, pos = entry >> POS_BITS, entry & ((1 << POS_BITS) - 1)
            assert value == s.unspent[output_id]
            assert s._buckets[value.bit_length()][pos] == output_id
        if s._starts is not None:
            counts = (len(s._buckets[key]) for key in s._bucket_keys)
            assert s._starts == list(itertools.accumulate(counts, initial=0))


TestChainStateMachine = ChainStateMachine.TestCase
TestChainStateMachine.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
