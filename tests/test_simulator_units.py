import hashlib
import itertools
import math
import random
import statistics
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from hbsim.core import ExtendedTransaction
from hbsim.dataio import WorkloadSpec
from hbsim.sharding import shard_path, tx_shard_index
from hbsim.simulator.config import MAX_CONCURRENT_BLOCKS, MAX_SHARDED_LEVELS
from hbsim.simulator import (
    CarriedValues,
    ChainState,
    ConservationError,
    E_BAD_CARRIED_AVERAGE,
    E_DOUBLE_SPEND,
    E_MALFORMED_BLOCK,
    E_SHARD_MISMATCH,
    SimConfig,
    SubBlock,
    apply_block,
    change_output_id,
    equal_miners,
    propagation_delay,
    sample_mining_time,
    take_by_fee_rate,
    validate_block,
)
from hbsim.simulator import engine
from conftest import make_record, make_tx
from reference_sampler import two_walk_pick_at_least


def small_config(**kw):
    defaults = dict(
        mode="flat",
        num_levels=3,
        duration=600.0,
        seed=1,
        workload=WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def spendable_tx(state, value=10_000, size=250, fee=100, shard_level=None, shard_index=None, rng=None):
    """Create a transaction spending a fresh genesis output, optionally
    searching for an input that maps to a wanted shard."""
    rng = rng or random.Random(0)
    while True:
        ref = rng.getrandbits(256).to_bytes(32, "big")
        if shard_level is not None:
            if shard_path(shard_level, ref).index != shard_index:
                continue
        break
    state.inject_genesis(ref, value + fee + 5000)
    tx = make_tx(value, size, input_ref=ref)
    return tx, fee


class TestSampleMiningTime:
    def test_mean_matches_eta_times_bits(self, rng):
        n = 100_000
        draws = [sample_mining_time(rng, 1e-4, 6_000_000) for _ in range(n)]
        mean = statistics.fmean(draws)
        expected = 600.0
        assert abs(mean - expected) < 3 * expected / math.sqrt(n)

    def test_half_hashrate_doubles_mean(self, rng):
        n = 50_000
        full = statistics.fmean(sample_mining_time(rng, 1e-5, 100_000) for _ in range(n))
        half = statistics.fmean(
            sample_mining_time(rng, 1e-5, 100_000, hashrate_scale=0.5) for _ in range(n)
        )
        assert half / full == pytest.approx(2.0, rel=0.05)

    def test_header_only_block_strictly_positive(self, rng):
        for _ in range(100):
            assert sample_mining_time(rng, 1e-6, 640) > 0.0

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            sample_mining_time(rng, 0.0, 100)
        with pytest.raises(ValueError):
            sample_mining_time(rng, 1e-5, 100, hashrate_scale=0.0)


class TestPropagationDelay:
    def test_header_hits_the_floor_exactly(self):
        cfg = small_config()
        assert propagation_delay(80, cfg) == pytest.approx(0.08)

    def test_zero_bytes_floor_only(self):
        assert propagation_delay(0, small_config()) == pytest.approx(0.08)

    def test_linear_above_floor(self):
        cfg = small_config()
        assert propagation_delay(4000, cfg) == pytest.approx(2 * propagation_delay(2000, cfg))


def random_entries(rng, n):
    entries = []
    for i in range(n):
        value, size = rng.randrange(1, 10**6), rng.randrange(100, 900)
        entries.append(make_record(value, size, rng.randrange(1, 10**5), i, input_ref=b"\x01" * 32))
    return entries


class TestTakeByFeeRate:
    def test_matches_sort_then_cut_oracle(self, rng):
        for _ in range(50):
            entries = random_entries(rng, rng.randrange(1, 40))
            cap = rng.randrange(500, 20_000)
            expected = sorted(entries, key=lambda e: (-e.fee_sat / e.size_bits, e.seq))
            used = 0
            oracle = []
            for e in expected:
                if used + e.size_bytes > cap:
                    break
                oracle.append(e)
                used += e.size_bytes
            [chosen], rest = take_by_fee_rate(list(entries), cap)
            assert [e.id for e in chosen] == [e.id for e in oracle]
            assert len(chosen) + len(rest) == len(entries)

    def test_fee_ties_break_by_arrival(self):
        entries = [
            make_record(10, 100, 800, 2, input_ref=b"\x02" * 32),
            make_record(10, 100, 800, 1, input_ref=b"\x01" * 32),
        ]
        [chosen], _ = take_by_fee_rate(entries, 10_000)
        assert [e.seq for e in chosen] == [1, 2]


def list_summary(values):
    """The list-based latency summary ``summarize_latencies`` replaces."""
    if not values:
        return None
    values = sorted(values)
    return {
        "count": len(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "p10": values[int(0.1 * (len(values) - 1))],
        "p90": values[int(0.9 * (len(values) - 1))],
    }


class TestSummarizeLatencies:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.25],
            [0.1, 0.2],
            [5.0, 0.1, 0.2, 7.5, 1e-9, 300.0, 0.30000000000000004],
            [2.5, 0.1, 0.7, 0.1, 9.0, 0.7, 0.7, 2.5],
            [1.0] * 6,
            [0.1 + 0.2, 0.3, 0.1 + 0.2, 1e16, 1.0, -1e16, 0.3],
        ],
        ids=["empty", "single", "two", "odd", "even-ties", "all-equal", "cancelling"],
    )
    def test_matches_list_summary(self, values):
        self.check(values)

    def test_matches_list_summary_on_random_counts(self, rng):
        for n in (*range(1, 12), 99, 100, 1001):
            self.check([rng.expovariate(1 / 300.0) for _ in range(n)])
            self.check([rng.choice((0.5, 44.5, 124.0, 1 / 3)) for _ in range(n)])

    @staticmethod
    def check(values):
        expected = list_summary(values)
        got = engine.summarize_latencies(array("d", values))
        assert got == expected
        if got is not None:
            assert [type(v) for v in got.values()] == [int, float, float, float, float]


# (fee, size) pairs whose fee rates tie across sizes: fee / (8 * size) is one of 1, 2 or 3
FILL_ENTRIES = st.lists(
    st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((100, 200, 300)), st.binary(min_size=32, max_size=32)),
    max_size=40,
)


class TestShardedFill:
    """The per-shard fill against an eager oracle: group every entry by shard, then sort and cut."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
        FILL_ENTRIES,
        st.data(),
    )
    def test_matches_grouped_sort_then_cut_oracle(self, level, nonce, rows, data):
        entries = [
            make_record(1, size, rate * 8 * size, i, input_ref=ref)
            for i, (rate, size, ref) in enumerate(rows)
        ]
        groups = [[] for _ in range(2**level)]
        for e in entries:
            groups[tx_shard_index(level, e, nonce)].append(e)
        for group in groups:
            group.sort(key=lambda e: (-e.fee_sat / e.size_bits, e.seq))
        # caps a fill meets exactly: the byte total of some shard's first k entries
        exact = {sum(e.size_bytes for e in g[:k]) for g in groups for k in range(1, len(g) + 1)}
        caps = st.integers(0, 3000)
        if exact:
            caps = st.one_of(st.sampled_from(sorted(exact)), caps)
        cap = data.draw(caps)
        chosen, rest = take_by_fee_rate(list(entries), cap, level, nonce)
        assert len(chosen) == 2**level
        for shard, group in enumerate(groups):
            used = 0
            oracle = []
            for e in group:
                if used + e.size_bytes > cap:
                    break
                oracle.append(e)
                used += e.size_bytes
            assert [e.seq for e in chosen[shard]] == [e.seq for e in oracle]
        taken = {id(e) for shard_chosen in chosen for e in shard_chosen}
        assert len(rest) == len({id(e) for e in rest})
        assert {id(e) for e in rest} == {id(e) for e in entries} - taken

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
        FILL_ENTRIES,
        st.integers(0, 1500),
    )
    def test_rest_stays_in_pool_order(self, level, nonce, rows, cap):
        """``rest`` comes back in pool order, the unwalked tail after every
        entry walked: ``_Run._evict`` cuts it without sorting."""
        entries = [
            make_record(1, size, rate * 8 * size, i, input_ref=ref)
            for i, (rate, size, ref) in enumerate(rows)
        ]
        _, rest = take_by_fee_rate(entries, cap, level, nonce)
        assert rest == sorted(rest, key=engine._pool_order)


class TestMineLevel:
    """``_Run._mine_level`` is the one fill, mine and accept step of flat and hybrid mode."""

    def test_empty_mempool_yields_header_only_blocks(self):
        run = engine._FlatRun(small_config())
        run.mempool = [[], [], []]
        prev = b"\x00" * 32
        for level in (2, 1, 0):
            block = run._mine_level(level, prev, seq=0)
            assert block.level == level
            assert block.size_bits == run.cfg.header_bits
            assert not block.txs
            prev = block.digest()

    def test_one_tx_per_level(self):
        run = engine._FlatRun(small_config())
        kept = []
        for level in range(3):
            assert run.mempool[level], "the preseeded backlog reaches every level"
            run.mempool[level] = run.mempool[level][:1]
            kept.append(run.mempool[level][0])
        for level in (2, 1, 0):
            block = run._mine_level(level, b"\x00" * 32, seq=0)
            assert block.txs == (kept[level],)
            assert block.fees_sat == (kept[level].fee_sat,)
            assert block.size_bits == run.cfg.header_bits + kept[level].size_bits
            assert run.mempool[level] == []

    def test_seq_and_parent_pass_through(self):
        run = engine._FlatRun(small_config())
        parent = b"\x77" * 32
        t_before = run.t
        block = run._mine_level(2, parent, seq=5)
        assert block.parent_ref == parent
        assert block.seq == 5
        assert block.mined_at == run.t > t_before

    @staticmethod
    def mined_blocks(monkeypatch, mode):
        mined = []
        original = engine._Run._mine_level

        def spy(self, level, parent_ref, seq):
            block = original(self, level, parent_ref, seq)
            mined.append(block)
            return block

        monkeypatch.setattr(engine._Run, "_mine_level", spy)
        report = engine.simulate(small_config(mode=mode, duration=600.0 * 8))
        return mined, len(report.superblock_times)

    def test_blocks_chain_upward(self, monkeypatch):
        """A flat period mines the deepest level first; every block links to
        the one mined before it, across periods too."""
        mined, periods = self.mined_blocks(monkeypatch, "flat")
        assert periods >= 2
        assert [b.level for b in mined] == [2, 1, 0] * periods
        assert [b.seq for b in mined] == [p for p in range(periods) for _ in range(3)]
        assert mined[0].parent_ref == b"\x00" * 32
        for before, block in zip(mined, mined[1:]):
            assert block.parent_ref == before.digest()

    def test_hybrid_mines_the_legacy_block_first(self, monkeypatch):
        mined, periods = self.mined_blocks(monkeypatch, "hybrid")
        assert periods >= 2
        assert [b.level for b in mined] == [0, 2, 1] * periods
        for before, block in zip(mined, mined[1:]):
            assert block.parent_ref == before.digest()


@pytest.mark.parametrize(
    "mode, extra",
    [("tree", {"miners": equal_miners(48)}), ("concurrent", {"chain_target_times": (429.0, 124.0, 44.5)})],
)
def test_sharded_block_links_to_its_shards_last_block(monkeypatch, mode, extra):
    """In the sharded modes a block's parent ref is the digest of the last
    block accepted at its (level, shard), and zeros for the shard's first."""
    accepted = []
    original = engine._Run._accept

    def spy(self, block, *args, **kwargs):
        original(self, block, *args, **kwargs)
        accepted.append(block)

    monkeypatch.setattr(engine._Run, "_accept", spy)
    engine.simulate(small_config(mode=mode, duration=600.0 * 8, **extra))
    tips = {}
    for block in accepted:
        key = (block.level, block.shard)
        assert block.parent_ref == tips.get(key, b"\x00" * 32)
        tips[key] = block.digest()
    assert len(tips) == 7
    assert len(accepted) > 2 * len(tips)


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("flat", {}),
        ("tree", {"miners": equal_miners(48)}),
        ("concurrent", {"chain_target_times": (429.0, 124.0, 44.5)}),
    ],
)
def test_blocks_hold_the_pools_own_records(monkeypatch, mode, extra):
    """Every mined block's ``txs`` are the very records its pool held, not copies or wrappers."""
    pooled = {}
    chosen = []
    accepted = []
    original_take, original_accept = engine.take_by_fee_rate, engine._Run._accept

    def take(entries, *args):
        pooled.update((id(e), e) for e in entries)
        fills, rest = original_take(entries, *args)
        chosen.extend(e for fill in fills for e in fill)
        return fills, rest

    def accept(self, block, *args, **kwargs):
        accepted.append(block)
        original_accept(self, block, *args, **kwargs)

    monkeypatch.setattr(engine, "take_by_fee_rate", take)
    monkeypatch.setattr(engine._Run, "_accept", accept)
    report = engine.simulate(small_config(mode=mode, duration=600.0 * 8, **extra))
    mined = [tx for block in accepted for tx in block.txs]
    assert len(mined) == report.txs_confirmed > 0
    assert all(pooled.get(id(tx)) is tx for tx in mined)
    # each block holds its fill: the chosen records, each mined once
    assert {id(tx) for tx in mined} == {id(e) for e in chosen} and len(set(map(id, mined))) == len(mined)


def test_evict_releases_the_evicted_inputs():
    """Eviction keeps the best fee rates and frees the inputs of the records it drops."""
    run = engine._FlatRun(small_config())
    pool = [record for level_pool in run.mempool for record in level_pool]
    assert len(pool) > 4
    reserved = run.state._reserved
    assert {record.input_ref for record in pool} <= reserved
    ranked = sorted(pool, key=lambda r: (-r.fee_sat / r.size_bits, r.seq))
    # the pool as every caller hands it over: the rest of a fill, in pool order
    [nothing], pool = take_by_fee_rate(pool, 0)
    assert nothing == []
    evicted_before = run.txs_evicted
    run._evict(pool, 4)
    assert pool == ranked[:4]
    assert run.txs_evicted - evicted_before == len(ranked) - 4
    assert {record.input_ref for record in ranked[:4]} <= reserved
    assert not {record.input_ref for record in ranked[4:]} & reserved


@pytest.mark.parametrize(
    "mode, split, extra",
    [("flat", "reward_split_flat", {}), ("tree", "reward_split_tree", {"miners": equal_miners(48)})],
)
def test_reward_split_once_per_installed_schedule(monkeypatch, mode, split, extra):
    """Flat and tree mode split the block reward once per schedule they
    install, not once per period."""
    calls = []
    original = getattr(engine, split)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, split, counted)
    report = engine.simulate(small_config(mode=mode, duration=600.0 * 40, retarget_window=8, **extra))
    assert len(report.epochs) >= 3
    assert len(report.superblock_times) > 2 * len(report.epochs)
    assert len(calls) == len(report.epochs)


class TestChainState:
    def test_conservation_identity(self):
        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 1000)
        state.mint(b"\x02" * 32, 500)
        assert state.total_unspent == 1500
        assert state.conservation_checks == 2
        assert state.conservation_violations == 0

    def test_pick_at_least_respects_threshold(self, rng):
        state = ChainState()
        for i in range(100):
            state.inject_genesis(i.to_bytes(32, "big"), 10 * (i + 1))
        for _ in range(200):
            needed = rng.randrange(1, 1000)
            got = state.pick_at_least(needed, rng)
            assert got is not None
            assert state.unspent[got] >= needed
            state.release([got])

    def test_pick_at_least_exhausted(self, rng):
        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 100)
        assert state.pick_at_least(101, rng) is None
        assert state.pick_at_least(50, rng) == b"\x01" * 32
        assert state.pick_at_least(50, rng) is None, "a reserved output is not picked again"
        state.release([b"\x01" * 32])
        assert state.pick_at_least(50, rng) == b"\x01" * 32

    @pytest.mark.parametrize("boundary_values", [(), (513, 540, 600)], ids=["no-boundary-bucket", "too-small-boundary"])
    def test_pick_above_the_boundary_matches_reference(self, boundary_values):
        """A first phase that misses moves on past the boundary bucket when
        there is one, and stays put when there is none: the picks and the
        generator states match the two-walk reference either way."""
        state = ChainState()
        crowd = [b"c" + i.to_bytes(31, "big") for i in range(20)]
        for i, output_id in enumerate(crowd):
            state.inject_genesis(output_id, 2048 + i)  # bucket 12, every one reserved
        for _ in crowd:
            assert state.pick_at_least(2048, random.Random(0)) is not None
        assert state._reserved == set(crowd)
        for i, value in enumerate(boundary_values):
            state.inject_genesis(b"b" + i.to_bytes(31, "big"), value)
        for i in range(2):
            state.inject_genesis(b"d" + i.to_bytes(31, "big"), 2**20 + i)  # bucket 21
        needed = 700 if boundary_values else 300
        picks = []
        for seed in range(20):
            rng, reference = random.Random(seed), random.Random(seed)
            expected = two_walk_pick_at_least(state, needed, reference, set(crowd))
            got = state.pick_at_least(needed, rng)
            assert got == expected
            assert rng.getstate() == reference.getstate()
            picks.append(got)
            if got is not None:
                state.release([got])
        assert any(picks), "some picks find an input"

    def test_duplicate_output_id_rejected(self):
        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 100)
        with pytest.raises(ValueError, match="already exists"):
            state.inject_genesis(b"\x01" * 32, 100)

    def test_unspent_is_a_live_read_only_view(self):
        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 2**70)
        state.inject_genesis(b"\x02" * 32, 5)
        view = state.unspent
        assert dict(view) == {b"\x01" * 32: 2**70, b"\x02" * 32: 5}
        assert len(view) == 2 and b"\x02" * 32 in view and b"\x03" * 32 not in view
        assert sorted(view.values()) == [5, 2**70]
        with pytest.raises(KeyError):
            view[b"\x03" * 32]
        with pytest.raises(TypeError):
            view[b"\x03" * 32] = 1
        state._remove(b"\x01" * 32)
        assert dict(view) == {b"\x02" * 32: 5}

    def test_bucket_past_16_bit_positions(self, rng):
        """One bucket of 2**16 + 4 outputs: removals from its front swap
        outputs from positions past 2**16 into the freed slots, and every
        value, position and pick stays exact."""
        state = ChainState()
        n = 2**16 + 4
        ids = [i.to_bytes(32, "big") for i in range(n)]
        for i, output_id in enumerate(ids):
            state.inject_genesis(output_id, 2**20 + i)
        for i in range(3):
            assert state._remove(ids[i]) == 2**20 + i
        bucket = state._buckets[21]
        assert len(bucket) == n - 3 and bucket[:3] == ids[-1:-4:-1]
        for i, output_id in enumerate(ids[3:], start=3):
            entry = state._entries[output_id]
            assert entry >> 32 == state.unspent[output_id] == 2**20 + i
            assert bucket[entry & (2**32 - 1)] == output_id
        assert state.pick_at_least(2**20 + n - 1, rng) == ids[-1]
        assert state.pick_at_least(2**20 + n - 1, rng) is None, "the one large enough is reserved"

    def test_a_full_bucket_refuses_another_output(self):
        """An output's position in its bucket has 32 bits, so a bucket holding
        2**32 outputs takes no more; a stand-in list reports that length."""

        class FullBucket(list):
            def __len__(self):
                return 2**32

        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 100)
        state._buckets[7] = FullBucket(state._buckets[7])
        with pytest.raises(OverflowError, match="2\\*\\*32 outputs"):
            state.inject_genesis(b"\x02" * 32, 101)
        assert b"\x02" * 32 not in state.unspent and state.total_unspent == 100


def block_at(level, shard, txs, fees, carried=None, seq=0):
    return SubBlock(
        level=level,
        shard=shard,
        seq=seq,
        parent_ref=b"\x00" * 32,
        child_refs=(),
        txs=tuple(txs),
        fees_sat=tuple(fees),
        mined_at=1.0,
        size_bits=640 + sum(t.size_bits for t in txs),
        carried=carried,
    )


class TestArrivalTx:
    """The engine's arrival records read like the public transaction type."""

    FIELDS = ("id", "value", "size_bytes", "size_bits", "lam", "eta", "input_ref",
              "extra_input_refs", "n_inputs", "requested_level")

    def test_parity_with_extended_transaction(self):
        workload = WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0, level_override_fraction=0.5)
        run = engine._FlatRun(small_config(workload=workload))
        records = [record for pool in run.mempool for record in pool]
        assert all(type(r) is engine.ArrivalTx for r in records)
        assert {r.requested_level is None for r in records} == {True, False}
        public = [
            ExtendedTransaction(id=r.id, value=r.value, size_bytes=r.size_bytes, input_ref=r.input_ref,
                                requested_level=r.requested_level)
            for r in records
        ]
        for record, tx in zip(records, public):
            assert [getattr(record, f) for f in self.FIELDS] == [getattr(tx, f) for f in self.FIELDS]
            for level in range(4):
                assert tx_shard_index(level, record) == tx_shard_index(level, tx)
        fees = [record.fee_sat for record in records]
        from_records = block_at(0, 0, records, fees)
        from_public = block_at(0, 0, public, fees)
        assert from_records.size_bits == from_public.size_bits
        assert from_records.digest() == from_public.digest()
        assert validate_block(from_records, run.state, check_shard=False)
        assert validate_block(from_public, run.state, check_shard=False)


class TestValidateBlock:
    def test_spend_of_missing_output(self):
        state = ChainState()
        tx = make_tx(100, 100, input_ref=b"\xee" * 32)
        result = validate_block(block_at(0, 0, [tx], [1]), state, check_shard=False)
        assert not result
        assert result.code == E_DOUBLE_SPEND
        assert tx.id.hex() in result.detail

    def test_in_block_double_spend(self):
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 10**9)
        tx1 = make_tx(100, 100, input_ref=b"\xaa" * 32)
        tx2 = make_tx(200, 100, input_ref=b"\xaa" * 32)
        result = validate_block(
            block_at(0, 0, [tx1, tx2], [1, 1]), state, check_shard=False
        )
        assert result.code == E_DOUBLE_SPEND

    def test_fee_list_of_another_length_is_malformed(self):
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 10**9)
        tx = make_tx(100, 100, input_ref=b"\xaa" * 32)
        for fees in ([], [1, 1]):
            result = validate_block(block_at(0, 0, [tx], fees), state, check_shard=False)
            assert not result
            assert result.code == E_MALFORMED_BLOCK
            assert "fee list" in result.detail

    def test_fee_past_int64_is_malformed(self):
        """A block digest packs each fee as an int64, so a larger fee is
        refused even when the inputs cover it; the largest int64 fee is
        accepted and its block applies."""
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 2**64)
        for fee in (2**63, 2**64 - 1):
            tx = make_tx(2**64 - fee, 100, input_ref=b"\xaa" * 32)
            result = validate_block(block_at(0, 0, [tx], [fee]), state, check_shard=False)
            assert result.code == E_MALFORMED_BLOCK
            assert "int64" in result.detail
        tx = make_tx(2**63 + 1, 100, input_ref=b"\xaa" * 32)
        block = block_at(0, 0, [tx], [2**63 - 1])
        assert validate_block(block, state, check_shard=False)
        apply_block(block, state)
        assert state.fees_collected == 2**63 - 1

    def test_overdraft_rejected(self):
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 50)
        tx = make_tx(100, 100, input_ref=b"\xaa" * 32)
        result = validate_block(block_at(0, 0, [tx], [1]), state, check_shard=False)
        assert result.code == E_DOUBLE_SPEND
        assert "more than" in result.detail

    def test_cross_shard_double_spend_one_accept(self, rng):
        """The same input offered to other shards: only the true shard accepts,
        at every sharded level, with and without a global nonce."""
        state = ChainState()
        tx, fee = spendable_tx(state, rng=rng)
        for nonce, level in itertools.product((None, b"\x5a" * 32), range(1, 10)):
            true_idx = shard_path(level, tx.input_ref, nonce).index
            ok = validate_block(
                block_at(level, true_idx, [tx], [fee]), state, nonce=nonce
            )
            assert ok.accepted, level
            # the sibling, the far half of the level, and the mirrored shard
            wrong = {true_idx ^ 1, true_idx ^ (1 << (level - 1)), 2**level - 1 - true_idx}
            for wrong_idx in wrong - {true_idx}:
                bad = validate_block(
                    block_at(level, wrong_idx, [tx], [fee]), state, nonce=nonce
                )
                assert not bad.accepted and bad.code == E_SHARD_MISMATCH, (level, wrong_idx)
                assert f"maps to shard {true_idx} " in bad.detail

    def test_multi_input_only_at_root(self):
        state = ChainState()
        state.inject_genesis(b"\x01" * 32, 10**6)
        state.inject_genesis(b"\x02" * 32, 10**6)
        tx = make_tx(
            100, 100, input_ref=b"\x01" * 32, extra_input_refs=(b"\x02" * 32,), requested_level=0
        )
        ok = validate_block(block_at(0, 0, [tx], [1]), state)
        assert ok.accepted
        bad = validate_block(block_at(1, 0, [tx], [1]), state)
        assert bad.code == "E_MULTI_INPUT_SHARDED"

    def test_tampered_carried_average(self):
        state = ChainState()
        carried = CarriedValues(
            value_avg=10.0,
            subtree_sum=30.0,
            beta_level_sums=(1.0, 2.0),
            bits_level_sums=(3.0, 4.0),
            nonce=b"\x00" * 32,
        )
        tampered = CarriedValues(
            value_avg=10.5,
            subtree_sum=30.0,
            beta_level_sums=(1.0, 2.0),
            bits_level_sums=(3.0, 4.0),
            nonce=b"\x00" * 32,
        )
        block = block_at(0, 0, [], [], carried=tampered)
        result = validate_block(block, state, check_shard=False, expected_carried=carried)
        assert result.code == E_BAD_CARRIED_AVERAGE
        block_ok = block_at(0, 0, [], [], carried=carried)
        assert validate_block(block_ok, state, check_shard=False, expected_carried=carried)


class TestApplyBlock:
    def test_change_output_and_fee_books(self):
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 10_000)
        tx = make_tx(6_000, 100, input_ref=b"\xaa" * 32)
        block = block_at(0, 0, [tx], [300])
        assert validate_block(block, state, check_shard=False)
        apply_block(block, state)
        assert state.unspent[tx.id] == 6_000
        assert state.unspent[change_output_id(tx.id)] == 3_700
        assert state.fees_collected == 300
        assert state.total_unspent == 9_700
        assert state.conservation_violations == 0

    def test_exact_spend_leaves_no_change(self):
        state = ChainState()
        state.inject_genesis(b"\xaa" * 32, 1_000)
        tx = make_tx(900, 100, input_ref=b"\xaa" * 32)
        block = block_at(0, 0, [tx], [100])
        apply_block(block, state)
        assert change_output_id(tx.id) not in state.unspent
        assert state.total_unspent == 900


class TestSubBlockDigest:
    def test_digest_bytes_are_pinned(self):
        """No report holds a block digest, so the golden digests cannot see a
        change to how a block is hashed; this pins the bytes of one block
        with children, a carried header and two transactions. Level and
        shard differ, so swapping them in the header changes the digest."""
        carried = CarriedValues(
            value_avg=12.5,
            subtree_sum=40.25,
            beta_level_sums=(1.5, 2.5, 3.5),
            bits_level_sums=(800.0, 1600.0, 2400.0),
            nonce=bytes(range(32)),
        )
        txs = (
            ExtendedTransaction(id=b"\x11" * 32, value=5_000, size_bytes=250, input_ref=b"\x21" * 32),
            ExtendedTransaction(id=b"\x12" * 32, value=9_000, size_bytes=400, input_ref=b"\x22" * 32),
        )
        block = SubBlock(
            level=2,
            shard=1,
            seq=7,
            parent_ref=b"\x33" * 32,
            child_refs=(b"\x44" * 32, b"\x55" * 32),
            txs=txs,
            fees_sat=(120, 340),
            mined_at=1234.5,
            size_bits=640 + 8 * (250 + 400),
            carried=carried,
        )
        assert block.digest().hex() == "d3d53c4687190694f34e156ef8a2c221c8eda61a9f4989f3cfb7eab4872399bd"


class TestCoords:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="miner"):
            small_config(mode="tree")
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="nope")
        with pytest.raises(ValueError, match="legacy"):
            small_config(mode="hybrid", num_levels=1)
        with pytest.raises(ValueError, match="concurrent"):
            small_config(chain_target_times=(1.0, 2.0, 3.0))
        for value in (0, -1):
            with pytest.raises(ValueError, match="genesis_value_sat must be >= 1"):
                small_config(genesis_value_sat=value)
        small_config(genesis_value_sat=1)
        for value in (0, -1):
            with pytest.raises(ValueError, match="max_child_batch must be >= 1"):
                small_config(mode="concurrent", max_child_batch=value)
        small_config(mode="concurrent", max_child_batch=1)
        # only flat mode reads the broadcast policy
        for mode, extra in (("hybrid", {}), ("tree", {"miners": equal_miners(4)}), ("concurrent", {})):
            with pytest.raises(ValueError, match="broadcast only applies to flat mode"):
                small_config(mode=mode, broadcast="per-subblock", **extra)
        small_config(mode="flat", broadcast="per-subblock")
        with pytest.raises(ValueError, match="unknown broadcast policy"):
            small_config(mode="flat", broadcast="nope")
        for value in (0, -80):
            with pytest.raises(ValueError, match="header_bytes and min_cap_bytes must be >= 1"):
                small_config(header_bytes=value)
        small_config(header_bytes=1)
        for field in ("propagation_ms_per_byte", "propagation_floor_ms"):
            with pytest.raises(ValueError, match="must be >= 0"):
                small_config(**{field: -0.5})
            small_config(**{field: 0.0})
        for bounds in ((0.0, 20.0), (-1.0, 20.0), (5.0, 1.0)):
            with pytest.raises(ValueError, match="0 < lo <= hi"):
                small_config(timing_gain_bounds=bounds)
        small_config(timing_gain_bounds=(1.0, 1.0))
        for value in (-1, -0.25):
            with pytest.raises(ValueError, match="preseed_periods must be >= 0"):
                small_config(preseed_periods=value)
        small_config(preseed_periods=0)
        for value in (0, -1):
            with pytest.raises(ValueError, match="header_bytes and min_cap_bytes must be >= 1"):
                small_config(min_cap_bytes=value)
        small_config(min_cap_bytes=1)

    def test_sharded_level_cap(self):
        """Tree and concurrent configs past the shard-map cap are refused at
        construction; the cap itself and the unsharded modes stay allowed."""
        for mode, extra in (("tree", {"miners": equal_miners(4)}), ("concurrent", {})):
            small_config(mode=mode, num_levels=MAX_SHARDED_LEVELS, **extra)
            with pytest.raises(ValueError, match="num_levels must be <= 16"):
                small_config(mode=mode, num_levels=MAX_SHARDED_LEVELS + 1, **extra)
        small_config(mode="flat", num_levels=MAX_SHARDED_LEVELS + 1)

    def test_concurrent_block_bound_with_chain_times(self):
        """Two levels at chain times (2, 1) s expect 2.5 blocks per second, so
        400,000 s reach the bound exactly; anything longer is refused."""
        assert MAX_CONCURRENT_BLOCKS == 1_000_000
        times = (2.0, 1.0)
        small_config(mode="concurrent", num_levels=2, chain_target_times=times, duration=400_000.0)
        with pytest.raises(ValueError, match="expects 1,000,001 blocks .* the bound is 1,000,000"):
            small_config(mode="concurrent", num_levels=2, chain_target_times=times, duration=400_000.4)

    def test_concurrent_block_bound_with_bootstrap_cadence(self, monkeypatch):
        """Without chain times the cadence comes from the bootstrap (a 0.15 s
        deepest level here, about 26 blocks per second): 100 periods are refused
        before any block is mined, while one period starts mining."""

        def no_block(*args, **kwargs):
            raise AssertionError("a block was mined")

        monkeypatch.setattr(engine, "validate_block", no_block)
        with pytest.raises(ValueError, match="the bound is 1,000,000"):
            engine.simulate(small_config(mode="concurrent", duration=600.0 * 100))
        with pytest.raises(AssertionError, match="a block was mined"):
            engine.simulate(small_config(mode="concurrent", duration=600.0))

    def test_equal_miners(self):
        miners = equal_miners(4, total_hashrate=100.0)
        assert len(miners) == 4
        assert sum(m.hashrate for m in miners) == pytest.approx(100.0)
        assert len({m.peer_id for m in miners}) == 4
