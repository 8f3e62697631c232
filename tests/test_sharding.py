import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from hbsim.sharding import (
    GlobalNonce,
    MultiInputShardedError,
    ShardCoord,
    fold_global_nonce,
    mfn_download_rate,
    mfn_fraction,
    mfn_ratio,
    mfn_store_rate,
    optimal_levels,
    rate_to_mb_per_day,
    required_peers,
    routing_miss_probability,
    shard_index,
    shard_indices,
    shard_path,
    tree_throughput,
    tx_shard,
    tx_shard_index,
    tx_shard_indices,
)
from hbsim.simulator import MempoolEntry, take_by_fee_rate
from conftest import make_tx


def oracle_branch(identifier, level, nonce=None):
    """Independent bit-walk over the digest rendered as a bit string."""
    data = identifier if nonce is None else identifier + nonce
    digest = hashlib.sha256(data).digest()
    bit_string = "".join(f"{byte:08b}" for byte in digest)
    branch = [0]
    for i in range(level):
        branch.append(2 * branch[-1] + int(bit_string[i]))
    return tuple(branch)


def find_identifier_with_prefix(bits):
    """Search for an identifier whose digest starts with the given bit pattern."""
    for i in range(100_000):
        ident = i.to_bytes(8, "big")
        digest = hashlib.sha256(ident).digest()
        lead = f"{digest[0]:08b}"[: len(bits)]
        if lead == bits:
            return ident
    raise AssertionError("no identifier found")


class TestShardPath:
    def test_root_level(self):
        coord = shard_path(0, b"anything")
        assert coord == ShardCoord(level=0, index=0, branch=(0,))

    def test_reference_bit_walk(self):
        ident = find_identifier_with_prefix("101")
        coord = shard_path(3, ident)
        assert coord.branch == (0, 1, 2, 5)
        assert coord.index == 5

    def test_matches_oracle_on_random_ids(self, rng):
        for _ in range(200):
            ident = rng.getrandbits(128).to_bytes(16, "big")
            level = rng.randrange(0, 40)
            nonce = rng.getrandbits(256).to_bytes(32, "big") if rng.random() < 0.5 else None
            coord = shard_path(level, ident, nonce)
            assert coord.branch == oracle_branch(ident, level, nonce)

    def test_branch_prefix_property(self, rng):
        for _ in range(100):
            ident = rng.getrandbits(64).to_bytes(8, "big")
            shallow = shard_path(3, ident)
            deep = shard_path(9, ident)
            assert deep.branch[:4] == shallow.branch

    def test_level_eight_uniformity(self):
        """10^5 identifiers over 256 shards stay within the 5-sigma binomial band."""
        n = 100_000
        counts = [0] * 256
        for i in range(n):
            counts[shard_path(8, i.to_bytes(8, "big")).index] += 1
        p = 1 / 256
        sigma = math.sqrt(n * p * (1 - p))
        for c in counts:
            assert abs(c - n * p) < 5 * sigma

    def test_digest_exhaustion(self):
        with pytest.raises(ValueError, match="256"):
            shard_path(256, b"x")

    def test_nonce_sensitivity(self, rng):
        """A new global nonce re-randomizes a level-8 assignment almost always."""
        ident = b"some-peer"
        base = shard_path(8, ident, b"\x00" * 32).index
        same = sum(
            1
            for _ in range(2000)
            if shard_path(8, ident, rng.getrandbits(256).to_bytes(32, "big")).index == base
        )
        # expected 2000/256 ~ 7.8, sigma ~ 2.8
        assert same < 25


class TestTxShard:
    def test_level_zero_always_root(self):
        tx = make_tx(10, 10, input_ref=b"\x07" * 32)
        assert tx_shard(0, tx).branch == (0,)

    def test_prefix_across_levels(self):
        tx = make_tx(10, 10, input_ref=b"\x55" * 32)
        c3 = tx_shard(3, tx)
        c5 = tx_shard(5, tx)
        assert c5.branch[:4] == c3.branch

    def test_multi_input_rejected_below_root(self):
        tx = make_tx(
            10, 10, input_ref=b"\x01" * 32, extra_input_refs=(b"\x02" * 32,), requested_level=0
        )
        assert tx_shard(0, tx).index == 0
        with pytest.raises(MultiInputShardedError, match="E_MULTI_INPUT_SHARDED"):
            tx_shard(2, tx)

    def test_missing_input_ref(self):
        with pytest.raises(ValueError, match="input reference"):
            tx_shard(1, make_tx(10, 10))

    def test_engineered_shared_prefix_pair(self, rng):
        """Two inputs sharing 2 digest bits collide at level 2 and split deeper."""
        by_prefix = {}
        found = None
        for i in range(200_000):
            ref = i.to_bytes(8, "big")
            digest = hashlib.sha256(ref).digest()
            bits = f"{digest[0]:08b}"
            key = bits[:2]
            if key in by_prefix and by_prefix[key][1] != bits:
                found = (by_prefix[key][0], ref)
                break
            by_prefix.setdefault(key, (ref, bits))
        assert found is not None
        tx_a = make_tx(10, 10, input_ref=found[0])
        tx_b = make_tx(10, 10, input_ref=found[1])
        assert tx_shard(2, tx_a).index == tx_shard(2, tx_b).index
        diverge = next(
            i
            for i in range(2, 9)
            if oracle_branch(found[0], i) != oracle_branch(found[1], i)
        )
        assert tx_shard(diverge, tx_a).index != tx_shard(diverge, tx_b).index


LEVELS = st.integers(min_value=0, max_value=255)
NONCES = st.one_of(
    st.none(),
    st.binary(max_size=40),
    st.binary(min_size=32, max_size=32).map(lambda v: GlobalNonce(value=v, intermediates={})),
)
REFS = st.binary(min_size=1, max_size=40)


@st.composite
def transactions(draw):
    """Single-input, missing-input and multi-input transactions."""
    input_ref = draw(st.one_of(st.none(), REFS))
    extra = tuple(draw(st.lists(REFS, max_size=2))) if input_ref is not None else ()
    return make_tx(10, 10, input_ref=input_ref, extra_input_refs=extra)


def outcome(fn):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


class TestShardIndex:
    """``shard_index`` and its transaction forms against the bit-walk oracle."""

    @given(LEVELS, st.binary(max_size=64), NONCES)
    def test_equals_shard_path_index(self, level, identifier, nonce):
        index = shard_index(level, identifier, nonce)
        coord = shard_path(level, identifier, nonce)
        assert index == coord.index
        # the shallower shards are prefixes of the index, as the tree re-shard uses them
        assert all(index >> (level - l) == coord.branch[l] for l in range(level + 1))

    @given(LEVELS, transactions(), NONCES)
    def test_tx_form_equals_tx_shard(self, level, tx, nonce):
        assert outcome(lambda: tx_shard_index(level, tx, nonce)) == outcome(
            lambda: tx_shard(level, tx, nonce).index
        )

    @given(LEVELS, st.lists(transactions(), max_size=8), NONCES)
    def test_batch_equals_per_transaction(self, level, txs, nonce):
        def one_by_one():
            return [tx_shard_index(level, tx, nonce) for tx in txs]

        assert outcome(lambda: list(tx_shard_indices(level, txs, nonce))) == outcome(one_by_one)
        assert outcome(lambda: list(tx_shard_indices(level, iter(txs), nonce))) == outcome(one_by_one)

    def test_checks_still_raise(self):
        single = make_tx(10, 10, input_ref=b"\x01" * 32)
        multi = make_tx(
            10, 10, input_ref=b"\x01" * 32, extra_input_refs=(b"\x02" * 32,), requested_level=0
        )
        missing = make_tx(10, 10)
        assert tx_shard_index(0, multi) == list(tx_shard_indices(0, [multi]))[0] == 0
        for level in (1, 7, 255):
            with pytest.raises(MultiInputShardedError, match="E_MULTI_INPUT_SHARDED"):
                tx_shard_index(level, multi)
            with pytest.raises(MultiInputShardedError, match="E_MULTI_INPUT_SHARDED"):
                list(tx_shard_indices(level, [single, multi]))
        for level in (0, 3):
            with pytest.raises(ValueError, match="input reference"):
                tx_shard_index(level, missing)
            with pytest.raises(ValueError, match="input reference"):
                list(tx_shard_indices(level, [single, missing]))

    @given(LEVELS, st.lists(REFS, max_size=8), NONCES)
    def test_identifier_batch_equals_per_identifier(self, level, identifiers, nonce):
        assert list(shard_indices(level, identifiers, nonce)) == [
            shard_index(level, identifier, nonce) for identifier in identifiers
        ]

    def test_checks_run_as_each_transaction_is_pulled(self):
        single = make_tx(10, 10, input_ref=b"\x01" * 32)
        missing = make_tx(10, 10)
        indices = tx_shard_indices(3, [single, missing])
        assert next(indices) == tx_shard_index(3, single)
        with pytest.raises(ValueError, match="input reference"):
            next(indices)

    def test_fill_stops_before_an_unshardable_entry(self):
        """A level-2 fill whose four shards all overflow never pulls the entries after them."""
        nonce = b"n" * 32
        refs = {}
        for i in itertools.count():
            ref = i.to_bytes(32, "big")
            refs.setdefault(shard_index(2, ref, nonce), []).append(ref)
            if len(refs) == 4 and all(len(r) >= 2 for r in refs.values()):
                break
        # per shard one entry that fills the 100-byte cap and one that overflows it
        entries = [
            MempoolEntry(tx=make_tx(10, 100, input_ref=refs[shard][k]), fee_sat=1000 - k, seq=2 * shard + k)
            for shard in range(4)
            for k in range(2)
        ]
        poisoned = MempoolEntry(tx=make_tx(10, 100), fee_sat=1, seq=99)
        chosen, rest = take_by_fee_rate(entries + [poisoned], 100, 2, nonce)
        assert [[e.seq for e in c] for c in chosen] == [[0], [2], [4], [6]]
        assert sorted(e.seq for e in rest) == [1, 3, 5, 7, 99]
        # with shard 3 left unfilled the walk reaches the poisoned entry and raises
        with pytest.raises(ValueError, match="input reference"):
            take_by_fee_rate(entries[:6] + [poisoned], 100, 2, nonce)

    @pytest.mark.parametrize("level", [-1, 256])
    def test_level_bounds(self, level):
        tx = make_tx(10, 10, input_ref=b"\x01" * 32)
        with pytest.raises(ValueError, match="level must be"):
            shard_index(level, b"id")
        with pytest.raises(ValueError, match="level must be"):
            tx_shard_index(level, tx)
        with pytest.raises(ValueError, match="level must be"):
            tx_shard_indices(level, [tx])


def full_tree_randomness(rng, num_levels):
    return {
        (l, s): rng.getrandbits(256).to_bytes(32, "big")
        for l in range(num_levels)
        for s in range(2**l)
    }


class TestGlobalNonce:
    def test_single_level(self):
        local = {(0, 0): b"\xaa" * 32}
        nonce = fold_global_nonce(local, 1)
        assert nonce.value == hashlib.sha256(b"\xaa" * 32).digest()

    def test_missing_shard_rejected(self):
        with pytest.raises(ValueError, match=r"\(1,1\)"):
            fold_global_nonce({(0, 0): b"x", (1, 0): b"y"}, 2)

    def test_leaf_flip_avalanche(self, rng):
        for _ in range(100):
            levels = rng.randrange(2, 5)
            local = full_tree_randomness(rng, levels)
            base = fold_global_nonce(local, levels).value
            victim_level = rng.randrange(levels)
            victim = (victim_level, rng.randrange(2**victim_level))
            tampered = dict(local)
            tampered[victim] = bytes(b ^ 0x01 for b in local[victim])
            assert fold_global_nonce(tampered, levels).value != base

    def test_branch_plus_siblings_recompute_root(self, rng):
        """Merkle-style: one branch's locals plus sibling intermediates give the root."""
        levels = 4
        local = full_tree_randomness(rng, levels)
        nonce = fold_global_nonce(local, levels)
        leaf = rng.randrange(2**(levels - 1))
        branch = []
        s = leaf
        for l in range(levels - 1, -1, -1):
            branch.append((l, s))
            s //= 2
        current = hashlib.sha256(local[branch[0]]).digest()
        for l, s in branch[1:]:
            child = branch[branch.index((l, s)) - 1][1]
            sibling = child ^ 1
            left = current if child % 2 == 0 else nonce.intermediates[(l + 1, sibling)]
            right = nonce.intermediates[(l + 1, sibling)] if child % 2 == 0 else current
            current = hashlib.sha256(local[(l, s)] + left + right).digest()
        assert current == nonce.value


class TestMfnMath:
    def test_fraction(self):
        assert mfn_fraction(0) == 1.0
        assert 14000 * mfn_fraction(7) > 100
        assert 100 * 2**15 == pytest.approx(3.3e6, rel=0.01)

    def test_ratio_values(self):
        assert mfn_ratio(4200, 10) == pytest.approx(0.4111, abs=1e-3)
        assert mfn_ratio(4200, 10) < 1.0
        assert mfn_ratio(2**15 - 1, 15) == pytest.approx(240 / 32767, rel=1e-12)
        assert abs(mfn_ratio(2**15 - 1, 15) - 0.00732) < 1e-5

    def test_ratio_at_one_level(self):
        for n in (1, 10, 4200):
            assert mfn_ratio(n, 1) == n + 1

    def test_ratio_decomposition(self):
        for n, L in ((4200, 10), (100, 5), (8191, 13)):
            shards = 2**L - 1
            alt = (n / shards) * (L**2 / shards) + L / shards
            assert mfn_ratio(n, L) == pytest.approx(alt, rel=1e-12)

    def test_throughput(self):
        assert abs(tree_throughput(20) - 1747.6) <= 0.1
        assert tree_throughput(1) == pytest.approx(1 / 600)
        values = [tree_throughput(L) for L in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_store_rate(self):
        assert mfn_store_rate(1700, 13) == pytest.approx(1700 * 13 / 8191, rel=1e-12)
        assert mfn_store_rate(1700, 13) == pytest.approx(2.698, abs=1e-3)
        assert mfn_store_rate(123.0, 1) == pytest.approx(123.0)
        values = [mfn_store_rate(1000, L) for L in range(2, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_download_rate(self):
        mb_day = rate_to_mb_per_day(mfn_download_rate(100, 13))
        assert 270 <= mb_day <= 580
        assert mb_day == pytest.approx(310, rel=0.05)
        assert mfn_download_rate(0, 13) == 13

    def test_download_has_unique_interior_minimum(self):
        values = [mfn_download_rate(1700, L) for L in range(1, 41)]
        minima = [
            i
            for i in range(1, 39)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        assert len(minima) == 1


class TestOptimalLevels:
    def test_local_optimality(self):
        for n in (100, 1700, 50_000):
            opt = optimal_levels(n)
            best = mfn_download_rate(n, opt.levels)
            assert mfn_download_rate(n, opt.levels - 0.01) > best
            assert mfn_download_rate(n, opt.levels + 0.01) > best

    def test_sweep_endpoints(self):
        low = optimal_levels(100)
        high = optimal_levels(50_000)
        assert low.levels == pytest.approx(13, rel=0.15)
        assert high.levels == pytest.approx(24, rel=0.15)
        assert low.store_mb_day == pytest.approx(2.9, rel=0.15)
        assert high.store_mb_day == pytest.approx(1.4, rel=0.15)
        assert 270 <= low.download_mb_day <= 580
        assert 270 <= high.download_mb_day <= 580

    def test_monotone_levels_in_rate(self):
        sweep = [optimal_levels(n).levels for n in range(100, 50_001, 4900)]
        assert all(b >= a for a, b in zip(sweep, sweep[1:]))

    def test_integer_neighbour(self):
        opt = optimal_levels(1700)
        assert opt.levels_int in (math.floor(opt.levels), math.ceil(opt.levels))


class TestRouting:
    def test_no_peers_always_misses(self):
        assert routing_miss_probability(0, 5) == 1.0

    def test_root_level_never_misses(self):
        for n in (1, 10, 1000):
            assert routing_miss_probability(n, 0) == 0.0

    def test_published_peer_counts(self):
        n15 = required_peers(1e-10, 15)
        n23 = required_peers(1e-10, 23)
        assert abs(n15 - 754_500) / 754_500 < 0.005
        assert abs(n23 - 1.93e8) / 1.93e8 < 0.005

    def test_round_trip(self):
        for p, level in ((1e-10, 15), (0.1, 23), (1e-3, 8), (0.5, 1)):
            n = required_peers(p, level)
            assert routing_miss_probability(n, level) <= p
            if n > 1:
                assert routing_miss_probability(n - 1, level) > p

    def test_root_level_special_case(self):
        assert required_peers(1e-10, 0) == 1
