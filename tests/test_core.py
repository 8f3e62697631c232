import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hbsim.core import (
    HASHES_PER_DIFFICULTY_APPROX,
    HASHES_PER_DIFFICULTY_EXACT,
    ExtendedTransaction,
    NetworkParams,
    difficulty_from_hashrate,
    eta_B_estimate,
    hash_time,
    hashrate_from_difficulty,
    hashrate_from_difficulty_approx,
    tx_difficulty,
    tx_security,
    value_per_bit,
)
from conftest import make_tx

MB_BITS = 8 * 1024**2


def net(hashrate=1e20, difficulty=3e13):
    return NetworkParams(total_hashrate=hashrate, difficulty=difficulty)


class TestValuePerBit:
    def test_one_satoshi_per_bit(self):
        assert value_per_bit(make_tx(8, 1)) == 1.0

    def test_top_level_minimum(self):
        """54 BTC in 225 bytes is exactly 3e7 satoshi per bit."""
        assert value_per_bit(make_tx(54_000_000_000, 225)) == 3e7

    @given(st.integers(min_value=1, max_value=10**14), st.integers(min_value=1, max_value=10**6))
    def test_matches_exact_rational_quotient(self, value, size):
        got = value_per_bit(make_tx(value, size))
        assert got == float(Fraction(value, 8 * size))

    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            ExtendedTransaction(id=b"\x00" * 32, value=0, size_bytes=10)


class TestHashTime:
    def test_empty_message(self):
        assert hash_time(0, 1e-4) == 0.0

    def test_full_block_at_network_eta(self):
        eta = eta_B_estimate(MB_BITS)
        assert abs(eta - 7.15e-5) < 1e-7
        assert hash_time(MB_BITS, eta) == pytest.approx(600.0)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_additivity(self, b1, b2):
        eta = 3.7e-5
        assert hash_time(b1, eta) + hash_time(b2, eta) == pytest.approx(hash_time(b1 + b2, eta))


class TestTxDifficulty:
    def test_full_block_matches_difficulty(self):
        """A block-sized tx signed by everyone costs ~2^32 * difficulty hashes."""
        difficulty = 3.1e13
        n = net(hashrate=hashrate_from_difficulty(difficulty), difficulty=difficulty)
        avg_bits = MB_BITS
        tx = make_tx(10**9, avg_bits // 8, lam=1.0, eta=eta_B_estimate(avg_bits))
        delta = tx_difficulty(tx, n)
        assert delta == pytest.approx(HASHES_PER_DIFFICULTY_APPROX * difficulty, rel=1e-4)

    def test_linear_in_lambda(self):
        half = make_tx(100, 250, lam=0.5, eta=1e-5)
        full = make_tx(100, 250, lam=1.0, eta=1e-5)
        assert tx_difficulty(half, net()) == pytest.approx(tx_difficulty(full, net()) / 2)

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1e-9, max_value=10.0),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_agrees_with_hash_time_route(self, lam, eta, size):
        tx = make_tx(1000, size, lam=lam, eta=eta)
        n = net()
        via_time = lam * n.total_hashrate * hash_time(tx.size_bits, eta)
        assert tx_difficulty(tx, n) == pytest.approx(via_time, rel=1e-12)

    def test_unset_eta_rejected(self):
        with pytest.raises(ValueError, match="level"):
            tx_difficulty(make_tx(100, 250), net())

    @given(st.floats(min_value=0.05, max_value=0.5), st.floats(min_value=0.05, max_value=0.5))
    def test_additive_over_lambda_split(self, a, c):
        base = dict(value=500, size_bytes=400, eta=2e-6)
        joint = tx_difficulty(make_tx(lam=a + c, **base), net())
        parts = tx_difficulty(make_tx(lam=a, **base), net()) + tx_difficulty(
            make_tx(lam=c, **base), net()
        )
        assert joint == pytest.approx(parts, rel=1e-12)


class TestTxSecurity:
    def test_inverse_in_value(self):
        n = net()
        s1 = tx_security(make_tx(1000, 250, eta=1e-5), n)
        s2 = tx_security(make_tx(2000, 250, eta=1e-5), n)
        assert s1 == pytest.approx(2 * s2)

    def test_whole_network_form(self):
        n = net()
        eta_b = eta_B_estimate(MB_BITS)
        tx = make_tx(12345, 600, lam=1.0, eta=eta_b)
        expected = n.total_hashrate * eta_b * tx.size_bits / tx.value
        assert tx_security(tx, n) == pytest.approx(expected, rel=1e-12)

    def test_block_level_equals_mean_transaction_form(self, rng):
        """2^32 D / v(B) against the average-transaction expression, random blocks."""
        for _ in range(50):
            txs = [
                make_tx(rng.randrange(1, 10**10), rng.randrange(100, 2000))
                for _ in range(rng.randrange(2, 60))
            ]
            difficulty = rng.uniform(1e10, 1e14)
            total_bits = sum(t.size_bits for t in txs)
            total_value = sum(t.value for t in txs)
            h = hashrate_from_difficulty_approx(difficulty)
            eta_b = eta_B_estimate(total_bits)
            block_form = HASHES_PER_DIFFICULTY_APPROX * difficulty / total_value
            mean_bits = total_bits / len(txs)
            mean_value = total_value / len(txs)
            mean_tx_form = h * eta_b * mean_bits / mean_value
            assert block_form == pytest.approx(mean_tx_form, rel=1e-9)

    def test_closure_over_assembled_blocks(self, rng):
        """Sum of difficulties over sum of values is the value-weighted mean security."""
        n = net()
        for _ in range(25):
            txs = [
                make_tx(rng.randrange(1, 10**9), rng.randrange(100, 1500), eta=rng.uniform(1e-8, 1e-3))
                for _ in range(rng.randrange(2, 40))
            ]
            lhs = sum(tx_difficulty(t, n) for t in txs) / sum(t.value for t in txs)
            weighted = sum(tx_security(t, n) * t.value for t in txs) / sum(t.value for t in txs)
            assert lhs == pytest.approx(weighted, rel=1e-12)


class TestHomogeneity:
    @given(
        st.integers(min_value=1, max_value=10**8),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=2, max_value=1000),
    )
    def test_scaling_value(self, value, size, k):
        n = net()
        base = make_tx(value, size, eta=1e-6)
        scaled = make_tx(value * k, size, eta=1e-6)
        assert value_per_bit(scaled) == pytest.approx(k * value_per_bit(base), rel=1e-12)
        assert tx_security(scaled, n) == pytest.approx(tx_security(base, n) / k, rel=1e-12)
        assert tx_difficulty(scaled, n) == tx_difficulty(base, n)


class TestDifficultyHashrate:
    def test_unit_difficulty(self):
        expected = 2**48 / (65535 * 600)
        assert hashrate_from_difficulty(1.0) == pytest.approx(expected, rel=1e-15)
        assert abs(hashrate_from_difficulty(1.0) - 7.1584e6) < 200

    def test_exact_vs_approx_factor(self):
        ratio = hashrate_from_difficulty_approx(5.0) / hashrate_from_difficulty(5.0)
        assert ratio == pytest.approx(65535 / 65536, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e20))
    def test_round_trip(self, difficulty):
        back = difficulty_from_hashrate(hashrate_from_difficulty(difficulty))
        assert back == pytest.approx(difficulty, rel=1e-12)


class TestEtaEstimate:
    def test_600_bits(self):
        assert eta_B_estimate(600) == 1.0

    def test_round_trip_definition(self):
        avg = 123456.0
        assert hash_time(avg, eta_B_estimate(avg)) == pytest.approx(600.0, rel=1e-12)


class TestInvariants:
    def test_multi_input_only_level_zero(self):
        extra = (b"\x01" * 32,)
        make_tx(10, 10, input_ref=b"\x02" * 32, extra_input_refs=extra, requested_level=0)
        with pytest.raises(ValueError, match="level 0"):
            make_tx(10, 10, input_ref=b"\x02" * 32, extra_input_refs=extra, requested_level=2)

    def test_network_params_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(total_hashrate=0.0, difficulty=1.0)
        with pytest.raises(ValueError):
            NetworkParams(total_hashrate=1.0, difficulty=1.0, retarget_window=0)

    def test_exact_constant_is_not_the_approximation(self):
        assert HASHES_PER_DIFFICULTY_EXACT != HASHES_PER_DIFFICULTY_APPROX
        assert HASHES_PER_DIFFICULTY_EXACT * 65535 == 2**48
