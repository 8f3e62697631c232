import math
import random

import pytest
from hypothesis import given, strategies as st

from hbsim.core import SATOSHI_PER_BTC, NetworkParams
from hbsim.economics import (
    EnergyParams,
    LevelSchedule,
    annualized_energy_kwh,
    c_eta_from_total_value,
    check_min_level_time,
    compute_c_eta_flat,
    energy_per_block,
    energy_per_tx,
    energy_upper_bound,
    eta_levels_flat,
    eta_levels_tree,
    fee_rates,
    homotopy_lambda,
    recurrent_average,
    reward_split_flat,
    reward_split_tree,
    time_per_level,
)
import reference_tables as fx


class TestCEta:
    def test_published_six_level_calibration(self):
        c = compute_c_eta_flat(fx.table1_stats(), fx.NUM_BLOCKS)
        assert abs(c - fx.C_ETA_PUBLISHED) / fx.C_ETA_PUBLISHED < 0.01

    def test_single_uniform_level_closed_form(self):
        stats = fx.stats_from((50.0,), (1.6e9,), counts=(1000,))
        c = compute_c_eta_flat(stats, 100, target_time=600.0)
        assert c == pytest.approx(600.0 * 100 * SATOSHI_PER_BTC / (50.0 * 1.6e9))

    def test_total_value_estimator_close_to_primary(self):
        """The coarser total-value estimator lands within 15% on the sample data."""
        stats = fx.table1_stats()
        primary = compute_c_eta_flat(stats, fx.NUM_BLOCKS)
        alt = c_eta_from_total_value(int(sum(fx.L6_VALUE_SUM)), fx.NUM_BLOCKS)
        assert abs(alt - primary) / primary < 0.15

    def test_all_levels_empty_is_an_error(self):
        stats = fx.stats_from((None,), (0,), counts=(0,))
        with pytest.raises(ValueError):
            compute_c_eta_flat(stats, 10)


class TestEtaLevels:
    def test_published_six_level_vector(self):
        eta = eta_levels_flat(fx.C_ETA_PUBLISHED, fx.table1_stats())
        for got, want in zip(eta, fx.L6_ETA):
            assert abs(got - want) / want < 0.05

    def test_published_two_level_vector(self):
        stats = fx.table2_stats()
        c = compute_c_eta_flat(stats, fx.NUM_BLOCKS)
        eta = eta_levels_flat(c, stats)
        for got, want in zip(eta, fx.L2_ETA):
            assert abs(got - want) / want < 0.02

    def test_constant_beta_violates_schedule_monotonicity(self):
        stats = fx.stats_from((100.0, 100.0), (1e6, 1e6))
        eta = eta_levels_flat(0.04, stats)
        assert eta[0] == eta[1]
        with pytest.raises(ValueError, match="strictly decreasing"):
            LevelSchedule(
                boundaries=(2.0, 1.0, 0.0),
                eta=tuple(eta),
                fee_rate_per_bit=(1.0, 1.0),
                reward_share=(0.5, 0.5),
                expected_block_time=(1.0, 1.0),
            )

    def test_empty_level_carries_previous(self):
        stats = fx.stats_from((100.0, None, 1.0), (1e6, 0, 1e6), counts=(5, 0, 5))
        eta = eta_levels_flat(0.04, stats, previous=(4e-8, 3e-8, 2e-8))
        assert eta[1] == 3e-8
        with pytest.raises(ValueError, match="empty"):
            eta_levels_flat(0.04, stats)

    def test_monotone_when_beta_decreasing(self):
        rng = random.Random(5)
        for _ in range(50):
            betas = sorted((rng.uniform(1e-2, 1e9) for _ in range(5)), reverse=True)
            if len(set(betas)) < 5:
                continue
            stats = fx.stats_from(tuple(betas), (1e6,) * 5)
            eta = eta_levels_flat(rng.uniform(1e-3, 1.0), stats)
            assert all(eta[l + 1] < eta[l] for l in range(4))


class TestTimePerLevel:
    def test_published_six_level_times(self):
        bits_per_block = [b / fx.NUM_BLOCKS for b in fx.L6_BITS]
        times = time_per_level(fx.L6_ETA, bits_per_block)
        for got, want in zip(times, fx.L6_TIME):
            assert got == pytest.approx(want, rel=1e-9)

    def test_published_two_level_times(self):
        stats = fx.table2_stats()
        c = compute_c_eta_flat(stats, fx.NUM_BLOCKS)
        eta = eta_levels_flat(c, stats)
        times = time_per_level(eta, [b / fx.NUM_BLOCKS for b in fx.L2_BITS])
        for got, want in zip(times, fx.L2_TIME):
            assert abs(got - want) / want < 0.02

    def test_zero_size_level(self):
        assert time_per_level([1e-4], [0.0]) == [0.0]

    def test_calibration_closure(self):
        """eta from the calibration reproduces the target time identically."""
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(1, 7)
            betas = sorted((rng.uniform(1e-2, 1e9) for _ in range(n)), reverse=True)
            bits = [rng.uniform(1e5, 1e10) for _ in range(n)]
            blocks = rng.randrange(1, 3000)
            target = rng.uniform(1.0, 1e4)
            stats = fx.stats_from(tuple(betas), tuple(bits))
            c = compute_c_eta_flat(stats, blocks, target_time=target)
            eta = eta_levels_flat(c, stats)
            total = sum(e * b / blocks for e, b in zip(eta, bits))
            assert total == pytest.approx(target, rel=1e-9)


class TestMinLevelTime:
    def test_reference_vector_recommends_three_levels(self):
        ok, recommended = check_min_level_time(fx.L6_TIME, 15.0)
        assert not ok
        assert recommended == 3

    def test_zero_threshold_always_passes(self):
        ok, recommended = check_min_level_time(fx.L6_TIME, 0.0)
        assert ok
        assert recommended == 6

    def test_unreachable_threshold(self):
        ok, recommended = check_min_level_time(fx.L6_TIME, 1000.0)
        assert not ok
        assert recommended == 0

    def test_accepts_level_schedule(self):
        schedule = LevelSchedule(
            boundaries=tuple(float(6 - l) for l in range(7)),
            eta=fx.L6_ETA,
            fee_rate_per_bit=fx.L6_ETA,
            reward_share=tuple(t / sum(fx.L6_TIME) for t in fx.L6_TIME),
            expected_block_time=fx.L6_TIME,
        )
        assert check_min_level_time(schedule, 15.0) == check_min_level_time(fx.L6_TIME, 15.0) == (False, 3)


class TestFees:
    def test_published_fee_ratios(self):
        phi = fee_rates(fx.L6_ETA, kappa_fee=3.5)
        assert phi[0] / phi[1] == pytest.approx(159, rel=0.01)
        assert phi[0] / phi[2] == pytest.approx(5650, rel=0.01)

    def test_kappa_one_is_identity(self):
        assert fee_rates(fx.L6_ETA, 1.0) == list(fx.L6_ETA)

    def test_ratios_invariant_under_kappa(self):
        a = fee_rates(fx.L6_ETA, 0.7)
        b = fee_rates(fx.L6_ETA, 70.0)
        for i in range(1, len(a)):
            assert a[0] / a[i] == pytest.approx(b[0] / b[i], rel=1e-12)

    def test_tree_fee_ratios_match_flat(self):
        """Per-shard hashrate 1/2^l cancels the 2^l in the tree time investment."""
        stats = fx.table1_stats()
        flat = eta_levels_flat(fx.C_ETA_PUBLISHED, stats)
        tree = eta_levels_tree(fx.C_ETA_PUBLISHED, stats)
        tree_fee = [e / 2**l for l, e in enumerate(fee_rates(tree, 2.0))]
        flat_fee = fee_rates(flat, 2.0)
        for i in range(1, len(flat_fee)):
            assert tree_fee[0] / tree_fee[i] == pytest.approx(
                flat_fee[0] / flat_fee[i], rel=1e-12
            )


class TestRewards:
    def test_published_top_level_share(self):
        split = reward_split_flat(fx.L6_TIME, fx.BLOCK_REWARD_BTC)
        assert split[0] / SATOSHI_PER_BTC == pytest.approx(4.466, abs=2e-3)

    def test_single_level_takes_everything(self):
        assert reward_split_flat([42.0], 6.25) == [625_000_000]

    def test_exact_conservation(self):
        rng = random.Random(3)
        for _ in range(200):
            times = [rng.uniform(0, 500) for _ in range(rng.randrange(1, 9))]
            if sum(times) == 0:
                continue
            reward = rng.uniform(0.001, 50)
            split = reward_split_flat(times, reward)
            assert sum(split) == round(reward * SATOSHI_PER_BTC)
            assert all(s >= 0 for s in split)

    def test_all_zero_times_rejected(self):
        with pytest.raises(ValueError):
            reward_split_flat([0.0, 0.0], 6.25)

    def test_tree_single_level_reduces_to_flat(self):
        flat = reward_split_flat([600.0], 6.25)
        tree = reward_split_tree([600.0], 1, 6.25)
        assert tree == [flat]

    def test_tree_shard_reward_is_level_share_over_shards(self):
        tree = reward_split_tree(fx.L6_TIME, 6, fx.BLOCK_REWARD_BTC)
        flat = reward_split_flat(fx.L6_TIME, fx.BLOCK_REWARD_BTC)
        assert len(tree[2]) == 4
        for shard_reward in tree[2]:
            assert abs(shard_reward - flat[2] / 4) <= 1

    def test_tree_conservation(self):
        tree = reward_split_tree(fx.L6_TIME, 6, fx.BLOCK_REWARD_BTC)
        total = sum(sum(level) for level in tree)
        assert total == round(fx.BLOCK_REWARD_BTC * SATOSHI_PER_BTC)


class TestTreeEta:
    def test_level_two_doubles_twice(self):
        stats = fx.stats_from((2.3e-5 * 1e8 / 0.036,) * 3, (1e6,) * 3)
        # force identical beta means so only the 2^l factor differs, then check level 2
        tree = eta_levels_tree(0.036, stats)
        assert tree[2] == pytest.approx(4 * tree[0], rel=1e-12)
        assert tree[2] == pytest.approx(9.2e-5, rel=1e-9)

    def test_root_level_equals_flat(self):
        stats = fx.table1_stats()
        assert eta_levels_tree(fx.C_ETA_PUBLISHED, stats)[0] == eta_levels_flat(
            fx.C_ETA_PUBLISHED, stats
        )[0]

    def test_per_shard_time_equals_flat_level_time(self):
        """Shards are 2^l-times smaller, cancelling the 2^l-times larger eta."""
        stats = fx.table1_stats()
        flat_eta = eta_levels_flat(fx.C_ETA_PUBLISHED, stats)
        tree_eta = eta_levels_tree(fx.C_ETA_PUBLISHED, stats)
        level_bits = [b / fx.NUM_BLOCKS for b in fx.L6_BITS]
        flat_times = time_per_level(flat_eta, level_bits)
        shard_bits = [b / 2**l for l, b in enumerate(level_bits)]
        tree_times = time_per_level(tree_eta, shard_bits)
        for a, b in zip(flat_times, tree_times):
            assert a == pytest.approx(b, rel=1e-12)

    def test_security_equalization_flat_and_tree(self):
        """h_l * eta_l / beta_l is one constant across levels in both layouts."""
        stats = fx.table1_stats()
        h_total = 2e20
        flat_eta = eta_levels_flat(fx.C_ETA_PUBLISHED, stats)
        tree_eta = eta_levels_tree(fx.C_ETA_PUBLISHED, stats)
        flat_consts = [h_total * e / b for e, b in zip(flat_eta, fx.L6_BETA_MEAN)]
        tree_consts = [
            (h_total / 2**l) * e / b for l, (e, b) in enumerate(zip(tree_eta, fx.L6_BETA_MEAN))
        ]
        for consts in (flat_consts, tree_consts):
            for c in consts[1:]:
                assert c == pytest.approx(consts[0], rel=1e-12)


class TestRecurrentAverage:
    def test_first_sample_wipes_any_init(self):
        assert recurrent_average(1e300, 0, 7.5) == 7.5
        assert recurrent_average(-42.0, 0, 7.5) == 7.5

    def test_constant_sequence(self):
        v = 0.0
        for i in range(100):
            v = recurrent_average(v, i, 3.25)
        assert v == pytest.approx(3.25, rel=1e-12)

    def test_matches_batch_mean(self, rng):
        samples = [rng.uniform(-1e6, 1e6) for _ in range(2016)]
        v = 0.0
        for i, x in enumerate(samples):
            v = recurrent_average(v, i, x)
        batch = sum(samples) / len(samples)
        assert abs(v - batch) / max(1.0, abs(batch)) < 1e-10


class TestHomotopy:
    def test_published_fraction(self):
        lam = homotopy_lambda(1.92, 600.0)
        assert lam == pytest.approx(0.0032, rel=0.05)

    def test_zero_time_floors_at_header_propagation(self):
        assert homotopy_lambda(0.0, 600.0) == pytest.approx(0.08 / 600.0)

    def test_full_transition(self):
        assert homotopy_lambda(600.0, 600.0) == 1.0

    def test_rejects_time_beyond_target(self):
        with pytest.raises(ValueError):
            homotopy_lambda(601.0, 600.0)


class TestEnergy:
    def ep(self):
        return EnergyParams(
            efficiency_j_per_th=30.0,
            electricity_usd_per_kwh=0.1,
            btcusd=40_000.0,
            fee_usd_per_bit=0.001875,
            block_reward_btc=6.25,
        )

    def net(self):
        return NetworkParams(total_hashrate=1.2e8 * 1e12, difficulty=3e13)

    def test_legacy_transaction_cost(self):
        _, usd = energy_per_tx(self.ep(), self.net(), 250)
        assert abs(usd - 14.30) < 0.05

    def test_full_block_cost(self):
        _, usd = energy_per_block(self.ep(), self.net())
        assert usd == pytest.approx(60_000.0, rel=0.01)

    def test_zero_size(self):
        assert energy_per_tx(self.ep(), self.net(), 0) == (0.0, 0.0)

    def test_rational_miner_bound(self):
        bound = energy_upper_bound(self.ep())
        assert bound == pytest.approx(2.66e6, rel=0.01)
        assert annualized_energy_kwh(bound) == pytest.approx(140e9, rel=0.02)

    def test_bound_zero_revenue(self):
        ep = EnergyParams(30.0, 0.1, 40_000.0, 0.0, 0.0)
        assert energy_upper_bound(ep) == 0.0

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_linearity_in_size(self, k):
        base_kwh, _ = energy_per_tx(self.ep(), self.net(), 1000)
        scaled_kwh, _ = energy_per_tx(self.ep(), self.net(), int(1000 * k))
        assert scaled_kwh == pytest.approx(base_kwh * int(1000 * k) / 1000, rel=1e-12)
