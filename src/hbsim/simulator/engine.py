"""Seeded, single-threaded event engine for the four chain modes.

Mining is modeled as exponential waiting times whose means come from the
schedule's time investments; everything stochastic draws from one Random
instance in a fixed order, so a seed pins the whole run. Value conservation
is re-checked after every state transition with integer arithmetic.

The retarget feedback has two parts: the calibration estimator computed from
window data exactly as the analysis functions do, and a multiplicative timing
gain (clamped, difficulty-style) that absorbs overheads the estimator cannot
see, such as propagation delay.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import statistics
from array import array
from dataclasses import replace

import numpy as np

from ..core import SATOSHI_PER_BTC, ExtendedTransaction
from ..dataio import draw_value_size
from ..economics import (
    LevelSchedule,
    _largest_remainder,
    compute_c_eta_flat,
    eta_levels_flat,
    homotopy_lambda,
    recurrent_average,
    reward_split_flat,
    reward_split_tree,
    time_per_level,
)
from ..segmentation import LevelStats, LevelSummary, level_stats, segment
from ..sharding import (
    mfn_download_rate,
    mfn_store_rate,
    nonce_step,
    rate_to_mb_per_day,
    shard_indices,
    tx_shard_index,
    tx_shard_indices,
)
from .chainstate import (
    ChainState,
    CarriedValues,
    SubBlock,
    apply_block,
    reward_output_id,
    validate_block,
)
from .config import (
    BROADCAST_HYBRID_BATCH,
    BROADCAST_PER_SUBBLOCK,
    BROADCAST_WHOLE_MULTIBLOCK,
    MODE_CONCURRENT,
    MODE_FLAT,
    MODE_HYBRID,
    MODE_TREE,
    SimConfig,
    check_concurrent_blocks,
)
from .report import EpochTrace, SimReport


def sample_mining_time(
    rng: random.Random, eta: float, block_bits: int, hashrate_scale: float = 1.0
) -> float:
    """Exponential mining time with mean eta * block_bits / hashrate_scale.

    ``hashrate_scale`` is the ratio of the hashrate actually working on the
    block to the nominal share the schedule assumes; half the nominal power
    doubles the expected time.
    """
    if eta <= 0.0 or block_bits <= 0:
        raise ValueError("eta and block_bits must be positive")
    if hashrate_scale <= 0.0:
        raise ValueError("hashrate_scale must be positive")
    mean = eta * block_bits / hashrate_scale
    return rng.expovariate(1.0 / mean)


def propagation_delay(size_bytes: int, config: SimConfig) -> float:
    """Seconds to propagate a payload; floored at the empty-header time."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative")
    ms = max(size_bytes * config.propagation_ms_per_byte, config.propagation_floor_ms)
    return ms / 1000.0


class ArrivalTx:
    """A pending transaction with its fee: the one record from arrival to block.

    Pools, fills and ``SubBlock.txs`` hold it. ``arrival`` is the arrival
    time (the preseeded backlog's is the first arrival's); concurrent mode
    measures latencies from it. ``neg_rate`` is the fee per bit negated:
    pools order by ``(neg_rate, seq)``, fee per bit descending, ties by seq.

    It has the attributes of :class:`~hbsim.core.ExtendedTransaction` that
    the engine, ``validate_block``, ``apply_block``, the shard helpers and
    ``SubBlock.digest`` read, but it runs none of that type's checks: they
    hold by construction. The value is floored at 1 satoshi (in
    ``draw_value_size`` and in the arrival stream's copy of it),
    ``WorkloadSpec`` admits no size below 1 byte, every arrival spends the
    one input ``ChainState.pick_at_least`` found, and ``lam`` is 1 and
    ``eta`` unset. ``validate_block`` still checks every block these records
    enter: missing, spent or re-spent inputs, overdrafts, multi-input spends
    below the root, and (in sharded modes) the shard of each input.
    """

    __slots__ = ("id", "value", "size_bytes", "input_ref", "requested_level", "fee_sat", "seq", "arrival", "neg_rate")

    lam = 1.0
    eta = None
    extra_input_refs = ()

    def __init__(self, id: bytes, value: int, size_bytes: int, input_ref: bytes, fee_sat: int, seq: int,
                 arrival: float | None = None, requested_level: int | None = None) -> None:
        self.id = id
        self.value = value
        self.size_bytes = size_bytes
        self.input_ref = input_ref
        self.requested_level = requested_level
        self.fee_sat = fee_sat
        self.seq = seq
        self.arrival = arrival
        self.neg_rate = -fee_sat / (8 * size_bytes)

    @property
    def size_bits(self) -> int:
        return 8 * self.size_bytes

    @property
    def n_inputs(self) -> int:
        return 1 if self.input_ref is not None else 0


_pool_order = operator.attrgetter("neg_rate", "seq")


def take_by_fee_rate(
    entries: list[ArrivalTx], cap_bytes: int, level: int = 0, nonce: bytes | None = None
) -> tuple[list[list[ArrivalTx]], list[ArrivalTx]]:
    """Greedy fill of each shard of ``level``: fee per bit descending until its next entry would overflow.

    Sorts ``entries`` in place; ties in fee per bit break by ``seq``, on any
    input order. Returns ``(chosen, rest)``, ``chosen`` holding one list per
    shard. All shards fill in one walk that hashes each entry's shard under
    ``nonce`` only on reaching it. A shard stops at its own first overflow;
    once all have stopped, the entries not yet walked join ``rest`` unhashed.
    ``rest`` keeps the sorted order: the entries walked and not chosen, then
    those not walked. Level 0 is one shard and hashes nothing: its fill is a
    prefix of the sorted pool.
    """
    entries.sort(key=_pool_order)
    walk = iter(entries)
    shards = tx_shard_indices(level, entries, nonce) if level else itertools.repeat(0)
    chosen: list[list[ArrivalTx]] = [[] for _ in range(2**level)]
    room: list[int | None] = [cap_bytes] * len(chosen)  # None once the shard has stopped
    filling = len(chosen)
    rest: list[ArrivalTx] = []
    for entry, shard in zip(walk, shards):
        left = room[shard]
        if left is not None:
            size = entry.size_bytes
            if size <= left:
                chosen[shard].append(entry)
                room[shard] = left - size
                continue
            room[shard] = None
            filling -= 1
            if not filling:
                rest.append(entry)
                rest += walk
                break
        rest.append(entry)
    return chosen, rest


class _LevelWindow:
    """Per-level accumulators over one retarget window: what the retarget reads."""

    def __init__(self) -> None:
        self.tx_count = 0
        self.beta_sum = 0.0
        self.block_bits = 0
        self.block_count = 0

    def summary(self) -> LevelSummary:
        """The window as a level summary with only ``count``, ``beta_mean`` and ``bits_total`` set."""
        beta_mean = self.beta_sum / self.tx_count if self.tx_count else None
        return LevelSummary(self.tx_count, None, None, beta_mean, None, None, None, 0, None, self.block_bits)


class _Run:
    """State shared by every mode: registry, mempool, schedule, retargeting."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.state = ChainState()
        self.t = 0.0
        self.seq = 0
        self.mempool: list[list[ArrivalTx]] = [[] for _ in range(config.num_levels)]
        self.txs_generated = 0
        self.txs_confirmed = 0
        self.txs_skipped = 0
        self.blocks_accepted = 0
        self.blocks_rejected: dict[str, int] = {}
        self.monotonicity_repairs = 0
        self.gain = 1.0
        self.report = SimReport(
            mode=config.mode,
            seed=config.seed,
            num_levels=config.num_levels,
            config=config.to_dict(),
        )
        self.txs_evicted = 0
        self._inject_genesis()
        self._bootstrap_schedule()
        self._next_arrival = self.rng.expovariate(config.workload.rate)
        self._reset_window()
        self.level_dt_sums = [0.0] * config.num_levels
        self.level_dt_counts = [0] * config.num_levels
        # start inside the cap-bound regime: the backlog exists from t=0
        self._arrivals = self._arrival_stream(
            round(config.workload.rate * config.target_time * config.preseed_periods)
        )
        next(self._arrivals)

    # -- setup --------------------------------------------------------------

    def _random_id(self) -> bytes:
        return self.rng.getrandbits(256).to_bytes(32, "big")

    def _inject_genesis(self) -> None:
        for _ in range(self.cfg.genesis_outputs):
            self.state.inject_genesis(self._random_id(), self.cfg.genesis_value_sat)

    def _bootstrap_schedule(self) -> None:
        cfg = self.cfg
        sample = []
        for _ in range(cfg.bootstrap_txs):
            value, size = draw_value_size(cfg.workload, self.rng)
            sample.append(ExtendedTransaction(id=self._random_id(), value=value, size_bytes=size))
        seg = segment(cfg.num_levels, sample)
        stats = level_stats(seg)
        for l, row in enumerate(stats):
            if row.count == 0:
                raise ValueError(
                    f"bootstrap workload leaves level {l} empty; widen the beta spread or "
                    f"use fewer levels"
                )
        sample_duration = cfg.bootstrap_txs / cfg.workload.rate
        num_blocks = max(1, round(sample_duration / cfg.target_time))
        # Size caps sized below expected demand keep the caps binding, which
        # pins block sizes and with them the block-time feedback loop.
        if cfg.cap_fill_ratio is None:
            self.caps = [cfg.max_subblock_bytes] * cfg.num_levels
        else:
            self.caps = [
                min(
                    cfg.max_subblock_bytes,
                    max(cfg.min_cap_bytes, math.ceil(row.bits_total / 8 / num_blocks / cfg.cap_fill_ratio)),
                )
                for row in stats
            ]
        capped_bits = [
            min(row.bits_total / num_blocks, 8 * self.caps[l]) for l, row in enumerate(stats)
        ]
        capped_stats = LevelStats(
            tuple(
                replace(row, bits_total=int(round(capped_bits[l] * num_blocks)))
                for l, row in enumerate(stats)
            )
        )
        c_eta = compute_c_eta_flat(capped_stats, num_blocks, cfg.target_time)
        eta = eta_levels_flat(c_eta, capped_stats)
        avg_bits = [bits + cfg.header_bits for bits in capped_bits]
        mean_size = max(
            1, round(sum(r.size_mean_bytes * r.count for r in stats) / sum(r.count for r in stats))
        )
        self.pool_limits = [
            max(32, math.ceil(cfg.mempool_depth_blocks * cap / mean_size)) for cap in self.caps
        ]
        self.boundaries = seg.boundaries
        self.kappa = (
            cfg.kappa_fee
            if cfg.kappa_fee is not None
            else cfg.fee_reference_sat_per_bit / eta[0]
        )
        self._install_schedule(c_eta, eta, avg_bits, realized_mean=None, beta_means=list(stats.beta_means))

    def _install_schedule(self, c_eta, eta_formula, avg_bits, realized_mean, beta_means, lam=None):
        applied = [e * self.gain for e in eta_formula]
        for l in range(1, len(applied)):
            if applied[l] >= applied[l - 1]:
                applied[l] = math.nextafter(applied[l - 1], 0.0)
                self.monotonicity_repairs += 1
        self.eta_formula = list(eta_formula)
        self.eta_applied = applied
        self.avg_bits = list(avg_bits)
        self.expected_times = time_per_level(applied, avg_bits)
        self.fee_rates_sat = [self.kappa * e for e in self.eta_formula]
        self.c_eta = c_eta
        # the immutable snapshot governing the next window; construction
        # re-checks the schedule invariants
        self.schedule = LevelSchedule(
            boundaries=tuple(self.boundaries),
            eta=tuple(applied),
            fee_rate_per_bit=tuple(self.fee_rates_sat),
            reward_share=tuple(
                share / 10**12 for share in _largest_remainder(self.expected_times, 10**12)
            ),
            expected_block_time=tuple(self.expected_times),
        )
        security = [
            (eta_formula[l] / beta_means[l]) if beta_means[l] else None
            for l in range(len(eta_formula))
        ]
        trace = EpochTrace(
            index=len(self.report.epochs),
            c_eta=c_eta,
            eta=list(eta_formula),
            eta_applied=list(applied),
            t_hat=time_per_level(eta_formula, avg_bits),
            avg_block_bits=list(avg_bits),
            beta_means=list(beta_means),
            gain=self.gain,
            realized_mean_time=realized_mean if realized_mean is not None else -1.0,
            security_consts=security,
            lam=lam,
        )
        self.report.epochs.append(trace)
        self.reward_split = self._reward_split()

    def _reward_split(self) -> list | None:
        """The block reward's split under the schedule just installed; None
        where the mode does not mint it per period."""
        return None

    # -- arrivals -------------------------------------------------------------

    def _arrival_stream(self, preseed: int):
        """Draw arrivals into the level pools, a gap at a time.

        The first ``next`` draws the preseeded backlog: ``preseed`` arrivals
        by count, with no interarrival draws, each stamped with the first
        arrival time. Each ``send(until)`` then draws every arrival due
        before ``until``, each entry stamped with its arrival time.

        One arrival draws, in this order: its lg beta and size, whether its
        level is overridden and to which level, its fee overpay, its input
        (``ChainState.pick_at_least``, which reserves it) and, if an input
        funds it, its 256-bit id; then the time to the next arrival. An
        arrival no input funds is counted as skipped. The lg beta, size and
        value are ``dataio.draw_value_size`` written out, word for word: the
        normal is ``rng.gauss``'s pair of normals from two words, the second
        kept for the next arrival. ``tests/test_arrival_stream.py`` checks
        it against ``tests/reference_arrivals.py``, which calls the function.
        What does not change during a run is bound here once; the fee rates
        are read on every send, since a retarget replaces them.
        ``_next_arrival``, ``seq``, ``txs_generated``, ``txs_skipped`` and
        the kept normal (``rng.gauss_next``) are written back once per send.
        """
        cfg = self.cfg
        spec = cfg.workload
        rng = self.rng
        random_, getrandbits, randrange = rng.random, rng.getrandbits, rng.randrange
        lognormvariate, pick = rng.lognormvariate, self.state.pick_at_least
        mu, sigma = spec.lg_beta_mu, spec.lg_beta_sigma
        size_mode, size_params = spec.size_mode, spec.size_params
        fixed_size = int(size_params[0]) if size_mode == "fixed" else None
        pools = self.mempool
        boundaries = self.boundaries
        num_levels = cfg.num_levels
        deepest = num_levels - 1
        override = spec.level_override_fraction
        rate = spec.rate
        overpay_span = cfg.fee_overpay_max - 1.0
        log, log10, ceil = math.log, math.log10, math.ceil
        sqrt, cos, sin, tau = math.sqrt, math.cos, math.sin, math.tau
        forever = itertools.repeat(None)
        counts, timed, until = range(preseed), False, math.inf
        while True:
            fee_rates = self.fee_rates_sat
            t = self._next_arrival
            seq = self.seq
            generated = skipped = 0
            z_next = rng.gauss_next
            for _ in counts:
                if t >= until:
                    break
                # rng.gauss(mu, sigma), written out
                z = z_next
                if z is None:
                    x2pi = random_() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random_()))
                    z = cos(x2pi) * g2rad
                    z_next = sin(x2pi) * g2rad
                else:
                    z_next = None
                if fixed_size is not None:
                    size = fixed_size
                elif size_mode == "lognormal":
                    size = max(1, round(lognormvariate(*size_params)))
                else:
                    size = int(size_params[randrange(len(size_params))])
                value = max(1, round(10.0 ** (mu + z * sigma) * 8 * size))
                overridden = override > 0.0 and random_() < override
                if overridden:
                    level = randrange(num_levels)
                else:
                    lg_beta = log10(value / (8 * size))
                    level = 0
                    while level < deepest and lg_beta < boundaries[level + 1]:
                        level += 1
                # rng.uniform(1.0, cfg.fee_overpay_max), written out
                fee = ceil(fee_rates[level] * 8 * size * (1.0 + overpay_span * random_()))
                generated += 1
                input_ref = pick(value + fee, rng)
                if input_ref is None:
                    skipped += 1
                else:
                    seq += 1
                    pools[level].append(ArrivalTx(getrandbits(256).to_bytes(32, "big"), value, size, input_ref,
                                                  fee, seq, t, level if overridden else None))
                if timed:
                    # rng.expovariate(rate), written out
                    t += -log(1.0 - random_()) / rate
            rng.gauss_next = z_next
            self._next_arrival = t
            self.seq = seq
            self.txs_generated += generated
            self.txs_skipped += skipped
            until = yield
            counts, timed = forever, True

    def _drain_arrivals(self, until: float) -> None:
        """Draw every arrival due before ``until`` into the level pools."""
        self._arrivals.send(until)

    def _evict(self, pool: list[ArrivalTx], limit: int) -> None:
        """Evict the lowest fee rates beyond ``limit`` entries, in place, and release their inputs.

        ``pool`` must be in pool order, as the ``rest`` of ``take_by_fee_rate``
        is: every caller hands that over, so it is cut without a sort.
        """
        if len(pool) <= limit:
            return
        self.state.release([tx.input_ref for tx in pool[limit:]])
        self.txs_evicted += len(pool) - limit
        del pool[limit:]

    # -- block helpers ----------------------------------------------------------

    def _block(self, level: int, shard: int, seq: int, parent_ref: bytes, chosen: list[ArrivalTx],
               mined_at: float, bits: int, child_refs: tuple[bytes, ...] = ()) -> SubBlock:
        fees = tuple([tx.fee_sat for tx in chosen])
        return SubBlock(level, shard, seq, parent_ref, child_refs, tuple(chosen), fees, mined_at, bits)

    def _mine_level(self, level: int, parent_ref: bytes, seq: int) -> SubBlock:
        """Fill one flat level by fee rate under its cap, mine it from now and accept it."""
        [chosen], self.mempool[level] = take_by_fee_rate(self.mempool[level], self.caps[level])
        self._evict(self.mempool[level], self.pool_limits[level])
        bits = self.cfg.header_bits + 8 * sum(tx.size_bytes for tx in chosen)
        dt = sample_mining_time(self.rng, self.eta_applied[level], bits)
        self.t += dt
        block = self._block(level, 0, seq, parent_ref, chosen, self.t, bits)
        self._accept(block, dt)
        return block

    def _mine_levels(self, levels, parent_ref: bytes, seq: int, policy: str) -> bytes:
        """Mine ``levels`` in order, each block linked to the one before it.

        ``policy`` says when arrivals are drawn (once before the batch for a
        whole multi-block, else before every block) and what is broadcast
        (every sub-block, or the whole batch after its last block). Returns
        the digest of the last block.
        """
        batch_bytes = 0
        for i, level in enumerate(levels):
            if i == 0 or policy != BROADCAST_WHOLE_MULTIBLOCK:
                self._drain_arrivals(self.t)
            block = self._mine_level(level, parent_ref, seq)
            batch_bytes += block.size_bits // 8
            if policy == BROADCAST_PER_SUBBLOCK:
                self.t += propagation_delay(block.size_bits // 8, self.cfg)
            parent_ref = block.digest()
        if policy != BROADCAST_PER_SUBBLOCK:
            self.t += propagation_delay(batch_bytes, self.cfg)
        return parent_ref

    def _accept(self, block: SubBlock, dt: float, nonce=None, check_shard=False) -> None:
        result = validate_block(block, self.state, nonce=nonce, check_shard=check_shard)
        if not result:
            self.blocks_rejected[result.code] = self.blocks_rejected.get(result.code, 0) + 1
            raise AssertionError(f"engine produced an invalid block: {result.detail}")
        apply_block(block, self.state)
        self.blocks_accepted += 1
        level = block.level
        window = self.windows[level]
        for tx in block.txs:
            window.beta_sum += tx.value / (8 * tx.size_bytes)
        window.tx_count += len(block.txs)
        self.txs_confirmed += len(block.txs)
        window.block_bits += block.size_bits
        window.block_count += 1
        self.level_dt_sums[level] += dt
        self.level_dt_counts[level] += 1

    def _window_stats(self) -> tuple[LevelStats, list[float], list[float | None]]:
        rows = tuple(w.summary() for w in self.windows)
        stats = LevelStats(rows)
        avg_bits = []
        beta_means = []
        for l, w in enumerate(self.windows):
            if w.block_count > 0:
                avg_bits.append(w.block_bits / w.block_count)
            else:
                avg_bits.append(self.avg_bits[l])
            beta_means.append(rows[l].beta_mean)
        return stats, avg_bits, beta_means

    def _update_gain(self, realized_mean: float) -> None:
        # Square-root damping keeps exponential window noise from being
        # amplified; the step is clamped x4 either way like a difficulty
        # retarget.
        step = math.sqrt(min(4.0, max(0.25, self.cfg.target_time / realized_mean)))
        lo, hi = self.cfg.timing_gain_bounds
        self.gain = min(hi, max(lo, self.gain * step))

    def _reset_window(self) -> None:
        self.windows = [_LevelWindow() for _ in range(self.cfg.num_levels)]
        self.window_period_times: list[float] = []

    def _end_period(self, t0: float) -> None:
        self.report.superblock_times.append(self.t - t0)
        self.window_period_times.append(self.t - t0)

    def _retarget_flat(self, lam=None) -> None:
        cfg = self.cfg
        stats, avg_bits, beta_means = self._window_stats()
        realized = statistics.fmean(self.window_period_times)
        c_eta = compute_c_eta_flat(stats, cfg.retarget_window, cfg.target_time)
        eta = eta_levels_flat(c_eta, stats, previous=self.eta_formula)
        self._update_gain(realized)
        self._install_schedule(c_eta, eta, avg_bits, realized, beta_means, lam=lam)
        self._reset_window()

    def _mint_level_rewards(self, tag: str) -> None:
        for level, amount in enumerate(self.reward_split):
            self.state.mint(reward_output_id(f"{tag}/{level}"), amount)

    # -- finish -------------------------------------------------------------

    def _finalize(self) -> SimReport:
        # the stream's frame holds the run: closing it frees the run with its caller
        self._arrivals.close()
        report = self.report
        report.sim_end_time = self.t
        report.txs_generated = self.txs_generated
        report.txs_confirmed = self.txs_confirmed
        report.txs_skipped = self.txs_skipped
        report.txs_evicted = self.txs_evicted
        report.blocks_accepted = self.blocks_accepted
        report.blocks_rejected = dict(sorted(self.blocks_rejected.items()))
        report.genesis_sat = self.state.genesis_injected
        report.minted_sat = self.state.minted
        report.fees_sat = self.state.fees_collected
        report.unspent_sat = self.state.total_unspent
        report.conservation_checks = self.state.conservation_checks
        report.conservation_violations = self.state.conservation_violations
        report.throughput_tps = self.txs_confirmed / self.t if self.t > 0 else 0.0
        report.monotonicity_repairs = self.monotonicity_repairs
        report.level_time_means = [
            (self.level_dt_sums[l] / self.level_dt_counts[l]) if self.level_dt_counts[l] else 0.0
            for l in range(self.cfg.num_levels)
        ]
        report.level_block_counts = list(self.level_dt_counts)
        report.schedule_final = {
            "boundaries": list(self.boundaries),
            "eta": list(self.eta_formula),
            "eta_applied": list(self.eta_applied),
            "fee_rate_sat_per_bit": list(self.fee_rates_sat),
            "expected_block_time": list(self.expected_times),
            "c_eta": self.c_eta,
            "gain": self.gain,
        }
        settled = self.report.superblock_times[5 * self.cfg.retarget_window :]
        if settled:
            report.cadence_rel_error = abs(statistics.fmean(settled) - self.cfg.target_time) / self.cfg.target_time
        if report.throughput_tps > 0:
            store = mfn_store_rate(report.throughput_tps, self.cfg.num_levels)
            download = mfn_download_rate(report.throughput_tps, self.cfg.num_levels)
            report.mfn = {
                "store_tps": store,
                "download_tps": download,
                "store_mb_day": rate_to_mb_per_day(store),
                "download_mb_day": rate_to_mb_per_day(download),
            }
        if self.txs_confirmed > 0:
            block_kwh = (
                self.cfg.energy_efficiency_j_per_th
                * self.cfg.reference_hashrate_ths
                * self.cfg.target_time
                / 3.6e6
            )
            kwh_per_tx = block_kwh * len(self.report.superblock_times) / self.txs_confirmed
            report.energy = {
                "reference_hashrate_ths": self.cfg.reference_hashrate_ths,
                "kwh_per_period": block_kwh,
                "kwh_per_confirmed_tx": kwh_per_tx,
                "usd_per_confirmed_tx": kwh_per_tx * self.cfg.energy_price_usd_per_kwh,
            }
        return report


# ---------------------------------------------------------------------------
# flat and hybrid modes
# ---------------------------------------------------------------------------


class _FlatRun(_Run):
    def _reward_split(self) -> list[int]:
        return reward_split_flat(self.expected_times, self.cfg.block_reward_btc)

    def run(self) -> SimReport:
        cfg = self.cfg
        top_ref = b"\x00" * 32
        period = 0
        policy = cfg.broadcast or BROADCAST_WHOLE_MULTIBLOCK
        while self.t < cfg.duration:
            t0 = self.t
            top_ref = self._mine_levels(range(cfg.num_levels - 1, -1, -1), top_ref, period, policy)
            self._mint_level_rewards(f"flat/{period}")
            self._end_period(t0)
            period += 1
            if period % cfg.retarget_window == 0:
                self._retarget_flat()
        return self._finalize()


class _HybridRun(_Run):
    """Legacy blocks alternate with multi-blocks; the blend weight is the
    windowed average multi-block time over the target period."""

    def run(self) -> SimReport:
        cfg = self.cfg
        lam = homotopy_lambda(
            min(sum(self.expected_times[1:]), cfg.target_time),
            cfg.target_time,
            cfg.propagation_floor_ms / 1000.0,
        )
        lam_trace = [lam]
        multi_times: list[float] = []
        multi_window_means: list[float] = []
        legacy_reward_sat = 0
        multi_reward_sat = 0
        top_ref = b"\x00" * 32
        period = 0
        while self.t < cfg.duration:
            t0 = self.t
            # legacy block: the level-0 sub-block, broadcast on its own
            legacy_ref = self._mine_levels([0], top_ref, period, BROADCAST_PER_SUBBLOCK)
            # multi-block: the remaining levels, mined in sequence, broadcast together
            hold = self.t
            top_ref = self._mine_levels(
                range(cfg.num_levels - 1, 0, -1), legacy_ref, period, BROADCAST_HYBRID_BATCH
            )
            multi_times.append(self.t - hold)
            # split the reward between the two block kinds at the current weight
            total_sat = round(cfg.block_reward_btc * SATOSHI_PER_BTC)
            multi_sat = round(total_sat * lam)
            self.state.mint(reward_output_id(f"hybrid/{period}/legacy"), total_sat - multi_sat)
            self.state.mint(reward_output_id(f"hybrid/{period}/multi"), multi_sat)
            legacy_reward_sat += total_sat - multi_sat
            multi_reward_sat += multi_sat
            self._end_period(t0)
            period += 1
            if period % cfg.retarget_window == 0:
                window_mean = statistics.fmean(multi_times[-cfg.retarget_window :])
                multi_window_means.append(window_mean)
                lam = homotopy_lambda(
                    min(window_mean, cfg.target_time),
                    cfg.target_time,
                    cfg.propagation_floor_ms / 1000.0,
                )
                lam_trace.append(lam)
                self._retarget_flat(lam=lam)
        report = self._finalize()
        report.hybrid = {
            "lambda_trace": lam_trace,
            "multi_time_mean": statistics.fmean(multi_times) if multi_times else 0.0,
            "multi_window_means": multi_window_means,
            "legacy_reward_sat": legacy_reward_sat,
            "multi_reward_sat": multi_reward_sat,
        }
        return report


# ---------------------------------------------------------------------------
# sharded modes
# ---------------------------------------------------------------------------


class _ShardedRun(_Run):
    """The binary tree of shards both sharded modes mine, in heap order.

    Shard ``c = 2**l - 1 + s`` is (level l, shard s); its children are
    ``2c + 1`` and ``2c + 2``, its parent ``(c - 1) // 2``. A shard's last
    accepted block, ``last[c]``, is all the state it carries from one block
    to the next: the next block's parent ref is its digest.
    """

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.coords = [(l, s) for l in range(config.num_levels) for s in range(2**l)]
        self.last: list[SubBlock | None] = [None] * len(self.coords)

    def _parent_ref(self, c: int) -> bytes:
        last = self.last[c]
        return b"\x00" * 32 if last is None else last.digest()

    def _mint_shard_rewards(self, tag: str) -> None:
        """Mint each shard its share of ``reward_split``, a ``reward_split_tree``."""
        for level, shares in enumerate(self.reward_split):
            for shard, amount in enumerate(shares):
                self.state.mint(reward_output_id(f"{tag}/{level}/{shard}"), amount)


class _TreeRun(_ShardedRun):
    """Synchronized tree: each round mines every shard bottom-up, folds the
    global nonce, and reduces the calibration sums through block headers."""

    def _reward_split(self) -> list[list[int]]:
        return reward_split_tree(self.expected_times, self.cfg.num_levels, self.cfg.block_reward_btc)

    def run(self) -> SimReport:
        cfg = self.cfg
        self.peer_ids = [m.peer_id for m in cfg.miners]
        self.total_hashrate = sum(m.hashrate for m in cfg.miners)
        self.raw_value_samples: list[list[float]] = [[] for _ in self.coords]
        self.epoch_raw: list[dict] = []
        self.published: list[dict] = []
        self.non_root_blocks = self.child_references = 0
        # round 0 places miners and transactions under a seeded nonce too;
        # each later round uses the nonce its root folded
        nonce = self._random_id()
        stalled = None
        round_index = 0
        while self.t < cfg.duration:
            t0 = self.t
            stalled = self._round(round_index, nonce, t0)
            if stalled:
                break
            root = self.last[0]
            nonce = root.carried.nonce
            self.t = root.mined_at + propagation_delay(root.size_bits // 8, cfg)
            self._mint_shard_rewards(f"tree/{round_index}")
            self._end_period(t0)
            round_index += 1
            if round_index % cfg.retarget_window == 0:
                self._retarget_tree(round_index)
        report = self._finalize()
        report.tree = {
            "published": self.published,
            "raw_value_samples_per_epoch": self.epoch_raw,
            "stalled": stalled,
            "rounds": round_index,
            # every non-root block is referenced by its parent exactly once
            "reference_audit": {
                "non_root_blocks": self.non_root_blocks,
                "child_references": self.child_references,
            },
        }
        return report

    def _round(self, round_index: int, nonce: bytes, t0: float) -> dict | None:
        """Re-shard the miners, then fill and mine each level from the leaves up.

        Returns None once the root is mined, or where the round stalled: the
        first shard no miner works on.
        """
        cfg = self.cfg
        num_levels = cfg.num_levels
        self._drain_arrivals(self.t)
        # miners re-shard every round under the current global nonce; a
        # miner's hashrate counts at its leaf and at every shard above it
        hashrate = [0.0] * len(self.coords)
        for miner, leaf in zip(cfg.miners, shard_indices(num_levels - 1, self.peer_ids, nonce)):
            c = 2 ** (num_levels - 1) - 1 + leaf
            hashrate[c] += miner.hashrate
            while c:
                c = (c - 1) // 2
                hashrate[c] += miner.hashrate
        for level in range(num_levels - 1, -1, -1):
            # transactions re-shard too, each only if its level's fill reaches it
            shard_cap = max(cfg.min_cap_bytes, self.caps[level] // 2**level)
            fills, self.mempool[level] = take_by_fee_rate(self.mempool[level], shard_cap, level, nonce)
            nominal = self.total_hashrate / 2**level
            for shard, chosen in enumerate(fills):
                c = 2**level - 1 + shard
                alpha = hashrate[c] / nominal
                if alpha == 0.0:
                    return {"round": round_index, "shard": [level, shard]}
                self._mine_shard(c, chosen, alpha, nonce, t0, round_index)
            self._evict(self.mempool[level], self.pool_limits[level])
        return None

    def _mine_shard(self, c: int, chosen: list[ArrivalTx], alpha: float, nonce: bytes, t0: float,
                    round_index: int) -> None:
        """Mine shard ``c``'s block of the round on ``chosen`` and accept it.

        A leaf starts at the round's start ``t0``, a parent once both its
        children's blocks of the round have reached it; its header folds
        their carried sums into its own.
        """
        cfg = self.cfg
        num_levels = cfg.num_levels
        level, shard = self.coords[c]
        last = self.last
        bits = cfg.header_bits + 8 * sum(tx.size_bytes for tx in chosen)
        if level == num_levels - 1:
            start, kids = t0, ()
            child_sum, beta_sums, bits_sums = 0.0, [0.0] * num_levels, [0.0] * num_levels
        else:
            kids = (last[2 * c + 1], last[2 * c + 2])
            start = max(k.mined_at + propagation_delay(k.size_bits // 8, cfg) for k in kids)
            left, right = (k.carried for k in kids)
            child_sum = left.subtree_sum + right.subtree_sum
            beta_sums = [a + b for a, b in zip(left.beta_level_sums, right.beta_level_sums)]
            bits_sums = [a + b for a, b in zip(left.bits_level_sums, right.bits_level_sums)]
        dt = sample_mining_time(self.rng, 2**level * self.eta_applied[level], bits, alpha)
        betas = [tx.value / (8 * tx.size_bytes) for tx in chosen]
        block_beta = sum(betas) / len(betas) if betas else 0.0
        value_sample = block_beta * bits
        self.raw_value_samples[c].append(value_sample)
        # the window averages continue those the shard's previous block carried
        i = round_index % cfg.retarget_window
        prev = last[c].carried if last[c] else None
        value_avg = recurrent_average(prev.value_avg if prev else 0.0, i, value_sample)
        beta_sums[level] = recurrent_average(prev.beta_level_sums[level] if prev else 0.0, i, block_beta)
        bits_sums[level] = recurrent_average(prev.bits_level_sums[level] if prev else 0.0, i, float(bits))
        child_refs = tuple(k.digest() for k in kids)
        block = self._block(level, shard, round_index, self._parent_ref(c), chosen, start + dt, bits, child_refs)
        block.carried = CarriedValues(
            value_avg=value_avg,
            subtree_sum=value_avg + child_sum,
            beta_level_sums=tuple(beta_sums),
            bits_level_sums=tuple(bits_sums),
            nonce=nonce_step(self._random_id(), *(k.carried.nonce for k in kids)),
        )
        self._accept(block, dt, nonce=nonce, check_shard=True)
        last[c] = block
        self.child_references += len(child_refs)
        if level:
            self.non_root_blocks += 1

    def _retarget_tree(self, round_index: int) -> None:
        """Publish the calibration the root's header reduced over the window, and install it."""
        cfg = self.cfg
        root = self.last[0].carried
        c_pub = cfg.target_time * SATOSHI_PER_BTC / root.subtree_sum
        mean_betas = [beta / 2**l for l, beta in enumerate(root.beta_level_sums)]
        eta_pub = [c_pub * beta / SATOSHI_PER_BTC for beta in mean_betas]
        eta_pub = [eta if eta > 0 else formula for eta, formula in zip(eta_pub, self.eta_formula)]
        avg_bits = list(root.bits_level_sums)
        realized = statistics.fmean(self.window_period_times)
        self.published.append(
            {
                "round": round_index,
                "c_eta": c_pub,
                "eta": eta_pub,
                "subtree_sum": root.subtree_sum,
                "avg_level_bits": avg_bits,
            }
        )
        self.epoch_raw.append({f"{l},{s}": samples for (l, s), samples in zip(self.coords, self.raw_value_samples)})
        self.raw_value_samples = [[] for _ in self.coords]
        self._update_gain(realized)
        self._install_schedule(c_pub, eta_pub, avg_bits, realized, [beta or None for beta in mean_betas])
        self._reset_window()


# ---------------------------------------------------------------------------
# concurrent mode
# ---------------------------------------------------------------------------


class _ConcurrentRun(_ShardedRun):
    """Every (level, shard) chain mines continuously at its schedule cadence;
    parents batch-reference all not-yet-referenced child blocks.

    Chain ``c`` is shard ``c`` of the heap-ordered tree; its per-chain state
    sits in lists indexed by ``c``.

    Latencies are folded as they become known: a transaction's inclusion
    latency when its block is mined, and its root-path latency when a level-0
    block settles the subtree holding its block. Only unsettled blocks are
    kept, with their child references and their transactions' arrival times.
    What grows with the run is packed: 8 bytes per latency sample and 32
    bytes per child reference, the log the reference audit is counted from.
    """

    def run(self) -> SimReport:
        cfg = self.cfg
        num_levels = cfg.num_levels
        chains = self.coords
        self.chain_mempool: list[list[ArrivalTx]] = [[] for _ in chains]
        self.unreferenced: list[list[bytes]] = [[] for _ in chains]
        self.chain_dt_sum = [0.0] * len(chains)
        self.chain_blocks = [0] * len(chains)
        # every child reference mined, as 32 digest bytes each
        self.reference_log = bytearray()
        self.root_digests: set[bytes] = set()
        # digest -> (level, child refs, arrival times of the block's transactions)
        self.unsettled: dict[bytes, tuple[int, tuple[bytes, ...], array | tuple]] = {}
        self.inclusion = [array("d") for _ in range(num_levels)]
        self.rootpath = [array("d") for _ in range(num_levels)]
        if cfg.chain_target_times is not None:
            cadence = list(cfg.chain_target_times)
        else:
            cadence = list(self.expected_times)
            check_concurrent_blocks(cfg.duration, cadence)
        # the cadence is fixed for the run, and with it each root block's reward split
        self.reward_split = reward_split_tree(cadence, num_levels, cfg.block_reward_btc)
        self.chain_pool_limit = [max(32, self.pool_limits[l] // 2**l) for l in range(num_levels)]
        chain_rate = [1.0 / cadence[l] for l, _ in chains]
        expovariate = self.rng.expovariate
        heap = [(expovariate(chain_rate[c]), c, c) for c in range(len(chains))]
        heapq.heapify(heap)
        counter = len(chains)

        duration = cfg.duration
        while heap[0][0] < duration:
            now, _, c = heap[0]
            self.t = now
            if self._next_arrival < now:
                self._drain(now)
            self._mine(c, now, False)
            heapq.heapreplace(heap, (now + expovariate(chain_rate[c]), counter, c))
            counter += 1

        # finalization sweep: parents collect every outstanding child block
        unreferenced = self.unreferenced
        t_sweep = max(self.t, duration)
        for level in range(num_levels - 2, -1, -1):
            for c in range(2**level - 1, 2 ** (level + 1) - 1):
                if unreferenced[2 * c + 1] or unreferenced[2 * c + 2]:
                    t_sweep += expovariate(1.0 / cadence[level])
                    self.t = t_sweep
                    self._mine(c, t_sweep, True)

        # Sorted once, the reference log counts the distinct referenced digests.
        # Orphans are blocks no parent referenced (they and their subtrees stay
        # unsettled): the digests left unreferenced that the log does not hold.
        referenced = np.frombuffer(self.reference_log, dtype="V32")
        referenced.sort()
        distinct = int(np.count_nonzero(referenced[1:] != referenced[:-1])) + 1 if len(referenced) else 0
        left = np.frombuffer(b"".join(set().union(*unreferenced)), dtype="V32")
        at = np.searchsorted(referenced, left)
        inside = at < len(referenced)
        orphans = len(left) - int(np.count_nonzero(referenced[at[inside]] == left[inside]))

        report = self._finalize()
        blocks = self.chain_blocks
        report.concurrent = {
            "per_chain": {
                f"{l},{s}": {
                    "blocks": blocks[c],
                    "mean_dt": self.chain_dt_sum[c] / blocks[c] if blocks[c] else 0.0,
                    "target_dt": cadence[l],
                }
                for c, (l, s) in enumerate(chains)
            },
            "inclusion_latency": {str(l): summarize_latencies(self.inclusion[l]) for l in range(num_levels)},
            "root_path_latency": {str(l): summarize_latencies(self.rootpath[l]) for l in range(num_levels)},
            "audit": {
                # distinct digests: every mined block is a root, referenced or an orphan
                "blocks": distinct + orphans + len(self.root_digests),
                "orphans": orphans,
                # each repeat reference of a child block counts once
                "multi_referenced": len(referenced) - distinct,
            },
        }
        return report

    def _drain(self, until: float) -> None:
        """Draw the arrivals due before ``until`` and route each to its chain.

        The level pools hold only entries not yet routed, so the first drain
        also routes the preseeded backlog. Entries are routed level by level,
        not in arrival order; every chain pool is sorted by (fee rate, seq)
        before any fill or eviction, so the order cannot matter.
        """
        self._drain_arrivals(until)
        chain_mempool = self.chain_mempool
        for level, pool in enumerate(self.mempool):
            if pool:
                first = 2**level - 1
                for tx in pool:
                    chain_mempool[first + tx_shard_index(level, tx)].append(tx)
                pool.clear()

    def _settle(self, digest: bytes, t_root: float) -> None:
        """Fold the root-path latencies of a level-0 block's unsettled subtree."""
        unsettled = self.unsettled
        stack = [digest]
        while stack:
            block = unsettled.pop(stack.pop(), None)
            if block is None:
                continue
            level, refs, arrivals = block
            if arrivals:
                self.rootpath[level].extend(t_root - arrival for arrival in arrivals)
            stack += refs

    def _mine(self, c: int, now: float, sweep: bool) -> None:
        """Mine chain ``c``'s next block at ``now`` and accept it."""
        cfg = self.cfg
        level, shard = self.coords[c]
        pool = self.chain_mempool[c]
        bits = cfg.header_bits
        if pool:
            [chosen], rest = take_by_fee_rate(pool, cfg.max_subblock_bytes)
            self._evict(rest, self.chain_pool_limit[level])
            self.chain_mempool[c] = rest
            bits += 8 * sum(tx.size_bytes for tx in chosen)
        else:
            chosen = []
        refs = []
        if level < cfg.num_levels - 1:
            for kid in (2 * c + 1, 2 * c + 2):
                batch = self.unreferenced[kid]
                if batch:
                    take = len(batch) if cfg.max_child_batch is None else cfg.max_child_batch
                    refs += batch[:take]
                    del batch[:take]
        prev = self.last[c]
        dt = now if prev is None else now - prev.mined_at
        block = self._block(level, shard, self.chain_blocks[c], self._parent_ref(c), chosen, now, bits, tuple(refs))
        self._accept(block, dt, nonce=None, check_shard=True)
        self.last[c] = block
        digest = block.digest()
        self.reference_log += b"".join(refs)
        arrivals = array("d", [tx.arrival for tx in chosen]) if chosen else ()
        if arrivals:
            self.inclusion[level].extend(now - arrival for arrival in arrivals)
        # a header-only block still links its children to the settling root
        self.unsettled[digest] = (level, block.child_refs, arrivals)
        if level:
            self.unreferenced[c].append(digest)
        if not sweep:
            self.chain_dt_sum[c] += dt
            self.chain_blocks[c] += 1
        if not c:
            self.root_digests.add(digest)
            self._settle(digest, now)
            self._mint_shard_rewards(f"conc/{block.seq}/0")


def summarize_latencies(values: array) -> dict | None:
    """Count, median, mean, p10 and p90 of latency samples, as Python floats;
    None for no samples. Sorts ``values`` in place.

    The median averages the two middle samples of an even count, as
    ``statistics.median`` does; the mean is ``statistics.fmean``, whose
    correctly rounded sum does not depend on the order; p10 and p90 are the
    sorted samples at index ``int(q * (n - 1))``.
    """
    n = len(values)
    if not n:
        return None
    ordered = np.frombuffer(values, dtype=np.float64)
    ordered.sort()
    at = ordered.item
    return {
        "count": n,
        "median": at(n // 2) if n % 2 else (at(n // 2 - 1) + at(n // 2)) / 2,
        "mean": statistics.fmean(values),
        "p10": at(int(0.1 * (n - 1))),
        "p90": at(int(0.9 * (n - 1))),
    }


# ---------------------------------------------------------------------------


def simulate(config: SimConfig) -> SimReport:
    """Run one simulation and return its report."""
    runners = {
        MODE_FLAT: _FlatRun,
        MODE_HYBRID: _HybridRun,
        MODE_TREE: _TreeRun,
        MODE_CONCURRENT: _ConcurrentRun,
    }
    return runners[config.mode](config).run()

