import hashlib
import statistics

import pytest
from scipy import stats as scipy_stats

from hbsim.core import SATOSHI_PER_BTC
from hbsim.dataio import WorkloadSpec
from hbsim.economics import homotopy_lambda
from hbsim.segmentation import LevelStats, LevelSummary
from hbsim.economics import compute_c_eta_flat
from hbsim.simulator import SimConfig, SubBlock, engine, equal_miners, simulate

WORKLOAD = WorkloadSpec(rate=0.2, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="fixed", size_params=(400,))


def flat_config(**kw):
    defaults = dict(
        mode="flat", num_levels=3, duration=600.0 * 800, seed=7, workload=WORKLOAD, retarget_window=32
    )
    defaults.update(kw)
    return SimConfig(**defaults)


@pytest.fixture(scope="module")
def flat_report():
    return simulate(flat_config())


@pytest.fixture(scope="module")
def hybrid_report():
    cfg = SimConfig(
        mode="hybrid",
        num_levels=2,
        duration=600.0 * 400,
        seed=11,
        workload=WORKLOAD,
        retarget_window=32,
    )
    return simulate(cfg)


@pytest.fixture(scope="module")
def tree_report():
    cfg = SimConfig(
        mode="tree",
        num_levels=3,
        duration=600.0 * 260,
        seed=13,
        workload=WORKLOAD,
        retarget_window=32,
        miners=equal_miners(48),
    )
    return simulate(cfg)


@pytest.fixture(scope="module")
def concurrent_report():
    cfg = SimConfig(
        mode="concurrent",
        num_levels=3,
        duration=600.0 * 1500,
        seed=41,
        workload=WORKLOAD,
        retarget_window=32,
        chain_target_times=(429.0, 124.0, 44.5),
    )
    return simulate(cfg)


class TestFlatRun:

    def test_mean_superblock_time_converges(self, flat_report):
        window = 32
        settled = flat_report.superblock_times[5 * window :]
        mean = statistics.fmean(settled)
        assert abs(mean - 600.0) / 600.0 < 0.05

    def test_eta_strictly_decreasing_every_epoch(self, flat_report):
        for epoch in flat_report.epochs:
            for l in range(len(epoch.eta) - 1):
                assert epoch.eta[l + 1] < epoch.eta[l]
            for l in range(len(epoch.eta_applied) - 1):
                assert epoch.eta_applied[l + 1] < epoch.eta_applied[l]

    def test_reward_conservation_exact(self, flat_report):
        periods = len(flat_report.superblock_times)
        assert flat_report.minted_sat == periods * round(6.25 * SATOSHI_PER_BTC)

    def test_value_conservation_all_events(self, flat_report):
        assert flat_report.conservation_checks > 0
        assert flat_report.conservation_violations == 0
        assert flat_report.unspent_sat + flat_report.fees_sat == flat_report.minted_sat + flat_report.genesis_sat

    def test_security_constant_uniform(self, flat_report):
        consts = [c for c in flat_report.epochs[-1].security_consts if c is not None]
        assert len(consts) == 3
        spread = (max(consts) - min(consts)) / max(consts)
        assert spread < 1e-9

    def test_determinism_bitwise(self):
        cfg = flat_config(duration=600.0 * 60, seed=99)
        assert simulate(cfg).canonical_json() == simulate(cfg).canonical_json()

    def test_every_block_validated(self, flat_report):
        assert flat_report.blocks_accepted == 3 * len(flat_report.superblock_times)
        assert flat_report.blocks_rejected == {}

    @pytest.mark.parametrize("policy", ["per-subblock", "whole-multiblock", "hybrid-batch"])
    def test_broadcast_policies_converge_and_stay_deterministic(self, policy):
        cfg = flat_config(duration=600.0 * 600, seed=51, broadcast=policy)
        report = simulate(cfg)
        assert simulate(cfg).canonical_json() == report.canonical_json()
        settled = report.superblock_times[5 * 32 :]
        assert abs(statistics.fmean(settled) - 600.0) / 600.0 < 0.05
        assert report.conservation_violations == 0


class TestHybridRun:

    def test_lambda_tracks_multi_block_time(self, hybrid_report):
        """Each published weight equals the windowed multi-block time over target."""
        floors = 0.08
        means = hybrid_report.hybrid["multi_window_means"]
        trace = hybrid_report.hybrid["lambda_trace"][1:]
        assert len(means) == len(trace)
        for mean, lam in zip(means, trace):
            assert lam == pytest.approx(homotopy_lambda(min(mean, 600.0), 600.0, floors))

    def test_lambda_never_below_floor(self, hybrid_report):
        for lam in hybrid_report.hybrid["lambda_trace"]:
            assert lam >= 0.08 / 600.0

    def test_reward_conservation_across_block_kinds(self, hybrid_report):
        periods = len(hybrid_report.superblock_times)
        total = hybrid_report.hybrid["legacy_reward_sat"] + hybrid_report.hybrid["multi_reward_sat"]
        assert total == periods * round(6.25 * SATOSHI_PER_BTC)
        assert hybrid_report.minted_sat == total

    def test_pair_time_converges(self, hybrid_report):
        settled = hybrid_report.superblock_times[5 * 32 :]
        assert abs(statistics.fmean(settled) - 600.0) / 600.0 < 0.05


def replay_inband_calibration(raw_samples, num_levels, target_time=600.0):
    """Recompute the published calibration from raw per-shard samples, using
    the same carried-header arithmetic the chain used."""
    averages = {}
    for key, samples in raw_samples.items():
        l, s = (int(x) for x in key.split(","))
        v = 0.0
        for i, sample in enumerate(samples):
            v = i / (i + 1) * v + sample / (i + 1)
        averages[(l, s)] = v
    subtree = {}
    for l in range(num_levels - 1, -1, -1):
        for s in range(2**l):
            if l == num_levels - 1:
                subtree[(l, s)] = averages[(l, s)] + 0.0
            else:
                child_sum = sum(
                    (subtree[(l + 1, 2 * s)], subtree[(l + 1, 2 * s + 1)])
                )
                subtree[(l, s)] = averages[(l, s)] + child_sum
    return target_time * SATOSHI_PER_BTC / subtree[(0, 0)]


class TestTreeRun:

    def test_inband_c_eta_equals_offline_replay_exactly(self, tree_report):
        assert tree_report.tree["published"], "no calibration epoch completed"
        for published, raw in zip(tree_report.tree["published"], tree_report.tree["raw_value_samples_per_epoch"]):
            replayed = replay_inband_calibration(raw, tree_report.num_levels)
            assert replayed == published["c_eta"]

    def test_inband_c_eta_matches_flat_estimator(self, tree_report):
        """Feeding every shard-block sample to the offline estimator agrees to 1e-9."""
        for published, raw in zip(tree_report.tree["published"], tree_report.tree["raw_value_samples_per_epoch"]):
            rows = []
            for samples in raw.values():
                for sample in samples:
                    rows.append(
                        LevelSummary(1, sample, sample, sample, None, None, None, 0, None, 1)
                    )
            c = compute_c_eta_flat(LevelStats(tuple(rows)), num_blocks=32, target_time=600.0)
            assert c == pytest.approx(published["c_eta"], rel=1e-9)

    def test_round_time_converges(self, tree_report):
        settled = tree_report.superblock_times[5 * 32 :]
        assert abs(statistics.fmean(settled) - 600.0) / 600.0 < 0.10

    def test_conservation_and_validation(self, tree_report):
        assert tree_report.conservation_violations == 0
        assert tree_report.blocks_rejected == {}
        assert tree_report.tree["stalled"] is None

    def test_every_child_block_referenced_once(self, tree_report):
        audit = tree_report.tree["reference_audit"]
        assert audit["non_root_blocks"] > 0
        assert audit["child_references"] == audit["non_root_blocks"]

    def test_security_constant_uniform(self, tree_report):
        consts = [c for c in tree_report.epochs[-1].security_consts if c is not None]
        spread = (max(consts) - min(consts)) / max(consts)
        assert spread < 1e-9

    def test_determinism_bitwise(self):
        cfg = SimConfig(
            mode="tree",
            num_levels=2,
            duration=600.0 * 40,
            seed=3,
            workload=WORKLOAD,
            retarget_window=16,
            miners=equal_miners(16),
        )
        assert simulate(cfg).canonical_json() == simulate(cfg).canonical_json()

    def test_zero_miner_shard_stalls(self):
        cfg = SimConfig(
            mode="tree",
            num_levels=2,
            duration=600.0 * 10,
            seed=3,
            workload=WORKLOAD,
            retarget_window=16,
            miners=equal_miners(1),
        )
        tree_report = simulate(cfg)
        assert tree_report.tree["stalled"] is not None
        assert tree_report.tree["rounds"] == tree_report.tree["stalled"]["round"]

    def test_per_shard_times_match_flat_level_times(self):
        """Sharding level l doubles the time investment l times but halves the
        content as often, so measured per-shard block times reproduce the flat
        per-level times. Realized times are normalized by each run's timing
        gain (which absorbs mode-specific propagation overhead); levels whose
        shard capacity is below a handful of transactions are compared at
        one-transaction signing granularity instead of 5%."""
        flat = simulate(flat_config(duration=600.0 * 2000, seed=31))
        tree = simulate(
            SimConfig(
                mode="tree",
                num_levels=3,
                duration=600.0 * 2000,
                seed=31,
                workload=WORKLOAD,
                retarget_window=32,
                miners=equal_miners(64),
            )
        )
        flat_gain = statistics.fmean(e.gain for e in flat.epochs)
        tree_gain = statistics.fmean(e.gain for e in tree.epochs)
        tx_bytes = WORKLOAD.size_params[0]
        for l in range(3):
            f = flat.level_time_means[l] / flat_gain
            t = tree.level_time_means[l] / tree_gain
            one_tx_time = tree.schedule_final["eta_applied"][l] * 2**l * 8 * tx_bytes
            if abs(t - f) / f > 0.05:
                assert abs(t - f) <= 1.5 * one_tx_time, f"level {l}"

    def test_tree_l1_statistically_matches_flat_l1(self):
        flat = simulate(
            SimConfig(mode="flat", num_levels=1, duration=600.0 * 400, seed=23, workload=WORKLOAD,
                      retarget_window=32)
        )
        tree = simulate(
            SimConfig(mode="tree", num_levels=1, duration=600.0 * 400, seed=23, workload=WORKLOAD,
                      retarget_window=32, miners=equal_miners(16))
        )
        result = scipy_stats.ks_2samp(flat.superblock_times, tree.superblock_times)
        assert result.pvalue > 0.01


class _ReferenceSpy:
    """Records every block concurrent mode builds and recomputes its reference
    audit with Python sets.

    Each chain's not-yet-referenced digests are replayed as a queue: a parent
    takes up to ``max_child_batch`` from the front of its first child chain's
    queue, then of its second, and the spy checks that the block's
    ``child_refs`` are exactly those.
    """

    def __init__(self, monkeypatch, max_child_batch):
        self.max_child_batch = max_child_batch
        self.queues: dict[tuple[int, int], list[bytes]] = {}
        self.referenced: set[bytes] = set()
        self.references_mined = 0
        self.roots: set[bytes] = set()
        self.first_root_period: dict[bytes, int] = {}
        self.remined_after_root = 0
        build = engine._ConcurrentRun._block
        monkeypatch.setattr(
            engine._ConcurrentRun, "_block", lambda run, *args: self.record(build(run, *args))
        )

    def record(self, block):
        taken = []
        for kid in ((block.level + 1, 2 * block.shard), (block.level + 1, 2 * block.shard + 1)):
            queue = self.queues.get(kid, [])
            take = len(queue) if self.max_child_batch is None else min(len(queue), self.max_child_batch)
            taken += queue[:take]
            del queue[:take]
        assert list(block.child_refs) == taken
        self.referenced.update(taken)
        self.references_mined += len(taken)
        digest = block.digest()
        period = len(self.roots)
        if self.first_root_period.setdefault(digest, period) < period:
            self.remined_after_root += 1
        if block.level > 0:
            self.queues.setdefault((block.level, block.shard), []).append(digest)
        elif block.shard == 0:
            self.roots.add(digest)
        return block

    def audit(self) -> dict:
        orphans = len(set().union(*self.queues.values()) - self.referenced)
        return {
            "blocks": len(self.referenced) + orphans + len(self.roots),
            "orphans": orphans,
            "multi_referenced": self.references_mined - len(self.referenced),
        }


class TestConcurrentRun:

    def test_per_chain_block_time_means(self, concurrent_report):
        for key, chain in concurrent_report.concurrent["per_chain"].items():
            assert chain["blocks"] > 100, key
            assert abs(chain["mean_dt"] - chain["target_dt"]) / chain["target_dt"] < 0.05, key

    def test_inclusion_much_faster_than_root_path(self, concurrent_report):
        deepest = str(concurrent_report.num_levels - 1)
        inclusion = concurrent_report.concurrent["inclusion_latency"][deepest]["median"]
        root_path = concurrent_report.concurrent["root_path_latency"][deepest]["median"]
        assert inclusion < root_path / 10

    def test_latency_medians_ordered_by_level(self, concurrent_report):
        incl = [concurrent_report.concurrent["inclusion_latency"][str(l)]["median"] for l in range(3)]
        assert incl[0] > incl[1] > incl[2]

    def test_every_child_referenced_exactly_once(self, concurrent_report):
        audit = concurrent_report.concurrent["audit"]
        assert audit["orphans"] == 0
        assert audit["multi_referenced"] == 0
        assert audit["blocks"] > 0

    def test_every_inclusion_settles_without_orphans(self, concurrent_report):
        """With no orphan, every block reaches a level-0 block, so each level
        has one root-path latency per inclusion latency."""
        conc = concurrent_report.concurrent
        assert conc["audit"]["orphans"] == 0
        for l in range(concurrent_report.num_levels):
            assert conc["root_path_latency"][str(l)]["count"] == conc["inclusion_latency"][str(l)]["count"]

    def test_unsettled_blocks_add_no_root_path_latency(self):
        """Parents that take two child blocks at a time leave blocks unreferenced
        at the end; their transactions have an inclusion latency only."""
        cfg = SimConfig(
            mode="concurrent",
            num_levels=3,
            duration=600.0 * 200,
            seed=9,
            workload=WORKLOAD,
            retarget_window=32,
            max_child_batch=2,
            chain_target_times=(429.0, 124.0, 44.5),
        )
        conc = simulate(cfg).concurrent
        assert conc["audit"]["orphans"] > 0
        inclusion, root_path = conc["inclusion_latency"], conc["root_path_latency"]
        assert root_path["0"]["count"] == inclusion["0"]["count"]
        assert root_path["1"]["count"] < inclusion["1"]["count"]

    def test_repeated_child_reference_is_counted(self, monkeypatch):
        """With one digest per chain, every level-1 block after a chain's first
        re-references the same digest; the audit counts each repeat."""
        monkeypatch.setattr(
            SubBlock, "digest", lambda self: bytes([self.level, self.shard]) * 16
        )
        cfg = SimConfig(
            mode="concurrent",
            num_levels=2,
            duration=600.0 * 10,
            seed=29,
            workload=WORKLOAD,
            retarget_window=16,
            chain_target_times=(450.0, 150.0),
        )
        report = simulate(cfg)
        per_chain = report.concurrent["per_chain"]
        # level-1 chains are never swept, and the sweep references every block they mined
        level1_blocks = per_chain["1,0"]["blocks"] + per_chain["1,1"]["blocks"]
        assert level1_blocks > 2
        assert report.concurrent["audit"]["multi_referenced"] == level1_blocks - 2

    @pytest.mark.parametrize(
        "colliding, max_child_batch",
        [(True, None), (False, 2), (True, 2)],
        ids=["colliding-digests", "batch-2-orphans", "colliding-batch-2"],
    )
    def test_reference_audit_matches_set_oracle(self, monkeypatch, colliding, max_child_batch):
        """The audit equals the set formulas recomputed from every child
        reference batch the run built, with digests that repeat after a root
        block has settled their first copy, and with orphans."""
        if colliding:
            # a chain's digest repeats every third block, within and across root periods
            monkeypatch.setattr(
                SubBlock,
                "digest",
                lambda self: hashlib.sha256(bytes([self.level, self.shard, self.seq % 3])).digest(),
            )
        spy = _ReferenceSpy(monkeypatch, max_child_batch)
        cfg = SimConfig(
            mode="concurrent",
            num_levels=3,
            duration=600.0 * 40,
            seed=9,
            workload=WORKLOAD,
            retarget_window=16,
            max_child_batch=max_child_batch,
            chain_target_times=(429.0, 124.0, 44.5),
        )
        audit = simulate(cfg).concurrent["audit"]
        assert audit == spy.audit()
        if colliding:
            assert audit["multi_referenced"] > 0
            assert spy.remined_after_root > 0
        if max_child_batch is not None:
            assert any(spy.queues.values())
            # colliding orphans share their digests with referenced blocks
            assert (audit["orphans"] > 0) != colliding

    def test_conservation(self, concurrent_report):
        assert concurrent_report.conservation_violations == 0

    def test_determinism_bitwise(self):
        cfg = SimConfig(
            mode="concurrent",
            num_levels=2,
            duration=600.0 * 30,
            seed=29,
            workload=WORKLOAD,
            retarget_window=16,
            chain_target_times=(450.0, 150.0),
        )
        assert simulate(cfg).canonical_json() == simulate(cfg).canonical_json()
