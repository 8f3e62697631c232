"""The engine's arrival stream against the per-arrival oracle in ``reference_arrivals.py``.

Each test runs an engine run class and its reference side by side on one
config. After the preseed and after every drain both must hold the same
pending entries (id, value, size, input ref, requested level, fee, seq and
arrival time), the same generator state, the same counters and the same
reserved inputs; whole runs must also give the same report bytes.
"""

import pytest

from hbsim.dataio import WorkloadSpec
from hbsim.simulator import SimConfig, equal_miners
from reference_arrivals import REFERENCE_RUNS


def fields(entry):
    return (entry.id, entry.value, entry.size_bytes, entry.input_ref, entry.requested_level, entry.fee_sat,
            entry.seq, entry.arrival)


def snapshot(run):
    """What a drain may change: pending entries by pool, generator state, counters."""
    pools = [("level", l, pool) for l, pool in enumerate(run.mempool)]
    pools += [("chain", c, pool) for c, pool in enumerate(getattr(run, "chain_mempool", ()))]
    return {
        "pending": [(kind, i, sorted(map(fields, pool), key=lambda f: f[6])) for kind, i, pool in pools],
        "rng": run.rng.getstate(),
        "generated": run.txs_generated,
        "skipped": run.txs_skipped,
        "seq": run.seq,
        "next_arrival": run._next_arrival,
        "reserved": sorted(run.state._reserved),
        "reserved_counts": dict(run.state._reserved_counts),
        "fee_rates": tuple(run.fee_rates_sat),
    }


def record(run):
    """Snapshots of ``run`` after its preseed and after each drain it makes."""
    snapshots = [snapshot(run)]
    name = "_drain" if run.cfg.mode == "concurrent" else "_drain_arrivals"
    drain = getattr(run, name)

    def recorded(until):
        drain(until)
        snapshots.append(snapshot(run))

    setattr(run, name, recorded)
    return snapshots


def assert_same(got, expected):
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        for key in b:
            assert a[key] == b[key], f"{key} differs after drain {i} (0 is the preseed)"


def config(mode, **kw):
    defaults = dict(
        mode=mode,
        num_levels=3,
        duration=600.0 * 40,
        seed=5,
        retarget_window=8,
        workload=WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


CASES = {
    "flat-fixed": config("flat"),
    # a drain before every sub-block, so some gaps draw nothing
    "flat-lognormal-override-per-subblock": config(
        "flat",
        broadcast="per-subblock",
        workload=WorkloadSpec(rate=0.02, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="lognormal",
                              size_params=(6.0, 0.6), level_override_fraction=0.3),
    ),
    # four genesis outputs: many picks find no input
    "flat-empirical-starved": config(
        "flat",
        genesis_outputs=4,
        workload=WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="empirical",
                              size_params=(180, 250, 400, 900)),
    ),
    # an odd bootstrap sample leaves the second normal of its last pair for
    # the stream's first arrival
    "flat-odd-bootstrap": config("flat", bootstrap_txs=4_001),
    "hybrid": config("hybrid"),
    "tree": config("tree", miners=equal_miners(48)),
    "concurrent": config("concurrent", duration=600.0 * 20, chain_target_times=(429.0, 124.0, 44.5)),
    "concurrent-override-starved": config(
        "concurrent",
        duration=600.0 * 20,
        genesis_outputs=16,
        chain_target_times=(429.0, 124.0, 44.5),
        workload=WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0, level_override_fraction=0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_reference(case):
    cfg = CASES[case]
    stream_cls, reference_cls = REFERENCE_RUNS[cfg.mode]
    runs = [stream_cls(cfg), reference_cls(cfg)]
    logs = [record(run) for run in runs]
    reports = [run.run().canonical_json() for run in runs]
    assert_same(logs[0], logs[1])
    assert reports[0] == reports[1]
    log = logs[0]
    assert len(log) > 10
    assert log[0]["generated"] > 0, "the preseed draws a backlog"
    if cfg.mode != "concurrent":  # concurrent mode keeps its bootstrap schedule
        assert len({s["fee_rates"] for s in log}) > 1, "a retarget changes the fee rates between drains"
    if "starved" in case:
        assert log[-1]["skipped"] > log[-1]["generated"] // 10
    if "per-subblock" in case:
        assert any(a["generated"] == b["generated"] for a, b in zip(log, log[1:])), "some gaps draw nothing"


def test_only_the_odd_bootstrap_starts_the_stream_with_a_carried_normal():
    stream_cls = REFERENCE_RUNS["flat"][0]
    carried = {}

    class Probe(stream_cls):
        def _arrival_stream(self, preseed):
            # the generator's body runs at the first next, from this state
            carried[self.cfg.bootstrap_txs] = self.rng.gauss_next
            return super()._arrival_stream(preseed)

    for case in ("flat-fixed", "flat-odd-bootstrap"):
        Probe(CASES[case])
    assert carried[4_000] is None
    assert carried[4_001] is not None


@pytest.mark.parametrize("genesis_outputs", [512, 3])
def test_gaps_driven_by_hand(genesis_outputs):
    """Drains at chosen bounds, with no block mined between them: gaps that
    end at or before the next arrival, long gaps, and a schedule installed
    between two drains with other fee rates. With three genesis outputs the
    preseed already spends them all, so every later pick finds none."""
    cfg = config("flat", genesis_outputs=genesis_outputs,
                 workload=WorkloadSpec(rate=0.1, lg_beta_mu=3.0, lg_beta_sigma=1.0, level_override_fraction=0.2))
    runs = [cls(cfg) for cls in REFERENCE_RUNS["flat"]]
    logs = [[snapshot(run)] for run in runs]
    first = runs[0]._next_arrival
    for step, until in enumerate([first, first - 1.0, first + 300.0, first + 300.0, first + 900.0,
                                  first + 901.0, first + 3000.0]):
        for run, log in zip(runs, logs):
            if step == 4:
                # a retarget's install: doubled etas double the fee rates
                epoch = run.report.epochs[-1]
                run._install_schedule(run.c_eta, [2 * e for e in run.eta_formula], run.avg_bits, None,
                                      epoch.beta_means)
            run._drain_arrivals(until)
            log.append(snapshot(run))
    assert_same(logs[0], logs[1])
    log = logs[0]
    assert log[1]["rng"] == log[2]["rng"] == log[0]["rng"], "a gap ending at the next arrival draws nothing"
    assert log[4]["rng"] == log[3]["rng"]
    assert log[-1]["generated"] > log[0]["generated"]
    assert log[5]["fee_rates"] != log[4]["fee_rates"]
    if genesis_outputs == 3:
        assert log[-1]["skipped"] == log[-1]["generated"] - 3
    else:
        assert log[0]["skipped"] == 0 < log[-1]["skipped"], "picks fail only once the reserved inputs pile up"
