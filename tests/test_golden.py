"""Golden digests: the sha256 of ``canonical_json()`` for short pinned configs,
and of the ``hbsim segment``/``estimate`` output on a seeded dataset.

``CASES`` holds one config per mode. ``PATH_CASES`` are shorter runs that
reach the paths those four never take: the per-subblock and hybrid-batch
broadcast policies, log-normal and empirical transaction sizes, user-chosen
levels, in concurrent mode a bounded child batch, four levels (15 chains,
so child chains are looked up two levels below the root) and log-normal
sizes with overridden levels routed to their chains, and in tree mode four
levels, log-normal sizes with overridden levels, miners of unequal hashrate
and a run that stalls in its 34th round. ``ANALYSIS_COMMANDS``
run the dataset commands on rows with exact ties in beta, zero-value rows and
an extra column. ``GEN_DIGEST`` pins the file ``hbsim gen`` writes.

The determinism tests elsewhere compare two runs of the same code, so they
cannot notice a refactor that changes the report. These digests can. A change
that means to alter behaviour re-pins them and says why; any other change must
leave them as they are.

The reports depend on libm through ``gauss``, ``expovariate`` and ``log10``,
so the digests hold for the platform they were pinned on:
Linux x86_64 (glibc 2.36), CPython 3.11.7.
"""

import hashlib
import io
import platform
import random

import pytest

from hbsim.cli import run_cli
from hbsim.dataio import DatasetRow, WorkloadSpec, write_dataset
from hbsim.simulator import Miner, SimConfig, equal_miners, simulate

PINNED_ON = "Linux x86_64, glibc 2.36, CPython 3.11.7"

WORKLOAD = WorkloadSpec(rate=0.2, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="fixed", size_params=(400,))
BASE = dict(num_levels=3, duration=600.0 * 400, workload=WORKLOAD, retarget_window=32)

CASES = {
    "flat": (
        dict(mode="flat", seed=7),
        "5391b6051f04fa12228bbedbcda1991c96c9ef09d214db645f1501267384ee0d",
    ),
    "hybrid": (
        dict(mode="hybrid", seed=11),
        "78b84d841187eb803683c7768178c8ce93faec09c7e3964bef5d49e0642e85aa",
    ),
    "tree": (
        dict(mode="tree", seed=13, miners=equal_miners(48)),
        "b29bdbd63c616b91bc74144bb71cbad51b80cc9db642dda076f6d705b8225993",
    ),
    "concurrent": (
        dict(mode="concurrent", seed=41, chain_target_times=(429.0, 124.0, 44.5)),
        "fecc6ece989b672584596d83a4d4ad220b6ab956a6e7d3d7465222b9f6cfe643",
    ),
}

SHORT = dict(BASE, duration=600.0 * 200)

LOGNORMAL_OVERRIDE = WorkloadSpec(
    rate=0.2,
    lg_beta_mu=3.0,
    lg_beta_sigma=1.0,
    size_mode="lognormal",
    size_params=(6.0, 0.4),
    level_override_fraction=0.2,
)

PATH_CASES = {
    "flat-per-subblock": (
        dict(mode="flat", seed=7, broadcast="per-subblock"),
        "df9bb1ebbe3fb4fca65c01f4e08426a3e25192c690ddbb8314453b585eb61ea4",
    ),
    "flat-hybrid-batch": (
        dict(mode="flat", seed=7, broadcast="hybrid-batch"),
        "1ffbeca1c27107edfbdbe358577ca7d0624a2c71e6a70586d6961f75553e4105",
    ),
    "flat-lognormal-override": (
        dict(
            mode="flat",
            seed=5,
            workload=LOGNORMAL_OVERRIDE,
        ),
        "1a5a28b74c096f975055810a41b62fca222ba2b30cf64557941069a1460bedcb",
    ),
    "hybrid-empirical": (
        dict(
            mode="hybrid",
            seed=3,
            workload=WorkloadSpec(
                rate=0.2, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="empirical", size_params=(250, 400, 900)
            ),
        ),
        "b31f6bc3509e17170f227c9a3b78f98e6163bb3f1da801ef53cd90b86daaebd2",
    ),
    "concurrent-batch2": (
        dict(mode="concurrent", seed=9, max_child_batch=2, chain_target_times=(429.0, 124.0, 44.5)),
        "ec2cf3535a2b221ac134bc7865c0e63159984ca964afa60dbbac93cd77340b9d",
    ),
    "concurrent-4-levels": (
        dict(
            mode="concurrent",
            seed=17,
            num_levels=4,
            duration=600.0 * 60,
            chain_target_times=(600.0, 300.0, 120.0, 50.0),
        ),
        "f8cecb9c3fe3bfef7d8f984108ec735fb85fd374b2a5ae786d0ab48db9a4edcc",
    ),
    "concurrent-lognormal-override": (
        dict(
            mode="concurrent",
            seed=23,
            duration=600.0 * 80,
            chain_target_times=(429.0, 124.0, 44.5),
            workload=LOGNORMAL_OVERRIDE,
        ),
        "8bd92183f591ee1cdb51a15e2ce4fabbae627b2c3ffbf47b4673bb759514ab0b",
    ),
    "tree-4-levels": (
        dict(mode="tree", seed=19, num_levels=4, duration=600.0 * 60, miners=equal_miners(128)),
        "7dcfa50f00481695ce0cd32718e56480f0696c8b3a9a8ed09509a53086878099",
    ),
    "tree-lognormal-override": (
        dict(mode="tree", seed=29, duration=600.0 * 80, miners=equal_miners(48), workload=LOGNORMAL_OVERRIDE),
        "5d3ae21066bf55ed43af1b517c5013ce92f039e969c1fe6f9b35f3e180eeb679",
    ),
    "tree-unequal-miners": (
        dict(
            mode="tree",
            seed=31,
            duration=600.0 * 80,
            miners=tuple(Miner(b"miner-" + i.to_bytes(4, "big"), (1 + i % 5) * 1e16) for i in range(48)),
        ),
        "c5208e5b47932eb9a559498554c9b3ed82611b193b9f8b66717dd2c42efd85f0",
    ),
    # shard (2, 0) draws no miner in round 33, after two published calibrations
    "tree-stall": (
        dict(mode="tree", seed=5, miners=equal_miners(14), retarget_window=16),
        "8e8796664dbebd70e501c8b08e10bffd945835ee4ab146ef59c197f282961bf4",
    ),
}


def _check_digest(name, config, expected):
    digest = hashlib.sha256(simulate(config).canonical_json().encode()).hexdigest()
    assert digest == expected, (
        f"{name} report changed; digests were pinned on {PINNED_ON}, "
        f"this is {platform.platform()}, CPython {platform.python_version()}"
    )


@pytest.mark.parametrize("mode", sorted(CASES))
def test_canonical_json_digest(mode):
    overrides, expected = CASES[mode]
    _check_digest(mode, SimConfig(**{**BASE, **overrides}), expected)


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_digest(case):
    overrides, expected = PATH_CASES[case]
    _check_digest(case, SimConfig(**{**SHORT, **overrides}), expected)


# -- analysis path ------------------------------------------------------------

ANALYSIS_COMMANDS = {
    "segment": (
        ["segment", "--levels", "5", "--format", "delimited"],
        "2c0b91b5e8f9ddef35ab32507d4113445af95a557f2eeee0f40c9af533bb081e",
    ),
    "segment-rounded": (
        ["segment", "--levels", "4", "--mode", "rounded", "--format", "delimited"],
        "d44482b401d7276e6e0951a27663638c3d23154472dc2aa1e1045a8ac8b02996",
    ),
    "estimate": (
        ["estimate", "--levels", "5"],
        "54d1afd95a1f4fa47d07a8cb1c378056fa7e880728ff352a4c491f25779e3d6c",
    ),
}


def _analysis_rows(seed=2024, n=3000):
    """Seeded dataset rows with ties in beta, zero values and an extra column.

    Sizes come from a small set and every fifth value is a multiple of its
    size, so many rows share a beta exactly; some rows repeat an earlier
    (value, size) pair under a new txid.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        size = rng.choice((1, 2, 4, 250, 400, 401))
        kind = rng.random()
        if kind < 0.02:
            value = 0
        elif kind < 0.2:
            value = 8 * size * rng.choice((1, 10, 125, 1000, 4096))
        elif kind < 0.3 and rows:
            prev = rows[rng.randrange(len(rows))]
            size, value = prev.size, prev.output_value
        else:
            value = max(1, round(10.0 ** rng.gauss(3.0, 1.2) * 8 * size))
        rows.append(
            DatasetRow(
                block_height=700_000 + i // 40,
                txid=rng.getrandbits(256).to_bytes(32, "big").hex(),
                size=size,
                output_value=value,
                extras=(("n_outputs", str(rng.randrange(1, 5))),),
            )
        )
    return rows


@pytest.mark.parametrize("case", sorted(ANALYSIS_COMMANDS))
def test_analysis_digest(case, tmp_path):
    argv, expected = ANALYSIS_COMMANDS[case]
    path = tmp_path / "dataset.csv"
    write_dataset(path, _analysis_rows())
    out = io.StringIO()
    assert run_cli(argv + ["--dataset", str(path)], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == expected, (
        f"{case} output changed; digests were pinned on {PINNED_ON}, "
        f"this is {platform.platform()}, CPython {platform.python_version()}"
    )


# -- dataset generator ----------------------------------------------------------

GEN_ARGV = ["gen", "--rate", "3", "--duration", "2000", "--seed", "17", "--tx-bytes", "250", "--target", "120"]
GEN_ROWS = 6038
GEN_DIGEST = "0f468b14d9357cd10ba52a93a6ad131a992a2deca94a337b7b829184da7d1fee"


def test_gen_digest(tmp_path):
    out = io.StringIO()
    assert run_cli(GEN_ARGV + ["--out-dir", str(tmp_path), "--out", "gen.csv"], out=out) == 0
    assert out.getvalue().startswith(f"{GEN_ROWS} transactions -> ")
    digest = hashlib.sha256((tmp_path / "gen.csv").read_bytes()).hexdigest()
    assert digest == GEN_DIGEST, (
        f"gen output changed; digests were pinned on {PINNED_ON}, "
        f"this is {platform.platform()}, CPython {platform.python_version()}"
    )
