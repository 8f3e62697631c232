"""Golden digests: the sha256 of ``canonical_json()`` for short pinned configs,
and of the ``hbsim segment``/``estimate`` output on a seeded dataset.

``CASES`` holds one config per mode. ``PATH_CASES`` are shorter runs that
reach the paths those four never take: the per-subblock and hybrid-batch
broadcast policies, log-normal and empirical transaction sizes, user-chosen
levels, and a bounded child batch in concurrent mode. ``ANALYSIS_COMMANDS``
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
from hbsim.simulator import SimConfig, equal_miners, simulate

PINNED_ON = "Linux x86_64, glibc 2.36, CPython 3.11.7"

WORKLOAD = WorkloadSpec(rate=0.2, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="fixed", size_params=(400,))
BASE = dict(num_levels=3, duration=600.0 * 400, workload=WORKLOAD, retarget_window=32)

CASES = {
    "flat": (
        dict(mode="flat", seed=7),
        "6aff9e4bef9143b1c74bcd314f31ff5c98a2d7b8b86b1efaed05a5041cbbb23e",
    ),
    "hybrid": (
        dict(mode="hybrid", seed=11),
        "fd6e4d0fe0300b5c14fac4473c7d886c2112aff5242e1566862d8a72f324730f",
    ),
    "tree": (
        dict(mode="tree", seed=13, miners=equal_miners(48)),
        "24f70bf97c2d8450486dca5cd688264b3f2871ddb6c9a7cac0295579e4c3887b",
    ),
    "concurrent": (
        dict(mode="concurrent", seed=41, chain_target_times=(429.0, 124.0, 44.5)),
        "f4d07451bb06e15c3d5ce1b9ff2f7d8109433a34e446c710ddbfcce77188b227",
    ),
}

SHORT = dict(BASE, duration=600.0 * 200)

PATH_CASES = {
    "flat-per-subblock": (
        dict(mode="flat", seed=7, broadcast="per-subblock"),
        "3c037607b8e4c12162b7edf45c0918cb20a784415b29fbaabb28e18a014e1582",
    ),
    "flat-hybrid-batch": (
        dict(mode="flat", seed=7, broadcast="hybrid-batch"),
        "08783f4c2be7e179dc817b84f6e94bcb19d0cd8e805c363cf34fa9d75080daa4",
    ),
    "flat-lognormal-override": (
        dict(
            mode="flat",
            seed=5,
            workload=WorkloadSpec(
                rate=0.2,
                lg_beta_mu=3.0,
                lg_beta_sigma=1.0,
                size_mode="lognormal",
                size_params=(6.0, 0.4),
                level_override_fraction=0.2,
            ),
        ),
        "bf6fe54e3a5a6823b4d1ab0d58f7faa265b45b1357d039a7be9ec211dc9e7b78",
    ),
    "hybrid-empirical": (
        dict(
            mode="hybrid",
            seed=3,
            workload=WorkloadSpec(
                rate=0.2, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="empirical", size_params=(250, 400, 900)
            ),
        ),
        "70d7088751e5ff487b726819b67c0541307a80cb2f04acab9dc27685a4506150",
    ),
    "concurrent-batch2": (
        dict(mode="concurrent", seed=9, max_child_batch=2, chain_target_times=(429.0, 124.0, 44.5)),
        "7616e747f3e14d7207c886dbe6aafe1c95b7c69aa6704cd92352313ed3f3c7c1",
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
GEN_ROWS = 5994
GEN_DIGEST = "ec59a20b7a132e25890676ae301ddb8d8ed13409b70bf3eb714fc89a7e4c1ab7"


def test_gen_digest(tmp_path):
    out = io.StringIO()
    assert run_cli(GEN_ARGV + ["--out-dir", str(tmp_path), "--out", "gen.csv"], out=out) == 0
    assert out.getvalue().startswith(f"{GEN_ROWS} transactions -> ")
    digest = hashlib.sha256((tmp_path / "gen.csv").read_bytes()).hexdigest()
    assert digest == GEN_DIGEST, (
        f"gen output changed; digests were pinned on {PINNED_ON}, "
        f"this is {platform.platform()}, CPython {platform.python_version()}"
    )
