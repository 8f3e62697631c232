"""Golden digests: the sha256 of ``canonical_json()`` for one short config per mode.

The determinism tests elsewhere compare two runs of the same code, so they
cannot notice a refactor that changes the report. These digests can. A change
that means to alter behaviour re-pins them and says why; any other change must
leave them as they are.

The reports depend on libm through ``gauss``, ``expovariate`` and ``log10``,
so the digests hold for the platform they were pinned on:
Linux x86_64 (glibc 2.36), CPython 3.11.7.
"""

import hashlib
import platform

import pytest

from hbsim.dataio import WorkloadSpec
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


@pytest.mark.parametrize("mode", sorted(CASES))
def test_canonical_json_digest(mode):
    overrides, expected = CASES[mode]
    report = simulate(SimConfig(**{**BASE, **overrides}))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == expected, (
        f"{mode} report changed; digests were pinned on {PINNED_ON}, "
        f"this is {platform.platform()}, CPython {platform.python_version()}"
    )
