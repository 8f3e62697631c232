"""Dataset ingestion, synthetic workload generation, and report/figure files.

The dataset format is a comma-separated export with one row per transaction:
``block_height,txid,size,output_value`` plus any extra columns, size in bytes
and output_value in satoshi. Reports are versioned JSON documents. Figure
exports are delimited files whose first row names the series.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import ExtendedTransaction
from .segmentation import fit_lognormal, lg_beta_histogram
from . import sharding

MANDATORY_COLUMNS = ("block_height", "txid", "size", "output_value")
REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetRow:
    """One raw dataset record, extra columns carried along untouched."""

    block_height: int
    txid: str
    size: int
    output_value: int
    extras: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class LoadSummary:
    """Provenance of a dataset load."""

    path: str
    rows_read: int
    transactions: int
    dropped_zero_value: int
    num_blocks: int
    extra_columns: tuple[str, ...]


def _txid_to_bytes(txid: str) -> bytes:
    try:
        raw = bytes.fromhex(txid)
        if raw:
            return raw
    except ValueError:
        pass
    return txid.encode("utf-8")


def load_dataset(path: str | Path) -> tuple[list[ExtendedTransaction], LoadSummary]:
    """Load a transaction dataset file.

    Rows with a zero output value are dropped (and counted); everything else
    becomes an :class:`ExtendedTransaction` with lam=1 and no time investment,
    in file order.
    """
    path = Path(path)
    txs: list[ExtendedTransaction] = []
    dropped = 0
    rows_read = 0
    blocks: set[int] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in MANDATORY_COLUMNS:
            if col not in header:
                raise ValueError(f"{path}: missing mandatory column {col!r}")
        extra_columns = tuple(c for c in header if c not in MANDATORY_COLUMNS)
        for lineno, row in enumerate(reader, start=2):
            rows_read += 1
            try:
                height = int(row["block_height"])
                size = int(row["size"])
                value = int(row["output_value"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row {lineno}: {exc}") from None
            blocks.add(height)
            if value == 0:
                dropped += 1
                continue
            if size < 1:
                raise ValueError(f"{path}: malformed row {lineno}: size must be >= 1")
            txs.append(
                ExtendedTransaction(id=_txid_to_bytes(row["txid"]), value=value, size_bytes=size)
            )
    summary = LoadSummary(
        path=str(path),
        rows_read=rows_read,
        transactions=len(txs),
        dropped_zero_value=dropped,
        num_blocks=len(blocks),
        extra_columns=extra_columns,
    )
    return txs, summary


def write_dataset(path: str | Path, rows: Iterable[DatasetRow]) -> None:
    """Write dataset rows in the canonical column order."""
    path = Path(path)
    rows = list(rows)
    extra_names = list(rows[0].extras and [k for k, _ in rows[0].extras] or []) if rows else []
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(MANDATORY_COLUMNS) + extra_names)
            for row in rows:
                writer.writerow(
                    [row.block_height, row.txid, row.size, row.output_value]
                    + [v for _, v in row.extras]
                )
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path}: {exc}") from exc


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic workload: Poisson arrivals with log-normal value per bit.

    ``size_mode`` is one of ``fixed``, ``lognormal`` or ``empirical``;
    ``size_params`` carries (bytes,), (mu, sigma) of ln(bytes), or the sample
    population respectively. ``level_override_fraction`` of users pin their
    own level instead of accepting the default.
    """

    rate: float
    lg_beta_mu: float
    lg_beta_sigma: float
    size_mode: str = "fixed"
    size_params: tuple = (250,)
    level_override_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if self.lg_beta_sigma < 0.0:
            raise ValueError("lg_beta_sigma must be >= 0")
        if self.size_mode not in ("fixed", "lognormal", "empirical"):
            raise ValueError(f"unknown size_mode {self.size_mode!r}")
        if not (0.0 <= self.level_override_fraction <= 1.0):
            raise ValueError("level_override_fraction must be in [0, 1]")


def draw_value_size(spec: WorkloadSpec, rng: random.Random) -> tuple[int, int]:
    """Draw one transaction's (output value, size in bytes), in that draw order.

    Value per bit is 10^Normal(mu, sigma), drawn first; the value is that
    beta times the bit size, rounded to at least one satoshi.
    """
    beta = 10.0 ** rng.gauss(spec.lg_beta_mu, spec.lg_beta_sigma)
    if spec.size_mode == "fixed":
        size = int(spec.size_params[0])
    elif spec.size_mode == "lognormal":
        mu, sigma = spec.size_params
        size = max(1, round(rng.lognormvariate(mu, sigma)))
    else:
        size = int(spec.size_params[rng.randrange(len(spec.size_params))])
    return max(1, round(beta * 8 * size)), size


def generate_workload(
    spec: WorkloadSpec,
    rng: random.Random,
    duration: float,
    input_refs: Sequence[bytes] | None = None,
    num_levels: int | None = None,
) -> list[tuple[float, ExtendedTransaction]]:
    """Generate (arrival_time, transaction) events over ``duration`` seconds.

    Values and sizes come from :func:`draw_value_size`. Input references
    come from ``input_refs`` when supplied, otherwise they are synthetic.
    """
    events: list[tuple[float, ExtendedTransaction]] = []
    t = 0.0
    while True:
        t += rng.expovariate(spec.rate)
        if t >= duration:
            break
        value, size = draw_value_size(spec, rng)
        tx_id = rng.getrandbits(256).to_bytes(32, "big")
        if input_refs:
            ref = input_refs[rng.randrange(len(input_refs))]
        else:
            ref = rng.getrandbits(256).to_bytes(32, "big")
        requested = None
        if num_levels and spec.level_override_fraction > 0.0:
            if rng.random() < spec.level_override_fraction:
                requested = rng.randrange(num_levels)
        events.append(
            (
                t,
                ExtendedTransaction(
                    id=tx_id,
                    value=value,
                    size_bytes=size,
                    input_ref=ref,
                    requested_level=requested,
                ),
            )
        )
    return events


def write_report(report, path: str | Path) -> None:
    """Serialize a report (anything with ``to_dict`` or a plain dict) as JSON."""
    path = Path(path)
    payload = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    payload = {"format_version": REPORT_FORMAT_VERSION, **payload}
    try:
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str | Path) -> dict:
    """Read a JSON report written by :func:`write_report`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    if payload.get("format_version") != REPORT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported report format version {payload.get('format_version')}")
    return payload


def _write_delimited(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write figure data to {path}: {exc}") from exc


def export_sharding_efficiency(path: str | Path, max_levels: int = 24, fixed_n: int = 4200) -> None:
    """Sharding-efficiency curves: lg of the MFN ratio (two regimes) and capacity."""
    rows = []
    for L in range(1, max_levels + 1):
        rows.append(
            [
                L,
                math.log10(sharding.mfn_ratio(fixed_n, L)),
                math.log10(sharding.mfn_ratio(2**L - 1, L)),
                math.log10(sharding.tree_throughput(L)),
            ]
        )
    _write_delimited(
        Path(path),
        ["L", f"lg_r_N_{fixed_n}", "lg_r_N_2^L-1", "lg_throughput_per_600s"],
        rows,
    )


def export_mfn_download(
    path: str | Path, rates: Sequence[float] = (1700, 10000, 50000), max_levels: int = 29
) -> None:
    """Daily MFN download bound in lg(MB) per level count, one series per rate."""
    rows = []
    for L in range(1, max_levels + 1):
        rows.append(
            [L]
            + [
                math.log10(sharding.rate_to_mb_per_day(sharding.mfn_download_rate(n, L)))
                for n in rates
            ]
        )
    _write_delimited(
        Path(path), ["L"] + [f"lg_download_mb_day_n_{int(n)}" for n in rates], rows
    )


def export_optimal_levels(
    path: str | Path, n_lo: int = 100, n_hi: int = 50000, step: int = 100
) -> None:
    """Download-optimal level count and resulting daily storage over a rate sweep."""
    rows = []
    for n in range(n_lo, n_hi + 1, step):
        opt = sharding.optimal_levels(n)
        rows.append([n, opt.levels, opt.store_mb_day, opt.download_mb_day])
    _write_delimited(Path(path), ["n", "L_argmin", "store_mb_day", "download_mb_day"], rows)


def export_beta_histogram(path: str | Path, txs, bins: int = 100) -> None:
    """lg(beta) histogram of a transaction set with the fitted normal overlay."""
    edges, densities = lg_beta_histogram(txs, bins=bins)
    fit = fit_lognormal(txs)
    rows = []
    for i, density in enumerate(densities):
        center = (edges[i] + edges[i + 1]) / 2
        overlay = float(fit.pdf(center)) if fit.sigma > 0 else ""
        rows.append([center, density, overlay])
    _write_delimited(Path(path), ["lg_beta_bin_center", "density", "fitted_pdf"], rows)
