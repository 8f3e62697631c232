"""Dataset ingestion, synthetic workload generation, and report/figure files.

The dataset format is a comma-separated export with one row per transaction:
``block_height,txid,size,output_value`` plus any extra columns, size in bytes
and output_value in satoshi. Reports are versioned JSON documents. Figure
exports are delimited files whose first row names the series.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ExtendedTransaction
from .segmentation import TransactionTable, fit_lognormal, lg_beta_histogram
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


# Values and sizes at or above 2^53 would lose exactness when beta divides
# them as binary floats; the loader rejects them.
MAX_EXACT_INT = 2**53
_CHUNK_CHARS = 1 << 20
_CHUNK_ROWS = 1 << 14
_INT64 = range(-(2**63), 2**63)


def _column_chunks(fh, header: list[str]) -> Iterator[tuple[Sequence, ...]]:
    """The records after the header, in chunks of (height, txid, size, value) columns.

    A chunk of plain lines (no quote, NUL or carriage return outside a CRLF
    line end, and the header's field count on every line) is split on commas
    directly. From the first other chunk on, ``csv.reader`` parses the rest
    of the file; it skips blank lines and gives a short record None for its
    missing fields, as ``csv.DictReader`` does.
    """
    index = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    picks = [index[c] for c in MANDATORY_COLUMNS]
    width = len(header)
    while text := fh.read(_CHUNK_CHARS):
        text += fh.readline()
        if not text.endswith("\n"):
            text += "\n"
        codes = np.frombuffer(text.encode(), dtype=np.uint8)
        line_ends = np.flatnonzero(codes == ord("\n"))
        commas = np.diff(np.searchsorted(np.flatnonzero(codes == ord(",")), line_ends), prepend=0)
        if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n") or (commas != width - 1).any():
            break
        flat = text.replace("\r\n", ",") if "\r" in text else text
        fields = (flat.replace("\n", ",") if "\n" in flat else flat).split(",")
        fields.pop()
        yield tuple(fields[i::width] for i in picks)
    else:
        return
    reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
    short = max(picks) + 1
    while raw := list(itertools.islice(reader, _CHUNK_ROWS)):
        rows = [row for row in raw if row]
        if rows and min(map(len, rows)) < short:
            rows = [row + [None] * (short - len(row)) for row in rows]
        if rows:
            columns = list(zip(*rows))
            yield tuple(columns[i] for i in picks)


def _row_error(fields: tuple) -> str | None:
    """Why one record (height, txid, size, value) is rejected, or None.

    The scalar statement of the rules :func:`load_dataset` applies to whole
    columns; the loader calls it only to name the first bad record.
    """
    height, txid, size, value = fields
    try:
        height, size, value = int(height), int(size), int(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    if txid is None:
        return "missing txid"
    for name, field in (("size", size), ("output_value", value)):
        if field not in _INT64:
            return f"{name} {field} is out of range"
    if value == 0:
        return None
    if size < 1:
        return "size must be >= 1"
    if value < 0:
        return f"output_value must be >= 0, got {value}"
    if value >= MAX_EXACT_INT or size >= MAX_EXACT_INT:
        return "output_value and size must be below 2^53"
    return None


def _int64(fields: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(int, fields), dtype=np.int64, count=len(fields))


def load_dataset(path: str | Path) -> tuple[TransactionTable, LoadSummary]:
    """Load a transaction dataset file as a :class:`TransactionTable`.

    Blank lines are skipped and not counted. Rows with a zero output value
    are dropped (and counted); every other row becomes a transaction with
    lam=1 and no time investment, in file order. These rows are errors that
    name the row (the header is row 1, blank lines are not counted): a
    missing or non-integer field, a size or value outside int64, and, unless
    the value is zero, a size below 1, a negative value, or a value or size
    at or above 2^53.
    """
    path = Path(path)
    rows_read = dropped = 0
    empty = np.zeros(0, dtype=np.int64)
    blocks: set[int] = set()
    values, sizes, txid_lengths = [empty], [empty], [empty]
    txids_utf8 = bytearray()
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        for col in MANDATORY_COLUMNS:
            if col not in header:
                raise ValueError(f"{path}: missing mandatory column {col!r}")
        extra_columns = tuple(c for c in header if c not in MANDATORY_COLUMNS)
        for columns in _column_chunks(fh, header):
            height_s, txids, size_s, value_s = columns
            first_row = rows_read + 2
            rows_read += len(txids)
            try:
                blocks.update(map(int, set(height_s)))
                size, value = _int64(size_s), _int64(value_s)
                keep = value != 0
                bad = keep & ((size < 1) | (size >= MAX_EXACT_INT) | (value < 0) | (value >= MAX_EXACT_INT))
                valid = not bad.any()
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                for lineno, record in enumerate(zip(*columns), start=first_row):
                    reason = _row_error(record)
                    if reason:
                        raise ValueError(f"{path}: malformed row {lineno}: {reason}")
            dropped += len(txids) - int(np.count_nonzero(keep))
            values.append(value[keep])
            sizes.append(size[keep])
            kept_txids = list(itertools.compress(txids, keep))
            joined = "".join(kept_txids)
            txids_utf8 += joined.encode()
            if not joined.isascii():
                kept_txids = [t.encode() for t in kept_txids]
            txid_lengths.append(np.fromiter(map(len, kept_txids), dtype=np.int64, count=len(kept_txids)))
    lengths = np.concatenate(txid_lengths)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    table = TransactionTable(
        np.concatenate(values),
        np.concatenate(sizes),
        txids_utf8=txids_utf8,
        txid_offsets=offsets,
    )
    summary = LoadSummary(
        path=str(path),
        rows_read=rows_read,
        transactions=len(table),
        dropped_zero_value=dropped,
        num_blocks=len(blocks),
        extra_columns=extra_columns,
    )
    return table, summary


def write_dataset(path: str | Path, rows: Iterable[DatasetRow]) -> int:
    """Write dataset rows in the canonical column order, as they come.

    The first row's extras name the extra columns. Returns the row count.
    """
    path = Path(path)
    rows = iter(rows)
    first = next(rows, None)
    extra_names = []
    if first is not None:
        extra_names = [k for k, _ in first.extras]
        rows = itertools.chain((first,), rows)
    count = 0
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(MANDATORY_COLUMNS) + extra_names)
            for row in rows:
                writer.writerow(
                    [row.block_height, row.txid, row.size, row.output_value]
                    + [v for _, v in row.extras]
                )
                count += 1
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path}: {exc}") from exc
    return count


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic workload: Poisson arrivals with log-normal value per bit.

    ``size_mode`` is one of ``fixed``, ``lognormal`` or ``empirical``;
    ``size_params`` carries (bytes,), (mu, sigma) of ln(bytes) with
    sigma >= 0, or the sample population respectively. A fixed or empirical
    size is taken as ``int`` and must be at least 1 byte, so every drawn size
    is; log-normal draws are floored at 1. ``level_override_fraction`` of
    users pin their own level instead of accepting the default.
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
        if self.size_mode == "lognormal":
            if len(self.size_params) != 2:
                raise ValueError(f"lognormal size_params must be (mu, sigma), got {self.size_params!r}")
            if self.size_params[1] < 0.0:
                raise ValueError(f"lognormal size_params sigma must be >= 0, got {self.size_params[1]}")
        else:
            if not self.size_params:
                raise ValueError(f"{self.size_mode} size_params must hold at least one size")
            bad = [size for size in self.size_params if int(size) < 1]
            if bad:
                raise ValueError(f"{self.size_mode} sizes must be >= 1 byte, got {bad[0]}")
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
    spec: WorkloadSpec, rng: random.Random, duration: float
) -> Iterator[tuple[float, ExtendedTransaction]]:
    """Yield (arrival_time, transaction) events over ``duration`` seconds, as drawn.

    Each event draws its interarrival time, then its value and size from
    :func:`draw_value_size`, then its 256-bit id. The transactions are
    dataset rows: they have no input reference and no requested level.
    """
    t = 0.0
    while True:
        t += rng.expovariate(spec.rate)
        if t >= duration:
            return
        value, size = draw_value_size(spec, rng)
        tx_id = rng.getrandbits(256).to_bytes(32, "big")
        yield t, ExtendedTransaction(id=tx_id, value=value, size_bytes=size)


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
