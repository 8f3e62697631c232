"""Splitting a transaction set into security levels by value per bit.

The lg(beta) range of the input set is divided into L equal sub-intervals
(``lg`` is log base 10 throughout). Level 0 holds the highest values per bit.
A level may legitimately come out empty. The per-level summary statistics and
the log-normal fit of lg(beta) feed the calibration formulas in
:mod:`hbsim.economics`.

A transaction set is held as columns (:class:`TransactionTable`), and the
results are those of a per-transaction loop, bit for bit:

- beta is ``value / (8 * size)``, one correctly rounded division;
- the lg values that place transactions and set the cut points come from
  ``math.log10``. Only rows with beta within ``_LG_WINDOW`` (1e-6) of a cut
  point, in lg, get an lg at all; every other row is on a side of it that
  its beta shows. numpy's ``log10`` can differ from ``math.log10`` in the
  last bit, so it only screens those rows: a row whose numpy lg lies within
  ``_LG_SCREEN`` (1e-9) of a cut point gets ``math.log10``, and every other
  row is on the same side of each cut point by either function. The
  log-normal fit and the histogram use numpy's;
- ties in beta are ordered by id: for a loaded table whose tied txids are all
  lowercase hex of one non-zero length, by one numpy sort of their text,
  which orders them like their ids (decoded bytes, or UTF-8 bytes at an odd
  length); any other tie set through the decoded ids, row by row;
- ``beta_mean`` is a sequential left-to-right sum of the level's betas in
  descending-beta order, divided by the count;
- integer totals (value, size, bits) are exact Python ints, whatever their
  size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ExtendedTransaction

MODE_UNIFORM = "uniform"
MODE_ROUNDED = "rounded"
_ITER_ROWS = 1 << 12
_LOWER_HEX = b"0123456789abcdef"
# numpy's log10 lies within a few ulp of math.log10, and an ulp of any float64
# lg (|lg| < 324) is below 1e-13; a row further than this from a cut point is
# on the same side of it by either function.
_LG_SCREEN = 1e-9
# The cut search reads only the rows within this margin, in lg, of a bound.
# 10.0**x is within an ulp of exact (a relative error below 3e-16, or 1e-16 in
# lg), and either log10 is within 1e-13 of the exact lg; both are far inside
# the margin. So a row with beta at or above 10**(bound + _LG_WINDOW) is at or
# above the bound by either function, and one below 10**(bound - _LG_WINDOW)
# falls below it.
_LG_WINDOW = 1e-6


def txid_to_bytes(txid: str) -> bytes:
    """A dataset txid as a transaction id: its hex decoding, else its UTF-8 bytes."""
    try:
        raw = bytes.fromhex(txid)
        if raw:
            return raw
    except ValueError:
        pass
    return txid.encode("utf-8")


class TransactionTable(Sequence[ExtendedTransaction]):
    """A read-only transaction set stored as columns.

    ``values`` and ``sizes`` hold one row per transaction (int64, or Python
    ints past int64) and ``beta`` its value per bit. Rows come either from
    kept :class:`ExtendedTransaction` objects (see :func:`_columns`) or from a
    loaded dataset, whose txids stay as one UTF-8 text with a byte offset per
    row; indexing and iteration then build each transaction on demand, with
    lam=1 and no time investment.
    """

    def __init__(
        self,
        values: np.ndarray,
        sizes: np.ndarray,
        beta: np.ndarray | None = None,
        *,
        objects: Sequence[ExtendedTransaction] | None = None,
        txids_utf8: bytes | bytearray | np.ndarray = b"",
        txid_offsets: np.ndarray | None = None,
    ):
        if beta is None:
            beta = values / (8 * sizes)
        for column in (values, sizes, beta):
            column.setflags(write=False)
        self.values = values
        self.sizes = sizes
        self.beta = beta
        self._objects = objects
        self._txids = txids_utf8
        self._offsets = txid_offsets

    def __len__(self) -> int:
        return len(self.values)

    def ids(self, rows: np.ndarray) -> list[bytes]:
        """The transaction ids at ``rows``, in that order."""
        if self._objects is not None:
            return [self._objects[row].id for row in rows.tolist()]
        txids = memoryview(self._txids)
        starts = self._offsets[rows].tolist()
        ends = self._offsets[rows + 1].tolist()
        return [txid_to_bytes(txids[a:b].tobytes().decode()) for a, b in zip(starts, ends)]

    def hex_ids(self, rows: np.ndarray) -> np.ndarray | None:
        """The txid texts at ``rows`` as one row of bytes each, if they sort like the ids.

        That holds for a loaded table whose txids at ``rows`` (at least one)
        are all lowercase hex of one non-zero length: at an even length each
        decodes to its hex bytes, at an odd length none decodes and each is
        kept as its UTF-8 bytes, and equal-length lowercase hex text sorts
        like either. Otherwise None.
        """
        if self._objects is not None:
            return None
        starts = self._offsets[rows]
        lengths = self._offsets[rows + 1] - starts
        width = int(lengths[0])
        if width == 0 or (lengths != width).any():
            return None
        text = sliding_window_view(np.frombuffer(self._txids, dtype=np.uint8), width)[starts]
        if text.tobytes().translate(None, _LOWER_HEX):
            return None
        return text

    def take(self, rows: np.ndarray) -> tuple[ExtendedTransaction, ...]:
        """The transactions at ``rows``, in that order."""
        if self._objects is not None:
            return tuple(self._objects[row] for row in rows.tolist())
        return tuple(
            ExtendedTransaction(id=i, value=v, size_bytes=s)
            for i, v, s in zip(self.ids(rows), self.values[rows].tolist(), self.sizes[rows].tolist())
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self.take(np.arange(len(self))[index]))
        return self.take(np.array([range(len(self))[index]]))[0]

    def __iter__(self) -> Iterator[ExtendedTransaction]:
        for start in range(0, len(self), _ITER_ROWS):
            yield from self.take(np.arange(start, min(start + _ITER_ROWS, len(self))))


def _int_column(ints: list[int]) -> np.ndarray:
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _columns(txs: Iterable[ExtendedTransaction]) -> TransactionTable:
    """``txs`` as a table; a plain collection keeps its objects as the rows.

    Beta is divided per object in Python, so it stays exact for any integer
    value and size.
    """
    if isinstance(txs, TransactionTable):
        return txs
    objects = tuple(txs)
    return TransactionTable(
        _int_column([t.value for t in objects]),
        _int_column([t.size_bytes for t in objects]),
        np.array([t.value / (8 * t.size_bytes) for t in objects], dtype=np.float64),
        objects=objects,
    )


@dataclass(frozen=True, eq=False)
class Segmentation:
    """L levels plus the L+1 descending lg-beta cut points between them.

    Membership rule: a transaction sits in level l iff
    ``boundaries[l] >= lg(beta) > boundaries[l+1]``, with the lowest boundary
    inclusive. A lg(beta) exactly on an interior cut point therefore belongs
    to the higher-beta level.

    ``order`` lists the table's rows by descending beta, ties by id and then
    row; level l is the run ``order[cuts[l]:cuts[l+1]]``. ``ranked_beta`` is
    the beta column in that order.
    """

    table: TransactionTable
    order: np.ndarray
    ranked_beta: np.ndarray
    cuts: tuple[int, ...]
    boundaries: tuple[float, ...]
    mode: str

    @property
    def num_levels(self) -> int:
        return len(self.cuts) - 1

    def rows(self, level: int) -> np.ndarray:
        """Table rows of ``level``, by descending beta."""
        return self.order[self.cuts[level] : self.cuts[level + 1]]

    @cached_property
    def levels(self) -> tuple[tuple[ExtendedTransaction, ...], ...]:
        """Each level's transactions, in ``order``."""
        return tuple(self.table.take(self.rows(l)) for l in range(self.num_levels))


@dataclass(frozen=True)
class LevelSummary:
    """Summary statistics of one level; means are None when the level is empty."""

    count: int
    beta_min: float | None
    beta_max: float | None
    beta_mean: float | None
    value_min: int | None
    value_max: int | None
    value_mean: float | None
    value_total: int
    size_mean_bytes: float | None
    bits_total: int


@dataclass(frozen=True)
class LevelStats:
    """Per-level summaries for a whole segmentation."""

    levels: tuple[LevelSummary, ...]

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, idx: int) -> LevelSummary:
        return self.levels[idx]

    @property
    def beta_means(self) -> tuple[float | None, ...]:
        return tuple(s.beta_mean for s in self.levels)


@dataclass(frozen=True)
class LogNormalFit:
    """Fitted normal parameters of lg(beta): mean and n-1 sample deviation."""

    mu: float
    sigma: float

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density of the fitted normal in lg-space (overlay curve for histograms)."""
        if self.sigma == 0.0:
            raise ValueError("pdf is degenerate for sigma = 0")
        return np.exp(-((x - self.mu) ** 2) / (2 * self.sigma**2)) / (self.sigma * math.sqrt(2 * math.pi))


def _boundaries(lg_max: float, step: float, num_levels: int) -> tuple[float, ...]:
    return tuple(lg_max - l * step for l in range(num_levels + 1))


def _order_ties_by_id(table: TransactionTable, order: np.ndarray, ranked: np.ndarray) -> None:
    """Sort each run of equal beta in ``order`` by transaction id, then row, in place."""
    same = ranked[1:] == ranked[:-1]
    if not same.any():
        return
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = np.flatnonzero(tied)
    run = np.r_[0, np.cumsum(ranked[at[1:]] != ranked[at[:-1]])]
    rows = order[at]
    text = table.hex_ids(rows)
    if text is None:
        order[at] = [row for *_, row in sorted(zip(run.tolist(), table.ids(rows), rows.tolist()))]
        return
    # One key per tied row: its run, txid text and row, compared as raw bytes
    # (unstructured void values compare bytewise); runs and rows are big-endian.
    key = np.concatenate([_big_endian_bytes(run), text, _big_endian_bytes(rows)], axis=1)
    order[at] = rows[np.argsort(key.view(f"V{key.shape[1]}").ravel())]


def _big_endian_bytes(ints: np.ndarray) -> np.ndarray:
    """Non-negative ints as rows of 8 big-endian bytes, which sort like the ints."""
    return ints.astype(">u8").view(np.uint8).reshape(-1, 8)


def _cuts(ranked: np.ndarray, lg_max: float, lg_min: float, bounds: Sequence[float]) -> tuple[int, ...]:
    """The row of ``ranked`` (descending) at which each level starts, plus the row count.

    After each bound a level starts at the first row, at or after the previous
    level's start, whose ``math.log10`` falls below the bound. Only a row of
    the bound's window can be that row. One ``searchsorted`` finds each
    window's ends: the rows before it have beta at or above 10**(bound +
    ``_LG_WINDOW``) and lie at or above the bound, and the rows from its end
    on have beta below 10**(bound - ``_LG_WINDOW``) and fall below it. That
    holds because ``10.0**x`` and both log10s err by under 1e-13 in lg, far
    inside the 1e-6 margin. Only the rows of the windows get an lg: numpy's
    log10 screens them, and a row within ``_LG_SCREEN`` of some bound gets
    ``math.log10``, once. ``lg_max`` and ``lg_min`` are ``math.log10`` of the
    first and last rows and stand in for theirs.
    """
    n = len(ranked)
    # near the ends of float64's range 10.0**x overflows or turns subnormal,
    # which loses precision; the window of such a bound holds every row
    edges = [
        (10.0 ** (bound + _LG_WINDOW), 10.0 ** (bound - _LG_WINDOW)) if -307 < bound < 308 else (math.inf, 0.0)
        for bound in bounds
    ]
    windows = (n - np.searchsorted(ranked[::-1], edges)).tolist()
    lg = np.empty(n)  # written, and read, only inside the windows
    lg[0], lg[-1] = lg_max, lg_min
    done = 1  # the rows below this one that lie in a window have their lg
    for start, end in sorted(windows):
        start, end = max(start, done), min(end, n - 1)
        if start < end:
            part = np.log10(ranked[start:end])
            near = (np.abs(np.subtract.outer(part, bounds)) < _LG_SCREEN).any(axis=1)
            part[near] = [math.log10(beta) for beta in ranked[start:end][near].tolist()]
            lg[start:end] = part
            done = end
    cuts = [0]
    for bound, (start, end) in zip(bounds, windows):
        start = max(start, cuts[-1])
        below = lg[start:end] < bound
        cuts.append(start + int(below.argmax()) if below.any() else max(start, end))
    cuts.append(n)
    return tuple(cuts)


def segment(
    num_levels: int,
    txs: Sequence[ExtendedTransaction],
    mode: str = MODE_UNIFORM,
) -> Segmentation:
    """Partition ``txs`` into ``num_levels`` levels by descending value per bit.

    The transactions are sorted by beta descending, ties broken by id and
    then by position in ``txs``. Each level ends at the first transaction
    after its start whose lg(beta) falls below the next cut point.

    ``mode`` selects how the interval step is computed: ``uniform`` spans
    exactly the observed lg-beta range, ``rounded`` widens it to whole
    decades before dividing.
    """
    if num_levels < 1:
        raise ValueError("num_levels must be >= 1")
    if not txs:
        raise ValueError("cannot segment an empty transaction set")
    if mode not in (MODE_UNIFORM, MODE_ROUNDED):
        raise ValueError(f"unknown segmentation mode {mode!r}")
    table = _columns(txs)
    order = np.argsort(-table.beta)
    ranked = table.beta[order]
    _order_ties_by_id(table, order, ranked)
    order.setflags(write=False)
    ranked.setflags(write=False)
    lg_max = math.log10(ranked[0])
    lg_min = math.log10(ranked[-1]) if len(ranked) > 1 else lg_max
    if mode == MODE_UNIFORM:
        step = (lg_max - lg_min) / num_levels
    else:
        step = (math.ceil(lg_max) - math.floor(lg_min)) / num_levels
    boundaries = _boundaries(lg_max, step, num_levels)
    return Segmentation(
        table=table,
        order=order,
        ranked_beta=ranked,
        cuts=_cuts(ranked, lg_max, lg_min, boundaries[1:num_levels]),
        boundaries=boundaries,
        mode=mode,
    )


def _exact_sum(column: np.ndarray) -> int:
    """Sum of a column of positive integers as a Python int, exact past int64."""
    if column.dtype == object or len(column) * int(column.max()) >= 2**63:
        return sum(column.tolist())
    return int(column.sum())


def _summary(beta: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> LevelSummary:
    n = len(beta)
    if not n:
        return LevelSummary(0, None, None, None, None, None, None, 0, None, 0)
    value_total = _exact_sum(values)
    size_total = _exact_sum(sizes)
    return LevelSummary(
        count=n,
        beta_min=float(beta.min()),
        beta_max=float(beta.max()),
        # add.accumulate runs strictly left to right, like a Python loop;
        # a plain np.sum adds pairwise and can differ in the last bits.
        beta_mean=float(np.add.accumulate(beta)[-1]) / n,
        value_min=int(values.min()),
        value_max=int(values.max()),
        value_mean=value_total / n,
        value_total=value_total,
        size_mean_bytes=size_total / n,
        bits_total=8 * size_total,
    )


def summarize_level(txs: Iterable[ExtendedTransaction]) -> LevelSummary:
    """Compute one level's summary row from its member transactions, in their order."""
    table = _columns(txs)
    return _summary(table.beta, table.values, table.sizes)


def level_stats(seg: Segmentation) -> LevelStats:
    """Per-level summary statistics of a segmentation."""
    beta = seg.ranked_beta
    values = seg.table.values[seg.order]
    sizes = seg.table.sizes[seg.order]
    return LevelStats(
        tuple(_summary(beta[a:b], values[a:b], sizes[a:b]) for a, b in zip(seg.cuts, seg.cuts[1:]))
    )


def fit_lognormal(txs: Sequence[ExtendedTransaction]) -> LogNormalFit:
    """Fit lg(beta) of the transaction set with a normal (n-1 deviation)."""
    beta = _columns(txs).beta
    if len(beta) < 2:
        raise ValueError("need at least 2 positive-value transactions to fit")
    lg = np.log10(beta)
    mu = float(np.sum(lg) / len(lg))
    sigma = float(np.sqrt(np.sum((lg - mu) ** 2) / (len(lg) - 1)))
    return LogNormalFit(mu=mu, sigma=sigma)


def lg_beta_histogram(
    txs: Sequence[ExtendedTransaction], bins: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram of lg(beta); returns (bin_edges, densities)."""
    densities, edges = np.histogram(np.log10(_columns(txs).beta), bins=bins, density=True)
    return edges, densities
