"""Dataset ingestion, synthetic workload generation, and report/figure files.

The dataset format is a comma-separated export with one row per transaction:
``block_height,txid,size,output_value`` plus any extra columns, size in bytes
and output_value in satoshi. Reports are versioned JSON documents. Figure
exports are delimited files whose first row names the series.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import math
import random
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ExtendedTransaction
from .segmentation import TransactionTable
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
_CHUNK_BYTES = 1 << 20
_CHUNK_ROWS = 1 << 14
_INT64 = range(-(2**63), 2**63)
# A plain int field has at most 18 ASCII digits, so it always fits in int64.
# It is read as up to three little-endian 8-byte words ending at its last
# byte; a chunk starts with _PAD filler bytes so that every word lies inside it.
_DIGITS = 18
_PAD = 24
_PADDING = b"0" * _PAD
_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # "00000000"
_HIGH_BITS = _U64(0x8080808080808080)
_BELOW_TEN = _U64(0x7676767676767676)  # a byte below 0x80 passes 0x7F when 0x76 is added iff it is >= 10
# _KEEP[k] keeps the k highest-addressed bytes of a word and zeroes the rest
_KEEP = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * k) - 1) for k in range(9)], dtype=np.uint64)
_NUL, _LF, _CR, _QUOTE, _COMMA = b'\0\n\r",'


def _digit_column(words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The int64 values of the fields at bytes ``[starts, ends)``, or None
    unless every field is 1-18 ASCII digits. ``words[i]`` is the 8-byte word
    at byte i.

    The bytes of a word that lie before its field are zeroed, so they read as
    leading zeros. Each word's eight digits are combined in three
    multiply-shift steps, pairs, then quads, then the whole word (Lemire,
    "Faster parsing of integers", 2018).
    """
    lengths = ends - starts
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _DIGITS:
        return None
    total = np.zeros(len(ends), dtype=np.uint64)
    for j in range(-(-longest // 8)):
        word = words[ends - 8 * (j + 1)] ^ _ZEROS  # a digit byte becomes its value 0-9
        word &= _KEEP[np.clip(lengths - 8 * j, 0, 8)]
        if (((word + _BELOW_TEN) | word) & _HIGH_BITS).any():
            return None
        word = (word * _U64(10 * 2**8 + 1) >> _U64(8)) & _U64(0x00FF00FF00FF00FF)
        word = (word * _U64(100 * 2**16 + 1) >> _U64(16)) & _U64(0x0000FFFF0000FFFF)
        word = word * _U64(10000 * 2**32 + 1) >> _U64(32)
        total += word * _U64(10 ** (8 * j))
    return total.astype(np.int64)


def _gather(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray) -> None:
    """Write the fields ``buf[starts:ends]``, joined, into ``out``, for
    ascending, non-overlapping fields."""
    lengths = ends - starts
    width = int(lengths[0]) if len(lengths) else 0
    if width and (lengths == width).all():
        # each field as one item of ``width`` bytes: fancy indexing copies an
        # item whole, about twice as fast as a row of a sliding-window view,
        # and np.take with out= is far slower than either
        fields = np.ndarray((len(buf) - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
        out.view(f"V{width}")[:] = fields[starts]
        return
    filled = lengths > 0  # an empty field would cancel a field that starts where it is
    inside = np.zeros(len(buf) + 1, dtype=np.int8)
    inside[starts[filled]] = 1
    inside[ends[filled]] -= 1
    np.cumsum(inside, out=inside)
    out[:] = buf[inside[:-1].view(bool)]


def _plain_chunk(data: bytes, picks: list[int], width: int):
    """Heights and sizes of the rows of a plain chunk, the chunk as bytes and
    as words (see :func:`_digit_column`), and the starts and ends of its
    values and of its txids; or None if the chunk is not plain.

    Plain means no quote or NUL, every CR part of a CRLF, ``width`` fields
    on every line, and heights, sizes and values of 1-18 ASCII digits each.
    The values are left to the caller, which must parse them with
    :func:`_digit_column` before it takes the chunk as plain.
    ``data`` is _PAD filler bytes, then the chunk, which ends with a line end.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    # one pass finds every byte up to the comma: delimiters, CRs, quotes, NULs, spaces
    delims = np.flatnonzero(buf <= _COMMA)
    kinds = buf[delims]
    is_delim = (kinds == _COMMA) | (kinds == _LF) | (kinds == _CR)
    if not is_delim.all():
        other = kinds[~is_delim]
        if ((other == _QUOTE) | (other == _NUL)).any():
            return None
        delims, kinds = delims[is_delim], kinds[is_delim]
    crs = np.flatnonzero(kinds == _CR)
    if len(crs):
        # a CRLF is one line end at its CR; a CR without its LF is not plain
        lfs = crs + 1
        if (kinds[lfs] != _LF).any() or (delims[lfs] != delims[crs] + 1).any():
            return None
        delims, kinds = np.delete(delims, lfs), np.delete(kinds, lfs)
    if len(delims) % width:
        return None
    delims, kinds = delims.reshape(-1, width), kinds.reshape(-1, width)
    if (kinds[:, :-1] != _COMMA).any() or (kinds[:, -1] == _COMMA).any():
        return None
    line_starts = np.concatenate(([_PAD], delims[:-1, -1] + 1 + (kinds[:-1, -1] == _CR)))
    bounds = [(delims[:, c - 1] + 1 if c else line_starts, delims[:, c]) for c in picks]
    heights, sizes = (_digit_column(words, *bounds[i]) for i in (0, 2))
    if heights is None or sizes is None:
        return None
    return heights, sizes, buf, words, bounds[3], bounds[1]


def _raise_row_error(path: Path, first_row: int, records: Iterable[tuple]) -> None:
    """Raise the error that names the first rejected record."""
    for lineno, record in enumerate(records, start=first_row):
        reason = _row_error(record)
        if reason:
            raise ValueError(f"{path}: malformed row {lineno}: {reason}")


def _out_of_range(sizes: np.ndarray, values: np.ndarray) -> bool:
    """Whether a row with a non-zero value has a size or value it must not have."""
    bad = (sizes < 1) | (sizes >= MAX_EXACT_INT) | (values < 0) | (values >= MAX_EXACT_INT)
    return bool((bad & (values != 0)).any())


def _text_lines(data: bytes, ahead: collections.deque, fh: io.TextIOWrapper) -> Iterator[str]:
    """The lines of ``data``, then of each chunk in ``ahead``, then of the
    rest of ``fh``, decoded as UTF-8 and split where ``csv.reader`` needs
    them split.

    A chunk in ``ahead`` is taken out of it and decoded only when the lines
    reach it, so an error in an earlier line is raised first.
    """
    parts = itertools.chain((data,), (ahead.popleft() for _ in range(len(ahead))))
    texts = (io.StringIO(part.decode(), newline="") for part in parts)
    return itertools.chain.from_iterable(itertools.chain(texts, (fh,)))


def _read_header(fh: io.TextIOWrapper) -> tuple[list[str], Iterator[str] | None]:
    """The header's names, and the text lines of the rest of the file if
    ``csv.reader`` must parse all of it.

    A header line with a quote, or a CR before its line end, may hold a
    record that does not end where the line does; the whole file is then
    read as text.
    """
    line = fh.buffer.readline()
    if b'"' not in line and b"\r" not in line.removesuffix(b"\n").removesuffix(b"\r"):
        return next(csv.reader([line.decode()]), []), None
    lines = _text_lines(line, collections.deque(), fh)
    return next(csv.reader(lines), []), lines


def _parse(data: bytes, picks: list[int], width: int):
    """:func:`_plain_chunk` of ``data``, once it is checked to be UTF-8."""
    if not data.isascii():
        data.decode()  # raises on invalid UTF-8; a line end never splits a character
    return _plain_chunk(data, picks, width)


def _parse_in_order(jobs, picks: list[int], width: int) -> None:
    """The parser thread: for each ``(data, box)`` taken from ``jobs``, in
    order, put ``(_parse(data), None)`` or ``(None, error)`` in ``box``;
    stop at None."""
    for data, box in iter(jobs.get, None):
        try:
            box.put((_parse(data, picks, width), None))
        except BaseException as exc:  # raised again by the thread that reads the box
            box.put((None, exc))


def _chunks(fh: io.TextIOWrapper, lines: Iterator[str] | None, header: list[str], path: Path) -> Iterator[tuple]:
    """The checked records after the header, in chunks and in file order,
    read from ``fh.buffer`` until ``csv.reader`` takes over.

    Each chunk is (rows read, block heights, then the size and value of its
    kept rows, a byte array with the starts and ends of their UTF-8 txids,
    and the bytes read from ``fh.buffer`` past the chunk). Plain chunks (see
    :func:`_plain_chunk`) are parsed with numpy: all but their values on one
    parser thread, which this generator starts and joins before it returns
    or raises, and their values here. It reads the next chunk while that
    thread parses one and the caller writes the one before. From the first
    other chunk on, or from the start if ``lines`` holds the file's text
    lines, ``csv.reader`` parses the rest of the file, starting with the
    chunk already read ahead; it skips blank lines and gives a short record
    None for its missing fields, as ``csv.DictReader`` does. Either way a
    rejected record raises the error of :func:`_row_error`, and invalid
    UTF-8 raises UnicodeDecodeError, the first in the file first.
    """
    index = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    picks = [index[c] for c in MANDATORY_COLUMNS]
    width = len(header)
    first_row = 2
    ahead: collections.deque = collections.deque()  # read-ahead chunks csv.reader has not reached
    if lines is None:
        import queue  # imported by the first load, not with this module

        raw = fh.buffer
        jobs = queue.SimpleQueue()
        parser = threading.Thread(target=_parse_in_order, args=(jobs, picks, width), daemon=True)
        parser.start()
        # (box, data, end) of each chunk handed to the parser, in file order;
        # data[_PAD:end] is the chunk as read
        pending: collections.deque = collections.deque()
        try:
            while True:
                while len(pending) < 2 and (chunk := raw.read(_CHUNK_BYTES)):
                    data = b"".join((_PADDING, chunk, raw.readline()))
                    end = len(data)
                    if not data.endswith(b"\n"):
                        data += b"\n"
                    box = queue.SimpleQueue()
                    jobs.put((data, box))
                    pending.append((box, data, end))
                if not pending:
                    return
                box, data, _ = pending.popleft()
                plain, error = box.get()
                if error is not None:
                    raise error
                if plain is None:
                    break
                heights, size, buf, words, value_bounds, (starts, ends) = plain
                # parsed here, on the thread that would otherwise wait for the parser
                value = _digit_column(words, *value_bounds)
                if value is None:
                    break
                if _out_of_range(size, value):
                    records = zip(heights.tolist(), itertools.repeat(""), size.tolist(), value.tolist())
                    _raise_row_error(path, first_row, records)
                keep = value != 0
                if not keep.all():
                    starts, ends = starts[keep], ends[keep]
                run_starts = np.append(True, heights[1:] != heights[:-1])
                read_past = sum(end - _PAD for _, _, end in pending)
                yield len(value), heights[run_starts].tolist(), size[keep], value[keep], buf, starts, ends, read_past
                first_row += len(value)
        finally:
            jobs.put(None)
            parser.join()
        ahead.extend(later[_PAD:end] for _, later, end in pending)
        lines = _text_lines(data[_PAD:], ahead, fh)
    reader = csv.reader(lines)
    short = max(picks) + 1
    while raw := list(itertools.islice(reader, _CHUNK_ROWS)):
        rows = [row for row in raw if row]
        if not rows:
            continue
        if min(map(len, rows)) < short:
            rows = [row + [None] * (short - len(row)) for row in rows]
        columns = list(zip(*rows))
        height_s, txid_s, size_s, value_s = (columns[i] for i in picks)
        try:
            heights = set(map(int, set(height_s)))
            size, value = _int64(size_s), _int64(value_s)
            valid = None not in txid_s and not _out_of_range(size, value)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            _raise_row_error(path, first_row, zip(height_s, txid_s, size_s, value_s))
        keep = value != 0
        kept_txids = list(itertools.compress(txid_s, keep))
        joined = "".join(kept_txids)
        if not joined.isascii():
            kept_txids = [t.encode() for t in kept_txids]
        lengths = np.fromiter(map(len, kept_txids), dtype=np.int64, count=len(kept_txids))
        ends = np.cumsum(lengths)
        buf = np.frombuffer(joined.encode(), dtype=np.uint8)
        yield len(rows), heights, size[keep], value[keep], buf, ends - lengths, ends, sum(map(len, ahead))
        first_row += len(rows)


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


class _Column:
    """A column written chunk by chunk into one buffer.

    When a chunk overflows the buffer, a new one is sized to the expected
    row count, or to a quarter more than it must hold if that is larger.
    With a close estimate a column is written once and never copied, and
    the spare room at its end, never written, is given back in place.
    """

    def __init__(self, dtype) -> None:
        self.buffer = np.empty(0, dtype=dtype)
        self.rows = 0

    def reserve(self, count: int, expected_rows: int) -> np.ndarray:
        """The next ``count`` rows of the buffer, for the caller to write
        before it asks for more."""
        end = self.rows + count
        if end > len(self.buffer):
            grown = np.empty(max(expected_rows, end + end // 4), dtype=self.buffer.dtype)
            grown[: self.rows] = self.buffer[: self.rows]
            self.buffer = grown
        rows = self.buffer[self.rows : end]
        self.rows = end
        return rows

    def append(self, chunk: np.ndarray, expected_rows: int) -> None:
        self.reserve(len(chunk), expected_rows)[:] = chunk

    def array(self) -> np.ndarray:
        # refcheck=False: the views reserve() hands out are gone by now, but a
        # profiling or tracing hook holds one more reference to the buffer,
        # and the default check would refuse the resize for it
        self.buffer.resize(self.rows, refcheck=False)
        return self.buffer


def load_dataset(path: str | Path) -> tuple[TransactionTable, LoadSummary]:
    """Load a transaction dataset file as a :class:`TransactionTable`.

    Blank lines are skipped and not counted. Rows with a zero output value
    are dropped (and counted); every other row becomes a transaction with
    lam=1 and no time investment, in file order. These rows are errors that
    name the row (the header is row 1, blank lines are not counted): a
    missing or non-integer field, a size or value outside int64, and, unless
    the value is zero, a size below 1, a negative value, or a value or size
    at or above 2^53.

    The file is read as bytes in chunks of about a megabyte of whole lines.
    A chunk with no quote, NUL or lone CR, the header's field count on every
    line, and heights, sizes and values of 1-18 ASCII digits is parsed with
    numpy; a chunk with a byte outside ASCII is decoded once, only to check
    that it is UTF-8. The first chunk that is not plain, and the rest of the
    file after it, go through ``csv.reader`` and ``int()``; both give the
    same results and the same errors.

    Two threads share the work. The calling thread reads each chunk and
    hands it to one parser thread, which checks the UTF-8, finds the
    delimiters, checks that the chunk is plain and parses its heights and
    sizes. The calling thread then parses the chunk's values, sends the
    chunk to ``csv.reader`` if they are not plain, and writes the chunk into
    the columns. It reads one chunk ahead, so a chunk is parsed while the
    one after it is read and the one before it is written. The values are
    parsed on the calling thread because the parser thread set the pace: a
    1 MiB chunk of 12,193 rows cost it about 1.65 ms with the values and
    1.25 ms without them (the delimiter pass 0.47 ms), the values cost
    about 0.4 ms, and the calling thread waited for the parser through half
    of each load. The parser thread is started and joined inside this call,
    also when it raises. Chunks are written, and their errors raised, in
    file order: the error reported is the first in the file, also when a
    later chunk was already read ahead. There is one parser thread because
    the threads overlap only inside numpy calls and reads, which release
    the interpreter lock; a second parser thread was slower, as three
    threads then wait on that lock.
    """
    path = Path(path)
    file_bytes = path.stat().st_size
    rows_read = kept = 0
    blocks: set[int] = set()
    values, sizes, beta, offsets = (_Column(dtype) for dtype in (np.int64, np.int64, np.float64, np.int64))
    offsets.append(np.zeros(1, dtype=np.int64), 1)
    txids = _Column(np.uint8)
    # the text reader reads nothing until csv.reader needs it; until then
    # the loader reads its byte buffer
    with path.open(newline="", encoding="utf-8") as fh:
        header, lines = _read_header(fh)
        for col in MANDATORY_COLUMNS:
            if col not in header:
                raise ValueError(f"{path}: missing mandatory column {col!r}")
        extra_columns = tuple(c for c in header if c not in MANDATORY_COLUMNS)
        seekable = fh.seekable()

        def expect(count: int, read_past: int) -> int:
            # the file's count if the rest is like what was written, and an
            # eighth more; the reader's position runs ahead of the chunk being
            # written by the bytes read past it. A pipe tells neither, so its
            # columns grow as they fill
            return count * file_bytes // (fh.buffer.tell() - read_past) * 9 // 8 if seekable else 0

        for rows, heights, size, value, buf, starts, ends, read_past in _chunks(fh, lines, header, path):
            rows_read += rows
            blocks.update(heights)
            kept += len(value)
            expected = expect(kept, read_past)
            values.append(value, expected)
            sizes.append(size, expected)
            np.divide(value, 8 * size, out=beta.reserve(len(value), expected))
            lengths = ends - starts
            offsets.append(txids.rows + np.cumsum(lengths), expected + 1)
            txid_bytes = int(lengths.sum())
            _gather(buf, starts, ends, txids.reserve(txid_bytes, expect(txids.rows + txid_bytes, read_past)))
    table = TransactionTable(
        values.array(),
        sizes.array(),
        beta.array(),
        txids_utf8=txids.array(),
        txid_offsets=offsets.array(),
    )
    summary = LoadSummary(
        path=str(path),
        rows_read=rows_read,
        transactions=len(table),
        dropped_zero_value=rows_read - len(table),
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
    beta times the bit size, rounded to at least one satoshi. It draws the
    workload generator's values and the simulator's bootstrap sample. The
    simulator's arrival stream (``engine._Run._arrival_stream``) holds a
    written-out copy of it and of ``rng.gauss``: ``tests/test_arrival_stream.py``
    checks that copy word for word against ``tests/reference_arrivals.py``,
    which draws through this function.
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

