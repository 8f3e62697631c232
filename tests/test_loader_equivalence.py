"""``load_dataset`` against a ``csv.DictReader`` + ``int()`` oracle.

Each case is one or two data rows (or a line ending, or the end of the file)
that a plain-looking chunk may or may not hold. It is loaded on its own and in the
middle of a file of plain rows, at several chunk sizes, so that it falls both
in the first chunk and after chunks the loader has already parsed. A file
that loads must give the oracle's rows, counts and ids; a file that does not
must name the case's row with the reason pinned here.
"""

import collections
import csv
import os
import random
import sys
import threading

import pytest

from hbsim import dataio
from hbsim.dataio import load_dataset
from hbsim.segmentation import txid_to_bytes

HEADER = "block_height,txid,size,output_value"
NONE_ARG = "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"

# name: (data rows, error reason or None when the file loads)
CASES = {
    "plus_sign": ("7,aa,+5,9", None),
    "leading_space": ("7,aa, 5,9", None),
    "trailing_space": ("7,aa,5 ,9", None),
    "underscore": ("7,aa,1_000,9", None),
    "arabic_indic_digit": ("7,aa,٣,9", None),
    "minus_zero_value": ("7,aa,5,-0", None),
    "leading_zeros": ("7,aa,0007,9", None),
    "negative_value": ("7,aa,5,-3", "output_value must be >= 0, got -3"),
    "negative_size": ("7,aa,-3,9", "size must be >= 1"),
    "empty_field": ("7,aa,,9", "invalid literal for int() with base 10: ''"),
    "empty_height": (",aa,5,9", "invalid literal for int() with base 10: ''"),
    "17_digit_value": (f"7,aa,5,{42:017d}", None),
    "17_digit_2_53_size": (f"7,aa,{2**53:017d},9", "output_value and size must be below 2^53"),
    "18_digit_size": (f"7,aa,{5:018d},9", None),
    "18_digit_largest_value": (f"7,aa,5,{2**53 - 1:018d}", None),
    "18_digit_zero_value": (f"7,aa,5,{0:018d}", None),
    "18_digit_height_same_block": (f"{7:018d},aa,5,9\n7,bb,5,9", None),
    "18_digit_height_then_19": (f"{10**18 - 1},aa,5,9\n{10**18 - 1:019d},bb,5,9", None),
    "19_digit_size": ("7,aa,0000000000000000007,9", None),
    "19_digit_zero_value": ("7,aa,5,0000000000000000000", None),
    "19_digit_value": ("7,aa,5,1000000000000000000", "output_value and size must be below 2^53"),
    "2_53_value": (f"7,aa,5,{2**53}", "output_value and size must be below 2^53"),
    "2_53_size": (f"7,aa,{2**53},9", "output_value and size must be below 2^53"),
    "2_63_value": (f"7,aa,5,{2**63}", f"output_value {2**63} is out of range"),
    "21_digit_height": ("123456789012345678901,aa,5,9", None),
    "size_0_value_0": ("7,aa,0,0", None),
    "size_0_value_10": ("7,aa,0,10", "size must be >= 1"),
    "non_ascii_txid": ("7,héllo€,5,9", None),
    "empty_txid": ("7,,5,9", None),
    "empty_txid_then_quoted": ('7,,5,9\n7,"a,b",5,9', None),
    "non_integer": ("7,aa,x,9", "invalid literal for int() with base 10: 'x'"),
    "lone_cr": ("7,a\rb,5,9", NONE_ARG),
    "nul": ("7,a\0b,5,9", None),
    "quoted_field": ('7,"a,""b""",5,9', None),
    "quoted_txid": ('7,"aa",5,9', None),
    "blank_line": ("", None),
    "trailing_comma": ("7,aa,5,9,", None),
    "short_row": ("7,aa,5", NONE_ARG),
}
# cases that change the whole file rather than one row
FILE_CASES = ("crlf", "no_final_newline")


def plain_rows(rng: random.Random, count: int, first_height: int) -> list[str]:
    rows = []
    for i in range(count):
        value = rng.choice([0, 1, rng.randrange(1, 10**12)])
        rows.append(f"{first_height + i // 5},{rng.getrandbits(128):032x},{rng.randrange(1, 2000)},{value}")
    return rows


def oracle(path):
    """What the file must load as, from csv.DictReader and int()."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    kept = [
        (txid_to_bytes(r["txid"]), int(r["output_value"]), int(r["size"]))
        for r in records
        if int(r["output_value"])
    ]
    return {
        "rows_read": len(records),
        "transactions": len(kept),
        "dropped_zero_value": len(records) - len(kept),
        "num_blocks": len({int(r["block_height"]) for r in records}),
        "txs": kept,
    }


def build(case: str, layout: str) -> tuple[str, int]:
    """The file text for a case, and the file row its case row lands on."""
    before = after = []
    if layout == "multi":
        rng = random.Random(case)
        before, after = plain_rows(rng, 60, 1000), plain_rows(rng, 60, 2000)
    eol, final = "\n", "\n"
    if case in CASES:
        middle = [CASES[case][0]]
    else:
        middle = plain_rows(random.Random(case), 3, 3000)
        if case == "crlf":
            eol = final = "\r\n"
        else:
            final = ""
            after = []
    lines = [HEADER, *before, *middle, *after]
    return eol.join(lines) + final, len(before) + 2


@pytest.mark.parametrize("chunk_chars", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("layout", ["single", "multi"])
@pytest.mark.parametrize("case", [*CASES, *FILE_CASES])
def test_load_matches_oracle(tmp_path, monkeypatch, case, layout, chunk_chars):
    text, case_row = build(case, layout)
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
    reason = CASES.get(case, (None, None))[1]
    if reason is not None:
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: malformed row {case_row}: {reason}"
        return
    table, summary = load_dataset(path)
    expected = oracle(path)
    assert [(t.id, t.value, t.size_bytes) for t in table] == expected.pop("txs")
    assert {key: getattr(summary, key) for key in expected} == expected
    assert summary.extra_columns == ()
    assert table.values.dtype == table.sizes.dtype == "int64"
    # beta is written chunk by chunk; each row must still be value / (8 * size)
    assert table.beta.tolist() == [t.value / (8 * t.size_bytes) for t in table]


@pytest.mark.parametrize("chunk_chars", [1, 7, 64, 1 << 20])
def test_lone_cr_in_the_last_field_ends_the_record(tmp_path, monkeypatch, chunk_chars):
    """csv.reader ends a record at a lone CR, so the text after a CR in a
    row's last field is a record of its own, short of fields; the loader
    must not take it as part of the field."""
    text, case_row = build("leading_zeros", "multi")
    text = text.replace("7,aa,0007,9\n", "7,aa,5,9\rx\n")
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    reason = "invalid literal for int() with base 10: 'x'"
    assert str(info.value) == f"{path}: malformed row {case_row + 1}: {reason}"


@pytest.mark.parametrize("chunk_chars", [1, 7, 64])
def test_multibyte_txid_across_chunk_ends(tmp_path, monkeypatch, chunk_chars):
    """``héllo€`` at every offset from its line's start loads like the
    oracle; at chunk sizes 7 and 64 some reads end inside its two- and
    three-byte characters."""
    rows = [f"{'x' * i}héllo€,{i // 4},{i + 1},{i % 3}" for i in range(80)]
    path = tmp_path / "d.csv"
    path.write_bytes("\n".join(["txid,block_height,size,output_value", *rows, ""]).encode("utf-8"))
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
    table, summary = load_dataset(path)
    expected = oracle(path)
    assert [(t.id, t.value, t.size_bytes) for t in table] == expected.pop("txs")
    assert {key: getattr(summary, key) for key in expected} == expected


@pytest.mark.parametrize("chunk_chars", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("case", ["leading_space", "crlf"])
def test_pipe_loads_like_the_file(tmp_path, monkeypatch, case, chunk_chars):
    """A pipe has no size or position to size the columns from; they grow as they fill."""
    text, _ = build(case, "multi")
    text += "\n".join(plain_rows(random.Random(case), 2000, 5000)) + "\n"
    path, pipe = tmp_path / "d.csv", tmp_path / "pipe"
    path.write_bytes(text.encode("utf-8"))
    os.mkfifo(pipe)
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)

    def write():
        with open(pipe, "wb") as fh:
            fh.write(text.encode("utf-8"))

    threads = threading.enumerate()
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        table, summary = load_dataset(pipe)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert threading.enumerate() == threads
    expected = oracle(path)
    assert [(t.id, t.value, t.size_bytes) for t in table] == expected.pop("txs")
    assert {key: getattr(summary, key) for key in expected} == expected
    assert table.beta.tolist() == [t.value / (8 * t.size_bytes) for t in table]


def long_row(i: int, size: str = "100", txid_tail: bytes = b"") -> bytes:
    """A data row longer than 64 bytes, so that at chunk sizes 1, 7 and 64 a
    chunk (a read plus the rest of its line) holds exactly one row."""
    return f"{1000 + i},{i:080x}".encode() + txid_tail + f",{size},{5 + i}".encode()


@pytest.mark.parametrize("chunk_chars", [1, 7, 64])
@pytest.mark.parametrize("first", ["bad_row", "invalid_utf8"])
def test_error_order_across_read_ahead(tmp_path, monkeypatch, first, chunk_chars):
    """Errors come in file order, also from a chunk read ahead of the one that
    sends the rest of the file to csv.reader: that chunk is decoded only when
    csv.reader reaches it. One-row csv batches make the reader check the bad
    row before it reads the next line (a full batch would read on past it)."""
    bad = long_row(90, size="-3")
    invalid = long_row(91, txid_tail=b"\xff")
    middle = [bad, invalid] if first == "bad_row" else [invalid, bad]
    rows = [long_row(i) for i in range(5)]
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join([HEADER.encode(), *rows, *middle, *rows]) + b"\n")
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
    monkeypatch.setattr("hbsim.dataio._CHUNK_ROWS", 1)
    if first == "bad_row":
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: malformed row 7: size must be >= 1"
    else:
        with pytest.raises(UnicodeDecodeError):
            load_dataset(path)


@pytest.mark.parametrize(
    "case",
    ["clean", "fallback", "row_error_plain_chunk", "row_error_text", "invalid_utf8"],
)
def test_no_thread_outlives_a_load(tmp_path, monkeypatch, case):
    """The threads are the same before and after a load, whether it loads or
    raises in the middle of the file. The loads run under a short switch
    interval, so that the loader's threads change hands often."""
    rows = [long_row(i) for i in range(40)]
    middle = {
        "clean": [],
        "fallback": [long_row(90, size="+5")],
        "row_error_plain_chunk": [long_row(90, size=str(2**53))],
        "row_error_text": [long_row(90, size="-3")],
        "invalid_utf8": [long_row(90, txid_tail=b"\xff")],
    }[case]
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join([HEADER.encode(), *rows, *middle, *rows]) + b"\n")
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", 64)
    threads = threading.enumerate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        if case.startswith("row_error"):
            with pytest.raises(ValueError, match="malformed row 42"):
                load_dataset(path)
        elif case == "invalid_utf8":
            with pytest.raises(UnicodeDecodeError):
                load_dataset(path)
        else:
            table, summary = load_dataset(path)
            expected = oracle(path)
            assert [(t.id, t.value, t.size_bytes) for t in table] == expected.pop("txs")
            assert {key: getattr(summary, key) for key in expected} == expected
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == threads


def test_columns_are_allocated_once(tmp_path, monkeypatch):
    """On a seekable file whose rows are all alike, each column is sized at
    its first chunk from the rows per byte of the chunks written so far, and
    never grows again. The txid offsets start from a one-row buffer holding
    their leading 0, which holds no chunk's rows and is not counted."""
    rng = random.Random(5)
    rows = [
        f"{800_000 + i // 7},{rng.getrandbits(256):064x},{rng.randrange(100, 1000)},{rng.randrange(1000, 10000)}"
        for i in range(3000)
    ]
    path = tmp_path / "d.csv"
    path.write_text("\n".join([HEADER, *rows, ""]))
    monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", 4096)
    allocations = collections.defaultdict(list)
    reserve = dataio._Column.reserve

    def counting_reserve(column, count, expected_rows):
        before = column.buffer
        out = reserve(column, count, expected_rows)
        if column.buffer is not before:
            allocations[column].append(len(column.buffer))
        return out

    monkeypatch.setattr(dataio._Column, "reserve", counting_reserve)
    table, summary = load_dataset(path)
    assert summary.transactions == len(table) == 3000
    sized = [[n for n in sizes if n > 1] for sizes in allocations.values()]
    assert len(sized) == 5
    assert all(len(sizes) == 1 for sizes in sized), sized
