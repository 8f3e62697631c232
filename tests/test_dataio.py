import csv
import itertools
import json
import math
import random
import re
import sys

import pytest
from scipy import stats as scipy_stats

from hbsim.core import ExtendedTransaction
from hbsim.dataio import (
    DatasetRow,
    WorkloadSpec,
    draw_value_size,
    export_mfn_download,
    export_optimal_levels,
    export_sharding_efficiency,
    generate_workload,
    load_dataset,
    read_report,
    write_dataset,
    write_report,
)
from hbsim.segmentation import TransactionTable, fit_lognormal, txid_to_bytes


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


HEADER = ["block_height", "txid", "size", "output_value"]


class TestLoadDataset:
    def test_zero_value_rows_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(
            path,
            HEADER,
            [
                [650000, "aa" * 32, 250, 5000],
                [650000, "bb" * 32, 300, 0],
                [650001, "cc" * 32, 400, 123],
            ],
        )
        txs, summary = load_dataset(path)
        assert len(txs) == 2
        assert summary.dropped_zero_value == 1
        assert summary.rows_read == 3
        assert summary.num_blocks == 2
        assert txs[0].value == 5000 and txs[0].size_bytes == 250
        assert txs[0].id == bytes.fromhex("aa" * 32)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["block_height", "txid", "size"], [[1, "aa", 10]])
        with pytest.raises(ValueError, match="output_value"):
            load_dataset(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, HEADER, [[1, "aa", 10, 5], [2, "bb", "not-a-size", 5]])
        with pytest.raises(ValueError, match="row 3"):
            load_dataset(path)

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(
            path,
            HEADER + ["n_inputs", "is_segwit"],
            [[1, "aa", 10, 5, 2, True]],
        )
        txs, summary = load_dataset(path)
        assert len(txs) == 1
        assert summary.extra_columns == ("n_inputs", "is_segwit")

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "block_height,txid,size,output_value\n\n1,aa,10,5\n\n\n2,bb,20,7\n\n"
            "3,cc,x,9\n"
        )
        with pytest.raises(ValueError, match="malformed row 4:"):
            load_dataset(path)
        path.write_text("block_height,txid,size,output_value\n\n1,aa,10,5\n\n\n2,bb,20,7\n\n")
        txs, summary = load_dataset(path)
        assert summary.rows_read == 2 and summary.transactions == 2
        assert [(t.value, t.size_bytes) for t in txs] == [(5, 10), (7, 20)]

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            'block_height,txid,size,output_value,note\r\n'
            '"1","aa","10","5","x"\r\n'
            '2,"tx,with ""comma""",20,7,"two\r\nlines"\r\n'
            '3,cc,30,9,y\r\n'
        )
        txs, summary = load_dataset(path)
        assert [t.id for t in txs] == [b"\xaa", b'tx,with "comma"', b"\xcc"]
        assert [(t.value, t.size_bytes) for t in txs] == [(5, 10), (7, 20), (9, 30)]
        assert summary.num_blocks == 3 and summary.extra_columns == ("note",)
        path.write_text('block_height,txid,size,output_value\n"1","aa","10","5"\n')
        txs, _ = load_dataset(path)
        assert [(t.id, t.value, t.size_bytes) for t in txs] == [(b"\xaa", 5, 10)]

    def test_lone_carriage_return_ends_a_row(self, tmp_path):
        """As in csv.reader, a bare CR inside an unquoted field ends the row."""
        path = tmp_path / "d.csv"
        path.write_text("block_height,txid,size,output_value\n1,a\rb,10,5\n", newline="")
        with pytest.raises(ValueError, match="malformed row 2:"):
            load_dataset(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("block_height,txid,size,output_value\n1,aa,10,5\n2,bb,20\n")
        with pytest.raises(ValueError, match="malformed row 3:"):
            load_dataset(path)

    def test_short_row_without_txid_reports_line(self, tmp_path):
        """A short row that lacks only its txid names the row, whatever its value."""
        path = tmp_path / "d.csv"
        for value in (5, 0):
            path.write_text(f"block_height,size,output_value,txid\n1,10,5,aa\n2,20,{value}\n")
            with pytest.raises(ValueError, match="malformed row 3: missing txid"):
                load_dataset(path)

    def test_negative_value_rejected_with_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, HEADER, [[1, "aa", 10, 5], [2, "bb", 20, -7]])
        with pytest.raises(ValueError, match="malformed row 3: output_value must be >= 0"):
            load_dataset(path)

    def test_zero_value_row_with_zero_size_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, HEADER, [[1, "aa", 0, 0], [2, "bb", 20, 7]])
        txs, summary = load_dataset(path)
        assert summary.dropped_zero_value == 1 and summary.rows_read == 2
        assert [t.value for t in txs] == [7]
        write_csv(path, HEADER, [[1, "aa", 0, 3]])
        with pytest.raises(ValueError, match="malformed row 2: size must be >= 1"):
            load_dataset(path)

    def test_value_at_or_above_2_53_rejected(self, tmp_path):
        """beta divides value as a binary float, exact only below 2^53."""
        path = tmp_path / "d.csv"
        write_csv(path, HEADER, [[1, "aa", 10, 2**53 - 1]])
        txs, _ = load_dataset(path)
        assert txs[0].value == 2**53 - 1
        for value in (2**53, 2**64):
            write_csv(path, HEADER, [[1, "aa", 10, 5], [1, "bb", 10, value]])
            with pytest.raises(ValueError, match="malformed row 3:"):
                load_dataset(path)

    @pytest.mark.parametrize("chunk_chars", [1, 7, 64, 1 << 20])
    def test_chunking_and_parsers_agree_with_dictreader(self, tmp_path, monkeypatch, chunk_chars):
        """Plain chunks are split directly and the first quoted one hands the
        rest of the file to csv.reader (so does a blank line); the result must
        not depend on where chunks end, even inside a CRLF line end or a
        quoted field. The file mixes CRLF and LF and has no final newline."""
        rng = random.Random(chunk_chars)
        lines = ["block_height,txid,size,output_value,extra"]
        for i in range(300):
            txid = f"{rng.getrandbits(64):016x}"
            if i == 200:
                txid = '"quoted\r\nid, with comma"'
            value = rng.choice([0, 1, rng.randrange(1, 10**9)])
            lines.append(f"{i // 7},{txid},{rng.randrange(1, 900)},{value},{i}")
            if i in (120, 250):
                lines.append("")
        path = tmp_path / "d.csv"
        path.write_bytes(("\r\n".join(lines[:150]) + "\n" + "\r\n".join(lines[150:])).encode())
        with open(path, newline="", encoding="utf-8") as fh:
            expected = [r for r in csv.DictReader(fh)]
        monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
        txs, summary = load_dataset(path)
        kept = [r for r in expected if int(r["output_value"])]
        assert summary.rows_read == len(expected)
        assert summary.num_blocks == len({int(r["block_height"]) for r in expected})
        assert [(t.id, t.value, t.size_bytes) for t in txs] == [
            (txid_to_bytes(r["txid"]), int(r["output_value"]), int(r["size"])) for r in kept
        ]

    @pytest.mark.parametrize("chunk_chars", [1, 64, 1 << 20])
    @pytest.mark.parametrize("bad_row", [b"7,a\xffb,5,9,x", b"7,ab,5,9,\xff"], ids=["txid", "extra"])
    def test_invalid_utf8_raises(self, tmp_path, monkeypatch, bad_row, chunk_chars):
        """Invalid UTF-8 after plain rows is an error, wherever the chunks end."""
        rows = [f"{i // 5},{i:032x},{i + 1},{i}".encode() + b",x" for i in range(60)]
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join([b"block_height,txid,size,output_value,note", *rows, bad_row]) + b"\n")
        monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", chunk_chars)
        with pytest.raises(UnicodeDecodeError):
            load_dataset(path)

    def test_byte_order_mark_is_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfblock_height,txid,size,output_value\n1,aa,10,5\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: missing mandatory column 'block_height'"

    @pytest.mark.parametrize("end", ["", "\n", "\r\n"])
    def test_header_only_file_is_an_empty_table(self, tmp_path, end):
        path = tmp_path / "d.csv"
        path.write_bytes(f"block_height,txid,size,output_value,note{end}".encode())
        txs, summary = load_dataset(path)
        assert len(txs) == 0 and list(txs) == []
        assert (summary.rows_read, summary.transactions, summary.num_blocks) == (0, 0, 0)
        assert summary.extra_columns == ("note",)

    @pytest.mark.parametrize(
        "text",
        [
            'block_height,txid,size,output_value,"two\nlines"\n1,aa,10,5,x\n2,bb,0,0,y\n',
            "block_height,txid,size,output_value\r1,aa,10,5\r2,bb,0,0\r",
            "block_height,txid,size,output_value\r\r\n1,aa,10,5\n2,bb,0,0\n",
        ],
        ids=["quoted_newline", "lone_crs", "cr_before_crlf"],
    )
    def test_header_that_is_not_one_line(self, tmp_path, text):
        """A header record that ends before or after its first line feed
        loads as csv.DictReader reads it."""
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            expected = list(reader)
            names = reader.fieldnames
        txs, summary = load_dataset(path)
        assert summary.extra_columns == tuple(names[4:])
        assert summary.rows_read == len(expected) == 2
        assert [(t.id, t.value, t.size_bytes) for t in txs] == [(b"\xaa", 5, 10)]

    def test_load_under_profile_and_trace_hooks(self, tmp_path, monkeypatch):
        """A hook adds a reference to the column buffers while the loader
        gives their spare room back; the load must not notice."""
        path = tmp_path / "d.csv"
        write_csv(path, HEADER, [[i // 3, f"{i:064x}", 100 + i, i % 7] for i in range(300)])
        monkeypatch.setattr("hbsim.dataio._CHUNK_BYTES", 1 << 10)
        plain, plain_summary = load_dataset(path)

        def hook(*args):
            return None

        for install, current in ((sys.setprofile, sys.getprofile), (sys.settrace, sys.gettrace)):
            before = current()
            install(hook)
            try:
                txs, summary = load_dataset(path)
            finally:
                install(before)
            assert summary == plain_summary
            assert list(txs) == list(plain)
            assert txs.beta.tolist() == plain.beta.tolist()

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [
            DatasetRow(650000, "ab" * 32, 250, 999),
            DatasetRow(650001, "cd" * 32, 111, 1),
        ]
        write_dataset(path, rows)
        txs, summary = load_dataset(path)
        assert [(t.value, t.size_bytes) for t in txs] == [(999, 250), (1, 111)]
        assert summary.transactions == 2
        again, _ = load_dataset(path)
        assert [t.id for t in again] == [t.id for t in txs]

    def test_write_streams_any_iterable(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = (DatasetRow(650000 + i, f"{i:064x}", 250, 999 + i, (("n_outputs", "2"),)) for i in range(3))
        assert write_dataset(path, rows) == 3
        lines = path.read_text().splitlines()
        assert lines[0] == "block_height,txid,size,output_value,n_outputs"
        assert lines[3] == f"650002,{2:064x},250,1001,2"
        assert write_dataset(path, iter(())) == 0
        assert path.read_text().splitlines() == ["block_height,txid,size,output_value"]

    def test_table_is_a_read_only_sequence(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, [DatasetRow(1, "ab" * 32, 250, 999), DatasetRow(1, "x", 111, 1)])
        txs, _ = load_dataset(path)
        assert isinstance(txs, TransactionTable) and txs and len(txs) == 2
        assert txs[-1] == txs[1] == ExtendedTransaction(id=b"x", value=1, size_bytes=111)
        assert txs[:1] == [txs[0]] and txs[1] in txs
        with pytest.raises(IndexError):
            txs[2]
        with pytest.raises(ValueError):
            txs.values[0] = 5


class TestWorkloadSpecSizes:
    """Fixed and empirical sizes below 1 byte, and log-normal parameters other
    than (mu, sigma >= 0), are refused when the spec is built, so no draw can
    return a size below 1 byte or fail on its parameters."""

    @pytest.mark.parametrize(
        "mode, params, message",
        [
            ("fixed", (0,), "fixed sizes must be >= 1 byte, got 0"),
            ("fixed", (-5,), "fixed sizes must be >= 1 byte, got -5"),
            ("fixed", (0.5,), "fixed sizes must be >= 1 byte, got 0.5"),
            ("empirical", (250, 0, 400), "empirical sizes must be >= 1 byte, got 0"),
            ("empirical", (250, -3), "empirical sizes must be >= 1 byte, got -3"),
            # a bad size a 4,000-draw bootstrap would almost never reach
            ("empirical", (400,) * 100_000 + (0,), "empirical sizes must be >= 1 byte, got 0"),
            ("fixed", (), "fixed size_params must hold at least one size"),
            ("empirical", (), "empirical size_params must hold at least one size"),
            ("lognormal", (6.0,), "lognormal size_params must be (mu, sigma), got (6.0,)"),
            ("lognormal", (), "lognormal size_params must be (mu, sigma), got ()"),
            ("lognormal", (6.0, 0.4, 1.0), "lognormal size_params must be (mu, sigma), got (6.0, 0.4, 1.0)"),
            ("lognormal", (6.0, -0.1), "lognormal size_params sigma must be >= 0, got -0.1"),
        ],
    )
    def test_rejected(self, mode, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WorkloadSpec(rate=1.0, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode=mode, size_params=params)

    @pytest.mark.parametrize(
        "mode, params", [("fixed", (1,)), ("empirical", (1, 2, 900)), ("lognormal", (-5.0, 0.5))]
    )
    def test_every_draw_at_least_one_byte(self, mode, params):
        spec = WorkloadSpec(rate=1.0, lg_beta_mu=-6.0, lg_beta_sigma=1.0, size_mode=mode, size_params=params)
        rng = random.Random(5)
        draws = [draw_value_size(spec, rng) for _ in range(2000)]
        assert min(size for _, size in draws) == 1
        assert min(value for value, _ in draws) == 1


class TestGenerateWorkload:
    def spec(self, **kw):
        defaults = dict(rate=5.0, lg_beta_mu=3.0, lg_beta_sigma=1.0, size_mode="fixed", size_params=(250,))
        defaults.update(kw)
        return WorkloadSpec(**defaults)

    def test_zero_sigma_pins_beta(self):
        rng = random.Random(1)
        events = generate_workload(self.spec(lg_beta_sigma=0.0), rng, 100.0)
        betas = {t.value / t.size_bits for _, t in events}
        assert len(betas) == 1
        assert betas.pop() == pytest.approx(1000.0, rel=1e-3)

    def test_generator_fitter_round_trip(self):
        rng = random.Random(2)
        spec = self.spec(rate=1000.0)
        events = list(generate_workload(spec, rng, 100.0))
        assert len(events) > 50_000
        fit = fit_lognormal([t for _, t in events])
        assert abs(fit.mu - 3.0) < 0.02
        assert abs(fit.sigma - 1.0) < 0.02

    def test_poisson_arrival_count(self):
        rng = random.Random(3)
        rate, duration = 7.0, 2000.0
        events = list(generate_workload(self.spec(rate=rate), rng, duration))
        expected = rate * duration
        assert abs(len(events) - expected) < 3 * math.sqrt(expected)
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert times[-1] < duration

    def test_beta_distribution_ks(self):
        rng = random.Random(4)
        events = generate_workload(self.spec(rate=100.0), rng, 100.0)
        lg = [math.log10(t.value / t.size_bits) for _, t in events][:10_000]
        result = scipy_stats.kstest(lg, "norm", args=(3.0, 1.0))
        assert result.pvalue > 0.01

    def test_determinism(self):
        a = generate_workload(self.spec(), random.Random(7), 100.0)
        b = generate_workload(self.spec(), random.Random(7), 100.0)
        assert [(t, tx.id) for t, tx in a] == [(t, tx.id) for t, tx in b]

    def test_lazy(self):
        """Events are drawn as they are taken, so an endless stream can be sliced."""
        rng = random.Random(8)
        events = list(itertools.islice(generate_workload(self.spec(), rng, math.inf), 5))
        assert len(events) == 5
        eager = random.Random(8)
        assert [tx.id for _, tx in events] == [
            tx.id for _, tx in itertools.islice(generate_workload(self.spec(), eager, 100.0), 5)
        ]


class TestReports:
    def test_round_trip_byte_identical(self, tmp_path):
        payload = {"mode": "flat", "series": [1.0, 2.5, 3.125], "nested": {"a": 1}}
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        write_report(payload, p1)
        loaded = read_report(p1)
        assert loaded["series"] == payload["series"]
        write_report({k: v for k, v in loaded.items() if k != "format_version"}, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_report(self, tmp_path):
        path = tmp_path / "empty.json"
        write_report({"series": []}, path)
        assert read_report(path)["series"] == []

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ValueError, match="version"):
            read_report(path)

    def test_missing_path_context(self, tmp_path):
        with pytest.raises(OSError, match="nope.json"):
            read_report(tmp_path / "nope.json")


class TestFigureExports:
    def test_sharding_efficiency_series(self, tmp_path):
        path = tmp_path / "fig6.csv"
        export_sharding_efficiency(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["L", "lg_r_N_4200", "lg_r_N_2^L-1", "lg_throughput_per_600s"]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 25))
        # L=20 throughput series value
        assert 10 ** float(rows[20][3]) == pytest.approx(1747.625, abs=0.1)

    def test_download_and_optimal_exports(self, tmp_path):
        export_mfn_download(tmp_path / "fig7.csv")
        export_optimal_levels(tmp_path / "fig8.csv", n_lo=100, n_hi=1000, step=300)
        with open(tmp_path / "fig8.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "L_argmin", "store_mb_day", "download_mb_day"]
        assert len(rows) == 5

    def test_efficiency_curves_match_script_oracle(self, tmp_path):
        """Pointwise check of the exported series against inline evaluations."""
        path = tmp_path / "fig6.csv"
        export_sharding_efficiency(path, max_levels=24)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            L = int(row[0])
            shards = 2**L - 1
            assert float(row[1]) == pytest.approx(
                math.log10(4200 * L**2 / shards**2 + L / shards), rel=1e-12
            )
            assert float(row[2]) == pytest.approx(
                math.log10(shards * L**2 / shards**2 + L / shards), rel=1e-12
            )
            assert float(row[3]) == pytest.approx(math.log10(shards / 600), rel=1e-12)

    def test_download_curves_match_script_oracle(self, tmp_path):
        path = tmp_path / "fig7.csv"
        export_mfn_download(path, rates=(1700, 10000, 50000), max_levels=29)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 29
        for row in rows:
            L = int(row[0])
            for col, n in zip(row[1:], (1700, 10000, 50000)):
                mb_day = (n * L**2 / (2**L - 1) + L) * 86400 * 250 / 1024**2
                assert float(col) == pytest.approx(math.log10(mb_day), rel=1e-12)
