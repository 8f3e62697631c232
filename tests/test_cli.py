import argparse
import io
import json
import re

import pytest

from hbsim import dataio, economics, segmentation, sharding
from hbsim.cli import build_parser, run_cli


def invoke(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


def first_float(pattern, text):
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in:\n{text}"
    return float(match.group(1))


class TestGoldenAgainstLibrary:
    def test_shardcalc_matches_direct_calls(self):
        code, text = invoke(
            ["shardcalc", "--ratio", "4200", "10", "--throughput", "20",
             "--store", "1700", "13", "--download", "100", "13",
             "--routing", "--p", "1e-10", "--levels", "16"]
        )
        assert code == 0
        assert first_float(r"mfn_ratio.* = ([\d.e+-]+)", text) == pytest.approx(
            sharding.mfn_ratio(4200, 10), rel=1e-5
        )
        assert first_float(r"throughput.* = ([\d.e+-]+) tx/s", text) == pytest.approx(
            sharding.tree_throughput(20), rel=1e-5
        )
        assert first_float(r"mfn_store.* = ([\d.e+-]+) tx/s", text) == pytest.approx(
            sharding.mfn_store_rate(1700, 13), rel=1e-5
        )
        assert int(first_float(r"required_peers.* = (\d+)", text)) == sharding.required_peers(
            1e-10, 15
        )

    def test_energy_matches_direct_calls(self):
        code, text = invoke(["energy", "--tx-bytes", "250"])
        assert code == 0
        assert first_float(r"per_tx\(250B\)\s+[\d.e+-]+ kWh\s+([\d.e+-]+) \$", text) == pytest.approx(
            14.305, abs=0.01
        )
        assert first_float(r"rational_bound\s+([\d.e+-]+) kWh", text) == pytest.approx(
            economics.energy_upper_bound(
                economics.EnergyParams(30.0, 0.1, 40_000.0, 0.001875, 6.25)
            ),
            rel=1e-5,
        )

    def test_estimate_matches_direct_calls(self, tmp_path):
        dataset = tmp_path / "d.csv"
        code, _ = invoke(
            ["gen", "--seed", "9", "--duration", "2400", "--rate", "2", "--out", str(dataset)]
        )
        assert code == 0
        code, text = invoke(["estimate", "--dataset", str(dataset), "--levels", "3"])
        assert code == 0
        txs, summary = dataio.load_dataset(dataset)
        stats = segmentation.level_stats(segmentation.segment(3, txs))
        expected = economics.compute_c_eta_flat(stats, summary.num_blocks)
        assert first_float(r"c_eta\s+([\d.e+-]+) s/BTC", text) == pytest.approx(expected, rel=1e-4)


class TestSimulateCommand:
    def test_same_seed_byte_identical_reports(self, tmp_path):
        argv = ["simulate", "--mode", "flat", "--levels", "3", "--seed", "7",
                "--periods", "20", "--out-dir", str(tmp_path), "--out", "a.json"]
        assert run_cli(argv, out=io.StringIO()) == 0
        first = (tmp_path / "a.json").read_bytes()
        argv[-1] = "b.json"
        assert run_cli(argv, out=io.StringIO()) == 0
        assert first == (tmp_path / "b.json").read_bytes()

    def test_multi_run_fanout(self, tmp_path):
        code, text = invoke(
            ["simulate", "--mode", "flat", "--levels", "2", "--seed", "3", "--runs", "2",
             "--periods", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(files) == 2
        assert "seed 3" in text and "seed 4" in text

    def test_starved_run_says_so(self, tmp_path, capsys):
        """At 20 tx/s the 512 genesis outputs fund about one arrival in ten;
        the run still exits 0 but names the skipped share on stderr."""
        code, text = invoke(
            ["simulate", "--mode", "flat", "--levels", "3", "--rate", "20", "--periods", "4",
             "--out-dir", str(tmp_path), "--out", "s.json"]
        )
        err = capsys.readouterr().err
        assert code == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        skipped, generated = payload["txs_skipped"], payload["txs_generated"]
        assert skipped > 0.9 * generated
        assert f" skipped={skipped} " in text
        assert f"hbsim: seed 0: {skipped / generated:.1%} of {generated} arrivals were skipped" in err
        # the default 100 periods at 0.2 tx/s skip 63 of 12,364 (0.5%): a count, no note
        code, text = invoke(
            ["simulate", "--mode", "flat", "--levels", "3",
             "--out-dir", str(tmp_path), "--out", "f.json"]
        )
        payload = json.loads((tmp_path / "f.json").read_text())
        assert code == 0
        assert payload["txs_skipped"] <= 0.01 * payload["txs_generated"]
        assert f" skipped={payload['txs_skipped']} " in text
        assert capsys.readouterr().err == ""

    def test_report_is_valid_json(self, tmp_path):
        code, _ = invoke(
            ["simulate", "--mode", "concurrent", "--levels", "2", "--seed", "1",
             "--periods", "10", "--chain-times", "400", "100",
             "--out-dir", str(tmp_path), "--out", "c.json"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "c.json").read_text())
        assert payload["mode"] == "concurrent"
        assert payload["conservation_violations"] == 0


class TestValidation:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["energy", "--no-such-flag"], out=io.StringIO()) == 2
        capsys.readouterr()

    def test_missing_dataset_exits_2(self):
        assert run_cli(["segment", "--dataset", "/does/not/exist.csv", "--levels", "3"],
                       out=io.StringIO()) == 2

    def test_shardcalc_without_query_exits_2(self):
        assert run_cli(["shardcalc"], out=io.StringIO()) == 2

    def test_concurrent_requires_chain_times(self):
        code = run_cli(
            ["simulate", "--mode", "concurrent", "--levels", "2", "--periods", "5"],
            out=io.StringIO(),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mode_args", [["--mode", "tree"], ["--mode", "concurrent", "--chain-times"] + ["600"] * 17]
    )
    def test_oversize_sharded_config_exits_2(self, mode_args, tmp_path, capsys):
        """17 levels is one past the cap: SimConfig refuses it before a run starts."""
        argv = ["simulate", "--levels", "17", "--periods", "1", "--out-dir", str(tmp_path)]
        assert run_cli(argv + mode_args, out=io.StringIO()) == 2
        assert "num_levels must be <= 16" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_oversize_concurrent_run_exits_2_before_it_starts(self, tmp_path, capsys, monkeypatch):
        """Chain times of 1 s at three levels over 50,000 periods expect 210 million blocks."""

        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr("hbsim.cli.simulate", no_run)
        argv = ["simulate", "--mode", "concurrent", "--levels", "3", "--periods", "50000",
                "--chain-times", "1", "1", "1", "--out-dir", str(tmp_path)]
        assert run_cli(argv, out=io.StringIO()) == 2
        assert "the bound is 1,000,000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["simulate", "--mode", "flat", "--levels", "3", "--periods", "1"], ["gen", "--duration", "60"]],
    )
    def test_zero_tx_bytes_exits_2_before_any_draw(self, command, tmp_path, capsys, monkeypatch):
        from hbsim.simulator import engine

        def no_draw(*args):
            raise AssertionError("a transaction was drawn")

        monkeypatch.setattr(dataio, "draw_value_size", no_draw)
        monkeypatch.setattr(engine, "draw_value_size", no_draw)
        argv = command + ["--tx-bytes", "0", "--out-dir", str(tmp_path)]
        assert run_cli(argv, out=io.StringIO()) == 2
        assert "fixed sizes must be >= 1 byte, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tree_mode_via_cli(self, tmp_path):
        code, text = invoke(
            ["simulate", "--mode", "tree", "--levels", "2", "--seed", "3", "--periods", "20",
             "--miners", "8", "--out-dir", str(tmp_path), "--out", "t.json"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["tree"]["stalled"] is None

    def test_stalled_tree_run_exits_1_with_report(self, tmp_path, capsys):
        """Ten miners over four leaf shards leave one leaf without hashrate
        at round 1; the report is still written, the run fails loudly."""
        code, text = invoke(
            ["simulate", "--mode", "tree", "--levels", "3", "--seed", "1", "--periods", "30",
             "--miners", "10", "--out-dir", str(tmp_path), "--out", "s.json"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "-> " in text
        payload = json.loads((tmp_path / "s.json").read_text())
        stalled = payload["tree"]["stalled"]
        assert stalled == {"round": 1, "shard": [2, 2]}
        assert payload["tree"]["rounds"] == 1
        assert "stalled at round 1: shard (2,2) has no miner" in err
        assert f"covers {payload['sim_end_time']:.0f}s of 18000s" in err
        assert "periods=1 mean_period=" in text and "mean_period=n/a" not in text
        # one miner leaves three of the four leaves empty in every round
        code, text = invoke(
            ["simulate", "--mode", "tree", "--levels", "3", "--seed", "1", "--periods", "30",
             "--miners", "1", "--out-dir", str(tmp_path), "--out", "s0.json"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "periods=0 mean_period=n/a " in text
        assert "nan" not in text
        assert "stalled at round 0:" in err

    def test_seeded_round_0_placement(self, tmp_path, capsys):
        """Round 0 places miners under a nonce drawn from the seed, so an
        8-miner tree is not bound to one placement; seed 2 fills every leaf."""
        code, text = invoke(
            ["simulate", "--mode", "tree", "--levels", "3", "--seed", "2", "--periods", "1",
             "--miners", "8", "--out-dir", str(tmp_path), "--out", "t.json"]
        )
        assert code == 0, capsys.readouterr().err
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["tree"]["stalled"] is None
        assert payload["tree"]["rounds"] >= 1

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBSIM_OUT_DIR", str(tmp_path / "envout"))
        code, _ = invoke(["gen", "--seed", "1", "--duration", "60", "--out", "x.csv"])
        assert code == 0
        assert (tmp_path / "envout" / "x.csv").exists()

    def test_figures_export(self, tmp_path):
        code, text = invoke(["shardcalc", "--figures", str(tmp_path / "figs")])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
        assert names == ["mfn_download.csv", "optimal_levels.csv", "sharding_efficiency.csv"]

    def test_config_file_defaults(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"periods": 12, "levels": 2, "mode": "flat"}))
        code, text = invoke(
            ["simulate", "--mode", "flat", "--levels", "2", "--config", str(config),
             "--seed", "5", "--out-dir", str(tmp_path), "--out", "r.json"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["duration"] == 12 * 600.0

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no_such_option": 1}))
        code = run_cli(
            ["simulate", "--mode", "flat", "--levels", "2", "--config", str(config)],
            out=io.StringIO(),
        )
        assert code == 2


class TestHelpContract:
    def test_every_flag_documented(self):
        parser = build_parser()
        subparsers = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ][0]
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in help_text, f"{name}: {option} missing from help"

    def test_subcommand_set(self):
        parser = build_parser()
        subparsers = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ][0]
        assert sorted(subparsers.choices) == [
            "energy", "estimate", "gen", "segment", "shardcalc", "simulate",
        ]
