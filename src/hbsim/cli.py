"""Command-line front end: analysis, closed-form tables, and simulation runs.

Exit codes: 0 on success, 2 when arguments or inputs fail validation, 1 on
unexpected runtime errors or a simulation that ended early (a stalled tree
run). A simulation that skipped more than 1% of its arrivals says so on
stderr and still exits 0. All stochastic subcommands are pinned by --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import dataio, economics, segmentation, sharding
from .core import NetworkParams
from .simulator import SimConfig, equal_miners, simulate

# A run that skipped more than this share of its arrivals (no unreserved
# input could fund them) simulated a lighter workload than it was given.
STARVED_SHARE = 0.01

TABLE_ROWS = (
    ("|T_l|", lambda s: s.count),
    ("min(beta)", lambda s: s.beta_min),
    ("max(beta)", lambda s: s.beta_max),
    ("mean(beta)", lambda s: s.beta_mean),
    ("min(v)", lambda s: s.value_min),
    ("max(v)", lambda s: s.value_max),
    ("mean(v)", lambda s: s.value_mean),
    ("sum(v)", lambda s: s.value_total),
    ("mean(size)", lambda s: s.size_mean_bytes),
)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.3g}"


def _emit_table(headers, rows, fmt, out):
    if fmt == "delimited":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(str(c) for c in row) + "\n")
        return
    widths = [
        max(len(str(headers[i])), max((len(_fmt(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)) + "\n")
    for row in rows:
        out.write("  ".join(_fmt(c).ljust(w) for c, w in zip(row, widths)) + "\n")


def _out_path(args, name: str) -> Path:
    base = Path(args.out_dir or os.environ.get("HBSIM_OUT_DIR", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base / name


def _load_levels(args):
    txs, summary = dataio.load_dataset(args.dataset)
    if not txs:
        raise ValueError(f"{args.dataset}: no usable transactions")
    seg = segmentation.segment(args.levels, txs, mode=args.mode)
    stats = segmentation.level_stats(seg)
    blocks = args.blocks or summary.num_blocks
    return seg, stats, summary, blocks


def cmd_segment(args, out) -> int:
    seg, stats, summary, _ = _load_levels(args)
    out.write(
        f"# {summary.transactions} transactions, {summary.num_blocks} blocks, "
        f"{summary.dropped_zero_value} zero-value rows dropped\n"
    )
    headers = ["stat"] + [f"l={l}" for l in range(args.levels)]
    rows = [[label] + [fn(s) for s in stats] for label, fn in TABLE_ROWS]
    if args.format == "delimited":
        rows = [[r[0]] + ["" if c is None else repr(c) for c in r[1:]] for r in rows]
    _emit_table(headers, rows, args.format, out)
    return 0


def cmd_estimate(args, out) -> int:
    _, stats, summary, blocks = _load_levels(args)
    c_eta = economics.compute_c_eta_flat(stats, blocks, args.target)
    c_alt = economics.c_eta_from_total_value(
        sum(s.value_total for s in stats), blocks, args.target
    )
    if args.tree:
        eta = economics.eta_levels_tree(c_eta, stats)
    else:
        eta = economics.eta_levels_flat(c_eta, stats)
    flat_eta = economics.eta_levels_flat(c_eta, stats)
    avg_bits = [s.bits_total / blocks for s in stats]
    times = economics.time_per_level(flat_eta, avg_bits)
    fees = economics.fee_rates(flat_eta, args.kappa_fee)
    rewards = economics.reward_split_flat(times, args.reward)
    ok, recommended = economics.check_min_level_time(times, args.t_min)
    t_multi = min(sum(times[1:]), args.target)
    lam = economics.homotopy_lambda(t_multi, args.target) if len(times) > 1 else 1.0
    out.write(f"c_eta            {c_eta:.6g} s/BTC (total-value estimator {c_alt:.6g})\n")
    out.write(f"eta{'_tree' if args.tree else ''}              {' '.join(f'{e:.3g}' for e in eta)}\n")
    out.write(f"t_per_level      {' '.join(f'{t:.3g}' for t in times)}\n")
    out.write(f"fee_per_bit      {' '.join(f'{f:.3g}' for f in fees)}\n")
    out.write(
        "fee_ratio_vs_l0  " + " ".join(f"{fees[0] / f:.4g}" for f in fees) + "\n"
    )
    out.write(
        f"reward_split_sat {' '.join(str(r) for r in rewards)} (total {sum(rewards)})\n"
    )
    out.write(f"min_level_time   ok={ok} recommended_levels={recommended}\n")
    out.write(f"lambda           {lam:.6g}\n")
    return 0


def cmd_shardcalc(args, out) -> int:
    wrote = False
    if args.ratio:
        n, levels = int(args.ratio[0]), int(args.ratio[1])
        out.write(f"mfn_ratio(N={n}, L={levels}) = {sharding.mfn_ratio(n, levels):.6g}\n")
        wrote = True
    if args.throughput is not None:
        out.write(
            f"throughput(L={args.throughput}) = "
            f"{sharding.tree_throughput(args.throughput):.6g} tx/s\n"
        )
        wrote = True
    if args.store:
        n, levels = args.store
        rate = sharding.mfn_store_rate(n, int(levels))
        out.write(
            f"mfn_store(n={n:g}, L={levels:g}) = {rate:.6g} tx/s "
            f"({sharding.rate_to_mb_per_day(rate):.6g} MB/day)\n"
        )
        wrote = True
    if args.download:
        n, levels = args.download
        rate = sharding.mfn_download_rate(n, int(levels))
        out.write(
            f"mfn_download(n={n:g}, L={levels:g}) = {rate:.6g} tx/s "
            f"({sharding.rate_to_mb_per_day(rate):.6g} MB/day)\n"
        )
        wrote = True
    if args.optimal:
        lo, hi, step = (int(x) for x in args.optimal)
        headers = ["n", "L_argmin", "store_mb_day", "download_mb_day"]
        rows = []
        for n in range(lo, hi + 1, step):
            opt = sharding.optimal_levels(n)
            rows.append([n, round(opt.levels, 3), round(opt.store_mb_day, 3), round(opt.download_mb_day, 2)])
        _emit_table(headers, rows, args.format, out)
        wrote = True
    if args.routing:
        if args.p is None or args.levels is None:
            raise ValueError("--routing needs --p and --levels")
        level = args.levels - 1
        peers = sharding.required_peers(args.p, level)
        out.write(
            f"required_peers(p={args.p:g}, L={args.levels}, l={level}) = {peers}\n"
        )
        wrote = True
    if args.figures:
        base = Path(args.figures)
        base.mkdir(parents=True, exist_ok=True)
        dataio.export_sharding_efficiency(base / "sharding_efficiency.csv")
        dataio.export_mfn_download(base / "mfn_download.csv")
        dataio.export_optimal_levels(base / "optimal_levels.csv")
        out.write(f"figure data written to {base}\n")
        wrote = True
    if not wrote:
        raise ValueError("shardcalc: nothing to compute; pass at least one query flag")
    return 0


def cmd_energy(args, out) -> int:
    ep = economics.EnergyParams(
        efficiency_j_per_th=args.efficiency,
        electricity_usd_per_kwh=args.price,
        btcusd=args.btcusd,
        fee_usd_per_bit=args.fee_usd_per_bit,
        block_reward_btc=args.reward,
    )
    net = NetworkParams(total_hashrate=args.hashrate_ths * 1e12, difficulty=1.0)
    tx_kwh, tx_usd = economics.energy_per_tx(ep, net, args.tx_bytes)
    blk_kwh, blk_usd = economics.energy_per_block(ep, net)
    bound = economics.energy_upper_bound(ep)
    out.write(f"per_tx({args.tx_bytes}B)   {tx_kwh:.6g} kWh  {tx_usd:.6g} $\n")
    out.write(f"per_block       {blk_kwh:.6g} kWh  {blk_usd:.6g} $\n")
    out.write(f"rational_bound  {bound:.6g} kWh/block\n")
    out.write(f"annualized      {economics.annualized_energy_kwh(bound) / 1e9:.6g} TWh/yr\n")
    return 0


def _sim_config(args, seed: int) -> SimConfig:
    workload = dataio.WorkloadSpec(
        rate=args.rate,
        lg_beta_mu=args.mu,
        lg_beta_sigma=args.sigma,
        size_mode="fixed",
        size_params=(args.tx_bytes,),
    )
    kwargs = dict(
        mode=args.mode,
        num_levels=args.levels,
        duration=args.periods * args.target,
        seed=seed,
        workload=workload,
        retarget_window=args.window,
        target_time=args.target,
    )
    if args.mode == "tree":
        kwargs["miners"] = equal_miners(args.miners)
    if args.mode == "concurrent":
        if not args.chain_times:
            raise ValueError(
                "concurrent mode needs --chain-times with one expected block time per level "
                "(the bootstrap cadence can be sub-second at the deepest level)"
            )
        kwargs["chain_target_times"] = tuple(args.chain_times)
    return SimConfig(**kwargs)


def cmd_simulate(args, out) -> int:
    code = 0
    for i in range(args.runs):
        seed = args.seed + i
        report = simulate(_sim_config(args, seed))
        name = args.out or f"report-{args.mode}-seed{seed}.json"
        if args.runs > 1:
            name = f"{Path(name).stem}-{seed}{Path(name).suffix or '.json'}"
        path = _out_path(args, name)
        dataio.write_report(report, path)
        times = report.superblock_times
        mean = f"{sum(times) / len(times):.2f}s" if times else "n/a"
        out.write(
            f"seed {seed}: periods={len(times)} mean_period={mean} "
            f"confirmed={report.txs_confirmed} skipped={report.txs_skipped} "
            f"violations={report.conservation_violations} -> {path}\n"
        )
        if report.txs_skipped > STARVED_SHARE * report.txs_generated:
            print(
                f"hbsim: seed {seed}: {report.txs_skipped / report.txs_generated:.1%} of "
                f"{report.txs_generated} arrivals were skipped for want of an unreserved input; "
                f"the run did not simulate its configured workload",
                file=sys.stderr,
            )
        stalled = report.tree["stalled"] if report.tree else None
        if stalled:
            level, shard = stalled["shard"]
            print(
                f"hbsim: seed {seed}: tree run stalled at round {stalled['round']}: shard "
                f"({level},{shard}) has no miner; the report covers {report.sim_end_time:.0f}s "
                f"of {args.periods * args.target:.0f}s",
                file=sys.stderr,
            )
            code = 1
    return code


def cmd_gen(args, out) -> int:
    rng = random.Random(args.seed)
    spec = dataio.WorkloadSpec(
        rate=args.rate, lg_beta_mu=args.mu, lg_beta_sigma=args.sigma,
        size_mode="fixed", size_params=(args.tx_bytes,),
    )
    rows = (
        dataio.DatasetRow(
            block_height=int(t // args.target), txid=tx.id.hex(), size=tx.size_bytes, output_value=tx.value
        )
        for t, tx in dataio.generate_workload(spec, rng, args.duration)
    )
    path = _out_path(args, args.out)
    count = dataio.write_dataset(path, rows)
    out.write(f"{count} transactions -> {path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbsim",
        description="Hierarchical block structure analysis and simulation",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for stochastic subcommands")
    common.add_argument("--out-dir", default=None, help="artifact directory (or $HBSIM_OUT_DIR)")
    common.add_argument(
        "--format", choices=("table", "delimited"), default="table", help="tabular output style"
    )
    common.add_argument("--config", default=None, help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a dataset into security levels", parents=[common])
    seg.add_argument("--dataset", required=True, help="transaction dataset file")
    seg.add_argument("--levels", type=int, required=True, help="number of levels L")
    seg.add_argument("--mode", choices=("uniform", "rounded"), default="uniform", help="interval step rule")
    seg.add_argument("--blocks", type=int, default=None, help="override the block count")
    seg.set_defaults(func=cmd_segment)

    est = sub.add_parser("estimate", help="calibration constants from a dataset", parents=[common])
    est.add_argument("--dataset", required=True, help="transaction dataset file")
    est.add_argument("--levels", type=int, required=True, help="number of levels L")
    est.add_argument("--mode", choices=("uniform", "rounded"), default="uniform", help="interval step rule")
    est.add_argument("--blocks", type=int, default=None, help="override the block count")
    est.add_argument("--target", type=float, default=600.0, help="target period seconds")
    est.add_argument("--kappa-fee", type=float, default=1.0, help="fee proportionality constant")
    est.add_argument("--reward", type=float, default=6.25, help="block reward in BTC")
    est.add_argument("--t-min", type=float, default=15.0, help="minimum viable level time")
    est.add_argument("--tree", action="store_true", help="report tree-sharded time investments")
    est.set_defaults(func=cmd_estimate)

    shard = sub.add_parser("shardcalc", help="closed-form sharding and MFN quantities", parents=[common])
    shard.add_argument("--ratio", nargs=2, type=float, metavar=("N", "L"), help="MFN handled/total ratio")
    shard.add_argument("--throughput", type=int, metavar="L", help="tree capacity in tx/s")
    shard.add_argument("--store", nargs=2, type=float, metavar=("n", "L"), help="MFN storage rate")
    shard.add_argument("--download", nargs=2, type=float, metavar=("n", "L"), help="MFN download bound")
    shard.add_argument("--optimal", nargs=3, type=int, metavar=("LO", "HI", "STEP"), help="optimal-L sweep")
    shard.add_argument("--routing", action="store_true", help="peers needed to reach a shard")
    shard.add_argument("--p", type=float, default=None, help="routing miss probability")
    shard.add_argument("--levels", type=int, default=None, help="tree depth L for --routing")
    shard.add_argument("--figures", default=None, help="directory for figure data exports")
    shard.set_defaults(func=cmd_shardcalc)

    energy = sub.add_parser("energy", help="electric energy model", parents=[common])
    energy.add_argument("--efficiency", type=float, default=30.0, help="miner efficiency J/TH")
    energy.add_argument("--hashrate-ths", type=float, default=1.2e8, help="network hashrate TH/s")
    energy.add_argument("--price", type=float, default=0.1, help="electricity $/kWh")
    energy.add_argument("--tx-bytes", type=int, default=250, help="transaction size bytes")
    energy.add_argument("--btcusd", type=float, default=40_000.0, help="BTC exchange rate")
    energy.add_argument("--fee-usd-per-bit", type=float, default=0.001875, help="fee $/bit")
    energy.add_argument("--reward", type=float, default=6.25, help="block reward BTC")
    energy.set_defaults(func=cmd_energy)

    sim = sub.add_parser("simulate", help="run the chain simulator", parents=[common])
    sim.add_argument("--mode", choices=("flat", "hybrid", "tree", "concurrent"), required=True)
    sim.add_argument("--levels", type=int, required=True, help="number of levels L")
    sim.add_argument("--periods", type=int, default=100, help="duration in target periods")
    sim.add_argument("--target", type=float, default=600.0, help="target period seconds")
    sim.add_argument("--window", type=int, default=32, help="retarget window")
    sim.add_argument("--rate", type=float, default=0.2, help="transaction arrivals per second")
    sim.add_argument("--mu", type=float, default=3.0, help="mean of lg value-per-bit")
    sim.add_argument("--sigma", type=float, default=1.0, help="spread of lg value-per-bit")
    sim.add_argument("--tx-bytes", type=int, default=400, help="transaction size bytes")
    sim.add_argument("--miners", type=int, default=32, help="miner count (tree mode)")
    sim.add_argument("--chain-times", nargs="+", type=float, default=None, help="per-level chain cadence (concurrent)")
    sim.add_argument("--runs", type=int, default=1, help="independent seeds to fan out")
    sim.add_argument("--out", default=None, help="report file name")
    sim.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("gen", help="generate a synthetic dataset", parents=[common])
    gen.add_argument("--rate", type=float, default=2.0, help="arrivals per second")
    gen.add_argument("--mu", type=float, default=3.0, help="mean of lg value-per-bit")
    gen.add_argument("--sigma", type=float, default=1.0, help="spread of lg value-per-bit")
    gen.add_argument("--duration", type=float, default=3600.0, help="stream length seconds")
    gen.add_argument("--tx-bytes", type=int, default=400, help="transaction size bytes")
    gen.add_argument("--target", type=float, default=600.0, help="seconds per synthetic block")
    gen.add_argument("--out", default="dataset.csv", help="output file name")
    gen.set_defaults(func=cmd_gen)
    return parser


def _apply_config_file(args, argv):
    """Re-parse with defaults taken from the JSON config; explicit flags win."""
    overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(overrides, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    sub = subparsers.choices[args.command]
    known = {a.dest for a in sub._actions}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def run_cli(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            args = _apply_config_file(args, argv)
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"hbsim: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"hbsim: internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
