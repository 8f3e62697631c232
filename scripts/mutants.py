"""Run the mutation catalogue: each mutant must make every test named for it fail.

    python3 scripts/mutants.py                 # every mutant in MUTANTS
    python3 scripts/mutants.py NAME [NAME ...]
    python3 scripts/mutants.py --list

A mutant is (name, file, exact source text, replacement, tests expected to
fail). The committed head is checked out once with ``git worktree`` into a
temporary directory (removed at the end, also when the script is
terminated). For one mutant at a time the script replaces the source text in
that checkout, runs only the named tests there with pytest, and puts the file
back. Uncommitted changes are not seen, so commit before running it.

Each mutant is reported as one of:

- ``killed``: every named test failed;
- ``survived``: some named test passed; the report names it;
- ``stale``: the source text is not in the file exactly once, so the entry
  no longer matches the code and needs rewriting;
- ``error``: pytest did not run the named tests to a result.

Hypothesis runs derandomized, with no example database and no shrinking, so
a mutant's result repeats from run to run and a kill does not wait for a
minimal example. Exits 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench_record import git, worktree

STATEFUL = "tests/test_chainstate_stateful.py::TestChainStateMachine"
UNITS = "tests/test_simulator_units.py"
RUNS = "tests/test_simulator_runs.py::TestConcurrentRun"
GOLDEN_CONCURRENT = (
    "tests/test_golden.py::test_canonical_json_digest[concurrent]",
    "tests/test_golden.py::test_path_digest[concurrent-4-levels]",
)
GOLDEN_TREE = (
    "tests/test_golden.py::test_canonical_json_digest[tree]",
    "tests/test_golden.py::test_path_digest[tree-4-levels]",
)
LINKS = f"{UNITS}::test_sharded_block_links_to_its_shards_last_block"
STREAM = "tests/test_arrival_stream.py"
BY_HAND = f"{STREAM}::test_gaps_driven_by_hand"
LOADER = "tests/test_loader_equivalence.py"
ORACLE = f"{LOADER}::test_load_matches_oracle"
SEG = "tests/test_segmentation.py"
TIED = f"{SEG}::TestScalarOracle::test_rows_tied_in_beta_and_id_keep_file_order"
CUT_ORACLE = f"{SEG}::TestCutOracle::test_cuts_match_the_full_scan"
CHAINSTATE = "src/hbsim/simulator/chainstate.py"
CONFIG = "src/hbsim/simulator/config.py"
ENGINE = "src/hbsim/simulator/engine.py"
DATAIO = "src/hbsim/dataio.py"
SEGMENTATION = "src/hbsim/segmentation.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    source: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "remove-keeps-moved-position",
        CHAINSTATE,
        "            bucket[pos] = last\n            entries[last] = entries[last] & _VALUE_MASK | pos\n",
        "            bucket[pos] = last\n",
        (f"{UNITS}::TestChainState::test_bucket_past_16_bit_positions", STATEFUL),
    ),
    Mutant(
        "pick-compares-unshifted-needed",
        CHAINSTATE,
        "        least = needed << _POS_BITS\n",
        "        least = needed\n",
        (f"{UNITS}::TestChainState::test_bucket_past_16_bit_positions", STATEFUL),
    ),
    Mutant(
        "16-bit-position-field",
        CHAINSTATE,
        "_POS_BITS = 32\n",
        "_POS_BITS = 16\n",
        (f"{UNITS}::TestChainState::test_bucket_past_16_bit_positions", STATEFUL),
    ),
    Mutant(
        "validate-sums-raw-entries",
        CHAINSTATE,
        "            total_in += entry >> _POS_BITS\n",
        "            total_in += entry\n",
        (f"{UNITS}::TestValidateBlock::test_overdraft_rejected", STATEFUL),
    ),
    Mutant(
        "malformed-block-as-carried-average",
        CHAINSTATE,
        'return _reject(E_MALFORMED_BLOCK, "fee list',
        'return _reject(E_BAD_CARRIED_AVERAGE, "fee list',
        (f"{UNITS}::TestValidateBlock::test_fee_list_of_another_length_is_malformed",),
    ),
    Mutant(
        "fee-past-int64-accepted",
        CHAINSTATE,
        "        if fee > _MAX_FEE:\n",
        "        if fee > 2 * _MAX_FEE:\n",
        (f"{UNITS}::TestValidateBlock::test_fee_past_int64_is_malformed",),
    ),
    Mutant(
        "zero-genesis-value-accepted",
        CONFIG,
        "        if self.genesis_value_sat < 1:\n",
        "        if self.genesis_value_sat < 0:\n",
        (f"{UNITS}::TestCoords::test_config_validation",),
    ),
    Mutant(
        "zero-child-batch-accepted",
        CONFIG,
        "self.max_child_batch is not None and self.max_child_batch < 1:",
        "self.max_child_batch is not None and self.max_child_batch < 0:",
        (f"{UNITS}::TestCoords::test_config_validation",),
    ),
    Mutant(
        "broadcast-accepted-in-hybrid-mode",
        CONFIG,
        "            if self.mode != MODE_FLAT:\n",
        "            if self.mode not in (MODE_FLAT, MODE_HYBRID):\n",
        (f"{UNITS}::TestCoords::test_config_validation",),
    ),
    Mutant(
        "zero-header-bytes-accepted",
        CONFIG,
        "        if self.header_bytes < 1 or self.min_cap_bytes < 1:\n",
        "        if self.header_bytes < 0 or self.min_cap_bytes < 1:\n",
        (f"{UNITS}::TestCoords::test_config_validation",),
    ),
    Mutant(
        "equal-timing-gain-bounds-refused",
        CONFIG,
        "0.0 < self.timing_gain_bounds[0] <= self.timing_gain_bounds[1]",
        "0.0 < self.timing_gain_bounds[0] < self.timing_gain_bounds[1]",
        (f"{UNITS}::TestCoords::test_config_validation",),
    ),
    Mutant(
        "sampler-accepts-word-equal-to-range",
        CHAINSTATE,
        "                while r >= n:\n",
        "                while r > n:\n",
        (STATEFUL,),
    ),
    Mutant(
        "above-phase-always-skips-a-bucket",
        CHAINSTATE,
        "            lo += keys[lo] == floor_key\n",
        "            lo += 1\n",
        (f"{UNITS}::TestChainState::test_pick_above_the_boundary_matches_reference[no-boundary-bucket]",),
    ),
    Mutant(
        "stream-fee-rates-bound-once-per-run",
        ENGINE,
        "        while True:\n            fee_rates = self.fee_rates_sat\n",
        "        fee_rates = self.fee_rates_sat\n        while True:\n",
        (BY_HAND, f"{STREAM}::test_run_matches_reference[flat-fixed]"),
    ),
    Mutant(
        "entry-stamped-with-the-next-arrival-time",
        ENGINE,
        "                    pools[level].append(ArrivalTx(getrandbits(256).to_bytes(32, \"big\"), value, size, input_ref,\n"
        "                                                  fee, seq, t, level if overridden else None))\n"
        "                if timed:\n"
        "                    # rng.expovariate(rate), written out\n"
        "                    t += -log(1.0 - random_()) / rate\n",
        "                    tx_id = getrandbits(256).to_bytes(32, \"big\")\n"
        "                if timed:\n"
        "                    # rng.expovariate(rate), written out\n"
        "                    t += -log(1.0 - random_()) / rate\n"
        "                if input_ref is not None:\n"
        "                    pools[level].append(ArrivalTx(tx_id, value, size, input_ref,\n"
        "                                                  fee, seq, t, level if overridden else None))\n",
        (BY_HAND, f"{STREAM}::test_run_matches_reference[concurrent]", *GOLDEN_CONCURRENT),
    ),
    Mutant(
        "backlog-stamped-at-time-zero",
        ENGINE,
        "fee, seq, t, level if overridden else None))",
        "fee, seq, t if timed else 0.0, level if overridden else None))",
        (BY_HAND, f"{STREAM}::test_run_matches_reference[concurrent]", *GOLDEN_CONCURRENT),
    ),
    Mutant(
        "pool-order-without-seq",
        ENGINE,
        '_pool_order = operator.attrgetter("neg_rate", "seq")\n',
        '_pool_order = operator.attrgetter("neg_rate")\n',
        (f"{UNITS}::TestTakeByFeeRate::test_fee_ties_break_by_arrival",),
    ),
    Mutant(
        "stored-rate-sign-flipped",
        ENGINE,
        "        self.neg_rate = -fee_sat / (8 * size_bytes)\n",
        "        self.neg_rate = fee_sat / (8 * size_bytes)\n",
        (
            f"{UNITS}::TestTakeByFeeRate::test_matches_sort_then_cut_oracle",
            f"{UNITS}::test_evict_releases_the_evicted_inputs",
            "tests/test_golden.py::test_canonical_json_digest[flat]",
        ),
    ),
    Mutant(
        "evict-keeps-the-evicted-inputs-reserved",
        ENGINE,
        "        self.state.release([tx.input_ref for tx in pool[limit:]])\n",
        "",
        (f"{UNITS}::test_evict_releases_the_evicted_inputs",),
    ),
    Mutant(
        "spend-keeps-the-reservation",
        CHAINSTATE,
        "        if output_id in self._reserved:\n"
        "            self._reserved.remove(output_id)\n"
        "            self._reserved_counts[key] -= 1\n",
        "",
        (STATEFUL,),
    ),
    Mutant(
        "release-keeps-the-count",
        CHAINSTATE,
        "            counts[(entries[output_id] >> _POS_BITS).bit_length()] -= 1\n",
        "",
        (STATEFUL,),
    ),
    Mutant(
        "scan-skipped-one-early",
        CHAINSTATE,
        "        if counts.get(floor_key, 0) < len(bucket := buckets.get(floor_key, ())):\n",
        "        if counts.get(floor_key, 0) + 1 < len(bucket := buckets.get(floor_key, ())):\n",
        (STATEFUL,),
    ),
    Mutant(
        "pick-does-not-reserve",
        CHAINSTATE,
        "                    reserved.add(output_id)\n                    counts[key] += 1\n",
        "",
        (STATEFUL, "tests/test_golden.py::test_canonical_json_digest[flat]"),
    ),
    Mutant(
        "preseed-draws-interarrival-times",
        ENGINE,
        "        counts, timed, until = range(preseed), False, math.inf\n",
        "        counts, timed, until = range(preseed), True, math.inf\n",
        (BY_HAND, "tests/test_golden.py::test_canonical_json_digest[flat]"),
    ),
    Mutant(
        "skipped-arrival-not-counted",
        ENGINE,
        "                    skipped += 1\n",
        "                    pass\n",
        (f"{BY_HAND}[3]", f"{STREAM}::test_run_matches_reference[flat-empirical-starved]"),
    ),
    Mutant(
        "digest-drops-child-refs",
        CHAINSTATE,
        "            parts += self.child_refs\n",
        "",
        (f"{UNITS}::TestSubBlockDigest::test_digest_bytes_are_pinned",),
    ),
    Mutant(
        "tx-shard-index-one-bit-too-many",
        "src/hbsim/sharding.py",
        'hashlib.sha256(ref).digest(), "big") >> (256 - level)',
        'hashlib.sha256(ref).digest(), "big") >> (255 - level)',
        ("tests/test_sharding.py::TestShardIndex::test_tx_form_equals_tx_shard", *GOLDEN_CONCURRENT),
    ),
    Mutant(
        "left-child-taken-twice",
        ENGINE,
        "for kid in (2 * c + 1, 2 * c + 2):",
        "for kid in (2 * c + 1, 2 * c + 1):",
        (
            f"{RUNS}::test_every_child_referenced_exactly_once",
            f"{RUNS}::test_reference_audit_matches_set_oracle",
            *GOLDEN_CONCURRENT,
        ),
    ),
    Mutant(
        "header-only-block-not-unsettled",
        ENGINE,
        "        self.unsettled[digest] = (level, block.child_refs, arrivals)\n",
        "        if chosen:\n            self.unsettled[digest] = (level, block.child_refs, arrivals)\n",
        (f"{RUNS}::test_every_inclusion_settles_without_orphans", *GOLDEN_CONCURRENT),
    ),
    Mutant(
        "repeated-references-not-deduplicated",
        ENGINE,
        "        distinct = int(np.count_nonzero(referenced[1:] != referenced[:-1])) + 1 if len(referenced) else 0\n",
        "        distinct = len(referenced)\n",
        (
            f"{RUNS}::test_repeated_child_reference_is_counted",
            f"{RUNS}::test_reference_audit_matches_set_oracle[colliding-digests]",
            f"{RUNS}::test_reference_audit_matches_set_oracle[colliding-batch-2]",
        ),
    ),
    Mutant(
        "orphans-counted-without-the-log",
        ENGINE,
        "        orphans = len(left) - int(np.count_nonzero(referenced[at[inside]] == left[inside]))\n",
        "        orphans = len(left)\n",
        (f"{RUNS}::test_reference_audit_matches_set_oracle[colliding-batch-2]",),
    ),
    Mutant(
        "tree-left-child-taken-twice",
        ENGINE,
        "            kids = (last[2 * c + 1], last[2 * c + 2])\n",
        "            kids = (last[2 * c + 1], last[2 * c + 1])\n",
        GOLDEN_TREE,
    ),
    Mutant(
        "tree-hashrate-walks-to-the-wrong-parent",
        ENGINE,
        "                c = (c - 1) // 2\n",
        "                c = c // 2\n",
        (*GOLDEN_TREE, "tests/test_golden.py::test_path_digest[tree-unequal-miners]"),
    ),
    Mutant(
        "tree-previous-averages-from-the-neighbour-block",
        ENGINE,
        "        prev = last[c].carried if last[c] else None\n",
        "        prev = last[c - 1].carried if last[c - 1] else None\n",
        GOLDEN_TREE,
    ),
    Mutant(
        "tree-stall-names-the-heap-index",
        ENGINE,
        'return {"round": round_index, "shard": [level, shard]}',
        'return {"round": round_index, "shard": [level, c]}',
        ("tests/test_golden.py::test_path_digest[tree-stall]",),
    ),
    Mutant(
        "parent-ref-always-zero",
        ENGINE,
        '        return b"\\x00" * 32 if last is None else last.digest()\n',
        '        return b"\\x00" * 32\n',
        (LINKS,),
    ),
    Mutant(
        "concurrent-interval-from-run-start",
        ENGINE,
        "        dt = now if prev is None else now - prev.mined_at\n",
        "        dt = now\n",
        GOLDEN_CONCURRENT,
    ),
    Mutant(
        "median-without-two-middle-average",
        ENGINE,
        '"median": at(n // 2) if n % 2 else (at(n // 2 - 1) + at(n // 2)) / 2,',
        '"median": at(n // 2),',
        (f"{UNITS}::TestSummarizeLatencies::test_matches_list_summary_on_random_counts",),
    ),
    Mutant(
        "p10-index-from-count",
        ENGINE,
        '"p10": at(int(0.1 * (n - 1))),',
        '"p10": at(int(0.1 * n)),',
        (f"{UNITS}::TestSummarizeLatencies::test_matches_list_summary_on_random_counts",),
    ),
    Mutant(
        "txid-offsets-restart-per-chunk",
        DATAIO,
        "            offsets.append(txids.rows + np.cumsum(lengths), expected + 1)\n",
        "            offsets.append(np.cumsum(lengths), expected + 1)\n",
        (f"{LOADER}::test_load_matches_oracle",),
    ),
    Mutant(
        "chunk-beta-reversed",
        DATAIO,
        "np.divide(value, 8 * size, out=",
        "np.divide(value[::-1], 8 * size[::-1], out=",
        (f"{LOADER}::test_load_matches_oracle",),
    ),
    Mutant(
        "column-grows-without-the-copy",
        DATAIO,
        "            grown[: self.rows] = self.buffer[: self.rows]\n",
        "",
        (f"{LOADER}::test_pipe_loads_like_the_file",),
    ),
    Mutant(
        "tell-on-a-pipe",
        DATAIO,
        " * 9 // 8 if seekable else 0",
        " * 9 // 8",
        (f"{LOADER}::test_pipe_loads_like_the_file",),
    ),
    Mutant(
        "column-estimate-from-tell",
        DATAIO,
        "(fh.buffer.tell() - read_past)",
        "fh.buffer.tell()",
        (f"{LOADER}::test_columns_are_allocated_once",),
    ),
    Mutant(
        "chunks-yielded-newest-first",
        DATAIO,
        "                box, data, _ = pending.popleft()\n",
        "                box, data, _ = pending.pop()\n",
        (ORACLE,),
    ),
    Mutant(
        "fallback-drops-the-read-ahead-chunks",
        DATAIO,
        "        ahead.extend(later[_PAD:end] for _, later, end in pending)\n",
        "",
        (ORACLE,),
    ),
    Mutant(
        "read-ahead-decoded-eagerly",
        DATAIO,
        '    texts = (io.StringIO(part.decode(), newline="") for part in parts)\n',
        '    texts = [io.StringIO(part.decode(), newline="") for part in parts]\n',
        (f"{LOADER}::test_error_order_across_read_ahead",),
    ),
    Mutant(
        "resize-with-refcheck",
        DATAIO,
        "self.buffer.resize(self.rows, refcheck=False)",
        "self.buffer.resize(self.rows)",
        ("tests/test_dataio.py::TestLoadDataset::test_load_under_profile_and_trace_hooks",),
    ),
    Mutant(
        "plain-chunk-accepts-quotes",
        DATAIO,
        "        if ((other == _QUOTE) | (other == _NUL)).any():\n",
        "        if (other == _NUL).any():\n",
        (ORACLE,),
    ),
    Mutant(
        "plain-chunk-accepts-lone-cr",
        DATAIO,
        "        if (kinds[lfs] != _LF).any() or (delims[lfs] != delims[crs] + 1).any():\n            return None\n",
        "",
        (f"{LOADER}::test_lone_cr_in_the_last_field_ends_the_record",),
    ),
    Mutant(
        "third-digit-word-place-value",
        DATAIO,
        "        total += word * _U64(10 ** (8 * j))\n",
        "        total += word * _U64(10 ** (8 * min(j, 1)))\n",
        (ORACLE,),
    ),
    Mutant(
        "third-digit-word-masks-its-top-digit",
        DATAIO,
        "        word &= _KEEP[np.clip(lengths - 8 * j, 0, 8)]\n",
        "        word &= _KEEP[np.clip(lengths - 8 * j - j // 2, 0, 8)]\n",
        (ORACLE,),
    ),
    Mutant(
        "zero-value-txids-kept",
        DATAIO,
        "                if not keep.all():\n                    starts, ends = starts[keep], ends[keep]\n",
        "",
        (ORACLE,),
    ),
    Mutant(
        "value-column-not-plain-taken-as-plain",
        DATAIO,
        "                if value is None:\n                    break\n",
        "",
        (f"{LOADER}::test_value_not_plain_after_a_plain_chunk",),
    ),
    Mutant(
        "value-at-2-53-accepted",
        DATAIO,
        " | (values < 0) | (values >= MAX_EXACT_INT)",
        " | (values < 0)",
        (ORACLE,),
    ),
    Mutant(
        "cut-at-or-below-the-bound",
        SEGMENTATION,
        "        below = lg[start:end] < bound\n",
        "        below = lg[start:end] <= bound\n",
        (f"{SEG}::TestCutSearch", f"{SEG}::TestScalarOracle::test_objects"),
    ),
    Mutant(
        "no-lg-screen",
        SEGMENTATION,
        "_LG_SCREEN = 1e-9\n",
        "_LG_SCREEN = 0\n",
        (f"{SEG}::TestCutSearch",),
    ),
    Mutant(
        "numpy-lg-kept-near-the-cuts",
        SEGMENTATION,
        "            part[near] = [math.log10(beta) for beta in ranked[start:end][near].tolist()]\n",
        "",
        (f"{SEG}::TestCutSearch",),
    ),
    Mutant(
        "cut-window-of-zero-width",
        SEGMENTATION,
        "_LG_WINDOW = 1e-6\n",
        "_LG_WINDOW = 0\n",
        (CUT_ORACLE,),
    ),
    Mutant(
        "cut-window-upper-edge-a-row-late",
        SEGMENTATION,
        "        start = max(start, cuts[-1])\n",
        "        start = max(start + 1, cuts[-1])\n",
        (CUT_ORACLE,),
    ),
    Mutant(
        "cut-window-end-a-row-late",
        SEGMENTATION,
        "else max(start, end))\n",
        "else max(start, end + 1))\n",
        (CUT_ORACLE,),
    ),
    Mutant(
        "cut-window-edges-from-subnormal-powers",
        SEGMENTATION,
        "if -307 < bound < 308 else (math.inf, 0.0)",
        "if bound < 308 else (math.inf, 0.0)",
        (CUT_ORACLE,),
    ),
    Mutant(
        "ties-left-in-argsort-order",
        SEGMENTATION,
        "    _order_ties_by_id(table, order, ranked)\n",
        "",
        (
            f"{SEG}::TestScalarOracle::test_objects",
            f"{SEG}::TestScalarOracle::test_table_loaded_from_csv",
        ),
    ),
    Mutant(
        "tie-key-without-the-row",
        SEGMENTATION,
        "[_big_endian_bytes(run), text, _big_endian_bytes(rows)]",
        "[_big_endian_bytes(run), text]",
        (f"{TIED}[one_id]",),
    ),
    Mutant(
        "uppercase-hex-ids-sorted-as-text",
        SEGMENTATION,
        '_LOWER_HEX = b"0123456789abcdef"\n',
        '_LOWER_HEX = b"0123456789abcdefABCDEF"\n',
        (f"{TIED}[lower_and_upper]",),
    ),
    Mutant(
        "hex-ids-with-spaces-sorted-as-text",
        SEGMENTATION,
        '_LOWER_HEX = b"0123456789abcdef"\n',
        '_LOWER_HEX = b"0123456789abcdef "\n',
        (f"{SEG}::TestScalarOracle::test_tied_ids_split_by_spaces_sort_by_their_bytes",),
    ),
    Mutant(
        "hex-ids-of-mixed-length-sorted-as-text",
        SEGMENTATION,
        "if width == 0 or (lengths != width).any():",
        "if width == 0:",
        (f"{SEG}::TestScalarOracle::test_table_loaded_from_csv",),
    ),
    Mutant(
        "beta-mean-pairwise-sum",
        SEGMENTATION,
        "        beta_mean=float(np.add.accumulate(beta)[-1]) / n,\n",
        "        beta_mean=float(np.sum(beta)) / n,\n",
        (f"{SEG}::TestScalarOracle::test_objects",),
    ),
    Mutant(
        "value-min-as-float",
        SEGMENTATION,
        "        value_min=int(values.min()),\n",
        "        value_min=float(values.min()),\n",
        (f"{SEG}::TestLevelStats::test_totals_exact_past_int64",),
    ),
    Mutant(
        "no-int64-overflow-guard",
        SEGMENTATION,
        "    if column.dtype == object or len(column) * int(column.max()) >= 2**63:\n",
        "    if column.dtype == object:\n",
        (f"{SEG}::TestLevelStats::test_totals_exact_past_int64",),
    ),
)

# Runs pytest on the named tests in the checkout given as working directory
# and prints, on its last line, which node ids ran and which failed.
DRIVER = """
import json, sys
import hypothesis, pytest
hypothesis.settings.register_profile(
    "mutants", database=None, derandomize=True,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate],
)
hypothesis.settings.load_profile("mutants")
class Outcomes:
    def __init__(self):
        self.ran, self.failed = set(), set()
    def pytest_runtest_logreport(self, report):
        self.ran.add(report.nodeid)
        if report.failed:
            self.failed.add(report.nodeid)
outcomes = Outcomes()
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]], plugins=[outcomes])
import hbsim
print(json.dumps({"exit": int(code), "hbsim": hbsim.__file__,
                  "ran": sorted(outcomes.ran), "failed": sorted(outcomes.failed)}))
"""


def under(nodeid: str, test: str) -> bool:
    """Whether pytest node ``nodeid`` is the named test or one of its children."""
    return nodeid == test or nodeid.startswith((test + "::", test + "["))


def run_mutant(root: Path, mutant: Mutant) -> dict:
    path = root / mutant.path
    original = path.read_text()
    if original.count(mutant.source) != 1:
        return {"outcome": "stale", "detail": f"source text found {original.count(mutant.source)} times"}
    path.write_text(original.replace(mutant.source, mutant.replacement))
    try:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, *mutant.tests], cwd=root, env=env, capture_output=True, text=True
        )
    finally:
        path.write_text(original)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"outcome": "error", "detail": (proc.stdout + proc.stderr).strip()[-2000:]}
    if not Path(result["hbsim"]).resolve().is_relative_to(root.resolve()):
        return {"outcome": "error", "detail": f"hbsim imported from {result['hbsim']}, not the checkout"}
    unrun = [t for t in mutant.tests if not any(under(n, t) for n in result["ran"])]
    if result["exit"] not in (0, 1) or unrun:
        return {"outcome": "error", "detail": f"pytest exit {result['exit']}; not run: {unrun}"}
    passed = [t for t in mutant.tests if not any(under(n, t) for n in result["failed"])]
    if passed:
        return {"outcome": "survived", "detail": f"passed: {passed}"}
    return {"outcome": "killed", "detail": f"failed: {result['failed']}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print the catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.path} -> {', '.join(m.tests)}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        sys.stderr.write(f"unknown mutants: {sorted(unknown)}\n")
        return 2
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    sha = git("rev-parse", "--short", "HEAD").stdout.strip()
    if git("status", "--porcelain", "--", "src", "tests").stdout:
        sys.stderr.write(f"src/ or tests/ has uncommitted changes; mutating the commit {sha}\n")
    outcomes = []
    with worktree(sha) as root:
        for mutant in chosen:
            start = time.perf_counter()
            result = run_mutant(root, mutant)
            outcomes.append(result["outcome"])
            print(f"{result['outcome']:8} {mutant.name} ({time.perf_counter() - start:.0f} s): {result['detail']}",
                  flush=True)
    print(f"{outcomes.count('killed')} of {len(chosen)} mutants killed")
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
