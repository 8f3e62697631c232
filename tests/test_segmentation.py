import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbsim.core import ExtendedTransaction, value_per_bit
from hbsim.dataio import DatasetRow, load_dataset, write_dataset
from hbsim import segmentation
from hbsim.segmentation import (
    MODE_ROUNDED,
    MODE_UNIFORM,
    fit_lognormal,
    level_stats,
    lg_beta_histogram,
    segment,
    summarize_level,
    txid_to_bytes,
)
from conftest import make_tx
from scalar_segmentation import scalar_segment, scalar_summarize_level, scan_cuts


def brute_force_level(lg_beta, boundaries):
    """Independent assignment: scan the half-open intervals top down.

    Level l holds boundaries[l] >= lg_beta > boundaries[l+1]; the lowest
    boundary is inclusive and anything below it (possible only through float
    dust or the rounded mode) belongs to the last level.
    """
    num_levels = len(boundaries) - 1
    for l in range(num_levels):
        if lg_beta >= boundaries[l + 1]:
            return l
    return num_levels - 1


def random_tx_set(rng, n=None):
    n = n or rng.randrange(1, 40)
    return [
        make_tx(rng.randrange(1, 10**12), rng.randrange(1, 3000))
        for _ in range(n)
    ]


class TestSegment:
    def test_single_tx_degenerate_range(self):
        tx = make_tx(1000, 250)
        seg = segment(3, [tx])
        assert seg.levels[0] == (tx,)
        assert seg.levels[1] == ()
        assert seg.levels[2] == ()

    def test_two_txs_skip_a_level(self):
        """beta 1000 and 1 with three levels: the small one walks down to level 2."""
        rich = make_tx(8000, 1)
        poor = make_tx(8, 1)
        seg = segment(3, [rich, poor])
        assert seg.levels == ((rich,), (), (poor,))
        assert seg.boundaries == pytest.approx((3.0, 2.0, 1.0, 0.0))

    def test_boundary_tx_lands_in_higher_beta_level(self):
        """lg(beta) exactly on an interior cut point stays with the richer level."""
        txs = [make_tx(8000, 1), make_tx(800, 1), make_tx(8, 1)]
        seg = segment(3, txs)
        assert math.log10(value_per_bit(txs[1])) == seg.boundaries[1]
        assert txs[1] in seg.levels[0]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            txs = random_tx_set(rng)
            num_levels = rng.randrange(1, 9)
            mode = rng.choice([MODE_UNIFORM, MODE_ROUNDED])
            seg = segment(num_levels, txs, mode=mode)
            placed = {t.id: l for l, lvl in enumerate(seg.levels) for t in lvl}
            for t in txs:
                expected = brute_force_level(math.log10(value_per_bit(t)), seg.boundaries)
                assert placed[t.id] == expected

    @settings(max_examples=150)
    @given(st.data())
    def test_partition_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        txs = [
            make_tx(
                data.draw(st.integers(min_value=1, max_value=10**10)),
                data.draw(st.integers(min_value=1, max_value=2000)),
            )
            for _ in range(n)
        ]
        num_levels = data.draw(st.integers(min_value=1, max_value=6))
        seg = segment(num_levels, txs)
        ids = [t.id for lvl in seg.levels for t in lvl]
        assert sorted(ids) == sorted(t.id for t in txs)
        assert len(set(ids)) == len(ids)
        # monotone: min beta of a level never below max beta of the next
        for l in range(num_levels - 1):
            if seg.levels[l] and seg.levels[l + 1]:
                lo = min(value_per_bit(t) for t in seg.levels[l])
                hi = max(value_per_bit(t) for t in seg.levels[l + 1])
                assert lo >= hi

    def test_permutation_invariance(self):
        rng = random.Random(13)
        txs = random_tx_set(rng, n=25)
        ref = segment(4, txs)
        for _ in range(5):
            shuffled = txs[:]
            rng.shuffle(shuffled)
            seg = segment(4, shuffled)
            for a, b in zip(ref.levels, seg.levels):
                assert sorted(t.id for t in a) == sorted(t.id for t in b)

    def test_rounded_mode_widens_the_range(self):
        txs = [make_tx(4000, 1), make_tx(40, 1)]  # lg betas ~2.7 and ~0.7
        uniform = segment(2, txs, mode=MODE_UNIFORM)
        rounded = segment(2, txs, mode=MODE_ROUNDED)
        assert rounded.boundaries[0] == uniform.boundaries[0]
        step_u = uniform.boundaries[0] - uniform.boundaries[1]
        step_r = rounded.boundaries[0] - rounded.boundaries[1]
        assert step_r == pytest.approx((3 - 0) / 2)
        assert step_r > step_u

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            segment(3, [])
        with pytest.raises(ValueError):
            segment(0, [make_tx(1, 1)])


class TestCutSearch:
    def test_bound_within_an_ulp_of_a_row_numpy_places_differently(self):
        """The cut follows math.log10 where numpy's log10 is one ulp off it.

        Bounds at, one ulp above and one ulp below math.log10 of such a row put
        it on the other side of the bound by numpy's value in one of the three.
        """
        rng = np.random.default_rng(0)
        candidates = np.maximum(1, np.rint(10.0 ** rng.normal(3, 1, 20_000) * 3200)) / 3200
        lg_numpy = np.log10(candidates)
        lg_math = np.array([math.log10(beta) for beta in candidates.tolist()])
        higher = candidates[lg_numpy > lg_math]
        lower = candidates[lg_numpy < lg_math]
        if not (len(higher) and len(lower)):
            pytest.skip("numpy's log10 is not above and below math.log10 on any candidate here")
        for beta in (float(higher[0]), float(lower[0])):
            ranked = np.array([beta * 100, beta, beta, beta / 100])
            lg_ends = (math.log10(ranked[0]), math.log10(ranked[-1]))
            lg = math.log10(beta)
            bounds = [float(np.nextafter(lg, np.inf)), lg, float(np.nextafter(lg, -np.inf))]
            for bound in bounds:
                first_below = next(i for i, b in enumerate(ranked.tolist()) if math.log10(b) < bound)
                assert segmentation._cuts(ranked, *lg_ends, [bound]) == (0, first_below, 4)
            assert segmentation._cuts(ranked, *lg_ends, bounds) == (0, 1, 3, 3, 4)


# lg offsets from a bound at which rows are placed: on it, an ulp either side,
# inside the 1e-9 screen, and at and past the cut search's 1e-6 window
WINDOW = 1e-6
CUT_OFFSETS = (0.0, "ulp", "-ulp", 1e-9, -1e-9, WINDOW, -WINDOW, 2 * WINDOW, -2 * WINDOW)
# lg ranges for bounds: the usual betas, and the ends of float64's range,
# where 10**x overflows or turns subnormal
BOUND_RANGES = (st.floats(-20, 20), st.floats(300, 308.3), st.floats(-324, -300))


def rows_near(bound, offsets, beta_steps):
    """Betas at lg offsets from ``bound``, and a float64 step either side of 10**bound."""
    lgs = [bound + (math.ulp(bound) if o == "ulp" else -math.ulp(bound) if o == "-ulp" else o) for o in offsets]
    with np.errstate(over="ignore", under="ignore"):
        betas = np.power(10.0, lgs).tolist()
        on = float(np.power(10.0, bound))
        betas += [float(np.nextafter(on, np.inf if step > 0 else 0.0)) for step in beta_steps] + [on]
    return betas


class TestCutOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cuts_match_the_full_scan(self, data):
        """The cut search gives the full scan's cuts on descending betas
        placed around its bounds: on a bound, an ulp, 1e-9, the window's
        width and twice it either side, several rows with one beta, a single
        row, and bounds above and below every row."""
        bounds = sorted(data.draw(st.lists(st.one_of(*BOUND_RANGES), min_size=1, max_size=4)), reverse=True)
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(bounds) - 1))
            bounds.insert(at, bounds[at])  # equal bounds: every step is 0 when all betas are equal
        betas = []
        for bound in bounds:
            if data.draw(st.booleans()):
                offsets = data.draw(st.lists(st.sampled_from(CUT_OFFSETS), max_size=6))
                steps = data.draw(st.lists(st.sampled_from([-1, 1]), max_size=2))
                betas += rows_near(bound, offsets, steps) * data.draw(st.integers(1, 3))
        betas += data.draw(st.lists(st.floats(1e-12, 1e15), max_size=5))
        betas = [b for b in betas if 0.0 < b < math.inf]
        if not betas:
            betas = [data.draw(st.floats(1e-12, 1e15))]
        if data.draw(st.booleans()):
            betas = betas[:1]
        ranked = np.sort(np.array(betas))[::-1].copy()
        lg_max, lg_min = math.log10(ranked[0]), math.log10(ranked[-1])
        extremes = data.draw(st.sampled_from(["none", "above", "below", "both"]))
        if extremes in ("above", "both"):
            bounds.insert(0, lg_max + data.draw(st.sampled_from([WINDOW / 2, 2 * WINDOW, 1.0])))
        if extremes in ("below", "both"):
            bounds.append(lg_min - data.draw(st.sampled_from([WINDOW / 2, 2 * WINDOW, 1.0])))
        bounds.sort(reverse=True)  # segment's bounds never rise
        assert segmentation._cuts(ranked, lg_max, lg_min, bounds) == scan_cuts(ranked, lg_max, lg_min, bounds)


class TestLevelStats:
    def test_singleton_level(self):
        seg = segment(2, [make_tx(8000, 1), make_tx(8, 1)])
        stats = level_stats(seg)
        top = stats[0]
        assert top.count == 1
        assert top.beta_min == top.beta_max == top.beta_mean == 1000.0
        assert top.value_total == 8000
        assert top.bits_total == 8

    def test_totals_equal_direct_sums(self):
        rng = random.Random(99)
        txs = random_tx_set(rng, n=60)
        seg = segment(5, txs)
        stats = level_stats(seg)
        for lvl, summary in zip(seg.levels, stats):
            assert summary.count == len(lvl)
            assert summary.value_total == sum(t.value for t in lvl)
            assert summary.bits_total == sum(t.size_bits for t in lvl)
            if lvl:
                assert summary.beta_mean == pytest.approx(
                    sum(value_per_bit(t) for t in lvl) / len(lvl)
                )

    def test_totals_exact_past_int64(self):
        txs = [make_tx(2**62 + 1, 1) for _ in range(3)] + [make_tx(2**64, 2)]
        summary = summarize_level(txs)
        assert summary.value_total == 3 * (2**62 + 1) + 2**64
        assert summary.value_max == 2**64 and summary.value_min == 2**62 + 1
        assert repr(summary) == repr(scalar_summarize_level(txs))
        big = summarize_level(txs[:3])
        assert big.value_total == 3 * (2**62 + 1)

    def test_empty_level_flagged_absent(self):
        seg = segment(3, [make_tx(8000, 1), make_tx(8, 1)])
        summary = level_stats(seg)[1]
        assert summary.count == 0
        assert summary.beta_mean is None
        assert summary.value_total == 0


class TestLogNormalFit:
    def test_identical_betas_give_zero_sigma(self):
        txs = [make_tx(800, 1) for _ in range(10)]
        fit = fit_lognormal(txs)
        assert fit.sigma == 0.0
        assert fit.mu == pytest.approx(2.0)

    def test_generator_fitter_round_trip(self):
        rng = np.random.default_rng(42)
        lg = rng.normal(3.0, 1.0, size=100_000)
        txs = [make_tx(max(1, round(10.0**x * 8 * 250)), 250) for x in lg]
        fit = fit_lognormal(txs)
        assert abs(fit.mu - 3.0) < 0.02
        assert abs(fit.sigma - 1.0) < 0.02

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_lognormal([make_tx(10, 1)])

    def test_histogram_density_normalized(self):
        rng = np.random.default_rng(1)
        txs = [make_tx(max(1, round(10.0**x * 8 * 250)), 250) for x in rng.normal(2, 0.7, 5000)]
        edges, densities = lg_beta_histogram(txs, bins=100)
        widths = np.diff(edges)
        assert abs(float(np.sum(densities * widths)) - 1.0) < 1e-9


# Few distinct values and sizes, so many transactions share a beta exactly
# (8/1 == 16/2 == 32/4), and a small id pool, so ties in beta meet ties in id.
TIE_VALUES = [8, 16, 24, 32, 80, 800, 8000, 3, 7, 10**12 + 1, 2**53 - 1]
TIE_SIZES = [1, 2, 3, 4, 250]
PLAIN_TXIDS = ["aa", "ab", "00ff", "tx-1", "zz", ""]
QUOTED_TXIDS = PLAIN_TXIDS + ['a,"b"']
# Equal-length lowercase hex ids sort like their decoded bytes; these share
# long prefixes, so a tie is decided deep inside the id.
_PREFIX = "0123456789abcdef" * 3 + "fedcba98765432"
HEX_TXIDS = [_PREFIX + "00", _PREFIX + "0f", _PREFIX + "f0", _PREFIX[:-1] + "310", "ff" + _PREFIX]
SHORT_HEX_TXIDS = ["aa", "ab", "0f", "f0", "a0"]
# Pools that mix those ids with ids whose text order is not their byte order
# or that do not decode as hex: uppercase (decodes equal to lowercase), split
# by a space (decodes like "abcd"), odd length (kept as UTF-8), other lengths.
TXID_POOLS = [
    PLAIN_TXIDS,
    QUOTED_TXIDS,
    HEX_TXIDS,
    SHORT_HEX_TXIDS,
    HEX_TXIDS + [t.upper() for t in HEX_TXIDS[:2]],
    SHORT_HEX_TXIDS + ["AB", "ab cd", "abcd"],
    SHORT_HEX_TXIDS + ["abc"],
    HEX_TXIDS + SHORT_HEX_TXIDS,
]
# (value, size) pairs that all have beta 1.
SAME_BETA = [(8, 1), (16, 2), (24, 3), (32, 4), (2000, 250)]


def _fields(txs):
    return [(t.id, t.value, t.size_bytes) for t in txs]


def assert_matches_scalar_oracle(txs, reference, num_levels, mode):
    """segment and level_stats on ``txs`` equal the scalar loops on ``reference``
    (the same transactions as objects), bit for bit: repr tells 1 from 1.0,
    -0.0 from 0.0 and a Python float from a numpy scalar."""
    seg = segment(num_levels, txs, mode=mode)
    levels, boundaries = scalar_segment(num_levels, reference, mode)
    assert repr(seg.boundaries) == repr(boundaries)
    assert [_fields(lvl) for lvl in seg.levels] == [_fields(lvl) for lvl in levels]
    assert [repr(s) for s in level_stats(seg)] == [repr(scalar_summarize_level(l)) for l in levels]
    assert repr(summarize_level(txs)) == repr(scalar_summarize_level(reference))
    return seg, levels


class TestScalarOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(TIE_VALUES + [2**64 + 8]),
                st.sampled_from(TIE_SIZES),
                st.sampled_from(PLAIN_TXIDS),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([MODE_UNIFORM, MODE_ROUNDED]),
    )
    def test_objects(self, rows, num_levels, mode):
        txs = [ExtendedTransaction(id=txid_to_bytes(t), value=v, size_bytes=s) for v, s, t in rows]
        seg, levels = assert_matches_scalar_oracle(txs, txs, num_levels, mode)
        # a plain list keeps its own objects as the level members
        for got, want in zip(seg.levels, levels):
            assert all(a is b for a, b in zip(got, want))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=7), st.sampled_from([MODE_UNIFORM, MODE_ROUNDED]))
    def test_table_loaded_from_csv(self, tmp_path_factory, data, num_levels, mode):
        txids = data.draw(st.sampled_from(TXID_POOLS))
        if data.draw(st.booleans()):
            value_size = st.tuples(st.sampled_from(TIE_VALUES + [0]), st.sampled_from(TIE_SIZES))
        else:
            value_size = st.sampled_from(SAME_BETA)
        rows = data.draw(
            st.lists(
                st.tuples(value_size, st.sampled_from(txids)).map(lambda r: (*r[0], r[1])),
                min_size=1,
                max_size=40,
            ).filter(lambda rs: any(v for v, _, _ in rs))
        )
        path = tmp_path_factory.mktemp("oracle") / "d.csv"
        write_dataset(
            path,
            [DatasetRow(7 + i % 3, t, s, v, extras=(("n_outputs", "1"),)) for i, (v, s, t) in enumerate(rows)],
        )
        table, summary = load_dataset(path)
        reference = [
            ExtendedTransaction(id=txid_to_bytes(t), value=v, size_bytes=s) for v, s, t in rows if v
        ]
        assert summary.dropped_zero_value == len(rows) - len(reference)
        assert _fields(table) == _fields(reference)
        assert_matches_scalar_oracle(table, reference, num_levels, mode)

    @pytest.mark.parametrize("txids", [["ab"], ["ab", "AB"]], ids=["one_id", "lower_and_upper"])
    def test_rows_tied_in_beta_and_id_keep_file_order(self, tmp_path, txids):
        """200 rows share beta 1 and one decoded id (``ab`` and ``AB`` both
        decode to 0xab), so only their file position orders them; it must,
        past the 16 rows an unstable sort still orders like a stable one."""
        rows = [(*SAME_BETA[i % 4], txids[i % len(txids)]) for i in range(200)]
        path = tmp_path / "d.csv"
        write_dataset(path, [DatasetRow(7, t, s, v) for v, s, t in rows])
        table, _ = load_dataset(path)
        reference = [ExtendedTransaction(id=txid_to_bytes(t), value=v, size_bytes=s) for v, s, t in rows]
        assert_matches_scalar_oracle(table, reference, 3, MODE_UNIFORM)

    def test_tied_ids_split_by_spaces_sort_by_their_bytes(self, tmp_path):
        """``ab cd ef`` decodes as hex to 0xabcdef; ``abcd e f``, split inside
        a byte, is not hex and is kept as UTF-8, whose first byte 0x61 sorts
        it first. As text the two of one length sort the other way round."""
        rows = [(*SAME_BETA[i % 4], ("ab cd ef", "abcd e f")[i % 2]) for i in range(8)]
        path = tmp_path / "d.csv"
        write_dataset(path, [DatasetRow(7, t, s, v) for v, s, t in rows])
        table, _ = load_dataset(path)
        reference = [ExtendedTransaction(id=txid_to_bytes(t), value=v, size_bytes=s) for v, s, t in rows]
        assert_matches_scalar_oracle(table, reference, 3, MODE_UNIFORM)

    def test_tied_odd_length_hex_ids_sort_like_their_text(self, tmp_path):
        """Lowercase hex ids of an odd length do not decode as hex and are
        kept as UTF-8, which sorts like their text, so the numpy sort of
        their text orders the tie runs."""
        txids = ["abc", "ab0", "0ff", "f0a", "a0b", "fff", "000"]
        rows = [(*SAME_BETA[i % 4], txids[i % len(txids)]) for i in range(60)]
        path = tmp_path / "d.csv"
        write_dataset(path, [DatasetRow(7, t, s, v) for v, s, t in rows])
        table, _ = load_dataset(path)
        assert table.hex_ids(np.arange(len(table))) is not None
        reference = [ExtendedTransaction(id=txid_to_bytes(t), value=v, size_bytes=s) for v, s, t in rows]
        assert_matches_scalar_oracle(table, reference, 3, MODE_UNIFORM)

    def test_equal_betas_take_one_log10_per_row_at_most(self, tmp_path, monkeypatch):
        """Every row has beta 1.5, so in uniform mode every row lies on every cut point."""
        rng = random.Random(5)
        pairs = [(12, 1), (24, 2), (36, 3), (3000, 250)]
        rows = [(*rng.choice(pairs), rng.randbytes(32).hex()) for _ in range(500)]
        path = tmp_path / "d.csv"
        write_dataset(path, [DatasetRow(7, t, s, v) for v, s, t in rows])
        table, _ = load_dataset(path)
        reference = [ExtendedTransaction(id=bytes.fromhex(t), value=v, size_bytes=s) for v, s, t in rows]

        class CountingMath:
            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def log10(self, x):
                self.calls += 1
                return math.log10(x)

        for mode in (MODE_UNIFORM, MODE_ROUNDED):
            for num_levels in (1, 2, 6):
                counting = CountingMath()
                monkeypatch.setattr(segmentation, "math", counting)
                segment(num_levels, table, mode=mode)
                assert counting.calls <= len(rows)
                monkeypatch.undo()
                assert_matches_scalar_oracle(table, reference, num_levels, mode)
