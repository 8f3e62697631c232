"""Per-transaction reference versions of ``segment`` and ``summarize_level``,
and the full-scan cut search.

These are the code that :mod:`hbsim.segmentation` replaced; tests require its
results to equal theirs bit for bit.
"""

import math

import numpy as np

from hbsim.core import value_per_bit
from hbsim.segmentation import MODE_UNIFORM, LevelSummary


def scalar_segment(num_levels, txs, mode=MODE_UNIFORM):
    """(levels, boundaries): one pass over the (-beta, id)-sorted set."""
    decorated = sorted(((value_per_bit(t), t) for t in txs), key=lambda p: (-p[0], p[1].id))
    lg_max = math.log10(decorated[0][0])
    lg_min = math.log10(decorated[-1][0])
    if mode == MODE_UNIFORM:
        step = (lg_max - lg_min) / num_levels
    else:
        step = (math.ceil(lg_max) - math.floor(lg_min)) / num_levels
    boundaries = tuple(lg_max - l * step for l in range(num_levels + 1))

    levels = [[] for _ in range(num_levels)]
    level = 0
    for beta, tx in decorated:
        lg_beta = math.log10(beta)
        while level < num_levels - 1 and lg_beta < boundaries[level + 1]:
            level += 1
        levels[level].append(tx)
    return tuple(tuple(lvl) for lvl in levels), boundaries


def scalar_summarize_level(txs):
    """One level's summary row; beta is summed left to right in the given order."""
    txs = list(txs)
    if not txs:
        return LevelSummary(0, None, None, None, None, None, None, 0, None, 0)
    betas = [value_per_bit(t) for t in txs]
    values = [t.value for t in txs]
    sizes = [t.size_bytes for t in txs]
    n = len(txs)
    # An explicit loop, not sum(): from CPython 3.12 on, sum() of floats is
    # compensated, and the policy is a plain sequential sum.
    beta_total = 0.0
    for beta in betas:
        beta_total += beta
    return LevelSummary(
        count=n,
        beta_min=min(betas),
        beta_max=max(betas),
        beta_mean=beta_total / n,
        value_min=min(values),
        value_max=max(values),
        value_mean=sum(values) / n,
        value_total=sum(values),
        size_mean_bytes=sum(sizes) / n,
        bits_total=8 * sum(sizes),
    )


def scan_cuts(ranked, lg_max, lg_min, bounds):
    """The rows at which each level starts, plus the row count, by a scan of
    every row: for each bound, the first row at or after the previous start
    whose lg falls below it.

    The full-column search ``segmentation._cuts`` replaced. numpy's log10
    screens every row, and a row within 1e-9 of some bound gets
    ``math.log10``; ``lg_max`` and ``lg_min`` stand in for the first and
    last rows.
    """
    n = len(ranked)
    lg = np.log10(ranked)
    near = np.zeros(n, dtype=bool)
    for bound in bounds:
        near |= np.abs(lg - bound) < 1e-9
    near[[0, -1]] = False
    lg[near] = [math.log10(beta) for beta in ranked[near].tolist()]
    lg[0], lg[-1] = lg_max, lg_min
    cuts = [0]
    for bound in bounds:
        below = lg[cuts[-1] :] < bound
        cuts.append(cuts[-1] + int(below.argmax()) if below.any() else n)
    cuts.append(n)
    return tuple(cuts)
