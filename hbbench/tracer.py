"""Spans around hbsim's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every hbsim
module and class that holds it, so calls are caught under whatever name the
program looks them up by (``engine.shard_path`` as well as
``sharding.shard_path``). A span is (name, start, end, parent); spans stay in
compact arrays in memory until ``write`` saves them. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute path, span name); a dotted attribute path names a method.
TRACED = [
    ("hbsim.sharding", "shard_path", "sharding.shard_path"),
    ("hbsim.sharding", "tx_shard", "sharding.tx_shard"),
    ("hbsim.simulator.chainstate", "ChainState.pick_at_least", "chainstate.pick_at_least"),
    ("hbsim.simulator.chainstate", "validate_block", "chainstate.validate_block"),
    ("hbsim.simulator.chainstate", "apply_block", "chainstate.apply_block"),
    ("hbsim.simulator.chainstate", "SubBlock.digest", "chainstate.digest"),
    ("hbsim.simulator.engine", "take_by_fee_rate", "engine.take_by_fee_rate"),
    ("hbsim.simulator.engine", "simulate", "engine"),
    ("hbsim.segmentation", "segment", "segmentation.segment"),
    ("hbsim.segmentation", "level_stats", "segmentation.level_stats"),
    ("hbsim.segmentation", "summarize_level", "segmentation.summarize_level"),
    ("hbsim.dataio", "load_dataset", "dataio.load_dataset"),
    ("hbsim.simulator.report", "SimReport.canonical_json", "report.canonical_json"),
]
# Every function defined in hbsim.economics is traced as "economics.<name>".
ECONOMICS = "hbsim.economics"


def _functions_of(module_name: str) -> list[str]:
    module = sys.modules[module_name]
    return sorted(
        name
        for name, value in vars(module).items()
        if callable(value) and getattr(value, "__module__", None) == module_name
        and not isinstance(value, type)
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever hbsim holds a reference to it."""
        targets = list(TRACED)
        targets += [(ECONOMICS, f, f"economics.{f}") for f in _functions_of(ECONOMICS)]
        holders = [m for n, m in sys.modules.items() if n == "hbsim" or n.startswith("hbsim.")]
        for module_name, path, span in targets:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.wrap(span, original)
            places = [owner] if outer else [m for m in holders if vars(m).get(attr) is original]
            for place in places:
                self._restore.append((place, attr, original))
                setattr(place, attr, wrapped)

    def uninstall(self) -> None:
        for place, attr, original in reversed(self._restore):
            setattr(place, attr, original)
        self._restore.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.dtype(f"i{self.parent.itemsize}"))
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child_ns
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        calls = np.bincount(ids, minlength=len(self.names))
        self_sum = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_sum[i]) / 1e9) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Save every span: name table, name index, start and end in ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.dtype(f"i{self.parent.itemsize}")),
        )
