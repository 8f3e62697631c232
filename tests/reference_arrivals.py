"""The per-arrival path that ``_Run._arrival_stream`` replaced, kept as its oracle.

``ReferenceArrivals`` is a mixin for the engine's run classes. Its methods are
the engine's arrival methods as they were before the stream, copied verbatim:
``_Run._level_for``, ``_Run._generate_arrival`` and ``_Run._drain_arrivals``,
and ``_ConcurrentRun._drain`` and ``_ConcurrentRun._route``. Its
``_arrival_stream`` runs the preseed loop ``_Run.__init__`` ran, then yields
forever; the overridden drains do the drawing. ``ReferenceConcurrentRun``
takes the preseeded backlog out of the level pools on its first drain, as
``_ConcurrentRun.run`` did at its start; nothing reads those pools before.

Each arrival builds the engine's one pending record, an ``ArrivalTx``
holding its fee and seq; the draws and their order are as they were. Two
additions, marked ``# added``, stamp the arrival time the stream now gives
every entry. The old flat and tree drain left it unset, and the old
concurrent drain stamped the backlog with the first arrival time on routing
it. Tests run an engine class and its reference side by side on one config
and require the same entries, the same generator state and the same counters
after every drain.
"""

from __future__ import annotations

import math

from hbsim.dataio import draw_value_size
from hbsim.simulator import engine
from hbsim.simulator.engine import ArrivalTx
from hbsim.sharding import tx_shard_index


class ReferenceArrivals:
    def _arrival_stream(self, preseed: int):
        for _ in range(preseed):
            self._generate_arrival()
        # added: the backlog's arrival time is the first arrival's
        for pool in self.mempool:
            for entry in pool:
                entry.arrival = self._next_arrival
        while True:
            yield

    def _level_for(self, lg_beta: float) -> int:
        level = 0
        while level < self.cfg.num_levels - 1 and lg_beta < self.boundaries[level + 1]:
            level += 1
        return level

    def _generate_arrival(self) -> int | None:
        """Draw one arrival and append its entry to its level's pool.

        Returns that level, or None when no input could fund the arrival.
        """
        cfg = self.cfg
        spec = cfg.workload
        value, size = draw_value_size(spec, self.rng)
        overridden = (
            spec.level_override_fraction > 0.0
            and self.rng.random() < spec.level_override_fraction
        )
        if overridden:
            level = self.rng.randrange(cfg.num_levels)
        else:
            level = self._level_for(math.log10(value / (8 * size)))
        overpay = self.rng.uniform(1.0, cfg.fee_overpay_max)
        fee = math.ceil(self.fee_rates_sat[level] * 8 * size * overpay)
        self.txs_generated += 1
        input_ref = self.state.pick_at_least(value + fee, self.rng, self.reserved)
        if input_ref is None:
            self.txs_skipped += 1
            return None
        self.reserved.add(input_ref)
        self.seq += 1
        self.mempool[level].append(ArrivalTx(self._random_id(), value, size, input_ref, fee, self.seq,
                                             requested_level=level if overridden else None))
        return level

    def _drain_arrivals(self, until: float) -> None:
        while self._next_arrival < until:
            arrival_time = self._next_arrival  # added
            level = self._generate_arrival()
            if level is not None:  # added
                self.mempool[level][-1].arrival = arrival_time
            self._next_arrival += self.rng.expovariate(self.cfg.workload.rate)


class ReferenceFlatRun(ReferenceArrivals, engine._FlatRun):
    pass


class ReferenceHybridRun(ReferenceArrivals, engine._HybridRun):
    pass


class ReferenceTreeRun(ReferenceArrivals, engine._TreeRun):
    pass


class ReferenceConcurrentRun(ReferenceArrivals, engine._ConcurrentRun):
    backlog = None

    def _drain(self, until: float) -> None:
        """Draw the arrivals due before ``until``, each routed straight to its chain."""
        if self.backlog is None:
            # the preseeded backlog joins the chains with the first drawn arrival
            self.backlog = [(level, entry) for level, pool in enumerate(self.mempool) for entry in pool]
            for pool in self.mempool:
                pool.clear()
        rate = self.cfg.workload.rate
        while self._next_arrival < until:
            arrival_time = self._next_arrival
            level = self._generate_arrival()
            self._next_arrival += self.rng.expovariate(rate)
            if level is not None:
                self._route(level, self.mempool[level].pop(), arrival_time)
            for level, entry in self.backlog:
                self._route(level, entry, arrival_time)
            self.backlog = ()

    def _route(self, level: int, entry: ArrivalTx, arrival: float) -> None:
        entry.arrival = arrival
        self.chain_mempool[2**level - 1 + tx_shard_index(level, entry)].append(entry)


REFERENCE_RUNS = {
    "flat": (engine._FlatRun, ReferenceFlatRun),
    "hybrid": (engine._HybridRun, ReferenceHybridRun),
    "tree": (engine._TreeRun, ReferenceTreeRun),
    "concurrent": (engine._ConcurrentRun, ReferenceConcurrentRun),
}
