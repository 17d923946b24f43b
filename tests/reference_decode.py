"""Reference decoder for a query's final state over absolute slots.

It reads `address_bus` and `tree_ground` from the frozenset configurations
of `QueryResult.state`, where every untouched quantum cell has been
multiplied in, so it shares none of the path-key layout that `qram.query`
decodes from.
"""

from __future__ import annotations

import math

from phonon_qram.qram_types import DataMode


def decode_frozensets(cfg, data, final) -> tuple[dict, bool]:
    """(address_bus, tree_ground) of `final`, a `SparseState`.

    Classical mode sums exact complex amplitudes per (address, bus)
    outcome.  Quantum mode leaves data-register branches that are
    orthogonal configurations, so only the incoherent weights are
    meaningful; phase-sensitive checks go through the full state."""
    n, std = cfg.n, cfg.encoding.is_standard
    quantum = data.mode is DataMode.QUANTUM
    address_bus: dict = {}
    tree_ground = True
    for conf, amp in final.amps.items():
        bits = {}
        bus_level = 0
        for slot, level in conf:
            kind = slot[0]
            if kind in ("ctrl", "anc", "dwg"):
                tree_ground = False
                continue
            if kind == "reg":
                k = slot[1]
                if k == n:
                    if std:
                        bus_level = slot[2] if level == 1 else bus_level
                    else:
                        bus_level = level
                else:
                    if std:
                        bits[k] = slot[2]
                    else:
                        bits[k] = 1 if level >= 1 else 0
            # data/dctrl leftovers are part of the data register, ignored here
        j = 0
        for k in range(n):
            j = (j << 1) | bits.get(k, 0)
        key = (j, bus_level)
        if quantum:
            address_bus[key] = address_bus.get(key, 0.0) + abs(amp) ** 2
        else:
            address_bus[key] = address_bus.get(key, 0.0 + 0.0j) + amp
    if quantum:
        address_bus = {k: math.sqrt(p) for k, p in address_bus.items()}
    return address_bus, tree_ground
