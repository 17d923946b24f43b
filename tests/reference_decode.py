"""Absolute-slot view of a query and the reference decoder that reads it.

`export` turns the rows of a query's `state.Table`, which carries its
own field layout, into frozenset configurations over absolute slots and
multiplies in every untouched quantum cell;
`decode_frozensets` reads `address_bus` and `tree_ground` from that view,
so it shares none of the path-key layout that `qram.query` decodes from;
it measures a classical bus by applying the decode as gates with the
int-key semantics of `int_gates`, where `qram.query` reads it in the X
basis.
"""

from __future__ import annotations

import math

from phonon_qram.qram import _logical, _slot
from phonon_qram.qram_types import DataMode, Encoding
from phonon_qram.state import GateRecord, SparseState
from slot_engine import SlotState


def _background(std: bool, cells, j: int) -> list:
    """(configuration items, amplitude) of every product branch of the
    cells other than j; one empty branch of amplitude 1 for no cells."""
    out = [([], 1.0)]
    for i, cell in enumerate(cells):
        if i != j:
            opts = [([(_slot(f, i), 1) for f in _logical(std, "data", None, b)], amp)
                    for b, amp in enumerate(cell) if amp != 0]
            out = [(it + o, amp * f) for it, amp in out for o, f in opts]
    return out


def export(table, cells=None) -> SparseState:
    """The rows of `table` over absolute slots, as frozenset configurations.

    `cells` holds the (a, b) of every cell of a quantum register (None for
    classical data); each row is multiplied by the product branches of the
    cells other than its j, up to 2^(N-1) of them, built once per j."""
    n = table.n
    std = ("reg", 0, 0) in table.col  # standard dual-rail fields carry rails 0 and 1
    background: dict = {}  # j -> product branches of the other cells
    out: dict = {}
    for j, levels, amp in zip(table.j.tolist(), table.levels.T.tolist(),
                              table.amp.tolist()):
        items = [(_slot(f, j if f[1] is None else j >> (n - f[1])), lvl)
                 for f, lvl in zip(table.fields, levels) if lvl]
        if j not in background:
            background[j] = _background(std, cells or (), j)
        for extra, b in background[j]:
            cfg = frozenset(items + extra)
            out[cfg] = out.get(cfg, 0.0) + amp * b
    return SparseState({c: a for c, a in out.items() if abs(a) > 1e-14})


def decode_frozensets(cfg, data, final) -> tuple[dict, bool]:
    """(address_bus, tree_ground) of `final`, a `SparseState` of a query
    up to the bus readout.

    Classical mode first decodes the bus back to the computational basis
    on the absolute slots: `h_ge`, then `z_ge` for hybrid, or `dualrail_h`
    on the standard dual-rail pair.  It then sums exact complex amplitudes
    per (address, bus) outcome.  Quantum mode leaves data-register
    branches that are orthogonal configurations, so only the incoherent
    weights are meaningful; phase-sensitive checks go through the full
    state."""
    n, std = cfg.n, cfg.encoding.is_standard
    quantum = data.mode is DataMode.QUANTUM
    if not quantum:
        bus = (("reg", n, 0), ("reg", n, 1)) if std else (("reg", n),)
        gates = ([GateRecord("dualrail_h", bus, 0.0)] if std else
                 [GateRecord("h_ge", bus, 0.0)]
                 + [GateRecord("z_ge", bus, 0.0)] * (cfg.encoding is Encoding.HYBRID_DUAL_RAIL))
        final = SlotState(final.amps)
        final.apply_all(gates)
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
