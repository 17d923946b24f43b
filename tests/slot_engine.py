"""Absolute-slot reference engine for the path-coordinate query engine.

Every slot a gate list names gets its own fixed 2-bit field of an int key,
so a branch holds the whole tree and every data cell, and each gate record
is applied on its own through the int-key `int_gates.apply_gate`.  It
shares none of `qram.query`'s `state.Table`, column operations, level ops
or product background, so a full query can be compared against it, support
count included, at sizes the dense oracle cannot reach, and the gate-level
tests drive the int semantics through it.
"""

from __future__ import annotations

import math

import numpy as np

from int_gates import Amps, apply_gate, compile_gate
from phonon_qram.errors import NumericalFailureError
from phonon_qram.qram_types import DataMode
from phonon_qram.state import SparseState


def to_frozenset(cfg: int, slots: list) -> frozenset:
    """Frozenset configuration of int key `cfg`; field i is slots[i]."""
    items = []
    while cfg:
        i = (cfg & -cfg).bit_length() - 1 >> 1
        items.append((slots[i], cfg >> 2 * i & 3))
        cfg &= ~(3 << 2 * i)
    return frozenset(items)


class SlotState(SparseState):
    """Frozenset-keyed state that applies gate records over absolute slots."""

    __slots__ = ("max_support",)

    def __init__(self, amps: dict):
        super().__init__(amps)
        self.max_support = len(self.amps)

    def apply(self, gate) -> None:
        self.apply_all([gate])

    def apply_all(self, gates) -> None:
        """Apply `gates` in order, on int configurations inside this call.

        Raises `NumericalFailureError` when the running norm leaves 1 by
        more than 1e-10 after a gate, or when it ends more than 1e-12 from
        the norm recomputed over every branch."""
        gates = list(gates)
        slots = list(dict.fromkeys(
            [s for cfg in self.amps for s, _ in cfg] + [s for g in gates for s in g.slots]
        ))
        offset = {s: 2 * i for i, s in enumerate(slots)}
        ops = [compile_gate(g.name, g.params, tuple(offset[s] for s in g.slots))
               for g in gates]
        amps = Amps(
            (sum(level << offset[s] for s, level in cfg), a)
            for cfg, a in self.amps.items() if abs(a) > 1e-14
        )
        self.amps = amps
        amps.norm2 = self.norm() ** 2
        try:
            for g, op in zip(gates, ops):
                amps = apply_gate(amps, op)
                self.max_support = max(self.max_support, len(amps))
                n = math.sqrt(max(amps.norm2, 0.0))
                if abs(n - 1.0) > 1e-10:
                    raise NumericalFailureError(f"norm drifted to {n!r} after gate {g.name}")
            n, full = math.sqrt(max(amps.norm2, 0.0)), self.norm()
            if abs(n - full) > 1e-12:
                raise NumericalFailureError(
                    f"running norm {n!r} differs from recomputed norm {full!r}"
                )
        finally:
            self.amps = {to_frozenset(c, slots): a for c, a in amps.items()}


def reference_initial_state(cfg, address, data) -> dict:
    """Frozenset initial state of a query built cell by cell: address
    registers, the bus (|+> probe for classical reads, |1> for quantum
    ones) and every cell of a quantum register, 2^N branches per address."""
    n, std = cfg.n, cfg.encoding.is_standard
    # register k's excited slot for a 1-bit and for a 0-bit (None: ground)
    reg = [(("reg", k, 1), ("reg", k, 0)) if std else (("reg", k), None)
           for k in range(n + 1)]
    out = []
    for j, a in enumerate(np.asarray(address, dtype=complex)):
        if a == 0:
            continue
        bits = [(j >> (n - 1 - k)) & 1 for k in range(n)]
        items = [(reg[k][0] if b else reg[k][1], 1) for k, b in enumerate(bits)]
        items = [it for it in items if it[0] is not None]
        if data.mode is DataMode.QUANTUM:
            out.append((items + [(reg[n][0], 1)], a))
        else:
            out += [(items + [(reg[n][1], 1)] if reg[n][1] else items, a / math.sqrt(2)),
                    (items + [(reg[n][0], 1)], a / math.sqrt(2))]
    for j, (aj, bj) in enumerate(data.qubits):
        nxt = []
        for items, amp in out:
            if abs(aj) > 0:
                nxt.append((items + [(("data", j, 0), 1)] if std else items, amp * aj))
            if abs(bj) > 0:
                nxt.append((items + [(("data", j, 1) if std else ("data", j), 1)], amp * bj))
        out = nxt
    return {frozenset(items): a for items, a in out}
