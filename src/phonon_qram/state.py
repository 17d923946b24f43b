"""Gate semantics as column operations on a branch table.

A state is a map from configurations to complex amplitudes.  Over
absolute slots a configuration is a frozenset of (slot, level) pairs with
level 1 (e) or 2 (f), any slot not listed being in its ground state: that
is `SparseState`, the format of the reference engines in `tests/`, which
also own the export of a query's rows to it.

Inside the engine a query, or the N queries of a scan, is one `Table`:
its fields, each a slot on j's root-to-leaf path named (kind, level,
rail), and its rows in path coordinates, each a batch (its query), an
address branch j, j's path bits, one uint8 level per field and a complex
amplitude; rows of different batches or j never meet.  `apply_gate` runs
one level op, a gate on every node of a tree level with one template of
fields per gate, on every row at once.  A field (kind, level, rail, c) names the slot in child c of the
op's node: the row's own field when c is j's bit at the op's level, a
slot off j's path otherwise.  A hop into the child off the path raises
`NumericalFailureError`, and a hop out of it finds nothing to move; the
four hops read their control through one `_control`.  An op that lists its
nodes acts on the rows whose j prefix is one of them.

Every gate maps each row to one row in place and keeps its weight, so
no level op adds, drops or moves a row.  `qram.final_state` runs
`Table.check` once, at the end of a query: it catches an op that mapped
two rows onto one and checks each batch's norm against 1 to 1e-10.  The
bus readout is not a gate: `qram._decode` reads a classical bus in the X
basis from the final rows.

`qram.build_query_gates` expands a protocol into `GateRecord`s, for
replay against the independent simulations in `tests/` and a check
against the routing schedule; the trace export writes the level ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError

__all__ = ["GateRecord", "SparseState", "Table", "apply_gate"]


@dataclass(frozen=True)
class GateRecord:
    """One gate in a protocol trace.

    `time` is in units of the routing step t, matching the schedule;
    `slots` are the qubit slots the gate touches, in a gate-specific order.
    """

    name: str
    slots: tuple
    time: float
    params: tuple = field(default=())


class Table:
    """The state of B queries: the field layout `fields`, `col[f]` the
    column of field f, and rows in path coordinates: query `batch` and
    address branch `j` (int64), `levels[col[f]]` the level of field f in
    every row (uint8, one contiguous column per field), `amp` (complex)
    and `bits[l]`: whether j's bit at tree level l (0 most significant) is
    1.  No op moves, adds or drops a row, so these keep their construction
    order, and `max_support[b]` (b < B), the most rows batch b holds, is
    its rows on construction."""

    __slots__ = ("n", "fields", "col", "batch", "j", "levels", "amp", "bits", "max_support")

    def __init__(self, n: int, fields, batch, j, levels, amp):
        self.n, self.fields = n, fields
        self.col = {f: i for i, f in enumerate(fields)}
        self.batch, self.j, self.levels, self.amp = batch, j, levels, amp
        self.bits = (j & (1 << np.arange(n - 1, -1, -1))[:, None]) != 0
        self.max_support = np.bincount(batch)

    def __len__(self) -> int:
        return len(self.amp)

    support = __len__  # the benchmark tracer counts initial branches by it

    def check(self) -> None:
        """Raise `NumericalFailureError` if two rows hold equal (batch, j,
        levels), or a batch's norm (0 with no rows) left 1 by > 1e-10.
        `qram.initial_state` lays out at most two rows per (batch, j), next
        to each other in ascending (batch, j), so only neighbours can be
        equal; a table out of that layout raises too."""
        # the batch sits above j's n bits, so (batch, j) is one int64 key
        key = self.batch << self.n | self.j
        if not ((key[1:] >= key[:-1]).all() and (key[2:] > key[:-2]).all()):
            raise NumericalFailureError(
                "rows out of ascending (batch, j) order, or over two per (batch, j)")
        same = (key[1:] == key[:-1]) & (self.levels[:, 1:] == self.levels[:, :-1]).all(axis=0)
        if same.any():
            raise NumericalFailureError(
                f"two rows of batch {self.batch[same.argmax()]} hold one configuration"
                " after the end of the query")
        weight = np.bincount(self.batch, np.abs(self.amp) ** 2, minlength=len(self.max_support))
        for b, nrm in enumerate(map(math.sqrt, weight.tolist())):
            if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
                raise NumericalFailureError(
                    f"norm drifted to {nrm!r} in batch {b} after the end of the query")


# ---------------------------------------------------------------------------
# gate semantics on columns: each takes the table, the template's columns,
# the rows the op acts on (None for every row), the level op and the
# template

def _on(mask, on):
    return mask if on is None else mask & on


def _hop(t, m, src, dst):
    """Move the e excitation of the rows in `m` from column src to dst."""
    t.levels[src][m] = 0
    t.levels[dst][m] = 1


def _control(t, c, on, op, left, on_path: bool):
    """The rows in `on` whose hop source (column -3) is in |e> and whose
    control lets it hop, and those of them whose control selects the child
    on j's path if `on_path`, else the child off it.

    The control is column -4: |g> selects child field `left` and |e> the
    other child, and `params[0]` inverts a single control.  A 5-column
    template adds the dual-rail control's rail 0 (column 0): |00>,
    outside the logical subspace, is inert."""
    L = t.levels
    go = L[c[-4]] == 1
    m = _on(L[c[-3]] == 1, on)
    # the selected child is on j's path where go (inverted, xor left's
    # child bit) equals j's bit; fold both flips into the one comparison
    same = bool(left[3]) != on_path
    if len(c) == 5:
        m &= go | (L[c[0]] == 1)
    elif op.params[0]:
        same = not same
    bit = t.bits[op.level]
    return m, m & ((go == bit) if same else (go != bit))


def _swap_ge(t, c, on, op, tpl):
    # swap restricted to the {g, e} manifold: only levels 0 and 1 that differ
    a, b = t.levels[c[0]], t.levels[c[1]]
    m = _on((a ^ b) == 1, on)
    a ^= m
    b ^= m


def _z_ge(t, c, on, op, tpl):
    np.negative(t.amp, out=t.amp, where=_on(t.levels[c[0]] == 1, on))


def _ladder_ge(t, c, on, op, tpl):
    a = t.levels[c[0]]
    a ^= _on(a < 2, on)


def _ladder_ef(t, c, on, op, tpl):
    a = t.levels[c[0]]
    np.bitwise_xor(a, 3, out=a, where=_on(a > 0, on))


def _route(t, c, on, op, tpl):
    # conditional hop down one tree level, into the child the control selects;
    # a row whose child is off j's path raises
    m, off = _control(t, c, on, op, tpl[-2], False)
    if np.count_nonzero(off):
        raise NumericalFailureError(
            f"{op.name} moved a branch onto a slot it does not track")
    _hop(t, m, c[-3], c[-1])


def _uproute(t, c, on, op, tpl):
    # the source is the child the control selects; off j's path it is empty
    _, m = _control(t, c, on, op, tpl[-3], True)
    _hop(t, m, c[-3], c[-1])


def _qroute(t, c, on, op, tpl):
    # data-register fan-out: excitation in src enters the tree when the
    # data-side control is excited, otherwise returns to its home slot
    L = t.levels
    m = _on(L[c[1]] == 1, on)
    into = m & (L[c[0]] == 1)
    L[c[1]][m] = 0
    L[c[2]][into] = 1
    L[c[3]][m & ~into] = 1


_GATES = {
    "swap_ge": _swap_ge,
    "z_ge": _z_ge,
    "ladder_ge": _ladder_ge,
    "ladder_ef": _ladder_ef,
    "route": _route,
    "uproute": _uproute,
    "route2": _route,
    "uproute2": _uproute,
    "qroute": _qroute,
}


def apply_gate(table: Table, op) -> Table:
    """Apply level op `op` (name, level, params, nodes, templates; see
    `qram._LevelOp`) to every row of `table` and return the table, one
    template after another.

    A field with a fourth entry c is the slot in child c of the op's
    node, which is the row's own field one level down when c is j's bit at
    the op's level.  Every row maps to one row; a hop into the child off
    j's path raises `NumericalFailureError`."""
    fn = _GATES[op.name]
    on = None
    if op.nodes is not None:
        member = np.zeros(1 << op.level, bool)
        member[list(op.nodes)] = True
        on = member[table.j >> (table.n - op.level)]
    col = table.col
    for tpl in op.templates:
        fn(table, [col[f[:3]] for f in tpl], on, op, tpl)
    return table


class SparseState:
    """Amplitude map from frozenset configurations to complex amplitudes."""

    __slots__ = ("amps",)

    def __init__(self, amps: dict):
        self.amps = dict(amps)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))

    def amplitude(self, cfg: frozenset) -> complex:
        return self.amps.get(cfg, 0.0 + 0.0j)
