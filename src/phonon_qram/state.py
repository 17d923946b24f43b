"""Gate semantics as column operations on a branch table.

A state is a map from configurations to complex amplitudes.  Over
absolute slots a configuration is a frozenset of (slot, level) pairs with
level 1 (e) or 2 (f), any slot not listed being in its ground state: that
is `SparseState`, the format of the reference engines in `tests/`, which
also own the export of a query's rows to it.

Inside the engine B independent queries are one `Table`: its fields, each
a slot on j's root-to-leaf path named (kind, level, rail), and its rows in
path coordinates, each a batch (its query), an address branch j, j's path
bits, one uint8 level per field and a complex amplitude; rows of different
batches or j never meet.  `apply_gate` runs one level op, a gate on every
node of a tree level with one template of fields per gate, on every row
at once.  A field (kind, level, rail, c) names the slot in child c of the
op's node: the row's own field when c is j's bit at the op's level, a
slot off j's path otherwise.  A hop into the child off the path raises
`NumericalFailureError`, and a hop out of it finds nothing to move; the
four hops read their control through one `_control`.  An op on some nodes
of a level acts on the rows whose j prefix is one of them.

Every gate but `h_ge` and `dualrail_h` maps each row to one row and keeps
its weight, so only those two change the row count: they split rows, then
`Table.merge` sums rows with equal (batch, j, levels), prunes at 1e-14,
counts each batch's rows and checks each batch's norm against 1 to 1e-10.
The caller merges once more at the end of a query, which catches an op
that mapped two rows onto one.

A protocol exports as `GateRecord`s, for replay against independent
simulations and a check against the routing schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError

__all__ = ["GateRecord", "SparseState", "Table", "apply_gate"]

_SQ2 = 1.0 / math.sqrt(2.0)


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
    and `bits[l]`, set with the rows: whether j's bit at tree level l (0
    most significant) is 1.  `max_support[b]` (b < B) is the most rows
    batch b has held, counted on construction and by every merge."""

    __slots__ = ("n", "fields", "col", "batch", "j", "levels", "amp", "bits", "max_support")

    def __init__(self, n: int, fields, batch, j, levels, amp):
        self.n, self.fields = n, fields
        self.col = {f: i for i, f in enumerate(fields)}
        self.set_rows(batch, j, levels, amp)
        self.max_support = np.bincount(batch)

    def __len__(self) -> int:
        return len(self.amp)

    support = __len__  # the benchmark tracer counts initial branches by it

    def set_rows(self, batch, j, levels, amp) -> None:
        self.batch, self.j, self.levels, self.amp = batch, j, levels, amp
        self.bits = (j & (1 << np.arange(self.n - 1, -1, -1))[:, None]) != 0

    def batches(self) -> list:
        """A table per batch, rows in this table's order (one batch: this table):
        slices of one batch-ordered copy of the rows and `bits`, sharing `col`."""
        if len(self.max_support) == 1:
            return [self]
        order = np.argsort(self.batch, kind="stable")
        rows = (np.zeros_like(order), self.j[order], np.take(self.levels, order, axis=1),
                self.amp[order], self.bits[:, order])
        ends = np.cumsum(np.bincount(self.batch)).tolist()
        tables = [Table.__new__(Table) for _ in ends]
        for t, a, b in zip(tables, [0] + ends, ends):
            t.n, t.fields, t.col, t.max_support = self.n, self.fields, self.col, np.array([b - a])
            t.batch, t.j, t.levels, t.amp, t.bits = (r[..., a:b] for r in rows)
        return tables

    def merge(self, where: str) -> None:
        """Sum rows with equal (batch, j, levels), drop those at |amp| <= 1e-14,
        and raise `NumericalFailureError` if a batch's norm (0 with no rows) left 1 by > 1e-10."""
        width = 8 + len(self.levels)
        key = np.empty((len(self), width), np.uint8)
        # the batch sits above j's n bits, so (batch, j) is one 8-byte key
        key[:, :8] = (self.batch << self.n | self.j).view(np.uint8).reshape(-1, 8)
        key[:, 8:] = self.levels.T
        # one opaque value per row, so that rows sort and compare as bytes
        key = key.view(np.dtype((np.void, width))).ravel()
        order = np.argsort(key)
        key = key[order]
        new = np.empty(len(key), bool)
        new[:1] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        amp = np.add.reduceat(self.amp[order], starts)
        keep = np.abs(amp) > 1e-14
        first = order[starts[keep]]
        # np.take keeps every column contiguous
        self.set_rows(self.batch[first], self.j[first], np.take(self.levels, first, axis=1),
                      amp[keep])
        batches = len(self.max_support)
        self.max_support = np.maximum(self.max_support, np.bincount(self.batch, minlength=batches))
        weight = np.bincount(self.batch, np.abs(self.amp) ** 2, minlength=batches)
        for b, nrm in enumerate(map(math.sqrt, weight.tolist())):
            if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
                raise NumericalFailureError(f"norm drifted to {nrm!r} in batch {b} after {where}")


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


def _split(t, m, factor, extra, op):
    """Scale the rows in `m` by 1/sqrt(2) in place, append a copy of them
    with `extra` (column -> levels) set and amplitudes times `factor`, and
    merge."""
    rows = np.flatnonzero(m)
    levels = t.levels[:, rows]
    for col, lvl in extra.items():
        levels[col] = lvl
    amp = t.amp[rows] * (_SQ2 * factor)
    t.amp[rows] *= _SQ2
    t.set_rows(np.concatenate([t.batch, t.batch[rows]]), np.concatenate([t.j, t.j[rows]]),
               np.concatenate([t.levels, levels], axis=1),
               np.concatenate([t.amp, amp]))
    t.merge(f"gate {op.name}")


def _h_ge(t, c, on, op, tpl):
    # g -> (g + e)/sqrt2, e -> (g - e)/sqrt2; f is untouched
    a = t.levels[c[0]]
    m = _on(a < 2, on)
    factor = np.where(a[m] == 1, -1.0, 1.0)
    a[m] = 0
    _split(t, m, factor, {c[0]: 1}, op)


def _dualrail_h(t, c, on, op, tpl):
    # single-excitation Hadamard in rail space: |10> -> (|10> + |01>)/sqrt2,
    # |01> -> (|10> - |01>)/sqrt2; a rail pair not one-hot is untouched
    r0, r1 = t.levels[c[0]], t.levels[c[1]]
    e0 = r0 == 1
    m = _on(e0 != (r1 == 1), on)
    x = e0[m]
    factor = np.where(x, 1.0, -1.0)
    extra = {c[0]: np.where(x, 0, r0[m]), c[1]: 1}
    r1[m & ~e0] = 0
    r0[m] = 1
    _split(t, m, factor, extra, op)


_GATES = {
    "swap_ge": _swap_ge,
    "h_ge": _h_ge,
    "z_ge": _z_ge,
    "ladder_ge": _ladder_ge,
    "ladder_ef": _ladder_ef,
    "route": _route,
    "uproute": _uproute,
    "route2": _route,
    "uproute2": _uproute,
    "qroute": _qroute,
    "dualrail_h": _dualrail_h,
}


def apply_gate(table: Table, op) -> Table:
    """Apply level op `op` (name, level, params, nodes, templates; see
    `qram._LevelOp`) to every row of `table` and return the table, one
    template after another.

    A field with a fourth entry c is the slot in child c of the op's
    node, which is the row's own field one level down when c is j's bit at
    the op's level.  A split op merges before it returns; a hop into the
    child off j's path raises `NumericalFailureError`."""
    fn = _GATES[op.name]
    on = None
    if len(op.nodes) < 1 << op.level:
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
