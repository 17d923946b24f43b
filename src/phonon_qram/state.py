"""Gate semantics as column operations on a branch table.

A state is a map from configurations to complex amplitudes.  Outside the
engine a configuration is a frozenset of (slot, level) pairs with level 1
(e) or 2 (f), any slot not listed being in its ground state: that is
`SparseState`, the format results are exported in.

Inside the engine a state is a `Table` of rows in path coordinates: an
address branch j, one uint8 level per field and a complex amplitude.  A
field is a slot on j's root-to-leaf path, named (kind, level, rail); the
caller owns the layout (`qram.PathState`).  `apply_gate` runs one level op,
a gate on every node of a tree level with one template of fields per
gate, on every row at once.  A field (kind, level, rail, c) names the slot
in child c of the op's node: the row's own field when c is j's bit at the
op's level, a slot off j's path otherwise.  A hop into the child off the
path raises `NumericalFailureError`, and a hop out of it finds nothing to
move.  An op on some nodes of a level acts on the rows whose j prefix is
one of them.

Every gate but `h_ge` and `dualrail_h` maps each row to one row and keeps
its weight, so only those two change the row count: they split rows, then
`Table.merge` sums rows with equal (j, levels), prunes at 1e-14 and checks
the norm against 1 to 1e-10.  The caller merges once more at the end of a
query, which catches an op that mapped two rows onto one.

Gates are recorded as `GateRecord`s so an entire protocol can be exported,
replayed against an independent dense simulation, or cross-checked against
the routing schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError

__all__ = ["GateRecord", "SparseState", "GATE_ARITY", "Table", "apply_gate"]

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
    """Rows of a state in path coordinates: address branch `j` (int64),
    `levels[col[f]]` the level of field f in every row (uint8, one
    contiguous column per field) and `amp` (complex)."""

    __slots__ = ("n", "col", "j", "levels", "amp", "_bits")

    def __init__(self, n: int, col: dict, j, levels, amp):
        self.n, self.col = n, col
        self.set_rows(j, levels, amp)

    def __len__(self) -> int:
        return len(self.amp)

    def set_rows(self, j, levels, amp) -> None:
        self.j, self.levels, self.amp = j, levels, amp
        self._bits: dict = {}

    def bit(self, level: int):
        """Per row, whether j's bit at tree level `level` (level 0 is most
        significant) is 1: the child on j's path one level down."""
        bit = self._bits.get(level)
        if bit is None:
            bit = self._bits[level] = (self.j >> (self.n - 1 - level)) & 1 == 1
        return bit

    def merge(self, where: str) -> None:
        """Sum rows with equal (j, levels), drop those at |amp| <= 1e-14,
        and raise `NumericalFailureError` if the norm left 1 by more than
        1e-10."""
        width = 8 + len(self.levels)
        key = np.empty((len(self), width), np.uint8)
        key[:, :8] = self.j.view(np.uint8).reshape(-1, 8)
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
        self.set_rows(self.j[first], np.take(self.levels, first, axis=1), amp[keep])
        nrm = math.sqrt(np.vdot(self.amp, self.amp).real)
        if abs(nrm - 1.0) > 1e-10:
            raise NumericalFailureError(f"norm drifted to {nrm!r} after {where}")


# ---------------------------------------------------------------------------
# gate semantics on columns: each takes the table, the template's columns,
# the rows the op acts on (None for every row), the level op and the
# template

def _on(mask, on):
    return mask if on is None else mask & on


def _child(go, left, right):
    """Per row, the child bit of the field a hop uses: the child field
    `right` where `go`, else `left`."""
    left, right = left[3], right[3]
    if left == right:
        return np.full_like(go, bool(left))
    return ~go if left else go


def _hop(t, m, src, dst):
    """Move the e excitation of the rows in `m` from column src to dst."""
    t.levels[src][m] = 0
    t.levels[dst][m] = 1


def _hop_in(t, m, go, op, tpl, src, dst):
    """Hop down into the child the last two fields of `tpl` name, or raise
    if a row in `m` would leave j's path."""
    if np.count_nonzero(m & (_child(go, *tpl[-2:]) != t.bit(op.level))):
        raise NumericalFailureError(
            f"{op.name} moved a branch onto a slot it does not track")
    _hop(t, m, src, dst)


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
    # conditional hop down one tree level; ctrl |e> sends the excitation
    # right unless the polarity is inverted
    go = t.levels[c[0]] == 1
    if op.params[0]:
        go = ~go
    _hop_in(t, _on(t.levels[c[1]] == 1, on), go, op, tpl, c[1], c[2])


def _uproute(t, c, on, op, tpl):
    # the source is the child field `go` selects; off j's path it is empty
    go = t.levels[c[0]] == 1
    if op.params[0]:
        go = ~go
    m = (t.levels[c[1]] == 1) & (_child(go, tpl[1], tpl[2]) == t.bit(op.level))
    _hop(t, _on(m, on), c[1], c[3])


def _route2(t, c, on, op, tpl):
    # dual-rail-controlled hop: control rail 1 in |e> selects right,
    # rail 0 selects left; both-ground (outside logical subspace) is inert
    L = t.levels
    go = L[c[1]] == 1
    m = _on((L[c[2]] == 1) & (go | (L[c[0]] == 1)), on)
    _hop_in(t, m, go, op, tpl, c[2], c[3])


def _uproute2(t, c, on, op, tpl):
    L = t.levels
    go = L[c[1]] == 1
    m = (L[c[2]] == 1) & (go | (L[c[0]] == 1))
    m &= _child(go, tpl[2], tpl[3]) == t.bit(op.level)
    _hop(t, _on(m, on), c[2], c[4])


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
    t.set_rows(np.concatenate([t.j, t.j[rows]]),
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


# name -> (arity, semantics)
_GATES = {
    "swap_ge": (2, _swap_ge),
    "h_ge": (1, _h_ge),
    "z_ge": (1, _z_ge),
    "ladder_ge": (1, _ladder_ge),
    "ladder_ef": (1, _ladder_ef),
    "route": (4, _route),
    "uproute": (4, _uproute),
    "route2": (5, _route2),
    "uproute2": (5, _uproute2),
    "qroute": (4, _qroute),
    "dualrail_h": (2, _dualrail_h),
}

GATE_ARITY = {name: arity for name, (arity, _) in _GATES.items()}


def apply_gate(table: Table, op) -> Table:
    """Apply level op `op` (name, level, params, nodes, templates; see
    `qram._LevelOp`) to every row of `table` and return the table, one
    template after another.

    A field with a fourth entry c is the slot in child c of the op's
    node, which is the row's own field one level down when c is j's bit at
    the op's level.  A split op merges before it returns; a hop into the
    child off j's path raises `NumericalFailureError`."""
    fn = _GATES[op.name][1]
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
