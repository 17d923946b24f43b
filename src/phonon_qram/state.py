"""Sparse symbolic state vector over a register of three-level slots.

A configuration is a frozenset of (slot, level) pairs with level 1 (e) or
2 (f); any slot not listed is in its ground state.  Because a query only
ever excites one slot per routed excitation, the support stays small
(at most ~2N branches for an N-cell memory) even though the full Hilbert
space is astronomically large.

Frozensets are the format at this module's boundary.  Inside
`SparseState.apply_all` every slot gets a fixed 2-bit field of an int, so
a level lookup is a shift and a mask, and a gate whose idle slots are all
ground carries a branch over without calling its semantics.

Gates are recorded as `GateRecord`s so an entire protocol can be exported,
replayed against an independent dense simulation, or cross-checked against
the routing schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericalFailureError

__all__ = ["GateRecord", "SparseState", "GATE_ARITY", "apply_gate"]

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


# ---------------------------------------------------------------------------
# gate semantics on int configurations: `s` holds the bit offset of each
# gate slot's 2-bit level field, `c >> a & 3` reads a level, and
# `c & ~(3 << a | 3 << b) | 1 << b` moves an e excitation from a to b.
# Each returns a list of (config, amplitude_factor) branches.

def _swap(c, s, p):
    a, b = s
    return [(c & ~(3 << a | 3 << b) | (c >> a & 3) << b | (c >> b & 3) << a, 1.0)]


def _swap_ge(c, s, p):
    # swap restricted to the {g, e} manifold; identity if either slot is f
    a, b = s
    if c >> a & 3 == 2 or c >> b & 3 == 2:
        return [(c, 1.0)]
    return _swap(c, s, p)


def _h_ge(c, s, p):
    (a,) = s
    la = c >> a & 3
    if la == 2:
        return [(c, 1.0)]
    if la == 0:
        return [(c, _SQ2), (c | 1 << a, _SQ2)]
    return [(c ^ 1 << a, _SQ2), (c, -_SQ2)]


def _z_ge(c, s, p):
    (a,) = s
    return [(c, -1.0 if c >> a & 3 == 1 else 1.0)]


def _ladder_ge(c, s, p):
    (a,) = s
    return [(c if c >> a & 3 == 2 else c ^ 1 << a, 1.0)]


def _ladder_ef(c, s, p):
    (a,) = s
    return [(c if c >> a & 3 == 0 else c ^ 3 << a, 1.0)]


def _cz(c, s, p):
    a, b = s
    return [(c, -1.0 if c >> a & 3 == 1 and c >> b & 3 == 1 else 1.0)]


def _route(c, s, p):
    # conditional hop down one tree level; ctrl |e> sends the excitation
    # right unless the polarity is inverted
    ctrl, src, left, right = s
    if c >> src & 3 != 1:
        return [(c, 1.0)]
    dst = right if (c >> ctrl & 3 == 1) != bool(p[0]) else left
    return [(c & ~(3 << src | 3 << dst) | 1 << dst, 1.0)]


def _uproute(c, s, p):
    ctrl, left, right, dst = s
    src = right if (c >> ctrl & 3 == 1) != bool(p[0]) else left
    if c >> src & 3 != 1:
        return [(c, 1.0)]
    return [(c & ~(3 << src | 3 << dst) | 1 << dst, 1.0)]


def _route2(c, s, p):
    # dual-rail-controlled hop: control rail 1 in |e> selects right,
    # rail 0 selects left; both-ground (outside logical subspace) is inert
    c0, c1, src, left, right = s
    if c >> src & 3 != 1:
        return [(c, 1.0)]
    if c >> c1 & 3 == 1:
        dst = right
    elif c >> c0 & 3 == 1:
        dst = left
    else:
        return [(c, 1.0)]
    return [(c & ~(3 << src | 3 << dst) | 1 << dst, 1.0)]


def _uproute2(c, s, p):
    c0, c1, left, right, dst = s
    if c >> c1 & 3 == 1:
        src = right
    elif c >> c0 & 3 == 1:
        src = left
    else:
        return [(c, 1.0)]
    if c >> src & 3 != 1:
        return [(c, 1.0)]
    return [(c & ~(3 << src | 3 << dst) | 1 << dst, 1.0)]


def _qroute(c, s, p):
    # data-register fan-out: excitation in src enters the tree when the
    # data-side control is excited, otherwise returns to its home slot
    ctrl, src, into_tree, back = s
    if c >> src & 3 != 1:
        return [(c, 1.0)]
    dst = into_tree if c >> ctrl & 3 == 1 else back
    return [(c & ~(3 << src | 3 << dst) | 1 << dst, 1.0)]


def _dualrail_h(c, s, p):
    # single-excitation Hadamard in rail space
    r0, r1 = s
    l0, l1 = c >> r0 & 3, c >> r1 & 3
    if l0 == 1 and l1 != 1:
        return [(c, _SQ2), (c & ~(3 << r0 | 3 << r1) | 1 << r1, _SQ2)]
    if l1 == 1 and l0 != 1:
        return [(c & ~(3 << r0 | 3 << r1) | 1 << r0, _SQ2), (c, -_SQ2)]
    return [(c, 1.0)]


# name -> (arity, idle positions, semantics).  The gate is the identity on
# every branch whose slots at the idle positions are all ground; an empty
# tuple means it never is.
_GATES = {
    "swap": (2, (0, 1), _swap),
    "swap_ge": (2, (0, 1), _swap_ge),
    "h_ge": (1, (), _h_ge),
    "z_ge": (1, (0,), _z_ge),
    "ladder_ge": (1, (), _ladder_ge),
    "ladder_ef": (1, (0,), _ladder_ef),
    "cz": (2, (0,), _cz),
    "route": (4, (1,), _route),
    "uproute": (4, (1, 2), _uproute),
    "route2": (5, (2,), _route2),
    "uproute2": (5, (2, 3), _uproute2),
    "qroute": (4, (1,), _qroute),
    "dualrail_h": (2, (0, 1), _dualrail_h),
}

GATE_ARITY = {name: arity for name, (arity, _, _) in _GATES.items()}


def apply_gate(amps: dict, op: tuple) -> dict:
    """Apply one compiled gate `op` = (semantics, bit offsets, params, idle
    mask) to an int-keyed amplitude map."""
    fn, offsets, params, idle = op
    out: dict = {}
    get = out.get
    for cfg, amp in amps.items():
        if idle and not cfg & idle:
            out[cfg] = get(cfg, 0.0) + amp
            continue
        for new_cfg, factor in fn(cfg, offsets, params):
            out[new_cfg] = get(new_cfg, 0.0) + amp * factor
    return {c: a for c, a in out.items() if abs(a) > 1e-14}


def _to_frozenset(cfg: int, slots: list) -> frozenset:
    items = []
    while cfg:
        i = (cfg & -cfg).bit_length() - 1 >> 1
        items.append((slots[i], cfg >> 2 * i & 3))
        cfg &= ~(3 << 2 * i)
    return frozenset(items)


class SparseState:
    """Mutable amplitude map config -> complex."""

    __slots__ = ("amps", "max_support")

    def __init__(self, amps: dict | None = None):
        self.amps = dict(amps) if amps else {frozenset(): 1.0 + 0.0j}
        self.max_support = len(self.amps)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))

    def support(self) -> int:
        return len(self.amps)

    def apply(self, gate: GateRecord, check_norm: bool = True) -> None:
        self.apply_all([gate], check_norm=check_norm)

    def apply_all(self, gates, check_norm: bool = True) -> None:
        """Apply `gates` in order, on int configurations inside this call."""
        gates = list(gates)
        slots = list(dict.fromkeys(
            [s for cfg in self.amps for s, _ in cfg] + [s for g in gates for s in g.slots]
        ))
        offset = {s: 2 * i for i, s in enumerate(slots)}
        ops = []
        for g in gates:
            _, idle, fn = _GATES[g.name]
            offsets = tuple(offset[s] for s in g.slots)
            ops.append((fn, offsets, g.params, sum({3 << offsets[i] for i in idle})))
        self.amps = {
            sum(level << offset[s] for s, level in cfg): a for cfg, a in self.amps.items()
        }
        try:
            for g, op in zip(gates, ops):
                self.amps = apply_gate(self.amps, op)
                self.max_support = max(self.max_support, len(self.amps))
                if check_norm:
                    n = self.norm()
                    if abs(n - 1.0) > 1e-10:
                        raise NumericalFailureError(
                            f"norm drifted to {n!r} after gate {g.name}"
                        )
        finally:
            self.amps = {_to_frozenset(c, slots): a for c, a in self.amps.items()}

    def amplitude(self, cfg: frozenset) -> complex:
        return self.amps.get(cfg, 0.0 + 0.0j)

    def copy(self) -> "SparseState":
        s = SparseState(self.amps)
        s.max_support = self.max_support
        return s
