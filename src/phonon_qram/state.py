"""Sparse symbolic state vector over a register of three-level slots.

A configuration is a frozenset of (slot, level) pairs with level 1 (e) or
2 (f); any slot not listed is in its ground state.  Because a query only
ever excites one slot per routed excitation, the support stays small
(at most ~2N branches for an N-cell memory) even though the full Hilbert
space is astronomically large.

Frozensets are the format at this module's boundary.  Inside
`SparseState.apply_all` every slot gets a fixed 2-bit field of an int, so
a level lookup is a shift and a mask.  Each gate updates the amplitude map
in place: one scan of the keys finds the active branches (some idle slot
excited; every branch for a gate with no idle slots), only those are
popped, and their images are summed and merged back.  The other branches
are never visited again.  Only keys the gate wrote are pruned at 1e-14;
the entry map is pruned once when it is converted to ints.  The map
carries a running squared norm that moves by the weight of every key the
gate popped, wrote or removed, including an untouched key an image lands
on.  It is checked against 1 to 1e-10 after every gate, and at the end of
`apply_all` it must match a full recomputation to 1e-12.

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

def _swap_ge(c, s, p):
    # swap restricted to the {g, e} manifold; identity if either slot is f
    a, b = s
    la, lb = c >> a & 3, c >> b & 3
    if la == 2 or lb == 2:
        return [(c, 1.0)]
    return [(c & ~(3 << a | 3 << b) | la << b | lb << a, 1.0)]


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
    "swap_ge": (2, (0, 1), _swap_ge),
    "h_ge": (1, (), _h_ge),
    "z_ge": (1, (0,), _z_ge),
    "ladder_ge": (1, (), _ladder_ge),
    "ladder_ef": (1, (0,), _ladder_ef),
    "route": (4, (1,), _route),
    "uproute": (4, (1, 2), _uproute),
    "route2": (5, (2,), _route2),
    "uproute2": (5, (2, 3), _uproute2),
    "qroute": (4, (1,), _qroute),
    "dualrail_h": (2, (0, 1), _dualrail_h),
}

GATE_ARITY = {name: arity for name, (arity, _, _) in _GATES.items()}


class _Amps(dict):
    """Int-keyed amplitude map that carries its running squared norm."""

    __slots__ = ("norm2",)


def apply_gate(amps: _Amps, op: tuple) -> _Amps:
    """Apply one compiled gate `op` = (semantics, bit offsets, params, idle
    mask) to the int-keyed amplitude map `amps` in place and return it.

    Only active branches (some idle slot excited, or every branch if the
    gate has no idle slots) are popped; their images are summed and merged
    back, pruned at 1e-14.  `amps.norm2` moves by the squared weight of
    every key popped, written or removed, including an untouched key that
    an image lands on."""
    fn, offsets, params, idle = op
    if idle:
        pop = amps.pop
        old = [(c, pop(c)) for c in [c for c in amps if c & idle]]
    else:
        old = list(amps.items())
        amps.clear()
    out: dict = {}
    get = out.get
    delta = 0.0
    for cfg, amp in old:
        m = abs(amp)
        delta -= m * m
        for new_cfg, factor in fn(cfg, offsets, params):
            out[new_cfg] = get(new_cfg, 0.0) + amp * factor
    get = amps.get
    for cfg, amp in out.items():
        prev = get(cfg)
        if prev is not None:
            m = abs(prev)
            delta -= m * m
            amp += prev
        m = abs(amp)
        if m > 1e-14:
            amps[cfg] = amp
            delta += m * m
        elif prev is not None:
            del amps[cfg]
    amps.norm2 += delta
    return amps


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

    def apply(self, gate: GateRecord) -> None:
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
        ops = []
        for g in gates:
            _, idle, fn = _GATES[g.name]
            offsets = tuple(offset[s] for s in g.slots)
            ops.append((fn, offsets, g.params, sum({3 << offsets[i] for i in idle})))
        amps = _Amps(
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
            self.amps = {_to_frozenset(c, slots): a for c, a in amps.items()}

    def amplitude(self, cfg: frozenset) -> complex:
        return self.amps.get(cfg, 0.0 + 0.0j)

    def copy(self) -> "SparseState":
        s = SparseState(self.amps)
        s.max_support = self.max_support
        return s
