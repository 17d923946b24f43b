"""Int-key gate semantics: the reference for the column engine in
`phonon_qram.state`.

Every tracked slot has a fixed 2-bit field of an int configuration.
`compile_gate` turns a gate and the fixed bit offsets of its slots into an
op; `apply_gate` updates an int-keyed amplitude map in place.  One scan of
the keys finds the active branches (some idle slot excited; every branch
for a gate with no idle slots), only those are popped, and their images
are summed and merged back.  Only keys the gate wrote are pruned at 1e-14.
The map carries a running squared norm that moves by the weight of every
key the gate popped, wrote or removed, including an untouched key an image
lands on; the caller checks it.

`slot_engine.py` runs whole queries on these semantics, independently of
`phonon_qram.state`'s column operations.
"""

from __future__ import annotations

import math

_SQ2 = 1.0 / math.sqrt(2.0)


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

class Amps(dict):
    """Int-keyed amplitude map that carries its running squared norm."""

    __slots__ = ("norm2",)


def compile_gate(name: str, params: tuple, offsets: tuple) -> tuple:
    """Op for `apply_gate`: gate `name` with `params` on the slots whose
    2-bit fields start at bit `offsets`."""
    _, idle_pos, fn = _GATES[name]
    idle = 0
    for i in idle_pos:
        idle |= 3 << offsets[i]
    return fn, params, idle, offsets


def apply_gate(amps: Amps, op: tuple) -> Amps:
    """Apply one compiled op (see `compile_gate`) to the int-keyed amplitude
    map `amps` in place and return it.

    Only active branches (some idle slot excited, or every branch if the
    gate has no idle slots) are popped; their images are summed and merged
    back, pruned at 1e-14.  `amps.norm2` moves by the squared weight of
    every key popped, written or removed, including an untouched key that
    an image lands on."""
    fn, params, idle, offsets = op
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
