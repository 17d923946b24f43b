"""Dense state-vector replay of sparse-engine gate traces.

Independent implementation used as an oracle: every gate is materialized
as an explicit matrix on the touched subsystems (with a unitarity check)
and applied to a full tensor-product state vector, so any bookkeeping bug
in the sparse engine (dropped branches, overwritten occupancy, missed
interference) shows up as a mismatch.

Slots touched by an e-f ladder gate get three levels; everything else is
a two-level system, which keeps n <= 2 queries comfortably small.
"""

from __future__ import annotations

import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)


def _semantics(name, levels, params):
    """Map an input level tuple to [(output levels, amplitude)]."""
    ls = list(levels)
    if name == "swap_ge":
        a, b = ls
        if a == 2 or b == 2:
            return [(tuple(ls), 1.0)]
        return [((b, a), 1.0)]
    if name == "h_ge":
        (a,) = ls
        if a == 2:
            return [((2,), 1.0)]
        if a == 0:
            return [((0,), _SQ2), ((1,), _SQ2)]
        return [((0,), _SQ2), ((1,), -_SQ2)]
    if name == "z_ge":
        (a,) = ls
        return [((a,), -1.0 if a == 1 else 1.0)]
    if name == "ladder_ge":
        (a,) = ls
        return [((a,), 1.0)] if a == 2 else [((1 - a,), 1.0)]
    if name == "ladder_ef":
        (a,) = ls
        return [((a,), 1.0)] if a == 0 else [((3 - a,), 1.0)]
    # the routing-style gates are controlled swaps of a source slot with
    # one neighbor picked by the control: a manifestly unitary extension
    # that agrees with the engine on all protocol-reachable states (the
    # destination is always empty when an excitation hops)
    if name in ("route", "uproute", "route2", "uproute2", "qroute"):
        if name == "route":
            ctrl, src, left, right = ls
            go_right = (ctrl == 1) != bool(params[0])
            a, b = (src, right) if go_right else (src, left)
            pos = {"src": 1, "chosen": 3 if go_right else 2}
        elif name == "uproute":
            ctrl, left, right, dst = ls
            go_right = (ctrl == 1) != bool(params[0])
            a, b = (right, dst) if go_right else (left, dst)
            pos = {"src": 2 if go_right else 1, "chosen": 3}
        elif name == "route2":
            c0, c1, src, left, right = ls
            if c1 != 1 and c0 != 1:
                return [(tuple(ls), 1.0)]
            go_right = c1 == 1
            a, b = (src, right) if go_right else (src, left)
            pos = {"src": 2, "chosen": 4 if go_right else 3}
        elif name == "uproute2":
            c0, c1, left, right, dst = ls
            if c1 != 1 and c0 != 1:
                return [(tuple(ls), 1.0)]
            go_right = c1 == 1
            a, b = (right, dst) if go_right else (left, dst)
            pos = {"src": 3 if go_right else 2, "chosen": 4}
        else:  # qroute
            ctrl, src, tree, back = ls
            into_tree = ctrl == 1
            a, b = (src, tree) if into_tree else (src, back)
            pos = {"src": 1, "chosen": 2 if into_tree else 3}
        out = list(ls)
        out[pos["src"]], out[pos["chosen"]] = b, a
        return [(tuple(out), 1.0)]
    if name == "dualrail_h":
        r0, r1 = ls
        if r0 == 1 and r1 != 1:
            return [((1, r1), _SQ2), ((0, 1), _SQ2)]
        if r1 == 1 and r0 != 1:
            return [((1, 0), _SQ2), ((r0, 1), -_SQ2)]
        return [(tuple(ls), 1.0)]
    raise ValueError(f"unknown gate {name}")


def _local_unitary(name, dims, params):
    """Dense matrix over the touched slots, with a unitarity check."""
    d = int(np.prod(dims))
    U = np.zeros((d, d), dtype=complex)
    shape = tuple(dims)
    for i in range(d):
        levels = np.unravel_index(i, shape)
        outs = _semantics(name, tuple(int(x) for x in levels), params)
        for out_levels, amp in outs:
            j = int(np.ravel_multi_index(out_levels, shape))
            U[j, i] += amp
    if not np.allclose(U.conj().T @ U, np.eye(d), atol=1e-12):
        raise AssertionError(f"gate {name} is not unitary on dims {dims}")
    return U


def run_dense(initial, gates):
    """Evolve a dense copy of `initial` (config -> amplitude) through the
    gate list; returns (slot order, dims, final vector)."""
    slots = set()
    three_level = set()
    for cfg in initial:
        for slot, level in cfg:
            slots.add(slot)
            if level == 2:
                three_level.add(slot)
    for g in gates:
        slots.update(g.slots)
        if g.name == "ladder_ef":
            three_level.update(g.slots)
    order = sorted(slots)
    dims = [3 if s in three_level else 2 for s in order]
    total = int(np.prod(dims))
    if total > 1 << 20:
        raise ValueError(f"dense space too large: {total}")
    index = {s: i for i, s in enumerate(order)}

    psi = np.zeros(total, dtype=complex)
    shape = tuple(dims)
    for cfg, amp in initial.items():
        levels = [0] * len(order)
        for slot, level in cfg:
            levels[index[slot]] = level
        psi[int(np.ravel_multi_index(levels, shape))] += amp

    psi = psi.reshape(shape)
    for g in gates:
        axes = [index[s] for s in g.slots]
        local_dims = [dims[a] for a in axes]
        U = _local_unitary(g.name, local_dims, g.params)
        moved = np.moveaxis(psi, axes, range(len(axes)))
        head = int(np.prod(local_dims))
        flat = moved.reshape(head, -1)
        flat = U @ flat
        psi = np.moveaxis(flat.reshape(moved.shape), range(len(axes)), axes)
    return order, dims, psi.reshape(-1)


def dense_amplitudes(initial, gates, tol=1e-12):
    """Final dense state as a config -> amplitude map (for comparison)."""
    order, dims, psi = run_dense(initial, gates)
    shape = tuple(dims)
    out = {}
    for i in np.nonzero(np.abs(psi) > tol)[0]:
        levels = np.unravel_index(int(i), shape)
        cfg = frozenset(
            (slot, int(l)) for slot, l in zip(order, levels) if l
        )
        out[cfg] = complex(psi[i])
    return out
