"""Copy-per-gate reference for the sparse engine's bookkeeping.

It shares the int gate semantics of `int_gates` but none of the
in-place machinery: every gate visits every branch, writes a new map, and
prunes the whole map at 1e-14.  Comparing a full query against it checks
the active-branch scan, the merge, the touched-only prune and the support
count at sizes the dense oracle cannot reach.
"""

from __future__ import annotations

from int_gates import _GATES
from slot_engine import slot_layout, to_frozenset


def copy_run(initial: dict, gates) -> tuple[dict, int]:
    """(final config -> amplitude, max support) of `gates` on `initial`."""
    slots, offset = slot_layout(initial, gates)
    amps = {sum(lvl << offset[s] for s, lvl in cfg): a for cfg, a in initial.items()}
    max_support = len(amps)
    for g in gates:
        _, idle_pos, fn = _GATES[g.name]
        offsets = tuple(offset[s] for s in g.slots)
        idle = sum({3 << offsets[i] for i in idle_pos})
        out: dict = {}
        for cfg, amp in amps.items():
            if idle and not cfg & idle:
                out[cfg] = out.get(cfg, 0.0) + amp
                continue
            for new_cfg, factor in fn(cfg, offsets, g.params):
                out[new_cfg] = out.get(new_cfg, 0.0) + amp * factor
        amps = {c: a for c, a in out.items() if abs(a) > 1e-14}
        max_support = max(max_support, len(amps))
    return {to_frozenset(c, slots): a for c, a in amps.items()}, max_support
