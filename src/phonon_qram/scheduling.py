"""Pipelined routing schedules for the QRAM tree.

Excitation k (k = 0..n-1 the address qubits, k = n the bus) is routed k
steps down on the way in and k steps back out; each step occupies one
waveguide slot of duration t.  Transmon gates (swaps, CZ, release ladders)
are zero-duration, so the makespan is 2(2n-1)t for the hybrid/single-rail
pipeline and 2(3n-1)t when both rails of a standard dual-rail qubit are
routed sequentially.  Idle time is attributed to transmon residence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidParameterError
from .qram_types import Encoding

__all__ = [
    "ScheduleEntry",
    "Schedule",
    "makespan_slots",
    "start_slot",
    "build_schedule",
    "residence_intervals",
    "validate_schedule",
    "schedule_to_gantt_json",
]


@dataclass(frozen=True)
class ScheduleEntry:
    """One waveguide slot: excitation k traverses `level` starting at
    `slot_start` (units of t).  `rail` is 0 except for standard dual-rail."""

    k: int
    level: int
    slot_start: int
    direction: str  # "in" | "out"
    rail: int = 0


@dataclass(frozen=True)
class Schedule:
    n: int
    t: float  # routing step duration, ns
    encoding: Encoding
    entries: tuple[ScheduleEntry, ...]
    makespan_slots: int

    @property
    def makespan(self) -> float:
        """Total query time in ns."""
        return self.makespan_slots * self.t


def makespan_slots(n: int, encoding: Encoding) -> int:
    """Query length in units of t (see the module docstring)."""
    return 2 * (3 * n - 1) if encoding.is_standard else 2 * (2 * n - 1)


def start_slot(k: int, rail: int, encoding: Encoding) -> int:
    """Slot at which excitation k is emitted; 0 for the root control (k = 0)."""
    if encoding.is_standard:
        return max(2 * (k - 1) + rail, 0)
    return max(k - 1, 0)


def check_int(value, name: str) -> int:
    """`value` as an int; `InvalidParameterError` unless it is an integer (a
    numpy integer too), and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_nt(n: int, t: float) -> None:
    """Raise `InvalidParameterError` unless n is an integer >= 1 and t (ns)
    is finite and > 0."""
    check_int(n, "n")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0 < t < math.inf:  # NaN fails too
        raise InvalidParameterError(f"t must be finite and > 0, got {t}")


def build_schedule(n: int, encoding: Encoding, t: float = 350.0) -> Schedule:
    """Pipelined schedule for a depth-n query."""
    check_nt(n, t)
    makespan = makespan_slots(n, encoding)
    entries: list[ScheduleEntry] = []
    for k in range(1, n + 1):  # the root control (k = 0) is never routed
        for rail in encoding.rails:
            s = start_slot(k, rail, encoding)
            for level in range(k):
                entries.append(ScheduleEntry(k, level, s + level, "in", rail=rail))
                entries.append(
                    ScheduleEntry(
                        k, level, makespan - (s + level) - 1, "out", rail=rail
                    )
                )
    entries.sort(key=lambda e: (e.slot_start, e.k, e.rail, e.level))
    return Schedule(n, t, encoding, tuple(entries), makespan)


def residence_intervals(n: int, encoding: Encoding, t: float, k: int, rail: int = 0):
    """Partition [0, T] for excitation k on `rail` (1 only for standard
    dual-rail) into (start, end, medium) in ns: k contiguous waveguide slots
    in from its `start_slot`, k out, and transmon residence the rest."""
    check_nt(n, t)
    check_int(k, "excitation id")
    if not 0 <= k <= n:
        raise InvalidParameterError(f"unknown excitation id {k}")
    if rail not in encoding.rails:
        raise InvalidParameterError(f"no rail {rail} for {encoding.value}")
    total = makespan_slots(n, encoding) * t
    s = start_slot(k, rail, encoding) * t
    edges = (0.0, s, s + k * t, total - s - k * t, total - s, total)
    media = ("transmon", "waveguide", "transmon", "waveguide", "transmon")
    return [(a, b, m) for a, b, m in zip(edges, edges[1:], media) if b > a]


def validate_schedule(schedule: Schedule) -> list[str]:
    """Return a list of constraint violations (empty when valid)."""
    problems: list[str] = []
    seen: dict[tuple[int, int], ScheduleEntry] = {}
    for e in schedule.entries:
        key = (e.level, e.slot_start)
        if key in seen:
            o = seen[key]
            problems.append(
                f"waveguide conflict at level {e.level}, slot {e.slot_start}: "
                f"excitations {o.k}(r{o.rail}) and {e.k}(r{e.rail})"
            )
        seen[key] = e
        if not 0 <= e.slot_start < schedule.makespan_slots:
            problems.append(f"entry outside makespan: {e}")
    # dependency: excitation k may cross level j only once a_j's control is set
    set_done: dict[int, int] = {0: 0}
    for j in range(1, schedule.n):
        slots = [e.slot_start for e in schedule.entries
                 if e.k == j and e.direction == "in"]
        set_done[j] = max(slots) + 1 if slots else 0
    for e in schedule.entries:
        if e.direction != "in" or e.level not in set_done:
            continue
        if e.k > e.level and e.slot_start < set_done[e.level]:
            problems.append(
                f"excitation {e.k} crosses level {e.level} at slot "
                f"{e.slot_start} before its control is set"
            )
    return problems


def schedule_to_gantt_json(schedule: Schedule):
    """Gantt-ready structure: one lane per excitation and rail."""
    n, enc, t = schedule.n, schedule.encoding, schedule.t
    lanes = [{"excitation": k, "rail": rail,
              "spans": [{"start_ns": a, "end_ns": b, "medium": medium}
                        for a, b, medium in residence_intervals(n, enc, t, k, rail)]}
             for k in range(n + 1) for rail in enc.rails]
    return {
        "n": schedule.n,
        "t_ns": schedule.t,
        "encoding": schedule.encoding.value,
        "makespan_ns": schedule.makespan,
        "lanes": lanes,
    }
