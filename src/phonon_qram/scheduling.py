"""Pipelined routing schedules for the QRAM tree.

Excitation k (k = 0..n-1 the address qubits, k = n the bus) is routed k
steps down on the way in and k steps back out; each step occupies one
waveguide slot of duration t.  Transmon gates (swaps, CZ, release ladders)
are zero-duration, so the makespan is 2(2n-1)t for the hybrid/single-rail
pipeline and 2(3n-1)t when both rails of a standard dual-rail qubit are
routed sequentially.  Idle time is attributed to transmon residence.
"""

from __future__ import annotations

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


def build_schedule(n: int, encoding: Encoding, t: float = 350.0) -> Schedule:
    """Pipelined schedule for a depth-n query."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not t > 0:
        raise InvalidParameterError(f"t must be > 0, got {t}")
    makespan = makespan_slots(n, encoding)
    rails = (0, 1) if encoding.is_standard else (0,)
    entries: list[ScheduleEntry] = []
    for k in range(1, n + 1):  # the root control (k = 0) is never routed
        for rail in rails:
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


def residence_intervals(schedule: Schedule, k: int):
    """Partition [0, T] for excitation k into (start, end, medium) in ns.

    The excitation spends k contiguous slots in the waveguide on the way in
    and k on the way out (rail 0 timing for standard dual-rail); everything
    else is transmon residence.
    """
    if not 0 <= k <= schedule.n:
        raise InvalidParameterError(f"unknown excitation id {k}")
    t = schedule.t
    total = schedule.makespan
    if k == 0:
        return [(0.0, total, "transmon")]
    s = start_slot(k, 0, schedule.encoding) * t
    flight = k * t
    mid_start = s + flight
    mid_end = total - s - flight
    out: list[tuple[float, float, str]] = []
    if s > 0:
        out.append((0.0, s, "transmon"))
    out.append((s, mid_start, "waveguide"))
    if mid_end > mid_start:
        out.append((mid_start, mid_end, "transmon"))
    out.append((mid_end, total - s, "waveguide"))
    if s > 0:
        out.append((total - s, total, "transmon"))
    return out


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
    """Gantt-ready structure: one lane per excitation."""
    lanes = []
    for k in range(schedule.n + 1):
        spans = [
            {
                "start_ns": iv[0],
                "end_ns": iv[1],
                "medium": iv[2],
            }
            for iv in residence_intervals(schedule, k)
        ]
        lanes.append({"excitation": k, "spans": spans})
    return {
        "n": schedule.n,
        "t_ns": schedule.t,
        "encoding": schedule.encoding.value,
        "makespan_ns": schedule.makespan,
        "lanes": lanes,
    }
