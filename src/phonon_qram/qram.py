"""Gate-level simulation of a full bucket-brigade query.

The memory is a depth-n binary tree of router nodes.  Each node has a
control transmon (holds an address bit) and an ancilla (a parking slot for
an excitation in flight); level-n "ancillas" are the leaf waveguide
positions where the read happens.  A query releases the address qubits one
per routing step, pipelined so that excitation k (0-based, bus = n) is
routed k levels down and parks as the level-k control.  After the read the
query is uncomputed: the way out is the inward half's gates inverted and
played in reverse order.  A classical cell never enters the state: a 1-bit
is a `z_ge` on the leaf that holds the |+> bus, which the decode turns into
the bit; a quantum cell is a data slot, routed into the tree when queried.
Routing here is ideal: distortion and decoherence are composed on top
analytically or by Monte Carlo elsewhere.

Timestamps on the emitted gate records are in units of the routing step t.
In-hops sit on the "in" entries of `scheduling.build_schedule`, and
emissions and control settings on `scheduling.start_slot`.  Mirroring maps
an instant at tau to M - tau and a hop over [tau, tau + 1) to M - tau - 1,
for makespan M, which lands every out-hop on its "out" entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .qram_types import DataMode, Encoding
from .scheduling import build_schedule, makespan_slots, start_slot
from .state import GateRecord, SparseState

__all__ = [
    "QramConfig",
    "DataRegister",
    "QueryResult",
    "query",
    "build_query_gates",
    "initial_state",
    "trace_to_json",
]

# tie-breaking priorities for inward gates sharing a timestamp; the root
# control (excitation 0) is set before the pipeline starts
_P_EMIT0, _P_SET0, _P_EMIT, _P_SET, _P_IN = range(-2, 3)


@dataclass(frozen=True)
class QramConfig:
    """n address qubits, N = 2**n memory cells."""

    n: int
    t: float = 350.0  # routing step duration, ns
    encoding: Encoding = Encoding.SINGLE_RAIL

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if not self.t > 0:
            raise InvalidParameterError(f"t must be > 0, got {self.t}")

    @property
    def N(self) -> int:
        return 2 ** self.n

    @property
    def makespan_slots(self) -> int:
        return makespan_slots(self.n, self.encoding)


@dataclass(frozen=True)
class DataRegister:
    """N classical bits, or N data-qubit states (amplitude pairs)."""

    mode: DataMode
    bits: tuple = ()          # classical: 0/1 per cell
    qubits: tuple = ()        # quantum: (a, b) amplitudes per cell

    @classmethod
    def classical(cls, bits) -> "DataRegister":
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise InvalidParameterError("classical data bits must be 0/1")
        return cls(DataMode.CLASSICAL, bits=tuple(int(b) for b in bits))

    @classmethod
    def quantum(cls, qubits) -> "DataRegister":
        out = []
        for a, b in qubits:
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            if abs(nrm - 1.0) > 1e-9:
                raise InvalidParameterError("data qubit state not normalized")
            out.append((complex(a), complex(b)))
        return cls(DataMode.QUANTUM, qubits=tuple(out))

    def validate(self, N: int) -> None:
        if self.mode is DataMode.CLASSICAL:
            if len(self.bits) != N:
                raise InvalidParameterError(
                    f"data register needs {N} bits, got {len(self.bits)}"
                )
            if any(b not in (0, 1) for b in self.bits):
                raise InvalidParameterError("classical data bits must be 0/1")
        else:
            if len(self.qubits) != N:
                raise InvalidParameterError(
                    f"data register needs {N} qubit states, got {len(self.qubits)}"
                )


# ---------------------------------------------------------------------------
# slot naming

def _reg(k, rail=None):
    return ("reg", k) if rail is None else ("reg", k, rail)


def _ctrl(lvl, idx, rail=None):
    return ("ctrl", lvl, idx) if rail is None else ("ctrl", lvl, idx, rail)


def _anc(lvl, idx, rail=None):
    return ("anc", lvl, idx) if rail is None else ("anc", lvl, idx, rail)


def _data(j, rail=None):
    return ("data", j) if rail is None else ("data", j, rail)


def _dctrl(j, rail=None):
    return ("dctrl", j) if rail is None else ("dctrl", j, rail)


def _dwg(j, rail=None):
    return ("dwg", j) if rail is None else ("dwg", j, rail)


def _bit(j: int, k: int, n: int) -> int:
    """Address bit consumed at tree level k (level 0 is most significant)."""
    return (j >> (n - 1 - k)) & 1


# ---------------------------------------------------------------------------
# gate-block builders

def _route_level(cfg: QramConfig, lvl: int, time: float, rail=None):
    """One conditional hop from level lvl to lvl+1, over every node."""
    gates = []
    invert = cfg.encoding is Encoding.HYBRID_DUAL_RAIL
    for idx in range(2 ** lvl):
        left, right = _anc(lvl + 1, 2 * idx, rail), _anc(lvl + 1, 2 * idx + 1, rail)
        if cfg.encoding.is_standard:
            gates.append(GateRecord(
                "route2",
                (_ctrl(lvl, idx, 0), _ctrl(lvl, idx, 1), _anc(lvl, idx, rail),
                 left, right),
                time,
            ))
        else:
            gates.append(GateRecord(
                "route", (_ctrl(lvl, idx), _anc(lvl, idx), left, right),
                time, (invert,),
            ))
    return gates


def _set_level(cfg: QramConfig, k: int, time: float, rail=None):
    return [
        GateRecord("swap_ge", (_anc(k, idx, rail), _ctrl(k, idx, rail)), time)
        for idx in range(2 ** k)
    ]


def _release_block(cfg: QramConfig, slot, time: float):
    """Entangling release: (a|g>+b|e>)|g>_root -> a|g>|e>_root + b|e>|g>_root."""
    root = _anc(0, 0)
    return [
        GateRecord("ladder_ef", (slot,), time),
        GateRecord("ladder_ge", (slot,), time),
        GateRecord("swap_ge", (slot, root), time),
        GateRecord("ladder_ef", (slot,), time),
    ]


def _emit_block(cfg: QramConfig, k: int, time: float, rail=None, quantum_bus=False):
    """Transfer of register k into the root ancilla."""
    slot = _reg(k, rail)
    hybrid = cfg.encoding is Encoding.HYBRID_DUAL_RAIL
    # the hybrid bus in quantum mode is emitted plainly: the entangling
    # release would keep the |e> component in the register instead of
    # sending an excitation down the tree
    plain = (not hybrid) or (k == cfg.n and quantum_bus)
    if plain:
        return [GateRecord("swap_ge", (slot, _anc(0, 0, rail)), time)]
    return _release_block(cfg, slot, time)


def _read_block(cfg: QramConfig, data: DataRegister, time: float):
    N = cfg.N
    std = cfg.encoding.is_standard
    if data.mode is DataMode.CLASSICAL:
        # a classical cell never enters the state: a 1-bit is a phase on the
        # leaf that holds the bus (rail 1 for standard dual-rail)
        return [GateRecord("z_ge", (_anc(cfg.n, j, 1 if std else None),), time)
                for j in range(N) if data.bits[j]]
    # quantum read: park the bus excitation as a data-side control, emit
    # every data qubit, route the queried one into the tree and the rest
    # back into place
    gates = []
    rails = (0, 1) if std else (None,)
    for j in range(N):
        for r in rails:
            gates.append(GateRecord("swap_ge", (_anc(cfg.n, j, r), _dctrl(j, r)), time))
    for j in range(N):
        for r in rails:
            gates.append(GateRecord("swap_ge", (_data(j, r), _dwg(j, r)), time))
    marker_rail = 1 if std else None
    for j in range(N):
        for r in rails:
            gates.append(GateRecord(
                "qroute",
                (_dctrl(j, marker_rail), _dwg(j, r), _anc(cfg.n, j, r), _data(j, r)),
                time,
            ))
    return gates


# inverse of each inward gate; the ladders and swap_ge are involutions
_INVERSE = {
    "swap_ge": "swap_ge",
    "ladder_ge": "ladder_ge",
    "ladder_ef": "ladder_ef",
    "route": "uproute",
    "route2": "uproute2",
}


def _mirror(g: GateRecord, M: int) -> GateRecord:
    """Inverse of inward gate `g` at its time-reversed slot in a makespan-M
    query.  An instant at tau maps to M - tau; a hop over [tau, tau + 1)
    maps to M - tau - 1, with its source slot moved last."""
    name = _INVERSE[g.name]
    if name == g.name:
        return GateRecord(name, g.slots, M - g.time, g.params)
    s = g.slots
    return GateRecord(name, s[:-3] + s[-2:] + s[-3:-2], M - g.time - 1, g.params)


# ---------------------------------------------------------------------------
# full protocol

def build_query_gates(cfg: QramConfig, data: DataRegister) -> list[GateRecord]:
    """Chronological gate list for a complete query: the inward half, the
    read, the mirrored inverse of the inward half, then the bus decode."""
    data.validate(cfg.N)
    qbus = data.mode is DataMode.QUANTUM
    n, M = cfg.n, cfg.makespan_slots
    std = cfg.encoding.is_standard
    rails = (0, 1) if std else (None,)
    # (time, priority, sub-priority, gate); the stable sort below keeps
    # insertion order among gates whose keys tie
    ev: list[tuple[int, int, int, GateRecord]] = []

    def add(time, pri, gates, sub=0):
        ev.extend((time, pri, sub, g) for g in gates)

    for k in range(n + 1):
        for r in rails:
            s = start_slot(k, r or 0, cfg.encoding)
            add(s, _P_EMIT0 if k == 0 else _P_EMIT,
                _emit_block(cfg, k, s, rail=r, quantum_bus=qbus))
            if k < n:
                add(s + k, _P_SET0 if k == 0 else _P_SET,
                    _set_level(cfg, k, s + k, rail=r))

    for e in build_schedule(n, cfg.encoding, cfg.t).entries:
        if e.direction == "in":
            # within a slot, deeper hops go first so the next ancilla down
            # is already vacant
            add(e.slot_start, _P_IN,
                _route_level(cfg, e.level, e.slot_start, rail=e.rail if std else None),
                sub=-e.level)

    ev.sort(key=lambda e: e[:3])
    inward = [g for *_x, g in ev]
    gates = (inward + _read_block(cfg, data, M // 2)
             + [_mirror(g, M) for g in reversed(inward)])

    # decode the bus back to the computational basis
    if data.mode is DataMode.CLASSICAL:
        if std:
            gates.append(GateRecord("dualrail_h", (_reg(n, 0), _reg(n, 1)), M))
        else:
            gates.append(GateRecord("h_ge", (_reg(n),), M))
            if cfg.encoding is Encoding.HYBRID_DUAL_RAIL:
                gates.append(GateRecord("z_ge", (_reg(n),), M))
    return gates


def initial_state(cfg: QramConfig, address, data: DataRegister) -> SparseState:
    """Address amplitudes + bus prep + quantum data register loading; a
    classical register puts nothing in the state."""
    data.validate(cfg.N)
    amps = np.asarray(address, dtype=complex)
    if amps.shape != (cfg.N,):
        raise InvalidParameterError(
            f"address state needs {cfg.N} amplitudes, got shape {amps.shape}"
        )
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise InvalidParameterError("address state not normalized")
    n, std = cfg.n, cfg.encoding.is_standard
    quantum = data.mode is DataMode.QUANTUM

    branches: list[tuple[list, complex]] = []
    for j in range(cfg.N):
        if amps[j] == 0:
            continue
        items = []
        for k in range(n):
            b = _bit(j, k, n)
            if std:
                items.append((_reg(k, b), 1))
            elif b:
                items.append((_reg(k), 1))
        branches.append((items, amps[j]))

    # bus: |+> probe for classical reads, |1> for quantum reads
    out: list[tuple[list, complex]] = []
    for items, a in branches:
        if quantum:
            bus = [_reg(n, 1)] if std else [_reg(n)]
            out.append((items + [(s, 1) for s in bus], a))
        elif std:
            out.append((items + [(_reg(n, 0), 1)], a / math.sqrt(2)))
            out.append((items + [(_reg(n, 1), 1)], a / math.sqrt(2)))
        else:
            out.append((items, a / math.sqrt(2)))
            out.append((items + [(_reg(n), 1)], a / math.sqrt(2)))

    # a quantum register expands every branch over its cells, one at a time;
    # a classical register has no qubits and adds nothing
    for j, (aj, bj) in enumerate(data.qubits):
        nxt = []
        for it, amp in out:
            if abs(aj) > 0:
                nxt.append((it + [(_data(j, 0), 1)] if std else it, amp * aj))
            if abs(bj) > 0:
                nxt.append((it + [(_data(j, 1 if std else None), 1)], amp * bj))
        out = nxt
    return SparseState({frozenset(items): a for items, a in out})


_TREE_SLOTS = ("ctrl", "anc", "dwg")


@dataclass
class QueryResult:
    config: QramConfig
    state: SparseState
    trace: list
    address_bus: dict = field(default_factory=dict)  # (j, bus_level) -> amp
    tree_ground: bool = True
    max_support: int = 0

    def bus_bit(self) -> int:
        """Readout for a basis-address classical query."""
        best = max(self.address_bus.items(), key=lambda kv: abs(kv[1]))
        return best[0][1]


def _decode_final(cfg: QramConfig, data: DataRegister, state: SparseState) -> QueryResult:
    n, std = cfg.n, cfg.encoding.is_standard
    quantum = data.mode is DataMode.QUANTUM
    # classical mode: exact complex amplitudes per (address, bus) outcome.
    # quantum mode: leftover data-register branches are orthogonal configs,
    # so only incoherent weights are meaningful here; phase-sensitive checks
    # go through the full sparse state.
    address_bus: dict = {}
    tree_ground = True
    for conf, amp in state.amps.items():
        bits = {}
        bus_level = 0
        for slot, level in conf:
            kind = slot[0]
            if kind in _TREE_SLOTS:
                tree_ground = False
                continue
            if kind == "reg":
                k = slot[1]
                if k == n:
                    if std:
                        bus_level = slot[2] if level == 1 else bus_level
                    else:
                        bus_level = level
                else:
                    if std:
                        bits[k] = slot[2]
                    else:
                        bits[k] = 1 if level >= 1 else 0
            # data/dctrl leftovers are part of the data register, ignored here
        j = 0
        for k in range(n):
            j = (j << 1) | bits.get(k, 0)
        key = (j, bus_level)
        if quantum:
            address_bus[key] = address_bus.get(key, 0.0) + abs(amp) ** 2
        else:
            address_bus[key] = address_bus.get(key, 0.0 + 0.0j) + amp
    if quantum:
        address_bus = {k: math.sqrt(p) for k, p in address_bus.items()}
    return QueryResult(cfg, state, [], address_bus, tree_ground, state.max_support)


def query(cfg: QramConfig, address, data: DataRegister) -> QueryResult:
    """Run the full pipeline; noiseless, so the outcome is exact."""
    gates = build_query_gates(cfg, data)
    state = initial_state(cfg, address, data)
    state.apply_all(gates)
    res = _decode_final(cfg, data, state)
    res.trace = gates
    return res


# ---------------------------------------------------------------------------
# trace export

def trace_to_json(gates):
    """JSON-ready list of gate records."""
    return [
        {
            "time_t": g.time,
            "gate": g.name,
            "slots": [list(s) for s in g.slots],
            "params": list(g.params),
        }
        for g in gates
    ]
