"""Gate-level simulation of a full bucket-brigade query.

The memory is a depth-n binary tree of router nodes.  Each node has a
control transmon (holds an address bit) and an ancilla (a parking slot for
an excitation in flight); level-n "ancillas" are the leaf waveguide
positions where the read happens.  A query releases the address qubits one
per routing step, pipelined so that excitation k (0-based, bus = n) is
routed k levels down and parks as the level-k control.  After the read the
query is uncomputed: the way out is the inward half's gates inverted and
played in reverse order.  A classical cell never enters the state: a 1-bit
is a `z_ge` on the leaf that holds the |+> bus, and the readout measures
the bus in the X basis to give the bit; a quantum cell is a data slot,
routed into the tree when queried.
Routing here is ideal: distortion and decoherence are composed on top
analytically or by Monte Carlo elsewhere.

The protocol is written once as level ops, each the node-parallel gates
of one (time, gate name, level, rail); all but the read are built once
per (config, data mode) and kept in a bounded cache.  A level op names
its slots as path fields (kind, level, rail), plus a child bit for a slot
one level down, and `_slot` gives a field's absolute slot at a node.
`trace_to_json` exports the level ops as they run.  `build_query_gates`
is their node-by-node expansion into `GateRecord`s, for replay against
the reference engines in `tests/`; neither a query nor the CLI builds it.
`final_state` runs the level ops in path coordinates.  In address branch
j every excitation stays on j's root-to-leaf path, so the state of a
query, or of a scan (basis address j as batch j), is one `state.Table`
that owns its field layout (`_fields`: the registers, the control and
ancilla of j's node at each level and rail, and, for quantum data, cell
j's data slots) and holds a branch per row: its batch, j, one level per
field and an amplitude.  A level op is one `state.apply_gate`
call, a few column operations on every row at once; a row finds its node
from j's prefix, and a hop into the child off j's path raises
`NumericalFailureError`.  Every op maps a row to one row in place, so
`final_state` checks the rows once, at the end, in `initial_state`'s
order, and an op that maps two rows onto one fails.  The cells a branch does not query are never
touched, so they stay a product background of their (a, b) that no row
holds.  `query` decodes every batch's readout at once from the columns of
the final rows, where the background sums out: `address_bus`, a
classical bus read in the X basis and listed in ascending (j, bus),
`tree_ground`, and `max_support`, which counts path branches, at most 2N.

Level op times, and so gate record times, are in units of the routing
step t.  Emissions and control settings sit on `scheduling.start_slot`, and the hop
of excitation k out of level l on start_slot + l, where
`scheduling.build_schedule` puts its "in" entries.  Mirroring maps an
instant at tau to M - tau and a hop over [tau, tau + 1) to M - tau - 1,
for makespan M, which lands every out-hop on its "out" entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import state
from .errors import InvalidParameterError
from .qram_types import DataMode, Encoding
from .scheduling import check_nt, makespan_slots, start_slot
from .state import GateRecord

__all__ = [
    "QramConfig",
    "DataRegister",
    "QueryResult",
    "query",
    "final_state",
    "build_query_gates",
    "initial_state",
    "trace_to_json",
]

@dataclass(frozen=True)
class QramConfig:
    """n address qubits, N = 2**n memory cells."""

    n: int
    t: float = 350.0  # routing step duration, ns
    encoding: Encoding = Encoding.SINGLE_RAIL

    def __post_init__(self):
        check_nt(self.n, self.t)

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
            try:
                nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            except OverflowError:  # a finite but huge amplitude
                nrm = math.inf
            if not abs(nrm - 1.0) <= 1e-9:  # NaN fails too
                raise InvalidParameterError("data qubit state not normalized")
            out.append((complex(a) / nrm, complex(b) / nrm))  # see initial_state
        return cls(DataMode.QUANTUM, qubits=tuple(out))

    def validate(self, N: int) -> None:
        """The cell count; `classical`/`quantum` checked the cells."""
        classical = self.mode is DataMode.CLASSICAL
        cells = len(self.bits if classical else self.qubits)
        if cells != N:
            kind = "bits" if classical else "qubit states"
            raise InvalidParameterError(f"data register needs {N} {kind}, got {cells}")


# ---------------------------------------------------------------------------
# the protocol as level ops

class _LevelOp(NamedTuple):
    """Gate `name` at `time` on every node in `nodes`, the node indices at
    tree level `level`, or on every node of the level for None, one gate
    per node and template, templates innermost.

    A template is a tuple of path fields (kind, level, rail): a
    register ("reg", k, rail), a tree slot ("ctrl" | "anc", level, rail) of
    the node itself, or a data-cell slot (kind, None, rail) of the leaf
    node's cell.  A slot of the node's child c one level down adds c as a
    fourth entry: ("anc", level + 1, rail, c)."""

    time: float
    name: str
    level: int
    params: tuple
    nodes: Sequence[int] | None
    templates: tuple


_CELL = ("data", "dctrl", "dwg")


def _op(time, name, level, *templates, params=(), nodes=None) -> _LevelOp:
    return _LevelOp(time, name, level, params, nodes, templates)


def _slot(field, node: int) -> tuple:
    """Absolute slot name of `field` at tree node `node` of its level (the
    cell index for a data-cell field); a child field names child c of
    `node`, one level down."""
    kind, level, rail, *child = field
    if child:
        node = 2 * node + child[0]
    slot = ((kind, level) if kind == "reg" else (kind, node) if level is None
            else (kind, level, node))
    return slot if rail is None else slot + (rail,)


def _route_level(cfg: QramConfig, lvl: int, time: float, rail=None) -> _LevelOp:
    """One conditional hop from level lvl to lvl+1, over every node."""
    hop = (("anc", lvl, rail), ("anc", lvl + 1, rail, 0), ("anc", lvl + 1, rail, 1))
    if cfg.encoding.is_standard:
        return _op(time, "route2", lvl, (("ctrl", lvl, 0), ("ctrl", lvl, 1)) + hop)
    invert = cfg.encoding is Encoding.HYBRID_DUAL_RAIL
    return _op(time, "route", lvl, (("ctrl", lvl, None),) + hop, params=(invert,))


def _set_level(k: int, time: float, rail=None) -> _LevelOp:
    return _op(time, "swap_ge", k, (("anc", k, rail), ("ctrl", k, rail)))


def _emit_block(cfg: QramConfig, k: int, time: float, rail=None, quantum_bus=False):
    """Transfer of register k into the root ancilla."""
    reg, root = ("reg", k, rail), ("anc", 0, rail)
    hybrid = cfg.encoding is Encoding.HYBRID_DUAL_RAIL
    # the hybrid bus in quantum mode is emitted plainly: the entangling
    # release would keep the |e> component in the register instead of
    # sending an excitation down the tree
    if not hybrid or (k == cfg.n and quantum_bus):
        return [_op(time, "swap_ge", 0, (reg, root))]
    # entangling release: (a|g>+b|e>)|g>_root -> a|g>|e>_root + b|e>|g>_root
    return [_op(time, "ladder_ef", 0, (reg,)), _op(time, "ladder_ge", 0, (reg,)),
            _op(time, "swap_ge", 0, (reg, root)), _op(time, "ladder_ef", 0, (reg,))]


def _read_block(cfg: QramConfig, data: DataRegister, time: float):
    n, std = cfg.n, cfg.encoding.is_standard
    if data.mode is DataMode.CLASSICAL:
        # a classical cell never enters the state: a 1-bit is a phase on the
        # leaf that holds the bus (rail 1 for standard dual-rail)
        ones = tuple(j for j in range(cfg.N) if data.bits[j])
        return [_op(time, "z_ge", n, (("anc", n, 1 if std else None),), nodes=ones)]
    # quantum read: park the bus excitation as a data-side control, emit
    # every data qubit, route the queried one into the tree and the rest
    # back into place
    rails = (0, 1) if std else (None,)
    marker = 1 if std else None
    return [
        _op(time, "swap_ge", n, *[(("anc", n, r), ("dctrl", None, r)) for r in rails]),
        _op(time, "swap_ge", n, *[(("data", None, r), ("dwg", None, r)) for r in rails]),
        _op(time, "qroute", n, *[(("dctrl", None, marker), ("dwg", None, r),
                                  ("anc", n, r), ("data", None, r)) for r in rails]),
    ]


# inverse of each inward gate; the ladders and swap_ge are involutions
_INVERSE = {
    "swap_ge": "swap_ge",
    "ladder_ge": "ladder_ge",
    "ladder_ef": "ladder_ef",
    "route": "uproute",
    "route2": "uproute2",
}


def _mirror(op: _LevelOp, M: int) -> _LevelOp:
    """Inverse of inward op `op` at its time-reversed slot in a makespan-M
    query, its templates in reverse order; its gates on distinct nodes
    commute.  An instant at tau maps to M - tau; a hop over [tau, tau + 1)
    maps to M - tau - 1, with its source slot moved last."""
    name = _INVERSE[op.name]
    templates = op.templates[::-1]
    if name == op.name:
        return op._replace(time=M - op.time, templates=templates)
    return op._replace(time=M - op.time - 1, name=name,
                       templates=tuple(t[:-3] + t[-2:] + t[-3:-2] for t in templates))


# ---------------------------------------------------------------------------
# full protocol

@functools.lru_cache(maxsize=64)
def _around_read(cfg: QramConfig, mode: DataMode) -> tuple[tuple, tuple]:
    """The level ops of a query before and after its read, which no cell value
    changes: the inward half, then its mirrored inverse.

    Each excitation's emission, in-hops and control setting are appended
    in (k, rail) order and sorted by time alone; the sort is stable, so
    within a slot a deeper excitation moves first and a control is set
    before the next excitation reaches its ancilla."""
    n, M = cfg.n, cfg.makespan_slots
    std = cfg.encoding.is_standard
    inward: list[_LevelOp] = []
    for k in range(n + 1):
        for r in (0, 1) if std else (None,):
            s = start_slot(k, r or 0, cfg.encoding)
            inward += _emit_block(cfg, k, s, rail=r, quantum_bus=mode is DataMode.QUANTUM)
            # excitation k hops from level lvl over [s + lvl, s + lvl + 1)
            inward += [_route_level(cfg, lvl, s + lvl, rail=r) for lvl in range(k)]
            if k < n:
                inward.append(_set_level(k, s + k, rail=r))
    inward.sort(key=lambda op: op.time)
    return tuple(inward), tuple(_mirror(op, M) for op in reversed(inward))


def _protocol(cfg: QramConfig, data: DataRegister) -> list[_LevelOp]:
    """Chronological level ops of a complete query: `_around_read`'s, with
    the read between, for a register its caller has validated."""
    inward, outward = _around_read(cfg, data.mode)
    return [*inward, *_read_block(cfg, data, cfg.makespan_slots // 2), *outward]


def build_query_gates(cfg: QramConfig, data: DataRegister) -> list[GateRecord]:
    """Chronological gate list for a query up to the bus readout: the
    inward half, the read, the mirrored inverse of the inward half.  It is
    the node-by-node expansion of the level ops `final_state` runs."""
    data.validate(cfg.N)
    return [GateRecord(op.name, tuple(_slot(f, node) for f in t), op.time, op.params)
            for op in _protocol(cfg, data)
            for node in (range(2 ** op.level) if op.nodes is None else op.nodes) for t in op.templates]


# ---------------------------------------------------------------------------
# path coordinates

def _fields(cfg: QramConfig, quantum: bool) -> list:
    """The fields of a query's rows, each named (kind, level, rail) as
    level ops name them: every register, the control and ancilla of j's
    node at each level (per rail), and for quantum data cell j's slots.
    The other cells of a quantum register are never touched by the query,
    so they are a product background of their (a, b) that no row holds."""
    n = cfg.n
    rails = (0, 1) if cfg.encoding.is_standard else (None,)
    return [
        (kind, lvl, r)
        for kind, lvls in (("reg", n + 1), ("ctrl", n), ("anc", n + 1))
        for lvl in range(lvls) for r in rails
    ] + [(kind, None, r) for kind in (_CELL if quantum else ()) for r in rails]


def _logical(std: bool, kind: str, level, b: int) -> tuple:
    """Fields in |e> that hold logical bit b of a register or cell: rail b
    for standard dual-rail (`std`), else the one field for b = 1."""
    return ((kind, level, b),) if std else ((kind, level, None),) * b


def initial_state(cfg: QramConfig, address, data: DataRegister) -> state.Table:
    """Address amplitudes + bus prep + the queried cell of a quantum data
    register, per address branch: of an (N,) address, as batch 0, or for
    address None, a scan, of every basis address j at amplitude 1, as
    batch j.  A classical register puts nothing in it."""
    data.validate(cfg.N)
    if address is None:
        amps = np.ones(cfg.N, complex)
    else:
        amps = np.asarray(address, dtype=complex)
        if amps.shape != (cfg.N,):
            raise InvalidParameterError(
                f"address state needs {cfg.N} amplitudes, got shape {amps.shape}")
        with np.errstate(over="ignore"):  # finite amplitudes can square past a float
            nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-9:  # NaN and an overflow to inf fail too
            raise InvalidParameterError("address state not normalized")
        amps = amps / nrm  # normalised on entry: the engine holds norms to 1e-10
    n, std, quantum = cfg.n, cfg.encoding.is_standard, data.mode is DataMode.QUANTUM
    # two rows per address branch: the |+> bus of a classical read, or the
    # queried cell of a quantum one under bus |1>; b is the bus or cell bit
    j = np.repeat(np.flatnonzero(amps), 2)
    batch = j if address is None else np.zeros_like(j)  # a scan runs address j as batch j
    b, amp = np.arange(len(j)) & 1, amps[j]
    if quantum:
        cells = np.array(data.qubits, dtype=complex)[j[::2]].ravel()
        amp, varied = amp * cells, ("data", None)
    else:
        amp, varied = amp / math.sqrt(2), ("reg", n)
    keep = np.abs(amp) > 1e-14
    batch, j, b, amp = batch[keep], j[keep], b[keep], amp[keep]
    fields = _fields(cfg, quantum)
    table = state.Table(n, fields, batch, j, np.zeros((len(fields), len(j)), np.uint8), amp)
    levels, col = table.levels, table.col
    for v in (0, 1):
        for k in range(n):
            for f in _logical(std, "reg", k, v):
                levels[col[f]] = table.bits[k] == v
        for f in _logical(std, *varied, v):
            levels[col[f]] = b == v
    if quantum:
        levels[[col[f] for f in _logical(std, "reg", n, 1)]] = 1
    return table


@dataclass
class QueryResult:
    address_bus: dict  # (j, bus_level) -> amp, keys ascending (see `_decode`)
    tree_ground: bool
    max_support: int

    def bus_bit(self) -> int:
        """Readout for a basis-address classical query."""
        best = max(self.address_bus.items(), key=lambda kv: abs(kv[1]))
        return best[0][1]


def _decode(t: state.Table, encoding: Encoding, quantum: bool) -> list[QueryResult]:
    """The `QueryResult` of each batch of a final state, read from the
    columns of all its rows at once; in any row order, one sort of the
    entry keys lists every `address_bus` in ascending (j, bus).

    j comes from the address registers, not the rows' j, so a failed
    unwind shows; a standard dual-rail bit or bus is rail 1 in |e>.  Any
    control, ancilla or data waveguide left excited clears `tree_ground`.
    Classical mode reads a logical bus x in the X basis, amp/sqrt2 at
    (j, 0) and (-1)^x amp/sqrt2 at (j, 1), negated for hybrid, and a bus
    outside the logical subspace (|f>, a rail pair not one-hot) as it is;
    it sums complex amplitudes per (j, bus), leaving out a sum <= 1e-14.
    Quantum mode leaves orthogonal data-register branches, so only the
    weights sqrt(sum |amp|^2) count and the unit-norm background sums
    out; phase-sensitive checks use the reference decoders in `tests/`."""
    n, std = t.n, encoding.is_standard
    regs = t.levels[[t.col[_logical(std, "reg", k, 1)[0]] for k in range(n + 1)]]
    if std:
        regs = (regs == 1).view(np.uint8)
    j = np.zeros(len(t), np.int64)
    for lvl in regs[:-1]:
        j = j << 1 | (lvl > 0)
    bus, key = regs[-1], (t.batch << n | j) << 2
    if quantum:  # Python's abs, whose last bit numpy's can differ in
        amp, key = np.array([abs(a) ** 2 for a in t.amp.tolist()]), key | bus
    else:  # each row's (j, 0) entry, then its (j, 1) one, 0 for a bus that is not logical
        logical = (t.levels[t.col[("reg", n, 0)]] == 1) != (bus == 1) if std else bus < 2
        h = 1 / math.sqrt(2.0)
        h1 = -h if encoding is Encoding.HYBRID_DUAL_RAIL else h  # hybrid negates (j, 1)
        amp = np.concatenate([np.where(logical, t.amp * h, t.amp),
                              t.amp * np.where(bus == 1, -h1, h1) * logical])
        key = np.concatenate([key | bus * ~logical, key | np.where(logical, 1, bus)])
    # each key's sum (+ 0 turns a -0.0 part into 0.0), in ascending (batch, j, bus)
    order = np.argsort(key, kind="stable")
    new = np.ones(len(key), bool)  # where a run of equal sorted keys starts
    new[1:] = key[order[1:]] != key[order[:-1]]
    starts = np.flatnonzero(new)
    total = np.add.reduceat(amp[order], starts) + 0
    if quantum:
        total = np.sqrt(total)
    live = np.abs(total) > 1e-14
    key, total = key[order[starts[live]]], total[live]
    buses: list = [{} for _ in t.max_support]
    for k, a in zip(key.tolist(), total.tolist()):
        buses[k >> n + 2][k >> 2 & (1 << n) - 1, k & 3] = a
    tree = [i for i, f in enumerate(t.fields) if f[0] in ("ctrl", "anc", "dwg")]
    excited = np.bincount(t.batch[t.levels[tree].any(axis=0)], minlength=len(buses))
    return [QueryResult(*r) for r in
            zip(buses, (excited == 0).tolist(), t.max_support.tolist())]


def final_state(cfg: QramConfig, address, data: DataRegister) -> state.Table:
    """The engine pass of a query up to the bus readout: `initial_state`,
    every level op in place, and one `state.Table.check`.

    Batch 0 of the returned table holds the final rows of an address,
    batch j those of basis address j in a scan (address None), in
    `initial_state`'s order.  Raises `NumericalFailureError` when a branch
    leaves its path, two rows end equal, or a batch's norm leaves 1 by
    over 1e-10 at the end."""
    table = initial_state(cfg, address, data)
    for op in _protocol(cfg, data):
        table = state.apply_gate(table, op)
    table.check()
    return table


def query(cfg: QramConfig, address, data: DataRegister) -> QueryResult | list[QueryResult]:
    """The readout of `final_state`; noiseless, so the outcome is exact.

    An (N,) address returns its `QueryResult`; address None, a scan, the N
    results of the basis addresses j = 0..N-1 from one pass."""
    results = _decode(final_state(cfg, address, data), cfg.encoding,
                      data.mode is DataMode.QUANTUM)
    return results if address is None else results[0]


# ---------------------------------------------------------------------------
# trace export

def trace_to_json(cfg: QramConfig, data: DataRegister) -> list[dict]:
    """JSON-ready level ops of a query up to the bus readout, in the order
    `final_state` runs them: each op's time, gate, level, params, nodes (null for every node
    of the level) and templates, a template being a list of path fields
    (null for no rail) whose slot at a node `_slot` names."""
    data.validate(cfg.N)
    return [{"time_t": op.time, "gate": op.name, "level": op.level, "params": list(op.params),
             "nodes": None if op.nodes is None else list(op.nodes),
             "templates": [[list(f) for f in t] for t in op.templates]}
            for op in _protocol(cfg, data)]
