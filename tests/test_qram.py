import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copy_engine import copy_run
from dense_oracle import dense_amplitudes
from phonon_qram.errors import (
    InvalidParameterError,
    NumericalFailureError,
    ProtocolOrderError,
)
from phonon_qram.qram import (
    DataRegister,
    QramConfig,
    build_query_gates,
    hybrid_release,
    initial_state,
    query,
    read_classical,
    read_quantum,
    route_address,
    set_address,
    trace_to_json,
)
from phonon_qram.qram_types import DataMode, Encoding
from phonon_qram.state import GateRecord, SparseState

ALL_ENCODINGS = list(Encoding)
RNG = np.random.default_rng(7)


def basis_address(n, j):
    v = np.zeros(2 ** n, dtype=complex)
    v[j] = 1.0
    return v


# ---------------------------------------------------------------------------
# classical queries on basis addresses

@pytest.mark.parametrize("enc", ALL_ENCODINGS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_address_reads_its_cell(enc, n):
    N = 2 ** n
    data = DataRegister.classical(RNG.integers(0, 2, size=N))
    cfg = QramConfig(n=n, encoding=enc)
    for j in range(N):
        res = query(cfg, basis_address(n, j), data)
        assert res.bus_bit() == data.bits[j], (enc, n, j)
        assert res.tree_ground
        assert res.state.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_all_zero_data_is_identity_on_address(enc):
    n = 2
    cfg = QramConfig(n=n, encoding=enc)
    data = DataRegister.classical([0, 0, 0, 0])
    amps = np.asarray([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    res = query(cfg, amps, data)
    assert res.tree_ground
    for j in range(4):
        assert res.address_bus.get((j, 0), 0.0) == pytest.approx(
            amps[j], abs=1e-10
        )
        assert abs(res.address_bus.get((j, 1), 0.0)) < 1e-10


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_superposition_query_weights(enc):
    # the bus outcome is perfectly correlated with the addressed cell and
    # the address amplitudes survive with unit magnitude
    n = 2
    cfg = QramConfig(n=n, encoding=enc)
    data = DataRegister.classical([1, 0, 0, 1])
    amps = np.asarray([0.6, 0.0, 0.8j, 0.0], dtype=complex)
    res = query(cfg, amps, data)
    for j, a in enumerate(amps):
        got = res.address_bus.get((j, data.bits[j]), 0.0)
        assert abs(got) == pytest.approx(abs(a), abs=1e-10)
        wrong = res.address_bus.get((j, 1 - data.bits[j]), 0.0)
        assert abs(wrong) < 1e-10


def test_support_size_stays_bounded():
    n = 3
    cfg = QramConfig(n=n, encoding=Encoding.SINGLE_RAIL)
    data = DataRegister.classical(RNG.integers(0, 2, size=8))
    amps = np.full(8, 1 / math.sqrt(8), dtype=complex)
    res = query(cfg, amps, data)
    # the |+> bus doubles the address branch count at the peak
    assert res.max_support <= 2 * cfg.N


# ---------------------------------------------------------------------------
# quantum data registers

@pytest.mark.parametrize(
    "enc", [Encoding.SINGLE_RAIL, Encoding.HYBRID_DUAL_RAIL]
)
def test_quantum_read_returns_data_qubit_weights(enc):
    n = 1
    th0, th1 = 0.3, 1.1
    data = DataRegister.quantum(
        [(math.cos(th0), math.sin(th0)), (math.cos(th1), 1j * math.sin(th1))]
    )
    cfg = QramConfig(n=n, encoding=enc)
    for j, th in enumerate((th0, th1)):
        res = query(cfg, basis_address(n, j), data)
        assert res.state.norm() == pytest.approx(1.0, abs=1e-10)
        assert res.address_bus.get((j, 0), 0.0) == pytest.approx(
            abs(math.cos(th)), abs=1e-10
        )
        assert res.address_bus.get((j, 1), 0.0) == pytest.approx(
            abs(math.sin(th)), abs=1e-10
        )


def test_quantum_read_superposed_address_weights():
    n = 2
    cfg = QramConfig(n=n, encoding=Encoding.SINGLE_RAIL)
    qubits = [(1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)), (1.0, 0.0)]
    data = DataRegister.quantum(qubits)
    amps = np.asarray([0.6, 0.0, 0.8, 0.0], dtype=complex)
    res = query(cfg, amps, data)
    for j, (a0, a1) in enumerate(qubits):
        w0 = res.address_bus.get((j, 0), 0.0)
        w1 = res.address_bus.get((j, 1), 0.0)
        assert w0 == pytest.approx(abs(amps[j] * a0), abs=1e-10)
        assert w1 == pytest.approx(abs(amps[j] * a1), abs=1e-10)


# ---------------------------------------------------------------------------
# dense state-vector oracle replay

DENSE_CASES = [
    # (encoding, n, quantum): full dense space must stay under 2**20
    (Encoding.SINGLE_RAIL, 1, False),
    (Encoding.SINGLE_RAIL, 2, False),
    (Encoding.HYBRID_DUAL_RAIL, 1, False),
    (Encoding.HYBRID_DUAL_RAIL, 2, False),
    (Encoding.STANDARD_DUAL_RAIL_VACUUM, 1, False),
    (Encoding.STANDARD_DUAL_RAIL_LOGICAL, 1, False),
    (Encoding.SINGLE_RAIL, 1, True),
    (Encoding.HYBRID_DUAL_RAIL, 1, True),
]


@pytest.mark.parametrize("enc,n,quantum", DENSE_CASES)
def test_dense_oracle_replay(enc, n, quantum):
    N = 2 ** n
    if quantum:
        rng = np.random.default_rng(11)
        qs = []
        for _ in range(N):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            qs.append(tuple(v))
        data = DataRegister.quantum(qs)
    else:
        data = DataRegister.classical([(j * 3 + 1) % 2 for j in range(N)])
    cfg = QramConfig(n=n, encoding=enc)
    amps = np.asarray(
        [complex(i + 1, (-1) ** i) for i in range(N)], dtype=complex
    )
    amps /= np.linalg.norm(amps)
    init = initial_state(cfg, amps, data)
    gates = build_query_gates(cfg, data)

    sparse = init.copy()
    sparse.apply_all(gates)
    dense = dense_amplitudes(dict(init.amps), gates)

    keys = set(sparse.amps) | set(dense)
    err = max(
        abs(sparse.amps.get(k, 0.0) - dense.get(k, 0.0)) for k in keys
    )
    assert err < 1e-12


# ---------------------------------------------------------------------------
# individual protocol operations

def test_hybrid_release_entangles_with_root():
    cfg = QramConfig(n=1, encoding=Encoding.HYBRID_DUAL_RAIL)
    a, b = 0.6, 0.8
    state = SparseState({
        frozenset(): a,
        frozenset({(("reg", 0), 1)}): b,
    })
    out = hybrid_release(state, cfg, 0)
    # a|g>|e>_root + b|e>|g>_root
    assert out.amplitude(frozenset({(("anc", 0, 0), 1)})) == pytest.approx(a)
    assert out.amplitude(frozenset({(("reg", 0), 1)})) == pytest.approx(b)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_hybrid_release_requires_ground_root():
    cfg = QramConfig(n=1, encoding=Encoding.HYBRID_DUAL_RAIL)
    state = SparseState({frozenset({(("anc", 0, 0), 1)}): 1.0})
    with pytest.raises(ProtocolOrderError):
        hybrid_release(state, cfg, 0)


def test_hybrid_release_wrong_encoding():
    cfg = QramConfig(n=1, encoding=Encoding.SINGLE_RAIL)
    with pytest.raises(InvalidParameterError):
        hybrid_release(SparseState({frozenset(): 1.0}), cfg, 0)


def test_route_follows_control_polarity():
    # single-rail: control |g> routes left, |e> routes right
    cfg = QramConfig(n=2, encoding=Encoding.SINGLE_RAIL)
    for bit, child in ((0, 0), (1, 1)):
        items = {(("anc", 0, 0), 1)}
        if bit:
            items.add((("ctrl", 0, 0), 1))
        state = SparseState({frozenset(items): 1.0})
        out = route_address(state, cfg, 0)
        expect = {(("anc", 1, child), 1)}
        if bit:
            expect.add((("ctrl", 0, 0), 1))
        assert out.amplitude(frozenset(expect)) == pytest.approx(1.0)


def test_hybrid_route_polarity_is_inverted():
    # hybrid: the |e> component of the released pair goes left
    cfg = QramConfig(n=2, encoding=Encoding.HYBRID_DUAL_RAIL)
    state = SparseState({
        frozenset({(("anc", 0, 0), 1), (("ctrl", 0, 0), 1)}): 1.0
    })
    out = route_address(state, cfg, 0)
    assert out.amplitude(
        frozenset({(("anc", 1, 0), 1), (("ctrl", 0, 0), 1)})
    ) == pytest.approx(1.0)


def test_route_past_leaf_raises():
    cfg = QramConfig(n=2, encoding=Encoding.SINGLE_RAIL)
    state = SparseState({frozenset(): 1.0})
    with pytest.raises(ProtocolOrderError):
        route_address(state, cfg, 2)
    with pytest.raises(ProtocolOrderError):
        set_address(state, cfg, 2)


def test_read_mode_mismatch():
    cfg = QramConfig(n=1, encoding=Encoding.SINGLE_RAIL)
    state = SparseState({frozenset(): 1.0})
    cdata = DataRegister.classical([0, 1])
    qdata = DataRegister.quantum([(1, 0), (0, 1)])
    with pytest.raises(InvalidParameterError):
        read_classical(state, cfg, qdata)
    with pytest.raises(InvalidParameterError):
        read_quantum(state, cfg, cdata)


# ---------------------------------------------------------------------------
# validation and bookkeeping

def test_config_and_register_validation():
    with pytest.raises(InvalidParameterError):
        QramConfig(n=0)
    with pytest.raises(InvalidParameterError):
        QramConfig(n=2, t=-1.0)
    with pytest.raises(InvalidParameterError):
        DataRegister.classical([0, 2]).validate(2)
    with pytest.raises(InvalidParameterError):
        DataRegister.classical([0, 1, 1]).validate(2)
    with pytest.raises(InvalidParameterError):
        DataRegister.quantum([(1.0, 1.0)])
    with pytest.raises(InvalidParameterError):
        query(QramConfig(n=1), [1.0, 1.0], DataRegister.classical([0, 1]))


def test_norm_guard_trips_on_non_unitary_record():
    state = SparseState({frozenset(): 1.0})
    # h_ge twice from vacuum interferes back; a single one is fine, but a
    # manual amplitude duplication is caught by the norm guard
    state.amps[frozenset({(("reg", 0), 1)})] = 1.0
    with pytest.raises(NumericalFailureError):
        state.apply(GateRecord("h_ge", (("reg", 0),), 0.0))


def _unit(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _assert_matches_copy_engine(cfg, address, data):
    ref, ref_support = copy_run(initial_state(cfg, address, data).amps,
                                build_query_gates(cfg, data))
    res = query(cfg, address, data)
    assert set(res.state.amps) == set(ref)
    assert max(abs(res.state.amps[k] - a) for k, a in ref.items()) <= 1e-14
    assert res.max_support == ref_support


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_superposed_classical_query_matches_copy_engine(n, enc):
    # past the dense oracle's n <= 2: every amplitude and the support count
    # against a per-gate copy of the whole map
    rng = np.random.default_rng(100 + n)
    bits = [int(b) for b in rng.integers(0, 2, 2 ** n)]
    _assert_matches_copy_engine(QramConfig(n=n, encoding=enc), _unit(rng, 2 ** n),
                                DataRegister.classical(bits))


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_superposed_quantum_query_matches_copy_engine(enc):
    rng = np.random.default_rng(11)
    cells = [tuple(_unit(rng, 2)) for _ in range(4)]
    _assert_matches_copy_engine(QramConfig(n=2, encoding=enc), _unit(rng, 4),
                                DataRegister.quantum(cells))


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=255))
@settings(max_examples=60, deadline=None)
def test_random_basis_queries_single_rail(j, dbits):
    n = 3
    data = DataRegister.classical([(dbits >> i) & 1 for i in range(8)])
    res = query(QramConfig(n=n), basis_address(n, j), data)
    assert res.bus_bit() == data.bits[j]
    assert res.tree_ground


def test_gate_timestamps_match_schedule():
    # waveguide hops in the gate trace must land on the schedule's slots
    from phonon_qram.scheduling import build_schedule

    # (slot, level, rail, direction) of every hop, read off the ancilla it
    # leaves (route/route2) or returns to (uproute/uproute2)
    for enc in ALL_ENCODINGS:
        for n in range(1, 5):
            gates = build_query_gates(
                QramConfig(n=n, encoding=enc),
                DataRegister.classical([0] * 2 ** n))
            hops = set()
            for g in gates:
                if g.name in ("route", "route2"):
                    anc, direction = g.slots[-3], "in"
                elif g.name in ("uproute", "uproute2"):
                    anc, direction = g.slots[-1], "out"
                else:
                    continue
                rail = anc[3] if len(anc) == 4 else 0
                hops.add((g.time, anc[1], rail, direction))
            sched = build_schedule(n, enc)
            assert hops == {(e.slot_start, e.level, e.rail, e.direction)
                            for e in sched.entries}


def test_trace_to_json_roundtrip():
    import json

    cfg = QramConfig(n=1)
    gates = build_query_gates(cfg, DataRegister.classical([0, 1]))
    payload = trace_to_json(gates)
    assert json.loads(json.dumps(payload)) == payload
    assert payload[0]["gate"]
    assert all({"time_t", "gate", "slots", "params"} <= set(p) for p in payload)
