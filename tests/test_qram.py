import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_amplitudes
from phonon_qram import qram
from phonon_qram.errors import InvalidParameterError, NumericalFailureError
from phonon_qram.qram import (
    DataRegister,
    QramConfig,
    build_query_gates,
    initial_state,
    query,
    trace_to_json,
)
from phonon_qram.qram_types import DataMode, Encoding
from phonon_qram.state import GateRecord
from reference_decode import decode_frozensets, export
from slot_engine import SlotState, reference_initial_state

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
        assert export(res.table).norm() == pytest.approx(1.0, abs=1e-10)


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


def test_inputs_within_the_norm_tolerance_are_normalised_on_entry():
    # validation accepts 1e-9 off unit norm and the engine holds 1e-10, so
    # an accepted address or data cell must be normalised before the query
    data = DataRegister.classical([0, 0, 0, 0])
    res = query(QramConfig(n=2), [1 + 5e-10, 0, 0, 0], data)
    assert res.address_bus.get((0, 0), 0.0) == pytest.approx(1.0, abs=1e-10)
    assert abs(res.address_bus[0, 0] - (1 + 5e-10)) > 1e-10
    cell = DataRegister.quantum([(0.6, 0.8000000004)]).qubits[0]
    assert abs(cell[0]) ** 2 + abs(cell[1]) ** 2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        query(QramConfig(n=2), [1 + 2e-9, 0, 0, 0], data)


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


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_classical_read_is_a_phase_on_the_leaf(enc):
    # a classical cell never enters the state: no key holds a data slot, and
    # the read is one z_ge per 1-bit on the leaf that holds the bus
    rng = np.random.default_rng(31)
    rail = (1,) if enc.is_standard else ()
    for n in range(1, 5):
        cfg = QramConfig(n=n, encoding=enc)
        bits = [int(b) for b in rng.integers(0, 2, 2 ** n)]
        data = DataRegister.classical(bits)
        gates = build_query_gates(cfg, data)
        assert all(g.name != "cz" for g in gates)
        assert [g for g in gates if g.name == "z_ge" and g.slots[0][0] == "anc"] == [
            GateRecord("z_ge", (("anc", n, j) + rail,), cfg.makespan_slots // 2)
            for j in range(2 ** n) if bits[j]
        ]
        address = _unit(rng, 2 ** n)
        keys = list(export(initial_state(cfg, address, data)).amps)
        keys += list(export(query(cfg, address, data).table).amps)
        assert all(slot[0] != "data" for key in keys for slot, _ in key)


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
        assert export(res.table, data.qubits).norm() == pytest.approx(1.0, abs=1e-10)
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
    init = export(initial_state(cfg, amps, data), data.qubits)
    gates = build_query_gates(cfg, data)

    reference = SlotState(init.amps)
    reference.apply_all(gates)
    dense = dense_amplitudes(dict(init.amps), gates)

    # the absolute-slot reference and the path engine, each against dense
    for sparse in (reference, export(query(cfg, amps, data).table, data.qubits)):
        keys = set(sparse.amps) | set(dense)
        err = max(
            abs(sparse.amps.get(k, 0.0) - dense.get(k, 0.0)) for k in keys
        )
        assert err < 1e-12


# ---------------------------------------------------------------------------
# validation and bookkeeping

def test_config_and_register_validation():
    with pytest.raises(InvalidParameterError):
        QramConfig(n=0)
    with pytest.raises(InvalidParameterError):
        QramConfig(n=2, t=-1.0)
    with pytest.raises(InvalidParameterError):
        QramConfig(n=3, t=math.inf)
    with pytest.raises(InvalidParameterError):
        DataRegister.classical([0, 2]).validate(2)
    with pytest.raises(InvalidParameterError):
        DataRegister.classical([0, 1, 1]).validate(2)
    with pytest.raises(InvalidParameterError):
        DataRegister.quantum([(1.0, 1.0)])
    with pytest.raises(InvalidParameterError):  # |a|**2 overflows
        DataRegister.quantum([(1e308, 1e308), (1, 0)])
    with pytest.raises(InvalidParameterError):
        query(QramConfig(n=1), [1.0, 1.0], DataRegister.classical([0, 1]))
    with pytest.raises(InvalidParameterError):  # N = 2 needs 2 amplitudes
        initial_state(QramConfig(n=1), [1.0, 0.0, 0.0], DataRegister.classical([0, 1]))


@pytest.mark.parametrize("address, match", [
    (1.0, r"got shape \(\)"),
    (np.full((1, 1, 2), 0.5 ** 0.5), r"got shape \(1, 1, 2\)"),
    (np.zeros((0, 2)), r"got shape \(0, 2\)"),
    ([[1.0, 0.0], [1.0, 1.0]], "address state 1 not normalized"),
])
def test_address_shape_and_batch_row_validation(address, match):
    # an address is (N,) or a non-empty (B, N) batch of unit-norm rows
    cfg, data = QramConfig(n=1), DataRegister.classical([0, 1])
    for fn in (initial_state, query):
        with pytest.raises(InvalidParameterError, match=match):
            fn(cfg, address, data)


def test_norm_guard_trips_on_non_unitary_record():
    state = SlotState({frozenset(): 1.0})
    # h_ge twice from vacuum interferes back; a single one is fine, but a
    # manual amplitude duplication is caught by the norm guard
    state.amps[frozenset({(("reg", 0), 1)})] = 1.0
    with pytest.raises(NumericalFailureError):
        state.apply(GateRecord("h_ge", (("reg", 0),), 0.0))


def _unit(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _assert_matches_slot_engine(cfg, address, data):
    """Every amplitude, the support count (the reference's for classical
    data; for quantum data the bus and the queried cell, two per address,
    where the reference holds every cell's 2^N branches), and address_bus
    and tree_ground decoded from the path keys, against the absolute-slot
    engine, which holds the whole tree and every data cell per branch.
    With classical data neither engine grows past its initial 2N rows, so
    the support counts agree even if one never updates its count;
    `test_state.test_max_support_tracking` is what checks the reference's."""
    n = cfg.n
    ref = SlotState(reference_initial_state(cfg, address, data))
    init = export(initial_state(cfg, address, data), data.qubits).amps
    assert set(init) == set(ref.amps)
    assert max(abs(init[k] - a) for k, a in ref.amps.items()) <= 1e-14
    ref.apply_all(build_query_gates(cfg, data))
    res = query(cfg, address, data)
    final = export(res.table, data.qubits)
    assert set(final.amps) == set(ref.amps), (n, data.mode)
    assert max(abs(final.amps[k] - a) for k, a in ref.amps.items()) <= 1e-14, (n, data.mode)
    quantum = data.mode is DataMode.QUANTUM
    assert res.max_support == (2 * 2 ** n if quantum else ref.max_support), (n, data.mode)
    want, ground = decode_frozensets(cfg, data, final)
    assert res.tree_ground and ground
    assert set(res.address_bus) == set(want), (n, data.mode)
    assert max(abs(res.address_bus[k] - a) for k, a in want.items()) <= 1e-15


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_query_matches_absolute_slot_engine(enc):
    # past the dense oracle's n <= 2: classical up to n = 6, quantum to n = 3
    rng = np.random.default_rng(43)
    cases = [(n, DataRegister.classical([int(b) for b in rng.integers(0, 2, 2 ** n)]))
             for n in range(1, 7)]
    cases += [(n, DataRegister.quantum([tuple(_unit(rng, 2)) for _ in range(2 ** n)]))
              for n in range(1, 4)]
    for n, data in cases:
        _assert_matches_slot_engine(QramConfig(n=n, encoding=enc), _unit(rng, 2 ** n), data)


# named for the retired copy-per-gate reference; same cases, slot engine
@pytest.mark.parametrize("enc", ALL_ENCODINGS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_superposed_classical_query_matches_copy_engine(n, enc):
    rng = np.random.default_rng(100 + n)
    bits = [int(b) for b in rng.integers(0, 2, 2 ** n)]
    _assert_matches_slot_engine(QramConfig(n=n, encoding=enc), _unit(rng, 2 ** n),
                                DataRegister.classical(bits))


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_superposed_quantum_query_matches_copy_engine(enc):
    rng = np.random.default_rng(11)
    cells = [tuple(_unit(rng, 2)) for _ in range(4)]
    _assert_matches_slot_engine(QramConfig(n=2, encoding=enc), _unit(rng, 4),
                                DataRegister.quantum(cells))


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_registers_that_share_a_config_each_get_their_own_read(enc):
    # the ops around the read are built once per (config, data mode): two
    # classical registers run in turn on one config, the first again after
    # the second, must each read their own 1-bits
    qram._around_read.cache_clear()
    cfg = QramConfig(n=3, encoding=enc)
    address = _unit(np.random.default_rng(67), 8)
    for bits in ([1, 0, 0, 1, 1, 0, 1, 0], [0, 1, 1, 0, 0, 0, 1, 1], [1, 0, 0, 1, 1, 0, 1, 0]):
        data = DataRegister.classical(bits)
        (read,) = [op for op in qram._protocol(cfg, data)
                   if op.name == "z_ge" and op.level == cfg.n]
        assert list(read.nodes) == [j for j in range(8) if bits[j]], bits
        _assert_matches_slot_engine(cfg, address, data)
    assert qram._around_read.cache_info().misses == 1


def _assert_same_result(got, want):
    assert got.address_bus == want.address_bus
    assert got.tree_ground == want.tree_ground and got.max_support == want.max_support
    for col in ("j", "levels", "amp"):
        assert np.array_equal(getattr(got.table, col), getattr(want.table, col)), col


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_a_batch_query_is_each_query_exactly(enc):
    # rows of different batches never meet, so a scan run as one batch
    # matches each basis query bit for bit, and so does a batch of two
    # superposed addresses
    rng = np.random.default_rng(23)
    cases = [DataRegister.classical([int(b) for b in rng.integers(0, 2, 2 ** n)])
             for n in range(1, 6)]
    cases += [DataRegister.quantum([tuple(_unit(rng, 2)) for _ in range(2 ** n)])
              for n in range(1, 4)]
    for data in cases:
        N = len(data.bits or data.qubits)
        cfg = QramConfig(n=N.bit_length() - 1, encoding=enc)
        for addresses in (np.eye(N), np.array([_unit(rng, N), _unit(rng, N)])):
            results = query(cfg, addresses, data)
            assert len(results) == len(addresses)
            for address, res in zip(addresses, results):
                _assert_same_result(res, query(cfg, address, data))


def test_a_skipped_unwind_hop_leaves_the_tree_excited(monkeypatch):
    # without the last mirrored hop an excitation stays in the tree: both
    # decoders must say so, and still agree on address_bus
    protocol = qram._protocol

    def dropped(cfg, data):
        ops = protocol(cfg, data)
        last = max(i for i, op in enumerate(ops) if op.name in ("uproute", "uproute2"))
        return ops[:last] + ops[last + 1:]

    monkeypatch.setattr(qram, "_protocol", dropped)
    rng = np.random.default_rng(61)
    for enc in ALL_ENCODINGS:
        for data in (DataRegister.classical([0, 1, 1, 0]),
                     DataRegister.quantum([tuple(_unit(rng, 2)) for _ in range(4)])):
            cfg = QramConfig(n=2, encoding=enc)
            res = query(cfg, _unit(rng, 4), data)
            want, ground = decode_frozensets(cfg, data, export(res.table, data.qubits))
            assert res.tree_ground is False and ground is False, (enc, data.mode)
            assert set(res.address_bus) == set(want)
            assert max(abs(res.address_bus[k] - a) for k, a in want.items()) <= 1e-15
    # in one batch each address keeps its own verdict; a single-rail 0 bit
    # sends no excitation, so only some basis addresses are left excited
    data = DataRegister.classical([0, 1, 1, 0])
    for enc in ALL_ENCODINGS:
        cfg = QramConfig(n=2, encoding=enc)
        results = query(cfg, np.eye(4), data)
        for j, res in enumerate(results):
            _assert_same_result(res, query(cfg, basis_address(2, j), data))
        if enc is Encoding.SINGLE_RAIL:
            assert {res.tree_ground for res in results} == {True, False}


def test_query_builds_its_protocol_once(monkeypatch):
    calls = {"_protocol": 0, "build_query_gates": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapped)

    counting(qram, "_protocol")
    counting(qram, "build_query_gates")
    cells = [(0.6, 0.8j)] * 8
    query(QramConfig(n=3), _unit(np.random.default_rng(3), 8), DataRegister.quantum(cells))
    assert calls == {"_protocol": 1, "build_query_gates": 0}


def test_export_multiplies_in_the_background_of_each_branch():
    # cells with both amplitudes nonzero double the background, the others
    # do not: 4 such j with 2 path keys and 2^3 background branches each,
    # 4 other j with 1 path key and 2^4 background branches each
    cells = [(0.6, 0.8), (1, 0), (0, 1j), (0.8, -0.6)] * 2
    res = query(QramConfig(n=3), _unit(np.random.default_rng(5), 8),
                DataRegister.quantum(cells))
    final = export(res.table, cells)
    assert len(final.amps) == 128
    assert final.norm() == pytest.approx(1.0, abs=1e-12)


def test_route_into_the_off_path_child_raises(monkeypatch):
    # every inward hop with its two child templates swapped, and every
    # single-rail or hybrid router with its polarity flipped, sends each
    # address excitation into the child off its branch's path: the engine
    # must refuse, not drop the branch
    protocol = qram._protocol
    hops = ("route", "route2")

    def swapped(cfg, data):
        return [op._replace(templates=tuple(t[:-2] + t[:-3:-1] for t in op.templates))
                if op.name in hops else op for op in protocol(cfg, data)]

    def flipped(cfg, data):
        return [op._replace(params=(not op.params[0],)) if op.name == "route" else op
                for op in protocol(cfg, data)]

    data = DataRegister.classical([0, 1, 1, 0])
    for enc in ALL_ENCODINGS:
        cfg = QramConfig(n=2, encoding=enc)
        params = {g.params for g in build_query_gates(cfg, data) if g.name == "route"}
        mutations = [swapped] + [flipped] * (not enc.is_standard)
        for mutation in mutations:
            monkeypatch.setattr(qram, "_protocol", mutation)
            gates = [g for g in build_query_gates(cfg, data) if g.name in hops]
            assert gates, enc
            if mutation is swapped:
                # the hop's last two slots now name child 1, then child 0
                assert all(g.slots[-2][2] % 2 == 1 for g in gates), enc
            else:
                assert {g.params for g in gates} == {(not p[0],) for p in params}, enc
            for address in (basis_address(2, 2), np.full(4, 0.5)):
                with pytest.raises(NumericalFailureError, match="slot it does not track"):
                    query(cfg, address, data)
            monkeypatch.undo()


def test_an_op_that_maps_two_rows_onto_one_fails_the_final_merge(monkeypatch):
    # the two rows of a basis address with quantum data differ only in the
    # queried cell; a qroute from the cell into the bus register (|e> in
    # both) empties the cell of the |1> row, which then equals the |0> row.
    # No op splits rows in quantum mode, so the final merge sums the two
    # (0.6 + 0.8 = 1.4) and its norm check must raise
    protocol = qram._protocol
    fold = ("qroute", 0, (), (0,),
            ((("reg", 1, None), ("data", None, None), ("reg", 1, None), ("dwg", None, None)),))

    def folded(cfg, data):
        return [qram._LevelOp(0.0, *fold)] + protocol(cfg, data)

    data = DataRegister.quantum([(0.6, 0.8), (1, 0)])
    cfg = QramConfig(n=1)
    assert query(cfg, basis_address(1, 0), data).max_support == 2
    monkeypatch.setattr(qram, "_protocol", folded)
    with pytest.raises(NumericalFailureError, match="after the end of the query"):
        query(cfg, basis_address(1, 0), data)


@pytest.mark.parametrize("enc", ALL_ENCODINGS)
def test_superposed_query_is_linear_in_the_address(enc):
    # the query map is linear in the address amplitudes: a superposed query
    # equals the alpha-weighted sum of its N basis-address queries
    rng = np.random.default_rng(23)
    cases = [(n, DataRegister.classical([int(b) for b in rng.integers(0, 2, 2 ** n)]))
             for n in (4, 5)]
    cases.append((2, DataRegister.quantum([tuple(_unit(rng, 2)) for _ in range(4)])))
    for n, data in cases:
        cfg = QramConfig(n=n, encoding=enc)
        alpha = _unit(rng, 2 ** n)
        total: dict = {}
        for j, a in enumerate(alpha):
            basis = export(query(cfg, basis_address(n, j), data).table, data.qubits)
            for k, amp in basis.amps.items():
                total[k] = total.get(k, 0.0) + a * amp
        got = export(query(cfg, alpha, data).table, data.qubits).amps
        assert max(abs(got.get(k, 0.0) - total.get(k, 0.0))
                   for k in set(got) | set(total)) <= 1e-12


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
