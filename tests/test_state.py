import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_amplitudes
from int_gates import _GATES
from phonon_qram import qram, state
from phonon_qram.errors import NumericalFailureError
from phonon_qram.qram import DataRegister, QramConfig, _slot
from phonon_qram.qram_types import DataMode, Encoding
from phonon_qram.state import GateRecord
from reference_decode import export
from slot_engine import SlotState

A, B, C, D, E = ("s", 0), ("s", 1), ("s", 2), ("s", 3), ("s", 4)
GATE_ARITY = {name: arity for name, (arity, _, _) in _GATES.items()}


def make(amps):
    return SlotState(dict(amps))


def test_swap_ge_blocks_on_f():
    s = make({frozenset({(A, 2)}): 1.0})
    s.apply(GateRecord("swap_ge", (A, B), 0.0))
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)
    s = make({frozenset({(A, 1)}): 1.0})
    s.apply(GateRecord("swap_ge", (A, B), 0.0))
    assert s.amplitude(frozenset({(B, 1)})) == pytest.approx(1.0)


def test_h_ge_interferes():
    s = make({frozenset(): 1.0})
    s.apply(GateRecord("h_ge", (A,), 0.0))
    assert s.amplitude(frozenset()) == pytest.approx(2 ** -0.5)
    assert s.amplitude(frozenset({(A, 1)})) == pytest.approx(2 ** -0.5)
    s.apply(GateRecord("h_ge", (A,), 0.0))
    assert s.amplitude(frozenset()) == pytest.approx(1.0)
    assert abs(s.amplitude(frozenset({(A, 1)}))) < 1e-12


def test_z_ge_phase():
    # the classical read's phase: -1 on |e>, identity on |g> and |f>
    s = make({frozenset({(A, 1), (B, 1)}): 0.6, frozenset({(B, 1)}): 0.8})
    s.apply(GateRecord("z_ge", (A,), 0.0))
    assert s.amplitude(frozenset({(A, 1), (B, 1)})) == pytest.approx(-0.6)
    assert s.amplitude(frozenset({(B, 1)})) == pytest.approx(0.8)
    s = make({frozenset({(A, 2)}): 1.0})
    s.apply(GateRecord("z_ge", (A,), 0.0))
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)


def test_ladders():
    s = make({frozenset({(A, 1)}): 1.0})
    s.apply(GateRecord("ladder_ef", (A,), 0.0))
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)
    s.apply(GateRecord("ladder_ge", (A,), 0.0))  # identity on f
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)
    s.apply(GateRecord("ladder_ef", (A,), 0.0))
    s.apply(GateRecord("ladder_ge", (A,), 0.0))
    assert s.amplitude(frozenset()) == pytest.approx(1.0)


@pytest.mark.parametrize("invert,child", [(False, 1), (True, 0)])
def test_route_polarity(invert, child):
    # control |e> routes right unless the polarity is inverted
    s = make({frozenset({(A, 1), (B, 1)}): 1.0})  # A=ctrl, B=src
    s.apply(GateRecord("route", (A, B, C, D), 0.0, (invert,)))
    target = (C, D)[child]
    assert s.amplitude(frozenset({(A, 1), (target, 1)})) == pytest.approx(1.0)


# (hop, params, control sets to try); the hop's slots are (controls...,
# src, left, right) and its inverse takes (controls..., left, right, src),
# the order the query's unwind uses
HOP_CASES = {
    "route-invert=False": ("route", (False,), [(), (A,)]),
    "route-invert=True": ("route", (True,), [(), (A,)]),
    "route2-c0": ("route2", (), [(A,)]),
    "route2-c1": ("route2", (), [(B,)]),
    "route2-neither": ("route2", (), [()]),
}


@pytest.mark.parametrize("case", HOP_CASES)
def test_uproute_inverts_route(case):
    name, params, ctrl_sets = HOP_CASES[case]
    slots = (A, B, C, D) if name == "route" else (A, B, C, D, E)
    src = slots[-3]
    for ctrls in ctrl_sets:
        items = frozenset({(src, 1)} | {(c, 1) for c in ctrls})
        s = make({items: 1.0})
        s.apply(GateRecord(name, slots, 0.0, params))
        # every hop leaves src except route2 with both controls ground
        moved = name == "route" or bool(ctrls)
        assert abs(s.amplitude(items)) == pytest.approx(0.0 if moved else 1.0)
        s.apply(GateRecord("up" + name, slots[:-3] + slots[-2:] + slots[-3:-2],
                           1.0, params))
        assert s.amplitude(items) == pytest.approx(1.0)


def test_route_into_occupied_destination_raises():
    # ctrl A in |g> sends the B excitation to C, onto a branch that already
    # holds it there: the two branches merge and the norm leaves 1.  With
    # opposite signs they cancel, and the cancelled key must not stay behind
    for sign in (1, -1):
        s = make({frozenset({(B, 1)}): 2 ** -0.5, frozenset({(C, 1)}): sign * 2 ** -0.5})
        with pytest.raises(NumericalFailureError):
            s.apply(GateRecord("route", (A, B, C, D), 0.0, (False,)))
    assert s.amps == {}


def test_running_norm_counts_the_branch_an_image_lands_on():
    # the same merge with orthogonal phases keeps the weight at 1, so it
    # passes both norm checks only if the running norm also drops the old
    # weight of the untouched branch the image lands on
    s = make({frozenset({(B, 1)}): 2 ** -0.5, frozenset({(C, 1)}): 1j * 2 ** -0.5})
    s.apply(GateRecord("route", (A, B, C, D), 0.0, (False,)))
    assert s.amps == pytest.approx({frozenset({(C, 1)}): (1 + 1j) * 2 ** -0.5})


def test_dualrail_h():
    # logical dual-rail Hadamard on the (rail0, rail1) one-hot pair
    s = make({frozenset({(A, 1)}): 1.0})
    s.apply(GateRecord("dualrail_h", (A, B), 0.0))
    s.apply(GateRecord("dualrail_h", (A, B), 0.0))
    assert s.amplitude(frozenset({(A, 1)})) == pytest.approx(1.0)


SINGLE_QUBIT = ["h_ge", "z_ge", "ladder_ge", "ladder_ef"]
TWO_QUBIT = ["swap_ge"]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_circuits_preserve_norm(data):
    rng_amps = data.draw(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, min_magnitude=0.05,
                               allow_nan=False, allow_infinity=False),
            min_size=1, max_size=4,
        )
    )
    slots = [A, B, C, D]
    configs = [frozenset(), frozenset({(A, 1)}), frozenset({(B, 1), (C, 1)}),
               frozenset({(D, 2)})]
    amps = {c: a for c, a in zip(configs, rng_amps)}
    nrm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    state = SlotState({c: a / nrm for c, a in amps.items()})

    n_gates = data.draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_gates):
        name = data.draw(st.sampled_from(SINGLE_QUBIT + TWO_QUBIT))
        assert GATE_ARITY[name] == (1 if name in SINGLE_QUBIT else 2)
        if name in SINGLE_QUBIT:
            gslots = (data.draw(st.sampled_from(slots)),)
        else:
            i = data.draw(st.integers(min_value=0, max_value=3))
            j = data.draw(st.integers(min_value=0, max_value=2))
            gslots = (slots[i], slots[(i + 1 + j) % 4])
        state.apply(GateRecord(name, gslots, 0.0))
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


# Slots for the dense-oracle comparison.  Only the two F3 slots ever hold
# |f>: ladder_ef acts on them alone and swap_ge never moves an |f>, so the
# oracle's level count per slot (three for F3, two for G2) always holds.
F3 = [("f", 0), ("f", 1)]
G2 = [("s", i) for i in range(7)]
# routing gate -> (controls, sources, destinations); its slots come in that order
ROUTING = {"route": (1, 1, 2), "uproute": (1, 2, 1), "route2": (2, 1, 2),
           "uproute2": (2, 2, 1), "qroute": (1, 1, 2)}


def _draw_gate(data, may):
    """One gate within the oracle's domain.  `may` over-approximates the
    slots excited in some branch; a routing destination is drawn outside
    it, so it is empty in every branch when the excitation hops, and a
    routing source is a G2 slot, so it never holds |f>."""
    free = [s for s in G2 if s not in may]
    kinds = [k for k, (_, _, nd) in ROUTING.items() if len(free) >= nd]
    name = data.draw(st.sampled_from(sorted(GATE_ARITY.keys() - ROUTING.keys()) + kinds))

    def pick(pool, k):
        return tuple(data.draw(st.permutations(pool))[:k])

    params = ()
    if name in ROUTING:
        nc, ns, nd = ROUTING[name]
        dst = pick(free, nd)
        src = pick([s for s in G2 if s not in dst], ns)
        ctrl = pick([s for s in F3 + G2 if s not in dst + src], nc)
        slots = ctrl + src + dst
        may |= set(dst)
        if name in ("route", "uproute"):
            params = (data.draw(st.booleans()),)
    elif name == "ladder_ef":
        slots = pick(F3, 1)
    elif GATE_ARITY[name] == 1:
        slots = pick(F3 + G2, 1)
        if name in ("h_ge", "ladder_ge"):
            may |= set(slots)
    else:
        slots = pick(G2 if name == "dualrail_h" else F3 + G2, 2)
        if may & set(slots):
            may |= set(slots)
    assert GATE_ARITY[name] == len(slots)
    return GateRecord(name, slots, 0.0, params)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_circuits_match_dense_oracle(data):
    # every branch has ground slots, so idle branches take the skip path;
    # the second holds both F3 slots in |f>, so the three-level path runs
    level = st.sampled_from([0, 1, 2])
    configs = [frozenset(), frozenset({(F3[0], 2), (F3[1], 2)})]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        levels = [data.draw(level) for _ in F3] + [data.draw(level) % 2 for _ in G2[:3]]
        configs.append(frozenset((s, l) for s, l in zip(F3 + G2, levels) if l))
    amps = {c: data.draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0))
            for c in configs}
    nrm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    initial = {c: a / nrm for c, a in amps.items()}
    may = {s for c in initial for s, _ in c}
    n_gates = data.draw(st.integers(min_value=1, max_value=16))
    gates = [_draw_gate(data, may) for _ in range(n_gates)]

    state = SlotState(initial)
    state.apply_all(gates)
    dense = dense_amplitudes(initial, gates)
    keys = set(state.amps) | set(dense)
    assert max(abs(state.amps.get(k, 0.0) - dense.get(k, 0.0)) for k in keys) < 1e-12


def test_max_support_tracking():
    s = make({frozenset(): 1.0})
    for slot in (A, B, C):
        s.apply(GateRecord("h_ge", (slot,), 0.0))
    assert s.max_support == 8
    assert s.norm() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the column semantics of `phonon_qram.state`, one level op at a time,
# against the int reference on the node-expanded gate records

HOPS = ("route", "route2", "uproute", "uproute2")


def _variants(op, rng):
    """`op` at time 0; a hop also with its two children swapped and a
    single-control hop in both polarities; a z_ge also on random nodes."""
    op = op._replace(time=0.0, nodes=tuple(op.nodes))
    if op.name == "z_ge":
        return [op] + [op._replace(nodes=tuple(np.flatnonzero(
            rng.integers(0, 2, 1 << op.level)).tolist())) for _ in range(3)]
    if op.name not in HOPS:
        return [op]
    if op.name.startswith("route"):  # (controls..., src, left, right)
        swapped = tuple(t[:-2] + t[:-3:-1] for t in op.templates)
    else:  # (controls..., left, right, dst)
        swapped = tuple(t[:-3] + t[-2:-4:-1] + t[-1:] for t in op.templates)
    out = [op, op._replace(templates=swapped)]
    if op.params:
        out += [o._replace(params=(not o.params[0],)) for o in out]
    return out


def _level_ops(name):
    """(config, quantum, op) for every variant of every distinct level op
    named `name` in the n = 2 protocols."""
    rng = np.random.default_rng(17)
    seen, out = set(), []
    for enc in Encoding:
        cfg = QramConfig(n=2, encoding=enc)
        for data in (DataRegister.classical([0, 1, 1, 0]),
                     DataRegister.quantum([(0.6, 0.8)] * 4)):
            quantum = data.mode is DataMode.QUANTUM
            for op in qram._protocol(cfg, data):
                if op.name != name:
                    continue
                for v in _variants(op, rng):
                    if (enc, quantum, v) not in seen:
                        seen.add((enc, quantum, v))
                        out.append((cfg, quantum, v))
    return out


def _random_table(rng, cfg, quantum, op):
    """A query's `state.Table` with up to 6 distinct random rows over every
    field, at levels 0-2 except where the gate is not unitary: a dual-rail
    pair stays in levels 0-1, and a hop's destinations are empty in every
    row."""
    fields = qram._fields(cfg, quantum)
    rows = int(rng.integers(1, 7))
    levels = rng.integers(0, 3, (len(fields), rows)).astype(np.uint8)
    t = state.Table(cfg.n, fields, rng.integers(0, cfg.N, rows), levels,
                    np.ones(rows, complex))
    for tpl in op.templates:
        c = [t.col[f[:3]] for f in tpl]
        if op.name == "dualrail_h":
            levels[c] %= 2
        elif op.name in HOPS:
            levels[c[-1]] = 0
        elif op.name == "qroute":
            levels[c[2:]] = 0
    keys = np.unique(np.vstack([t.j, levels]), axis=1)
    amp = rng.normal(size=keys.shape[1]) + 1j * rng.normal(size=keys.shape[1])
    t.set_rows(keys[0].copy(), keys[1:].astype(np.uint8), amp / np.linalg.norm(amp))
    return t


def _reference(t, records) -> tuple[dict, bool]:
    """The int reference's image of the table's rows, and whether it moved
    an excitation of some row onto a slot off that row's path."""
    n = t.n
    image: dict = {}
    off = False
    for i, (j, a) in enumerate(zip(t.j.tolist(), t.amp.tolist())):
        row = state.Table(n, t.fields, t.j[i:i + 1], t.levels[:, i:i + 1].copy(),
                          np.ones(1, complex))
        ref = SlotState(export(row).amps)
        ref.apply_all(records)
        on_path = {_slot(f, j if f[1] is None else j >> (n - f[1])) for f in t.fields}
        for cfg, amp in ref.amps.items():
            off |= any(s not in on_path for s, _ in cfg)
            image[cfg] = image.get(cfg, 0.0) + a * amp
    return image, off


@pytest.mark.parametrize("name", sorted(state._GATES))
def test_column_gate_matches_int_reference(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    ops = _level_ops(name)
    assert ops, name
    raised = set()
    for cfg, quantum, op in ops:
        records = [GateRecord(op.name, tuple(_slot(f, node) for f in tpl), 0.0, op.params)
                   for node in op.nodes for tpl in op.templates]
        for _ in range(8):
            t = _random_table(rng, cfg, quantum, op)
            want, off = _reference(t, records)
            try:
                state.apply_gate(t, op)
            except NumericalFailureError:
                assert off, (cfg, op)
                raised.add(True)
                continue
            assert not off, (cfg, op)
            raised.add(False)
            got = export(t).amps
            assert max(abs(got.get(k, 0.0) - want.get(k, 0.0))
                       for k in set(got) | set(want)) <= 1e-14, (cfg, op)
    # a hop into the children runs both ways; nothing else can leave the path
    assert raised == ({True, False} if name in ("route", "route2") else {False})


@pytest.mark.parametrize("enc, split", [(Encoding.SINGLE_RAIL, "h_ge"),
                                        (Encoding.STANDARD_DUAL_RAIL_VACUUM, "dualrail_h")])
def test_each_rows_path_bit_follows_merge_and_split(enc, split):
    """A table's `bits` are j's bit at every tree level, row by row, after a
    merge that reorders rows and folds duplicates and after a split op."""
    rng = np.random.default_rng(5)
    cfg = QramConfig(n=3, encoding=enc)
    n, std = cfg.n, enc.is_standard
    fields = qram._fields(cfg, False)
    # every branch twice, in descending j, each with a random bus bit
    j = np.repeat(np.arange(cfg.N)[::-1], 2)
    t = state.Table(n, fields, j, np.zeros((len(fields), len(j)), np.uint8),
                    np.repeat(rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N), 2))
    t.amp /= 2 * np.linalg.norm(t.amp[::2])  # each pair sums to a unit-norm branch
    for i, b in enumerate(np.repeat(rng.integers(0, 2, cfg.N), 2)):
        for f in qram._logical(std, "reg", n, b):
            t.levels[t.col[f], i] = 1

    def check():
        for level in range(n):
            want = (t.j >> (n - 1 - level)) & 1 == 1
            assert np.array_equal(t.bits[level], want), level

    t.merge("the test's duplicates")
    assert len(t) == cfg.N and t.j.tolist() != sorted(t.j.tolist(), reverse=True)
    check()
    bus = (("reg", n, 0), ("reg", n, 1)) if std else (("reg", n, None),)
    state.apply_gate(t, qram._op(0.0, split, 0, bus))
    assert len(t) > cfg.N
    check()
