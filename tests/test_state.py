import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_amplitudes
from phonon_qram.errors import NumericalFailureError
from phonon_qram.state import GATE_ARITY, GateRecord, SparseState

A, B, C, D = ("s", 0), ("s", 1), ("s", 2), ("s", 3)


def make(amps):
    return SparseState(dict(amps))


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


def test_ladders():
    s = make({frozenset({(A, 1)}): 1.0})
    s.apply(GateRecord("ladder_ef", (A,), 0.0))
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)
    s.apply(GateRecord("ladder_ge", (A,), 0.0))  # identity on f
    assert s.amplitude(frozenset({(A, 2)})) == pytest.approx(1.0)
    s.apply(GateRecord("ladder_ef", (A,), 0.0))
    s.apply(GateRecord("ladder_ge", (A,), 0.0))
    assert s.amplitude(frozenset()) == pytest.approx(1.0)


def test_cz_phase():
    s = make({frozenset({(A, 1), (B, 1)}): 0.6, frozenset({(A, 1)}): 0.8})
    s.apply(GateRecord("cz", (A, B), 0.0))
    assert s.amplitude(frozenset({(A, 1), (B, 1)})) == pytest.approx(-0.6)
    assert s.amplitude(frozenset({(A, 1)})) == pytest.approx(0.8)


@pytest.mark.parametrize("invert,child", [(False, 1), (True, 0)])
def test_route_polarity(invert, child):
    # control |e> routes right unless the polarity is inverted
    s = make({frozenset({(A, 1), (B, 1)}): 1.0})  # A=ctrl, B=src
    s.apply(GateRecord("route", (A, B, C, D), 0.0, (invert,)))
    target = (C, D)[child]
    assert s.amplitude(frozenset({(A, 1), (target, 1)})) == pytest.approx(1.0)


def test_uproute_inverts_route():
    for ctrl_level in (0, 1):
        items = {(B, 1)}
        if ctrl_level:
            items.add((A, 1))
        s = make({frozenset(items): 1.0})
        s.apply(GateRecord("route", (A, B, C, D), 0.0, (False,)))
        s.apply(GateRecord("uproute", (A, C, D, B), 0.0, (False,)))
        assert s.amplitude(frozenset(items)) == pytest.approx(1.0)


def test_route_into_occupied_destination_raises():
    # ctrl A in |g> sends the B excitation to C, onto a branch that already
    # holds it there: the two branches merge and the norm leaves 1
    s = make({frozenset({(B, 1)}): 2 ** -0.5, frozenset({(C, 1)}): 2 ** -0.5})
    with pytest.raises(NumericalFailureError):
        s.apply(GateRecord("route", (A, B, C, D), 0.0, (False,)))


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
TWO_QUBIT = ["swap", "swap_ge", "cz"]


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
    state = SparseState({c: a / nrm for c, a in amps.items()})

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
# |f>: ladder_ef acts on them alone and swap stays inside one group, so the
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
        if name == "swap":
            pool = data.draw(st.sampled_from([F3, G2]))
        else:
            pool = G2 if name == "dualrail_h" else F3 + G2
        slots = pick(pool, 2)
        if name != "cz" and may & set(slots):
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

    state = SparseState(initial)
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
