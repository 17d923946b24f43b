"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` rebinds every `(module, attribute)` in `BINDINGS`
and `state.SparseState.norm`; its hooks call `.support()` on what
`qram.initial_state` returns, `len()` on `state.apply_gate`'s argument
and result, and `len()` on the `traces["time"]` of what
`router.simulate_routing` returns.  A query must reach `apply_gate`
through the `state` module, or the tracer sees none of the engine's work.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import phonon_qram
from phonon_qram import qram, router, state
from phonon_qram.qram_types import Encoding
from phonon_qram.wavepackets import PulseShape, WavePacket

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CFG = qram.QramConfig(n=2, encoding=Encoding.HYBRID_DUAL_RAIL)
DATA = qram.DataRegister.classical([0, 1, 1, 0])


def _query():
    return qram.query(CFG, np.full(4, 0.5, dtype=complex), DATA)


def test_tracer_bindings_resolve_and_see_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for mod, attr, _ in tracing.BINDINGS:
        assert callable(getattr(getattr(phonon_qram, mod), attr)), (mod, attr)
    assert callable(state.SparseState.norm)

    calls = []
    apply_gate = state.apply_gate

    def counting(amps, op):
        calls.append(len(amps))
        return apply_gate(amps, op)

    monkeypatch.setattr(state, "apply_gate", counting)
    _query()
    assert calls
    monkeypatch.undo()

    # the installed tracer's hooks run on a query and count its work; the
    # query builds no gate list, so the one list counted is built here
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = _query()
        gates = qram.build_query_gates(CFG, DATA)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["qram.build_query_gates.calls"] == 1
    assert metrics["qram.gates_emitted"] == len(gates) > 0
    assert metrics["state.apply_gate.calls"] > 0
    assert metrics["qram.initial_branches"] == 8
    assert metrics["state.max_support"] == res.max_support


@pytest.mark.parametrize("enc", list(Encoding))
def test_tracer_hooks_count_a_superposed_query_with_a_split(enc, monkeypatch):
    # a superposed classical query: the hook's `out == amps` must stay a
    # plain bool, and the support it sees must be the row count the query
    # reports; no op splits rows, the bus being read in the X basis at decode
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    compared = []
    apply_gate = state.apply_gate

    def comparing(amps, op):
        out = apply_gate(amps, op)
        compared.append(type(out == amps))
        return out

    monkeypatch.setattr(state, "apply_gate", comparing)
    cfg = qram.QramConfig(n=3, encoding=enc)
    address = np.exp(1j * np.arange(8)) / np.sqrt(8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = qram.query(cfg, address, qram.DataRegister.classical([0, 1, 1, 0, 1, 0, 0, 1]))
    finally:
        tracer.uninstall()
    assert compared and set(compared) == {bool}
    assert type(tracer.counts["noop_gates"]) is int
    assert tracer.layer_metrics()["state.max_support"] == res.max_support == 16


def test_tracer_counts_the_router_grid(monkeypatch):
    # the hook counts a routing's grid points, n + 1 for the router's
    # n = 4 ceil(max(1000, 200 window/fwhm)/4) steps: 6,676 here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    cfg = router.RouterSimConfig(packet=WavePacket(PulseShape.SECH, 30.0),
                                 kappa_max=1.0, window=1001.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = router.simulate_routing(cfg)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["router.grid_steps"] == len(res.traces["time"]) == 6677
