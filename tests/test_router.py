import math
import tracemalloc

import numpy as np
import pytest
from field_router import field_run, lfilter_state
from hypothesis import given, settings, strategies as st

from phonon_qram.errors import InvalidParameterError, ResolutionError
from phonon_qram.router import (
    _BLOCK,
    _TOLERANCE,
    RouterSimConfig,
    Source,
    _route,
    auto_window,
    beam_splitter,
    scatter_state,
    simulate_routing,
    sweep_kappa,
    sweep_window,
)
from phonon_qram.wavepackets import (
    PulseShape,
    ReflectionResponse,
    WavePacket,
    distortion_fidelity,
    envelope_freq,
    envelope_time,
    reflection_transfer,
)

TWO_PI_MHZ = 2 * math.pi * 1e-3
KAPPA_200 = 200 * TWO_PI_MHZ


complex_amp = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@given(complex_amp, complex_amp)
@settings(max_examples=200, deadline=None)
def test_beam_splitter_is_an_involution(a, b):
    out = beam_splitter(*beam_splitter(a, b))
    assert out[0] == pytest.approx(a, abs=1e-9)
    assert out[1] == pytest.approx(b, abs=1e-9)


@given(complex_amp, complex_amp)
@settings(max_examples=200, deadline=None)
def test_beam_splitter_preserves_norm(a, b):
    out = beam_splitter(a, b)
    assert abs(out[0]) ** 2 + abs(out[1]) ** 2 == pytest.approx(
        abs(a) ** 2 + abs(b) ** 2, abs=1e-9
    )


def scattered_arm(packet, kappa, dt, steps, peak):
    """Input and reflected field on the full-step grid, driven by analytic
    half-step samples of the packet envelope peaking at time `peak`."""
    t_half = np.arange(2 * steps + 1) * (dt / 2.0) - peak
    b_half = np.asarray(envelope_time(packet, t_half), dtype=complex)
    b_in = b_half[::2]
    return b_in, b_in - math.sqrt(kappa) * scatter_state(b_half, dt, kappa)


def test_scatter_arm_against_fft_oracle():
    # independent route: apply r(omega) in the frequency domain via FFT
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    resp = ReflectionResponse(KAPPA_200)
    dt = 0.02
    b_in, b_out = scattered_arm(packet, KAPPA_200, dt, 60000, 600.0)

    npad = 1 << 17
    spec = np.fft.fft(b_in, npad)
    # numpy's fft uses exp(-i 2 pi k n / N); our convention is exp(+i w t),
    # so numpy bin frequencies enter r(omega) with a sign flip
    w = -2 * np.pi * np.fft.fftfreq(npad, dt)
    oracle = np.fft.ifft(spec * reflection_transfer(resp, w))[: len(b_in)]
    assert np.max(np.abs(b_out - oracle)) < 1e-8


def test_scatter_arm_preserves_norm():
    packet = WavePacket(PulseShape.SECH, fwhm=50.0)
    resp = ReflectionResponse(KAPPA_200)
    dt = 0.02
    b_in, b_out = scattered_arm(packet, resp.kappa_max, dt, 60000, 600.0)
    n_in = np.trapezoid(np.abs(b_in) ** 2, dx=dt)
    n_out = np.trapezoid(np.abs(b_out) ** 2, dx=dt)
    assert n_out == pytest.approx(n_in, rel=1e-9)


def test_a_step_of_one_over_kappa_is_accurate():
    # the integrator is exact in kappa, so a grid of 35,000 steps, dt*kappa = 1
    # and fwhm/dt = 5,000, resolves the packet: its estimate is at rounding level
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    _, fidelity, _, estimate = _route(RouterSimConfig(packet=packet, kappa_max=100.0,
                                                      window=350.0), 35000)
    assert estimate < 1e-15
    assert abs(fidelity - distortion_fidelity(packet, ReflectionResponse(100.0))) < 1e-9


@pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN, PulseShape.SECH])
def test_under_resolved_grid_raises_by_its_estimate(shape):
    # on 2,000 steps, dt = fwhm/5, a grid is estimated to be off by 5e-5
    # (Gaussian) and 2e-3 (sech); from fwhm/20 on each halving of dt cuts the
    # estimate about 16-fold, as the 4th-order error does, and from fwhm/80
    # on it passes the tolerance simulate_routing holds a grid to
    packet = WavePacket(shape, fwhm=50.0)
    cfg = RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=20000.0)
    closed = distortion_fidelity(packet, ReflectionResponse(KAPPA_200))
    estimates = []
    for n in (2000, 4000, 8000, 16000, 32000, 64000):
        _, fidelity, _, estimate = _route(cfg, n)
        if estimate <= _TOLERANCE:
            assert abs(fidelity - closed) <= 3 * estimate
        estimates.append(estimate)
    assert estimates[0] > 1e-5 and estimates[3] > _TOLERANCE >= estimates[4]
    assert all(a / b > 10 for a, b in zip(estimates, estimates[1:]))
    assert all(a / b < 25 for a, b in zip(estimates[2:], estimates[3:]))


@pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN, PulseShape.SECH])
def test_a_default_step_is_halved_until_the_estimate_passes(shape):
    # a 150 ns window cuts the packet, so at 1 GHz the scatterer starts a
    # 0.3 ns transient that the rule's 1,000 steps of 0.15 ns do not resolve
    packet, kappa = WavePacket(shape, fwhm=50.0), 1000 * TWO_PI_MHZ
    cfg = RouterSimConfig(packet=packet, kappa_max=kappa, window=150.0)
    assert _route(cfg, 1000)[3] > _TOLERANCE
    res = simulate_routing(cfg)
    assert len(res.traces["time"]) == 2001 and res.error_estimate <= _TOLERANCE
    fine = _route(cfg, 15000)[1]  # dt = 0.01 ns
    assert abs(res.fidelity - fine) <= 2 * res.error_estimate


@pytest.mark.parametrize("shape, fwhm, window, mhz, n", [
    (PulseShape.GAUSSIAN, 50.0, 150.0, 200, 1000),  # window/1000
    (PulseShape.SECH, 50.0, 350.0, 200, 1400),  # fwhm/200
    (PulseShape.GAUSSIAN, 50.0, 1000.0, 200, 4000),
    (PulseShape.SECH, 30.0, 1001.0, 200, 6676),  # 6,673.3 rounded up to a multiple of 4
    (PulseShape.GAUSSIAN, 7.0, 333.0, 200, 9516),  # 9,514.3
    (PulseShape.GAUSSIAN, 50.0, 150.0, 1000, 2000),  # halved once
    (PulseShape.SECH, 50.0, 150.0, 1000, 2000),
])
def test_the_grid_follows_the_one_rule(shape, fwhm, window, mhz, n):
    # n = 4 ceil(max(1000, 200 window/fwhm)/4), doubled while the estimate fails
    res = simulate_routing(RouterSimConfig(packet=WavePacket(shape, fwhm),
                                           kappa_max=mhz * TWO_PI_MHZ, window=window))
    assert len(res.traces["time"]) - 1 == n
    assert res.traces["time"][-1] == pytest.approx(window, rel=1e-15)


@pytest.mark.parametrize("mhz", [10, 200, 1000])
@pytest.mark.parametrize("n", [1, 2, 4000, 8193])
def test_doubling_scan_matches_lfilter(mhz, n):
    # the scan against scipy's one-pole filter, from an empty and from a
    # carried scatterer, on a real and on a complex drive
    kappa, dt = mhz * TWO_PI_MHZ, 0.05
    packet = WavePacket(PulseShape.SECH, fwhm=50.0)
    real = envelope_time(packet, np.arange(2 * n + 1) * (dt / 2) - n * dt / 2)
    for b_half, c0 in [(real, 0.0), (real, 0.03), (real * np.exp(0.3j * np.arange(2 * n + 1)),
                                                    0.02 - 0.01j)]:
        ref = lfilter_state(b_half, dt, kappa, c0)
        out = scatter_state(b_half, dt, kappa, c0)
        assert out.dtype == ref.dtype and len(out) == n + 1
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dt, kappa", [(1e-320, KAPPA_200), (0.25, math.inf)])
def test_a_step_without_float_weights_raises(dt, kappa):
    # a subnormal step has lost its digits (its square is 0) and an infinite
    # coupling makes inf * 0: a resolution failure, not a ZeroDivisionError
    # or a NaN with a RuntimeWarning
    b_half = envelope_time(WavePacket(PulseShape.GAUSSIAN, fwhm=50.0), np.arange(9) * dt)
    with pytest.raises(ResolutionError):
        scatter_state(b_half, dt, kappa)


def test_control_ground_routes_left():
    cfg = RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=KAPPA_200,
        window=1200.0,
        control_init=(1.0, 0.0),
    )
    res = simulate_routing(cfg)
    assert abs(res.final_state["100"]) ** 2 > 1 - 1e-9
    assert abs(res.final_state["010"]) ** 2 < 1e-9


def test_control_excited_routes_right_up_to_distortion():
    cfg = RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=KAPPA_200,
        window=1200.0,
        control_init=(0.0, 1.0),
    )
    res = simulate_routing(cfg)
    p_right = abs(res.final_state["011"]) ** 2
    assert 1 - 5e-3 < p_right < 1.0
    # the wrong-port amplitude carries the distortion error
    assert abs(res.final_state["101"]) ** 2 < 5e-3


def test_probability_accounting():
    cfg = RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=KAPPA_200,
        window=1200.0,
    )
    res = simulate_routing(cfg)
    captured = sum(abs(v) ** 2 for v in res.final_state.values())
    assert captured + res.leakage == pytest.approx(1.0, abs=1e-12)
    # leakage is dominated by the matched-filter mismatch of the distorted
    # packet, so it sits at the distortion-infidelity scale
    assert res.leakage < 2e-3


def test_vanishing_kappa_leaks_nothing():
    # at kappa -> 0 the control cannot scatter, so half the control state
    # routes wrong and the fidelity tends to 1/4 with nothing lost; the
    # scatterer's step moments must not cancel their digits away
    res = simulate_routing(RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=1e-12 * TWO_PI_MHZ,
        window=350.0,
    ))
    assert res.leakage >= 0.0
    assert abs(res.fidelity - 0.25) <= 1e-10


def test_right_source_symmetry():
    # feeding from the right qubit targets the mirrored ideal map
    kwargs = dict(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=KAPPA_200,
        window=1200.0,
    )
    f_left = simulate_routing(RouterSimConfig(source=Source.LEFT_QUBIT, **kwargs))
    f_right = simulate_routing(RouterSimConfig(source=Source.RIGHT_QUBIT, **kwargs))
    assert f_right.fidelity == pytest.approx(f_left.fidelity, abs=1e-10)


def test_timedomain_matches_analytic_fidelity():
    # dual route: long-window time-domain simulation vs closed-form integral
    for shape in (PulseShape.GAUSSIAN, PulseShape.SECH):
        packet = WavePacket(shape, fwhm=50.0)
        for kappa in (50 * TWO_PI_MHZ, KAPPA_200, 800 * TWO_PI_MHZ):
            cfg = RouterSimConfig(
                packet=packet, kappa_max=kappa, window=auto_window(packet, kappa)
            )
            td = simulate_routing(cfg).fidelity
            an = distortion_fidelity(packet, ReflectionResponse(kappa))
            assert td == pytest.approx(an, abs=1e-9)


@pytest.mark.parametrize("source", list(Source))
@pytest.mark.parametrize("control_init", [(2 ** -0.5, 2 ** -0.5), (0.6, 0.8j)])
@pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN, PulseShape.SECH])
def test_two_overlaps_match_the_full_field_pipeline(source, control_init, shape):
    # every output field is a multiple of u or of its reflection, so the two
    # overlaps <u|u>, <u|r> must give what four field overlaps give
    packet = WavePacket(shape, fwhm=50.0)
    cases = [(mhz, window) for mhz in (10, 200, 1000)
             for window in (auto_window(packet, mhz * TWO_PI_MHZ), 150.0)]
    # the rule's n = 200 window/fwhm on the block edges: one block 4 steps
    # short of whole, one whole block, a whole one and one of 4 steps, 2B + 4
    # and 3B, so the last point of either grid ends a short or a whole block
    edges = (_BLOCK - 4, _BLOCK, _BLOCK + 4, 2 * _BLOCK + 4, 3 * _BLOCK)
    cases += [(200, n * packet.fwhm / 200) for n in edges]
    steps = []
    for mhz, window in cases:
        cfg = RouterSimConfig(packet=packet, kappa_max=mhz * TWO_PI_MHZ, window=window,
                              control_init=control_init, source=source)
        res = simulate_routing(cfg)
        n = len(res.traces["time"]) - 1
        steps.append(n)
        final, fidelity, leakage = field_run(cfg, n)
        assert res.final_state.keys() == final.keys()
        for k, v in final.items():
            assert abs(res.final_state[k] - v) < 1e-13, (mhz, window, k)
        assert abs(res.fidelity - fidelity) < 1e-13
        assert abs(res.leakage - leakage) < 1e-13
    assert steps[-len(edges):] == list(edges)


@pytest.mark.parametrize("mhz", [10, 200])
@pytest.mark.parametrize("dtype", [float, complex])
def test_scatter_state_continues_from_its_carried_value(mhz, dtype):
    # 10 MHz at dt = 0.02 takes the x < 1e-3 series branch, 200 MHz does not
    kappa, dt = mhz * TWO_PI_MHZ, 0.02
    packet = WavePacket(PulseShape.SECH, fwhm=50.0)
    b_half = np.asarray(envelope_time(packet, np.arange(60001) * (dt / 2) - 300.0), dtype=dtype)
    if dtype is complex:
        b_half *= np.exp(0.3j * np.arange(60001))
    whole = scatter_state(b_half, dt, kappa)
    cuts = [0, 2, 1000, 1002, 25000, 59998, 60000]
    pieces = [whole[:1]]
    for a, b in zip(cuts, cuts[1:]):
        pieces.append(scatter_state(b_half[a:b + 1], dt, kappa, pieces[-1][-1])[1:])
    chained = np.concatenate(pieces)
    assert len(chained) == len(whole) == 30001
    assert np.max(np.abs(chained - whole)) <= 1e-15 * np.max(np.abs(whole))


@pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN, PulseShape.SECH])
def test_routing_memory_does_not_grow_with_whole_grid_temporaries(shape):
    # the grid is streamed in blocks: past the n+1-float time trace, a call
    # holds O(block) arrays, so 10**6 steps (a window of 5,000 fwhm) peak at
    # most at 24 B/step (64 to 80 with whole-grid arrays); the first call
    # warms the imports
    packet = WavePacket(shape, fwhm=50.0)
    simulate_routing(RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=150.0))
    n = 10**6
    cfg = RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=5000 * packet.fwhm)
    tracemalloc.start()
    try:
        res = simulate_routing(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.traces["time"]) == n + 1
    assert peak <= 24 * n, peak / n


@pytest.mark.parametrize("shape", [PulseShape.GAUSSIAN, PulseShape.SECH])
def test_a_shape_given_by_value_routes_as_that_shape(shape):
    # a plain string once routed as a sech whatever it named (F = 0.998469
    # for "gaussian" here, where the Gaussian gives 0.998989)
    packet = WavePacket(shape.value, fwhm=50.0)
    assert packet.shape is shape and packet == WavePacket(shape, fwhm=50.0)
    fidelity = [simulate_routing(RouterSimConfig(packet=p, kappa_max=KAPPA_200,
                                                 window=250.0)).fidelity
                for p in (packet, WavePacket(shape, fwhm=50.0))]
    assert fidelity[0] == fidelity[1]
    want = {PulseShape.GAUSSIAN: 0.998989, PulseShape.SECH: 0.998469}[shape]
    assert round(fidelity[0], 6) == want
    for bad in ("square", "GAUSSIAN", None, 1):
        with pytest.raises(InvalidParameterError):
            WavePacket(bad, fwhm=50.0)


def test_config_validation():
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    with pytest.raises(InvalidParameterError):
        RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=-1.0)
    with pytest.raises(InvalidParameterError):
        RouterSimConfig(
            packet=packet,
            kappa_max=KAPPA_200,
            window=1000.0,
            control_init=(1.0, 1.0),
        )
    with pytest.raises(InvalidParameterError):  # |a|**2 overflows
        RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=1000.0,
                        control_init=(1e308, 1e308))


def test_sweep_kappa_rows_and_empty_grid():
    rows = sweep_kappa([PulseShape.GAUSSIAN], 50.0, [KAPPA_200])
    assert len(rows) == 1
    assert rows[0]["shape"] == "gaussian"
    assert rows[0]["infidelity"] == pytest.approx(1.01e-3, rel=2e-2)
    with pytest.raises(InvalidParameterError):
        sweep_kappa([PulseShape.GAUSSIAN], 50.0, [])
    with pytest.raises(InvalidParameterError):
        sweep_window([], 50.0, KAPPA_200, [600.0])


def test_sweeps_take_a_shape_by_value():
    # WavePacket takes a shape by value ("gaussian"), so both sweeps must
    # name its shape from the packet, not from what they were given
    assert (sweep_kappa(["gaussian"], 50.0, [KAPPA_200])
            == sweep_kappa([PulseShape.GAUSSIAN], 50.0, [KAPPA_200]))
    assert (sweep_window(["sech"], 50.0, KAPPA_200, [600.0])
            == sweep_window([PulseShape.SECH], 50.0, KAPPA_200, [600.0]))
