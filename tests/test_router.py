import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_qram.errors import InvalidParameterError, ResolutionError
from phonon_qram.router import (
    RouterSimConfig,
    Source,
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


def scattered_arm(packet, kappa, dt, steps):
    """Input and reflected field on the full-step grid, driven by analytic
    half-step samples of the packet envelope."""
    t_half = np.arange(2 * steps + 1) * (dt / 2.0)
    b_half = np.asarray(envelope_time(packet, t_half), dtype=complex)
    b_in = b_half[::2]
    return b_in, b_in - math.sqrt(kappa) * scatter_state(b_half, dt, kappa)


def test_scatter_arm_against_fft_oracle():
    # independent route: apply r(omega) in the frequency domain via FFT
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0, center=600.0)
    resp = ReflectionResponse(KAPPA_200)
    dt = 0.02
    b_in, b_out = scattered_arm(packet, KAPPA_200, dt, 60000)

    npad = 1 << 17
    spec = np.fft.fft(b_in, npad)
    # numpy's fft uses exp(-i 2 pi k n / N); our convention is exp(+i w t),
    # so numpy bin frequencies enter r(omega) with a sign flip
    w = -2 * np.pi * np.fft.fftfreq(npad, dt)
    oracle = np.fft.ifft(spec * reflection_transfer(resp, w))[: len(b_in)]
    assert np.max(np.abs(b_out - oracle)) < 1e-8


def test_scatter_arm_preserves_norm():
    packet = WavePacket(PulseShape.SECH, fwhm=50.0, center=600.0)
    resp = ReflectionResponse(KAPPA_200)
    dt = 0.02
    b_in, b_out = scattered_arm(packet, resp.kappa_max, dt, 60000)
    n_in = np.trapezoid(np.abs(b_in) ** 2, dx=dt)
    n_out = np.trapezoid(np.abs(b_out) ** 2, dx=dt)
    assert n_out == pytest.approx(n_in, rel=1e-9)


def test_scatter_arm_rejects_coarse_grid():
    # a forced step with dt*kappa = 1 under-resolves the scatterer
    cfg = RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=100.0, window=350.0, dt=0.01,
    )
    with pytest.raises(ResolutionError):
        simulate_routing(cfg)


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


def test_config_validation():
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    with pytest.raises(InvalidParameterError):
        RouterSimConfig(packet=packet, kappa_max=KAPPA_200, window=-1.0)
    with pytest.raises(InvalidParameterError):
        RouterSimConfig(
            packet=packet, kappa_max=KAPPA_200, window=1000.0, dt=2.0
        )
    with pytest.raises(InvalidParameterError):
        RouterSimConfig(
            packet=packet,
            kappa_max=KAPPA_200,
            window=1000.0,
            control_init=(1.0, 1.0),
        )


def test_sweep_kappa_rows_and_empty_grid():
    rows = sweep_kappa([PulseShape.GAUSSIAN], 50.0, [KAPPA_200])
    assert len(rows) == 1
    assert rows[0]["shape"] == "gaussian"
    assert rows[0]["infidelity"] == pytest.approx(1.01e-3, rel=2e-2)
    with pytest.raises(InvalidParameterError):
        sweep_kappa([PulseShape.GAUSSIAN], 50.0, [])
    with pytest.raises(InvalidParameterError):
        sweep_window([], 50.0, KAPPA_200, [600.0])


def test_sweep_workers_agree_with_serial():
    kappas = [100 * TWO_PI_MHZ, KAPPA_200]
    serial = sweep_kappa([PulseShape.GAUSSIAN, PulseShape.SECH], 50.0, kappas)
    parallel = sweep_kappa(
        [PulseShape.GAUSSIAN, PulseShape.SECH], 50.0, kappas, workers=2
    )
    assert serial == parallel
