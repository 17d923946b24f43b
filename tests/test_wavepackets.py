import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_qram import wavepackets
from phonon_qram.errors import InvalidParameterError, NumericalFailureError
from phonon_qram.wavepackets import (
    PulseShape,
    ReflectionResponse,
    WavePacket,
    distortion_fidelity,
    envelope_freq,
    envelope_time,
    reflection_transfer,
)
from phonon_qram.wavepackets import _spectral_power

TWO_PI_MHZ = 2 * math.pi * 1e-3

SHAPES = [PulseShape.GAUSSIAN, PulseShape.SECH]


@pytest.mark.parametrize("shape", SHAPES)
def test_time_envelope_unit_norm(shape):
    p = WavePacket(shape, fwhm=50.0)
    t = np.linspace(-2000, 2000, 400001)
    u = envelope_time(p, t)
    assert np.trapezoid(np.abs(u) ** 2, t) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_freq_envelope_unit_norm(shape):
    p = WavePacket(shape, fwhm=50.0)
    w = np.linspace(-3.0, 3.0, 600001)
    u = envelope_freq(p, w)
    assert np.trapezoid(np.abs(u) ** 2, w) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_freq_envelope_is_fourier_transform_of_time_envelope(shape):
    # u(w) = (2*pi)^(-1/2) * \int u(t) e^{+iwt} dt, checked on a dense grid
    p = WavePacket(shape, fwhm=50.0)
    t = np.linspace(-4000, 4000, 2 ** 18, endpoint=False)
    dt = t[1] - t[0]
    u_t = envelope_time(p, t)
    for w in (0.0, 0.005, 0.02, 0.05, -0.03):
        ft = np.trapezoid(u_t * np.exp(1j * w * t), dx=dt) / math.sqrt(2 * math.pi)
        assert ft == pytest.approx(complex(envelope_freq(p, w)), abs=1e-9)


@pytest.mark.parametrize("shape", SHAPES)
def test_spectral_std_matches_numerical_moment(shape):
    p = WavePacket(shape, fwhm=50.0)
    w = np.linspace(-3.0, 3.0, 600001)
    u2 = np.abs(envelope_freq(p, w)) ** 2
    second = np.trapezoid(w ** 2 * u2, w)
    assert math.sqrt(second) == pytest.approx(p.spectral_std, rel=1e-6)


@pytest.mark.parametrize("shape", SHAPES)
def test_scalar_spectral_power_matches_envelope_freq(shape):
    # the plain-float |u(w)|^2 of the distortion integrand; the grid runs
    # past |w| pi tau / 2 = 710, where the sech needs its 700 clip
    p = WavePacket(shape, fwhm=50.0, center=37.0)
    w_clip = 710.0 / (math.pi * (p.fwhm / 2.0) / 2.0)
    w = np.concatenate([np.linspace(-0.5, 0.5, 1001),
                        np.geomspace(1e-4, 3.0 * w_clip, 2000)])
    power = _spectral_power(p)
    got = np.array([power(x) for x in w])
    np.testing.assert_allclose(got, np.abs(envelope_freq(p, w)) ** 2,
                               rtol=1e-14, atol=0.0)


@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@settings(max_examples=1000, deadline=None)
def test_reflection_is_phase_only(omega):
    r = reflection_transfer(ReflectionResponse(kappa_max=200 * TWO_PI_MHZ), omega)
    assert abs(abs(r) - 1.0) < 1e-12


def test_reflection_on_resonance_is_pi_phase():
    r = reflection_transfer(ReflectionResponse(kappa_max=1.0), 0.0)
    assert r == pytest.approx(-1.0)


@pytest.mark.parametrize("shape", SHAPES)
def test_distortion_fidelity_against_trapezoid_oracle(shape):
    # independent route: brute-force trapezoid over a wide dense grid
    p = WavePacket(shape, fwhm=50.0)
    for kappa_mhz in (10, 50, 200, 1000):
        kappa = kappa_mhz * TWO_PI_MHZ
        w = np.linspace(-60 * p.spectral_std, 60 * p.spectral_std, 800001)
        u2 = np.abs(envelope_freq(p, w)) ** 2
        integral = np.trapezoid(u2 * w ** 2 / (kappa ** 2 + 4 * w ** 2), w)
        oracle = (1.0 - 2.0 * integral) ** 2
        assert distortion_fidelity(p, ReflectionResponse(kappa)) == pytest.approx(
            oracle, abs=1e-9
        )


def test_distortion_fidelity_limits():
    p = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    wide = distortion_fidelity(p, ReflectionResponse(kappa_max=1e4))
    narrow = distortion_fidelity(p, ReflectionResponse(kappa_max=1e-3))
    assert wide > 1 - 1e-6
    assert narrow == pytest.approx(0.25, abs=0.02)


def test_fidelity_bounded():
    for shape in SHAPES:
        p = WavePacket(shape, fwhm=50.0)
        for kappa in np.geomspace(1e-3, 1e3, 25):
            f = distortion_fidelity(p, ReflectionResponse(kappa))
            assert 0.25 - 1e-9 <= f <= 1.0 + 1e-12


def test_reference_infidelity_value():
    # FWHM 50 ns Gaussian against a 2*pi*200 MHz reflection: ~1e-3
    p = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    infid = 1 - distortion_fidelity(p, ReflectionResponse(200 * TWO_PI_MHZ))
    assert infid == pytest.approx(1.01e-3, rel=2e-2)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        WavePacket(PulseShape.GAUSSIAN, fwhm=-1.0)
    with pytest.raises(InvalidParameterError):
        ReflectionResponse(kappa_max=0.0)
    # so long a packet's kw**2 underflows to 0: its spectrum has no float form
    long = WavePacket(PulseShape.GAUSSIAN, fwhm=1e200)
    with pytest.raises(NumericalFailureError):
        distortion_fidelity(long, ReflectionResponse(200 * TWO_PI_MHZ))
    # nor do its envelopes: not a zero peak, not a ZeroDivisionError
    with pytest.raises(NumericalFailureError):
        envelope_time(long, 0.0)
    with pytest.raises(NumericalFailureError):
        envelope_freq(long, 0.0)


def test_importing_the_package_does_not_import_scipy_integrate():
    # quad and simpson are imported by the functions that call them, so a
    # command that never integrates does not pay for scipy.integrate
    src = str(Path(wavepackets.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, phonon_qram; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
