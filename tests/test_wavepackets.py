import ast
import math
import os
import re
import subprocess
import sys
import warnings
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
    # independent route: brute-force trapezoid over a wide dense grid; past
    # |w| = 60/fwhm both spectra are below 1e-40 of their peak
    for fwhm in (10.0, 50.0, 200.0):
        p = WavePacket(shape, fwhm=fwhm)
        w = np.linspace(-60.0 / fwhm, 60.0 / fwhm, 800001)
        u2 = np.abs(envelope_freq(p, w)) ** 2
        for kappa_mhz in (1, 10, 50, 200, 1000, 10000):
            kappa = kappa_mhz * TWO_PI_MHZ
            integral = np.trapezoid(u2 * w ** 2 / (kappa ** 2 + 4 * w ** 2), w)
            oracle = (1.0 - 2.0 * integral) ** 2
            assert distortion_fidelity(p, ReflectionResponse(kappa)) == pytest.approx(
                oracle, abs=1e-13
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
        # the closed forms' limits: F -> 1/4 as kappa -> 0 and F -> 1 as
        # kappa -> inf, also where kappa * fwhm overflows
        for fwhm in (1e-3, 50.0, 1e150):
            p = WavePacket(shape, fwhm=fwhm)
            for kappa in (1e-300, 1e300, math.inf):
                f = distortion_fidelity(p, ReflectionResponse(kappa))
                assert math.isfinite(f) and 0.25 <= f <= 1.0
                if kappa == 1e-300:
                    assert f == pytest.approx(0.25, abs=1e-12)
                else:
                    assert f == 1.0


def test_reference_infidelity_value():
    # FWHM 50 ns Gaussian against a 2*pi*200 MHz reflection: ~1e-3
    p = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    infid = 1 - distortion_fidelity(p, ReflectionResponse(200 * TWO_PI_MHZ))
    assert infid == pytest.approx(1.01e-3, rel=2e-2)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        WavePacket(PulseShape.GAUSSIAN, fwhm=-1.0)
    # an infinite packet has an all-zero envelope, which routes at fidelity 0
    # while its closed form reads 1, so it is refused, as a NaN width is
    for shape in PulseShape:
        for fwhm in (math.inf, math.nan, np.float64(math.inf)):
            with pytest.raises(InvalidParameterError, match="finite and > 0"):
                WavePacket(shape, fwhm=fwhm)
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
    # so short a packet's kw or kw**2 overflows, for a plain or a NumPy float
    # fwhm alike: an error, not an OverflowError or a RuntimeWarning
    for fwhm in (1e-300, 5e-324, np.float64(1e-300), np.float64(5e-324)):
        short = WavePacket(PulseShape.GAUSSIAN, fwhm=fwhm)
        with pytest.raises(NumericalFailureError):
            distortion_fidelity(short, ReflectionResponse(200 * TWO_PI_MHZ))
        with pytest.raises(NumericalFailureError):
            envelope_time(short, 0.0)


def test_importing_the_package_does_not_import_scipy_integrate():
    # the package needs only numpy at run time: importing it or its CLI loads
    # no scipy module, the router integrates by a numpy scan, so routing loads
    # no scipy.signal, and the closed forms evaluate erfcx and the trigamma in
    # math, so no call loads scipy at all
    src = str(Path(wavepackets.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, phonon_qram, phonon_qram.cli; "
            "from phonon_qram import router; "
            "from phonon_qram.router import RouterSimConfig, simulate_routing; "
            "from phonon_qram.wavepackets import (PulseShape, ReflectionResponse, "
            "WavePacket, distortion_fidelity); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "simulate_routing(RouterSimConfig(WavePacket(PulseShape.SECH, 50.0), 1.0, 350.0)); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal'))); "
            "[distortion_fidelity(WavePacket(s, 50.0), ReflectionResponse(1.0)) "
            "for s in PulseShape]; "
            "router.sweep_kappa(list(PulseShape), 50.0, [0.5, 2.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "[]", "[]"]


def test_the_package_imports_only_the_standard_library_and_numpy():
    # the one run-time dependency is numpy: every module the package imports
    # is in the standard library, numpy or the package itself
    tomllib = pytest.importorskip("tomllib")
    package = Path(wavepackets.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "phonon_qram"), (
                    f"{path.name}:{node.lineno} imports {name}")
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    deps = pyproject["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in deps] == ["numpy"]


def test_every_name_the_package_imports_is_used():
    # a module uses each name it imports, or re-exports it in __all__;
    # noise.build_schedule is bound only for the benchmark tracer to rebind
    exempt = {("noise.py", "build_schedule")}
    package = Path(wavepackets.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused = {name: line for name, line in imported.items()
                  if name not in used and (path.name, name) not in exempt}
        assert not unused, f"{path.name} imports {unused} (name: line) and never uses them"


def _ulp_sides(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# a log grid over [1e-12, 1e12]; each kernel's test adds the points one ulp
# either side of its branch switch
_KERNEL_GRID = [float(v) for v in np.geomspace(1e-12, 1e12, 481)]


def test_voigt_ratio_matches_scipy_erfcx():
    from scipy.special import erfcx

    for z in _KERNEL_GRID + _ulp_sides(wavepackets._VOIGT_SWITCH):
        ref = math.sqrt(math.pi) * z * float(erfcx(z))
        assert wavepackets._voigt_ratio(z) == pytest.approx(ref, rel=2e-15, abs=0.0), z


def test_trigamma_matches_scipy_polygamma():
    from scipy.special import polygamma

    for a in _KERNEL_GRID + _ulp_sides(wavepackets._TRIGAMMA_SWITCH):
        ref = float(polygamma(1, a))
        assert wavepackets._trigamma(a) == pytest.approx(ref, rel=2e-15, abs=0.0), a


def test_kernel_exact_values_and_limits():
    assert wavepackets._trigamma(0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-15, abs=0.0)
    assert wavepackets._trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15, abs=0.0)
    # the Voigt ratio sqrt(pi) z erfcx(z) -> 0 as z -> 0, as sqrt(pi) z
    assert wavepackets._voigt_ratio(0.0) == 0.0
    for z in (1e-300, 1e-100, 1e-20):
        assert wavepackets._voigt_ratio(z) == pytest.approx(math.sqrt(math.pi) * z,
                                                           rel=1e-15, abs=0.0)
    # and -> 1 as z -> inf
    assert wavepackets._voigt_ratio(1e200) == 1.0


@pytest.mark.parametrize("shape", SHAPES)
def test_distortion_fidelity_matches_the_scipy_closed_form(shape):
    from scipy.special import erfcx, polygamma

    for fwhm in (1e-3, 4.0, 50.0, 1e3, 1e6):
        packet = WavePacket(shape, fwhm)
        for kappa in np.geomspace(1e-12, 1e12, 121):
            kappa = float(kappa)
            if shape is PulseShape.GAUSSIAN:
                z = kappa / (2.0 * math.sqrt(2.0) * packet.width_param)
                j = (1.0 - math.sqrt(math.pi) * (z * float(erfcx(z)))) / 4.0
            else:
                x = kappa * packet.width_param / 4.0
                j = (1.0 - x * float(polygamma(1, 0.5 + x))) / 4.0
            f = distortion_fidelity(packet, ReflectionResponse(kappa))
            assert f == pytest.approx((1.0 - 2.0 * j) ** 2, rel=0.0, abs=2e-15), (fwhm, kappa)


@pytest.mark.parametrize("shape", SHAPES)
def test_distortion_fidelity_at_the_float_extremes(shape):
    # a finite z or x near the largest float (at fwhm = 4 ns, sqrt(pi) z of
    # kappa = 1e308 overflows; at fwhm = 2 ns x = kappa/4) is exactly F = 1,
    # and a subnormal kappa is F = 1/4, with no overflow, underflow or
    # warning on the way
    top = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fwhm in (4.0, 2.0, 1.0, 1e-3):
            packet = WavePacket(shape, fwhm)
            for kappa in [top - k * (top / 1600) for k in range(1200)] + [1e308]:
                assert distortion_fidelity(packet, ReflectionResponse(kappa)) == 1.0
            for kappa in (5e-324, 1e-310):
                f = distortion_fidelity(packet, ReflectionResponse(kappa))
                assert f == pytest.approx(0.25, abs=1e-12)


def test_masked_gaussian_tails_equal_the_unmasked_exp():
    # a window past the packet's support masks the arguments below -746,
    # whose exp underflows to 0: the values are bit for bit np.exp's
    packet = WavePacket(PulseShape.GAUSSIAN, fwhm=50.0)
    kw = packet.width_param
    peak = (2.0 * kw**2 / np.pi) ** 0.25
    for t in (np.linspace(0.0, 3000.0, 16385), np.linspace(1400.0, 1600.0, 101),
              np.array(0.0), np.array(1500.0)):
        t = t - 1500.0  # a peak at 1,500 ns
        x = -((kw * t) ** 2)
        masked = envelope_time(packet, t)
        assert np.array_equal(masked, peak * np.exp(x))
    assert np.min(-((kw * (np.linspace(0.0, 3000.0, 16385) - 1500.0)) ** 2)) < -800
