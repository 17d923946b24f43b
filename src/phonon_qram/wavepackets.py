"""Phonon wavepacket envelopes, the reflection transfer function, and the
distortion-fidelity integral.

Units: times in ns, angular frequencies in rad/ns.  A coupling of
200 MHz is ``kappa_max = 2*pi*0.2`` rad/ns.

Fourier convention: ``u(omega) = (2*pi)**-0.5 * int u(t) exp(+i omega t) dt``.
Under this convention the on-resonance reflection phase is ``r(0) = -1``.

Width convention: ``fwhm`` is the nominal temporal width of the pulse.  The
conversion constants are calibrated against the reported router operating
point (infidelity ~1e-3 at kappa_max = 2*pi*200 MHz for a 50 ns Gaussian):

* Gaussian:  ``u(t) ~ exp(-(t/fwhm)**2)``, i.e. width parameter
  ``kappa_w = 1/fwhm`` (RMS duration ``fwhm/2``).
* Sech:      ``u(t) ~ sech(2 t / fwhm)``, i.e. ``tau = fwhm/2``.

Both shapes therefore have comparable RMS durations at equal ``fwhm``; the
Gaussian has the strictly smaller effective bandwidth, and the sech has the
fatter spectral and temporal tails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError

__all__ = [
    "PulseShape",
    "WavePacket",
    "ReflectionResponse",
    "envelope_time",
    "envelope_freq",
    "reflection_transfer",
    "distortion_fidelity",
]


class PulseShape(enum.Enum):
    GAUSSIAN = "gaussian"
    SECH = "sech"


@dataclass(frozen=True)
class WavePacket:
    """Normalized single-phonon envelope.

    Attributes:
        shape: pulse shape (Gaussian or hyperbolic secant).
        fwhm: nominal temporal width in ns (see module docstring).
        center: time offset of the pulse peak within the simulation window.
    """

    shape: PulseShape
    fwhm: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if not self.fwhm > 0:
            raise InvalidParameterError(f"fwhm must be > 0, got {self.fwhm}")

    @property
    def width_param(self) -> float:
        """Shape-specific width parameter: kappa_w (Gaussian) or tau (sech)."""
        if self.shape is PulseShape.GAUSSIAN:
            return 1.0 / self.fwhm
        return self.fwhm / 2.0

    @property
    def spectral_std(self) -> float:
        """RMS angular bandwidth sqrt(<omega^2>) in rad/ns."""
        if self.shape is PulseShape.GAUSSIAN:
            return self.width_param
        return 1.0 / (math.sqrt(3.0) * self.width_param)


@dataclass(frozen=True)
class ReflectionResponse:
    """Resonant scatterer with transmon-waveguide coupling kappa_max (rad/ns)."""

    kappa_max: float

    def __post_init__(self) -> None:
        if not self.kappa_max > 0:
            raise InvalidParameterError(
                f"kappa_max must be > 0, got {self.kappa_max}"
            )


def envelope_time(packet: WavePacket, t):
    """Time-domain amplitude u(t), unit L2 norm over the real line."""
    t = np.asarray(t, dtype=float)
    dt = t - packet.center
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        peak = (2.0 * kw**2 / np.pi) ** 0.25
        out = peak * np.exp(-((kw * dt) ** 2))
    else:
        tau = packet.width_param
        # normalization from int sech^2(t/tau) dt = 2 tau
        x = np.clip(np.abs(dt) / tau, None, 700.0)
        out = (1.0 / np.sqrt(2.0 * tau)) / np.cosh(x)
    return out if out.ndim else complex(out)


def envelope_freq(packet: WavePacket, omega):
    """Analytic Fourier transform of ``envelope_time`` (unit L2 norm in omega)."""
    omega = np.asarray(omega, dtype=float)
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        mag = (1.0 / (2.0 * np.pi * kw**2)) ** 0.25 * np.exp(
            -(omega**2) / (4.0 * kw**2)
        )
    else:
        tau = packet.width_param
        x = np.clip(np.abs(omega) * np.pi * tau / 2.0, None, 700.0)
        mag = (np.sqrt(np.pi * tau) / 2.0) / np.cosh(x)
    out = mag * np.exp(1j * omega * packet.center)
    return out if out.ndim else complex(out)


def reflection_transfer(resp: ReflectionResponse, omega):
    """Unit-modulus reflection coefficient r(omega) = (i w + k/2)/(i w - k/2)."""
    omega = np.asarray(omega, dtype=float)
    half = resp.kappa_max / 2.0
    out = (1j * omega + half) / (1j * omega - half)
    return out if out.ndim else complex(out)


def _spectral_tail_norm(packet: WavePacket, w: float) -> float:
    """Upper bound on int_{|omega|>w} |u(omega)|^2 domega."""
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        return math.erfc(w / (math.sqrt(2.0) * kw))
    tau = packet.width_param
    x = np.pi * w * tau / 2.0
    return 1.0 - math.tanh(min(x, 700.0))


def _spectral_power(packet: WavePacket):
    """|envelope_freq(packet, w)|**2 as a plain-float function of scalar w."""
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        if kw**2 == 0.0:
            raise NumericalFailureError(f"fwhm={packet.fwhm} ns: the spectral width underflows")
        peak = (1.0 / (2.0 * math.pi * kw**2)) ** 0.25
        return lambda w: (peak * math.exp(-(w * w) / (4.0 * kw**2))) ** 2
    tau = packet.width_param
    peak = math.sqrt(math.pi * tau) / 2.0
    return lambda w: (peak / math.cosh(min(abs(w) * math.pi * tau / 2.0, 700.0))) ** 2


def distortion_fidelity(packet: WavePacket, resp: ReflectionResponse) -> float:
    """Infinite-window routing fidelity of a symmetric packet.

    Evaluates ``F = (1 - 2 * int |u(w)|^2 w^2/(k^2 + 4 w^2) dw)**2`` by
    adaptive quadrature to relative accuracy 1e-8.
    """
    from scipy.integrate import quad

    kappa = resp.kappa_max
    power = _spectral_power(packet)

    def integrand(w: float) -> float:
        return power(w) * w * w / (kappa * kappa + 4.0 * w * w)

    cut = 50.0 * packet.spectral_std
    # integrand <= |u|^2/4 beyond the cut; bound the discarded tail
    tail_bound = 0.25 * _spectral_tail_norm(packet, cut)
    val, err = quad(
        integrand, 0.0, cut, limit=400, epsabs=1e-16, epsrel=1e-10,
        points=[packet.spectral_std, min(cut, kappa / 2.0)],
    )
    j = 2.0 * val
    scale = max(j, 1e-7)  # absolute error floor ~1e-15 for tiny integrals
    if err * 2.0 > 1e-8 * scale or tail_bound > 1e-9 * max(j, 1e-6):
        raise NumericalFailureError(
            "distortion integral did not converge: "
            f"value={j:.3e} err={err:.3e} tail<={tail_bound:.3e}"
        )
    fid = (1.0 - 2.0 * j) ** 2
    return float(fid)
