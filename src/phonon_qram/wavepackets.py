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
    """

    shape: PulseShape
    fwhm: float

    def __post_init__(self) -> None:
        try:  # a shape given by value ("gaussian") must not route as a sech
            object.__setattr__(self, "shape", PulseShape(self.shape))
        except ValueError:
            raise InvalidParameterError(f"unknown pulse shape {self.shape!r}") from None
        if not 0 < self.fwhm < math.inf:  # NaN fails too
            raise InvalidParameterError(f"fwhm must be finite and > 0, got {self.fwhm}")

    @property
    def width_param(self) -> float:
        """Shape-specific width parameter: kappa_w (Gaussian) or tau (sech)."""
        if self.shape is PulseShape.GAUSSIAN:
            kw = 1.0 / float(self.fwhm)
            if not 0.0 < kw * kw < math.inf:  # every Gaussian formula scales with kw**2
                raise NumericalFailureError(
                    f"fwhm={self.fwhm} ns: the spectral width {kw:.3g} rad/ns squared "
                    "has no float value")
            return kw
        return float(self.fwhm) / 2.0


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
    """Time-domain amplitude u(t), t relative to the peak, unit L2 norm over
    the real line."""
    t = np.asarray(t, dtype=float)
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        peak = (2.0 * kw**2 / np.pi) ** 0.25
        x = -((kw * t) ** 2)
        # np.exp takes a slow path, 5x, on arguments whose result underflows
        # to 0 (below -745); a window past the packet's support masks them
        if x.size and x.min() < -745.0:
            out = peak * np.exp(x, out=np.zeros_like(x), where=x > -746.0)
        else:
            out = peak * np.exp(x)
    else:
        tau = packet.width_param
        # normalization from int sech^2(t/tau) dt = 2 tau
        x = np.clip(np.abs(t) / tau, None, 700.0)
        out = (1.0 / np.sqrt(2.0 * tau)) / np.cosh(x)
    return out if out.ndim else complex(out)


def envelope_freq(packet: WavePacket, omega):
    """Analytic Fourier transform of ``envelope_time`` (unit L2 norm in omega)."""
    omega = np.asarray(omega, dtype=float)
    if packet.shape is PulseShape.GAUSSIAN:
        kw = packet.width_param
        out = (1.0 / (2.0 * np.pi * kw**2)) ** 0.25 * np.exp(-(omega**2) / (4.0 * kw**2))
    else:
        tau = packet.width_param
        x = np.clip(np.abs(omega) * np.pi * tau / 2.0, None, 700.0)
        out = (np.sqrt(np.pi * tau) / 2.0) / np.cosh(x)
    return out if out.ndim else complex(out)


def reflection_transfer(resp: ReflectionResponse, omega):
    """Unit-modulus reflection coefficient r(omega) = (i w + k/2)/(i w - k/2)."""
    omega = np.asarray(omega, dtype=float)
    half = resp.kappa_max / 2.0
    out = (1j * omega + half) / (1j * omega - half)
    return out if out.ndim else complex(out)


# Voigt ratio: below _VOIGT_SWITCH exp(z^2) erfc(z) is evaluated directly;
# at and above it the asymptotic series sum_k (-1)^k (2k-1)!! r^k, r = 1/(2 z^2),
# whose first omitted term is below 2e-19 there
_VOIGT_SWITCH = 26.0
_VOIGT_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0)
# trigamma: the recurrence lifts a to _TRIGAMMA_SWITCH, where the Bernoulli
# series B_2 ... B_14 ends below 4e-17 relative
_TRIGAMMA_SWITCH = 12.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _voigt_ratio(z: float) -> float:
    """``sqrt(pi) z erfcx(z)`` for z >= 0: 0 at z = 0, 1 as z -> inf."""
    if z >= _VOIGT_SWITCH:
        r = 0.5 / (z * z)
        s = 0.0
        for c in reversed(_VOIGT_SERIES):
            s = c + r * s
        return s
    # z^2 = hi + lo exactly (Dekker), and exp(z^2) = exp(hi) (1 + lo): exp(hi)
    # alone would lose z^2 eps of relative accuracy
    p = _DEKKER * z
    zh = p - (p - z)
    zl = z - zh
    hi = z * z
    lo = ((zh * zh - hi) + 2.0 * zh * zl) + zl * zl
    return math.sqrt(math.pi) * z * (math.exp(hi) * math.erfc(z) * (1.0 + lo))


def _trigamma(a: float) -> float:
    """``psi'(a)`` for a > 0: the recurrence ``psi'(a) = psi'(a+1) + 1/a^2``
    up to a >= 12, then ``1/a + 1/(2 a^2) + sum_k B_2k/a^(2k+1)``."""
    out = 0.0
    while a < _TRIGAMMA_SWITCH:
        out += 1.0 / a / a
        a += 1.0
    t = 1.0 / a
    s = 0.0
    for c in reversed(_BERNOULLI):
        s = c + t * t * s
    return out + t * (1.0 + t * (0.5 + t * s))


def distortion_fidelity(packet: WavePacket, resp: ReflectionResponse) -> float:
    """Infinite-window routing fidelity of a symmetric packet.

    ``F = (1 - 2 J)**2`` with ``J = int |u(w)|^2 w^2/(k^2 + 4 w^2) dw``, in
    closed form.  Both derivations split the weight as
    ``1/4 - (k^2/4)/(k^2 + 4 w^2)``, so only a Lorentzian average is left:

    * Gaussian: ``J = [1 - sqrt(pi) z erfcx(z)]/4``, ``z = k/(2 sqrt 2 kw)``.
      |u|^2 is a normal density of standard deviation kw = 1/fwhm, and its
      Lorentzian average is the Voigt profile at the origin, an erfcx.
    * Sech: ``J = [1 - x psi'(1/2 + x)]/4``, ``x = k tau/4 = k fwhm/8``.
      By Parseval the Lorentzian average ``int |u|^2 dw/(k^2/4 + w^2)`` is
      ``(2/k) int_0^inf A(s) e^{-k s/2} ds`` over the packet's autocorrelation
      ``A(s) = (s/tau)/sinh(s/tau)``; expanding ``1/sinh y = 2 sum_m
      e^{-(2m+1) y}`` sums it to the trigamma function.

    Both kernels use only ``math``.  The Voigt ratio ``sqrt(pi) z erfcx(z)``
    is ``exp(z^2) erfc(z)`` with z^2 split exactly into hi + lo below z = 26,
    and its 8-term asymptotic series in ``1/(2 z^2)`` above.  The trigamma
    is the recurrence up to 12 and the Bernoulli series B_2 ... B_14 there.
    Against 50-digit mpmath both are within 6e-16 relative over
    [1e-12, 1e12]; scipy.special's ``sqrt(pi) z erfcx(z)`` and
    ``polygamma(1, a)`` are within 1.0e-15 and 9e-16 there.

    As k -> 0 both give J -> 1/4 and F -> 1/4.  As k -> inf,
    ``1 - F ~ 1/(2 z^2)`` (Gaussian) and ``1/(12 x^2)`` (sech), so F -> 1;
    an infinite z or x (k = inf, or a product that overflows) returns 1.0.
    """
    kappa = float(resp.kappa_max)
    if packet.shape is PulseShape.GAUSSIAN:
        z = kappa / (2.0 * math.sqrt(2.0) * packet.width_param)
        if z == math.inf:
            return 1.0
        j = (1.0 - _voigt_ratio(z)) / 4.0
    else:
        x = kappa * packet.width_param / 4.0
        if x == math.inf:
            return 1.0
        j = (1.0 - x * _trigamma(0.5 + x)) / 4.0
    return (1.0 - 2.0 * j) ** 2
