"""Time-domain simulation of one conditional phonon-routing operation.

The single excitation is injected directly as the packet envelope u(t)
(equivalent, in the single-excitation manifold, to integrating an emitter
qubit with shaped coupling).  In the control-excited branch the left arm
scatters off the resonant transmon (Lorentzian reflection kernel), so every
output field is a multiple of u or of its reflection r.  Capture amplitudes
are matched-filter overlaps with u over the finite routing window; only two
are computed, <u|u> and <u|r>, and the fixed 50/50 beam splitters act on
those two numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ResolutionError
from .wavepackets import (
    PulseShape,
    ReflectionResponse,
    WavePacket,
    distortion_fidelity,
    envelope_time,
)

__all__ = [
    "Source",
    "RouterSimConfig",
    "RouterSimResult",
    "beam_splitter",
    "scatter_state",
    "simulate_routing",
    "auto_window",
    "sweep_kappa",
    "sweep_window",
]

_SQRT2 = math.sqrt(2.0)
# a grid step peaks at 64 (Gaussian) to 80 (sech) bytes of arrays under
# tracemalloc, so this caps one call near 0.8 GB
_MAX_STEPS = 10**7


class Source(enum.Enum):
    LEFT_QUBIT = "left"
    RIGHT_QUBIT = "right"


def default_dt(kappa_max: float, fwhm: float) -> float:
    return min(0.05 / kappa_max, fwhm / 200.0)


@dataclass(frozen=True)
class RouterSimConfig:
    """Parameters of one conditional-routing simulation.

    ``window`` is the routing time from emission start to capture end (ns);
    the packet is centered at ``window/2``.  ``control_init`` holds the
    (g, e) amplitudes of the control transmon.
    """

    packet: WavePacket
    kappa_max: float
    window: float
    dt: float | None = None
    control_init: tuple[complex, complex] = (1 / _SQRT2, 1 / _SQRT2)
    source: Source = Source.LEFT_QUBIT

    def __post_init__(self) -> None:
        if not self.window > 0:
            raise InvalidParameterError(f"window must be > 0, got {self.window}")
        if not self.kappa_max > 0:
            raise InvalidParameterError("kappa_max must be > 0")
        step = self.step
        if not step > 0:
            raise InvalidParameterError(f"dt must be > 0, got {step}")
        if step > self.window / 1000.0:
            raise InvalidParameterError(
                f"dt={step} exceeds the resolution floor window/1000"
            )
        a, b = self.control_init
        try:
            norm = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a finite but huge amplitude
            norm = math.inf
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise InvalidParameterError(
                f"control_init norm deviates from 1 by {abs(norm - 1.0):.2e}"
            )

    @property
    def step(self) -> float:
        if self.dt is not None:
            return self.dt
        return default_dt(self.kappa_max, self.packet.fwhm)


@dataclass
class RouterSimResult:
    """Outcome of one routing simulation.

    ``final_state`` maps three-qubit basis strings (Q_L, Q_R, Q_C) to
    captured amplitudes; ``leakage`` is the norm lost to uncaptured field;
    ``traces["time"]`` is the full-step time grid.
    """

    final_state: dict[str, complex]
    fidelity: float
    leakage: float
    traces: dict[str, np.ndarray] = field(default_factory=dict)


def beam_splitter(left_amp, right_amp):
    """50/50 splitter: a_L -> (-a_L + a_R)/sqrt2, a_R -> (a_L + a_R)/sqrt2."""
    left_amp = np.asarray(left_amp)
    right_amp = np.asarray(right_amp)
    out_l = (-left_amp + right_amp) / _SQRT2
    out_r = (left_amp + right_amp) / _SQRT2
    if out_l.ndim:
        return out_l, out_r
    return complex(out_l), complex(out_r)


def scatter_state(b_half: np.ndarray, dt: float, kappa: float) -> np.ndarray:
    """Internal scatterer amplitude c on the full-step grid.

    Solves ``c' = -(kappa/2) c + sqrt(kappa) b_in``; the reflected field is
    ``b_in - sqrt(kappa) c``.  ``b_half`` holds the input field on the half-step grid (2N+1 samples).
    Uses the exact one-pole exponential integrator with quadratic (Simpson)
    interpolation of the input over each step; 4th-order accurate.
    """
    from scipy.signal import lfilter

    a = kappa / 2.0
    h = dt
    x = a * h
    decay = math.exp(-x)
    # m_j = int_0^h s^j e^(-a(h-s)) ds: the recursion loses its digits to
    # cancellation as x -> 0, the series j! h^(j+1) sum_k (-x)^k/(k+j+1)! not
    if x < 1e-3:
        m0, m1, m2 = (math.factorial(j) * h ** (j + 1)
                      * sum((-x) ** k / math.factorial(k + j + 1) for k in range(8))
                      for j in range(3))
    else:
        m0 = -math.expm1(-x) / a
        m1 = (h - m0) / a
        m2 = (h * h - 2.0 * m1) / a
    w0 = (2.0 / h**2) * (m2 - 1.5 * h * m1 + 0.5 * h * h * m0)
    wm = (-4.0 / h**2) * (m2 - h * m1)
    w1 = (2.0 / h**2) * (m2 - 0.5 * h * m1)
    drive = math.sqrt(kappa) * (
        w0 * b_half[:-2:2] + wm * b_half[1:-1:2] + w1 * b_half[2::2]
    )
    c = lfilter([1.0], [1.0, -decay], drive)
    return np.concatenate([[0.0], c])


def simulate_routing(config: RouterSimConfig) -> RouterSimResult:
    """Run one conditional routing and score it against the ideal CSWAP."""
    from scipy.integrate import simpson

    kappa = config.kappa_max
    dt = config.step
    if dt * kappa > 0.1:
        raise ResolutionError(
            f"dt*kappa = {dt * kappa:.3f} > 0.1; grid too coarse"
        )
    steps = config.window / dt
    if not steps <= _MAX_STEPS:
        raise ResolutionError(
            f"window/dt = {steps:.3g} steps; the grid limit is {_MAX_STEPS:.0e}"
        )
    n = math.ceil(steps)
    dt = config.window / n
    t_half = np.arange(2 * n + 1) * (dt / 2.0)
    packet = WavePacket(config.packet.shape, config.packet.fwhm, config.window / 2.0)
    u_half = envelope_time(packet, t_half)
    u = u_half[::2]

    # every output field is a multiple of u or of its reflection
    # r = u - sqrt(kappa) c, so capture needs only <u|u> and <u|r>
    s_uu = float(simpson(u * u, dx=dt))
    s_ur = s_uu - math.sqrt(kappa) * float(
        simpson(u * scatter_state(u_half, dt, kappa), dx=dt))

    # first beam splitter; the excitation enters from the source arm
    if config.source is Source.LEFT_QUBIT:
        f_l, f_r = beam_splitter(1.0, 0.0)
    else:
        f_l, f_r = beam_splitter(0.0, 1.0)

    # control |g>: both arms free; control |e>: left arm scatters
    a_g = beam_splitter(f_l * s_uu, f_r * s_uu)
    a_e = beam_splitter(f_l * s_ur, f_r * s_uu)

    alpha, beta = config.control_init
    final = {
        "100": alpha * a_g[0],
        "010": alpha * a_g[1],
        "101": beta * a_e[0],
        "011": beta * a_e[1],
    }
    if config.source is Source.LEFT_QUBIT:
        ideal = {"100": alpha, "011": beta}
    else:
        ideal = {"010": alpha, "101": beta}
    fidelity = abs(sum(np.conj(ideal.get(k, 0.0)) * v for k, v in final.items())) ** 2
    captured = sum(abs(v) ** 2 for v in final.values())
    leakage = 1.0 - captured

    return RouterSimResult(
        final_state=final,
        fidelity=float(fidelity),
        leakage=float(leakage),
        traces={"time": t_half[::2]},
    )


def auto_window(packet: WavePacket, kappa_max: float) -> float:
    """Window long enough that truncation effects are below ~1e-10."""
    return 20.0 * packet.fwhm + 120.0 / kappa_max


def _infidelity_timedomain(packet: WavePacket, kappa: float, window: float) -> float:
    cfg = RouterSimConfig(packet=packet, kappa_max=kappa, window=window)
    return 1.0 - simulate_routing(cfg).fidelity


def sweep_kappa(shapes, fwhm: float, kappas):
    """Infidelity vs kappa_max, one row per (kappa, shape).

    Rows are dicts with ``param`` (kappa in rad/ns), ``shape``,
    ``infidelity`` (closed-form, infinite window) and ``infidelity_td``
    from the long-window time-domain simulation.
    """
    if not len(kappas) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    rows = []
    for s in shapes:
        packet = WavePacket(s, fwhm)
        for k in kappas:
            fidelity = distortion_fidelity(packet, ReflectionResponse(k))
            rows.append({"param": k, "shape": s.value, "infidelity": 1.0 - fidelity,
                         "infidelity_td": _infidelity_timedomain(
                             packet, k, auto_window(packet, k))})
    return rows


def sweep_window(shapes, fwhm: float, kappa_max: float, windows):
    """Infidelity vs routing window at fixed kappa_max."""
    if not len(windows) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    return [
        {"param": w, "shape": s.value,
         "infidelity": _infidelity_timedomain(WavePacket(s, fwhm), kappa_max, w)}
        for s in shapes for w in windows
    ]
