"""Time-domain simulation of one conditional phonon-routing operation.

The single excitation is injected directly as the packet envelope u(t)
(equivalent, in the single-excitation manifold, to integrating an emitter
qubit with shaped coupling).  The two interferometer arms are mixed by the
fixed 50/50 beam splitter, the control-excited branch scatters off the
resonant transmon (Lorentzian reflection kernel), and capture amplitudes are
matched-filter overlaps with u over the finite routing window.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

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
        norm = abs(a) ** 2 + abs(b) ** 2
        if abs(norm - 1.0) > 1e-12:
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
    captured amplitudes; ``leakage`` is the norm lost to uncaptured field.
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
    decay = math.exp(-a * h)
    m0 = -math.expm1(-a * h) / a
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
    kappa = config.kappa_max
    dt = config.step
    if dt * kappa > 0.1:
        raise ResolutionError(
            f"dt*kappa = {dt * kappa:.3f} > 0.1; grid too coarse"
        )
    n = max(int(math.ceil(config.window / dt)), 1000)
    dt = config.window / n
    t_half = np.arange(2 * n + 1) * (dt / 2.0)
    packet = WavePacket(config.packet.shape, config.packet.fwhm, config.window / 2.0)
    u_half = np.asarray(envelope_time(packet, t_half), dtype=complex)

    # first beam splitter; the excitation enters from the source arm
    if config.source is Source.LEFT_QUBIT:
        f_l, f_r = beam_splitter(u_half, np.zeros_like(u_half))
    else:
        f_l, f_r = beam_splitter(np.zeros_like(u_half), u_half)

    # control |g>: both arms free; control |e>: left arm scatters
    c_state = scatter_state(f_l, dt, kappa)
    f_l_scat = f_l[::2] - math.sqrt(kappa) * c_state
    f_l_free, f_r_free = f_l[::2], f_r[::2]

    out_g = beam_splitter(f_l_free, f_r_free)
    out_e = beam_splitter(f_l_scat, f_r_free)

    t_full = t_half[::2]
    u_full = u_half[::2]

    def overlap(fld: np.ndarray) -> complex:
        return complex(simpson(np.conj(u_full) * fld, dx=dt))

    a_g = (overlap(out_g[0]), overlap(out_g[1]))
    a_e = (overlap(out_e[0]), overlap(out_e[1]))

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

    emitted = np.concatenate(
        [[0.0], np.cumsum(np.abs(u_full[:-1]) ** 2 + np.abs(u_full[1:]) ** 2) * dt / 2]
    )
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    traces = {
        "time": t_full,
        "source_qubit": 1.0 - emitted,
        "control_qubit": wb * (1.0 + np.abs(c_state) ** 2),
        "emitted_norm": emitted,
    }
    return RouterSimResult(
        final_state=final,
        fidelity=float(fidelity),
        leakage=float(leakage),
        traces=traces,
    )


def auto_window(packet: WavePacket, kappa_max: float) -> float:
    """Window long enough that truncation effects are below ~1e-10."""
    return 20.0 * packet.fwhm + 120.0 / kappa_max


def _infidelity_analytic(args) -> float:
    shape, fwhm, kappa = args
    packet = WavePacket(shape, fwhm)
    return 1.0 - distortion_fidelity(packet, ReflectionResponse(kappa))


def _infidelity_timedomain(args) -> float:
    shape, fwhm, kappa, window = args
    packet = WavePacket(shape, fwhm)
    win = window if window is not None else auto_window(packet, kappa)
    cfg = RouterSimConfig(packet=packet, kappa_max=kappa, window=win)
    return 1.0 - simulate_routing(cfg).fidelity


def _map(fn, items, workers: int):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def sweep_kappa(
    shapes,
    fwhm: float,
    kappas,
    include_timedomain: bool = False,
    workers: int = 1,
):
    """Infidelity vs kappa_max, one row per (kappa, shape).

    Rows are dicts with ``param`` (kappa in rad/ns), ``shape``,
    ``infidelity`` (closed-form, infinite window) and, optionally,
    ``infidelity_td`` from the long-window time-domain simulation.
    """
    if not len(kappas) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    jobs = [(s, fwhm, k) for s in shapes for k in kappas]
    analytic = _map(_infidelity_analytic, jobs, workers)
    rows = [
        {"param": k, "shape": s.value, "infidelity": v}
        for (s, _, k), v in zip(jobs, analytic)
    ]
    if include_timedomain:
        td = _map(
            _infidelity_timedomain, [(s, f, k, None) for s, f, k in jobs], workers
        )
        for row, v in zip(rows, td):
            row["infidelity_td"] = v
    return rows


def sweep_window(
    shapes,
    fwhm: float,
    kappa_max: float,
    windows,
    workers: int = 1,
):
    """Infidelity vs routing window at fixed kappa_max."""
    if not len(windows) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    jobs = [(s, fwhm, kappa_max, w) for s in shapes for w in windows]
    vals = _map(_infidelity_timedomain, jobs, workers)
    return [
        {"param": w, "shape": s.value, "infidelity": v}
        for (s, _, _, w), v in zip(jobs, vals)
    ]
