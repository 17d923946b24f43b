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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ResolutionError
from .wavepackets import (
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
# the grid is walked in blocks, so a step peaks at 8 bytes (the time trace)
# under tracemalloc, and this caps one call near 80 MB; a step halved for its
# error estimate stops here too
_MAX_STEPS = 10**7
# the step-doubling estimate of the fidelity and leakage error above which a
# run raises ResolutionError: the tolerance of the closed-form checks
_TOLERANCE = 1e-9
# a 10**6-step routing (fwhm/dt = 3,200; 10 MHz-1 GHz; 2 cores) ran in 23 ms
# on blocks of 16,384 steps: 8,192 took 12% and 4,096 37% longer on per-block
# call overhead, 32,768 4% less at twice the block memory.  router_sweep's
# grids of 1,000-4,200 steps fit in one block
_BLOCK = 16384


# the scatterer's step weights over h, series in -x = -kappa dt/2 below x = 1:
# the (-x)^k coefficients of the three are (k+1)^2, 4(k+1) and 1-k over
# (k+3)!, summed from the moments mu_j = j! sum_k (-x)^k/(k+j+1)! with no
# cancellation; 20 terms leave a tail below 1e-19 at x = 1
_WEIGHT_SERIES = np.array([[w / math.factorial(k + 3) for w in ((k + 1) ** 2, 4 * (k + 1), 1 - k)]
                           for k in range(20)]).T


class Source(enum.Enum):
    LEFT_QUBIT = "left"
    RIGHT_QUBIT = "right"


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
    control_init: tuple[complex, complex] = (1 / _SQRT2, 1 / _SQRT2)
    source: Source = Source.LEFT_QUBIT

    def __post_init__(self) -> None:
        if not self.window > 0:
            raise InvalidParameterError(f"window must be > 0, got {self.window}")
        if not self.kappa_max > 0:
            raise InvalidParameterError("kappa_max must be > 0")
        a, b = self.control_init
        try:
            norm = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a finite but huge amplitude
            norm = math.inf
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise InvalidParameterError(
                f"control_init norm deviates from 1 by {abs(norm - 1.0):.2e}"
            )


@dataclass
class RouterSimResult:
    """Outcome of one routing simulation.

    ``final_state`` maps three-qubit basis strings (Q_L, Q_R, Q_C) to
    captured amplitudes; ``leakage`` is the norm lost to uncaptured field;
    ``error_estimate`` is the step-doubling estimate of the discretisation
    error of ``fidelity`` and ``leakage``, ``max |x(dt) - x(2 dt)| / 15``;
    ``traces["time"]`` is the full-step time grid.
    """

    final_state: dict[str, complex]
    fidelity: float
    leakage: float
    error_estimate: float
    traces: dict[str, np.ndarray] = field(default_factory=dict)


def beam_splitter(left_amp, right_amp):
    """50/50 splitter: a_L -> (-a_L + a_R)/sqrt2, a_R -> (a_L + a_R)/sqrt2,
    on numbers or on NumPy arrays of the arms' fields."""
    return (-left_amp + right_amp) / _SQRT2, (left_amp + right_amp) / _SQRT2


def scatter_state(b_half: np.ndarray, dt: float, kappa: float, c0=0.0) -> np.ndarray:
    """Internal scatterer amplitude c on the full-step grid.

    Solves ``c' = -(kappa/2) c + sqrt(kappa) b_in``; the reflected field is
    ``b_in - sqrt(kappa) c``.  ``b_half`` holds the input field on the half-step grid (2N+1 samples).
    ``c0`` is c at the first sample (0: the scatterer starts empty), so a grid
    cut at an even half-step index, each piece continuing from the last value
    of the one before, gives the one-shot result exactly.
    Uses the exact one-pole exponential integrator with quadratic (Simpson)
    interpolation of the input over each step; 4th-order accurate.  A step
    whose weights have no float value (a subnormal step, an infinite kappa)
    raises ResolutionError.
    """
    x = kappa * dt / 2.0
    decay = math.exp(-x)
    # the weights over h of the half-step samples at 0, h/2 and h, from the
    # moments mu_j = int_0^1 s^j e^(-x(1-s)) ds: by their recursion, which
    # cancels digits as x -> 0, or by the exact series below x = 1
    if x < 1.0:
        weights = _WEIGHT_SERIES @ (-x) ** np.arange(_WEIGHT_SERIES.shape[1])
    else:
        mu0 = -math.expm1(-x) / x
        mu1 = (1.0 - mu0) / x
        mu2 = (1.0 - 2.0 * mu1) / x
        weights = (2.0 * mu2 - 3.0 * mu1 + mu0, 4.0 * (mu1 - mu2), 2.0 * mu2 - mu1)
    w0, wm, w1 = (dt * math.sqrt(kappa) * float(w) for w in weights)
    # a subnormal step has lost its digits, and an infinite kappa makes
    # inf * 0, a NaN in floats rather than a warning
    if not (dt >= sys.float_info.min and all(map(math.isfinite, (w0, wm, w1)))):
        raise ResolutionError(f"step {dt:.3g} ns at kappa={kappa:.3g} rad/ns has no float weights")
    n = (len(b_half) - 1) // 2
    c = np.empty(n + 1, dtype=np.result_type(b_half, c0))
    c[0] = c0
    c[1:] = w0 * b_half[:-2:2] + wm * b_half[1:-1:2] + w1 * b_half[2::2]
    c[1] += decay * c0
    # c_k = decay c_(k-1) + drive_k as a doubling scan: after the pass at
    # stride s each c_k sums the last 2s drives, so log2(n) vector ops do it,
    # stopping once decay**s, the weight of what is left, is below 1e-18
    s, f = 1, decay
    while s < n and f > 1e-18:
        c[1 + s:] += f * c[1:-s]
        s, f = 2 * s, f * f
    return c


def _sums(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Simpson sums of u*u and u*c over a block's points after its first."""
    return np.array([4.0 * np.dot(u[1::2], u[1::2]) + 2.0 * np.dot(u[2::2], u[2::2]),
                     4.0 * np.dot(u[1::2], c[1::2]) + 2.0 * np.dot(u[2::2], c[2::2])])


def _capture(config: RouterSimConfig, s_uu: float, s_ur: float):
    """Captured state, fidelity and leakage from the overlaps <u|u> and <u|r>."""
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
    fidelity = abs(sum(complex(ideal.get(k, 0.0)).conjugate() * v for k, v in final.items())) ** 2
    captured = sum(abs(v) ** 2 for v in final.values())
    return final, float(fidelity), float(1.0 - captured)


def _route(config: RouterSimConfig, n: int):
    """Captured state, fidelity, leakage and error estimate on n steps, a
    multiple of 4."""
    kappa = float(config.kappa_max)
    dt, peak = config.window / n, config.window / 2.0

    # every output field is a multiple of u or of its reflection
    # r = u - sqrt(kappa) c, so capture needs only <u|u> and <u|r>: Simpson
    # sums over points 0..n, taken block by block with weights 4 on odd and
    # 2 on even points after each block's first.  The step-2dt grid runs on
    # the same blocks: its half-step samples are the full-step u.  n and
    # _BLOCK are multiples of 4, so each block starts on an even point of both.
    c = c2 = np.zeros(1)  # point 0: the scatterer starts empty
    fine, coarse = np.zeros(2), np.zeros(2)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        t = np.arange(2 * start, 2 * stop + 1) * (dt / 2.0) - peak
        u_half = envelope_time(config.packet, t)
        u = u_half[::2]
        if not start:
            u0 = float(u_half[0]) ** 2
        c = scatter_state(u_half, dt, kappa, c[-1])
        c2 = scatter_state(u, 2.0 * dt, kappa, c2[-1])
        fine += _sums(u, c)
        coarse += _sums(u[::2], c2)
    # Simpson's weight on the last point of either grid is 1, not 2
    end, root, runs = u[-1], math.sqrt(kappa), []
    for (s_uu, s_uc), w, h in ((fine, c[-1], dt), (coarse, c2[-1], 2 * dt)):
        s_uu = float(u0 + s_uu - end * end) * h / 3.0
        s_uc = float(s_uc - end * w) * h / 3.0
        runs.append(_capture(config, s_uu, s_uu - root * s_uc))
    (final, fidelity, leakage), (_, fidelity2, leakage2) = runs
    # both grids are 4th order: doubling the step multiplies the error by 16
    estimate = max(abs(fidelity - fidelity2), abs(leakage - leakage2)) / 15.0
    return final, fidelity, leakage, estimate


def simulate_routing(config: RouterSimConfig) -> RouterSimResult:
    """Run one conditional routing and score it against the ideal CSWAP.

    The grid has n = 4 ceil(max(1000, 200 window/fwhm)/4) steps, so both it
    and the step-2dt grid of the error estimate have an even count.  While
    the estimate is above ``_TOLERANCE`` the step is halved (a window cut
    inside the packet starts a scatterer transient 2/kappa long), as long as
    each halving cuts it as a 4th-order error falls; a slower fall, a
    non-finite estimate, a subnormal step or a grid past ``_MAX_STEPS``
    raises ResolutionError.
    """
    # in floats an overflow is inf, not a warning
    steps = 200.0 * float(config.window) / float(config.packet.fwhm)
    if not steps <= _MAX_STEPS:
        raise ResolutionError(f"{steps:.3g} steps (200 window/fwhm) exceed {_MAX_STEPS:.0e}")
    n = 4 * math.ceil(max(1000.0, steps) / 4)
    if not config.window / n >= sys.float_info.min:
        raise ResolutionError(f"step window/{n} = {config.window / n:.3g} ns has lost its digits")
    previous = math.inf
    while True:
        final, fidelity, leakage, estimate = _route(config, n)
        if estimate <= _TOLERANCE:
            break
        # a fall slower than 8-fold is not 4th order, and the estimate's /15 fails
        if not estimate < previous / 8.0 or 2 * n > _MAX_STEPS:
            raise ResolutionError(
                f"dt={config.window / n:.3g} ns: estimated discretisation error "
                f"{estimate:.3g} exceeds {_TOLERANCE:.0e}")
        previous, n = estimate, 2 * n
    time = np.arange(n + 1, dtype=float)
    time *= config.window / n

    return RouterSimResult(
        final_state=final,
        fidelity=fidelity,
        leakage=leakage,
        error_estimate=estimate,
        traces={"time": time},
    )


def auto_window(packet: WavePacket, kappa_max: float) -> float:
    """The packet's float support, 20 fwhm: its ends are below 1e-8 (sech)
    and 1e-43 (Gaussian) of its peak.  The matched filter does not capture
    the scatterer's ringdown past the packet, so the window does not depend
    on ``kappa_max``; the parameter is kept for callers."""
    return 20.0 * packet.fwhm


def _infidelity_timedomain(packet: WavePacket, kappa: float, window: float) -> float:
    cfg = RouterSimConfig(packet=packet, kappa_max=kappa, window=window)
    return 1.0 - simulate_routing(cfg).fidelity


def sweep_kappa(shapes, fwhm: float, kappas):
    """Infidelity vs kappa_max, one row per (kappa, shape).

    Rows are dicts with ``param`` (kappa in rad/ns), ``shape``,
    ``infidelity`` (closed-form, infinite window) and ``infidelity_td``
    from the time-domain simulation over ``auto_window``, the packet's
    support, on the default step: within 1e-9 of the closed form, as
    its error estimate checks.
    """
    if not len(kappas) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    rows = []
    for s in shapes:
        packet = WavePacket(s, fwhm)
        for k in kappas:
            fidelity = distortion_fidelity(packet, ReflectionResponse(k))
            rows.append({"param": k, "shape": packet.shape.value, "infidelity": 1.0 - fidelity,
                         "infidelity_td": _infidelity_timedomain(
                             packet, k, auto_window(packet, k))})
    return rows


def sweep_window(shapes, fwhm: float, kappa_max: float, windows):
    """Infidelity vs routing window at fixed kappa_max."""
    if not len(windows) or not len(shapes):
        raise InvalidParameterError("empty sweep grid")
    return [
        {"param": w, "shape": packet.shape.value,
         "infidelity": _infidelity_timedomain(packet, kappa_max, w)}
        for packet in [WavePacket(s, fwhm) for s in shapes] for w in windows
    ]
