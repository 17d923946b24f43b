"""Full-field reference for the router's two-overlap form.

It shares the envelope and the beam splitter of `phonon_qram.router` but
neither its scatterer integrator nor its reduction to scalars: the
scatterer runs through `scipy.signal.lfilter` with weights solved from the
step moments, the field of every arm is a complex array, each beam splitter
mixes two arrays, and each of the four capture amplitudes is its own
matched-filter overlap.  Comparing `simulate_routing` against it checks the
router's doubling scan and that the routing is linear in the envelope, as
the two-overlap form assumes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson
from scipy.signal import lfilter

from phonon_qram.router import Source, beam_splitter
from phonon_qram.wavepackets import envelope_time


def lfilter_state(b_half, dt: float, kappa: float, c0=0.0) -> np.ndarray:
    """Scatterer amplitude c on the full-step grid, as `router.scatter_state`.

    Over a step, c' = -(kappa/2) c + sqrt(kappa) b with b quadratic through
    its samples at 0, h/2 and h; the weights of those samples solve
    sum_i w_i sigma_i**j = int_0^1 sigma**j e^(-x(1-sigma)) dsigma, j = 0..2,
    and c_k = e^(-x) c_(k-1) + h sqrt(kappa) (w . b) is a one-pole filter.
    """
    x = kappa * dt / 2.0
    if x < 1.0:  # the moments' series, as the recursion cancels digits
        moments = [math.factorial(j) * sum((-x) ** k / math.factorial(k + j + 1)
                                           for k in range(24)) for j in range(3)]
    else:
        moments = [-math.expm1(-x) / x]
        for j in (1, 2):
            moments.append((1.0 - j * moments[-1]) / x)
    w = np.linalg.solve([[1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]], moments)
    b_half = np.asarray(b_half)
    drive = dt * math.sqrt(kappa) * (w[0] * b_half[:-2:2] + w[1] * b_half[1:-1:2]
                                     + w[2] * b_half[2::2])
    decay = math.exp(-x)
    c, _ = lfilter([1.0], [1.0, -decay], drive, zi=[decay * c0])
    return np.concatenate([[c0], c])


def field_run(config, n: int) -> tuple[dict, float, float]:
    """(final state, fidelity, leakage) of `config` on a grid of n steps."""
    kappa = config.kappa_max
    dt = config.window / n
    t_half = np.arange(2 * n + 1) * (dt / 2.0) - config.window / 2.0  # peak at window/2
    u_half = np.asarray(envelope_time(config.packet, t_half), dtype=complex)

    if config.source is Source.LEFT_QUBIT:
        f_l, f_r = beam_splitter(u_half, np.zeros_like(u_half))
    else:
        f_l, f_r = beam_splitter(np.zeros_like(u_half), u_half)

    f_l_scat = f_l[::2] - math.sqrt(kappa) * lfilter_state(f_l, dt, kappa)
    out_g = beam_splitter(f_l[::2], f_r[::2])
    out_e = beam_splitter(f_l_scat, f_r[::2])

    u = u_half[::2]

    def overlap(fld):
        return complex(simpson(np.conj(u) * fld, dx=dt))

    alpha, beta = config.control_init
    final = {
        "100": alpha * overlap(out_g[0]),
        "010": alpha * overlap(out_g[1]),
        "101": beta * overlap(out_e[0]),
        "011": beta * overlap(out_e[1]),
    }
    if config.source is Source.LEFT_QUBIT:
        ideal = {"100": alpha, "011": beta}
    else:
        ideal = {"010": alpha, "101": beta}
    fidelity = abs(sum(np.conj(ideal.get(k, 0.0)) * v for k, v in final.items())) ** 2
    leakage = 1.0 - sum(abs(v) ** 2 for v in final.values())
    return final, float(fidelity), float(leakage)
