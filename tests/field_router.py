"""Full-field reference for the router's two-overlap form.

It shares the envelope, the scatterer integrator and the beam splitter of
`phonon_qram.router` but none of the reduction to scalars: the field of
every arm is a complex array, each beam splitter mixes two arrays, and each
of the four capture amplitudes is its own matched-filter overlap.  Comparing
`simulate_routing` against it checks that the routing is linear in the
envelope, as the two-overlap form assumes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson

from phonon_qram.router import Source, beam_splitter, scatter_state
from phonon_qram.wavepackets import WavePacket, envelope_time


def field_run(config) -> tuple[dict, float, float, int]:
    """(final state, fidelity, leakage, time-grid length) of `config`."""
    kappa = config.kappa_max
    n = max(math.ceil(config.window / config.step), 1000)
    dt = config.window / n
    t_half = np.arange(2 * n + 1) * (dt / 2.0)
    packet = WavePacket(config.packet.shape, config.packet.fwhm, config.window / 2.0)
    u_half = np.asarray(envelope_time(packet, t_half), dtype=complex)

    if config.source is Source.LEFT_QUBIT:
        f_l, f_r = beam_splitter(u_half, np.zeros_like(u_half))
    else:
        f_l, f_r = beam_splitter(np.zeros_like(u_half), u_half)

    f_l_scat = f_l[::2] - math.sqrt(kappa) * scatter_state(f_l, dt, kappa)
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
    return final, float(fidelity), float(leakage), len(t_half[::2])
