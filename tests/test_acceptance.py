"""Acceptance gate: one test per release criterion.

Each criterion is verified at its stated tolerance against an independent
route (closed form, dense replay, or frozen reference value) — tolerances
here are contractual, not tuned to the implementation.
"""

import math

import numpy as np
import pytest

from phonon_qram.analytics import (
    dephasing_infidelity_approx,
    dephasing_no_error_prob,
    heralding_report,
    query_time,
    success_prob_hybrid,
)
from phonon_qram.noise import (
    NoiseModel,
    estimate_success_prob,
    inject_loss,
    sample_trajectory,
)
from phonon_qram.qram import DataRegister, QramConfig, final_state, query
from phonon_qram.qram_types import Encoding
from phonon_qram.router import (
    RouterSimConfig,
    auto_window,
    simulate_routing,
)
from phonon_qram.scheduling import (
    build_schedule,
    residence_intervals,
    validate_schedule,
)
from phonon_qram.wavepackets import (
    PulseShape,
    ReflectionResponse,
    WavePacket,
    distortion_fidelity,
)
from reference_decode import export

TWO_PI_MHZ = 2 * math.pi * 1e-3
HYB = Encoding.HYBRID_DUAL_RAIL
STD = Encoding.STANDARD_DUAL_RAIL_VACUUM


# ---------------------------------------------------------------------------
# 1. router fidelity at the operating point

def test_criterion_1_router_fidelity_operating_point():
    cfg = RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, fwhm=50.0),
        kappa_max=200 * TWO_PI_MHZ,
        window=350.0,
        control_init=(2 ** -0.5, 2 ** -0.5),
    )
    res = simulate_routing(cfg)
    assert abs(res.fidelity - 0.9992) <= 5e-4


# ---------------------------------------------------------------------------
# 2. infidelity vs coupling: monotone curves + oracle equivalence

def test_criterion_2_infidelity_vs_kappa():
    kappas = np.geomspace(10.0, 1000.0, 25) * TWO_PI_MHZ
    for shape in (PulseShape.GAUSSIAN, PulseShape.SECH):
        packet = WavePacket(shape, fwhm=50.0)
        analytic = np.array([
            1.0 - distortion_fidelity(packet, ReflectionResponse(k))
            for k in kappas
        ])
        assert np.all(np.diff(analytic) < 0), f"{shape}: not monotone decreasing"
        for k, infid in zip(kappas, analytic):
            sim = simulate_routing(RouterSimConfig(
                packet=packet, kappa_max=k, window=auto_window(packet, k),
            ))
            assert abs((1.0 - sim.fidelity) - infid) < 1e-4, (shape, k)


# ---------------------------------------------------------------------------
# 3. infidelity vs routing window

def test_criterion_3_infidelity_vs_window():
    kappa = 200 * TWO_PI_MHZ
    windows = np.arange(150.0, 1051.0, 100.0)
    curves = {}
    for shape in (PulseShape.GAUSSIAN, PulseShape.SECH):
        packet = WavePacket(shape, fwhm=50.0)
        curves[shape] = np.array([
            1.0 - simulate_routing(RouterSimConfig(
                packet=packet, kappa_max=kappa, window=w,
            )).fidelity
            for w in windows
        ])
        assert np.all(np.diff(curves[shape]) <= 1e-12), f"{shape}: increasing"
    assert np.all(
        curves[PulseShape.GAUSSIAN] <= curves[PulseShape.SECH] + 1e-12
    )
    g350 = curves[PulseShape.GAUSSIAN][list(windows).index(350.0)]
    assert 0.5e-3 <= g350 <= 2e-3


# ---------------------------------------------------------------------------
# 4. heralding-rate table

def test_criterion_4_heralding_rates():
    t = 350.0
    for n in range(1, 11):
        T = query_time(n, t, HYB)
        # lossless limit: every query succeeds, rate = 1/T exactly
        rep = heralding_report(n, t, T1_q_us=math.inf, T1_m_us=math.inf)
        assert rep.P_no_error == 1.0
        assert rep.rate_hz == 1.0 / (T * 1e-9)
        # finite-lifetime table exists for the four memory lifetimes
        for T1m in (0.5, 2.0, 10.0, math.inf):
            rep = heralding_report(n, t, T1_q_us=100.0, T1_m_us=T1m)
            assert 0.0 < rep.P_no_error <= 1.0
        # equal-lifetime diagonal collapses to the closed form exactly
        for T1 in (0.5, 2.0, 10.0, 100.0):
            rep = heralding_report(n, t, T1_q_us=T1, T1_m_us=T1)
            expect = math.exp(-(n + 1) * T / (T1 * 1e3))
            assert rep.P_no_error == pytest.approx(expect, rel=1e-12)
            assert rep.rate_hz == pytest.approx(expect / (T * 1e-9), rel=1e-12)
    rep = heralding_report(7, t, T1_q_us=100.0, T1_m_us=2.0)
    assert 1e3 <= rep.rate_hz <= 5e3


# ---------------------------------------------------------------------------
# 5. dephasing small-error scaling law
#
# The law is the first-order expansion of the exact product: each factor
# 1/2 (1 + e^{-tau/T2}) is 1 - tau/(2 T2), and summing over the n+1
# excitations (t_k = 2kt, T = 2(2n-1)t) gives, at T2_m = inf,
# 1 - P ~ (n+1)(7n-4) t / (4 T2_q).  It never falls below the exact 1 - P
# and exceeds it only by second-order terms: by at most 6.6% on this grid
# (n = 1, n^2 t / T2_q = 0.049).  The paper's 2 n^2 t / T2_q exceeds this
# law by the factor 8 n^2 / ((n+1)(7n-4)), 1.33 at n = 1 and 8/7 as n
# grows, and is pinned as its bound and limit in test_analytics.py.

def test_criterion_5_dephasing_scaling_law():
    t = 350.0
    for n in range(1, 11):
        for x in (0.005, 0.01, 0.02, 0.049):  # x = n^2 t / T2_q < 0.05
            T2_us = n * n * t / (x * 1e3)
            exact = 1.0 - dephasing_no_error_prob(n, t, T2_us)
            approx = dephasing_infidelity_approx(n, t, T2_us)
            assert abs(approx - exact) <= 0.10 * exact, (
                f"n={n}, n^2 t/T2={x}: approx={approx:.6e} "
                f"exact={exact:.6e} ratio={approx / exact:.3f}"
            )


# ---------------------------------------------------------------------------
# 6. exactness of the noiseless query map

def _purity_on_register(state):
    """tr(rho^2) of the reduced state on the address+bus register slots."""
    m: dict = {}
    for conf, amp in state.amps.items():
        sys_part = frozenset(x for x in conf if x[0][0] == "reg")
        env_part = frozenset(x for x in conf if x[0][0] != "reg")
        m.setdefault(sys_part, {})[env_part] = amp
    sys_keys = list(m)
    purity = 0.0
    for s1 in sys_keys:
        for s2 in sys_keys:
            envs = set(m[s1]) | set(m[s2])
            rho = sum(
                m[s1].get(e, 0.0) * np.conj(m[s2].get(e, 0.0)) for e in envs
            )
            purity += abs(rho) ** 2
    return purity


def test_criterion_6_query_map_exactness():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3):
        N = 2 ** n
        cfg = QramConfig(n=n)
        for _ in range(20):
            # classical register
            bits = rng.integers(0, 2, size=N)
            cdata = DataRegister.classical(bits)
            for j in range(N):
                addr = np.zeros(N, complex)
                addr[j] = 1.0
                res = query(cfg, addr, cdata)
                assert res.tree_ground
                good = res.address_bus.pop((j, int(bits[j])))
                assert abs(good - 1.0) < 1e-10
                assert all(abs(a) < 1e-10 for a in res.address_bus.values())
                final = export(final_state(cfg, addr, cdata))
                assert _purity_on_register(final) == pytest.approx(1.0, abs=1e-10)
            # quantum register: the final state is the exact product of the
            # routed bus qubit with the untouched data cells
            qubits = []
            for _ in range(N):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                qubits.append((complex(v[0]), complex(v[1])))
            qdata = DataRegister.quantum(qubits)
            for j in range(N):
                addr = np.zeros(N, complex)
                addr[j] = 1.0
                res = query(cfg, addr, qdata)
                assert res.tree_ground
                base = {(("dctrl", j), 1)}
                for k in range(n):
                    if (j >> (n - 1 - k)) & 1:
                        base.add((("reg", k), 1))
                expected = {
                    frozenset(base): qubits[j][0],
                    frozenset(base | {(("reg", n), 1)}): qubits[j][1],
                }
                for i in range(N):
                    if i == j:
                        continue
                    nxt = {}
                    for conf, amp in expected.items():
                        nxt[conf] = amp * qubits[i][0]
                        nxt[conf | {(("data", i), 1)}] = amp * qubits[i][1]
                    expected = nxt
                final = export(final_state(cfg, addr, qdata), qubits)
                keys = set(expected) | set(final.amps)
                err = max(
                    abs(final.amps.get(c, 0.0) - expected.get(c, 0.0))
                    for c in keys
                )
                assert err < 1e-10, (n, j, err)
                assert _purity_on_register(final) == pytest.approx(
                    1.0, abs=1e-10
                )


def test_criterion_6_superposed_addresses():
    # coherence across address branches: amplitudes survive with exact phase
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        N = 2 ** n
        cfg = QramConfig(n=n)
        bits = rng.integers(0, 2, size=N)
        data = DataRegister.classical(bits)
        addr = rng.normal(size=N) + 1j * rng.normal(size=N)
        addr /= np.linalg.norm(addr)
        res = query(cfg, addr, data)
        assert res.tree_ground
        for j in range(N):
            got = res.address_bus.get((j, int(bits[j])), 0.0)
            assert abs(got - addr[j]) < 1e-10
            assert abs(res.address_bus.get((j, 1 - int(bits[j])), 0.0)) < 1e-10
        final = export(final_state(cfg, addr, data))
        assert _purity_on_register(final) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# 7. detection completeness

def test_criterion_7_forced_losses_all_detected():
    injections = 0
    for enc in (HYB, STD):
        for n in (2, 5, 7):
            cfg = QramConfig(n=n, encoding=enc)
            T = query_time(n, cfg.t, enc)
            for k in range(n + 1):
                for frac in np.linspace(0.0, 0.999, 30):
                    v = inject_loss(cfg, k, frac * T)
                    assert v.detected, (enc, n, k, frac)
                    assert v.detection_basis is not None
                    injections += 1
    assert injections >= 1000


def test_criterion_7_zero_false_alarms():
    # lossless trajectories (including dephasing-only noise) never herald
    for e_idx, enc in enumerate((HYB, STD)):
        cfg = QramConfig(n=3, encoding=enc)
        for seed in range(100):
            v = sample_trajectory(cfg, NoiseModel(), seed=(e_idx, seed))
            assert v.events == () and not v.detected
        dephase_only = NoiseModel(T2_q=0.1, T2_m=0.1)
        for seed in range(100):
            v = sample_trajectory(cfg, dephase_only, seed=(e_idx, 1, seed))
            assert v.lossless and not v.detected


# ---------------------------------------------------------------------------
# 8. Monte Carlo vs closed form

def test_criterion_8_montecarlo_matches_closed_form():
    t = 350.0
    grid = [
        (n, T1q, T1m)
        for n in (1, 3, 5, 7)
        for (T1q, T1m) in ((100.0, 100.0), (100.0, 2.0), (50.0, 0.5))
    ]
    assert len(grid) == 12
    for i, (n, T1q, T1m) in enumerate(grid):
        cfg = QramConfig(n=n, t=t, encoding=HYB)
        p_closed, _, _ = success_prob_hybrid(n, t, T1q, T1m)
        p_hat, se = estimate_success_prob(
            cfg, NoiseModel(T1_q=T1q, T1_m=T1m), trials=100_000, seed=(2718, i)
        )
        assert se > 0
        assert abs(p_hat - p_closed) < 3 * se, (n, T1q, T1m)


def test_criterion_8_bounds_hold_on_random_draws():
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        t = float(rng.uniform(50.0, 1000.0))
        T1q = float(rng.uniform(0.5, 500.0))
        T1m = float(rng.uniform(0.1, 500.0))
        P, P_min, P_max = success_prob_hybrid(n, t, T1q, T1m)
        assert P_min - 1e-12 <= P <= P_max + 1e-12, (n, t, T1q, T1m)


# ---------------------------------------------------------------------------
# 9. schedule consistency

def test_criterion_9_schedule_consistency():
    t = 350.0
    for n in range(1, 13):
        for enc, slots in ((HYB, 2 * (2 * n - 1)), (STD, 2 * (3 * n - 1))):
            sched = build_schedule(n, enc, t)
            assert sched.makespan_slots == slots
            assert sched.makespan == pytest.approx(slots * t)
            assert validate_schedule(sched) == []
            for k in range(n + 1):
                for rail in enc.rails:
                    wg = sum(
                        b - a
                        for a, b, med in residence_intervals(n, enc, t, k, rail)
                        if med == "waveguide"
                    )
                    assert wg == pytest.approx(2 * k * t)
