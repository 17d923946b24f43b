"""Closed-form query times, heralding rates, and infidelity scalings.

All lifetimes (T1, T2) are in microseconds, all durations (t, T, t_f) in
nanoseconds, and rates in hertz; the unit suffix is part of every argument
name so that nothing silently mixes scales.  math.inf is a valid lifetime
and disables the corresponding channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .qram_types import Encoding
from .scheduling import makespan_slots

__all__ = [
    "HeraldingReport",
    "query_time",
    "success_prob_hybrid",
    "success_prob_standard_vacuum",
    "success_prob_standard_logical",
    "heralding_report",
    "heralding_rate",
    "dephasing_no_error_prob",
    "dephasing_infidelity_approx",
    "thermal_infidelity_bound",
    "distortion_query_infidelity",
    "f_decay_no_error_prob",
    "heralding_sweep_rows",
    "dephasing_sweep_rows",
]

_US = 1e3  # ns per microsecond


def _check_nt(n: int, t_ns: float) -> None:
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not t_ns > 0:
        raise InvalidParameterError(f"t must be > 0, got {t_ns}")


def _check_pos(**kwargs) -> None:
    for name, v in kwargs.items():
        if not v > 0:
            raise InvalidParameterError(f"{name} must be > 0, got {v}")


def query_time(n: int, t_ns: float, encoding: Encoding) -> float:
    """Total query time in ns: `scheduling.makespan_slots` routing steps."""
    _check_nt(n, t_ns)
    return makespan_slots(n, encoding) * t_ns


@dataclass(frozen=True)
class HeraldingReport:
    n: int
    N: int
    T_ns: float
    P_no_error: float
    P_min: float
    P_max: float
    rate_hz: float
    scenario: Encoding


def success_prob_hybrid(
    n: int, t_ns: float, T1_q_us: float, T1_m_us: float
) -> tuple[float, float, float]:
    """Product over the n+1 released excitations: each spends 2kt split
    between waveguide and transmon (equal-superposition average) and the
    remaining T-2kt in a transmon.  Returns (P, P_min, P_max)."""
    _check_nt(n, t_ns)
    _check_pos(T1_q_us=T1_q_us, T1_m_us=T1_m_us)
    T = query_time(n, t_ns, Encoding.HYBRID_DUAL_RAIL)
    Tq, Tm = T1_q_us * _US, T1_m_us * _US
    P = 1.0
    for k in range(n + 1):
        tk = 2 * k * t_ns
        P *= 0.5 * (math.exp(-tk / Tm) + math.exp(-tk / Tq)) * math.exp(-(T - tk) / Tq)
    worst = min(Tq, Tm)
    best = max(Tq, Tm)
    P_min = math.exp(-(n + 1) * (T / Tq - n * t_ns / Tq + n * t_ns / worst))
    P_max = math.exp(-(n + 1) * (T / Tq - n * t_ns / Tq + n * t_ns / best))
    return P, P_min, P_max


def success_prob_standard_vacuum(
    n: int, t_ns: float, T1_q_us: float, T1_m_us: float
) -> float:
    """Vacuum-initialized standard dual-rail: one excitation per logical
    qubit, 2kt in the waveguide, rest in a transmon, T = 2(3n-1)t."""
    _check_nt(n, t_ns)
    _check_pos(T1_q_us=T1_q_us, T1_m_us=T1_m_us)
    T = query_time(n, t_ns, Encoding.STANDARD_DUAL_RAIL_VACUUM)
    Tq, Tm = T1_q_us * _US, T1_m_us * _US
    return math.exp(-(n + 1) * (T / Tq - n * t_ns / Tq + n * t_ns / Tm))


def success_prob_standard_logical(n: int, t_ns: float, T1_q_us: float) -> float:
    """Logical-subspace initialization: every router holds an excitation,
    so the no-decay probability collapses as exp(-2^n T/T1_q).  This is an
    order-of-magnitude scaling, implemented literally."""
    _check_nt(n, t_ns)
    _check_pos(T1_q_us=T1_q_us)
    T = query_time(n, t_ns, Encoding.STANDARD_DUAL_RAIL_LOGICAL)
    return math.exp(-(2 ** n) * T / (T1_q_us * _US))


def heralding_rate(P_no_error: float, T_ns: float) -> float:
    """Successful queries per second: P/T."""
    _check_pos(T_ns=T_ns)
    return P_no_error / (T_ns * 1e-9)


def heralding_report(
    n: int,
    t_ns: float,
    T1_q_us: float,
    T1_m_us: float,
    encoding: Encoding = Encoding.HYBRID_DUAL_RAIL,
) -> HeraldingReport:
    T = query_time(n, t_ns, encoding)
    if encoding is Encoding.HYBRID_DUAL_RAIL:
        P, P_min, P_max = success_prob_hybrid(n, t_ns, T1_q_us, T1_m_us)
    elif encoding is Encoding.STANDARD_DUAL_RAIL_VACUUM:
        P = success_prob_standard_vacuum(n, t_ns, T1_q_us, T1_m_us)
        P_min = P_max = P
    elif encoding is Encoding.STANDARD_DUAL_RAIL_LOGICAL:
        P = success_prob_standard_logical(n, t_ns, T1_q_us)
        P_min = P_max = P
    else:
        raise InvalidParameterError(
            "single-rail has no heralding: losses are undetectable"
        )
    return HeraldingReport(
        n=n, N=2 ** n, T_ns=T, P_no_error=P, P_min=P_min, P_max=P_max,
        rate_hz=heralding_rate(P, T), scenario=encoding,
    )


# ---------------------------------------------------------------------------
# dephasing / thermal / distortion / |f>-decay

def _p_no_dephase(t_ns: float, T2_us: float) -> float:
    """Single qubit: Kraus {sqrt(1-p/2) I, sqrt(p/2) Z}, p = 1-e^{-t/T2}."""
    return 0.5 * (1.0 + math.exp(-t_ns / (T2_us * _US)))


def dephasing_no_error_prob(
    n: int, t_ns: float, T2_q_us: float, T2_m_us: float = math.inf
) -> float:
    """Probability that no excitation dephases during a hybrid query; a
    lower bound on heralding fidelity if any dephasing is counted as total
    loss of fidelity."""
    _check_nt(n, t_ns)
    _check_pos(T2_q_us=T2_q_us, T2_m_us=T2_m_us)
    T = query_time(n, t_ns, Encoding.HYBRID_DUAL_RAIL)
    P = 1.0
    for k in range(n + 1):
        tk = 2 * k * t_ns
        P *= (
            0.5 * (_p_no_dephase(tk, T2_m_us) + _p_no_dephase(tk, T2_q_us))
            * _p_no_dephase(T - tk, T2_q_us)
        )
    return P


def dephasing_infidelity_approx(
    n: int, t_ns: float, T2_q_us: float, T2_m_us: float = math.inf
) -> float:
    """First-order small-error law of `dephasing_no_error_prob`:

        1-P ~ (n+1) t [(7n-4)/T2_q + n/T2_m] / 4.

    Derivation: each factor 1/2 (1 + e^{-tau/T2}) is 1 - tau/(2 T2) to
    first order, so 1-P ~ sum_k [t_k/(4 T2_m) + (2T - t_k)/(4 T2_q)] over
    k = 0..n, with t_k = 2kt and T = 2(2n-1)t; sum_k t_k = n(n+1) t.
    Because P = prod(1 - eps_i) >= 1 - sum eps_i and each eps_i <=
    tau_i/(2 T2), the law L never falls below the exact 1-P.  The gap is
    second order: 1 - e^{-a} >= a - a^2/2 and P <= exp(-sum eps_i) give
    L/(1-P) <= 1/((1 - T/(2 T2))(1 - L/2)), T2 = min(T2_q, T2_m).

    The paper's 2 n^2 t / T2_q is the large-n limit of this law at
    T2_m = T2_q, where it reads (n+1)(2n-1) t / T2_q, and an upper bound
    on it at T2_m = inf for every n, since n^2 - 3n + 4 > 0.  Which
    dephasing model the paper's law itself was derived from is not
    settled by the abstract in PAPER.md.
    """
    _check_nt(n, t_ns)
    _check_pos(T2_q_us=T2_q_us, T2_m_us=T2_m_us)
    rate = (7 * n - 4) / (T2_q_us * _US) + n / (T2_m_us * _US)
    return (n + 1) * t_ns * rate / 4.0


def thermal_infidelity_bound(
    n: int, t_ns: float, T1_us: float, n_th: float
) -> float:
    """Upper estimate 4 n_th n(n+1) T/T1 ~ 16 n_th n^3 t/T1 for thermal
    excitations hitting idle routers."""
    _check_nt(n, t_ns)
    _check_pos(T1_us=T1_us)
    if n_th < 0:
        raise InvalidParameterError(f"n_th must be >= 0, got {n_th}")
    T = query_time(n, t_ns, Encoding.HYBRID_DUAL_RAIL)
    return 4.0 * n_th * n * (n + 1) * T / (T1_us * _US)


def distortion_query_infidelity(epsilon: float, n: int) -> float:
    """Routing-distortion accumulation over a query: 1-F ~ eps * n(n-1)."""
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return epsilon * n * (n - 1)


def f_decay_no_error_prob(n: int, t_f_ns: float, T1_q_us: float) -> float:
    """No |f>->|e> decay during the n entangling releases: exp(-n t_f/T1_q)."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if t_f_ns < 0:
        raise InvalidParameterError(f"t_f must be >= 0, got {t_f_ns}")
    _check_pos(T1_q_us=T1_q_us)
    return math.exp(-n * t_f_ns / (T1_q_us * _US))


# ---------------------------------------------------------------------------
# sweep tables

def heralding_sweep_rows(
    ns,
    t_ns: float,
    T1_q_us: float,
    T1_m_us: float,
    encoding: Encoding = Encoding.HYBRID_DUAL_RAIL,
):
    rows = []
    for n in ns:
        r = heralding_report(n, t_ns, T1_q_us, T1_m_us, encoding)
        rows.append((r.n, r.N, t_ns, T1_q_us, T1_m_us, r.T_ns,
                     r.P_no_error, r.P_min, r.P_max, r.rate_hz))
    return rows


def dephasing_sweep_rows(
    ns, t_ns: float, T2_q_values_us, T2_m_us: float = math.inf
):
    rows = []
    for n in ns:
        for T2 in T2_q_values_us:
            rows.append((
                n, T2,
                dephasing_no_error_prob(n, t_ns, T2, T2_m_us),
                dephasing_infidelity_approx(n, t_ns, T2, T2_m_us),
            ))
    return rows
