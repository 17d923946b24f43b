"""Monte Carlo loss/dephasing/thermal injection on query trajectories.

Rather than discretizing per gate, events are drawn on the continuous
residence intervals reported by the scheduler: excitation k spends 2kt in
the phonon waveguide and the rest of the query parked in transmons, so a
loss clock ticks at 1/T1_m or 1/T1_q depending on where the excitation
currently lives.  For the hybrid encoding each released qubit is an equal
superposition of "stayed in the register" and "went down the tree", which
is sampled as a fair branch choice per trajectory — averaging reproduces
the closed-form success probability exactly.

Detection is a pure function of the final measurement pattern: a lost
excitation leaves a register transmon in |f> (hybrid) or a dual-rail pair
in |00> (standard), both outside the logical subspace.  Dephasing and
thermal events are injected for classification only; neither is visible
to the dual-rail check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .qram import QramConfig
from .qram_types import Encoding
from .scheduling import build_schedule, residence_intervals

__all__ = [
    "NoiseModel",
    "NoiseEvent",
    "TrajectoryVerdict",
    "sample_trajectory",
    "inject_loss",
    "estimate_success_prob",
]

_US_TO_NS = 1e3


def _rate_per_ns(T_us: float) -> float:
    """Decay rate in 1/ns for a lifetime given in microseconds."""
    if math.isinf(T_us):
        return 0.0
    return 1.0 / (T_us * _US_TO_NS)


@dataclass(frozen=True)
class NoiseModel:
    """Lifetimes in microseconds; math.inf disables a channel."""

    T1_q: float = math.inf
    T1_m: float = math.inf
    T2_q: float = math.inf
    T2_m: float = math.inf
    n_th: float = 0.0

    def __post_init__(self):
        for name in ("T1_q", "T1_m", "T2_q", "T2_m"):
            v = getattr(self, name)
            if not v > 0:
                raise InvalidParameterError(f"{name} must be > 0, got {v}")
        if self.n_th < 0:
            raise InvalidParameterError(f"n_th must be >= 0, got {self.n_th}")
        for t2, t1, pair in (
            (self.T2_q, self.T1_q, "T2_q/T1_q"),
            (self.T2_m, self.T1_m, "T2_m/T1_m"),
        ):
            if math.isfinite(t2) and math.isfinite(t1) and t2 > 2 * t1 + 1e-12:
                raise InvalidParameterError(f"unphysical {pair}: T2 > 2*T1")

    def dephasing_rate(self, medium: str) -> float:
        t2 = self.T2_q if medium == "transmon" else self.T2_m
        t1 = self.T1_q if medium == "transmon" else self.T1_m
        return max(_rate_per_ns(t2) - 0.5 * _rate_per_ns(t1), 0.0)

    def loss_rate(self, medium: str) -> float:
        return _rate_per_ns(self.T1_q if medium == "transmon" else self.T1_m)

    def thermal_rate(self, medium: str) -> float:
        return self.n_th * self.loss_rate(medium)


@dataclass(frozen=True)
class NoiseEvent:
    time_ns: float
    location: str  # e.g. "excitation3:waveguide"
    kind: str      # "loss" | "dephase" | "thermal"


@dataclass(frozen=True)
class TrajectoryVerdict:
    events: tuple
    detected: bool
    detection_basis: str | None = None

    @property
    def lossless(self) -> bool:
        return not any(e.kind == "loss" for e in self.events)


def _check_encoding(cfg: QramConfig) -> None:
    if cfg.encoding is Encoding.SINGLE_RAIL:
        raise InvalidParameterError(
            "single-rail carries no error-detection structure; "
            "use a hybrid or standard encoding"
        )


def _register_name(cfg: QramConfig, k: int) -> str:
    return "bus" if k == cfg.n else f"address_{k}"


def _classify(cfg: QramConfig, lost: list) -> tuple[bool, str | None]:
    """Detection verdict from the final measurement pattern."""
    if not lost:
        return False, None
    k = lost[0]
    if cfg.encoding is Encoding.HYBRID_DUAL_RAIL:
        return True, f"{_register_name(cfg, k)}:f"
    return True, f"{_register_name(cfg, k)}:00"


def _draw_losses(cfg: QramConfig, noise: NoiseModel, trials: int, rng):
    """Branch choice and loss verdict for every (trial, excitation).

    Returns (tree, register, in_tree, u, lost): `tree[k]` are excitation
    k's residence segments when it is routed, `register` the segments of a
    hybrid qubit that stayed in its register, and excitation k is lost when
    its uniform draw u >= exp(-hazard) over the segments it occupies.
    """
    sched = build_schedule(cfg.n, cfg.encoding, cfg.t)
    tree = [residence_intervals(sched, k) for k in range(cfg.n + 1)]
    register = [(0.0, sched.makespan, "transmon")]
    haz_tree = np.array([sum((end - start) * noise.loss_rate(med)
                             for start, end, med in segs) for segs in tree])
    shape = (trials, cfg.n + 1)
    if cfg.encoding is Encoding.HYBRID_DUAL_RAIL:
        in_tree = rng.integers(0, 2, size=shape).astype(bool)
        hazard = np.where(in_tree, haz_tree, sched.makespan * noise.loss_rate("transmon"))
    else:
        in_tree = np.broadcast_to(True, shape)
        hazard = haz_tree
    u = rng.random(shape)
    return tree, register, in_tree, u, u >= np.exp(-hazard)


def _loss_at(segs, noise: NoiseModel, target: float):
    """(time, medium) at which the cumulative loss hazard over segs reaches
    target, or the end of the last lossy segment if rounding overshoots."""
    hit = None
    for start, end, medium in segs:
        rate = noise.loss_rate(medium)
        if rate > 0:
            hit = (min(start + target / rate, end), medium)
            if hit[0] < end:
                break
            target = max(target - rate * (end - start), 0.0)
    return hit


def sample_trajectory(cfg: QramConfig, noise: NoiseModel, seed) -> TrajectoryVerdict:
    """Draw one noisy trajectory and evaluate end-of-query detection."""
    _check_encoding(cfg)
    rng = np.random.default_rng(seed)
    tree, register, in_tree, u, lost = _draw_losses(cfg, noise, 1, rng)
    events: list[NoiseEvent] = []
    for k in range(cfg.n + 1):
        segs = tree[k] if in_tree[0, k] else register
        if lost[0, k]:
            t_loss, medium = _loss_at(segs, noise, -math.log(u[0, k]))
            events.append(NoiseEvent(t_loss, f"excitation{k}:{medium}", "loss"))
        # dephasing / thermal: Poisson counts per segment, classification only
        for start, end, medium in segs:
            dur = end - start
            for kind, rate in (("dephase", noise.dephasing_rate(medium)),
                               ("thermal", noise.thermal_rate(medium))):
                if rate <= 0 or dur <= 0:
                    continue
                for _ in range(rng.poisson(rate * dur)):
                    events.append(NoiseEvent(
                        start + dur * rng.random(),
                        f"excitation{k}:{medium}", kind,
                    ))
    events.sort(key=lambda e: e.time_ns)
    detected, basis = _classify(cfg, np.flatnonzero(lost[0]).tolist())
    return TrajectoryVerdict(tuple(events), detected, basis)


def inject_loss(cfg: QramConfig, excitation: int, time_ns: float) -> TrajectoryVerdict:
    """Force a single loss at a given time and run the detection rule."""
    _check_encoding(cfg)
    if not 0 <= excitation <= cfg.n:
        raise InvalidParameterError(f"no excitation {excitation} for n={cfg.n}")
    sched = build_schedule(cfg.n, cfg.encoding, cfg.t)
    if not 0 <= time_ns <= sched.makespan:
        raise InvalidParameterError("loss time outside the query window")
    medium = "transmon"
    for start, end, med in residence_intervals(sched, excitation):
        if start <= time_ns < end:
            medium = med
            break
    ev = NoiseEvent(time_ns, f"excitation{excitation}:{medium}", "loss")
    detected, basis = _classify(cfg, [excitation])
    return TrajectoryVerdict((ev,), detected, basis)


def estimate_success_prob(
    cfg: QramConfig, noise: NoiseModel, trials: int, seed
) -> tuple[float, float]:
    """Fraction of trajectories with zero loss events, with its stderr."""
    _check_encoding(cfg)
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    ok = ~_draw_losses(cfg, noise, trials, np.random.default_rng(seed))[-1].any(axis=1)
    p_hat = float(ok.mean())
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return p_hat, stderr
