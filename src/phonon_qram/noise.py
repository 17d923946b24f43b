"""Monte Carlo loss/dephasing/thermal injection on query trajectories.

Events are drawn on the residence segments of `scheduling.residence_intervals`
(no `Schedule` is built), not per gate: excitation k spends 2kt in the phonon
waveguide and the rest of the query in transmons.  A hybrid released qubit
is an equal superposition of "stayed in the register" and "went down the
tree", sampled as a fair branch choice per (trial, excitation); averaging
reproduces the closed-form success probability exactly.  Excitation k is
lost when its uniform draw u reaches the keep-probability exp(-hazard) of
its branch, at the time the hazard reaches -log(u); trials draw all branch
choices as one array, then all u, a block of trials at a time.  A standard
dual-rail excitation then takes rail 0 or 1 (one slot later) by a fair
draw, which moves its event times but never a verdict.  Dephasing and
thermal events: the rate x time cells of every (excitation, medium, kind)
are laid end to end, one Poisson draw counts the events, and one uniform
point per event picks its cell and its time in that medium; its location
names the excitation, the rail (standard dual-rail) and the medium.

One table per (config, noise model), built once into a bounded cache
(`_exposure`), holds the segments, dwell times, keep-probabilities and
rates; a call adds only its seeded draws and its events.

Detection is a pure function of the final measurement pattern: a lost
excitation leaves a register transmon in |f> (hybrid) or a dual-rail pair
in |00> (standard), both outside the logical subspace.  Dephasing and
thermal events are injected for classification only; neither is visible
to the dual-rail check.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .qram import QramConfig
from .qram_types import Encoding
# nothing here builds a Schedule, but the benchmark tracer binds both names in
# this module, and `_exposure` calls `residence_intervals` through its binding
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
    location: str  # e.g. "excitation3:waveguide", "excitation3:rail1:waveguide"
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


def _classify(cfg: QramConfig, lost: list) -> tuple[bool, str | None]:
    """Detection verdict from the final measurement pattern."""
    if not lost:
        return False, None
    register = "bus" if lost[0] == cfg.n else f"address_{lost[0]}"
    return True, f"{register}:{'00' if cfg.encoding.is_standard else 'f'}"


_MEDIA = ("transmon", "waveguide")
_ROWS = 1 << 14  # trials per block of u draws


@functools.lru_cache(maxsize=128)
def _exposure(cfg: QramConfig, noise: NoiseModel) -> tuple:
    """(branches, rail1, dwell, loss, rates, keep) of a (config, noise model),
    built once and shared, so read only: the rail-0 segments of each
    excitation, then of a hybrid qubit kept in its register; the rail-1
    segments (standard dual-rail); each branch's time per medium; the loss
    rates; the dephasing and thermal (medium, kind, rate); exp(-hazard)."""
    n, enc, t = cfg.n, cfg.encoding, cfg.t
    loss = {m: noise.loss_rate(m) for m in _MEDIA}
    branches = [residence_intervals(n, enc, t, k) for k in range(n + 1)]
    branches.append([(0.0, cfg.makespan_slots * t, "transmon")])
    rail1 = [residence_intervals(n, enc, t, k, 1) for k in range(n + 1)] if enc.is_standard else []
    hazard, dwell = [], []
    for segs in branches:
        h, d = 0.0, dict.fromkeys(_MEDIA, 0.0)
        for start, end, medium in segs:
            h += (end - start) * loss[medium]
            d[medium] += end - start
        hazard.append(h)
        dwell.append(d)
    keep = np.exp(-np.array(hazard))
    rates = tuple((m, kind, r) for m in _MEDIA for kind, r in
                  (("dephase", noise.dephasing_rate(m)), ("thermal", noise.thermal_rate(m))))
    return tuple(branches), tuple(rail1), tuple(dwell), loss, rates, keep


def _draw_losses(cfg: QramConfig, keep, trials: int, rng):
    """Yield (in_tree, u, lost) per (trial, excitation), `_ROWS` trials at a
    time: a hybrid qubit is routed (`in_tree`) or kept in its register by a
    fair draw, all drawn first, and is lost when its u reaches `keep`, its
    branch's keep-probability from the `_exposure` table built once per
    (config, noise model).  The int32 branch draws and the u drawn a block
    at a time give the stream of one int64 and one float draw, in a
    fraction of the memory."""
    shape, std = (trials, cfg.n + 1), cfg.encoding.is_standard
    in_tree = (np.broadcast_to(True, shape) if std
               else rng.integers(0, 2, size=shape, dtype=np.int32).astype(bool))
    for start in range(0, trials, _ROWS):
        branch = in_tree[start:start + _ROWS]
        u = rng.random(branch.shape)
        routed = u >= keep[:-1]
        yield branch, u, routed if std else routed & branch | (u >= keep[-1]) & ~branch


def _time_at(segs, rate: dict, target: float):
    """(time, medium) at which the hazard of `rate` (per medium, 0 where
    absent) summed over segs reaches target, or the end of the last
    segment with a rate if rounding overshoots."""
    hit = None
    for start, end, medium in segs:
        r = rate.get(medium, 0.0)
        if r > 0:
            hit = (min(start + target / r, end), medium)
            if hit[0] < end:
                break
            target = max(target - r * (end - start), 0.0)
    return hit


def sample_trajectory(cfg: QramConfig, noise: NoiseModel, seed) -> TrajectoryVerdict:
    """Draw one noisy trajectory and evaluate end-of-query detection."""
    _check_encoding(cfg)
    n, std = cfg.n, cfg.encoding.is_standard
    branches, rail1, dwell, loss, rates, keep = _exposure(cfg, noise)
    rng = np.random.default_rng(seed)
    in_tree, u, lost = (a[0].tolist() for a in next(_draw_losses(cfg, keep, 1, rng)))
    rails = (rng.random(n + 1) < 0.5).tolist() if std else [False] * (n + 1)
    took = [k if in_tree[k] else -1 for k in range(n + 1)]  # -1: kept in the register

    def event(k, kind, rate, target):
        segs = rail1[k] if rails[k] else branches[took[k]]
        time, medium = _time_at(segs, rate, target)
        rail = f":rail{rails[k]:d}" if std else ""
        return NoiseEvent(time, f"excitation{k}{rail}:{medium}", kind)

    lost_ks = [k for k in range(n + 1) if lost[k]]
    events = [event(k, "loss", loss, -math.log(u[k])) for k in lost_ks]
    cells = [(k, m, kind, r, r * dwell[took[k]][m]) for k in range(n + 1) for m, kind, r in rates]
    ends = list(itertools.accumulate(cell[-1] for cell in cells))
    for x in (rng.random(rng.poisson(ends[-1])) * ends[-1]).tolist():
        i = bisect.bisect_right(ends, x)
        k, m, kind, r, _ = cells[i]
        events.append(event(k, kind, {m: r}, x - (ends[i - 1] if i else 0.0)))
    events.sort(key=lambda e: e.time_ns)
    return TrajectoryVerdict(tuple(events), *_classify(cfg, lost_ks))


def inject_loss(cfg: QramConfig, excitation: int, time_ns: float) -> TrajectoryVerdict:
    """Force a single loss at a given time and run the detection rule.  A
    standard dual-rail loss is on rail 0 and named as `sample_trajectory`
    names one, `excitationK:rail0:medium`."""
    _check_encoding(cfg)
    if not 0 <= excitation <= cfg.n:
        raise InvalidParameterError(f"no excitation {excitation} for n={cfg.n}")
    if not 0 <= time_ns <= cfg.makespan_slots * cfg.t:
        raise InvalidParameterError("loss time outside the query window")
    medium = "transmon"
    for start, end, med in residence_intervals(cfg.n, cfg.encoding, cfg.t, excitation):
        if start <= time_ns < end:
            medium = med
            break
    rail = ":rail0" if cfg.encoding.is_standard else ""
    ev = NoiseEvent(time_ns, f"excitation{excitation}{rail}:{medium}", "loss")
    detected, basis = _classify(cfg, [excitation])
    return TrajectoryVerdict((ev,), detected, basis)


def estimate_success_prob(
    cfg: QramConfig, noise: NoiseModel, trials: int, seed
) -> tuple[float, float]:
    """Fraction of trajectories with zero loss events, with its stderr."""
    _check_encoding(cfg)
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    lossless = trials
    for *_, lost in _draw_losses(cfg, _exposure(cfg, noise)[-1], trials,
                                 np.random.default_rng(seed)):
        # column by column: numpy's any(axis=1) is several times slower on rows this short
        hit = lost[:, 0].copy()
        for col in lost.T[1:]:
            hit |= col
        lossless -= int(np.count_nonzero(hit))
    p_hat = lossless / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return p_hat, stderr
