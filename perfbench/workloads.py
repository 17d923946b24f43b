"""Seeded inputs, timed calls and output checks for the benchmark workloads.

Every cost-relevant draw is stratified: the item class counts below are
fixed, data registers hold exactly N/2 ones, addresses have full support and
kappa/window draws take one point per stratum.  Any seed therefore gives the
same cost profile; only values inside each class move.  The package sees only
the generated inputs.

Checks read the public result surface (``QueryResult.address_bus`` and
``tree_ground``, ``RouterSimResult.fidelity``, verdict fields, returned
tables), never the state's configuration encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from phonon_qram import analytics, noise, qram, router, scheduling, wavepackets
from phonon_qram.qram_types import Encoding
from phonon_qram.wavepackets import PulseShape, ReflectionResponse, WavePacket

TWO_PI_MHZ = 2.0 * math.pi * 1e-3  # MHz -> rad/ns
T_NS = 350.0
FWHM_NS = 50.0
KAPPA_OP = 200.0 * TWO_PI_MHZ
ENCODINGS = {
    "single": Encoding.SINGLE_RAIL,
    "hybrid": Encoding.HYBRID_DUAL_RAIL,
    "standard": Encoding.STANDARD_DUAL_RAIL_VACUUM,
}
AMP_TOL = 1e-10          # address_bus entries against alpha_j
ROUTER_TOL = 1e-4        # time domain vs closed form (criterion 2)
OP_FIDELITY, OP_TOL = 0.9992, 5e-4   # router operating point (criterion 1)
MC_SIGMAS = 4.0
# every channel on; T1_q/T1_m put the no-loss probability in [0.05, 0.95]
# for n = 4..10 on both encodings
NOISE = noise.NoiseModel(T1_q=300.0, T1_m=20.0, T2_q=200.0, T2_m=20.0, n_th=0.01)


@dataclass
class Item:
    cls: str
    call: Callable[[], Any]                 # the timed call into the package
    check: Callable[[Any], list]            # problems found in its output
    digest: Callable[[Any], tuple]          # output numbers for the fingerprint


@dataclass
class Workload:
    name: str
    items: list
    # checks over a whole pass: (outputs in item order) -> {item index: problem}
    pass_check: Callable[[list], dict] | None = None


def _unit_complex(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _half_ones(rng, N):
    bits = np.zeros(N, dtype=int)
    bits[rng.permutation(N)[: N // 2]] = 1
    return bits


def _compare(got: dict, want: dict, what: str) -> list:
    problems = []
    for key in sorted(got.keys() | want.keys()):
        g, w = got.get(key, 0.0), want.get(key, 0.0)
        if not abs(g - w) <= AMP_TOL:
            problems.append(f"{what}{key} = {g!r}, expected {w!r}")
    return problems


def _query_digest(res) -> tuple:
    return tuple(
        (j, lvl, complex(a).real, complex(a).imag)
        for (j, lvl), a in sorted(res.address_bus.items())
    )


def _query_item(cls, n, enc, address, data, want) -> Item:
    cfg = qram.QramConfig(n=n, t=T_NS, encoding=ENCODINGS[enc])

    def check(res):
        problems = [] if res.tree_ground else ["tree not returned to ground"]
        return problems + _compare(res.address_bus, want, "address_bus")

    return Item(cls, lambda: qram.query(cfg, address, data), check, _query_digest)


def classical_item(cls, rng, n, enc) -> Item:
    """|alpha> over N addresses against N classical bits:
    address_bus[(j, D_j)] must equal alpha_j and every other entry vanish."""
    N = 2 ** n
    bits = _half_ones(rng, N)
    alpha = _unit_complex(rng, N)
    want = {(j, int(bits[j])): complex(alpha[j]) for j in range(N)}
    return _query_item(cls, n, enc, alpha, qram.DataRegister.classical(bits), want)


def quantum_item(cls, rng, n, enc) -> Item:
    """Quantum data: the bus weights must be |alpha_j||a_j| and |alpha_j||b_j|."""
    N = 2 ** n
    alpha = _unit_complex(rng, N)
    cells = [tuple(_unit_complex(rng, 2)) for _ in range(N)]
    want = {}
    for j, (a, b) in enumerate(cells):
        want[(j, 0)] = abs(alpha[j]) * abs(a)
        want[(j, 1)] = abs(alpha[j]) * abs(b)
    return _query_item(cls, n, enc, alpha, qram.DataRegister.quantum(cells), want)


# (mode, n, encoding, items per pass).  Per-class latencies on the seed code
# sort as q2 single (11 ms) < q2 hybrid (14) < c4 single (21) < c4 hybrid,
# q2 standard (26) < c4 standard (46) < c5 (120-240) < c6, q3 (0.8-1.7 s).
# The p50 rank sits 40 items deep inside the c4 single block and the p90
# rank 8 items deep inside the c4 standard block, whose neighbours cost 1.7x
# less and 2.5x more; few items sit in the classes next to c4 single, so a
# host slowing part of a run cannot move a neighbour class onto either rank.
# The four n=6/quantum n=3 items carry over half of the pass time.
SUPERPOSED = {
    "full": [
        ("quantum", 2, "single", 18), ("quantum", 2, "hybrid", 17),
        ("quantum", 2, "standard", 4),
        ("classical", 4, "single", 80), ("classical", 4, "hybrid", 8),
        ("classical", 4, "standard", 16),
        ("classical", 5, "single", 1), ("classical", 5, "hybrid", 1),
        ("classical", 5, "standard", 1),
        ("classical", 6, "single", 1), ("classical", 6, "hybrid", 1),
        ("classical", 6, "standard", 1),
        ("quantum", 3, "hybrid", 1),
    ],
    "smoke": [
        ("quantum", 2, "single", 1), ("quantum", 2, "hybrid", 1),
        ("quantum", 2, "standard", 1),
        ("classical", 3, "single", 2), ("classical", 3, "hybrid", 2),
        ("classical", 3, "standard", 2),
    ],
}


def query_superposed(rng, size) -> Workload:
    items = []
    for mode, n, enc, count in SUPERPOSED[size]:
        make = classical_item if mode == "classical" else quantum_item
        cls = f"{mode}/n{n}/{enc}"
        items.extend(make(cls, rng, n, enc) for _ in range(count))
    return Workload("query_superposed", items)


def _stratified(rng, count):
    """One uniform draw in each of `count` equal strata of [0, 1)."""
    return (np.arange(count) + rng.random(count)) / count


def _kappa_item(shape, mhz) -> Item:
    packet = WavePacket(shape, FWHM_NS)
    kappa = mhz * TWO_PI_MHZ
    decade = "10-100MHz" if mhz < 100.0 else "100-1000MHz"

    def call():
        closed = wavepackets.distortion_fidelity(packet, ReflectionResponse(kappa))
        sim = router.simulate_routing(router.RouterSimConfig(
            packet=packet, kappa_max=kappa, window=router.auto_window(packet, kappa),
        ))
        return closed, sim

    def check(out):
        closed, sim = out
        diff = (1.0 - sim.fidelity) - (1.0 - closed)
        if not abs(diff) < ROUTER_TOL:
            return [f"kappa={mhz:.6g} MHz: time-domain minus closed-form "
                    f"infidelity {diff:.3e}"]
        return []

    def digest(out):
        closed, sim = out
        return closed, sim.fidelity, sim.leakage

    return Item(f"kappa/{shape.value}/{decade}", call, check, digest)


def _window_item(shape, window, closed) -> Item:
    """Window sweep at kappa_op.  A finite window only adds infidelity; from
    350 ns on the truncation is below the criterion-2 tolerance."""
    cfg = router.RouterSimConfig(
        packet=WavePacket(shape, FWHM_NS), kappa_max=KAPPA_OP, window=window,
    )

    def check(sim):
        infid, ref = 1.0 - sim.fidelity, 1.0 - closed
        if not ref - ROUTER_TOL <= infid <= 1.0:
            return [f"window={window:.6g} ns: infidelity {infid:.3e} below "
                    f"closed form {ref:.3e}"]
        if window >= 350.0 and not abs(infid - ref) < ROUTER_TOL:
            return [f"window={window:.6g} ns: infidelity {infid:.3e} vs "
                    f"closed form {ref:.3e}"]
        return []

    return Item(f"window/{shape.value}", lambda: router.simulate_routing(cfg),
                check, lambda sim: (sim.fidelity, sim.leakage))


def _operating_point_item() -> Item:
    cfg = router.RouterSimConfig(
        packet=WavePacket(PulseShape.GAUSSIAN, FWHM_NS), kappa_max=KAPPA_OP,
        window=350.0,
    )

    def check(sim):
        if not abs(sim.fidelity - OP_FIDELITY) <= OP_TOL:
            return [f"operating point fidelity {sim.fidelity!r}"]
        return []

    return Item("operating_point", lambda: router.simulate_routing(cfg), check,
                lambda sim: (sim.fidelity, sim.leakage))


# kappa strata per shape (log-uniform over [10 MHz, 1 GHz]; an even count
# splits evenly over the two decades) and window strata per shape over
# [150, 1050] ns.  Item cost grows smoothly with kappa, so neighbouring ranks
# have like-sized items and many strata keep the percentile draws close
# across seeds.
ROUTER = {"full": (200, 20), "smoke": (4, 2)}


def router_sweep(rng, size) -> Workload:
    kappa_strata, window_strata = ROUTER[size]
    items = []
    for shape in PulseShape:
        for x in _stratified(rng, kappa_strata):
            items.append(_kappa_item(shape, 10.0 ** (1.0 + 2.0 * x)))
        closed = wavepackets.distortion_fidelity(
            WavePacket(shape, FWHM_NS), ReflectionResponse(KAPPA_OP))
        for x in _stratified(rng, window_strata):
            items.append(_window_item(shape, 150.0 + 900.0 * x, closed))
    items.append(_operating_point_item())
    return Workload("router_sweep", items)


def _p_no_loss(enc: str, n: int, T1_q: float, T1_m: float) -> float:
    if enc == "hybrid":
        return analytics.success_prob_hybrid(n, T_NS, T1_q, T1_m)[0]
    return analytics.success_prob_standard_vacuum(n, T_NS, T1_q, T1_m)


def _trajectory_item(cls, enc, n, seed) -> Item:
    cfg = qram.QramConfig(n=n, t=T_NS, encoding=ENCODINGS[enc])

    def check(v):
        if v.detected != (not v.lossless):
            return [f"detected={v.detected} but lossless={v.lossless}"]
        return []

    def digest(v):
        return (v.detected, v.detection_basis) + tuple(
            (e.time_ns, e.location, e.kind) for e in v.events)

    return Item(cls, lambda: noise.sample_trajectory(cfg, NOISE, seed), check, digest)


def _mc_item(n, T1_q, T1_m, trials, seed) -> Item:
    cfg = qram.QramConfig(n=n, t=T_NS, encoding=Encoding.HYBRID_DUAL_RAIL)
    model = noise.NoiseModel(T1_q=T1_q, T1_m=T1_m)
    p = _p_no_loss("hybrid", n, T1_q, T1_m)
    # sigma from the closed-form p: p_hat can be 0 where p is tiny
    sigma = math.sqrt(p * (1.0 - p) / trials)

    def check(out):
        p_hat, _ = out
        if not abs(p_hat - p) <= MC_SIGMAS * sigma:
            return [f"n={n} T1_q={T1_q} T1_m={T1_m}: p_hat={p_hat!r} vs {p!r} "
                    f"({abs(p_hat - p) / sigma:.2f} sigma)"]
        return []

    return Item("success_prob/criterion8",
                lambda: noise.estimate_success_prob(cfg, model, trials, seed),
                check, lambda out: tuple(out))


def _heralding_item(enc, ns, T1_us) -> Item:
    """At T1_q = T1_m every excitation decays over the whole query, so
    P = exp(-(n+1)T/T1) exactly, with T = makespan slots * t."""
    encoding = ENCODINGS[enc]

    def check(rows):
        problems = []
        for n, _N, _t, _q, _m, T, P, P_min, P_max, rate in rows:
            slots = 2 * (3 * n - 1) if encoding.is_standard else 2 * (2 * n - 1)
            want = math.exp(-(n + 1) * slots * T_NS / (T1_us * 1e3))
            if (T != slots * T_NS or not math.isclose(P, want, rel_tol=1e-12)
                    or not P_min - 1e-12 <= P <= P_max + 1e-12
                    or not math.isclose(rate, P / (T * 1e-9), rel_tol=1e-12)):
                problems.append(f"heralding row n={n}: T={T!r} P={P!r} want {want!r}")
        return problems

    return Item(f"heralding/{enc}",
                lambda: analytics.heralding_sweep_rows(ns, T_NS, T1_us, T1_us, encoding),
                check, lambda rows: tuple(tuple(r) for r in rows))


def _dephasing_item(ns, T2s) -> Item:
    """1-P against the leading-order expansion of the exact product,
    (n+1)(7n-4)t/(4 T2); the relative gap is below 2 n^2 t/T2 wherever
    n^2 t/T2 <= 0.05."""

    def check(rows):
        problems = []
        table = {(n, T2): P for n, T2, P, _ in rows}
        for n, T2, P, _ in rows:
            x = n * n * T_NS / (T2 * 1e3)
            lead = (n + 1) * (7 * n - 4) * T_NS / (4.0 * T2 * 1e3)
            if not 0.0 < P <= 1.0:
                problems.append(f"dephasing n={n} T2={T2}: P={P!r}")
            elif x <= 0.05 and not abs((1.0 - P) / lead - 1.0) <= 2.0 * x:
                problems.append(f"dephasing n={n} T2={T2}: 1-P={1 - P!r} vs {lead!r}")
            if (n - 1, T2) in table and not P < table[(n - 1, T2)]:
                problems.append(f"dephasing n={n} T2={T2}: P does not fall with n")
        return problems

    return Item("dephasing_table",
                lambda: analytics.dephasing_sweep_rows(ns, T_NS, T2s),
                check, lambda rows: tuple(tuple(r) for r in rows))


def _schedules_item(ns) -> Item:
    def call():
        out = []
        for n in ns:
            for enc in ("hybrid", "standard"):
                sched = scheduling.build_schedule(n, ENCODINGS[enc], T_NS)
                out.append((n, enc, sched.makespan,
                            scheduling.validate_schedule(sched),
                            analytics.query_time(n, T_NS, ENCODINGS[enc])))
        return out

    def check(rows):
        problems = []
        for n, enc, makespan, found, qtime in rows:
            cfg = qram.QramConfig(n=n, t=T_NS, encoding=ENCODINGS[enc])
            if found:
                problems.append(f"schedule n={n} {enc}: {found}")
            if not makespan == qtime == cfg.makespan_slots * T_NS:
                problems.append(f"schedule n={n} {enc}: makespan {makespan!r}, "
                                f"query_time {qtime!r}, "
                                f"config {cfg.makespan_slots * T_NS!r}")
        return problems

    return Item("schedules", call, check,
                lambda rows: tuple((n, e, m, len(f), q) for n, e, m, f, q in rows))


# trajectories per class; the sorted per-class latencies on the seed code are
# h4 < s4 < h7 < s7 < h10 < s10, so the p50 rank sits mid-block in h7 and
# the p90 rank mid-block in s10.  The 16 batch and closed-form items stay
# under 5% of a pass and sort above or below both percentiles.
TRAJECTORIES = {
    "full": {4: 91, 7: 51, 10: 60},
    "smoke": {4: 12, 7: 12},
}
CRITERION8 = [(n, T1_q, T1_m) for n in (1, 3, 5, 7)
              for T1_q, T1_m in ((100.0, 100.0), (100.0, 2.0), (50.0, 0.5))]


def noise_mc(rng, size) -> Workload:
    items = []
    for n, count in TRAJECTORIES[size].items():
        for enc in ("hybrid", "standard"):
            for seed in rng.integers(0, 2 ** 63, size=count):
                items.append(_trajectory_item(f"trajectory/{enc}/n{n}", enc, n, int(seed)))
    trials = 100_000 if size == "full" else 2_000
    grid = CRITERION8 if size == "full" else CRITERION8[:3]
    for (n, T1_q, T1_m), seed in zip(grid, rng.integers(0, 2 ** 63, size=len(grid))):
        items.append(_mc_item(n, T1_q, T1_m, trials, int(seed)))
    ns = range(1, 11)
    items.append(_heralding_item("hybrid", ns, 100.0))
    items.append(_heralding_item("standard", ns, 100.0))
    items.append(_dephasing_item(ns, [100.0, 300.0, 1000.0]))
    items.append(_schedules_item(ns))

    def pass_check(outputs):
        """Loss fraction per class within 4 sigma of the closed form, with
        sigma from the closed-form p; a miss fails every item of the class."""
        groups: dict = {}
        for i, (item, v) in enumerate(zip(items, outputs)):
            if item.cls.startswith("trajectory/"):
                groups.setdefault(item.cls, []).append((i, v))
        failed = {}
        for cls, members in groups.items():
            _, enc, n = cls.split("/")
            p = _p_no_loss(enc, int(n[1:]), NOISE.T1_q, NOISE.T1_m)
            m = len(members)
            lost = sum(1 for _, v in members if v is None or not v.lossless)
            sigma = math.sqrt(p * (1.0 - p) / m)
            if not abs(lost / m - (1.0 - p)) <= MC_SIGMAS * sigma:
                problem = (f"{cls}: loss fraction {lost / m:.4f} vs closed form "
                           f"{1.0 - p:.4f} (sigma {sigma:.4f})")
                failed.update((i, problem) for i, _ in members)
        return failed

    return Workload("noise_mc", items, pass_check)


BUILDERS = {
    "query_superposed": query_superposed,
    "router_sweep": router_sweep,
    "noise_mc": noise_mc,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Item list of one pass, in a seeded order."""
    rng = np.random.default_rng(seed)
    wl = BUILDERS[name](rng, size)
    order = rng.permutation(len(wl.items))
    # in place: a pass check indexes outputs through the same list
    wl.items[:] = [wl.items[i] for i in order]
    return wl


def cold_calls(name: str) -> list:
    """(entry, call) for the first, cold call of each public entry a workload
    uses, on the smallest valid input."""
    if name == "query_superposed":
        cfg = qram.QramConfig(n=1, encoding=Encoding.HYBRID_DUAL_RAIL)
        return [("qram.query", lambda: qram.query(
            cfg, [1.0, 0.0], qram.DataRegister.classical([0, 1])))]
    if name == "router_sweep":
        packet = WavePacket(PulseShape.GAUSSIAN, FWHM_NS)
        return [
            ("wavepackets.distortion_fidelity", lambda: wavepackets.distortion_fidelity(
                packet, ReflectionResponse(KAPPA_OP))),
            ("router.simulate_routing", lambda: router.simulate_routing(
                router.RouterSimConfig(packet=packet, kappa_max=KAPPA_OP, window=350.0))),
        ]
    cfg = qram.QramConfig(n=1, t=T_NS, encoding=Encoding.HYBRID_DUAL_RAIL)
    enc = Encoding.HYBRID_DUAL_RAIL
    return [
        ("noise.sample_trajectory", lambda: noise.sample_trajectory(cfg, NOISE, 0)),
        ("noise.estimate_success_prob", lambda: noise.estimate_success_prob(
            cfg, NOISE, 10, 0)),
        ("analytics.heralding_sweep_rows", lambda: analytics.heralding_sweep_rows(
            [1], T_NS, 100.0, 100.0, enc)),
        ("analytics.dephasing_sweep_rows", lambda: analytics.dephasing_sweep_rows(
            [1], T_NS, [100.0])),
        ("scheduling.validate_schedule", lambda: scheduling.validate_schedule(
            scheduling.build_schedule(1, enc, T_NS))),
        ("analytics.query_time", lambda: analytics.query_time(1, T_NS, enc)),
    ]
