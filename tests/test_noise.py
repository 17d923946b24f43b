import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from phonon_qram import noise as noise_module, scheduling
from phonon_qram.analytics import (
    query_time,
    success_prob_hybrid,
    success_prob_standard_vacuum,
)
from phonon_qram.errors import InvalidParameterError
from phonon_qram.noise import (
    NoiseModel,
    TrajectoryVerdict,
    estimate_success_prob,
    inject_loss,
    sample_trajectory,
)
from phonon_qram.qram import QramConfig
from phonon_qram.qram_types import Encoding
from phonon_qram.scheduling import residence_intervals

HYB = Encoding.HYBRID_DUAL_RAIL
STD = Encoding.STANDARD_DUAL_RAIL_VACUUM


def test_noise_model_validation():
    with pytest.raises(InvalidParameterError):
        NoiseModel(T1_q=-1.0)
    with pytest.raises(InvalidParameterError):
        NoiseModel(n_th=-0.1)
    with pytest.raises(InvalidParameterError):
        NoiseModel(T1_q=1.0, T2_q=3.0)  # T2 > 2*T1
    m = NoiseModel(T1_q=1.0, T2_q=2.0)
    assert m.dephasing_rate("transmon") == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_th", [math.nan, math.inf])
def test_noise_model_refuses_a_non_finite_n_th(n_th):
    # a NaN rate dropped the thermal channel from every trajectory (nan > 0
    # is False), and an infinite one failed inside numpy's Poisson draw
    with pytest.raises(InvalidParameterError, match="n_th must be finite"):
        NoiseModel(T1_q=100.0, n_th=n_th)


def test_rates():
    m = NoiseModel(T1_q=100.0, T1_m=2.0, T2_q=50.0, n_th=0.01)
    assert m.loss_rate("transmon") == pytest.approx(1e-5)
    assert m.loss_rate("waveguide") == pytest.approx(5e-4)
    assert m.dephasing_rate("transmon") == pytest.approx(1 / 50e3 - 0.5e-5)
    assert m.thermal_rate("transmon") == pytest.approx(1e-7)


def test_noiseless_trajectory_is_clean():
    cfg = QramConfig(n=3, encoding=HYB)
    v = sample_trajectory(cfg, NoiseModel(), seed=0)
    assert v.events == ()
    assert not v.detected
    assert v.lossless


def test_single_rail_has_no_detection():
    cfg = QramConfig(n=2, encoding=Encoding.SINGLE_RAIL)
    with pytest.raises(InvalidParameterError):
        sample_trajectory(cfg, NoiseModel(), seed=0)
    with pytest.raises(InvalidParameterError):
        inject_loss(cfg, 0, 10.0)


def test_forced_loss_detection_bases():
    hyb = inject_loss(QramConfig(n=3, encoding=HYB), excitation=1, time_ns=100.0)
    assert hyb.detected and hyb.detection_basis == "address_1:f"
    std = inject_loss(QramConfig(n=3, encoding=STD), excitation=3, time_ns=100.0)
    assert std.detected and std.detection_basis == "bus:00"


def test_forced_loss_validation():
    cfg = QramConfig(n=2, encoding=HYB)
    with pytest.raises(InvalidParameterError):
        inject_loss(cfg, 5, 10.0)
    with pytest.raises(InvalidParameterError):
        inject_loss(cfg, 0, 1e9)


@pytest.mark.parametrize("call", [
    pytest.param(lambda v: QramConfig(n=v), id="QramConfig.n"),
    pytest.param(lambda v: scheduling.build_schedule(v, HYB), id="build_schedule.n"),
    pytest.param(lambda v: residence_intervals(v, HYB, 350.0, 0), id="residence_intervals.n"),
    pytest.param(lambda v: residence_intervals(2, HYB, 350.0, v), id="residence_intervals.k"),
    pytest.param(lambda v: inject_loss(QramConfig(n=2, encoding=HYB), v, 10.0),
                 id="inject_loss.excitation"),
    pytest.param(lambda v: estimate_success_prob(QramConfig(n=2, encoding=HYB),
                                                 NoiseModel(), v, 0), id="trials"),
])
def test_sizes_and_ids_must_be_integers(call):
    # a fractional size or id names no excitation and sizes no register: it
    # is refused, not run (excitation 1.5) or left to fail later; a bool is
    # not an integer either, and a numpy integer is one
    for value in (1.5, 1.0, True, "1"):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call(value)
    call(np.int64(1))


def test_every_forced_loss_is_detected():
    # denser sweep lives in the acceptance suite; spot-check both encodings
    for enc in (HYB, STD):
        cfg = QramConfig(n=2, encoding=enc)
        T = query_time(2, cfg.t, enc)
        for k in range(3):
            for frac in np.linspace(0.0, 0.999, 20):
                v = inject_loss(cfg, k, frac * T)
                assert v.detected
                assert v.detection_basis is not None


def test_forced_loss_names_its_rail_as_sampled_losses_do():
    # a standard dual-rail loss is forced on rail 0 and named
    # excitationK:rail0:medium, as `sample_trajectory` names a sampled one
    v = inject_loss(QramConfig(n=3, encoding=STD), 2, 800.0)
    assert v.events[0].location == "excitation2:rail0:waveguide"
    for enc, pattern in ((STD, r"excitation(\d+):rail0:(transmon|waveguide)"),
                         (HYB, r"excitation(\d+):(transmon|waveguide)")):
        cfg = QramConfig(n=3, encoding=enc)
        T = query_time(3, cfg.t, enc)
        for k in range(4):
            for frac in np.linspace(0.0, 0.999, 20):
                (ev,) = inject_loss(cfg, k, frac * T).events
                m = re.fullmatch(pattern, ev.location)
                assert m and int(m[1]) == k, ev.location
                (medium,) = [med for a, b, med in residence_intervals(3, enc, cfg.t, k, 0)
                             if a <= ev.time_ns < b]
                assert m[2] == medium


def test_trajectories_are_seed_deterministic():
    cfg = QramConfig(n=4, encoding=HYB)
    noise = NoiseModel(T1_q=20.0, T1_m=1.0, T2_q=30.0, n_th=0.05)
    a = sample_trajectory(cfg, noise, seed=(5, 9))
    b = sample_trajectory(cfg, noise, seed=(5, 9))
    c = sample_trajectory(cfg, noise, seed=(5, 10))
    assert a == b
    assert a != c


def test_sampled_losses_lie_in_their_residence_segment():
    noise = NoiseModel(T1_q=5.0, T1_m=2.0)
    for enc in (HYB, STD):
        cfg = QramConfig(n=3, encoding=enc)
        media, rails = set(), set()
        for s in range(100):
            v = sample_trajectory(cfg, noise, seed=s)
            assert v.detected == (not v.lossless)
            if enc is not STD:
                continue  # a hybrid qubit kept in its register has no schedule
            for e in v.events:
                name, rail, medium = e.location.split(":")
                segs = residence_intervals(cfg.n, enc, cfg.t, int(name[len("excitation"):]),
                                           int(rail[len("rail"):]))
                assert any(a <= e.time_ns <= b and med == medium
                           for a, b, med in segs), e
                media.add(medium)
                rails.add(rail)
        if enc is STD:
            assert media == {"transmon", "waveguide"}
            assert rails == {"rail0", "rail1"}


def test_dephasing_and_thermal_counts_match_rate_times_residence():
    # mean count per (kind, medium) against the Poisson mean of rate x time
    # in that medium; a hybrid qubit is routed or kept in its register (all
    # transmon) with probability 1/2 each, so its mean is branch-averaged.
    # Every residence partition is mirror-symmetric about T/2, so half of
    # each count falls in the second half of the query.
    noise = NoiseModel(T1_q=50.0, T1_m=5.0, T2_q=20.0, T2_m=4.0, n_th=0.2)
    seeds = 2000
    for enc in (HYB, STD):
        cfg = QramConfig(n=3, encoding=enc)
        T = query_time(cfg.n, cfg.t, enc)
        counts = {(kind, m): 0 for kind in ("dephase", "thermal")
                  for m in ("transmon", "waveguide")}
        late = dict.fromkeys(counts, 0)
        for s in range(seeds):
            for e in sample_trajectory(cfg, noise, seed=(17, s)).events:
                if e.kind == "loss":
                    continue
                name, *rail, medium = e.location.split(":")
                k = int(name[len("excitation"):])
                counts[e.kind, medium] += 1
                late[e.kind, medium] += e.time_ns > T / 2
                # every event lies in a segment of its medium (of its rail,
                # for standard dual-rail; a kept hybrid qubit is in a transmon)
                segs = residence_intervals(cfg.n, enc, cfg.t, k,
                                           int(rail[0][len("rail"):]) if rail else 0)
                if enc is HYB and medium == "transmon":
                    segs = [(0.0, T, "transmon")]
                assert any(a <= e.time_ns <= b and med == medium
                           for a, b, med in segs), e
        for (kind, medium), got in counts.items():
            rate = (noise.dephasing_rate(medium) if kind == "dephase"
                    else noise.thermal_rate(medium))
            mean = var = 0.0
            for k in range(cfg.n + 1):
                routed = rate * sum(b - a for a, b, med in
                                    residence_intervals(cfg.n, enc, cfg.t, k)
                                    if med == medium)
                if enc is STD:
                    mean, var = mean + routed, var + routed
                else:
                    kept = rate * T if medium == "transmon" else 0.0
                    avg = (routed + kept) / 2
                    mean, var = mean + avg, var + avg + (routed - kept) ** 2 / 4
            sigma = math.sqrt(var / seeds)
            assert abs(got / seeds - mean) <= 4 * sigma, (enc, kind, medium, got, mean)
            assert got > 30, (enc, kind, medium)
            half = late[kind, medium] / got
            assert abs(half - 0.5) <= 4 * 0.5 / math.sqrt(got), (enc, kind, medium, half)


# estimate_success_prob(cfg, NoiseModel(T1_q, T1_m), 20_000, seed) as the
# schedule-building sampler returned it, to the last bit
PINNED_ESTIMATES = [
    (1, HYB, 100.0, 100.0, 0, (0.9851, 0.0008566793449126699)),
    (3, HYB, 100.0, 2.0, 1, (0.3846, 0.0034400787781677326)),
    (5, HYB, 50.0, 0.5, (7, 3), (0.0196, 0.0009801999795960006)),
    (7, HYB, 20.0, 1.0, 11, (0.00065, 0.00018021896404096877)),
    (2, STD, 100.0, 2.0, 2, (0.3228, 0.0033060562608642945)),
    (4, STD, 100.0, 10.0, (5, 9), (0.3633, 0.0034008315894792558)),
    (10, STD, 100.0, 100.0, 13, (0.1078, 0.0021929336515271046)),
    (10, HYB, 300.0, 20.0, 4, (0.2631, 0.003113505982008064)),
]
# (encoding, seed, detection basis, lost excitations with their loss times
# for hybrid) of sample_trajectory at n = 4 under PINNED_NOISE, likewise
PINNED_NOISE = NoiseModel(T1_q=30.0, T1_m=2.0, T2_q=20.0, T2_m=2.0, n_th=0.05)
PINNED_LOSSES = [
    (HYB, 0, "address_1:f", [("excitation1", 1300.7548137751828),
                             ("excitation2", 509.2409627746067)]),
    (HYB, 1, "address_0:f", [("excitation0", 1581.4782138340192),
                             ("excitation3", 1031.5360839871132)]),
    (HYB, 2, None, []),
    (STD, 0, "bus:00", ["excitation4"]),
    (STD, 1, "address_1:00", ["excitation1", "excitation3", "excitation4"]),
    (STD, 3, "address_2:00", ["excitation2", "excitation3"]),
]


# SHA-256 of the repr of every verdict (detected, basis, and each event's
# time, location and kind) of sample_trajectory over seeds 0..299 under
# PINNED_NOISE, per (encoding, n), as the sampler that drew its coins with
# Generator.integers returned them
PINNED_VERDICTS = {
    (HYB, 1): "b3a8f9645b92c533d3acddcc464fa106baf2e4a922ca2edb595bb6a7298f1cbb",
    (HYB, 4): "678fd68430f91c2991b76a3d31895425d96a4087bb4d1fc8bea5bb7c733eabaa",
    (HYB, 10): "72548bd77e2b64060e228007cea21f3ffade82ae7af12cf9ae75ae3ea19ccfb4",
    (STD, 1): "b3723346dc4b4ba4de814a9ff05c137c397ce6cd80837b1cf46fc5176fe081c6",
    (STD, 4): "8c1cc80e10fe1231cbec60b42ae6cb5573b7f2deb9d217c93edb7f2b23148538",
    (STD, 10): "3ef36c2327384399ac0ba64f3baa2124552be7e659f252df88257d30373fa7d4",
}

def _assert_pinned_draws(cold: bool):
    """Every pinned case, each after clearing the exposure table cache if
    `cold`."""
    for n, enc, T1_q, T1_m, seed, want in PINNED_ESTIMATES:
        if cold:
            noise_module._exposure.cache_clear()
        got = estimate_success_prob(QramConfig(n=n, encoding=enc),
                                    NoiseModel(T1_q=T1_q, T1_m=T1_m), 20_000, seed)
        assert got == want, (n, enc, T1_q, T1_m, seed, cold)
    for enc, seed, basis, losses in PINNED_LOSSES:
        if cold:
            noise_module._exposure.cache_clear()
        v = sample_trajectory(QramConfig(n=4, encoding=enc), PINNED_NOISE, seed)
        assert v.detection_basis == basis and v.detected == bool(losses)
        lost = sorted((e.location.split(":")[0], e.time_ns)
                      for e in v.events if e.kind == "loss")
        assert (lost if enc is HYB else [k for k, _ in lost]) == losses, (enc, seed, cold)


def test_sampling_builds_no_schedule_and_keeps_every_loss_draw(monkeypatch):
    def no_schedule(*args, **kwargs):
        raise AssertionError("the sampling path built a Schedule")

    monkeypatch.setattr(noise_module, "build_schedule", no_schedule)
    monkeypatch.setattr(scheduling, "build_schedule", no_schedule)
    _assert_pinned_draws(cold=False)
    # a forced loss reads the query window from the timing rules too
    for enc in Encoding:
        cfg = QramConfig(n=3, encoding=enc)
        for k in range(cfg.n + 1):
            if enc is Encoding.SINGLE_RAIL:
                with pytest.raises(InvalidParameterError):
                    inject_loss(cfg, k, 0.0)
                continue
            for time_ns in (0.0, cfg.t, query_time(cfg.n, cfg.t, enc)):
                assert inject_loss(cfg, k, time_ns).detected, (enc, k, time_ns)


def test_pinned_draws_hold_with_cold_and_warm_exposure_tables():
    # the table is cached per (config, noise model): a fresh build and a
    # reused one must give the same draws to the last bit
    _assert_pinned_draws(cold=True)
    _assert_pinned_draws(cold=False)


@pytest.mark.parametrize("enc, n", list(PINNED_VERDICTS))
def test_every_sampled_event_is_pinned(enc, n):
    cfg = QramConfig(n=n, encoding=enc)
    verdicts = (sample_trajectory(cfg, PINNED_NOISE, seed) for seed in range(300))
    text = repr([(v.detected, v.detection_basis,
                  [(e.time_ns, e.location, e.kind) for e in v.events]) for v in verdicts])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_VERDICTS[enc, n]


@pytest.mark.parametrize("m", [1, 2, 3, 11, 16, 17])
def test_coins_are_the_generators_int32_draws(m):
    # the raw-bit coin rule must stay Generator.integers' int32 stream; a
    # numpy release that draws those differently fails here first
    for seed in range(300):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref.integers(0, 2, m, dtype=np.int32)
        got = noise_module._coins(rng.bit_generator, m)
        assert got.tolist() == want.tolist(), (m, seed)
        assert rng.random(3).tolist() == ref.random(3).tolist(), (m, seed)


@pytest.mark.parametrize("enc", [HYB, STD])
@pytest.mark.parametrize("n, trials", [(2, 1), (2, 3), (4, 5), (2, 4_097), (10, 40_001)])
def test_blocked_draws_are_all_branches_then_all_u(enc, n, trials):
    # the stream of one int32 draw of every branch coin, then every u:
    # block boundaries and an odd coin count must not shift it
    cfg, model = QramConfig(n=n, encoding=enc), NoiseModel(T1_q=40.0, T1_m=3.0)
    keep = noise_module._exposure(cfg, model)[0]
    rng = np.random.default_rng((7, trials))
    branch = (np.ones((trials, n + 1), bool) if enc is STD
              else rng.integers(0, 2, (trials, n + 1), dtype=np.int32).astype(bool))
    u = rng.random((trials, n + 1))
    lossless = trials - int(np.where(branch, u >= keep[:-1], u >= keep[-1]).any(axis=1).sum())
    p = lossless / trials
    want = (p, math.sqrt(max(p * (1.0 - p), 0.0) / trials))
    assert estimate_success_prob(cfg, model, trials, (7, trials)) == want


def test_the_monte_carlo_memory_does_not_grow_with_trials():
    # coins and u are drawn one block of trials at a time; drawing every
    # coin first as one array peaked above 50 MB here
    cfg, model = QramConfig(n=10, encoding=HYB), NoiseModel(T1_q=300.0, T1_m=20.0)
    estimate_success_prob(cfg, model, 10, 0)  # builds the exposure table
    tracemalloc.start()
    try:
        estimate_success_prob(cfg, model, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_the_exposure_table_is_built_once_per_config_and_noise_model(monkeypatch):
    # counted through this module's binding, as the benchmark tracer counts
    calls = []

    def counting(*args):
        calls.append(args[3:])  # (k,) on rail 0, (k, 1) on rail 1
        return residence_intervals(*args)

    monkeypatch.setattr(noise_module, "residence_intervals", counting)
    for enc in (HYB, STD):
        cfg = QramConfig(n=4, encoding=enc)
        want = sorted((k,) + (1,) * rail for k in range(cfg.n + 1) for rail in enc.rails)
        noise_module._exposure.cache_clear()
        calls.clear()
        for seed in range(100):
            sample_trajectory(cfg, PINNED_NOISE, seed)
        estimate_success_prob(cfg, PINNED_NOISE, 1_000, 0)
        assert sorted(calls) == want, enc
        # a second noise model is a second table; the first stays cached
        calls.clear()
        sample_trajectory(cfg, NoiseModel(T1_q=10.0, T1_m=1.0), 0)
        assert sorted(calls) == want, enc
        calls.clear()
        sample_trajectory(cfg, PINNED_NOISE, 100)
        assert calls == [], enc


def test_dephasing_and_thermal_events_do_not_trigger_detection():
    cfg = QramConfig(n=3, encoding=HYB)
    noise = NoiseModel(T2_q=0.05, T2_m=0.05, n_th=0.0)  # heavy dephasing, no loss
    saw_dephase = False
    for s in range(50):
        v = sample_trajectory(cfg, noise, seed=s)
        assert v.lossless
        assert not v.detected
        saw_dephase = saw_dephase or any(e.kind == "dephase" for e in v.events)
    assert saw_dephase


def test_loss_statistics_match_closed_form_hybrid():
    n, T1 = 2, 50.0
    cfg = QramConfig(n=n, encoding=HYB)
    p, _, _ = success_prob_hybrid(n, cfg.t, T1_q_us=T1, T1_m_us=T1)
    p_hat, se = estimate_success_prob(
        cfg, NoiseModel(T1_q=T1, T1_m=T1), trials=200_000, seed=3
    )
    assert abs(p_hat - p) < 3 * se


def test_loss_statistics_match_closed_form_standard():
    n = 3
    cfg = QramConfig(n=n, encoding=STD)
    p = success_prob_standard_vacuum(n, cfg.t, T1_q_us=80.0, T1_m_us=2.0)
    p_hat, se = estimate_success_prob(
        cfg, NoiseModel(T1_q=80.0, T1_m=2.0), trials=200_000, seed=4
    )
    assert abs(p_hat - p) < 3 * se


def test_no_decay_means_unit_success():
    cfg = QramConfig(n=3, encoding=HYB)
    p_hat, se = estimate_success_prob(cfg, NoiseModel(), trials=1000, seed=0)
    assert p_hat == 1.0
    assert se == 0.0
    with pytest.raises(InvalidParameterError):
        estimate_success_prob(cfg, NoiseModel(), trials=0, seed=0)
