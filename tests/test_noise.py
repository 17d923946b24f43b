import json
import math

import numpy as np
import pytest

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
    write_verdicts_jsonl,
)
from phonon_qram.qram import QramConfig
from phonon_qram.qram_types import Encoding
from phonon_qram.scheduling import build_schedule, residence_intervals

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


def test_standard_logical_is_rejected_by_both_samplers():
    # the loss model does not cover the logical variant's pre-loaded routers
    cfg = QramConfig(n=3, encoding=Encoding.STANDARD_DUAL_RAIL_LOGICAL)
    noise = NoiseModel(T1_q=100e3, T1_m=2e3)
    with pytest.raises(InvalidParameterError):
        sample_trajectory(cfg, noise, seed=0)
    with pytest.raises(InvalidParameterError):
        estimate_success_prob(cfg, noise, 100, seed=0)


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
        sched = build_schedule(cfg.n, enc, cfg.t)
        media = set()
        for s in range(100):
            v = sample_trajectory(cfg, noise, seed=s)
            assert v.detected == (not v.lossless)
            if enc is not STD:
                continue  # a hybrid qubit kept in its register has no schedule
            for e in v.events:
                name, medium = e.location.split(":")
                segs = residence_intervals(sched, int(name[len("excitation"):]))
                assert any(a <= e.time_ns <= b and med == medium
                           for a, b, med in segs), e
                media.add(medium)
        if enc is STD:
            assert media == {"transmon", "waveguide"}


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


def test_write_verdicts_jsonl(tmp_path):
    cfg = QramConfig(n=2, encoding=HYB)
    noise = NoiseModel(T1_q=5.0, T1_m=0.5)
    seeds = list(range(8))
    verdicts = [sample_trajectory(cfg, noise, seed=s) for s in seeds]
    path = tmp_path / "verdicts.jsonl"
    write_verdicts_jsonl(path, verdicts, seeds=seeds)
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert set(rec) == {"seed", "events", "detected", "detection_basis"}
    # detection flag in the file matches the loss content of the record
    for line, v in zip(lines, verdicts):
        rec = json.loads(line)
        has_loss = any(e["kind"] == "loss" for e in rec["events"])
        assert rec["detected"] == has_loss == (not v.lossless)
