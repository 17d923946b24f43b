import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from phonon_qram import __version__
from phonon_qram.cli import main
from phonon_qram.errors import InvalidParameterError
from phonon_qram.qram_types import Encoding
from phonon_qram.scheduling import (
    Schedule,
    ScheduleEntry,
    build_schedule,
    residence_intervals,
    validate_schedule,
)

PIPELINED = [Encoding.SINGLE_RAIL, Encoding.HYBRID_DUAL_RAIL]
STANDARD = [Encoding.STANDARD_DUAL_RAIL_VACUUM]


@pytest.mark.parametrize("n", range(1, 13))
def test_makespans(n):
    for enc in PIPELINED:
        assert build_schedule(n, enc).makespan_slots == 2 * (2 * n - 1)
    for enc in STANDARD:
        assert build_schedule(n, enc).makespan_slots == 2 * (3 * n - 1)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize(
    "enc", [Encoding.HYBRID_DUAL_RAIL, Encoding.STANDARD_DUAL_RAIL_VACUUM]
)
def test_schedules_are_conflict_free(n, enc):
    assert validate_schedule(build_schedule(n, enc)) == []


def test_validator_catches_injected_conflict():
    sched = build_schedule(3, Encoding.HYBRID_DUAL_RAIL)
    clash = ScheduleEntry(k=3, level=0, slot_start=0, direction="in")
    bad = Schedule(
        sched.n, sched.t, sched.encoding, sched.entries + (clash,),
        sched.makespan_slots,
    )
    problems = validate_schedule(bad)
    assert any("conflict" in p for p in problems)


def test_validator_catches_premature_crossing():
    # an excitation crossing level 1 before address bit 1 is set in place
    sched = build_schedule(3, Encoding.HYBRID_DUAL_RAIL)
    early = ScheduleEntry(k=2, level=1, slot_start=0, direction="in")
    bad = Schedule(
        sched.n, sched.t, sched.encoding,
        tuple(e for e in sched.entries if not (e.k == 2 and e.level == 1)) + (early,),
        sched.makespan_slots,
    )
    problems = validate_schedule(bad)
    assert any("before its control is set" in p for p in problems)


@pytest.mark.parametrize("enc", PIPELINED + STANDARD)
@pytest.mark.parametrize("n", range(1, 13))
def test_residence_partitions_cover_query(n, enc):
    sched = build_schedule(n, enc, t=350.0)
    for k in range(n + 1):
        for rail in enc.rails:
            ivs = residence_intervals(n, enc, sched.t, k, rail)
            assert ivs[0][0] == 0.0
            assert ivs[-1][1] == pytest.approx(sched.makespan)
            for (a, b, _), (c, _, _) in zip(ivs, ivs[1:]):
                assert b == pytest.approx(c)
                assert b > a
            wg = sum(b - a for a, b, m in ivs if m == "waveguide")
            assert wg == pytest.approx(2 * k * sched.t)


def test_residence_symmetry():
    sched = build_schedule(5, Encoding.HYBRID_DUAL_RAIL, t=350.0)
    total = sched.makespan
    for k in range(6):
        ivs = residence_intervals(sched.n, sched.encoding, sched.t, k)
        mirrored = sorted((total - b, total - a, m) for a, b, m in ivs)
        assert mirrored == pytest.approx(
            sorted((a, b, m) for a, b, m in ivs)
        )


@given(
    n=st.integers(min_value=1, max_value=16),
    t=st.floats(min_value=1.0, max_value=5000.0),
    enc=st.sampled_from(PIPELINED + STANDARD),
)
@settings(max_examples=100, deadline=None)
def test_schedule_invariants(n, t, enc):
    sched = build_schedule(n, enc, t=t)
    assert validate_schedule(sched) == []
    rails = 2 if enc in STANDARD else 1
    # each excitation k>=1 crosses k levels in and k out, per rail
    assert len(sched.entries) == rails * 2 * sum(range(1, n + 1))
    for e in sched.entries:
        assert 0 <= e.slot_start < sched.makespan_slots
        assert 0 <= e.level <= e.k <= n


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        build_schedule(0, Encoding.HYBRID_DUAL_RAIL)
    with pytest.raises(InvalidParameterError):
        build_schedule(3, Encoding.HYBRID_DUAL_RAIL, t=0.0)
    with pytest.raises(InvalidParameterError):
        residence_intervals(2, Encoding.HYBRID_DUAL_RAIL, 350.0, 5)
    with pytest.raises(InvalidParameterError):
        residence_intervals(2, Encoding.HYBRID_DUAL_RAIL, 350.0, 1, rail=1)
    # n < 1, and a t that is not finite and > 0, are refused by both
    for n, t in ((0, 350.0), (3, -350.0), (3, math.nan), (3, math.inf)):
        with pytest.raises(InvalidParameterError):
            residence_intervals(n, Encoding.HYBRID_DUAL_RAIL, t, 0)
        with pytest.raises(InvalidParameterError):
            build_schedule(n, Encoding.HYBRID_DUAL_RAIL, t)


def test_csv_and_gantt_exports(tmp_path):
    sched = build_schedule(2, Encoding.STANDARD_DUAL_RAIL_VACUUM)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n": 2, "encodings": ["standard_dual_rail_vacuum"]}))
    assert main(["schedule", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "schedule_standard.csv").read_text().splitlines()
    assert lines[0].startswith(f"# phonon-qram {__version__} | ")
    assert lines[1] == "k,level,slot_start,direction,rail"
    assert len(lines) == 2 + len(sched.entries)

    doc = json.loads((tmp_path / "schedule_standard_gantt.json").read_text())
    assert doc["makespan_ns"] == pytest.approx(sched.makespan)
    # one lane per (excitation, rail)
    assert [(lane["excitation"], lane["rail"]) for lane in doc["lanes"]] == [
        (k, rail) for k in range(sched.n + 1) for rail in (0, 1)]
