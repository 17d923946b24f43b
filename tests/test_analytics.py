import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from phonon_qram import __version__
from phonon_qram.analytics import (
    dephasing_infidelity_approx,
    dephasing_no_error_prob,
    distortion_query_infidelity,
    f_decay_no_error_prob,
    heralding_rate,
    heralding_report,
    query_time,
    success_prob_hybrid,
    success_prob_standard_logical,
    success_prob_standard_vacuum,
    thermal_infidelity_bound,
)
from phonon_qram.cli import main
from phonon_qram.errors import InvalidParameterError
from phonon_qram.qram_types import Encoding

HYB = Encoding.HYBRID_DUAL_RAIL
STD = Encoding.STANDARD_DUAL_RAIL_VACUUM

lifetimes = st.floats(min_value=0.1, max_value=1e4)


def test_query_time_values():
    assert query_time(4, 350.0, HYB) == pytest.approx(4900.0)
    assert query_time(4, 350.0, STD) == pytest.approx(7700.0)
    assert query_time(1, 350.0, HYB) == pytest.approx(700.0)
    assert query_time(1, 350.0, STD) == pytest.approx(1400.0)
    with pytest.raises(InvalidParameterError):
        query_time(0, 350.0, HYB)


def test_hybrid_success_against_product_oracle():
    # independent route: literal product over the residence intervals
    n, t, T1q, T1m = 5, 350.0, 80.0, 1.5
    T = query_time(n, t, HYB)
    expect = 1.0
    for k in range(n + 1):
        tk = 2 * k * t
        stay = math.exp(-T / (T1q * 1e3))
        go = math.exp(-tk / (T1m * 1e3)) * math.exp(-(T - tk) / (T1q * 1e3))
        expect *= 0.5 * (stay + go)
    P, _, _ = success_prob_hybrid(n, t, T1q, T1m)
    assert P == pytest.approx(expect, rel=1e-12)


def test_standard_vacuum_against_product_oracle():
    n, t, T1q, T1m = 4, 350.0, 60.0, 2.0
    T = query_time(n, t, STD)
    expect = 1.0
    for k in range(n + 1):
        tk = 2 * k * t
        expect *= math.exp(-tk / (T1m * 1e3)) * math.exp(-(T - tk) / (T1q * 1e3))
    assert success_prob_standard_vacuum(n, t, T1q, T1m) == pytest.approx(
        expect, rel=1e-12
    )


def test_standard_logical_scaling():
    n, t, T1q = 3, 350.0, 100.0
    T = query_time(n, t, STD)
    assert success_prob_standard_logical(n, t, T1q) == pytest.approx(
        math.exp(-(2 ** n) * T / (T1q * 1e3)), rel=1e-12
    )


@given(
    n=st.integers(min_value=1, max_value=12),
    t=st.floats(min_value=10.0, max_value=2000.0),
    T1q=lifetimes,
    T1m=lifetimes,
)
@settings(max_examples=300, deadline=None)
def test_hybrid_bounds_bracket_the_product(n, t, T1q, T1m):
    P, P_min, P_max = success_prob_hybrid(n, t, T1q, T1m)
    assert P_min - 1e-12 <= P <= P_max + 1e-12
    assert 0.0 <= P <= 1.0


@given(
    n=st.integers(min_value=1, max_value=12),
    t=st.floats(min_value=10.0, max_value=2000.0),
    T1=lifetimes,
)
@settings(max_examples=200, deadline=None)
def test_equal_lifetimes_collapse_bounds(n, t, T1):
    # with T1_m = T1_q the branch average is trivial and P = P_min = P_max
    P, P_min, P_max = success_prob_hybrid(n, t, T1, T1)
    assert P == pytest.approx(P_min, rel=1e-12)
    assert P == pytest.approx(P_max, rel=1e-12)
    T = query_time(n, t, HYB)
    assert P == pytest.approx(math.exp(-(n + 1) * T / (T1 * 1e3)), rel=1e-11)


def test_infinite_lifetimes_give_unit_probability():
    P, P_min, P_max = success_prob_hybrid(6, 350.0, math.inf, math.inf)
    assert P == P_min == P_max == 1.0
    assert dephasing_no_error_prob(6, 350.0, math.inf) == 1.0


def test_reference_heralding_rate():
    # n = 7 (128 cells), t = 350 ns, 100 us transmons, 2 us phonon memory:
    # the heralded success rate sits in the low-kHz range
    rep = heralding_report(7, 350.0, T1_q_us=100.0, T1_m_us=2.0)
    assert rep.N == 128
    assert 1e3 <= rep.rate_hz <= 5e3
    assert rep.rate_hz == pytest.approx(2631.55, rel=1e-3)


def test_heralding_report_bounds_and_single_rail_rejection():
    rep = heralding_report(3, 350.0, 50.0, 1.0)
    assert rep.P_min <= rep.P_no_error <= rep.P_max
    assert rep.rate_hz == pytest.approx(
        heralding_rate(rep.P_no_error, rep.T_ns)
    )
    with pytest.raises(InvalidParameterError):
        heralding_report(3, 350.0, 50.0, 1.0, encoding=Encoding.SINGLE_RAIL)


def test_dephasing_product_oracle():
    n, t, T2q, T2m = 4, 350.0, 40.0, 0.75
    T = query_time(n, t, HYB)

    def pnd(dur, T2):
        return 0.5 * (1 + math.exp(-dur / (T2 * 1e3)))

    expect = 1.0
    for k in range(n + 1):
        tk = 2 * k * t
        expect *= 0.5 * (pnd(tk, T2m) + pnd(tk, T2q)) * pnd(T - tk, T2q)
    assert dephasing_no_error_prob(n, t, T2q, T2m) == pytest.approx(
        expect, rel=1e-12
    )


def _second_order_ratio_bound(n, t, T2_us, approx):
    # approx / (1-P) <= 1 / ((1 - T/(2 T2)) (1 - approx/2)), T2 the shorter
    # lifetime: the dephasing_infidelity_approx docstring derives it
    T = query_time(n, t, HYB)
    return 1.0 / ((1.0 - T / (2.0 * T2_us * 1e3)) * (1.0 - approx / 2.0))


def test_dephasing_approx_tracks_exact_in_deep_small_error_limit():
    # the first-order law overestimates 1-P only by second-order terms
    n, t = 20, 350.0
    T2 = n * n * t / (0.002 * 1e3)  # n^2 t / T2_q = 0.002
    exact = 1.0 - dephasing_no_error_prob(n, t, T2)
    approx = dephasing_infidelity_approx(n, t, T2)
    assert approx == pytest.approx(
        (n + 1) * (7 * n - 4) * t / (4 * T2 * 1e3), rel=1e-12
    )
    assert 1.0 < approx / exact <= _second_order_ratio_bound(n, t, T2, approx)


def test_dephasing_approx_brackets_exact_and_keeps_paper_law():
    t = 350.0
    for n in range(1, 11):
        paper = 2 * n * n * t
        for x in (0.005, 0.01, 0.02, 0.049):  # the criterion-5 grid
            T2 = n * n * t / (x * 1e3)
            for T2m in (math.inf, T2):
                exact = 1.0 - dephasing_no_error_prob(n, t, T2, T2m)
                approx = dephasing_infidelity_approx(n, t, T2, T2m)
                assert approx == pytest.approx(
                    (n + 1) * t * ((7 * n - 4) / T2 + n / T2m) / 4e3, rel=1e-12
                )
                assert 1.0 <= approx / exact <= _second_order_ratio_bound(
                    n, t, T2, approx
                )
            # 2 n^2 t / T2_q bounds the law at T2_m = inf for every n ...
            assert dephasing_infidelity_approx(n, t, T2) <= paper / (T2 * 1e3)
            # ... and is its large-n limit at T2_m = T2_q
            assert dephasing_infidelity_approx(n, t, T2, T2) / (
                paper / (T2 * 1e3)
            ) == pytest.approx((n + 1) * (2 * n - 1) / (2 * n * n), rel=1e-12)
    with pytest.raises(InvalidParameterError):
        dephasing_infidelity_approx(3, 350.0, 100.0, 0.0)


def test_thermal_distortion_fdecay_formulas():
    assert thermal_infidelity_bound(3, 350.0, 100.0, 0.01) == pytest.approx(
        4 * 0.01 * 3 * 4 * query_time(3, 350.0, HYB) / 100e3, rel=1e-12
    )
    assert distortion_query_infidelity(1e-3, 5) == pytest.approx(20e-3)
    assert distortion_query_infidelity(1e-3, 1) == 0.0
    assert f_decay_no_error_prob(4, 100.0, 50.0) == pytest.approx(
        math.exp(-4 * 100.0 / 50e3), rel=1e-12
    )
    with pytest.raises(InvalidParameterError):
        thermal_infidelity_bound(3, 350.0, 100.0, -1.0)
    with pytest.raises(InvalidParameterError):
        distortion_query_infidelity(-1e-3, 5)
    with pytest.raises(InvalidParameterError):
        f_decay_no_error_prob(4, -1.0, 50.0)


def heralding_outputs(tmp_path, config):
    """Run the heralding command and return the lines of fig4a and fig4b."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["heralding", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    return ((tmp_path / "fig4a.csv").read_text().splitlines(),
            (tmp_path / "fig4b.csv").read_text().splitlines())


def test_heralding_csv(tmp_path):
    lines, _ = heralding_outputs(tmp_path, {"n_range": [1, 4], "T1_q": "inf",
                                            "T1_m_list": ["2us"]})
    assert lines[0].startswith(f"# phonon-qram {__version__} | ")
    assert lines[1] == "n,N,t_ns,T1q_us,T1m_us,T,P,Pmin,Pmax,rate_hz"
    assert len(lines) == 2 + 4
    cells = lines[2].split(",")
    assert cells[0] == "1" and cells[1] == "2"
    assert cells[3] == "inf"


def test_dephasing_csv(tmp_path):
    _, lines = heralding_outputs(tmp_path, {"n_range": [1, 2],
                                            "T2_q_list": ["10us", "100us"]})
    assert lines[0].startswith(f"# phonon-qram {__version__} | ")
    assert lines[1] == "n,T2q_us,P_dephasing,approx_first_order"
    assert len(lines) == 2 + 4
