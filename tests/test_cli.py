import json

import pytest

from phonon_qram import __version__
from phonon_qram.cli import main


def run(tmp_path, *argv, config=None):
    args = list(argv)
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    args += ["--out", str(tmp_path)]
    return main(args)


def meta_line(path):
    line = path.read_text().splitlines()[0]
    assert line.startswith(f"# phonon-qram {__version__} | ")
    return line


# ---------------------------------------------------------------------------
# happy paths

def test_route_fidelity_single_point(tmp_path):
    rc = run(tmp_path, "route-fidelity", "--window", "1050ns", "--shape", "gaussian")
    assert rc == 0
    lines = (tmp_path / "fig1c.csv").read_text().splitlines()
    meta_line(tmp_path / "fig1c.csv")
    assert lines[1] == "param,shape,infidelity"
    kappa, shape, infid = lines[2].split(",")
    assert shape == "gaussian"
    assert float(infid) == pytest.approx(1.01e-3, rel=0.1)


def test_route_fidelity_sweeps(tmp_path):
    config = {
        "kappa_grid_mhz": {"min": 50.0, "max": 400.0, "points": 4},
        "windows": ["650ns", "1050ns"],
        "time_domain": False,
    }
    rc = run(tmp_path, "route-fidelity", config=config)
    assert rc == 0
    c_lines = (tmp_path / "fig1c.csv").read_text().splitlines()
    d_lines = (tmp_path / "fig1d.csv").read_text().splitlines()
    assert len(c_lines) == 2 + 4 * 2   # 4 kappas x 2 shapes
    assert len(d_lines) == 2 + 2 * 2   # 2 windows x 2 shapes
    meta_line(tmp_path / "fig1c.csv")
    meta_line(tmp_path / "fig1d.csv")


def test_router_sim(tmp_path):
    rc = run(tmp_path, "router-sim", config={"window": "1200ns"})
    assert rc == 0
    doc = json.loads((tmp_path / "router_sim.json").read_text())
    assert doc["fidelity"] == pytest.approx(1.0, abs=5e-3)
    assert set(doc) == {"params", "fidelity", "leakage", "final_state"}


def test_query_sim_scan(tmp_path):
    config = {"n": 2, "data": [1, 0, 0, 1], "address": "scan"}
    rc = run(tmp_path, "query-sim", config=config)
    assert rc == 0
    doc = json.loads((tmp_path / "query_sim.json").read_text())
    assert len(doc["queries"]) == 4
    for j, rec in enumerate(doc["queries"]):
        assert rec["tree_ground"]
        (entry,) = rec["address_bus"]
        assert entry["address_index"] == j
        assert entry["bus"] == config["data"][j]


def test_query_sim_trace_export(tmp_path):
    config = {"n": 1, "data": [0, 1], "address": "1", "export_trace": True}
    rc = run(tmp_path, "query-sim", config=config)
    assert rc == 0
    trace = json.loads((tmp_path / "query_trace.json").read_text())
    assert trace and all("gate" in g for g in trace)


def test_heralding_outputs(tmp_path):
    config = {"n_range": [1, 3], "T1_m_list": ["2us", "inf"], "T2_q_list": ["100us"]}
    rc = run(tmp_path, "heralding", config=config)
    assert rc == 0
    a_lines = (tmp_path / "fig4a.csv").read_text().splitlines()
    assert a_lines[1] == "n,N,t_ns,T1q_us,T1m_us,T,P,Pmin,Pmax,rate_hz"
    assert len(a_lines) == 2 + 3 * 2
    b_lines = (tmp_path / "fig4b.csv").read_text().splitlines()
    assert b_lines[1] == "n,T2q_us,P_dephasing,approx_first_order"
    assert len(b_lines) == 2 + 3


def test_heralding_finite_memory_dephasing(tmp_path):
    config = {"n_range": [1, 3], "T1_m_list": ["inf"], "T2_q_list": ["100us"]}
    assert run(tmp_path, "heralding", config=config) == 0
    rows_inf = (tmp_path / "fig4b.csv").read_text().splitlines()[2:]
    config["T2_m"] = "2us"
    assert run(tmp_path, "heralding", config=config) == 0
    rows_2us = (tmp_path / "fig4b.csv").read_text().splitlines()[2:]
    assert len(rows_inf) == len(rows_2us) == 3
    for a, b in zip(rows_inf, rows_2us):
        n, T2q, P_inf, law_inf = a.split(",")
        assert b.split(",")[:2] == [n, T2q]
        _, _, P_2us, law_2us = b.split(",")
        # a finite memory T2 adds dephasing: P falls, the law grows
        # by (n+1) n t / (4 T2_m)
        assert float(P_2us) < float(P_inf)
        assert float(law_2us) - float(law_inf) == pytest.approx(
            (int(n) + 1) * int(n) * 350.0 / (4 * 2e3), rel=1e-9
        )


def test_montecarlo_agrees_and_is_deterministic(tmp_path):
    config = {"trials": 20000,
              "grid": [{"n": 2, "T1_q": "100us", "T1_m": "2us"}]}
    rc = run(tmp_path, "montecarlo", config=config)
    assert rc == 0
    text1 = (tmp_path / "montecarlo.csv").read_text()
    lines = text1.splitlines()
    assert lines[1].startswith("n,encoding,")
    row = lines[2].split(",")
    assert row[-1] == "true"  # agree_3sigma
    rc = run(tmp_path, "montecarlo", config=config)
    assert rc == 0
    assert (tmp_path / "montecarlo.csv").read_text() == text1


def test_schedule_report(tmp_path):
    rc = run(tmp_path, "schedule", config={"n": 4})
    assert rc == 0
    report = json.loads((tmp_path / "schedule_report.json").read_text())
    assert report["hybrid"]["makespan_slots"] == 14
    assert report["standard"]["makespan_slots"] == 22
    assert report["hybrid"]["problems"] == []
    assert report["standard"]["problems"] == []
    for tag in ("hybrid", "standard"):
        meta_line(tmp_path / f"schedule_{tag}.csv")
        gantt = json.loads((tmp_path / f"schedule_{tag}_gantt.json").read_text())
        assert gantt["n"] == 4


# ---------------------------------------------------------------------------
# config errors (exit code 2)

def test_unknown_config_key(tmp_path):
    assert run(tmp_path, "schedule", config={"nn": 4}) == 2


def test_duration_without_unit(tmp_path):
    assert run(tmp_path, "schedule", config={"t": 350}) == 2
    assert run(tmp_path, "schedule", config={"t": "350"}) == 2


def test_malformed_address(tmp_path):
    assert run(tmp_path, "query-sim", config={"address": "abc"}) == 2


def test_zero_trials(tmp_path):
    assert run(tmp_path, "montecarlo", config={"trials": 0}) == 2


def test_empty_kappa_grid(tmp_path):
    cfg = {"kappa_grid_mhz": {"min": 1, "max": 2, "points": 0}}
    assert run(tmp_path, "route-fidelity", config=cfg) == 2


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["schedule", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_window_without_shape(tmp_path):
    assert run(tmp_path, "route-fidelity", "--window", "350ns") == 2


def test_single_rail_montecarlo_rejected(tmp_path):
    cfg = {"encoding": "single_rail", "trials": 10,
           "grid": [{"n": 2, "T1_q": "100us", "T1_m": "2us"}]}
    assert run(tmp_path, "montecarlo", config=cfg) == 2


@pytest.mark.parametrize("cmd, config", [
    ("schedule", {"t": "1ens"}),
    ("schedule", {"n": "abc"}),
    ("query-sim", {"data": 5}),
    ("query-sim", {"t_f": "5ns"}),
    ("heralding", {"n_range": [1]}),
    ("montecarlo", {"grid": 5}),
    ("montecarlo", {"grid": [{"n": 2, "T1_m": "2us"}]}),
    ("router-sim", {"kappa_mhz": "x"}),
    ("router-sim", {"control_init": [[1], 2]}),
    ("route-fidelity", {"kappa_grid_mhz": {"min": "a", "max": 1000, "points": 5}}),
    ("route-fidelity", {"kappa_grid_mhz": {"min": 0, "max": 1000, "points": 5}}),
    ("heralding", {"T1_m_list": 5}),
    ("schedule", {"encodings": 5}),
    ("route-fidelity", {"shapes": 5}),
    ("query-sim", {"n": 1, "address": [[1, 2, 3], 0]}),
])
def test_malformed_values_exit_2(tmp_path, cmd, config):
    assert run(tmp_path, cmd, config=config) == 2


# ---------------------------------------------------------------------------
# numerical failure (exit code 3)

def test_resolution_failure_exit_code(tmp_path):
    # a user-forced step far above the 0.1/kappa floor is a numerical failure
    cfg = {"window": "20000ns", "dt": "10ns"}
    assert run(tmp_path, "router-sim", config=cfg) == 3
