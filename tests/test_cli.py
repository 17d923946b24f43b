import json
import math

import pytest

from phonon_qram import __version__, cli
from phonon_qram.analytics import dephasing_sweep_rows, heralding_sweep_rows
from phonon_qram.cli import main
from phonon_qram.qram_types import Encoding
from phonon_qram.router import sweep_kappa
from phonon_qram.scheduling import build_schedule
from phonon_qram.wavepackets import PulseShape


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


def csv_table(path):
    """Header and rows of a CLI CSV, after checking its metadata line."""
    meta_line(path)
    header, *rows = path.read_text().splitlines()[1:]
    return header, [r.split(",") for r in rows]


def assert_cells_match(cells, row):
    """Cells written from `row` read back to its values: ints and strings
    exactly, floats (inf included) to the 12 written digits."""
    assert len(cells) == len(row)
    for cell, v in zip(cells, row):
        if isinstance(v, (int, str)):
            assert cell == str(v)
        else:
            assert float(cell) == pytest.approx(v, rel=1e-11)


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


def test_route_fidelity_time_domain_columns(tmp_path):
    config = {"shapes": ["gaussian"], "windows": ["350ns"],
              "kappa_grid_mhz": {"min": 200.0, "max": 200.0, "points": 1}}
    assert run(tmp_path, "route-fidelity", config=config) == 0
    header, rows = csv_table(tmp_path / "fig1c.csv")
    assert header == "param,shape,infidelity,infidelity_td"
    (expected,) = sweep_kappa([PulseShape.GAUSSIAN], 50.0,
                              [200.0 * 2 * math.pi * 1e-3], include_timedomain=True)
    assert_cells_match(rows[0], [expected[c] for c in header.split(",")])


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


def test_query_sim_trace_export(tmp_path, monkeypatch):
    calls = []
    real_query = cli.query

    def counting_query(*a):
        calls.append(a)
        return real_query(*a)

    monkeypatch.setattr(cli, "query", counting_query)
    config = {"n": 1, "data": [0, 1], "address": "1", "export_trace": True}
    rc = run(tmp_path, "query-sim", config=config)
    assert rc == 0
    assert len(calls) == 1  # the trace comes from the one query run
    trace = json.loads((tmp_path / "query_trace.json").read_text())
    assert trace and all("gate" in g for g in trace)


def test_heralding_outputs(tmp_path):
    config = {"n_range": [1, 3], "T1_m_list": ["2us", "inf"], "T2_q_list": ["100us"]}
    rc = run(tmp_path, "heralding", config=config)
    assert rc == 0
    header, rows = csv_table(tmp_path / "fig4a.csv")
    assert header == "n,N,t_ns,T1q_us,T1m_us,T,P,Pmin,Pmax,rate_hz"
    assert len(rows) == 3 * 2
    expected = (heralding_sweep_rows(range(1, 4), 350.0, 100.0, 2.0)
                + heralding_sweep_rows(range(1, 4), 350.0, 100.0, math.inf))
    for cells, row in zip(rows, expected):
        assert_cells_match(cells, row)
    assert rows[0][:2] == ["1", "2"]     # ints as plain digits
    assert rows[-1][4] == "inf"          # T1m_us
    header, rows = csv_table(tmp_path / "fig4b.csv")
    assert header == "n,T2q_us,P_dephasing,approx_first_order"
    assert len(rows) == 3
    expected = dephasing_sweep_rows(range(1, 4), 350.0, [100.0])
    for cells, row in zip(rows, expected):
        assert_cells_match(cells, row)


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
    header, (row,) = csv_table(tmp_path / "montecarlo.csv")
    assert header.startswith("n,encoding,")
    assert row[0] == "2" and row[5] == "20000"  # n, trials
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
    assert report["hybrid"]["encoding"] == "hybrid_dual_rail"
    assert report["standard"]["encoding"] == "standard_dual_rail_vacuum"
    for tag, enc in (("hybrid", Encoding.HYBRID_DUAL_RAIL),
                     ("standard", Encoding.STANDARD_DUAL_RAIL_VACUUM)):
        sched = build_schedule(4, enc)
        header, rows = csv_table(tmp_path / f"schedule_{tag}.csv")
        assert header == "k,level,slot_start,direction,rail"
        assert len(rows) == len(sched.entries)
        gantt = json.loads((tmp_path / f"schedule_{tag}_gantt.json").read_text())
        assert gantt["n"] == 4
        assert gantt["makespan_ns"] == pytest.approx(sched.makespan)
        assert len(gantt["lanes"]) == sched.n + 1
    # both rails of a standard dual-rail qubit keep their own rows
    assert {r[4] for r in rows} == {"0", "1"}
    hops = [(r[0], r[1], r[3], r[4]) for r in rows]  # k, level, direction, rail
    assert len(set(hops)) == len(hops)


def test_single_rail_schedule_report_names_its_encoding(tmp_path):
    # a single-rail schedule shares the hybrid file names; the report says which
    assert run(tmp_path, "schedule", config={"n": 3, "encodings": ["single_rail"]}) == 0
    report = json.loads((tmp_path / "schedule_report.json").read_text())
    assert list(report) == ["hybrid"]
    assert report["hybrid"]["encoding"] == "single_rail"
    sched = build_schedule(3, Encoding.SINGLE_RAIL)
    assert report["hybrid"]["makespan_slots"] == sched.makespan_slots
    _, rows = csv_table(tmp_path / "schedule_hybrid.csv")
    assert len(rows) == len(sched.entries)


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


def test_standard_logical_montecarlo_rejected(tmp_path):
    # the loss model has no pre-loaded routers, so its samples must not be
    # compared with the vacuum closed form
    cfg = {"encoding": "standard_dual_rail_logical", "trials": 2000,
           "grid": [{"n": 3, "T1_q": "100us", "T1_m": "2us"}]}
    assert run(tmp_path, "montecarlo", config=cfg) == 2
    assert not (tmp_path / "montecarlo.csv").exists()


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
    # two encodings that would write the same schedule files
    ("schedule", {"encodings": ["single_rail", "hybrid_dual_rail"]}),
    ("schedule", {"encodings": ["standard_dual_rail_vacuum",
                                "standard_dual_rail_logical"]}),
])
def test_malformed_values_exit_2(tmp_path, cmd, config):
    assert run(tmp_path, cmd, config=config) == 2


# ---------------------------------------------------------------------------
# numerical failure (exit code 3)

def test_resolution_failure_exit_code(tmp_path):
    # a user-forced step far above the 0.1/kappa floor is a numerical failure
    cfg = {"window": "20000ns", "dt": "10ns"}
    assert run(tmp_path, "router-sim", config=cfg) == 3
