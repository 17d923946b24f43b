import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonon_qram import __version__, analytics, cli
from phonon_qram.analytics import dephasing_sweep_rows, heralding_sweep_rows
from phonon_qram.cli import main
from phonon_qram.qram import DataRegister, QramConfig, trace_to_json
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
    # one routing point is a router-sim run; route-fidelity writes only sweeps
    assert run(tmp_path, "router-sim", config={"window": "1050ns"}) == 0
    doc = json.loads((tmp_path / "router_sim.json").read_text())
    assert doc["params"]["shape"] == "gaussian"
    assert 1.0 - doc["fidelity"] == pytest.approx(1.01e-3, rel=0.1)


def test_route_fidelity_sweeps(tmp_path):
    config = {
        "kappa_grid_mhz": {"min": 50.0, "max": 400.0, "points": 4},
        "windows": ["650ns", "1050ns"],
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
    (expected,) = sweep_kappa([PulseShape.GAUSSIAN], 50.0, [200.0 * 2 * math.pi * 1e-3])
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
    assert len(calls) == 1  # one query for the one address
    trace = json.loads((tmp_path / "query_trace.json").read_text())
    assert trace and all("gate" in g for g in trace)


def test_query_sim_scan_builds_the_trace_once(tmp_path, monkeypatch):
    # the gate list does not depend on the address, so a scan builds it once,
    # and only because export_trace asks for it
    calls = []
    real_build = cli.build_query_gates

    def counting_build(*a):
        calls.append(a)
        return real_build(*a)

    monkeypatch.setattr(cli, "build_query_gates", counting_build)
    config = {"n": 2, "data": [0, 1, 1, 0], "address": "scan"}
    assert run(tmp_path, "query-sim", config=config) == 0
    assert calls == [] and not (tmp_path / "query_trace.json").exists()
    assert run(tmp_path, "query-sim", config={**config, "export_trace": True}) == 0
    assert len(calls) == 1
    want = trace_to_json(real_build(QramConfig(n=2), DataRegister.classical([0, 1, 1, 0])))
    assert json.loads((tmp_path / "query_trace.json").read_text()) == want


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


def test_heralding_standard_encoding_has_one_probability(tmp_path):
    # the standard dual-rail closed form is exact: P = Pmin = Pmax
    config = {"n_range": [1, 3], "T1_m_list": ["2us"], "T2_q_list": ["100us"],
              "encoding": "standard_dual_rail_vacuum"}
    assert run(tmp_path, "heralding", config=config) == 0
    header, rows = csv_table(tmp_path / "fig4a.csv")
    expected = heralding_sweep_rows(range(1, 4), 350.0, 100.0, 2.0,
                                    Encoding.STANDARD_DUAL_RAIL_VACUUM)
    assert len(rows) == len(expected) == 3
    for cells, row in zip(rows, expected):
        assert_cells_match(cells, row)
        p, p_min, p_max = (cells[header.split(",").index(c)] for c in ("P", "Pmin", "Pmax"))
        assert p == p_min == p_max


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


def test_montecarlo_disagrees_when_the_estimate_has_no_spread(tmp_path):
    # one trial gives p_hat = 1 and a zero stderr; sigma comes from the
    # closed form, so p_hat is not marked as agreeing with p_closed = 0.024
    config = {"trials": 1, "grid": [{"n": 7, "T1_q": "100us", "T1_m": "2us"}]}
    assert run(tmp_path, "montecarlo", "--seed", "114", config=config) == 0
    header, (row,) = csv_table(tmp_path / "montecarlo.csv")
    cells = dict(zip(header.split(","), row))
    assert float(cells["p_hat"]) == 1.0
    assert float(cells["p_closed"]) == pytest.approx(0.024, abs=1e-3)
    p = float(cells["p_closed"])
    assert float(cells["dev_sigma"]) == pytest.approx((1 - p) / math.sqrt(p * (1 - p)))
    assert cells["agree_3sigma"] == "false"


def test_query_sim_default_data_is_address_parity(tmp_path):
    # without `data` the register is popcount(j) % 2, whatever n is
    assert run(tmp_path, "query-sim", config={"n": 3}) == 0
    doc = json.loads((tmp_path / "query_sim.json").read_text())
    parity = [0, 1, 1, 0, 1, 0, 0, 1]
    assert doc["params"]["data"] == parity
    assert [rec["address_bus"][0]["bus"] for rec in doc["queries"]] == parity
    assert run(tmp_path, "query-sim", config={"mode": "quantum"}) == 2


def test_every_analytics_law_has_a_caller():
    # a closed form nothing runs gets no independent check; it is deleted
    src = Path(cli.__file__).parent
    used = {node.attr for node in ast.walk(ast.parse((src / "cli.py").read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "analytics"}
    for node in ast.parse((src / "analytics.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            used |= {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and sub.id != node.name}
    assert set(analytics.__all__) - used == set()


def test_every_reference_module_has_a_test():
    # a helper module under tests/ that no test imports checks nothing; it is deleted
    tests = Path(__file__).parent
    imported = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
    helpers = {p.stem for p in tests.glob("*.py") if not p.stem.startswith("test_")}
    assert helpers - {"conftest"} - imported == set()


def test_only_cli_opens_files():
    # the layers return rows or dicts; cli.py is the one module that opens files
    openers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "open":
                    openers.add(path.name)
    assert openers == {"cli.py"}


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
        assert len(gantt["lanes"]) == (sched.n + 1) * len(enc.rails)
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


def test_route_fidelity_config_error_creates_no_directory(tmp_path):
    out = tmp_path / "fresh"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"shapes": []}))
    assert main(["route-fidelity", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


# Runs the CLI in a child whose address space is capped at 1 GB, so a
# regression that sizes work by 2**n fails there and not in the machine.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from phonon_qram.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(tmp_path, cmd, config):
    """Run `cmd` with `config` in a capped child; return it and its --out."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, cmd, "--config", str(cfg_path),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    return proc, out


@pytest.mark.parametrize("n", [17, 1e308])
def test_query_sim_refuses_n_above_16(tmp_path, n):
    proc, out = run_capped(tmp_path, "query-sim", {"n": n})
    assert proc.returncode == 2, proc.stderr
    assert "n must be <= 16" in proc.stderr
    assert not out.exists()


def test_query_sim_refuses_a_scan_above_n_10(tmp_path):
    # the default address is a scan, whose output grows as N^2
    proc, out = run_capped(tmp_path, "query-sim", {"n": 12})
    assert proc.returncode == 2, proc.stderr
    assert "an address scan needs n <= 10" in proc.stderr
    assert not out.exists()


def test_route_fidelity_refuses_a_kappa_grid_above_1e4_points(tmp_path):
    config = {"kappa_grid_mhz": {"min": 10, "max": 1000, "points": 10**9}}
    proc, out = run_capped(tmp_path, "route-fidelity", config)
    assert proc.returncode == 2, proc.stderr
    assert "kappa_grid_mhz.points must be in 1..10000" in proc.stderr
    assert not out.exists()


def test_query_sim_runs_quantum_mode_at_n_5(tmp_path):
    # the decode reads the path keys, so the 2^31 product branches of the
    # unqueried cells are never built
    config = {"n": 5, "mode": "quantum", "data": [[0.6, 0.8]] * 32, "address": "00000"}
    proc, out = run_capped(tmp_path, "query-sim", config)
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads((out / "query_sim.json").read_text())["queries"]
    weights = {(r["address_index"], r["bus"]): r["amplitude"] for r in record["address_bus"]}
    assert weights.keys() == {(0, 0), (0, 1)}
    assert weights[0, 0] == pytest.approx([0.6, 0.0], abs=1e-12)
    assert weights[0, 1] == pytest.approx([0.8, 0.0], abs=1e-12)


def test_query_sim_runs_a_superposed_quantum_query_at_n_6(tmp_path):
    rng = np.random.default_rng(6)
    alpha = rng.normal(size=64) + 1j * rng.normal(size=64)
    alpha /= np.linalg.norm(alpha)
    cells = rng.normal(size=(64, 2))
    cells /= np.linalg.norm(cells, axis=1, keepdims=True)
    config = {"n": 6, "mode": "quantum", "data": cells.tolist(),
              "address": [[a.real, a.imag] for a in alpha]}
    proc, out = run_capped(tmp_path, "query-sim", config)
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads((out / "query_sim.json").read_text())["queries"]
    assert record["tree_ground"]
    got = {(r["address_index"], r["bus"]): r["amplitude"] for r in record["address_bus"]}
    want = {(j, b): abs(alpha[j]) * abs(cells[j, b]) for j in range(64) for b in (0, 1)}
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key] == pytest.approx([w, 0.0], abs=1e-10), key


def test_query_sim_runs_quantum_cells_within_the_norm_tolerance(tmp_path):
    # a cell 3.2e-10 off unit norm passes validation, so the query must run
    config = {"n": 2, "mode": "quantum", "address": "00",
              "data": [[0.6, 0.8000000004], [1, 0], [1, 0], [1, 0]]}
    assert run(tmp_path, "query-sim", config=config) == 0
    (record,) = json.loads((tmp_path / "query_sim.json").read_text())["queries"]
    weights = {r["bus"]: r["amplitude"][0] for r in record["address_bus"]}
    nrm = math.hypot(0.6, 0.8000000004)
    assert weights[0] == pytest.approx(0.6 / nrm, abs=1e-10)
    assert weights[1] == pytest.approx(0.8000000004 / nrm, abs=1e-10)


# the default `montecarlo` table as the schedule-building sampler wrote it;
# the array sampler keeps every loss draw, so the file is byte-identical
MONTECARLO_DEFAULT_CSV = """\
# phonon-qram {version} | montecarlo | seed=0 | {{"encoding": "hybrid_dual_rail", \
"grid": [{{"T1_m": "100us", "T1_q": "100us", "n": 2}}, {{"T1_m": "2us", "T1_q": "100us", \
"n": 4}}, {{"T1_m": "2us", "T1_q": "100us", "n": 7}}], "t": "350ns", "trials": 100000}}
n,encoding,t_ns,T1q_us,T1m_us,trials,p_hat,stderr,p_closed,dev_sigma,agree_3sigma
2,hybrid_dual_rail,350,100,100,100000,0.93868,0.000758682131067,0.938943473689,0.347977755426,true
4,hybrid_dual_rail,350,100,2,100000,0.21521,0.00129959476723,0.213976248912,0.951320661634,true
7,hybrid_dual_rail,350,100,2,100000,0.02441,0.000487997457985,0.0239471291966,0.957406534704,true
"""


def test_montecarlo_default_table_is_unchanged(tmp_path):
    assert run(tmp_path, "montecarlo") == 0
    want = MONTECARLO_DEFAULT_CSV.format(version=__version__).encode()
    assert (tmp_path / "montecarlo.csv").read_bytes() == want


def test_standard_gantt_lanes_hold_every_hop(tmp_path):
    # each hop row of the CSV lies inside a waveguide span of its (k, rail) lane
    config = {"n": 4, "encodings": ["standard_dual_rail_vacuum"]}
    assert run(tmp_path, "schedule", config=config) == 0
    _, rows = csv_table(tmp_path / "schedule_standard.csv")
    gantt = json.loads((tmp_path / "schedule_standard_gantt.json").read_text())
    lanes = {(lane["excitation"], lane["rail"]): lane["spans"] for lane in gantt["lanes"]}
    t = gantt["t_ns"]
    assert {rail for _, rail in lanes} == {0, 1}
    for k, _level, slot, _direction, rail in rows:
        start, end = int(slot) * t, (int(slot) + 1) * t
        assert any(s["medium"] == "waveguide" and s["start_ns"] <= start and end <= s["end_ns"]
                   for s in lanes[int(k), int(rail)]), (k, slot, rail)


@pytest.mark.parametrize("trials, n", [(10000000000, 2), (1000000, 20)])
def test_montecarlo_refuses_draws_above_the_cap(tmp_path, trials, n):
    # the loss draw holds trials * (n + 1) elements at once
    config = {"trials": trials, "grid": [{"n": 1, "T1_q": "100us", "T1_m": "2us"},
                                         {"n": n, "T1_q": "100us", "T1_m": "2us"}]}
    proc, out = run_capped(tmp_path, "montecarlo", config)
    assert proc.returncode == 2, proc.stderr
    assert "trials * (n + 1) must be <= 2e+07" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("cmd, config", [
    ("schedule", {"n": 100000}),
    ("schedule", {"n": 65}),
    ("heralding", {"n_range": [1, 100000000]}),
    ("heralding", {"n_range": [1, 65]}),
    ("montecarlo", {"trials": 10,
                    "grid": [{"n": 2, "T1_q": "100us", "T1_m": "2us"},
                             {"n": 100000, "T1_q": "100us", "T1_m": "2us"}]}),
    ("montecarlo", {"trials": 10, "grid": [{"n": 1e308, "T1_q": "100us",
                                            "T1_m": "2us"}]}),
])
def test_schedule_heralding_montecarlo_refuse_n_above_64(tmp_path, cmd, config):
    proc, out = run_capped(tmp_path, cmd, config)
    assert proc.returncode == 2, proc.stderr
    assert "n must be <= 64" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("cmd, config", [
    ("heralding", {"T2_q_list": []}),
    ("heralding", {"T2_m": "5"}),
    ("schedule", {"n": 0}),
])
def test_config_error_creates_no_directory(tmp_path, cmd, config):
    out = tmp_path / "fresh"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("cmd, config", [
    ("heralding", {"t": "1e400ns", "n_range": [1, 2]}),
    ("montecarlo", {"t": "1e400ns", "trials": 10}),
    ("router-sim", {"fwhm": "1e400ns"}),
])
def test_a_duration_that_overflows_exits_2_and_writes_nothing(tmp_path, cmd, config):
    # float("1e400") is inf: it must be a config error, not a T = inf row,
    # a NaN estimate or a zero fidelity
    out = tmp_path / "fresh"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert cli._lifetime_us("inf", "T2_m") == math.inf


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["schedule", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_no_subcommand_takes_workers_window_or_shape(tmp_path):
    # route-fidelity runs one serial sweep; argparse rejects the old flags
    for cmd in SUBCOMMANDS:
        for flag, value in (("--workers", "2"), ("--window", "350ns"),
                            ("--shape", "gaussian")):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, cmd, flag, value)
            assert exc.value.code == 2, (cmd, flag)


def readme_command_lines():
    """Every `phonon-qram` command line in README.md's sh blocks, without
    trailing comments; the `<subcommand>` synopsis line is left out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("phonon-qram ") and "<subcommand>" not in line:
                lines.append(line)
    return lines


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


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
    # two encodings that would write the same schedule files
    ("schedule", {"encodings": ["single_rail", "hybrid_dual_rail"]}),
    ("schedule", {"encodings": ["standard_dual_rail_vacuum",
                                "standard_dual_rail_vacuum"]}),
    # values that would otherwise run something other than what was asked
    ("query-sim", {"data": [0.5, 1, 1, 0]}),
    ("montecarlo", {"trials": 1.5}),
    ("query-sim", {"n": 2.9}),
    ("query-sim", {"export_trace": "no"}),
    ("route-fidelity", {"kappa_grid_mhz": {"min": "nan", "max": 100, "points": 2}}),
    # a JSON boolean is not a number
    ("montecarlo", {"trials": True,
                    "grid": [{"n": 2, "T1_q": "100us", "T1_m": "2us"}]}),
    ("query-sim", {"n": True}),
    ("schedule", {"n": True}),
    ("router-sim", {"kappa_mhz": True}),
    ("router-sim", {"control_init": [True, False]}),
    ("route-fidelity", {"kappa_grid_mhz": {"min": 10, "max": 100, "points": True}}),
    # inputs that select nothing, or keys the grid does not know
    ("route-fidelity", {"kappa_grid_mhz": {"min": 10, "max": 100, "points": 2,
                                           "bogus": 1}}),
    ("heralding", {"n_range": [5, 2]}),
    ("montecarlo", {"grid": []}),
    ("heralding", {"T1_m_list": []}),
    ("schedule", {"encodings": []}),
    # an encoding that is not one of the three
    ("query-sim", {"encoding": "standard_dual_rail_logical"}),
    ("heralding", {"encoding": "standard_dual_rail_logical"}),
    ("montecarlo", {"encoding": "standard_dual_rail_logical", "trials": 10}),
    ("schedule", {"encodings": ["standard_dual_rail_logical"]}),
    # NaN must fail a norm check, not pass it and yield a NaN result
    ("router-sim", {"control_init": ["nan", 1]}),
    ("query-sim", {"n": 1, "address": ["nan", 1]}),
    ("query-sim", {"n": 1, "mode": "quantum", "data": [[math.nan, 1], [1, 0]],
                   "address": "0"}),
    # query-sim runs in units of t, so it has no duration key
    ("query-sim", {"t": "350ns"}),
    # a JSON boolean is not a data bit, a cell amplitude or an address amplitude
    ("query-sim", {"n": 2, "data": [True, False, False, True], "address": "11"}),
    ("query-sim", {"n": 1, "data": [0, 1], "address": [True, False]}),
    ("query-sim", {"n": 1, "mode": "quantum", "data": [[True, False], [0, 1]],
                   "address": "0"}),
    # a cell whose norm overflows is not normalised, not a traceback
    ("query-sim", {"n": 1, "mode": "quantum", "data": [[1e308, 1e308], [1, 0]],
                   "address": "0"}),
    ("router-sim", {"control_init": [1e308, 1e308]}),
    # an address pair is exactly [re, im]
    ("query-sim", {"n": 1, "data": [0, 1], "address": [[], 1]}),
    ("query-sim", {"n": 1, "data": [0, 1], "address": [[1], 0]}),
    # a config file that is not a JSON object
    ("schedule", [4]),
    # an address list of the wrong length, and one with zero norm
    ("query-sim", {"n": 1, "data": [0, 1], "address": [1, 0, 0]}),
    ("query-sim", {"n": 1, "data": [0, 1], "address": [0, 0]}),
    # quantum cells that are not [a, b] pairs
    ("query-sim", {"n": 1, "mode": "quantum", "data": [[1, 0, 0], [1, 0]], "address": "0"}),
    ("query-sim", {"n": 1, "mode": "quantum", "data": [1, 2], "address": "0"}),
    # a zero time step or coupling
    ("router-sim", {"dt": "0ns"}),
    ("router-sim", {"kappa_mhz": 0}),
])
def test_malformed_values_exit_2(tmp_path, cmd, config):
    assert run(tmp_path, cmd, config=config) == 2


# Small, fast configs: each top-level key in turn is replaced by a value of
# the wrong kind. No key that sizes work (n, n_range, trials) gets a big number.
SMALL_CONFIGS = {
    "route-fidelity": {"fwhm": "50ns", "shapes": ["gaussian"],
                       "kappa_grid_mhz": {"min": 200, "max": 200, "points": 1},
                       "windows": ["350ns"], "kappa_1d_mhz": 200.0},
    "router-sim": {"shape": "gaussian", "fwhm": "50ns", "kappa_mhz": 200.0,
                   "window": "350ns", "control_init": [1.0, 0.0],
                   "source": "left", "dt": None},
    "query-sim": {"n": 1, "encoding": "single_rail",
                  "mode": "classical", "data": [0, 1], "address": "1",
                  "export_trace": False},
    "heralding": {"n_range": [1, 2], "t": "350ns", "T1_q": "100us",
                  "T1_m_list": ["inf"], "T2_q_list": ["100us"], "T2_m": "inf",
                  "encoding": "hybrid_dual_rail"},
    "montecarlo": {"grid": [{"n": 2, "T1_q": "100us", "T1_m": "2us"}],
                   "t": "350ns", "encoding": "hybrid_dual_rail", "trials": 10},
    "schedule": {"n": 2, "t": "350ns", "encodings": ["hybrid_dual_rail"]},
}
SUBCOMMANDS = list(SMALL_CONFIGS)


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_every_config_key_keeps_the_exit_code_contract(tmp_path, cmd):
    assert run(tmp_path, cmd, config=SMALL_CONFIGS[cmd]) == 0
    for key in SMALL_CONFIGS[cmd]:
        for value in (True, None, "x"):
            config = {**SMALL_CONFIGS[cmd], key: value}
            assert run(tmp_path, cmd, config=config) in (0, 2, 3), (key, value)


# ---------------------------------------------------------------------------
# numerical failure (exit code 3)

def test_resolution_failure_exit_code(tmp_path):
    # a user-forced step far above the 0.1/kappa floor is a numerical failure
    cfg = {"window": "20000ns", "dt": "10ns"}
    assert run(tmp_path, "router-sim", config=cfg) == 3


@pytest.mark.parametrize("cmd, config", [
    ("router-sim", {"kappa_mhz": 1e308}),
    ("router-sim", {"kappa_mhz": 1e290}),
    ("route-fidelity", {"kappa_1d_mhz": 1e308,
                        "kappa_grid_mhz": {"min": 200, "max": 200, "points": 1}}),
    # the spectral width underflows before the time-domain grid is sized
    ("route-fidelity", {"fwhm": "1e200ns"}),
    # and before the time-domain envelope is drawn: not a zero envelope
    ("router-sim", {"fwhm": "1e200ns"}),
])
def test_grid_too_large_to_build_exit_3(tmp_path, cmd, config):
    # the step count is checked before any array is built
    assert run(tmp_path, cmd, config=config) == 3


def test_route_fidelity_failure_writes_no_csv(tmp_path):
    # the kappa sweep succeeds and the window sweep fails: neither file is written
    config = {"kappa_1d_mhz": 1e308,
              "kappa_grid_mhz": {"min": 200, "max": 200, "points": 1}}
    assert run(tmp_path, "route-fidelity", config=config) == 3
    assert not (tmp_path / "fig1c.csv").exists()
    assert not (tmp_path / "fig1d.csv").exists()
