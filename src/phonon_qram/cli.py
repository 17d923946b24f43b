"""Command-line front end: emits figure/table data as CSV and JSON.

This is the one module that writes output files: the layers return rows
or dicts, and `_write_csv`/`_write_json` own the file format.

Subcommands: route-fidelity, router-sim, query-sim, heralding, montecarlo,
schedule.  Each takes a strict JSON parameter file (--config): unknown keys
are rejected, and every duration must carry an explicit ns/us suffix.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidParameterError, NumericalFailureError
from .qram_types import DataMode, Encoding
from .wavepackets import PulseShape, ReflectionResponse, WavePacket, distortion_fidelity
from . import analytics, noise, router, scheduling
from .qram import DataRegister, QramConfig, query, trace_to_json

_DUR_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(ns|us)\s*$")
_TWO_PI_MHZ = 2.0 * math.pi * 1e-3  # MHz -> rad/ns


def _duration_ns(value, key: str) -> float:
    """Durations must be strings with an explicit ns/us suffix."""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: durations need a unit suffix (ns/us), got {value!r}")
    m = _DUR_RE.match(value)
    if not m:
        raise ConfigError(f"{key}: cannot parse duration {value!r}")
    scale = 1.0 if m.group(2) == "ns" else 1e3
    return float(m.group(1)) * scale


def _number(kind, value, key: str):
    """`kind(value)` (int, float or complex), or a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    return value


def _lifetime_us(value, key: str) -> float:
    if isinstance(value, str) and value.strip() in ("inf", "infinite"):
        return math.inf
    return _duration_ns(value, key) / 1e3


def _shape(name: str) -> PulseShape:
    try:
        return PulseShape(name)
    except ValueError:
        raise ConfigError(f"unknown pulse shape {name!r}") from None


def _encoding(name: str) -> Encoding:
    try:
        return Encoding(name)
    except ValueError:
        raise ConfigError(f"unknown encoding {name!r}") from None


def _load_config(path, defaults: dict) -> dict:
    cfg = dict(defaults)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.update(user)
    return cfg


def _meta(args, params: dict) -> str:
    echo = json.dumps(params, sort_keys=True, default=str)
    return f"phonon-qram {__version__} | {args.cmd} | seed={args.seed} | {echo}"


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cell(v) -> str:
    """str as is, bool as true/false, int as digits, else 12 significant digits."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(v, ".12g")


def _write_csv(path, header, rows, meta: str) -> None:
    """The one CSV writer: a `#` metadata line, a header, one line per row."""
    with open(path, "w") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_sweep(path, rows, meta: str) -> None:
    cols = ["param", "shape", "infidelity"]
    if rows and "infidelity_td" in rows[0]:
        cols.append("infidelity_td")
    _write_csv(path, cols, ([row[c] for c in cols] for row in rows), meta)


# ---------------------------------------------------------------------------
# subcommands

def cmd_route_fidelity(args) -> int:
    defaults = {
        "fwhm": "50ns",
        "shapes": ["gaussian", "sech"],
        "kappa_grid_mhz": {"min": 10.0, "max": 1000.0, "points": 25},
        "windows": ["150ns", "250ns", "350ns", "450ns", "550ns", "650ns",
                    "750ns", "850ns", "950ns", "1050ns"],
        "kappa_1d_mhz": 200.0,
        "time_domain": True,
    }
    cfg = _load_config(args.config, defaults)
    fwhm = _duration_ns(cfg["fwhm"], "fwhm")
    kappa_1d = _number(float, cfg["kappa_1d_mhz"], "kappa_1d_mhz") * _TWO_PI_MHZ
    out = _outdir(args)

    if args.window is not None or args.pulse_shape is not None:
        # single-point mode
        if args.window is None or args.pulse_shape is None:
            raise ConfigError("--window and --shape must be given together")
        packet = WavePacket(_shape(args.pulse_shape), fwhm)
        sim = router.simulate_routing(router.RouterSimConfig(
            packet=packet, kappa_max=kappa_1d,
            window=_duration_ns(args.window, "--window"),
        ))
        rows = [{"param": kappa_1d, "shape": packet.shape.value,
                 "infidelity": 1.0 - sim.fidelity}]
        _write_sweep(out / "fig1c.csv", rows, _meta(args, cfg))
        return 0

    shapes = [_shape(s) for s in _list(cfg["shapes"], "shapes")]
    grid = cfg["kappa_grid_mhz"]
    if not isinstance(grid, dict) or _number(int, grid.get("points", 0), "points") < 1:
        raise ConfigError("kappa_grid_mhz needs min/max/points with points >= 1")
    lo, hi = (_number(float, grid.get(k), f"kappa_grid_mhz.{k}") for k in ("min", "max"))
    if not (lo > 0 and hi > 0):
        raise ConfigError(f"kappa_grid_mhz min/max must be > 0, got {lo}, {hi}")
    kappas = np.geomspace(lo, hi, int(grid["points"])) * _TWO_PI_MHZ
    rows = router.sweep_kappa(
        shapes, fwhm, kappas,
        include_timedomain=bool(cfg["time_domain"]), workers=args.workers,
    )
    _write_sweep(out / "fig1c.csv", rows, _meta(args, cfg))

    windows = [_duration_ns(w, "windows") for w in _list(cfg["windows"], "windows")]
    rows = router.sweep_window(
        shapes, fwhm, kappa_1d, windows,
        workers=args.workers,
    )
    _write_sweep(out / "fig1d.csv", rows, _meta(args, cfg))
    return 0


def cmd_router_sim(args) -> int:
    defaults = {
        "shape": "gaussian",
        "fwhm": "50ns",
        "kappa_mhz": 200.0,
        "window": "350ns",
        "control_init": [0.7071067811865476, 0.7071067811865476],
        "source": "left",
        "dt": None,
    }
    cfg = _load_config(args.config, defaults)
    packet = WavePacket(_shape(cfg["shape"]), _duration_ns(cfg["fwhm"], "fwhm"))
    ctrl = cfg["control_init"]
    if not (isinstance(ctrl, list) and len(ctrl) == 2):
        raise ConfigError("control_init must be [alpha, beta]")
    try:
        source = router.Source(cfg["source"])
    except ValueError:
        raise ConfigError(f"unknown source {cfg['source']!r}") from None
    sim = router.simulate_routing(router.RouterSimConfig(
        packet=packet,
        kappa_max=_number(float, cfg["kappa_mhz"], "kappa_mhz") * _TWO_PI_MHZ,
        window=_duration_ns(cfg["window"], "window"),
        dt=None if cfg["dt"] is None else _duration_ns(cfg["dt"], "dt"),
        control_init=tuple(_number(complex, c, "control_init") for c in ctrl),
        source=source,
    ))
    payload = {
        "params": cfg,
        "fidelity": sim.fidelity,
        "leakage": sim.leakage,
        "final_state": {k: [v.real, v.imag] for k, v in sim.final_state.items()},
    }
    _write_json(_outdir(args) / "router_sim.json", payload)
    return 0


def _parse_address(spec, N: int, n: int):
    """'scan' | bitstring | list of amplitudes."""
    if spec == "scan":
        return None
    if isinstance(spec, str):
        if len(spec) != n or any(c not in "01" for c in spec):
            raise ConfigError(f"malformed address string {spec!r} for n={n}")
        v = np.zeros(N, complex)
        v[int(spec, 2)] = 1.0
        return v
    if isinstance(spec, list):
        if len(spec) != N:
            raise ConfigError(f"address needs {N} amplitudes")
        try:
            v = np.asarray([complex(*x) if isinstance(x, list) else complex(x)
                            for x in spec])
        except (TypeError, ValueError):
            raise ConfigError(f"cannot parse address amplitudes {spec!r}") from None
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ConfigError("address state has zero norm")
        return v / nrm
    raise ConfigError(f"cannot parse address {spec!r}")


def cmd_query_sim(args) -> int:
    defaults = {
        "n": 2,
        "t": "350ns",
        "encoding": "single_rail",
        "mode": "classical",
        "data": [0, 1, 1, 0],
        "address": "scan",
        "export_trace": False,
    }
    cfg = _load_config(args.config, defaults)
    qcfg = QramConfig(
        n=_number(int, cfg["n"], "n"),
        t=_duration_ns(cfg["t"], "t"),
        encoding=_encoding(cfg["encoding"]),
    )
    N = qcfg.N
    try:
        if cfg["mode"] == "classical":
            data = DataRegister.classical(cfg["data"])
        elif cfg["mode"] == "quantum":
            data = DataRegister.quantum([tuple(q) for q in cfg["data"]])
        else:
            raise ConfigError(f"unknown data mode {cfg['mode']!r}")
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {cfg['mode']} data {cfg['data']!r}") from None
    addr = _parse_address(cfg["address"], N, qcfg.n)

    addresses = (
        [np.eye(N, dtype=complex)[j] for j in range(N)] if addr is None else [addr]
    )
    records, results = [], []
    for v in addresses:
        res = query(qcfg, v, data)
        results.append(res)
        records.append({
            "address": [[a.real, a.imag] for a in v],
            "address_bus": [
                {"address_index": j, "bus": lvl,
                 "amplitude": [complex(a).real, complex(a).imag]}
                for (j, lvl), a in sorted(res.address_bus.items())
            ],
            "tree_ground": res.tree_ground,
            "max_support": res.max_support,
        })
    payload = {"params": cfg, "meta": _meta(args, cfg), "queries": records}
    out = _outdir(args)
    _write_json(out / "query_sim.json", payload)
    if cfg["export_trace"]:
        _write_json(out / "query_trace.json", trace_to_json(results[0].trace))
    return 0


def cmd_heralding(args) -> int:
    defaults = {
        "n_range": [1, 10],
        "t": "350ns",
        "T1_q": "100us",
        "T1_m_list": ["0.5us", "2us", "10us", "inf"],
        "T2_q_list": ["100us", "300us", "1000us"],
        "T2_m": "inf",
        "encoding": "hybrid_dual_rail",
    }
    cfg = _load_config(args.config, defaults)
    if not (isinstance(cfg["n_range"], list) and len(cfg["n_range"]) == 2):
        raise ConfigError(f"n_range must be [lo, hi], got {cfg['n_range']!r}")
    lo, hi = (_number(int, x, "n_range") for x in cfg["n_range"])
    ns = range(lo, hi + 1)
    t = _duration_ns(cfg["t"], "t")
    T1q = _lifetime_us(cfg["T1_q"], "T1_q")
    enc = _encoding(cfg["encoding"])
    rows = []
    for T1m_raw in _list(cfg["T1_m_list"], "T1_m_list"):
        T1m = _lifetime_us(T1m_raw, "T1_m_list")
        rows.extend(analytics.heralding_sweep_rows(ns, t, T1q, T1m, enc))
    out = _outdir(args)
    _write_csv(out / "fig4a.csv",
               "n,N,t_ns,T1q_us,T1m_us,T,P,Pmin,Pmax,rate_hz".split(","),
               rows, _meta(args, cfg))

    T2s = [_lifetime_us(x, "T2_q_list") for x in _list(cfg["T2_q_list"], "T2_q_list")]
    T2m = _lifetime_us(cfg["T2_m"], "T2_m")
    drows = analytics.dephasing_sweep_rows(ns, t, T2s, T2m)
    _write_csv(out / "fig4b.csv",
               "n,T2q_us,P_dephasing,approx_first_order".split(","),
               drows, _meta(args, cfg))
    return 0


def cmd_montecarlo(args) -> int:
    defaults = {
        "grid": [
            {"n": 2, "T1_q": "100us", "T1_m": "100us"},
            {"n": 4, "T1_q": "100us", "T1_m": "2us"},
            {"n": 7, "T1_q": "100us", "T1_m": "2us"},
        ],
        "t": "350ns",
        "encoding": "hybrid_dual_rail",
        "trials": 100000,
    }
    cfg = _load_config(args.config, defaults)
    trials = _number(int, cfg["trials"], "trials")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    t = _duration_ns(cfg["t"], "t")
    enc = _encoding(cfg["encoding"])
    rows = []
    grid = cfg["grid"]
    if not (isinstance(grid, list) and all(
            isinstance(p, dict) and set(p) == {"n", "T1_q", "T1_m"} for p in grid)):
        raise ConfigError(f"grid must be a list of {{n, T1_q, T1_m}} points: {grid!r}")
    for i, point in enumerate(grid):
        n = _number(int, point["n"], "n")
        T1q = _lifetime_us(point["T1_q"], "T1_q")
        T1m = _lifetime_us(point["T1_m"], "T1_m")
        qcfg = QramConfig(n=n, t=t, encoding=enc)
        nm = noise.NoiseModel(T1_q=T1q, T1_m=T1m)
        p_hat, se = noise.estimate_success_prob(qcfg, nm, trials, (args.seed, i))
        if enc is Encoding.HYBRID_DUAL_RAIL:
            p_closed, _, _ = analytics.success_prob_hybrid(n, t, T1q, T1m)
        else:
            p_closed = analytics.success_prob_standard_vacuum(n, t, T1q, T1m)
        dev = abs(p_hat - p_closed) / se if se > 0 else 0.0
        rows.append((n, enc.value, t, T1q, T1m, trials,
                     p_hat, se, p_closed, dev, bool(dev < 3.0)))
    header = ("n,encoding,t_ns,T1q_us,T1m_us,trials,p_hat,stderr,p_closed,"
              "dev_sigma,agree_3sigma").split(",")
    _write_csv(_outdir(args) / "montecarlo.csv", header, rows, _meta(args, cfg))
    return 0


def cmd_schedule(args) -> int:
    defaults = {"n": 4, "t": "350ns",
                "encodings": ["hybrid_dual_rail", "standard_dual_rail_vacuum"]}
    cfg = _load_config(args.config, defaults)
    n = _number(int, cfg["n"], "n")
    t = _duration_ns(cfg["t"], "t")
    encs = [_encoding(name) for name in _list(cfg["encodings"], "encodings")]
    tags = ["standard" if enc.is_standard else "hybrid" for enc in encs]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"encodings {cfg['encodings']!r} share an output file; "
                          "give at most one standard and one non-standard")
    out = _outdir(args)
    report = {}
    for enc, tag in zip(encs, tags):
        sched = scheduling.build_schedule(n, enc, t)
        _write_csv(out / f"schedule_{tag}.csv",
                   ["k", "level", "slot_start", "direction", "rail"],
                   ((e.k, e.level, e.slot_start, e.direction, e.rail)
                    for e in sched.entries),
                   _meta(args, cfg))
        _write_json(out / f"schedule_{tag}_gantt.json",
                    scheduling.schedule_to_gantt_json(sched))
        report[tag] = {
            "encoding": enc.value,
            "makespan_slots": sched.makespan_slots,
            "makespan_ns": sched.makespan,
            "problems": scheduling.validate_schedule(sched),
        }
    _write_json(out / "schedule_report.json", report)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phonon-qram",
        description="Phonon-routing QRAM simulator and analytics toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)
    cmds = {
        "route-fidelity": cmd_route_fidelity,
        "router-sim": cmd_router_sim,
        "query-sim": cmd_query_sim,
        "heralding": cmd_heralding,
        "montecarlo": cmd_montecarlo,
        "schedule": cmd_schedule,
    }
    for name, fn in cmds.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON parameter file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1)
        if name == "route-fidelity":
            sp.add_argument("--window", default=None,
                            help="single-point routing window, e.g. 350ns")
            sp.add_argument("--shape", dest="pulse_shape", default=None,
                            choices=[s.value for s in PulseShape])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
