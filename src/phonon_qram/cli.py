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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidParameterError, NumericalFailureError
from .qram_types import Encoding
from .wavepackets import PulseShape, WavePacket
from . import analytics, noise, router, scheduling
from .qram import DataRegister, QramConfig, build_query_gates, query, trace_to_json

_DUR_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(ns|us)\s*$")
_TWO_PI_MHZ = 2.0 * math.pi * 1e-3  # MHz -> rad/ns
# query-sim sizes its data register and a scan by N = 2**n; refuse larger n
# before anything of that size is built
_MAX_QUERY_N = 16
# each scan record repeats the N-long address, so a scan's output grows as
# N**2: 12.7 MB and 227 MB peak RSS at n = 10 (standard dual-rail)
_MAX_SCAN_N = 10
# route-fidelity runs a time-domain routing simulation per kappa point and
# shape; refuse a larger grid before it is built (1e9 points need 7.45 GiB)
_MAX_KAPPA_POINTS = 10**4
# montecarlo draws the hybrid branch choices of trials * (n + 1) losses in one
# piece, 5 bytes a draw under tracemalloc (standard keeps one block of u, about
# 3 MB), so this caps a grid point near 0.1 GB
_MAX_MC_DRAWS = 2 * 10**7
# schedule, heralding and montecarlo grow as n**2 or loop over n; every
# default has n <= 10, so refuse n above this before anything is built
_MAX_N = 64


def _duration_ns(value, key: str) -> float:
    """Durations must be strings with an explicit ns/us suffix."""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: durations need a unit suffix (ns/us), got {value!r}")
    m = _DUR_RE.match(value)
    if not m:
        raise ConfigError(f"{key}: cannot parse duration {value!r}")
    out = float(m.group(1)) * (1.0 if m.group(2) == "ns" else 1e3)
    if not math.isfinite(out):
        raise ConfigError(f"{key}: duration {value!r} is not finite")
    return out


def _number(kind, value, key: str):
    """`kind(value)` (int, float or complex), or a config error; an int
    must not drop a fractional part, and a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"{key}: expected int, got {value!r}")
    return out


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{key}: expected a non-empty list, got {value!r}")
    return value


def _lifetime_us(value, key: str) -> float:
    if isinstance(value, str) and value.strip() in ("inf", "infinite"):
        return math.inf
    return _duration_ns(value, key) / 1e3


def _enum(kind):
    """Parser for a value of the enum `kind`."""
    def parse(value, key: str):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"unknown {key} {value!r}") from None
    return parse


def _list_of(parse):
    """Parser for a non-empty list, each item read by `parse`."""
    return lambda value, key: [parse(x, key) for x in _list(value, key)]


def _int_at_most(most: int):
    """Parser for a size n that refuses n > `most` before anything is built."""
    def parse(value, key: str) -> int:
        n = _number(int, value, key)
        if n > most:
            raise ConfigError(f"n must be <= {most}, got {value!r}")
        return n
    return parse


def _kappa_grid(value, key: str) -> np.ndarray:
    """{min, max, points} in MHz -> a geometric grid in rad/ns."""
    if not (isinstance(value, dict) and set(value) == {"min", "max", "points"}):
        raise ConfigError(f"{key} needs exactly min, max and points: {value!r}")
    points = _number(int, value["points"], f"{key}.points")
    if not 1 <= points <= _MAX_KAPPA_POINTS:
        raise ConfigError(f"{key}.points must be in 1..{_MAX_KAPPA_POINTS}, got {points}")
    lo, hi = (_number(float, value[k], f"{key}.{k}") for k in ("min", "max"))
    if not (lo > 0 and hi > 0):
        raise ConfigError(f"{key} min/max must be > 0, got {lo}, {hi}")
    return np.geomspace(lo, hi, points) * _TWO_PI_MHZ


def _control_init(value, key: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be [alpha, beta]")
    return tuple(_number(complex, c, key) for c in value)


def _n_range(value, key: str) -> range:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be [lo, hi], got {value!r}")
    lo, hi = _number(int, value[0], key), _int_at_most(_MAX_N)(value[1], key)
    if lo > hi:
        raise ConfigError(f"{key} must have lo <= hi, got {value!r}")
    return range(lo, hi + 1)


def _grid_point(value, key: str) -> tuple:
    """A montecarlo grid point {n, T1_q, T1_m} -> (n, T1_q in us, T1_m in us)."""
    if not (isinstance(value, dict) and set(value) == {"n", "T1_q", "T1_m"}):
        raise ConfigError(f"{key} must be a list of {{n, T1_q, T1_m}} points: {value!r}")
    return (_int_at_most(_MAX_N)(value["n"], "n"), _lifetime_us(value["T1_q"], "T1_q"),
            _lifetime_us(value["T1_m"], "T1_m"))


def _load_config(args, spec: dict) -> tuple[dict, dict]:
    """(echo, values) for --config read against `spec`, {key: (default, parse)}.
    echo is the config as given over the defaults, for the output metadata;
    values holds parse(echo[key], key), so a command has checked its whole
    config before it computes anything.  A parse of None leaves the key to a
    check in the command that also reads other keys."""
    echo = {key: default for key, (default, _) in spec.items()}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        if unknown := set(user) - set(spec):
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        echo.update(user)
    return echo, {key: parse(echo[key], key) for key, (_, parse) in spec.items() if parse}


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
    # json.dumps without indent runs the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def _write_sweep(path, rows, meta: str) -> None:
    _write_csv(path, list(rows[0]), (row.values() for row in rows), meta)


# ---------------------------------------------------------------------------
# subcommands

def cmd_route_fidelity(args) -> int:
    echo, cfg = _load_config(args, {
        "fwhm": ("50ns", _duration_ns),
        "shapes": (["gaussian", "sech"], _list_of(_enum(PulseShape))),
        "kappa_grid_mhz": ({"min": 10.0, "max": 1000.0, "points": 25}, _kappa_grid),
        "windows": (["150ns", "250ns", "350ns", "450ns", "550ns", "650ns",
                     "750ns", "850ns", "950ns", "1050ns"], _list_of(_duration_ns)),
        "kappa_1d_mhz": (200.0, partial(_number, float)),
    })
    # both sweeps run before either file is written, so a failure writes nothing
    c_rows = router.sweep_kappa(cfg["shapes"], cfg["fwhm"], cfg["kappa_grid_mhz"])
    d_rows = router.sweep_window(cfg["shapes"], cfg["fwhm"],
                                 cfg["kappa_1d_mhz"] * _TWO_PI_MHZ, cfg["windows"])
    out = _outdir(args)
    _write_sweep(out / "fig1c.csv", c_rows, _meta(args, echo))
    _write_sweep(out / "fig1d.csv", d_rows, _meta(args, echo))
    return 0


def cmd_router_sim(args) -> int:
    echo, cfg = _load_config(args, {
        "shape": ("gaussian", _enum(PulseShape)),
        "fwhm": ("50ns", _duration_ns),
        "kappa_mhz": (200.0, partial(_number, float)),
        "window": ("350ns", _duration_ns),
        "control_init": ([0.7071067811865476, 0.7071067811865476], _control_init),
        "source": ("left", _enum(router.Source)),
        "dt": (None, lambda value, key: None if value is None else _duration_ns(value, key)),
    })
    sim = router.simulate_routing(router.RouterSimConfig(
        packet=WavePacket(cfg["shape"], cfg["fwhm"]), kappa_max=cfg["kappa_mhz"] * _TWO_PI_MHZ,
        window=cfg["window"], dt=cfg["dt"], control_init=cfg["control_init"],
        source=cfg["source"],
    ))
    payload = {
        "params": echo,
        "fidelity": sim.fidelity,
        "leakage": sim.leakage,
        "final_state": {k: [v.real, v.imag] for k, v in sim.final_state.items()},
    }
    _write_json(_outdir(args) / "router_sim.json", payload)
    return 0


def _parse_address(spec, N: int, n: int) -> np.ndarray:
    """'scan' (every basis address) | bitstring | list of amplitudes -> (B, N)."""
    if spec == "scan":
        if n > _MAX_SCAN_N:
            raise ConfigError(f"an address scan needs n <= {_MAX_SCAN_N}, got {n}")
        return np.eye(N, dtype=complex)
    if isinstance(spec, str):
        if len(spec) != n or any(c not in "01" for c in spec):
            raise ConfigError(f"malformed address string {spec!r} for n={n}")
        return np.eye(1, N, int(spec, 2), dtype=complex)
    if isinstance(spec, list):
        if len(spec) != N:
            raise ConfigError(f"address needs {N} amplitudes")
        v = np.asarray([complex(*(_number(float, y, "address") for y in x))
                        if isinstance(x, list) and len(x) == 2
                        else _number(complex, x, "address") for x in spec])
        if not np.isfinite(v).all():
            raise ConfigError(f"address amplitudes must be finite, got {spec!r}")
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ConfigError("address state has zero norm")
        return (v / nrm)[None]
    raise ConfigError(f"cannot parse address {spec!r}")


def cmd_query_sim(args) -> int:
    echo, cfg = _load_config(args, {
        "n": (2, _int_at_most(_MAX_QUERY_N)),
        "encoding": ("single_rail", _enum(Encoding)),
        "mode": ("classical", None),
        "data": (None, None),  # classical default: address parity, popcount(j) % 2
        "address": ("scan", None),
        "export_trace": (False, _bool),
    })
    qcfg = QramConfig(n=cfg["n"], encoding=cfg["encoding"])
    N = qcfg.N
    if echo["data"] is None:
        if echo["mode"] == "quantum":
            raise ConfigError("quantum mode needs an explicit data register")
        echo["data"] = [j.bit_count() % 2 for j in range(N)]
    try:
        if echo["mode"] == "classical":
            data = DataRegister.classical(
                [_number(int, b, "data") for b in _list(echo["data"], "data")])
        elif echo["mode"] == "quantum":
            data = DataRegister.quantum([tuple(_number(complex, a, "data") for a in q)
                                         for q in _list(echo["data"], "data")])
        else:
            raise ConfigError(f"unknown data mode {echo['mode']!r}")
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {echo['mode']} data {echo['data']!r}") from None
    addresses = _parse_address(echo["address"], N, qcfg.n)
    records = [{
        "address": address,
        "address_bus": [{"address_index": j, "bus": lvl, "amplitude": [a.real, a.imag]}
                        for (j, lvl), a in sorted(res.address_bus.items())],
        "tree_ground": res.tree_ground,
        "max_support": res.max_support,
    } for res, address in zip(query(qcfg, addresses, data),
                              addresses.view(float).reshape(len(addresses), N, 2).tolist())]
    payload = {"params": echo, "meta": _meta(args, echo), "queries": records}
    out = _outdir(args)
    _write_json(out / "query_sim.json", payload)
    if cfg["export_trace"]:
        _write_json(out / "query_trace.json", trace_to_json(build_query_gates(qcfg, data)))
    return 0


def cmd_heralding(args) -> int:
    echo, cfg = _load_config(args, {
        "n_range": ([1, 10], _n_range),
        "t": ("350ns", _duration_ns),
        "T1_q": ("100us", _lifetime_us),
        "T1_m_list": (["0.5us", "2us", "10us", "inf"], _list_of(_lifetime_us)),
        "T2_q_list": (["100us", "300us", "1000us"], _list_of(_lifetime_us)),
        "T2_m": ("inf", _lifetime_us),
        "encoding": ("hybrid_dual_rail", _enum(Encoding)),
    })
    ns, t = cfg["n_range"], cfg["t"]
    # both tables are built before either file is written, so an error writes nothing
    rows = [row for T1m in cfg["T1_m_list"]
            for row in analytics.heralding_sweep_rows(ns, t, cfg["T1_q"], T1m, cfg["encoding"])]
    drows = analytics.dephasing_sweep_rows(ns, t, cfg["T2_q_list"], cfg["T2_m"])
    out = _outdir(args)
    _write_csv(out / "fig4a.csv",
               "n,N,t_ns,T1q_us,T1m_us,T,P,Pmin,Pmax,rate_hz".split(","),
               rows, _meta(args, echo))
    _write_csv(out / "fig4b.csv",
               "n,T2q_us,P_dephasing,approx_first_order".split(","),
               drows, _meta(args, echo))
    return 0


def cmd_montecarlo(args) -> int:
    echo, cfg = _load_config(args, {
        "grid": ([{"n": 2, "T1_q": "100us", "T1_m": "100us"},
                  {"n": 4, "T1_q": "100us", "T1_m": "2us"},
                  {"n": 7, "T1_q": "100us", "T1_m": "2us"}], _list_of(_grid_point)),
        "t": ("350ns", _duration_ns),
        "encoding": ("hybrid_dual_rail", _enum(Encoding)),
        "trials": (100000, partial(_number, int)),
    })
    t, enc, trials, points = cfg["t"], cfg["encoding"], cfg["trials"], cfg["grid"]
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if max(trials * (n + 1) for n, _, _ in points) > _MAX_MC_DRAWS:
        raise ConfigError(f"trials * (n + 1) must be <= {_MAX_MC_DRAWS:.0e}, got "
                          f"trials={trials} with n up to {max(n for n, _, _ in points)}")
    rows = []
    for i, (n, T1q, T1m) in enumerate(points):
        qcfg = QramConfig(n=n, t=t, encoding=enc)
        nm = noise.NoiseModel(T1_q=T1q, T1_m=T1m)
        p_hat, se = noise.estimate_success_prob(qcfg, nm, trials, (args.seed, i))
        p_closed = analytics.heralding_report(n, t, T1q, T1m, enc).P_no_error
        # sigma from the closed form: at few trials p_hat, and so se, can be 0
        sigma = math.sqrt(p_closed * (1.0 - p_closed) / trials)
        dev = (abs(p_hat - p_closed) / sigma if sigma > 0
               else 0.0 if p_hat == p_closed else math.inf)
        rows.append((n, enc.value, t, T1q, T1m, trials,
                     p_hat, se, p_closed, dev, bool(dev < 3.0)))
    header = ("n,encoding,t_ns,T1q_us,T1m_us,trials,p_hat,stderr,p_closed,"
              "dev_sigma,agree_3sigma").split(",")
    _write_csv(_outdir(args) / "montecarlo.csv", header, rows, _meta(args, echo))
    return 0


def cmd_schedule(args) -> int:
    echo, cfg = _load_config(args, {
        "n": (4, _int_at_most(_MAX_N)),
        "t": ("350ns", _duration_ns),
        "encodings": (["hybrid_dual_rail", "standard_dual_rail_vacuum"],
                      _list_of(_enum(Encoding))),
    })
    tags = ["standard" if enc.is_standard else "hybrid" for enc in cfg["encodings"]]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"encodings {echo['encodings']!r} share an output file; "
                          "give at most one standard and one non-standard")
    scheds = [scheduling.build_schedule(cfg["n"], enc, cfg["t"]) for enc in cfg["encodings"]]
    out = _outdir(args)
    report = {}
    for sched, tag in zip(scheds, tags):
        _write_csv(out / f"schedule_{tag}.csv",
                   ["k", "level", "slot_start", "direction", "rail"],
                   ((e.k, e.level, e.slot_start, e.direction, e.rail)
                    for e in sched.entries),
                   _meta(args, echo))
        _write_json(out / f"schedule_{tag}_gantt.json",
                    scheduling.schedule_to_gantt_json(sched))
        report[tag] = {
            "encoding": sched.encoding.value,
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
