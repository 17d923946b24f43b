"""Benchmark of the phonon-QRAM simulator.

One closed-loop client in one process (no worker pool) runs the fixed,
seeded item list of a workload pass after pass until ``--seconds`` is spent,
checks every output, and prints one JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics of untraced passes; ``--trace 1``
runs untraced passes for half the time, then one traced pass of the same
items, and reports the per-layer metrics.  Set-up time is measured in fresh
interpreters (``probe.py``) on every run.  A run record, and in traced runs
the spans, are written under ``perfbench/out/``.

    python3 perfbench/run.py --workload noise_mc --seed 1 --seconds 35 --trace 0

Workloads: query_superposed, router_sweep, noise_mc (see ``workloads.py``
and ``README.md``).
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
    "item_p90_ms": "ms", "peak_rss_mb": "MB", "error_rate": "fraction",
}


class SetupError(RuntimeError):
    """The package cannot be imported or set up; no result is printed."""


def load_package():
    """Import the package from this checkout's src/ with BLAS threads capped."""
    if not (SRC / "phonon_qram" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'phonon_qram'}; "
                         "run from the root of a checkout of the repository")
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import phonon_qram
    if Path(phonon_qram.__file__).resolve().parent != SRC / "phonon_qram":
        raise SetupError(f"imported phonon_qram from {phonon_qram.__file__}, not {SRC}")
    return phonon_qram


def probe_setup(workload: str) -> dict:
    """Median set-up over fresh interpreters, split into import and first calls."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), "--workload", workload],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
        except subprocess.TimeoutExpired:
            raise SetupError("set-up probe timed out") from None
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    totals = [s["import_s"] + sum(s["first_call"].values()) for s in samples]
    return {
        "samples": samples,
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "first_call": {
            entry: statistics.median(s["first_call"][entry] for s in samples)
            for entry in samples[0]["first_call"]
        },
    }


def _rounded(v):
    """Output values rounded to 1e-9, so that a digest ignores float noise."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, complex):
        return (_rounded(v.real), _rounded(v.imag))
    if isinstance(v, float):
        return round(v, 9) + 0.0
    if isinstance(v, (tuple, list)):
        return tuple(_rounded(x) for x in v)
    return int(v)


def run_pass(wl, tracer=None) -> dict:
    """Run every item once; time the call, then check it outside the timing."""
    lat, digests, outputs, failures = [], [], [], {}
    check_s = 0.0
    start = time.perf_counter()
    for i, item in enumerate(wl.items):
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            out, problems = item.call(), []
        except Exception as exc:  # an item that raises is a failed item
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.item = -1
        c0 = time.perf_counter()
        digest = ""
        if out is not None:
            try:
                problems = item.check(out)
                digest = hashlib.sha256(repr(_rounded(item.digest(out))).encode()).hexdigest()
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[i] = f"item {i} ({item.cls}): " + "; ".join(problems)
        digests.append(digest)
        if wl.pass_check is not None:
            outputs.append(out)
        check_s += time.perf_counter() - c0
    if wl.pass_check is not None:
        c0 = time.perf_counter()
        for i, problem in wl.pass_check(outputs).items():
            failures.setdefault(i, f"item {i} ({wl.items[i].cls}): {problem}")
        check_s += time.perf_counter() - c0
    return {"lat": lat, "digests": digests, "failures": failures,
            "check_s": check_s, "wall_s": time.perf_counter() - start}


def error_rate_bound(failed: int, items: int) -> float:
    """One-sided 95% Clopper-Pearson upper limit on the per-item failure
    rate; with no failure it is 1 - 0.05**(1/items), never zero."""
    if failed >= items:
        return 1.0
    lo, hi = failed / items, 1.0
    for _ in range(60):
        p = 0.5 * (lo + hi)
        cdf = sum(math.comb(items, k) * p ** k * (1.0 - p) ** (items - k)
                  for k in range(failed + 1))
        lo, hi = (p, hi) if cdf > 0.05 else (lo, p)
    return hi


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict, list]:
    """Run one benchmark run; returns (result line, run record, spans)."""
    import tracing
    import workloads

    setup = probe_setup(workload)
    for _, call in workloads.cold_calls(workload):
        call()
    wl = workloads.build(workload, seed, size)

    budget = seconds / 2.0 if trace else seconds
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        # stop when the next pass would end past the budget by more than
        # half a pass, so a run measures about `budget` seconds on average
        half = 0.5 * statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + half > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = None, None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, tracer)
        finally:
            tracer.uninstall()

    ran = passes + ([traced] if traced else [])
    reference = passes[0]["digests"]
    for p in ran[1:]:
        for i, (d, ref) in enumerate(zip(p["digests"], reference)):
            if d != ref:
                p["failures"].setdefault(i, f"item {i}: output differs from the first pass")
    attempted = sum(len(p["lat"]) for p in ran)
    failed = sum(len(p["failures"]) for p in ran)

    # each item's latency is the median of its repeats, one per pass, so a
    # host slowdown or speed-up over less than half of the run drops out
    lat = [statistics.median(p["lat"][i] for p in passes) for i in range(len(wl.items))]
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    order = sorted(range(len(lat)), key=lat.__getitem__)

    def classes_at(q):
        """Item classes on both sides of a percentile rank."""
        r = (len(lat) - 1) * q
        return sorted({wl.items[order[i]].cls for i in (math.floor(r), math.ceil(r))})

    end_to_end = {
        "setup_s": setup["setup_s"],
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": cuts[49] * 1e3,
        "item_p90_ms": cuts[89] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": error_rate_bound(
            max(len(p["failures"]) for p in ran), len(wl.items)),
    }

    classes = Counter(item.cls for item in wl.items)
    fingerprint = {
        "items_per_class": dict(sorted(classes.items())),
        "output_digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "item_digests": [d[:12] for d in reference],
    }
    per_layer = None
    if trace:
        per_layer = tracer.layer_metrics()
        fingerprint["exact_counts"] = {k: per_layer[k] for k in tracing.EXACT_COUNTS}
        untraced_s = statistics.median(sum(p["lat"]) for p in passes)
        per_layer.update({
            "router.first_call_s": setup["first_call"].get("router.simulate_routing", 0.0),
            "bench.check_s": traced["check_s"],
            "bench.trace_overhead": sum(traced["lat"]) / untraced_s,
            "setup.import_s": setup["import_s"],
            "setup.first_call_s": sum(setup["first_call"].values()),
        })
        per_layer = {k: per_layer[k] for k in tracing.PER_LAYER}
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}

    problems = [f for p in ran for f in p["failures"].values()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "machine": machine_info(),
        "blas_threads": NPROC, "clients": 1, "workers": 1,
        "items_per_pass": len(wl.items),
        "passes": {"untraced": len(passes), "traced": 1 if trace else 0},
        "pass_wall_s": [p["wall_s"] for p in ran],
        "latency_samples": len(lat),
        "percentile_classes": {"p50": classes_at(0.5), "p90": classes_at(0.9)},
        "setup": setup,
        "end_to_end_untraced": end_to_end,
        "per_layer_traced": per_layer,
        "fingerprint": fingerprint,
        "attempted": attempted, "failed": failed,
        "failures": problems[:50],
    }
    return result, record, tracer.spans if trace else []


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC, "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_describe": git_describe(),
    }


def git_describe() -> str | None:
    """`git describe` of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def write_record(record: dict, spans: list) -> Path:
    """Write the run record and, for a traced run, its spans."""
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    if record["trace"]:
        t_ref = spans[0][1] if spans else 0.0
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt", compresslevel=1) as fh:
            fh.write('["name", "start_s", "end_s", "parent", "item"]\n')
            for name, t0, t1, parent, item in spans:
                fh.write(json.dumps([name, t0 - t_ref, t1 - t_ref, parent, item]) + "\n")
        record["spans_file"] = f"{stem}-spans.jsonl.gz"
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        load_package()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
        result, record, spans = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record, spans)
    for problem in record["failures"][:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench: run record {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
