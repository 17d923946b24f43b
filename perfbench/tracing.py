"""Spans and counters around the package's public functions.

The benchmark records spans from its own files: it rebinds each public
function in every module binding the package calls it through (for example
``noise.build_schedule`` as well as ``scheduling.build_schedule``) and
restores the originals afterwards.  A span holds its name, start, end,
parent span and item id; spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time

import phonon_qram
from phonon_qram import analytics, state

# (module, attribute, span name); a name shared by two bindings is one layer
# function reached through either binding
BINDINGS = [
    ("wavepackets", "distortion_fidelity", "wavepackets.distortion_fidelity"),
    ("router", "distortion_fidelity", "wavepackets.distortion_fidelity"),
    ("router", "simulate_routing", "router.simulate_routing"),
    ("qram", "query", "qram.query"),
    ("qram", "build_query_gates", "qram.build_query_gates"),
    ("qram", "initial_state", "qram.initial_state"),
    ("state", "apply_gate", "state.apply_gate"),
    ("scheduling", "build_schedule", "scheduling.build_schedule"),
    ("noise", "build_schedule", "scheduling.build_schedule"),
    ("scheduling", "residence_intervals", "scheduling.residence_intervals"),
    ("noise", "residence_intervals", "scheduling.residence_intervals"),
    ("scheduling", "validate_schedule", "scheduling.validate_schedule"),
    ("noise", "sample_trajectory", "noise.sample_trajectory"),
    ("noise", "estimate_success_prob", "noise.estimate_success_prob"),
] + [
    ("analytics", fn, f"analytics.{fn}")
    for fn in analytics.__all__
    if fn != "HeraldingReport" and not fn.startswith("write_")
]

# name -> (unit, better); every traced run reports all of them, with zero
# for a layer the workload does not call
PER_LAYER = {
    "wavepackets.distortion_fidelity.calls": ("count", "lower"),
    "wavepackets.distortion_fidelity.self_s": ("s", "lower"),
    "router.simulate_routing.calls": ("count", "lower"),
    "router.simulate_routing.self_s": ("s", "lower"),
    "router.grid_steps": ("count", "lower"),
    "router.ns_per_grid_step": ("ns", "lower"),
    "router.first_call_s": ("s", "lower"),
    "qram.query.calls": ("count", "lower"),
    "qram.query.self_s": ("s", "lower"),
    "qram.build_query_gates.calls": ("count", "lower"),
    "qram.build_query_gates.self_s": ("s", "lower"),
    "qram.gates_emitted": ("count", "lower"),
    "qram.initial_state.self_s": ("s", "lower"),
    "qram.initial_branches": ("count", "lower"),
    "state.apply_gate.calls": ("count", "lower"),
    "state.branch_updates": ("count", "lower"),
    "state.apply_gate.self_s": ("s", "lower"),
    "state.ns_per_branch_update": ("ns", "lower"),
    "state.max_support": ("count", "lower"),
    "state.noop_gate_frac": ("fraction", "lower"),
    "state.norm.self_s": ("s", "lower"),
    "scheduling.build_schedule.calls": ("count", "lower"),
    "scheduling.build_schedule.self_s": ("s", "lower"),
    "scheduling.residence_intervals.calls": ("count", "lower"),
    "scheduling.residence_intervals.self_s": ("s", "lower"),
    "scheduling.validate_schedule.self_s": ("s", "lower"),
    "noise.sample_trajectory.calls": ("count", "lower"),
    "noise.sample_trajectory.self_s": ("s", "lower"),
    "noise.events_drawn": ("count", "lower"),
    "noise.estimate_success_prob.trials": ("count", "lower"),
    "noise.estimate_success_prob.self_s": ("s", "lower"),
    "noise.ns_per_trial": ("ns", "lower"),
    "analytics.calls": ("count", "lower"),
    "analytics.self_s": ("s", "lower"),
    "bench.check_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.first_call_s": ("s", "lower"),
}

# counts that repeat exactly for one code version and seed
EXACT_COUNTS = (
    "qram.gates_emitted", "state.branch_updates", "state.max_support",
    "router.grid_steps", "scheduling.build_schedule.calls",
    "noise.estimate_success_prob.trials",
)


class Tracer:
    """Installs the span wrappers; `item` is the id of the item running."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.item = -1
        self.counts = dict.fromkeys(
            ("gates_emitted", "initial_branches", "branch_updates", "max_support",
             "noop_gates", "grid_steps", "events_drawn", "trials"), 0)
        self._saved: list = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.item)
            if after is not None:
                after(args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _hooks(self):
        c = self.counts

        def gates(args, kwargs, out):
            c["gates_emitted"] += len(out)

        def branches(args, kwargs, out):
            c["initial_branches"] += out.support()

        def apply(args, kwargs, out):
            amps = args[0]
            c["branch_updates"] += len(amps)
            c["max_support"] = max(c["max_support"], len(out))
            c["noop_gates"] += out == amps

        def grid(args, kwargs, out):
            c["grid_steps"] += len(out.traces["time"])

        def events(args, kwargs, out):
            c["events_drawn"] += len(out.events)

        sig = inspect.signature(phonon_qram.noise.estimate_success_prob)

        def trials(args, kwargs, out):
            c["trials"] += sig.bind(*args, **kwargs).arguments["trials"]

        return {
            "qram.build_query_gates": gates,
            "qram.initial_state": branches,
            "state.apply_gate": apply,
            "router.simulate_routing": grid,
            "noise.sample_trajectory": events,
            "noise.estimate_success_prob": trials,
        }

    def install(self):
        hooks = self._hooks()
        targets = [(getattr(phonon_qram, mod), attr, name) for mod, attr, name in BINDINGS]
        targets.append((state.SparseState, "norm", "state.norm"))
        for owner, attr, name in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """name -> [calls, self seconds]."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = {}
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += (t1 - t0) - covered[sid]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced since the tracer was made."""
        agg = self.self_times()
        c = self.counts

        def calls(name):
            return agg.get(name, (0, 0.0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0))[1]

        def per(num_s, den):
            return num_s * 1e9 / den if den else 0.0

        applied = calls("state.apply_gate")
        analytic = [v for k, v in agg.items() if k.startswith("analytics.")]
        return {
            "wavepackets.distortion_fidelity.calls": calls("wavepackets.distortion_fidelity"),
            "wavepackets.distortion_fidelity.self_s": self_s("wavepackets.distortion_fidelity"),
            "router.simulate_routing.calls": calls("router.simulate_routing"),
            "router.simulate_routing.self_s": self_s("router.simulate_routing"),
            "router.grid_steps": c["grid_steps"],
            "router.ns_per_grid_step": per(self_s("router.simulate_routing"), c["grid_steps"]),
            "qram.query.calls": calls("qram.query"),
            "qram.query.self_s": self_s("qram.query"),
            "qram.build_query_gates.calls": calls("qram.build_query_gates"),
            "qram.build_query_gates.self_s": self_s("qram.build_query_gates"),
            "qram.gates_emitted": c["gates_emitted"],
            "qram.initial_state.self_s": self_s("qram.initial_state"),
            "qram.initial_branches": c["initial_branches"],
            "state.apply_gate.calls": applied,
            "state.branch_updates": c["branch_updates"],
            "state.apply_gate.self_s": self_s("state.apply_gate"),
            "state.ns_per_branch_update": per(self_s("state.apply_gate"), c["branch_updates"]),
            "state.max_support": c["max_support"],
            "state.noop_gate_frac": c["noop_gates"] / applied if applied else 0.0,
            "state.norm.self_s": self_s("state.norm"),
            "scheduling.build_schedule.calls": calls("scheduling.build_schedule"),
            "scheduling.build_schedule.self_s": self_s("scheduling.build_schedule"),
            "scheduling.residence_intervals.calls": calls("scheduling.residence_intervals"),
            "scheduling.residence_intervals.self_s": self_s("scheduling.residence_intervals"),
            "scheduling.validate_schedule.self_s": self_s("scheduling.validate_schedule"),
            "noise.sample_trajectory.calls": calls("noise.sample_trajectory"),
            "noise.sample_trajectory.self_s": self_s("noise.sample_trajectory"),
            "noise.events_drawn": c["events_drawn"],
            "noise.estimate_success_prob.trials": c["trials"],
            "noise.estimate_success_prob.self_s": self_s("noise.estimate_success_prob"),
            "noise.ns_per_trial": per(self_s("noise.estimate_success_prob"), c["trials"]),
            "analytics.calls": sum(n for n, _ in analytic),
            "analytics.self_s": sum(s for _, s in analytic),
        }
