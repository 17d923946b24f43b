"""Smoke self-test of the benchmark.

Runs every workload at minimal size on two seeds and asserts that both seeds
give the same item-class counts and that no item fails.  It also runs one
seed traced twice and asserts identical fingerprints (exact layer counts and
output digest), and checks that each mode reports every metric it owes.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_package()
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == end_to_end, "end_to_end metrics differ"
    assert tracing.PER_LAYER == per_layer, "per_layer metrics differ"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    for workload in workloads.WORKLOADS:
        first, rec1, spans = run.measure(workload, 1, 0.01, trace=True, size="smoke")
        _, rec1b, _ = run.measure(workload, 1, 0.01, trace=True, size="smoke")
        second, rec2, _ = run.measure(workload, 2, 0.01, trace=False, size="smoke")
        for result, rec in ((first, rec1), (second, rec2)):
            assert result["correct"] and result["failed"] == 0, rec["failures"]
            assert result["attempted"] == rec["items_per_pass"] * sum(rec["passes"].values())
        assert set(first["metrics"]) == set(per_layer)
        assert spans, "the traced pass recorded no spans"
        assert set(second["metrics"]) == set(end_to_end)
        assert all(v["value"] > 0 for v in second["metrics"].values())
        fp1, fp2 = rec1["fingerprint"], rec2["fingerprint"]
        assert fp1["items_per_class"] == fp2["items_per_class"], (fp1, fp2)
        assert fp1 == rec1b["fingerprint"], (fp1, rec1b["fingerprint"])
        print(f"{workload}: ok, {rec1['items_per_pass']} items/pass, "
              f"counts {fp1['exact_counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
