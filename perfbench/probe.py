"""Set-up cost of one workload, measured in this fresh interpreter.

Times ``import phonon_qram`` and then the first, cold call of each public
entry the workload uses, and prints them as one JSON object.  ``run.py``
starts this script in a new process for every sample.

    python3 perfbench/probe.py --workload router_sweep
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = time.perf_counter()
    import phonon_qram  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0

    import workloads
    first_call = {}
    for entry, call in workloads.cold_calls(args.workload):
        t0 = time.perf_counter()
        call()
        first_call[entry] = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "first_call": first_call}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
