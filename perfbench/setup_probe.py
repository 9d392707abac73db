"""Time one fresh interpreter's set-up for a workload; print it as JSON.

Set-up is importing adil, loading and validating the plan base (with the
workload's own plans) and parsing the workload's specs. The clock starts
after interpreter start-up and after the inputs are generated, so neither
counts. `run.py` starts this script several times and reports the median.

    python3 perfbench/setup_probe.py --workload class-batch --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    items = workloads.make_items(args.workload, args.seed, ROOT)
    texts = workloads.spec_texts(items)
    sys.path.insert(0, str(ROOT / "src"))

    started = time.perf_counter()
    import pipeline
    pipeline.setup(ROOT, args.workload, texts)
    elapsed = time.perf_counter() - started

    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
