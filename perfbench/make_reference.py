"""Regenerate reference.json: the result values of every run in the committed
seed's batches (full and tiny sizes), which the correctness gate compares
against. Run it from the root of a checkout, only when a change to heatlab
is meant to change results, and say so in the change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from heatlab import experiments

    runs = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in workloads.WORKLOADS:
            for tiny in (False, True):
                for i, cfg in enumerate(workloads.batch(workload, workloads.COMMITTED_SEED, tiny)):
                    out = Path(tmp) / f"{workload}-{tiny}-{i}"
                    summary, checks, _ = experiments.run(json.loads(json.dumps(cfg)),
                                                         out_dir=out, threads=os.cpu_count())
                    if not all(checks.values()):
                        raise SystemExit(f"{workload} run {i} fails its checks: {checks}")
                    runs[gate.config_hash(cfg)] = {
                        "workload": workload, "tiny": tiny, "index": i,
                        "values": gate.result_values(summary, out)}
                    print(workload, "tiny" if tiny else "full", i, "ok", flush=True)
    blob = {"seed": workloads.COMMITTED_SEED, "rtol_exact": gate.RTOL_EXACT,
            "rtol_estimate": gate.RTOL_ESTIMATE, "rtol": gate.RTOL, "atol": gate.ATOL, "runs": runs}
    gate.REFERENCE.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
