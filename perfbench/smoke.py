"""Smoke test of the benchmark at tiny sizes. Run it from the root of a
checkout; it takes about a minute:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json and the metric table in metrics.py agree,
then runs every workload untraced and traced for one second and asserts
that every metric named in BENCHMARK.json is printed with its unit, that
no run failed, and that span self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke test failed: {msg}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        check(listed == {k: v[0] for k, v in table.items()},
              f"BENCHMARK.json {key} differs from metrics.py")

    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=170)
            check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n"
                  f"{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: {result['failed']} failed runs\n"
                  + "\n".join(lines[:-1]))
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{workload}: metric {m['name']} missing or without unit {m['unit']}")
                check(any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                          for line in lines[:-1]),
                      f"{workload}: report has no line for {m['name']} [{m['unit']}]")
            check(set(result["metrics"]) == {m["name"] for m in bench[key]},
                  f"{workload}: extra metrics {sorted(result['metrics'])}")
            if trace:
                report = json.loads((HERE / "out" / workload
                                     / "result-seed0-trace1.json").read_text())
                for cover in report["self_time_coverage"]:
                    check(0.98 <= cover["main"] <= 1.0 + 1e-9,
                          f"{workload}: main-thread self time covers {cover['main']:.4f}")
                    check(abs(cover.get("pool_min", 1.0) - 1.0) < 1e-9
                          and abs(cover.get("pool_max", 1.0) - 1.0) < 1e-9,
                          f"{workload}: pool-thread self time does not add up: {cover}")
            print(f"ok {workload} trace {trace}", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
