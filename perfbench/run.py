"""heatlab benchmark: one command for every metric of one workload.

    python3 perfbench/run.py --workload grid2d --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It runs the seeded batch of the
workload in a closed loop with one client, spread over WORKERS fresh worker
processes run one after another (see worker.py), so that drift between
processes averages out. Each worker's set-up (import plus warm-up run) is
timed from spawn; setup_s is their median. It prints a report, stores it
with an environment record under perfbench/out/, and prints as its last
line the JSON result: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. It exits non-zero, without a result, when the checkout has
no heatlab sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170   # the whole command must end within 180 s
WORKERS = 3


def tail(samples):
    """(value, percentile, samples beyond): the highest order statistic with
    at least ten samples above it, or the smallest when there are fewer."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    pct = 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 0.0
    return xs[k], pct, len(xs) - 1 - k


def spawn(args, log: Path, deadline: float):
    """Run one worker; return (seconds from spawn to its ready line, result)."""
    t0 = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            lines = proc.stdout.read().strip().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()   # no-op once it has exited; stops it if reading failed
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        sys.stderr.write(log.read_text())
        raise SystemExit(f"worker exited with {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heatlab" / "__init__.py").exists():
        print(f"no heatlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])

    setup_s, results = [], []
    timed = 0.0
    for k in range(WORKERS):
        budget = (args.seconds - timed) / (WORKERS - k)
        extra = ["--seconds", str(budget),
                 "--first-cycle", str(sum(r["cycles"] for r in results))]
        extra += ["--determinism"] if k == WORKERS - 1 else []
        s, res = spawn(common + extra, out / f"worker{k}.stderr", deadline)
        setup_s.append(s)
        results.append(res)
        timed += res["phase_s"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    untraced = [x for r in results for x in r["samples"]]
    traced = [x for r in results for x in r["traced_samples"]]
    tail_s, tail_pct, beyond = tail(untraced)
    if args.trace:
        table = metrics.PER_LAYER
        rows = [row for r in results for row in r.get("layer_rows", [])]
        values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        values["cli.import_s"] = statistics.median(r["import_s"] for r in results)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values = {name: values[name] for name in table}
    else:
        table = metrics.END_TO_END
        values = {
            "setup_s": statistics.median(setup_s),
            "run_p50_s": statistics.median(untraced),
            "run_tail_s": tail_s,
            "runs_per_s": len(untraced) / timed,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }

    report = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "samples": len(untraced), "traced_samples": len(traced),
        "cycles": [r["cycles"] for r in results], "batch_size": results[0]["batch_size"],
        "per_run_p50_s": [statistics.median(x for r in results for x in r["per_run_s"][i])
                          if any(r["per_run_s"][i] for r in results) else None
                          for i in range(results[0]["batch_size"])],
        "run_tail_percentile": tail_pct, "run_tail_beyond": beyond,
        "setup_s_per_worker": setup_s, "import_s_per_worker": [r["import_s"] for r in results],
        "self_time_coverage": [r["self_time_coverage"] for r in results
                               if "self_time_coverage" in r],
        "spans_files": [r["spans_file"] for r in results if "spans_file" in r],
        "errors": [e for r in results for e in r["errors"]],
        "env": results[-1]["env"],
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in values.items()},
    }
    for line in report["errors"]:
        print("FAILED", line)
    for name, v in values.items():
        print(f"{name:28s} {v:14.6g} {table[name][0]:14s} {table[name][-1]}")
    print(f"{'failed_ratio':28s} {failed / attempted:14.6g} {'ratio':14s} "
          f"{failed} of {attempted} runs")
    if args.trace:
        print("span self time / thread wall time, per worker:",
              json.dumps(report["self_time_coverage"]))
    else:
        print(f"run_tail_s is p{tail_pct:.1f} of {len(untraced)} samples "
              f"({beyond} beyond it)")
    print("env", json.dumps(report["env"], sort_keys=True))
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
