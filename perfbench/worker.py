"""One benchmark worker process. It imports heatlab from the checkout's
`src`, does the workload's warm-up run and prints a `ready` line, so the
parent can time set-up from spawn to that line. It then runs the seeded
batch in a closed loop with one client for about --seconds, gates every run
for correctness and prints one JSON line with the raw results.

With --trace 1 the cycles alternate untraced and traced (by the global cycle
index the parent passes), so the tracing overhead is measured on the same
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import envinfo
import gate
import metrics
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(experiments, cfg: dict, out: Path, threads: int, reference: dict):
    """One gated run: (wall seconds, failure reason or None)."""
    ref = reference.get(gate.config_hash(cfg))
    cfg = json.loads(json.dumps(cfg))
    t0 = time.perf_counter()
    try:
        summary, checks, out = experiments.run(cfg, out_dir=out, threads=threads)
    except Exception:   # the client keeps running; the failure is counted
        dt = time.perf_counter() - t0
        return dt, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    failed = sorted(k for k, ok in checks.items() if not ok)
    if failed:
        return dt, f"checks failed: {failed}"
    if ref is not None:
        bad = gate.mismatches(gate.result_values(summary, out), ref["values"])
        if bad:
            return dt, f"leaves reference: {bad[:3]}"
    return dt, None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--first-cycle", type=int, default=0)
    ap.add_argument("--determinism", action="store_true",
                    help="end with the thread-count determinism check")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import heatlab.cli  # noqa: F401  (the CLI's import chain: all of heatlab)
    import_s = time.perf_counter() - t0
    from heatlab import experiments

    os.environ.pop("HEATLAB_OUT", None)   # outputs go where the benchmark says
    threads = os.cpu_count() or 1
    out_root = HERE / "out" / args.workload
    reference = gate.load_reference()
    errors = []   # one entry per failed run

    def note(where, why):
        if why is not None:
            errors.append(f"{where}: {why}")

    _, why = _run(experiments, workloads.warmup(args.workload, args.tiny),
                  out_root / "warmup", threads, reference)
    note("warm-up", why)
    print("ready", flush=True)

    batch = workloads.batch(args.workload, args.seed, args.tiny)
    if args.seed == workloads.COMMITTED_SEED:
        missing = [i for i, c in enumerate(batch) if gate.config_hash(c) not in reference]
        if missing:
            print(f"reference.json has no values for runs {missing}; run "
                  "perfbench/make_reference.py", file=sys.stderr)
            return 2
    dirs = [out_root / f"run-{i:02d}" for i in range(len(batch))]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    samples, traced_samples = [], []
    attempted = 1
    cycle = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and (args.first_cycle + cycle) % 2 == 1
        if traced:
            tracer.install()
        for i, cfg in enumerate(batch):
            if traced:
                tracer.run_id = cycle * len(batch) + i
            dt, why = _run(experiments, cfg, dirs[i], threads, reference)
            attempted += 1
            note(f"cycle {args.first_cycle + cycle} run {i}", why)
            (traced_samples if traced else samples).append((i, dt))
            if traced:
                tracer.count("experiments.bytes_written",
                             sum(p.stat().st_size for p in dirs[i].iterdir()))
        if traced:
            tracer.uninstall()
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / cycle) >= args.seconds:   # stop nearest the budget
            break
    phase_s = time.perf_counter() - start

    if args.determinism:
        # threads=nproc against threads=1 on one pooled run: CSVs must be identical
        det = next(i for i, c in enumerate(batch)
                   if c["experiment"] in ("constant-sweep", "interp-check"))
        det_dir = out_root / "determinism"
        _, why = _run(experiments, batch[det], det_dir, 1 if threads > 1 else 2, reference)
        attempted += 1
        if why is None:
            diff = gate.csv_differences(dirs[det], det_dir)
            why = f"CSV differs across thread counts: {diff}" if diff else None
        note("determinism", why)

    result = {
        "import_s": import_s,
        "samples": [dt for _, dt in samples],
        "traced_samples": [dt for _, dt in traced_samples],
        "per_run_s": [[dt for i, dt in samples if i == j] for j in range(len(batch))],
        "cycles": cycle,
        "batch_size": len(batch),
        "phase_s": phase_s,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": envinfo.record(ROOT, threads, args.seed),
    }
    if tracer is not None and traced_samples:
        main_thread = threading.main_thread().ident
        result["layer_rows"] = metrics.layer_rows(
            tracer.spans, tracer.counts, lambda run: run // len(batch), main_thread)
        result["self_time_coverage"] = metrics.self_time_coverage(
            tracer.spans, main_thread, sum(result["traced_samples"]))
        spans_path = out_root / f"spans-seed{args.seed}-cycle{args.first_cycle}.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
