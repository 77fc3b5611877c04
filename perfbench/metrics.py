"""Metric definitions and their computation.

BENCHMARK.json lists names and units only; this table also records each
metric's layer and which end-to-end metric it should move on which workload.
Per-layer values are per cycle (one pass over the workload's batch), taken
as the median over the traced cycles of a run.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import POOL_SPAN

END_TO_END = {
    # name: (unit, meaning)
    "setup_s": ("s", "fresh interpreter: import heatlab and finish the warm-up run "
                     "(median over spawns)"),
    "run_p50_s": ("s", "median wall time of one warm run()"),
    "run_tail_s": ("s", "highest percentile of run() wall time with at least ten "
                        "samples beyond it"),
    "runs_per_s": ("1/s", "runs completed per second of the timed phase"),
    "peak_rss_mb": ("MiB", "peak resident memory of the workload's worker process"),
}

# name: (unit, layer, end-to-end metric and workload it should move)
PER_LAYER = {
    "inequality.sup_s": ("s", "inequality", "run_p50_s, runs_per_s on sup-cloud"),
    "inequality.lp_calls": ("count", "inequality", "run_p50_s, runs_per_s on sup-cloud"),
    "inequality.pool_busy_ratio": ("ratio", "inequality", "runs_per_s on sup-cloud"),
    "operators.assemble_s": ("s", "operators", "run_p50_s, peak_rss_mb on grid2d"),
    "operators.calls": ("count", "operators", "run_p50_s, peak_rss_mb on grid2d"),
    "operators.k_bytes": ("bytes", "operators", "peak_rss_mb on grid2d"),
    "spectrum.solve_s": ("s", "spectrum", "run_p50_s, peak_rss_mb on grid2d"),
    "spectrum.validate_s": ("s", "spectrum", "run_p50_s on grid2d"),
    "spectrum.calls": ("count", "spectrum", "run_p50_s on grid2d and mixed-1d"),
    "spectrum.unknowns": ("count", "spectrum", "run_p50_s, peak_rss_mb on grid2d"),
    "spectrum.modes_kept": ("count", "spectrum", "run_p50_s, peak_rss_mb on grid2d"),
    "spectrum.kept_ratio": ("ratio", "spectrum", "run_p50_s, peak_rss_mb on grid2d"),
    "inequality.l1_s": ("s", "inequality", "run_p50_s on grid2d and mixed-1d"),
    "inequality.l2_s": ("s", "inequality", "run_p50_s on grid2d and mixed-1d"),
    "inequality.interp_s": ("s", "inequality", "run_p50_s on grid2d and mixed-1d"),
    "inequality.fit_s": ("s", "inequality", "run_p50_s on grid2d and mixed-1d"),
    "doubling.smooth_normal_s": ("s", "doubling", "run_tail_s, run_p50_s on mixed-1d"),
    "doubling.chart_s": ("s", "doubling", "run_tail_s, run_p50_s on mixed-1d"),
    "doubling.diag_s": ("s", "doubling", "run_tail_s, run_p50_s on mixed-1d"),
    "doubling.double_s": ("s", "doubling", "run_tail_s, run_p50_s on mixed-1d"),
    "doubling.extend_s": ("s", "doubling", "run_tail_s, run_p50_s on mixed-1d"),
    "doubling.kernel_bytes": ("bytes_computed", "doubling",
                              "run_tail_s, run_p50_s on mixed-1d"),
    "control.synthesize_s": ("s", "control", "run_p50_s on mixed-1d"),
    "control.cutoff_s": ("s", "control", "run_p50_s on mixed-1d"),
    "control.cutoff_calls": ("count", "control", "run_p50_s on mixed-1d"),
    "control.simulate_s": ("s", "control", "run_p50_s on mixed-1d"),
    "control.distributed_s": ("s", "control", "run_p50_s on mixed-1d"),
    "control.ledger_s": ("s", "control", "run_p50_s on mixed-1d"),
    "control.impulses": ("count", "control", "run_p50_s on mixed-1d"),
    "experiments.write_s": ("s", "experiments", "run_p50_s on mixed-1d"),
    "experiments.self_s": ("s", "experiments", "run_p50_s on mixed-1d"),
    "experiments.bytes_written": ("bytes", "experiments", "run_p50_s on mixed-1d"),
    "cli.import_s": ("s", "cli", "setup_s on all workloads"),
    "domain.build_s": ("s", "domain", "none predicted"),
    "obsets.build_s": ("s", "obsets", "none predicted"),
    "trace.overhead_s": ("s", "benchmark", "none: traced minus untraced run_p50_s"),
}

SPAN_CALLS = {"operators.calls": "operators.assemble",
              "spectrum.calls": "spectrum.compute_spectrum",
              "control.cutoff_calls": "control.observable_cutoff"}
COUNTERS = ("inequality.lp_calls", "operators.k_bytes", "spectrum.unknowns",
            "spectrum.modes_kept", "control.impulses", "doubling.kernel_bytes",
            "experiments.bytes_written")


def layer_rows(spans, counts, cycle_of, main_thread) -> list:
    """Per-layer metrics from a tracer's spans and counters, one row of
    per-cycle totals per traced cycle. `cycle_of` maps a run id to its cycle."""
    acc = defaultdict(lambda: defaultdict(float))
    for s in spans:
        c = acc[cycle_of(s.run)]
        if s.owner:
            c[s.owner] += s.self_time
        c["calls:" + s.name] += 1
        if s.thread != main_thread and s.parent is None:
            c["pool_busy"] += s.end - s.start
        elif s.name == POOL_SPAN:
            c["pool_wall"] += s.end - s.start
    for (run, name), n in counts.items():
        acc[cycle_of(run)][name] += n

    rows = []
    for c in acc.values():
        row = {name: c[name] for name, (unit, _, _) in PER_LAYER.items()
               if unit == "s" and name not in ("cli.import_s", "trace.overhead_s")}
        row.update({name: c["calls:" + span] for name, span in SPAN_CALLS.items()})
        row.update({name: c[name] for name in COUNTERS})
        row["spectrum.kept_ratio"] = (c["spectrum.modes_kept"] / c["spectrum.unknowns"]
                                      if c["spectrum.unknowns"] else 0.0)
        row["inequality.pool_busy_ratio"] = (c["pool_busy"] / c["pool_wall"]
                                             if c["pool_wall"] else 0.0)
        rows.append(row)
    return rows


def self_time_coverage(spans, main_thread, traced_wall) -> dict:
    """Per thread, summed span self time against that thread's wall time:
    the client-timed run() calls for the main thread, the root spans for a
    pool thread."""
    own = defaultdict(float)
    root = defaultdict(float)
    for s in spans:
        own[s.thread] += s.self_time
        if s.parent is None:
            root[s.thread] += s.end - s.start
    out = {"main": own[main_thread] / traced_wall if traced_wall else 0.0}
    pool = [own[t] / root[t] for t in own if t != main_thread and root[t]]
    if pool:
        out["pool_min"], out["pool_max"] = min(pool), max(pool)
    return out
