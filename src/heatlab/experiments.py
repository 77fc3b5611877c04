"""Experiment families behind the command-line harness: reproducible runs
from declarative configs, emitting CSV data, a JSON summary with the fitted
constants and invariant-check verdicts, and a plain-text log.

Outputs are deterministic for a fixed (config, seed): CSV floats use a fixed
shortest-roundtrip format and JSON keys are sorted. Every summary embeds the
config hash and the package version.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .control import (
    cost_report,
    distributed_control,
    lr_schedule,
    simulate,
    synthesize,
)
from .domain import (
    DIRICHLET,
    NEUMANN,
    build_interval,
    build_rectangle,
    load_coefficients_csv,
    make_coefficients,
)
from .doubling import build_chart, double_domain, extend_eigenfunction, pseudo_geodesic_diag
from .errors import ConfigError, InsufficientDataError
from .inequality import (
    ConstantSweep,
    constant_l1,
    constant_l2,
    constant_sup,
    fit_growth,
    interpolation_check,
)
from .obsets import (
    CELL_MASK,
    POINT_CLOUD,
    box_mask,
    cantor_set,
    full_domain_set,
    interval_mask,
    point_cloud,
    random_set,
    set_from_mask,
)
from .operators import assemble
from .spectrum import compute_spectrum, eigen_sup_exponent, sup_embedding_constant, weyl_exponent

EXPERIMENTS = ("spectrum", "constant-sweep", "interp-check", "control", "double-check")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _need(cfg, field, kind=None):
    if field not in cfg:
        raise ConfigError(field, "required field is missing")
    v = cfg[field]
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(field, f"expected {kind}, got {type(v).__name__}")
    return v


def _uses_randomness(cfg) -> bool:
    if cfg.get("coefficients", {}).get("kind") == "piecewise_linear":
        return True
    if cfg.get("set", {}).get("kind") == "random":
        return True
    if cfg.get("experiment") == "interp-check":
        return True
    if cfg.get("experiment") == "control":
        u0 = cfg.get("u0", {"kind": "random"}).get("kind", "random")
        v0 = cfg.get("v0", {"kind": "zero"}).get("kind", "zero")
        return u0 == "random" or v0 == "random"
    return False


def build_domain(spec) -> object:
    kind = _need(spec, "kind", str)
    bc = _need(spec, "bc", str)
    if bc not in (DIRICHLET, NEUMANN):
        raise ConfigError("domain.bc", f"must be '{DIRICHLET}' or '{NEUMANN}'")
    try:
        if kind == "interval":
            return build_interval(_need(spec, "length"), _need(spec, "cells", int), bc)
        if kind == "rectangle":
            return build_rectangle(_need(spec, "lx"), _need(spec, "ly"),
                                   _need(spec, "nx", int), _need(spec, "ny", int), bc)
    except ValueError as exc:
        raise ConfigError("domain", str(exc)) from exc
    raise ConfigError("domain.kind", f"unknown kind {kind!r}")


def build_coefficients(domain, spec, seed):
    spec = dict(spec)
    if spec.get("kind") == "piecewise_linear":
        spec.setdefault("seed", seed)
    try:
        if spec.get("kind") == "sampled" and "csv" in spec:
            return load_coefficients_csv(domain, spec["csv"],
                                         spec.get("lip_g"), spec.get("lip_kappa"))
        return make_coefficients(domain, spec)
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError("coefficients", str(exc)) from exc


def build_set(domain, spec, seed, kappa):
    kind = _need(spec, "kind", str)
    try:
        if kind == "full":
            return full_domain_set(domain, kappa)
        if kind == "interval":
            return set_from_mask(domain, interval_mask(domain, _need(spec, "from"),
                                                       _need(spec, "to")), kappa)
        if kind == "box":
            return set_from_mask(domain, box_mask(domain, spec["x0"], spec["x1"],
                                                  spec["y0"], spec["y1"]), kappa)
        if kind == "random":
            return random_set(domain, _need(spec, "measure"), seed, kappa)
        if kind == "cantor":
            placement = (spec["from"], spec["to"]) if "from" in spec else None
            transverse = tuple(spec["transverse"]) if "transverse" in spec else None
            return cantor_set(domain, _need(spec, "ratio"), _need(spec, "levels", int),
                              placement, transverse)
        if kind == "points":
            return point_cloud(domain, spec["coords"])
    except (ValueError, KeyError) as exc:
        raise ConfigError("set", str(exc)) from exc
    raise ConfigError("set.kind", f"unknown kind {kind!r}")


def build_field(spectrum, name, spec, rng):
    """The control field `name` ("u0" or "v0") described by `spec`."""
    kind = spec.get("kind", "random")
    if kind == "zero":
        return np.zeros(spectrum.vectors.shape[0])
    if kind == "random":
        return spectrum.synthesize_values(rng.standard_normal(spectrum.n_modes))
    if kind == "mode":
        k = int(spec.get("k", 1))
        if not (1 <= k <= spectrum.n_modes):
            raise ConfigError(f"{name}.k", f"mode index must lie in [1, {spectrum.n_modes}]")
        return float(spec.get("amplitude", 1.0)) * spectrum.vectors[:, k - 1]
    raise ConfigError(f"{name}.kind", f"unknown kind {kind!r}")


def _lambda_grid(spec):
    if isinstance(spec, list):
        grid = np.asarray(spec, dtype=float)
    else:
        grid = np.linspace(_need(spec, "min"), _need(spec, "max"),
                           _need(spec, "count", int))
    if grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ConfigError("lambda_grid", "grid must be strictly increasing and nonempty")
    return grid


def validate_config(cfg: dict):
    exp = _need(cfg, "experiment", str)
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
    _need(cfg, "domain", dict)
    _need(cfg, "coefficients", dict)
    if _uses_randomness(cfg) and "seed" not in cfg:
        raise ConfigError("seed", "required whenever the config draws random data")
    cfg.setdefault("seed", 0)


def _norms(cfg, obs):
    """The norms a constant sweep computes, checked against the set kind."""
    norms = cfg.get("norms", ["l2"] if obs.kind == CELL_MASK else ["sup"])
    for nm in norms:
        if nm in ("l2", "l1") and obs.kind != CELL_MASK:
            raise ConfigError("norms", f"{nm} constants need a cell-mask set")
        if nm == "sup" and obs.kind != POINT_CLOUD:
            raise ConfigError("norms", "sup constants need a point-cloud set")
    return norms


def _positive(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


def _chart_params(cfg):
    """The double-check's chart block as the build_chart arguments
    (a_diag, s_max, n_s, z_extent, n_z), or None when no chart is configured.

    The diagnostics difference across two collar levels on each side of
    s = 0 and take second differences over three nodes of the cutoff's core
    |z| <= z_extent/2, which every n_z >= 7 provides.
    """
    spec = cfg.get("chart")
    if not spec:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("chart", "expected an object")
    a_diag = spec.get("a_diag", [4.0, 1.0])
    if not (isinstance(a_diag, list) and len(a_diag) == 2 and all(map(_positive, a_diag))):
        raise ConfigError("chart.a_diag", "must be two positive numbers")
    s_max, z_extent = spec.get("s_max", 0.05), spec.get("z_extent", 1.0)
    n_s, n_z = spec.get("n_s", 10), spec.get("n_z", 801)
    for name, v in (("s_max", s_max), ("z_extent", z_extent)):
        if not _positive(v):
            raise ConfigError(f"chart.{name}", "must be a positive number")
    for name, v, least in (("n_s", n_s, 2), ("n_z", n_z, 7)):
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= least):
            raise ConfigError(f"chart.{name}", f"must be an integer >= {least}")
    return a_diag, float(s_max), n_s, float(z_extent), n_z


def _setup(cfg, lam_max=None, count=None):
    """The stage every family starts with. Builds the domain, the coefficients
    and the observation set of the families that observe one, checks every
    field that does not need the spectrum, and only then assembles and solves
    for the modes with lambda <= lam_max, or the first `count` (all when both
    are None).

    Returns (spectrum, observation set or None, doubled), where `doubled` is
    the double-check's reflected double with its complete spectrum, else None.
    """
    exp = cfg["experiment"]
    domain = build_domain(cfg["domain"])
    if exp == "double-check":
        if domain.dimension != 1:
            raise ConfigError("domain", "the doubling experiment runs on intervals")
        _chart_params(cfg)
    coeffs = build_coefficients(domain, cfg["coefficients"], cfg["seed"])
    obs = None
    if exp in ("constant-sweep", "interp-check", "control"):
        obs = build_set(domain, _need(cfg, "set", dict), cfg["seed"], coeffs.kappa)
    if exp == "constant-sweep":
        _norms(cfg, obs)
    elif exp == "interp-check":
        s, t = float(cfg.get("s", 0.0)), float(_need(cfg, "t"))
        if not (0 <= s < t):
            raise ConfigError("s", f"need 0 <= s < t, got s={s}, t={t}")
        if not (0 < float(cfg.get("epsilon", 0.5)) < 1):
            raise ConfigError("epsilon", "must lie in (0, 1)")
    elif exp == "control":
        sched_spec = _need(cfg, "schedule", dict)
        _need(sched_spec, "T")
        _need(sched_spec, "rho")
        _need(sched_spec, "steps", int)
        mode = cfg.get("mode", "impulsive")
        if mode not in ("impulsive", "distributed"):
            raise ConfigError("mode", f"unknown control mode {mode!r}")
        if mode == "distributed" and obs.kind != CELL_MASK:
            raise ConfigError("set", "distributed control needs a cell-mask set")
        for name in ("u0", "v0"):
            kind = cfg.get(name, {}).get("kind", "random")
            if kind not in ("zero", "random", "mode"):
                raise ConfigError(f"{name}.kind", f"unknown kind {kind!r}")
    spec = compute_spectrum(assemble(domain, coeffs), lam_max=lam_max, count=count)
    if exp != "double-check":
        return spec, obs, None
    db = double_domain(domain, coeffs)
    return spec, obs, (db, compute_spectrum(db.operator))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def run_spectrum(cfg, out: Path, log, threads):
    spec, _, _ = _setup(cfg, lam_max=cfg.get("lambda_max"), count=cfg.get("count"))
    op = spec.operator
    log(f"computed {spec.n_modes} eigenpairs on {op.n} unknowns")
    sup = spec.sup_norms()
    write_csv(out / "spectrum.csv", ["k", "lambda", "sup_norm"],
              [(k + 1, spec.frequencies[k], sup[k]) for k in range(spec.n_modes)])
    rep = spec.validation
    summary = {"n_modes": spec.n_modes, "n_unknowns": op.n, "invariants": rep}
    d = op.domain.dimension
    try:
        summary["weyl_exponent"] = weyl_exponent(spec)
        summary["sup_norm_exponent"] = eigen_sup_exponent(spec)
        sigma = summary["sup_norm_exponent"] + d / 2 + 0.6
        summary["embedding_sigma"] = sigma
        summary["embedding_constant"] = sup_embedding_constant(spec, sigma)
    except InsufficientDataError as exc:  # too few resolved modes is reportable
        summary["asymptotics_skipped"] = str(exc)
    checks = {
        "orthonormal": rep["orthonormality"] <= 1e-8,
        "eigen_residual": rep["eigen_residual"] <= 1e-8,
        "ascending": rep["ascending"],
    }
    return summary, checks


def run_constant_sweep(cfg, out: Path, log, threads):
    grid = _lambda_grid(_need(cfg, "lambda_grid", (dict, list)))
    spec, obs, _ = _setup(cfg, lam_max=grid[-1])
    norms = _norms(cfg, obs)

    def one(nm, lam):
        if nm == "l2":
            return constant_l2(spec, obs, lam)
        if nm == "l1":
            return constant_l1(spec, obs, lam, seed=cfg["seed"]).value
        return constant_sup(spec, obs, lam)

    rows = []
    summary = {"set_kind": obs.kind, "measure": obs.measure, "fits": {}}
    checks = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        for nm in norms:
            consts = list(pool.map(lambda lam: one(nm, lam), grid))
            if nm == "sup":
                log(f"sup: {sum(c.lp_solved for c in consts)} LPs solved, "
                    f"{sum(c.lp_pruned for c in consts)} pruned")
                consts = [c.value for c in consts]
            rows += [(nm, lam, c) for lam, c in zip(grid, consts)]
            sweep = ConstantSweep(grid, np.array(consts), nm)
            fit = fit_growth(sweep)
            summary["fits"][nm] = {
                "prefactor": fit.prefactor, "rate": fit.rate,
                "r_squared": fit.r_squared, "n_points": fit.n_points,
                "degenerate": fit.degenerate,
            }
            log(f"{nm}: C in [{min(consts):.6g}, {max(consts):.6g}], "
                f"rate {fit.rate:.6g}, r2 {fit.r_squared:.4f}")
            finite = [c for c in consts if math.isfinite(c)]
            checks[f"{nm}_finite"] = len(finite) == len(consts)
            if nm == "l2":
                checks["l2_at_least_one"] = all(c >= 1 - 1e-9 for c in finite)
            checks[f"{nm}_rate_nonnegative"] = fit.degenerate or fit.rate >= -1e-6
    write_csv(out / "sweep.csv", ["norm", "lambda", "constant"], rows)
    return summary, checks


def run_interp_check(cfg, out: Path, log, threads):
    spec, obs, _ = _setup(cfg)
    s = float(cfg.get("s", 0.0))
    t = float(cfg["t"])
    eps = float(cfg.get("epsilon", 0.5))
    batch = int(cfg.get("batch", 50))
    rng = np.random.default_rng(cfg["seed"])
    fields = [spec.synthesize_values(rng.standard_normal(spec.n_modes))
              for _ in range(batch)]

    def one(f):
        return interpolation_check(spec, obs, f, s, t, eps)

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        reports = list(pool.map(one, fields))
    rows = [(i, r.lhs, r.obs_norm, r.s_norm, r.n_required, r.lambda_opt_closed,
             r.lambda_opt_numeric, r.minimizer_identity_dev, r.split_margin,
             r.holds) for i, r in enumerate(reports)]
    write_csv(out / "instances.csv",
              ["index", "lhs", "obs_norm", "s_norm", "n_required",
               "lambda_opt_closed", "lambda_opt_numeric", "identity_dev",
               "split_margin", "holds"], rows)
    n_sup = max(r.n_required for r in reports)
    summary = {"batch": batch, "s": s, "t": t, "epsilon": eps,
               "n_sup": n_sup,
               "max_identity_dev": max(r.minimizer_identity_dev for r in reports)}
    log(f"batch of {batch}: sup of required N = {n_sup:.6g}")
    checks = {
        "all_hold": all(r.holds for r in reports),
        "split_nonnegative": all(r.split_margin >= -1e-12 for r in reports),
    }
    if abs(eps - 0.5) < 1e-12:
        checks["minimizer_identity"] = summary["max_identity_dev"] <= 0.01
    return summary, checks


def _export_schedule(sched, path: Path):
    steps = []
    for sc in sched.steps:
        payload = np.asarray(sc.payload)
        nz = np.nonzero(payload)[0]
        steps.append({
            "time": sc.time,
            "kind": sc.kind,
            "lambda_cutoff": sc.lambda_cutoff,
            "total_variation": sc.total_variation,
            "moment_residual": sc.moment_residual,
            "gram_min_eigenvalue": sc.gram_min_eigenvalue,
            "support_size": int(nz.size),
            "payload_indices": [int(i) for i in nz],
            "payload_values": [float(payload[i]) for i in nz],
        })
    blob = {"horizon": sched.horizon, "terminal_deficit": sched.terminal_deficit,
            "terminal_relative": sched.terminal_relative, "steps": steps}
    path.write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")


def run_control(cfg, out: Path, log, threads):
    spec, obs, _ = _setup(cfg, count=cfg.get("modes"))
    sched_spec = cfg["schedule"]
    T = float(sched_spec["T"])
    rho = float(sched_spec["rho"])
    steps = int(sched_spec["steps"])
    rng = np.random.default_rng(cfg["seed"])
    u0 = build_field(spec, "u0", cfg.get("u0", {"kind": "random"}), rng)
    v0_spec = cfg.get("v0", {"kind": "zero"})
    v0 = None if v0_spec.get("kind") == "zero" else build_field(spec, "v0", v0_spec, rng)
    D = float(cfg.get("cost_rate", 5e-4))
    mode = cfg.get("mode", "impulsive")
    checks = {}
    summary = {"modes": spec.n_modes, "horizon": T, "rho": rho, "steps": steps,
               "cost_rate": D, "mode": mode}

    if mode == "impulsive":
        seq = lr_schedule(T, rho, steps)
        kwargs = {}
        if "c_lambda" in cfg:
            kwargs["c_lambda"] = float(cfg["c_lambda"])
        sched = synthesize(spec, obs, seq, u0, v0, **kwargs)
        sim = simulate(spec, u0, sched, v0)
        led = cost_report(sched, D)
        _export_schedule(sched, out / "schedule.json")
        traj_rows = [(sim.times[i], sim.phases[i],
                      float(np.linalg.norm(sim.state_coeffs[i])),
                      float(np.linalg.norm(sim.state_coeffs[i]
                                           - (sched.v0_coeffs
                                              * np.exp(-spec.eigenvalues * sim.times[i])))))
                     for i in range(sim.times.size)]
        write_csv(out / "trajectory.csv", ["time", "phase", "state_norm", "deficit_norm"],
                  traj_rows)
        write_csv(out / "ledger.csv",
                  ["step", "time", "gap", "variation", "log_weighted_term", "partial_sum"],
                  [(j, led.times[j], led.gaps[j], led.variations[j],
                    led.log_terms[j], led.partial_sums[j])
                   for j in range(led.times.size)])
        summary.update({
            "terminal_deficit": sched.terminal_deficit,
            "terminal_relative": sched.terminal_relative,
            "n_controls": len(sched.steps),
            "ledger_total": led.total,
            "ledger_last_increment_ratio": led.last_increment_ratio,
            "decay_constant": led.decay_constant,
        })
        log(f"impulsive schedule with {len(sched.steps)} controls, "
            f"terminal relative deficit {sched.terminal_relative:.3e}")
        checks["ledger_converged"] = led.converged
        checks["replay_matches"] = (
            abs(np.linalg.norm(sim.terminal_coeffs
                               - sched.v0_coeffs * np.exp(-spec.eigenvalues * T))
                - sched.terminal_deficit) <= 1e-12 * max(1.0, sched.terminal_deficit))
        checks["moment_residuals"] = all(s.moment_residual <= 1e-6 for s in sched.steps)
    else:
        slabs = int(cfg.get("time_slabs", 32))
        mask = np.zeros(obs.domain.n_cells_total, dtype=bool)
        mask[obs.cells] = True
        st_mask = np.tile(mask, (slabs, 1))
        kwargs = {}
        if "c_lambda" in cfg:
            kwargs["c_lambda"] = float(cfg["c_lambda"])
        res = distributed_control(spec, st_mask, T, u0, v0, n_steps=steps, rho=rho,
                                  **kwargs)
        rows = [(w.t_start, w.t_end, w.lambda_cutoff, w.slabs.size, w.sup_norm)
                for w in res.windows]
        write_csv(out / "windows.csv",
                  ["t_start", "t_end", "lambda_cutoff", "n_slabs", "sup_norm"], rows)
        summary.update({
            "terminal_relative": res.terminal_relative,
            "sup_norm": res.sup_norm,
            "n_windows": len(res.windows),
        })
        log(f"distributed control over {len(res.windows)} windows, "
            f"terminal relative deficit {res.terminal_relative:.3e}")
        checks["finite_control"] = math.isfinite(res.sup_norm)
    return summary, checks


def run_double_check(cfg, out: Path, log, threads):
    n_modes = int(cfg.get("modes", 10))
    spec, _, (db, spec2) = _setup(cfg, count=n_modes)
    domain = spec.operator.domain
    rows = []
    worst_res, worst_dist = 0.0, 0.0
    for k in range(n_modes):
        ext, res = extend_eigenfunction(db, spec.vectors[:, k], spec.eigenvalues[k],
                                        domain.bc)
        dist = float(np.abs(spec2.eigenvalues - spec.eigenvalues[k]).min())
        rows.append((k + 1, spec.eigenvalues[k], res, dist))
        worst_res = max(worst_res, res)
        worst_dist = max(worst_dist, dist / max(spec.eigenvalues[k], 1.0))
    write_csv(out / "residuals.csv",
              ["k", "eigenvalue", "extension_residual", "nearest_doubled_distance"], rows)
    log(f"extension residuals up to {worst_res:.3e}, "
        f"spectral inclusion distance up to {worst_dist:.3e}")
    summary = {"modes": n_modes, "max_extension_residual": worst_res,
               "max_inclusion_distance_rel": worst_dist,
               "interface_jump": db.interface_jump()}
    checks = {
        "extensions_exact": worst_res <= 1e-8,
        "spectral_inclusion": worst_dist <= max(1e-8, max(domain.h) ** 2),
        "interface_continuous": db.interface_jump() <= 1e-12,
    }

    chart_params = _chart_params(cfg)
    if chart_params:
        a_diag, s_max, n_s, z_extent, n_z = chart_params
        a_fn = (lambda y, z:
                np.broadcast_to(np.diag(np.asarray(a_diag, dtype=float)),
                                np.shape(y) + (2, 2)).copy())
        chart = build_chart(a_fn, s_max, n_s, z_extent, n_z)
        diag = pseudo_geodesic_diag(chart)
        crows = []
        for i, s in enumerate(chart.s_grid):
            for j, z in enumerate(chart.z_grid[:: max(1, chart.z_grid.size // 64)]):
                jj = j * max(1, chart.z_grid.size // 64)
                crows.append((s, z, chart.m[i, jj, 0], chart.m[i, jj, 1],
                              chart.phi[i, jj, 0], chart.phi[i, jj, 1]))
        write_csv(out / "chart.csv", ["s", "z", "m_y", "m_z", "phi_y", "phi_z"], crows)
        summary["chart"] = {
            "unit_normal_dev": diag.unit_normal_dev,
            "orthogonality_dev": diag.orthogonality_dev,
            "b0_offdiag_max": diag.b0_offdiag_max,
            "b0_normal_dev": diag.b0_normal_dev,
            "b_tangent_min": diag.b_tangent_min,
            "b_fd_offdiag_max": diag.b_fd_offdiag_max,
            "d2_phi_max": diag.d2_phi_max,
            "kernel_mass_range": list(diag.kernel_mass_range),
        }
        checks["chart_normal_exact"] = (diag.unit_normal_dev <= 1e-8
                                        and diag.orthogonality_dev <= 1e-8)
        checks["chart_b0_diagonal"] = diag.b0_offdiag_max <= 1e-8
        checks["chart_kernel_mass"] = (abs(diag.kernel_mass_range[0] - 1) <= 1e-3
                                       and abs(diag.kernel_mass_range[1] - 1) <= 1e-3)
        checks["chart_b_tangent_spd"] = diag.b_tangent_min > 0
    return summary, checks


RUNNERS = {
    "spectrum": run_spectrum,
    "constant-sweep": run_constant_sweep,
    "interp-check": run_interp_check,
    "control": run_control,
    "double-check": run_double_check,
}


def run(cfg: dict, out_dir=None, threads=None, verbose=False):
    """Validate and execute one experiment config.

    Returns (summary, checks, out_dir); raises ConfigError on invalid input.
    """
    validate_config(cfg)
    exp = cfg["experiment"]
    out = Path(os.environ.get("HEATLAB_OUT") or out_dir
               or cfg.get("out") or f"heatlab-out/{exp}")
    out.mkdir(parents=True, exist_ok=True)
    threads = threads or os.cpu_count() or 1
    lines = []

    def log(msg):
        lines.append(msg)
        if verbose:
            print(msg)

    log(f"experiment {exp} (seed {cfg['seed']}, threads {threads})")
    summary, checks = RUNNERS[exp](cfg, out, log, threads)
    checks = {k: bool(v) for k, v in checks.items()}
    summary = {
        "experiment": exp,
        "artifact_version": _version,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        **summary,
        "checks": checks,
        "all_checks_pass": bool(all(checks.values())),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, default=float) + "\n")
    log("all invariant checks pass" if summary["all_checks_pass"]
        else "INVARIANT CHECK FAILURE")
    (out / "run.log").write_text("\n".join(lines) + "\n")
    return summary, checks, out
