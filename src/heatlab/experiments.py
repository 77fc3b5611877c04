"""Experiment families behind the command-line harness: reproducible runs
from declarative configs, emitting CSV data, a JSON summary with the fitted
constants and invariant-check verdicts, and a plain-text log.

Outputs are deterministic for a fixed (config, seed): CSV floats use the
fixed `%.17g` format, which round-trips exactly (though it is not the
shortest form), and JSON keys are sorted. Every summary embeds the
config hash and the package version.
"""

from __future__ import annotations

import concurrent.futures  # unused here; perfbench's tracer patches its pool
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .control import (
    DEFAULT_C_LAMBDA,
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
    coefficients_from_tables,
    constant_coefficients,
    load_coefficients_csv,
    random_lipschitz_coefficients,
)
from .doubling import build_chart, double_domain, extend_eigenfunction, pseudo_geodesic_diag
from .errors import ArgumentError, ConfigError, InsufficientDataError
from .inequality import (
    GROWTH_FIT_MIN_POINTS,
    constant_l1,
    constant_l2,
    constant_sup,
    fit_growth,
    interpolation_check,
)
from .obsets import (
    CELL_MASK,
    ObservationSet,
    box_mask,
    cantor_set,
    full_domain_set,
    interval_mask,
    point_cloud,
    random_set,
    set_from_mask,
)
from .operators import assemble
from .spectrum import (Spectrum, compute_spectrum, eigen_sup_exponent, sup_embedding_constant,
                       weyl_exponent)


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


_REQUIRED = object()
_INT64 = np.iinfo(np.int64)
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               (int, float): "a number"}


class _Section:
    """The reader of one config object at its dotted `path` ('' for the whole
    config). Each read checks one field, and a fault is named
    `<path>.<field>`, so a nested fault names its section by construction.
    A number is a finite int or float and an integer an int; a JSON boolean
    is neither. An absent field takes its default, and a field whose default
    is None also takes null."""

    def __init__(self, spec, path=""):
        self.spec, self.path = spec, path

    def name(self, field):
        return f"{self.path}.{field}" if self.path else field

    def fault(self, field, message):
        return ConfigError(self.name(field), message)

    def get(self, field, kind, default=_REQUIRED):
        """The field, checked to be a `kind` (a key of _KIND_NAMES)."""
        if field not in self.spec:
            if default is _REQUIRED:
                raise self.fault(field, "required field is missing")
            return default
        v = self.spec[field]
        if v is None and default is None:
            return None
        if not isinstance(v, kind) or isinstance(v, bool):
            raise self.fault(field, f"must be {_KIND_NAMES[kind]}, got {type(v).__name__}")
        return v

    def section(self, field, default=_REQUIRED):
        """The object `field` as a reader of its own."""
        return _Section(self.get(field, dict, default), self.name(field))

    def choice(self, field, options, default=_REQUIRED):
        v = self.get(field, str, default)
        if v not in options:
            raise self.fault(field, f"must be one of {options}, got {v!r}")
        return v

    def number(self, field, default=_REQUIRED, above=None, least=None):
        """A finite number as a float, > `above` or >= `least` when given."""
        v = self.get(field, (int, float), default)
        # a bound on |v| rather than math.isfinite, which overflows on a huge int
        if v is not None and not (abs(v) <= sys.float_info.max and (above is None or v > above)
                                  and (least is None or v >= least)):
            bound = f" > {above}" if above is not None else "" if least is None else f" >= {least}"
            raise self.fault(field, f"must be a finite number{bound}")
        return v if v is None else float(v)

    def integer(self, field, default=_REQUIRED, least=None, most=None):
        """An integer in [least, most] (no bound where None) that fits in int64."""
        v = self.get(field, int, default)
        if v is not None and not _INT64.min <= v <= _INT64.max:
            raise self.fault(field, "must be an integer that fits in 64 bits")
        if v is not None and not ((least is None or v >= least) and (most is None or v <= most)):
            raise self.fault(field, f"must be an integer >= {least}" if most is None
                             else f"must be an integer in [{least}, {most}]")
        return v

    def items(self, field, count=None, default=_REQUIRED):
        """A reader of each element of the list `field`, named by the list;
        exactly `count` of them when given."""
        v = self.get(field, list, default)
        if v is not None and count is not None and len(v) != count:
            raise self.fault(field, f"must be a list of {count} entries")
        return v if v is None else [_Section({field: x}, self.path) for x in v]

    def numbers(self, field, count=None, default=_REQUIRED, above=None):
        """A list of finite numbers > `above`, exactly `count` of them when given."""
        v = self.items(field, count, default)
        return v if v is None else [x.number(field, above=above) for x in v]


def build_domain(spec) -> object:
    sec = _Section(spec, "domain")
    kind = sec.choice("kind", ("interval", "rectangle"))
    bc = sec.choice("bc", (DIRICHLET, NEUMANN))
    if kind == "interval":
        return build_interval(sec.number("length", above=0), sec.integer("cells", least=2), bc)
    return build_rectangle(sec.number("lx", above=0), sec.number("ly", above=0),
                           sec.integer("nx", least=2), sec.integer("ny", least=2), bc)


def build_coefficients(domain, spec, seed):
    """The field a `coefficients` spec describes, from the typed constructor
    of its kind; the one reader of that spec. Every numeric field is checked
    before the field is built, and a piecewise-linear field is drawn with the
    run's seed. A declared Lipschitz bound is a number >= 0; a sampled field
    without one takes the measured quotient."""
    sec = _Section(spec, "coefficients")
    if "seed" in spec:
        raise sec.fault("seed", "the run's seed draws the coefficients")
    kind = sec.choice("kind", ("constant", "piecewise_linear", "sampled"))
    d, n = domain.dimension, domain.n_nodes_total
    try:
        if kind == "constant":
            g = ([row.numbers("g", d) for row in sec.items("g", d)]
                 if isinstance(spec.get("g"), list) else sec.number("g", 1.0, above=0))
            return constant_coefficients(domain, g, sec.number("kappa", 1.0, above=0))
        if kind == "piecewise_linear":
            return random_lipschitz_coefficients(
                domain, sec.number("lip_g", least=0), sec.number("lip_kappa", least=0), seed,
                sec.number("g_base", 1.0, above=0), sec.number("kappa_base", 1.0, above=0))
        lips = sec.number("lip_g", None, least=0), sec.number("lip_kappa", None, least=0)
        if "csv" in spec:
            return load_coefficients_csv(domain, sec.get("csv", str), *lips)
        g = [[row.numbers("g", d) for row in m.items("g", d)] for m in sec.items("g", n)]
        return coefficients_from_tables(domain, g, sec.numbers("kappa", n), *lips)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(sec.path, str(exc)) from exc


# Set-constructor arguments named otherwise than the set field they come from.
_SET_FIELDS = {"a": "from", "b": "to", "target_measure": "measure"}


def build_set(domain, spec, seed, kappa):
    """The observation set a `set` spec describes. A constructor's range
    fault names its argument, and is reported as the set field it came from;
    a fault that no one field carries is reported as `set`."""
    sec = _Section(spec, "set")
    kind = sec.choice("kind", ("full", "interval", "box", "random", "cantor", "points"))
    try:
        if kind == "full":
            return full_domain_set(domain, kappa)
        if kind == "random":
            return random_set(domain, sec.number("measure"), seed, kappa)
        if kind == "points":
            return point_cloud(domain, [p.numbers("coords", domain.dimension)
                                        for p in sec.items("coords")])
        if kind == "cantor":
            placed = "from" in spec or "to" in spec
            return cantor_set(domain, sec.number("ratio"), sec.integer("levels"),
                              (sec.number("from"), sec.number("to")) if placed else None,
                              sec.numbers("transverse", 2, None))
        mask = (interval_mask(domain, sec.number("from"), sec.number("to")) if kind == "interval"
                else box_mask(domain, *(sec.number(f) for f in ("x0", "x1", "y0", "y1"))))
        return set_from_mask(domain, mask, kappa)
    except ArgumentError as exc:
        raise sec.fault(_SET_FIELDS.get(exc.arg, exc.arg), str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(sec.path, str(exc)) from exc


def build_field(spectrum, spec, rng):
    """The control field a checked u0/v0 spec describes (see _field_spec)."""
    if spec["kind"] == "zero":
        return np.zeros(spectrum.vectors.shape[0])
    if spec["kind"] == "random":
        return spectrum.synthesize_values(rng.standard_normal(spectrum.n_modes))
    return spec["amplitude"] * spectrum.vectors[:, spec["k"] - 1]


def _field_spec(cfg, name, default, n_modes):
    """Control field `name` with its own default kind and a checked mode index."""
    sec = cfg.section(name, {})
    spec = {"kind": sec.choice("kind", ("zero", "random", "mode"), default)}
    if spec["kind"] == "mode":
        spec["k"] = sec.integer("k", 1, least=1, most=n_modes)
        spec["amplitude"] = sec.number("amplitude", 1.0)
    return spec


def _lambda_grid(cfg):
    if isinstance(cfg.spec.get("lambda_grid"), dict):
        spec = cfg.section("lambda_grid")
        grid = np.linspace(spec.number("min"), spec.number("max"), spec.integer("count", least=1))
    else:
        grid = np.asarray(cfg.numbers("lambda_grid"), dtype=float)
    if grid.size < GROWTH_FIT_MIN_POINTS or np.any(np.diff(grid) <= 0):
        raise cfg.fault("lambda_grid", f"need {GROWTH_FIT_MIN_POINTS}+ strictly increasing cutoffs")
    return grid


def _norms(cfg, obs):
    """The norms a constant sweep computes, each once: l2 and l1 on a cell
    mask, sup on a point cloud."""
    allowed = ("l2", "l1") if obs.kind == CELL_MASK else ("sup",)
    norms = cfg.get("norms", list, [allowed[0]])
    if not norms:
        raise cfg.fault("norms", f"a {obs.kind} set takes one or more of {list(allowed)}")
    for nm in norms:
        if nm not in allowed:
            raise cfg.fault("norms", f"a {obs.kind} set takes {list(allowed)}, got {nm!r}")
    if len(set(norms)) < len(norms):
        raise cfg.fault("norms", f"names a norm more than once: {norms}")
    return norms


def _chart_params(cfg):
    """The double-check's chart block as the build_chart arguments
    (a_diag, s_max, n_s, z_extent, n_z), or None when no chart is configured.

    The diagnostics difference across two collar levels on each side of
    s = 0 and take second differences over three nodes of the cutoff's core
    |z| <= z_extent/2, which every n_z >= 7 provides.
    """
    if not cfg.spec.get("chart"):
        return None
    chart = cfg.section("chart")
    return (chart.numbers("a_diag", 2, [4.0, 1.0], above=0),
            chart.number("s_max", 0.05, above=0),
            chart.integer("n_s", 10, least=2),
            chart.number("z_extent", 1.0, above=0),
            chart.integer("n_z", 801, least=7))


@dataclass(eq=False)
class RunPlan:
    """A checked config as `_setup` hands it to the runner. `params` holds the
    family's fields by config name, defaulted and checked (docs/config.md);
    a control `schedule` is its lr_schedule. `doubled` is the double-check's
    reflected double with its complete spectrum."""

    experiment: str
    seed: int
    config_hash: str
    out: str
    spectrum: Spectrum
    obs: ObservationSet | None
    params: dict
    doubled: tuple | None


def _setup(raw) -> RunPlan:
    """The one reader of a config. Reads, defaults and checks every field the
    family uses and works out the spectrum it needs (the top of the lambda
    grid, `modes`, `count` or `lambda_max`); only then assembles and solves.
    A cutoff below the first eigenfrequency, which only the solve reveals,
    is a ConfigError as well."""
    cfg = _Section(raw)
    exp = cfg.choice("experiment", tuple(RUNNERS))
    domain = build_domain(cfg.get("domain", dict))
    coeff_spec = cfg.get("coefficients", dict)
    observed = exp in ("constant-sweep", "interp-check", "control")
    set_spec = cfg.get("set", dict) if observed else {}
    out = cfg.get("out", str) if raw.get("out") else f"heatlab-out/{exp}"
    n = domain.n_unknowns
    p, lam_max, count = {}, None, None
    if exp == "spectrum":
        lam_max = cfg.number("lambda_max", None, above=0)
        count = cfg.integer("count", None, least=1, most=n)
    elif exp == "constant-sweep":
        p["lambda_grid"] = _lambda_grid(cfg)
        lam_max = p["lambda_grid"][-1]
    elif exp == "interp-check":
        s, t = cfg.number("s", 0.0), cfg.number("t")
        if not (0 <= s < t):
            raise cfg.fault("s", f"need 0 <= s < t, got s={s}, t={t}")
        eps = cfg.number("epsilon", 0.5)
        if not (0 < eps < 1):
            raise cfg.fault("epsilon", "must lie in (0, 1)")
        p.update(s=s, t=t, epsilon=eps, batch=cfg.integer("batch", 50, least=1))
    elif exp == "control":
        count = cfg.integer("modes", n, least=1, most=n)
        sched = cfg.section("schedule")
        try:
            p["schedule"] = lr_schedule(sched.number("T"), sched.number("rho"),
                                        sched.integer("steps"))
        except ValueError as exc:
            raise ConfigError(sched.path, str(exc)) from exc
        p["mode"] = cfg.choice("mode", ("impulsive", "distributed"), "impulsive")
        p["u0"] = _field_spec(cfg, "u0", "random", count)
        p["v0"] = _field_spec(cfg, "v0", "zero", count)
        p["cost_rate"] = cfg.number("cost_rate", 5e-4, above=0)
        p["c_lambda"] = cfg.number("c_lambda", DEFAULT_C_LAMBDA, above=0)
        p["time_slabs"] = cfg.integer("time_slabs", 32, least=1)
    else:
        if domain.dimension != 1:
            raise cfg.fault("domain", "the doubling experiment runs on intervals")
        count = cfg.integer("modes", 10, least=1, most=n)
        p["chart"] = _chart_params(cfg)
    draws = (coeff_spec.get("kind") == "piecewise_linear" or set_spec.get("kind") == "random"
             or exp == "interp-check"
             or any(p[f]["kind"] == "random" for f in ("u0", "v0") if f in p))
    if draws and "seed" not in raw:
        raise cfg.fault("seed", "required whenever the config draws random data")
    seed = cfg.integer("seed", 0, least=0)
    coeffs = build_coefficients(domain, coeff_spec, seed)
    obs = build_set(domain, set_spec, seed, coeffs.kappa) if observed else None
    if exp == "constant-sweep":
        p["norms"] = _norms(cfg, obs)
    if p.get("mode") == "distributed" and obs.kind != CELL_MASK:
        raise cfg.fault("set", "distributed control needs a cell-mask set")
    op = assemble(domain, coeffs)
    try:
        spectrum = compute_spectrum(op, lam_max=lam_max, count=count)
    except ValueError as exc:   # `count` is checked, so only an empty band is left
        if lam_max is None:
            raise
        raise cfg.fault("lambda_max" if exp == "spectrum" else "lambda_grid",
                        f"no eigenfrequency lies at or below {lam_max:.6g}") from exc
    if exp == "constant-sweep" and p["lambda_grid"][0] < spectrum.frequencies[0]:
        raise cfg.fault("lambda_grid", f"the cutoff {p['lambda_grid'][0]:.6g} lies below the "
                        f"first eigenfrequency {spectrum.frequencies[0]:.6g}")
    doubled = None
    if exp == "double-check":
        db = double_domain(domain, coeffs)
        doubled = (db, compute_spectrum(db.operator))
    return RunPlan(exp, seed, config_hash(dict(raw, seed=seed)), out, spectrum, obs, p,
                   doubled)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def run_spectrum(plan: RunPlan, out: Path, log):
    spec = plan.spectrum
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


def run_constant_sweep(plan: RunPlan, out: Path, log):
    spec, obs, grid = plan.spectrum, plan.obs, plan.params["lambda_grid"]

    def one(nm, lam):
        if nm == "l2":
            return constant_l2(spec, obs, lam)
        if nm == "l1":
            return constant_l1(spec, obs, lam, seed=plan.seed).value
        return constant_sup(spec, obs, lam)

    # Bands are nested prefixes of the spectrum, so a band is known by its
    # size: each distinct band is solved once, at its lowest cutoff.
    sizes = [spec.band(lam).size for lam in grid]
    lowest = {}
    for lam, k in zip(grid, sizes):
        lowest.setdefault(k, lam)
    rows = []
    summary = {"set_kind": obs.kind, "measure": obs.measure, "fits": {}}
    checks = {}
    for nm in plan.params["norms"]:
        by_size = {k: one(nm, lam) for k, lam in lowest.items()}
        if nm == "sup":
            log(f"sup: {sum(c.lp_solved for c in by_size.values())} LPs solved, "
                f"{sum(c.lp_certified for c in by_size.values())} certified, "
                f"{sum(c.lp_pruned for c in by_size.values())} pruned")
            by_size = {k: c.value for k, c in by_size.items()}
        consts = [by_size[k] for k in sizes]
        rows += [(nm, lam, c) for lam, c in zip(grid, consts)]
        finite = [c for c in consts if math.isfinite(c)]
        checks[f"{nm}_finite"] = len(finite) == len(consts)
        if nm == "l2":
            checks["l2_at_least_one"] = all(c >= 1 - 1e-9 for c in finite)
        try:
            fit = fit_growth(grid, consts)
        except InsufficientDataError as exc:  # too few finite constants is reportable
            summary.setdefault("fits_skipped", {})[nm] = str(exc)
            log(f"{nm}: C in [{min(consts):.6g}, {max(consts):.6g}], fit skipped: {exc}")
            continue
        summary["fits"][nm] = {"prefactor": fit.prefactor, "rate": fit.rate,
                               "r_squared": fit.r_squared, "n_points": fit.n_points,
                               "degenerate": fit.degenerate}
        log(f"{nm}: C in [{min(consts):.6g}, {max(consts):.6g}], "
            f"rate {fit.rate:.6g}, r2 {fit.r_squared:.4f}")
        checks[f"{nm}_rate_nonnegative"] = fit.degenerate or fit.rate >= -1e-6
    write_csv(out / "sweep.csv", ["norm", "lambda", "constant"], rows)
    return summary, checks


def run_interp_check(plan: RunPlan, out: Path, log):
    spec, obs = plan.spectrum, plan.obs
    s, t, eps, batch = (plan.params[k] for k in ("s", "t", "epsilon", "batch"))
    rng = np.random.default_rng(plan.seed)
    fields = [spec.synthesize_values(rng.standard_normal(spec.n_modes))
              for _ in range(batch)]

    reports = [interpolation_check(spec, obs, f, s, t, eps) for f in fields]
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


def run_control(plan: RunPlan, out: Path, log):
    spec, obs, p = plan.spectrum, plan.obs, plan.params
    seq = p["schedule"]
    T = seq.horizon
    rng = np.random.default_rng(plan.seed)
    u0 = build_field(spec, p["u0"], rng)
    v0 = None if p["v0"]["kind"] == "zero" else build_field(spec, p["v0"], rng)
    checks = {}
    summary = {"modes": spec.n_modes, "horizon": T, "rho": seq.ratio, "steps": seq.times.size,
               "cost_rate": p["cost_rate"], "mode": p["mode"]}

    if p["mode"] == "impulsive":
        sched = synthesize(spec, obs, seq, u0, v0, c_lambda=p["c_lambda"])
        sim = simulate(spec, u0, sched)
        led = cost_report(sched, p["cost_rate"])
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
        res = distributed_control(spec, obs, seq, p["time_slabs"], u0, v0,
                                  c_lambda=p["c_lambda"])
        rows = [(sc.time, sc.end, sc.lambda_cutoff, sc.slabs.size,
                 float(np.abs(sc.payload).max())) for sc in res.steps]
        write_csv(out / "windows.csv",
                  ["t_start", "t_end", "lambda_cutoff", "n_slabs", "sup_norm"], rows)
        summary.update({
            "terminal_relative": res.terminal_relative,
            "sup_norm": res.sup_norm,
            "n_windows": len(res.steps),
        })
        log(f"distributed control over {len(res.steps)} windows, "
            f"terminal relative deficit {res.terminal_relative:.3e}")
        checks["finite_control"] = math.isfinite(res.sup_norm)
    return summary, checks


def run_double_check(plan: RunPlan, out: Path, log):
    spec, (db, spec2) = plan.spectrum, plan.doubled
    domain = spec.operator.domain
    rows = []
    worst_res, worst_dist = 0.0, 0.0
    for k in range(spec.n_modes):
        ext, res = extend_eigenfunction(db, spec.vectors[:, k], spec.eigenvalues[k])
        dist = float(np.abs(spec2.eigenvalues - spec.eigenvalues[k]).min())
        rows.append((k + 1, spec.eigenvalues[k], res, dist))
        worst_res = max(worst_res, res)
        worst_dist = max(worst_dist, dist / max(spec.eigenvalues[k], 1.0))
    write_csv(out / "residuals.csv",
              ["k", "eigenvalue", "extension_residual", "nearest_doubled_distance"], rows)
    log(f"extension residuals up to {worst_res:.3e}, "
        f"spectral inclusion distance up to {worst_dist:.3e}")
    summary = {"modes": spec.n_modes, "max_extension_residual": worst_res,
               "max_inclusion_distance_rel": worst_dist,
               "interface_jump": db.interface_jump()}
    checks = {
        "extensions_exact": worst_res <= 1e-8,
        "spectral_inclusion": worst_dist <= max(1e-8, max(domain.h) ** 2),
        "interface_continuous": db.interface_jump() <= 1e-12,
    }

    chart_params = plan.params["chart"]
    if chart_params:
        a_diag, s_max, n_s, z_extent, n_z = chart_params
        a_fn = (lambda y, z:
                np.broadcast_to(np.diag(np.asarray(a_diag, dtype=float)),
                                np.shape(y) + (2, 2)).copy())
        chart = build_chart(a_fn, s_max, n_s, z_extent, n_z)
        diag = pseudo_geodesic_diag(chart)
        stride = max(1, chart.z_grid.size // 64)
        crows = [(s, chart.z_grid[j], *chart.m[i, j], *chart.phi[i, j])
                 for i, s in enumerate(chart.s_grid)
                 for j in range(0, chart.z_grid.size, stride)]
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
    """Check and execute one experiment config into `out_dir` (None: the
    config's `out`), in order on the calling thread. `threads` is checked
    (None or an integer >= 1) but unused; it stays for callers that pass it.
    Returns (summary, checks, out_dir);
    raises ConfigError on invalid input, before any eigensolve except for a
    spectral cutoff below the first eigenfrequency.
    """
    _Section({"threads": threads}).integer("threads", None, least=1)
    plan = _setup(cfg)
    out = Path(out_dir or plan.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []

    def log(msg):
        lines.append(msg)
        if verbose:
            print(msg)

    log(f"experiment {plan.experiment} (seed {plan.seed})")
    summary, checks = RUNNERS[plan.experiment](plan, out, log)
    checks = {k: bool(v) for k, v in checks.items()}
    summary = {"experiment": plan.experiment, "artifact_version": _version,
               "config_hash": plan.config_hash, "seed": plan.seed, **summary,
               "checks": checks, "all_checks_pass": bool(all(checks.values()))}
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, default=float) + "\n")
    log("all invariant checks pass" if summary["all_checks_pass"]
        else "INVARIANT CHECK FAILURE")
    (out / "run.log").write_text("\n".join(lines) + "\n")
    return summary, checks, out
