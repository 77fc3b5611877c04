import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatlab.experiments
import heatlab.spectrum
from heatlab.cli import main
from heatlab.errors import ConfigError
from heatlab.experiments import run, validate_config

INTERVAL = {"kind": "interval", "length": math.pi, "cells": 120, "bc": "dirichlet"}
CONST = {"kind": "constant", "g": 1.0, "kappa": 1.0}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_spectrum_run_writes_artifacts(tmp_path):
    cfg = {"experiment": "spectrum", "domain": dict(INTERVAL, cells=700),
           "coefficients": CONST, "seed": 0}
    summary, checks, out = run(cfg, out_dir=tmp_path / "s")
    assert (out / "spectrum.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "run.log").exists()
    assert all(checks.values())
    assert abs(summary["weyl_exponent"] - 1.0) <= 0.1
    saved = json.loads((out / "summary.json").read_text())
    assert saved["config_hash"] == summary["config_hash"]
    assert saved["artifact_version"]


def test_constant_sweep_run(tmp_path):
    cfg = {"experiment": "constant-sweep", "domain": dict(INTERVAL, cells=400),
           "coefficients": CONST, "seed": 0,
           "set": {"kind": "interval", "from": 0.0, "to": 1.5708},
           "lambda_grid": {"min": 1.5, "max": 8.5, "count": 8},
           "norms": ["l2"]}
    summary, checks, out = run(cfg, out_dir=tmp_path / "c")
    assert all(checks.values())
    fit = summary["fits"]["l2"]
    assert fit["rate"] > 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 9  # header + 8 rows


def test_control_run_one_mode(tmp_path):
    cfg = {"experiment": "control", "domain": INTERVAL, "coefficients": CONST,
           "seed": 0, "modes": 12, "set": {"kind": "full"},
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 4},
           "u0": {"kind": "mode", "k": 1}, "v0": {"kind": "zero"}}
    summary, checks, out = run(cfg, out_dir=tmp_path / "k")
    assert all(checks.values())
    assert summary["terminal_deficit"] <= 1e-10
    assert (out / "schedule.json").exists()
    assert (out / "trajectory.csv").exists()
    assert (out / "ledger.csv").exists()


def test_missing_seed_with_random_initial_state(tmp_path):
    cfg = {"experiment": "control", "domain": INTERVAL, "coefficients": CONST,
           "modes": 8, "set": {"kind": "full"},
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 3}}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.field == "seed"


def test_sampled_coefficients_from_csv(tmp_path):
    from heatlab.experiments import build_coefficients, build_domain
    dom = build_domain(dict(INTERVAL, cells=6))
    path = tmp_path / "c.csv"
    with open(path, "w") as fh:
        for i in range(7):
            fh.write(f"{i},1.0,{1.0 + 0.01 * i}\n")
    cf = build_coefficients(dom, {"kind": "sampled", "csv": str(path)}, seed=0)
    assert cf.kappa[6] == pytest.approx(1.06)


def test_missing_seed_with_random_set(tmp_path):
    cfg = {"experiment": "constant-sweep", "domain": INTERVAL,
           "coefficients": CONST,
           "set": {"kind": "random", "measure": 0.4},
           "lambda_grid": {"min": 1.5, "max": 6.5, "count": 6}}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.field == "seed"


def test_norm_set_mismatch_rejected(tmp_path):
    cfg = {"experiment": "constant-sweep", "domain": INTERVAL,
           "coefficients": CONST, "seed": 1,
           "set": {"kind": "full"},
           "lambda_grid": {"min": 1.5, "max": 6.5, "count": 6},
           "norms": ["sup"]}
    with pytest.raises(ConfigError):
        run(cfg, out_dir=tmp_path / "bad")


SWEEP = {"experiment": "constant-sweep", "domain": INTERVAL, "coefficients": CONST,
         "seed": 0, "set": {"kind": "full"},
         "lambda_grid": {"min": 1.5, "max": 6.5, "count": 6}}
CONTROL = {"experiment": "control", "domain": INTERVAL, "coefficients": CONST,
           "seed": 0, "modes": 8, "set": {"kind": "full"},
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 3}}
DOUBLE = {"experiment": "double-check", "domain": dict(INTERVAL, cells=20), "coefficients": CONST,
          "seed": 0, "modes": 3,
          "chart": {"a_diag": [4.0, 1.0], "s_max": 0.04, "n_s": 4, "z_extent": 1.0, "n_z": 401}}
INTERP = {"experiment": "interp-check", "domain": INTERVAL, "coefficients": CONST,
          "seed": 0, "set": {"kind": "interval", "from": 0.0, "to": 1.5708},
          "t": 0.5, "batch": 2}


@pytest.mark.parametrize("cfg, field", [
    (dict(SWEEP, set={"kind": "blob"}), "set.kind"),
    (dict(SWEEP, norms=["sup"]), "norms"),
    (dict(CONTROL, mode="pulsed"), "mode"),
    ({"experiment": "double-check", "seed": 0, "coefficients": CONST,
      "domain": {"kind": "rectangle", "lx": 1.0, "ly": 1.0, "nx": 4, "ny": 4,
                 "bc": "dirichlet"}}, "domain"),
    (dict(INTERP, s=0.6), "s"),
    (dict(INTERP, s=0.5), "s"),
    (dict(INTERP, epsilon=1.5), "epsilon"),
    (dict(CONTROL, u0={"kind": "blob"}), "u0.kind"),
    (dict(CONTROL, v0={"kind": "blob"}), "v0.kind"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], s_max=0.0)), "chart.s_max"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], n_z=1)), "chart.n_z"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], n_s=0)), "chart.n_s"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], a_diag=[4.0])), "chart.a_diag"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], a_diag=[-4.0, 1.0])), "chart.a_diag"),
], ids=["unknown-set-kind", "sup-on-mask", "unknown-control-mode", "double-on-rectangle",
        "s-above-t", "s-equals-t", "epsilon-above-one", "unknown-u0-kind",
        "unknown-v0-kind", "chart-s-max-zero", "chart-n-z-one", "chart-n-s-zero",
        "chart-a-diag-short", "chart-a-diag-negative"])
def test_config_errors_raise_before_the_eigensolve(tmp_path, monkeypatch, cfg, field):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve reached on an invalid config")
    monkeypatch.setattr(heatlab.spectrum, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", no_eigensolve)
    with pytest.raises(ConfigError) as err:
        run(dict(cfg), out_dir=tmp_path / "bad")
    assert err.value.field == field


def test_double_check_chart_at_the_smallest_accepted_grid(tmp_path):
    cfg = dict(DOUBLE, chart=dict(DOUBLE["chart"], n_s=2, n_z=7))
    summary, checks, _ = run(cfg, out_dir=tmp_path / "small")
    assert checks["chart_normal_exact"] and checks["chart_b0_diagonal"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is loaded on first use; starting the CLI never needs it
    src = str(Path(heatlab.experiments.__file__).parents[1])
    code = "import sys, heatlab.cli; sys.exit('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0


@pytest.mark.parametrize("name", ["u0", "v0"])
def test_mode_index_error_names_the_field(tmp_path, name):
    cfg = dict(CONTROL, **{name: {"kind": "mode", "k": 99}})
    with pytest.raises(ConfigError) as err:
        run(cfg, out_dir=tmp_path / "bad")
    assert err.value.field == f"{name}.k"


def test_cli_exit_codes(tmp_path):
    good = write_cfg(tmp_path, {
        "experiment": "spectrum", "domain": INTERVAL, "coefficients": CONST,
        "seed": 0}, "good.json")
    assert main(["run", str(good), "--out", str(tmp_path / "o1")]) == 0
    bad = write_cfg(tmp_path, {"experiment": "nope"}, "bad.json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o2")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["run", str(notjson)]) == 2
    interp = write_cfg(tmp_path, dict(INTERP, s=0.6), "interp.json")
    assert main(["run", str(interp), "--out", str(tmp_path / "o3")]) == 2


SQUARE_24 = {"kind": "rectangle", "lx": math.pi, "ly": math.pi, "nx": 24, "ny": 24,
             "bc": "dirichlet"}


@pytest.mark.parametrize("domain, measure, band", [
    (dict(INTERVAL, cells=200), 1.0, False),
    (SQUARE_24, 3.0, True),     # 529 unknowns: shift-invert band solve
], ids=["interval-dense", "square-band"])
def test_byte_identical_reruns(tmp_path, monkeypatch, domain, measure, band):
    if band:
        def no_dense(op):
            raise AssertionError("dense eigensolve on a band request")
        monkeypatch.setattr(heatlab.spectrum, "_dense_solve", no_dense)
    cfg = {"experiment": "constant-sweep", "domain": domain,
           "coefficients": {"kind": "piecewise_linear", "lip_g": 1.0,
                            "lip_kappa": 1.0},
           "seed": 7,
           "set": {"kind": "random", "measure": measure},
           "lambda_grid": {"min": 1.5, "max": 6.5, "count": 6},
           "norms": ["l2"]}
    outs = [run(dict(cfg), out_dir=tmp_path / name, threads=threads)[2]
            for name, threads in (("a", 1), ("b", 4), ("c", 1))]
    for name in ("sweep.csv", "summary.json"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])


def test_spectrum_run_validates_once(tmp_path, monkeypatch):
    calls = []
    validate = heatlab.spectrum.Spectrum.validate

    def counted(self):
        calls.append(self.n_modes)
        return validate(self)
    monkeypatch.setattr(heatlab.spectrum.Spectrum, "validate", counted)
    cfg = {"experiment": "spectrum", "domain": INTERVAL, "coefficients": CONST,
           "seed": 0, "count": 30}
    summary, checks, _ = run(cfg, out_dir=tmp_path / "v")
    assert calls == [30]
    assert all(checks.values())
    assert summary["invariants"]["eigen_residual"] <= 1e-8


def test_sup_sweep_logs_lp_counts(tmp_path):
    cfg = {"experiment": "constant-sweep", "domain": dict(INTERVAL, cells=60),
           "coefficients": CONST, "seed": 0,
           "set": {"kind": "cantor", "ratio": 0.3, "levels": 3},
           "lambda_grid": {"min": 1.5, "max": 5.5, "count": 5},
           "norms": ["sup"]}
    _, checks, out1 = run(dict(cfg), out_dir=tmp_path / "a", threads=1)
    _, _, out2 = run(dict(cfg), out_dir=tmp_path / "b", threads=2)
    assert all(checks.values())
    log1 = (out1 / "run.log").read_text().splitlines()
    log2 = (out2 / "run.log").read_text().splitlines()
    assert log1[1:] == log2[1:]   # the first line names the thread count
    (line,) = [ln for ln in log1 if "LPs solved" in ln]
    solved, pruned = (int(w) for w in line.replace(",", "").split() if w.isdigit())
    assert solved + pruned == 59 * 5
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_double_check_run(tmp_path):
    cfg = {"experiment": "double-check", "domain": dict(INTERVAL, cells=80),
           "coefficients": {"kind": "piecewise_linear", "lip_g": 0.5,
                            "lip_kappa": 0.5},
           "seed": 3, "modes": 8,
           "chart": {"a_diag": [4.0, 1.0], "s_max": 0.05, "n_s": 8,
                     "z_extent": 1.0, "n_z": 801}}
    summary, checks, out = run(cfg, out_dir=tmp_path / "d")
    assert all(checks.values()), checks
    assert (out / "residuals.csv").exists()
    assert (out / "chart.csv").exists()
    assert summary["chart"]["b0_offdiag_max"] <= 1e-8


def test_interp_check_run(tmp_path):
    cfg = {"experiment": "interp-check", "domain": dict(INTERVAL, cells=300),
           "coefficients": CONST, "seed": 11,
           "set": {"kind": "interval", "from": 0.0, "to": 1.5708},
           "s": 0.0, "t": 0.5, "epsilon": 0.5, "batch": 10}
    summary, checks, out = run(cfg, out_dir=tmp_path / "i")
    assert all(checks.values())
    assert math.isfinite(summary["n_sup"])


def test_distributed_control_run(tmp_path):
    cfg = {"experiment": "control", "domain": dict(INTERVAL, cells=200),
           "coefficients": CONST, "seed": 5, "modes": 20,
           "set": {"kind": "interval", "from": 0.0, "to": 1.5708},
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 8},
           "mode": "distributed", "time_slabs": 32,
           "u0": {"kind": "random"}}
    summary, checks, out = run(cfg, out_dir=tmp_path / "dc")
    assert all(checks.values())
    assert summary["terminal_relative"] <= 1e-6
    assert (out / "windows.csv").exists()


def test_env_var_overrides_out(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("HEATLAB_OUT", str(target))
    cfg = {"experiment": "spectrum", "domain": INTERVAL, "coefficients": CONST,
           "seed": 0}
    _, _, out = run(cfg, out_dir=tmp_path / "ignored")
    assert out == target
    assert (target / "summary.json").exists()
