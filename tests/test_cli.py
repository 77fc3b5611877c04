import ast
import copy
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import heatlab.experiments
import heatlab.spectrum
from heatlab.cli import main
from heatlab.errors import ConfigError, EmptySetError
from heatlab.experiments import _setup, run

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


def test_control_run_from_the_target_needs_no_control(tmp_path):
    cfg = dict(CONTROL, u0={"kind": "zero"})
    summary, checks, _ = run(cfg, out_dir=tmp_path / "z")
    assert checks and all(checks.values())
    assert summary["n_controls"] == 0
    assert summary["terminal_relative"] == 0


def test_missing_seed_with_random_initial_state(tmp_path):
    cfg = {"experiment": "control", "domain": INTERVAL, "coefficients": CONST,
           "modes": 8, "set": {"kind": "full"},
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 3}}
    with pytest.raises(ConfigError) as err:
        _setup(cfg)
    assert err.value.field == "seed"


def test_sampled_tables_run_as_the_constant_field(tmp_path):
    domain = dict(INTERVAL, cells=20)
    sampled, constant = (run(dict(SPECTRUM, domain=domain, coefficients=c), out_dir=tmp_path / n)
                         for c, n in ((SAMPLED, "sampled"), (CONST, "constant")))
    assert all(sampled[1].values())
    assert ((sampled[2] / "spectrum.csv").read_bytes()
            == (constant[2] / "spectrum.csv").read_bytes())


def test_missing_seed_with_random_set(tmp_path):
    cfg = {"experiment": "constant-sweep", "domain": INTERVAL,
           "coefficients": CONST,
           "set": {"kind": "random", "measure": 0.4},
           "lambda_grid": {"min": 1.5, "max": 6.5, "count": 6}}
    with pytest.raises(ConfigError) as err:
        _setup(cfg)
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
SPECTRUM = {"experiment": "spectrum", "domain": INTERVAL, "coefficients": CONST, "seed": 0}
INTERP = {"experiment": "interp-check", "domain": INTERVAL, "coefficients": CONST,
          "seed": 0, "set": {"kind": "interval", "from": 0.0, "to": 1.5708},
          "t": 0.5, "batch": 2}
LIPSCHITZ = {"kind": "piecewise_linear", "lip_g": 0.5, "lip_kappa": 0.5}
SQUARE = {"kind": "rectangle", "lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8, "bc": "dirichlet"}
SAMPLED = {"kind": "sampled", "g": [[[1.0]]] * 21, "kappa": [1.0] * 21}   # 20-cell interval
# set faults that used to build a wrong set silently, or end in a traceback
BAD_SETS = [
    ({"kind": "points", "coords": [0.3, 0.9, 1.4, 2.0, 2.7]}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": []}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": [float("nan")]}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": [[float("nan")]]}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": [-5.0]}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": [[-5.0]]}, INTERVAL, "set.coords"),
    ({"kind": "points", "coords": [[0.3], [0.4]]}, SQUARE, "set.coords"),
    ({"kind": "points"}, INTERVAL, "set.coords"),
    ({"kind": "cantor", "ratio": 0.3, "levels": 3, "transverse": [0.5]}, SQUARE,
     "set.transverse"),
    ({"kind": "box", "x0": 0.0, "y0": 0.0, "y1": 1.0}, SQUARE, "set.x1"),
    ({"kind": "interval", "from": 0.0}, INTERVAL, "set.to"),
    ({"kind": "cantor", "ratio": 0.3}, INTERVAL, "set.levels"),
]


def without(spec, field):
    return {k: v for k, v in spec.items() if k != field}


# faults inside a nested section, each named <section>.<field>; they used to be
# named without their section, carry Python's or numpy's message, or pass (a
# JSON true read as 1)
BAD_NESTED = [
    (dict(SPECTRUM, domain=without(INTERVAL, "length")), "domain.length", "domain-length-missing"),
    (dict(SPECTRUM, domain=without(INTERVAL, "bc")), "domain.bc", "domain-bc-missing"),
    (dict(SPECTRUM, domain=without(SQUARE, "ny")), "domain.ny", "domain-ny-missing"),
    (dict(SPECTRUM, domain=dict(INTERVAL, length=-1.0)), "domain.length", "domain-length-negative"),
    (dict(SPECTRUM, domain=dict(INTERVAL, length=True)), "domain.length", "domain-length-true"),
    (dict(SPECTRUM, domain=dict(INTERVAL, length=10 ** 400)), "domain.length",
     "domain-length-overflows"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=1)), "domain.cells", "domain-cells-one"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=True)), "domain.cells", "domain-cells-true"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=10 ** 400)), "domain.cells",
     "domain-cells-beyond-int64"),
    (dict(SWEEP, lambda_grid={"min": 1.5, "max": 6.5}), "lambda_grid.count", "grid-count-missing"),
    (dict(SWEEP, lambda_grid={"min": 1.5, "max": 6.5, "count": True}), "lambda_grid.count",
     "grid-count-true"),
    (dict(SWEEP, lambda_grid=[True, 2.0, 3.0, 4.0, 5.0]), "lambda_grid", "grid-list-true"),
    (dict(CONTROL, schedule={"rho": 0.5, "steps": 3}), "schedule.T", "schedule-t-missing"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 0.5}), "schedule.steps", "schedule-steps-missing"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 0.5, "steps": True}), "schedule.steps",
     "schedule-steps-true"),
    (dict(SWEEP, domain=SQUARE, set={"kind": "box", "x0": 0.0, "x1": "a", "y0": 0.0, "y1": 1.0}),
     "set.x1", "box-x1-not-a-number"),
    (dict(SWEEP, set={"kind": "interval", "from": "0", "to": 1.0}), "set.from",
     "interval-from-a-string"),
    (dict(SWEEP, set={"kind": "cantor", "ratio": 0.3, "levels": True}), "set.levels",
     "cantor-levels-true"),
    (dict(SWEEP, set={"kind": "random", "measure": True}), "set.measure", "random-measure-true"),
    # geometry faults on the unit square
    (dict(SWEEP, domain=SQUARE, set={"kind": "cantor", "ratio": 0.3, "levels": 3,
                                     "transverse": [0.5, 2.0]}), "set.transverse",
     "transverse-outside"),
    (dict(SWEEP, domain=SQUARE, set={"kind": "cantor", "ratio": 0.3, "levels": 3,
                                     "from": 0.5, "to": 3.0}), "set.to", "cantor-to-outside"),
    (dict(SWEEP, domain=SQUARE, set={"kind": "box", "x0": 0.5, "x1": 0.2, "y0": 0.0, "y1": 1.0}),
     "set.x1", "box-x1-below-x0"),
    (dict(SWEEP, domain=SQUARE, set={"kind": "interval", "from": 0.5, "to": 0.5}), "set.to",
     "interval-to-at-from"),
    # sampled tables on a 20-cell interval, which has 21 nodes
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=20),
          coefficients=dict(SAMPLED, g=[["a"]])), "coefficients.g", "sampled-g-not-tables"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=20),
          coefficients=dict(SAMPLED, g=[[[True]]] * 21)), "coefficients.g", "sampled-g-true"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=20),
          coefficients=dict(SAMPLED, kappa=[True] * 21)), "coefficients.kappa",
     "sampled-kappa-true"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=20),
          coefficients=dict(SAMPLED, kappa=[1.0] * 20)), "coefficients.kappa",
     "sampled-kappa-short"),
]
# keys that no reader takes, which used to be ignored, and schedules whose
# times collide in floating point, which used to fail after the eigensolve
STRAY = [
    (dict(INTERP, epsilom=0.3), "epsilom", "misspelled-epsilon"),
    (dict(SPECTRUM, set={"kind": "full"}), "set", "set-on-spectrum"),
    (dict(CONTROL, u0={"kind": "random", "k": 2}), "u0.k", "mode-index-on-random-u0"),
    (dict(SWEEP, set={"kind": "full", "measure": 1.0}), "set.measure", "measure-on-full-set"),
    (dict(SWEEP, set={"kind": "cantor", "ratio": 0.3, "levels": 3, "transverse": [0.0, 1.0]}),
     "set.transverse", "transverse-on-interval"),
    (dict(DOUBLE, chart=dict(DOUBLE["chart"], nz=401)), "chart.nz", "misspelled-chart-n-z"),
    (dict(SPECTRUM, coefficients=dict(CONST, lip_g=0.5)), "coefficients.lip_g",
     "lip-g-on-constant"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 1e-9, "steps": 2}), "schedule",
     "schedule-last-time-at-horizon"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 0.5, "steps": 60}), "schedule",
     "schedule-times-collide"),
]
# coefficient faults that used to end in a traceback (exit 1)
BAD_COEFFICIENTS = [
    dict(LIPSCHITZ, lip_g="x"),
    dict(LIPSCHITZ, lip_g=None),
    dict(LIPSCHITZ, g_base="a"),
    dict(LIPSCHITZ, kappa_base=None),
    dict(LIPSCHITZ, seed="x"),
]


@pytest.mark.parametrize("cfg, field", [
    (dict(SWEEP, set={"kind": "blob"}), "set.kind"),
    (dict(SWEEP, norms=["sup"]), "norms"),
    (dict(SWEEP, norms=["l3"]), "norms"),
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
    (dict(INTERP, batch=0), "batch"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 1.0, "steps": 3}), "schedule.rho"),
    (dict(CONTROL, schedule={"T": 1.0, "rho": 0.5, "steps": 1}), "schedule.steps"),
    (dict(CONTROL, schedule={"T": 0.0, "rho": 0.5, "steps": 3}), "schedule.T"),
    (dict(CONTROL, cost_rate=0.0), "cost_rate"),
    (dict(CONTROL, c_lambda=-1.0), "c_lambda"),
    (dict(CONTROL, mode="distributed", time_slabs=0), "time_slabs"),
    (dict(CONTROL, modes=0), "modes"),
    (dict(CONTROL, modes=120), "modes"),       # 119 unknowns
    (dict(DOUBLE, modes=20), "modes"),         # 19 unknowns
    (dict(SPECTRUM, count=0), "count"),
    (dict(SPECTRUM, count=120), "count"),
    (dict(CONTROL, u0={"kind": "mode", "k": 9}), "u0.k"),
    (dict(CONTROL, u0={"kind": "mode", "amplitude": "big"}), "u0.amplitude"),
    (dict(INTERP, t="soon"), "t"),
    (dict(SWEEP, set={"kind": "interval", "from": "a", "to": 1.0}), "set.from"),
    (dict(SWEEP, domain=dict(INTERVAL, length="pi")), "domain.length"),
    (dict(SWEEP, lambda_grid={"min": "a", "max": 3.0, "count": 5}), "lambda_grid.min"),
    (dict(SPECTRUM, out=7), "out"),
    (dict(SWEEP, norms=[]), "norms"),
    (dict(SWEEP, norms=["l2", "l1", "l2"]), "norms"),
    (dict(SWEEP, lambda_grid=[3, 2, 4, 5, 6]), "lambda_grid"),
    (dict(SWEEP, lambda_grid={"min": 5, "max": 3, "count": 5}), "lambda_grid"),
    (dict(SWEEP, lambda_grid=[1.2, 2.4, 3.6, 4.8]), "lambda_grid"),
    (dict(SWEEP, lambda_grid={"min": 1.5, "max": 6.5, "count": 4}), "lambda_grid.count"),
    (dict(CONTROL, mode="distributed", set={"kind": "cantor", "ratio": 0.3, "levels": 3}),
     "set"),
    *((dict(SPECTRUM, coefficients=c), f"coefficients.{f}") for c, f in zip(
        BAD_COEFFICIENTS, ["lip_g", "lip_g", "g_base", "kappa_base", "seed"])),
    (dict(SPECTRUM, coefficients={"kind": "piecewise_linear", "lip_kappa": 0.5}),
     "coefficients.lip_g"),
    (dict(SPECTRUM, coefficients=dict(LIPSCHITZ, lip_kappa=-1.0)), "coefficients.lip_kappa"),
    (dict(SPECTRUM, coefficients=dict(CONST, kappa="a")), "coefficients.kappa"),
    (dict(SPECTRUM, coefficients=dict(CONST, g=[[True]])), "coefficients.g"),
    (dict(SPECTRUM, domain=dict(INTERVAL, cells=20), coefficients=dict(SAMPLED, csv=7)),
     "coefficients.csv"),
    (dict(SPECTRUM, coefficients={"kind": "mystery"}), "coefficients.kind"),
    *((dict(SWEEP, domain=domain, set=set_), f) for set_, domain, f in BAD_SETS),
    *((cfg, f) for cfg, f, _ in BAD_NESTED),
    *((cfg, f) for cfg, f, _ in STRAY),
], ids=["unknown-set-kind", "sup-on-mask", "unknown-norm", "unknown-control-mode",
        "double-on-rectangle", "s-above-t", "s-equals-t", "epsilon-above-one", "unknown-u0-kind",
        "unknown-v0-kind", "chart-s-max-zero", "chart-n-z-one", "chart-n-s-zero",
        "chart-a-diag-short", "chart-a-diag-negative", "batch-zero", "schedule-rho-one",
        "schedule-one-step", "schedule-horizon-zero", "cost-rate-zero",
        "c-lambda-negative", "time-slabs-zero", "control-modes-zero",
        "control-modes-above-unknowns", "double-modes-above-unknowns",
        "spectrum-count-zero", "spectrum-count-above-unknowns", "u0-mode-above-modes",
        "u0-amplitude-not-a-number", "t-not-a-number", "set-bound-not-a-number",
        "domain-length-not-a-number", "grid-min-not-a-number", "out-not-a-path",
        "norms-empty", "norms-repeated", "grid-list-not-increasing", "grid-min-above-max",
        "grid-four-cutoffs", "grid-count-four", "distributed-on-cantor",
        "lip-g-not-a-number", "lip-g-null", "g-base-not-a-number", "kappa-base-null",
        "coefficient-seed-set", "lip-g-missing", "lip-kappa-negative",
        "kappa-not-a-number", "g-matrix-true", "csv-not-a-path", "unknown-coefficient-kind",
        "coords-flat-list", "coords-empty", "coords-flat-nan", "coords-nan",
        "coords-flat-outside", "coords-outside", "coords-2d-one-coordinate", "coords-missing",
        "transverse-not-a-pair", "box-x1-missing", "interval-to-missing",
        "cantor-levels-missing", *(name for *_, name in BAD_NESTED),
        *(name for *_, name in STRAY)])
def test_config_errors_raise_before_the_eigensolve(tmp_path, monkeypatch, cfg, field):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve reached on an invalid config")
    monkeypatch.setattr(heatlab.spectrum, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", no_eigensolve)
    with pytest.raises(ConfigError) as err:
        run(dict(cfg), out_dir=tmp_path / "bad")
    assert err.value.field == field


def test_box_without_a_whole_cell_is_an_empty_set():
    # well ordered, so not a config fault: the support is too small for the grid
    box = {"kind": "box", "x0": 0.5, "x1": 0.55, "y0": 0.0, "y1": 1.0}
    with pytest.raises(EmptySetError):
        _setup(dict(SWEEP, domain=SQUARE, set=box))


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
    rho = write_cfg(tmp_path, dict(CONTROL, schedule={"T": 1.0, "rho": 1.5, "steps": 3}),
                    "rho.json")
    assert main(["run", str(rho), "--out", str(tmp_path / "o4")]) == 2
    with pytest.raises(SystemExit) as exit_:   # argparse on an unknown option
        main(["run", str(good), "--out", str(tmp_path / "o5"), "--threads", "1"])
    assert exit_.value.code == 2
    for i, cfg in enumerate(EMPTY_BANDS):
        empty = write_cfg(tmp_path, cfg, f"empty{i}.json")
        assert main(["run", str(empty), "--out", str(tmp_path / f"e{i}")]) == 2
    for i, coeffs in enumerate(BAD_COEFFICIENTS):
        bad = write_cfg(tmp_path, dict(SPECTRUM, coefficients=coeffs), f"coeffs{i}.json")
        assert main(["run", str(bad), "--out", str(tmp_path / f"c{i}")]) == 2
    # a transverse segment that is not a pair used to raise an uncaught IndexError
    set_, domain, _ = next(bad for bad in BAD_SETS if bad[2] == "set.transverse")
    transverse = write_cfg(tmp_path, dict(SWEEP, domain=domain, set=set_), "transverse.json")
    assert main(["run", str(transverse), "--out", str(tmp_path / "t")]) == 2


# Cutoffs below the first eigenfrequency (1 on the interval, sqrt(2) on the
# square): every one, on the band path (841 unknowns) and the dense path, and
# only the lowest one of a sweep.
EMPTY_BANDS = [
    dict(SPECTRUM, domain={"kind": "rectangle", "lx": math.pi, "ly": math.pi, "nx": 30,
                           "ny": 30, "bc": "dirichlet"}, lambda_max=0.5),
    dict(SPECTRUM, lambda_max=0.5),
    dict(SWEEP, lambda_grid=[0.2, 0.3, 0.4, 0.5, 0.6]),
    dict(SWEEP, lambda_grid=[0.5, 1.5, 2.5, 3.5, 4.5]),
]


@pytest.mark.parametrize("cfg, field", zip(EMPTY_BANDS, ["lambda_max", "lambda_max",
                                                         "lambda_grid", "lambda_grid"]),
                         ids=["spectrum-band", "spectrum-dense", "sweep-all", "sweep-lowest"])
def test_empty_band_is_a_config_error(tmp_path, cfg, field):
    with pytest.raises(ConfigError) as err:
        run(dict(cfg), out_dir=tmp_path / "empty")
    assert err.value.field == field


def test_config_doc_lists_the_cli_options(capsys):
    doc = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    table = doc.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(--[a-z-]+)`", table, flags=re.M))
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    printed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert documented == printed - {"--help"}


READERS = {"get", "section", "choice", "number", "integer", "items", "numbers"}


def reader_fields():
    """The string-literal first argument of every reader call in
    experiments.py, outside run(), whose `threads` is an argument of the
    call and not a config field."""
    tree = ast.parse(Path(heatlab.experiments.__file__).read_text())
    run_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
    skip = set(map(id, ast.walk(run_def)))
    return {node.args[0].value for node in ast.walk(tree)
            if id(node) not in skip and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr in READERS
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)}


def documented_fields():
    """Every part of every backticked name in the `field` column of each
    table of docs/config.md."""
    doc = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    names = set()
    for table in re.findall(r"(?:^\|.*\|\n)+", doc, flags=re.M):
        rows = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()]
        if "field" in rows[0]:
            col = rows[0].index("field")
            for row in rows[2:]:
                for name in re.findall(r"`([^`]+)`", row[col]):
                    names.update(name.split("."))
    return names


def test_config_doc_lists_the_reader_fields():
    # the field tables are the schema the reader enforces, no more and no less
    assert documented_fields() == reader_fields()


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(tmp_path, threads):
    with pytest.raises(ConfigError) as err:
        run(dict(SWEEP), out_dir=tmp_path / "t", threads=threads)
    assert err.value.field == "threads"


def test_v0_without_kind_is_the_zero_field(tmp_path):
    # no seed is needed: u0 is a mode and v0 defaults to zero, so nothing is drawn
    cfg = {k: v for k, v in CONTROL.items() if k != "seed"}
    cfg["u0"] = {"kind": "mode", "k": 2}
    runs = [run(dict(cfg, v0=v0), out_dir=tmp_path / name)
            for name, v0 in (("empty", {}), ("zero", {"kind": "zero"}))]
    assert all(all(checks.values()) for _, checks, _ in runs)
    for name in ("trajectory.csv", "ledger.csv", "schedule.json"):
        assert (runs[0][2] / name).read_bytes() == (runs[1][2] / name).read_bytes()


@pytest.mark.parametrize("where", ["config", "--out"])
def test_out_naming_a_file_exits_2_before_the_eigensolve(tmp_path, monkeypatch, capsys, where):
    # it used to end in mkdir's FileExistsError after the eigensolve: exit 1
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve reached with an unusable output directory")
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", no_eigensolve)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        if where == "config":
            argv = ["run", str(write_cfg(tmp_path, dict(SPECTRUM, out=str(out))))]
        else:
            argv = ["run", str(write_cfg(tmp_path, SPECTRUM)), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: out: ")
    assert taken.read_text() == ""


class EigensolveReached(Exception):
    pass


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_pass_setup(monkeypatch, path):
    def reached(*args, **kwargs):
        raise EigensolveReached
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", reached)
    with pytest.raises(EigensolveReached):
        _setup(json.loads(path.read_text()))


def load_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("heatlab_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sup-cloud", "grid2d", "mixed-1d"])
def test_benchmark_configs_pass_setup(monkeypatch, workload):
    # every config the benchmark runs for seeds 0-9, full and tiny, and its
    # warm-ups: a field the reader stops taking must not strand the benchmark
    def reached(*args, **kwargs):
        raise EigensolveReached
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", reached)
    workloads = load_workloads()
    configs = [workloads.warmup(workload, tiny) for tiny in (False, True)]
    configs += [cfg for seed in range(10) for tiny in (False, True)
                for cfg in workloads.batch(workload, seed, tiny)]
    for cfg in configs:
        with pytest.raises(EigensolveReached):
            _setup(cfg)


def config_keys(node, path=()):
    """(path, value) of every key at every depth of a config; the path of a
    list element ends in its index."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from config_keys(value, path + (key,))


DELETE = object()
MUTATIONS = {"delete": DELETE, "x": "x", "true": True, "null": None}


def mutated(cfg, path, new):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if new is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return cfg


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_config_mutation_names_its_field(monkeypatch, path):
    # Each key of a shipped config, at every depth, is deleted and set to "x",
    # true and null in turn. Each mutated config reaches the eigensolve or
    # raises ConfigError naming the key's dotted field; a list element is
    # named by its list's field. true never passes, nor does "x" in place of
    # anything but a string. No key is exempt. A stray key added to any
    # object, the whole config included, never passes either.
    def reached(*args, **kwargs):
        raise EigensolveReached
    monkeypatch.setattr(heatlab.experiments, "compute_spectrum", reached)
    cfg = json.loads(path.read_text())
    wrong = []
    for where, value in config_keys(cfg):
        field = ".".join(k for k in where if isinstance(k, str))
        for name, new in MUTATIONS.items():
            try:
                _setup(mutated(cfg, where, new))
            except EigensolveReached:
                outcome = None
            except ConfigError as exc:
                outcome = exc.field
            except Exception as exc:
                outcome = type(exc).__name__
            must_raise = new is True or new == "x" and not isinstance(value, str)
            if outcome != field and (outcome is not None or must_raise):
                wrong.append(f"{field} {name}: {outcome or 'accepted'}")
    for where in [(), *(w for w, v in config_keys(cfg) if isinstance(v, dict))]:
        field = ".".join((*where, "stray"))
        try:
            _setup(mutated(cfg, (*where, "stray"), 1.0))
        except EigensolveReached:
            outcome = "accepted"
        except ConfigError as exc:
            outcome = exc.field
        if outcome != field:
            wrong.append(f"{field} added: {outcome}")
    assert wrong == []


SQUARE_24 = {"kind": "rectangle", "lx": math.pi, "ly": math.pi, "nx": 24, "ny": 24,
             "bc": "dirichlet"}


@pytest.mark.parametrize("domain, measure, band", [
    (dict(INTERVAL, cells=200), 1.0, False),
    (SQUARE_24, 3.0, True),     # 529 unknowns: shift-invert band solve
], ids=["interval-dense", "square-band"])
def test_byte_identical_reruns(tmp_path, monkeypatch, domain, measure, band):
    if band:
        def no_complete(op):
            raise AssertionError("complete eigensolve on a band request")
        monkeypatch.setattr(heatlab.spectrum, "_complete_solve", no_complete)
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
    assert log1 == log2
    assert log1[0] == "experiment constant-sweep (seed 0)"
    counts = []
    for log in (log1, log2):
        (line,) = [ln for ln in log if "LPs solved" in ln]
        counts.append([int(w) for w in line.replace(",", "").split() if w.isdigit()])
    assert counts[0] == counts[1]
    solved, certified, pruned = counts[0]
    assert line == f"sup: {solved} LPs solved, {certified} certified, {pruned} pruned"
    assert solved + certified + pruned == 59 * 5
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_with_too_few_finite_constants_skips_its_fit(tmp_path):
    # 15 points on a 61-cell interval observe at most 11 modes, so the sup
    # constants of the 12- and 13-mode bands are inf and 3 of 5 are finite
    nodes = [52, 49, 54, 49, 50, 56, 15, 57, 45, 23, 55, 45, 38, 59, 33, 57, 40, 49, 19, 50]
    cfg = {"experiment": "constant-sweep", "domain": dict(INTERVAL, cells=61),
           "coefficients": CONST, "seed": 0,
           "set": {"kind": "points", "coords": [[(i + 1) * math.pi / 61] for i in nodes]},
           "lambda_grid": [9.5, 10.5, 11.3, 12.3, 13.2], "norms": ["sup"]}
    out = tmp_path / "s"
    assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fits"] == {}
    assert "have 3" in summary["fits_skipped"]["sup"]
    assert summary["checks"] == {"sup_finite": False}
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[2] for r in rows][3:] == ["inf", "inf"]


@pytest.mark.parametrize("set_, norms", [
    ({"kind": "interval", "from": 0.0, "to": 1.5}, ["l2", "l1"]),
    ({"kind": "cantor", "ratio": 0.3, "levels": 3}, ["sup"]),
], ids=["mask", "cloud"])
def test_sweep_solves_each_band_once(tmp_path, monkeypatch, set_, norms):
    # frequencies near 1, 2, 3, 4: the six cutoffs hold 1, 1, 2, 2, 3 and 3 modes
    cfg = {"experiment": "constant-sweep", "domain": dict(INTERVAL, cells=60),
           "coefficients": CONST, "seed": 0, "set": set_,
           "lambda_grid": [1.5, 1.8, 2.5, 2.7, 3.5, 3.9], "norms": norms}
    plan = _setup(dict(cfg))
    grid, spec = plan.params["lambda_grid"], plan.spectrum
    constants = {"l2": heatlab.experiments.constant_l2, "l1": heatlab.experiments.constant_l1,
                 "sup": heatlab.experiments.constant_sup}
    kwargs = {"l1": {"seed": plan.seed}}
    loop = [(nm, lam, constants[nm](spec, plan.obs, lam, **kwargs.get(nm, {})))
            for nm in norms for lam in grid]
    heatlab.experiments.write_csv(tmp_path / "loop.csv", ["norm", "lambda", "constant"],
                                  [(nm, lam, getattr(c, "value", c)) for nm, lam, c in loop])

    calls = []
    for nm, fn in constants.items():
        def counted(spec, obs, lam, *args, _fn=fn, _nm=nm, **kwargs):
            calls.append((_nm, spec.band(lam).size, threading.get_ident()))
            return _fn(spec, obs, lam, *args, **kwargs)
        monkeypatch.setattr(heatlab.experiments, f"constant_{nm}", counted)
    _, checks, out = run(dict(cfg), out_dir=tmp_path / "sweep", threads=2)
    assert all(checks.values())
    # in order, on the caller's thread: each norm's distinct bands by ascending size
    assert calls == [(nm, k, threading.get_ident()) for nm in norms for k in (1, 2, 3)]
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


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


def test_interp_check_on_a_cantor_cloud(tmp_path):
    # a point cloud takes the sup of the field over its points
    cfg = dict(INTERP, domain=dict(INTERVAL, cells=40),
               set={"kind": "cantor", "ratio": 0.3, "levels": 3})
    _, checks, _ = run(cfg, out_dir=tmp_path / "c")
    assert sorted(checks) == ["all_hold", "minimizer_identity", "split_nonnegative"]
    assert all(checks.values())


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
