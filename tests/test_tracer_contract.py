"""The contract between heatlab and the benchmark's span tracer
(perfbench/tracer.py): the tracer finds every runner and every function it
attributes time to, and puts every object it replaced back."""

import importlib
import importlib.util
import math
from pathlib import Path

import heatlab
from heatlab import experiments

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

INTERVAL = {"kind": "interval", "length": math.pi, "cells": 40, "bc": "dirichlet"}
CONST = {"kind": "constant", "g": 1.0, "kappa": 1.0}
LIPSCHITZ = {"kind": "piecewise_linear", "lip_g": 0.5, "lip_kappa": 0.5}
MASK = {"kind": "interval", "from": 0.0, "to": 1.5}
CONTROL = {"experiment": "control", "domain": INTERVAL, "coefficients": LIPSCHITZ,
           "seed": 2, "modes": 10, "set": MASK,
           "schedule": {"T": 1.0, "rho": 0.5, "steps": 6},
           "u0": {"kind": "random"}, "v0": {"kind": "zero"}}

# One tiny run per family; the sweep and the control family run in both of
# their flavours, so that every function the tracer times is reached.
CONFIGS = [
    {"experiment": "spectrum", "domain": INTERVAL, "coefficients": CONST, "seed": 0},
    {"experiment": "constant-sweep", "domain": INTERVAL, "coefficients": LIPSCHITZ,
     "seed": 1, "set": MASK, "lambda_grid": {"min": 2.0, "max": 4.5, "count": 5},
     "norms": ["l2", "l1"]},
    {"experiment": "constant-sweep", "domain": dict(INTERVAL, cells=24),
     "coefficients": CONST, "seed": 0, "set": {"kind": "cantor", "ratio": 0.3, "levels": 3},
     "lambda_grid": {"min": 1.5, "max": 4.0, "count": 5}, "norms": ["sup"]},
    {"experiment": "interp-check", "domain": INTERVAL, "coefficients": LIPSCHITZ,
     "seed": 3, "set": MASK, "s": 0.0, "t": 0.5, "epsilon": 0.5, "batch": 4},
    CONTROL,
    dict(CONTROL, mode="distributed", time_slabs=8),
    {"experiment": "double-check", "domain": dict(INTERVAL, cells=20),
     "coefficients": LIPSCHITZ, "seed": 4, "modes": 4,
     "chart": {"a_diag": [4.0, 1.0], "s_max": 0.04, "n_s": 4, "z_extent": 1.0,
               "n_z": 401}},
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("heatlab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_runner_and_owner_and_restores(tmp_path):
    tracer_mod = load_tracer()
    modules = [heatlab] + [importlib.import_module(f"heatlab.{layer}")
                           for layer in tracer_mod.LAYERS]
    before = {mod.__name__: dict(vars(mod)) for mod in modules}
    runners = dict(experiments.RUNNERS)
    spectrum_cls = heatlab.spectrum.Spectrum
    validate = vars(spectrum_cls)["validate"]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert experiments.RUNNERS["spectrum"] is not runners["spectrum"]
        for i, cfg in enumerate(CONFIGS):
            tracer.run_id = i
            _, checks, _ = experiments.run(dict(cfg), out_dir=tmp_path / str(i), threads=2)
            assert all(checks.values()), (cfg["experiment"], checks)
    finally:
        tracer.uninstall()

    names = {span.name for span in tracer.spans}
    for fn in runners.values():
        assert f"experiments.{fn.__name__}" in names
    assert set(tracer_mod.OWNER) <= names, sorted(set(tracer_mod.OWNER) - names)
    # inequality.lp_calls counts the LPs that constant_sup reports as solved,
    # which pruning and basis certificates keep below one per node and band
    (sup_run,) = [i for i, cfg in enumerate(CONFIGS) if cfg.get("norms") == ["sup"]]
    (line,) = [ln for ln in (tmp_path / str(sup_run) / "run.log").read_text().splitlines()
               if "LPs solved" in ln]
    solved, _, _ = (int(w) for w in line.replace(",", "").split() if w.isdigit())
    assert tracer.counts.get((sup_run, "inequality.lp_calls"), 0) == solved
    nodes = CONFIGS[sup_run]["domain"]["cells"] - 1
    assert 0 < solved < nodes * CONFIGS[sup_run]["lambda_grid"]["count"]

    assert experiments.RUNNERS == runners
    assert all(experiments.RUNNERS[k] is fn for k, fn in runners.items())
    assert vars(spectrum_cls)["validate"] is validate
    for mod in modules:
        now = vars(mod)
        changed = [attr for attr, val in before[mod.__name__].items() if now.get(attr) is not val]
        assert not changed, (mod.__name__, changed)



def test_k_bytes_counts_the_csr_storage():
    dom = heatlab.build_rectangle(1.0, 1.0, 30, 30, "dirichlet")
    cf = heatlab.random_lipschitz_coefficients(dom, 0.5, 0.5, seed=1)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        op = heatlab.operators.assemble(dom, cf)
    finally:
        tracer.uninstall()
    counted = [n for (_, name), n in tracer.counts.items() if name == "operators.k_bytes"]
    K = op.K
    assert counted == [K.data.nbytes + K.indices.nbytes + K.indptr.nbytes]
