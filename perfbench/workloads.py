"""Seeded workload generators.

A workload is a batch of experiment configs for `heatlab.experiments.run()`.
The batch is a pure function of (workload, seed, tiny): the same arguments
give the same configs, and the program sees nothing but those configs.

Each batch keeps a fixed shape (families and problem sizes) and lets the
seed move everything that does not set the cost class: coefficients,
observation sets, Cantor ratios, frequency grids and grid aspect ratios.
That keeps the medians of different seeds comparable while every seed still
feeds the program new inputs. Each batch ends with tiny coverage runs of the
families it does not otherwise exercise, so every per-layer metric is
measured on every workload.
"""

from __future__ import annotations

import math
import random

WORKLOADS = {
    "sup-cloud": "LP-bound sup-constant sweeps on 1-D Cantor clouds; isolates "
                 "constant_sup and the sweep thread pool, bypasses large eigensolves",
    "grid2d": "2-D 40x40..50x50 grids with Lipschitz coefficients; dense N^2 operator "
              "and full eigh dominate time and memory",
    "mixed-1d": "many short 1-D runs of all five families; small eigensolves, per-run "
                "overhead, doubling chart and control",
}

# The seed whose batches are stored in reference.json; its first config is
# also every workload's warm-up run.
COMMITTED_SEED = 0

PI = math.pi
CONSTANT = {"kind": "constant", "g": 1.0, "kappa": 1.0}


def _interval(cells):
    return {"kind": "interval", "length": PI, "cells": cells, "bc": "dirichlet"}


def _rectangle(nx, ny):
    return {"kind": "rectangle", "lx": PI, "ly": PI, "nx": nx, "ny": ny,
            "bc": "dirichlet"}


def _lipschitz(rng):
    return {"kind": "piecewise_linear", "lip_g": round(rng.uniform(0.2, 0.8), 3),
            "lip_kappa": round(rng.uniform(0.2, 0.8), 3)}


def _grid(rng, lo, hi, count):
    # Lipschitz coefficients stay within [0.6, 1.4] of their base, which keeps
    # the first frequency below 2 in 1-D and below 3 in 2-D: a grid starting
    # above that always has modes below its first cutoff.
    return {"min": round(rng.uniform(*lo), 3), "max": round(rng.uniform(*hi), 3),
            "count": count}


def _seed(rng):
    return rng.randrange(1 << 16)


def _aspect(rng, cells, lo, hi):
    """(nx, ny) in [lo, hi]^2 with nx * ny close to `cells` squared."""
    nx = rng.randint(lo, hi)
    ny = min(hi, max(lo, round(cells * cells / nx)))
    return nx, ny


def sup_cloud(rng, tiny):
    """Sweeps around configs/cantor_sup_sweep.json, scaled to about 1 s (500
    LPs) each: an eight-run cycle fits a worker's share of the run, and a
    hundredfold cut in LPs still leaves runs that count."""
    cells = (24, 32) if tiny else (84, 92)
    batch = []
    for _ in range(2 if tiny else 8):
        batch.append({
            "experiment": "constant-sweep",
            "domain": _interval(rng.randint(*cells)),
            "coefficients": CONSTANT,
            "seed": _seed(rng),
            "set": {"kind": "cantor", "ratio": round(rng.uniform(0.28, 0.38), 4),
                    "levels": 5},
            "lambda_grid": _grid(rng, (1.2, 2.0), (6.0, 8.0) if tiny else (9.0, 11.0), 5),
            "norms": ["sup"],
        })
    return batch


def grid2d(rng, tiny):
    """Every run pays a dense N x N operator and a full eigh for a low band.
    The largest grid is always 50 x 50, so peak memory compares across seeds."""
    big, mid, small = (12, 10, 8) if tiny else (50, 45, 40)

    def dom(cells):
        return _rectangle(*_aspect(rng, cells, small, big))

    def box():
        x0 = round(rng.uniform(0.0, 0.3) * PI, 4)
        y0 = round(rng.uniform(0.0, 0.3) * PI, 4)
        return {"kind": "box", "x0": x0, "x1": round(x0 + 0.6 * PI, 4),
                "y0": y0, "y1": round(y0 + 0.6 * PI, 4)}

    return [
        {"experiment": "spectrum", "domain": _rectangle(small, small),
         "coefficients": _lipschitz(rng), "seed": _seed(rng),
         "lambda_max": round(rng.uniform(8.0, 10.0), 3)},
        {"experiment": "constant-sweep", "domain": dom(mid),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "set": box(),
         "lambda_grid": _grid(rng, (3.0, 3.3), (4.0, 4.5) if tiny else (5.5, 6.0), 6),
         "norms": ["l2"]},
        {"experiment": "control", "domain": dom(mid),
         "coefficients": _lipschitz(rng), "seed": _seed(rng),
         "modes": rng.randint(28, 32), "set": box(),
         "schedule": {"T": 1.0, "rho": 0.5, "steps": 10},
         "u0": {"kind": "random"}, "v0": {"kind": "zero"}, "cost_rate": 0.0005},
        {"experiment": "constant-sweep", "domain": dom(mid),
         "coefficients": _lipschitz(rng), "seed": _seed(rng),
         "set": {"kind": "random", "measure": round(rng.uniform(0.3, 0.4) * PI * PI, 4)},
         "lambda_grid": _grid(rng, (3.0, 3.3), (4.5, 5.0), 5), "norms": ["l2", "l1"]},
        {"experiment": "spectrum", "domain": _rectangle(big, big),
         "coefficients": _lipschitz(rng), "seed": _seed(rng),
         "lambda_max": round(rng.uniform(8.0, 10.0), 3)},
    ]


def mixed_1d(rng, tiny):
    """Many short runs of all five families. Six runs are light and three are
    heavy (spectrum, L1 sweep, the double-check chart, heaviest), so the
    median falls inside the light runs rather than in the gap between the
    groups, and the tail is the double-check."""
    n = 60 if tiny else 400

    def mask(lo, hi):
        return {"kind": "interval", "from": 0.0, "to": round(rng.uniform(lo, hi) * PI, 4)}

    cantor = {"kind": "cantor", "ratio": round(rng.uniform(0.3, 0.36), 4), "levels": 6}
    return [
        {"experiment": "spectrum", "domain": _interval(120 if tiny else 700),
         "coefficients": _lipschitz(rng), "seed": _seed(rng)},
        # The L1 estimate reweights 16 restarts to convergence, and its cost
        # swings fivefold between 1-D inputs of one size; a seeded L1 sweep
        # here would let the draw set this workload's medians. So this one
        # run is the same for every seed; grid2d's L1 sweep stays seeded.
        {"experiment": "constant-sweep", "domain": _interval(n // 2),
         "coefficients": CONSTANT, "seed": 11,
         "set": {"kind": "interval", "from": 0.0, "to": 0.5},
         "lambda_grid": {"min": 1.2, "max": 4.8, "count": 5}, "norms": ["l2", "l1"]},
        {"experiment": "interp-check", "domain": _interval(n),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "set": mask(0.4, 0.6),
         "s": 0.0, "t": round(rng.uniform(0.4, 0.6), 3), "epsilon": 0.5,
         "batch": 10 if tiny else 50},
        {"experiment": "control", "domain": _interval(n),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 40,
         "set": mask(0.4, 0.6), "schedule": {"T": 1.0, "rho": 0.5, "steps": 12},
         "u0": {"kind": "random"}, "v0": {"kind": "zero"}, "cost_rate": 0.0005},
        {"experiment": "control", "domain": _interval(3 * n // 4),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 30,
         "set": mask(0.3, 0.5), "schedule": {"T": 1.0, "rho": 0.5, "steps": 8},
         "u0": {"kind": "random"}, "v0": {"kind": "zero"}, "cost_rate": 0.0005},
        {"experiment": "control", "domain": _interval(n),
         "coefficients": CONSTANT, "seed": _seed(rng), "modes": 8 if tiny else 20,
         "set": cantor,
         "schedule": {"T": 1.0, "rho": 0.5, "steps": 10},
         "u0": {"kind": "random"}, "v0": {"kind": "zero"}, "cost_rate": 0.0005},
        {"experiment": "control", "domain": _interval(n),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 40,
         "set": mask(0.4, 0.6), "schedule": {"T": 1.0, "rho": 0.5, "steps": 10},
         "mode": "distributed", "time_slabs": 32,
         "u0": {"kind": "random"}, "v0": {"kind": "zero"}},
        {"experiment": "double-check", "domain": _interval(40 if tiny else 100),
         "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 10,
         "chart": {"a_diag": [round(rng.uniform(3.0, 5.0), 3), 1.0], "s_max": 0.04,
                   "n_s": 4 if tiny else 10, "z_extent": 1.0,
                   "n_z": 401 if tiny else 1601}},
    ]


def coverage(rng, families):
    """One tiny 1-D run per family a workload does not otherwise exercise, so
    that every per-layer metric is measured on every workload."""
    def mask():
        return {"kind": "interval", "from": 0.0, "to": round(rng.uniform(0.4, 0.6) * PI, 4)}

    tiny = {
        "sup": {"experiment": "constant-sweep", "domain": _interval(11),
                "coefficients": CONSTANT, "seed": _seed(rng),
                "set": {"kind": "cantor", "ratio": round(rng.uniform(0.3, 0.36), 4),
                        "levels": 3},
                "lambda_grid": _grid(rng, (1.5, 2.0), (4.0, 4.5), 5), "norms": ["sup"]},
        "l2-l1": {"experiment": "constant-sweep", "domain": _interval(40),
                  "coefficients": _lipschitz(rng), "seed": _seed(rng), "set": mask(),
                  "lambda_grid": _grid(rng, (2.0, 2.4), (4.5, 5.0), 5),
                  "norms": ["l2", "l1"]},
        "interp": {"experiment": "interp-check", "domain": _interval(40),
                   "coefficients": _lipschitz(rng), "seed": _seed(rng), "set": mask(),
                   "s": 0.0, "t": 0.5, "epsilon": 0.5, "batch": 4},
        "impulsive": {"experiment": "control", "domain": _interval(40),
                      "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 10,
                      "set": mask(), "schedule": {"T": 1.0, "rho": 0.5, "steps": 6},
                      "u0": {"kind": "random"}, "v0": {"kind": "zero"},
                      "cost_rate": 0.0005},
        "distributed": {"experiment": "control", "domain": _interval(40),
                        "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 10,
                        "set": mask(), "schedule": {"T": 1.0, "rho": 0.5, "steps": 6},
                        "mode": "distributed", "time_slabs": 8,
                        "u0": {"kind": "random"}, "v0": {"kind": "zero"}},
        "double": {"experiment": "double-check", "domain": _interval(20),
                   "coefficients": _lipschitz(rng), "seed": _seed(rng), "modes": 4,
                   "chart": {"a_diag": [round(rng.uniform(3.0, 5.0), 3), 1.0],
                             "s_max": 0.04, "n_s": 4, "z_extent": 1.0, "n_z": 401}},
    }
    return [tiny[f] for f in families]


GENERATORS = {"sup-cloud": sup_cloud, "grid2d": grid2d, "mixed-1d": mixed_1d}
COVERAGE = {
    "sup-cloud": ("l2-l1", "interp", "impulsive", "distributed", "double"),
    "grid2d": ("sup", "interp", "distributed", "double"),
    "mixed-1d": ("sup",),
}


def batch(workload: str, seed: int, tiny: bool = False) -> list:
    """The configs one cycle of `workload` runs, in order."""
    rng = random.Random(f"{workload}:{seed}:{'tiny' if tiny else 'full'}")
    return GENERATORS[workload](rng, tiny) + coverage(rng, COVERAGE[workload])


def warmup(workload: str, tiny: bool = False) -> dict:
    """The warm-up run: the first config of the committed seed's batch."""
    return batch(workload, COMMITTED_SEED, tiny)[0]
