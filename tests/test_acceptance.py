"""Acceptance suite: every top-level criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them inline)."""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    NEUMANN,
    assemble,
    build_interval,
    cantor_set,
    compute_spectrum,
    constant_coefficients,
    constant_l1,
    constant_l2,
    constant_sup,
    cost_report,
    double_domain,
    extend_eigenfunction,
    fit_growth,
    full_domain_set,
    interpolation_check,
    interval_mask,
    lr_schedule,
    phung_wang_times,
    point_cloud,
    random_lipschitz_coefficients,
    set_from_mask,
    synthesize,
    telescope_check,
)
from heatlab.doubling import boundary_normal, build_chart, kernel_mass, pseudo_geodesic_diag
from heatlab.errors import SynthesisFailureError
from heatlab.experiments import run


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {desc}")
        raise
    print(f"[PASS] criterion {num:02d}: {desc}")


@pytest.fixture(scope="module")
def workhorse():
    dom = build_interval(np.pi, 400, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op)
    return dom, op, spec


def test_criterion_01_spectrum_exactness():
    with criterion(1, "discrete spectrum exactness on 400 cells"):
        t0 = time.perf_counter()
        dom = build_interval(np.pi, 400, DIRICHLET)
        op = assemble(dom, constant_coefficients(dom))
        spec = compute_spectrum(op)
        h = dom.h[0]
        k = np.arange(1, 51)
        exact = (2 - 2 * np.cos(k * h)) / h**2
        rel = np.abs(spec.eigenvalues[:50] - exact) / exact
        assert rel.max() <= 1e-10
        assert time.perf_counter() - t0 < 5.0
        # continuum agreement at the scheme's own dispersion bound: the
        # identity above gives omega_k = (2/h) sin(kh/2), so with x = kh/2 the
        # relative error is 1 - sin(x)/x <= x^2/6 = (kh)^2/24, mode by mode;
        # the 1e-10 is the eigensolver slack the first clause already allows
        # (at k = 1 roundoff lands ~1e-12 above the bare bound)
        k20 = np.arange(1, 21)
        cont = np.abs(spec.frequencies[:20] - k20) / k20
        assert np.all(cont <= (k20 * h) ** 2 / 24 + 1e-10)


def test_criterion_02_growth_law(workhorse):
    with criterion(2, "exponential growth of the restricted-Gram constant"):
        t0 = time.perf_counter()
        dom, op, spec = workhorse
        kappa = op.coefficients.kappa
        obs = set_from_mask(dom, interval_mask(dom, 0.0, 0.5), kappa)
        grid = np.linspace(1.2, 4.8, 10)
        hmax = max(dom.h)
        assert grid[-1] * hmax <= 1.0   # inside the resolved band
        consts = np.array([constant_l2(spec, obs, lam) for lam in grid])
        fit = fit_growth(grid, consts)
        assert fit.r_squared >= 0.9
        assert fit.rate > 0
        full = full_domain_set(dom, kappa)
        cfull = np.array([constant_l2(spec, full, lam) for lam in grid])
        assert np.abs(cfull - 1).max() <= 1e-9
        ffit = fit_growth(grid, cfull)
        assert ffit.degenerate and ffit.rate == 0.0
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_sup_constants_on_cantor_cloud(workhorse):
    with criterion(3, "sup-norm constants on a Cantor cloud stay finite and fit"):
        dom, op, spec = workhorse
        cloud = cantor_set(dom, 1 / 3, 6)
        grid = np.linspace(1.5, 12.5, 10)
        consts = np.array([constant_sup(spec, cloud, lam).value for lam in grid])
        assert np.all(np.isfinite(consts))
        fit = fit_growth(grid, consts)
        assert fit.r_squared >= 0.85
        # brute-force agreement where three modes are active
        lam3 = spec.frequencies[2] + 0.1
        c3 = constant_sup(spec, cloud, lam3).value
        V = spec.vectors[:, :3]
        P = V[dom.node_to_unknown[cloud.points], :]
        th = np.linspace(0, np.pi, 200)
        ph = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        T, Ph = np.meshgrid(th, ph, indexing="ij")
        G = np.stack([np.sin(T) * np.cos(Ph), np.sin(T) * np.sin(Ph),
                      np.cos(T)], axis=-1).reshape(-1, 3)
        vals = np.abs(G @ V.T).max(axis=1) / np.abs(G @ P.T).max(axis=1)
        assert abs(c3 - vals.max()) / c3 <= 0.02


def test_criterion_04_oracle_equivalence(workhorse):
    with criterion(4, "restricted-norm constants match brute-force oracles"):
        dom, op, spec = workhorse
        kappa = op.coefficients.kappa
        # L2 vs 20000-direction sphere sampling, 3 modes
        obs = set_from_mask(dom, interval_mask(dom, 0.0, 2.4), kappa)
        lam3 = spec.frequencies[2] + 0.1
        c = constant_l2(spec, obs, lam3)
        rng = np.random.default_rng(123)
        U = rng.standard_normal((20000, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        phis = U @ spec.vectors[:, :3].T
        ratios = 1.0 / np.sqrt(np.sum(obs.node_weights * phis**2, axis=1))
        assert abs(c - ratios.max()) / c <= 0.01
        # L1 vs a 10^4-point great circle, 2 modes on 3 cells
        mask = np.zeros(dom.n_cells_total, dtype=bool)
        mask[[30, 31, 32]] = True
        obs3 = set_from_mask(dom, mask, kappa)
        res = constant_l1(spec, obs3, spec.frequencies[1] + 0.1, seed=5)
        thetas = np.linspace(0, np.pi, 10**4, endpoint=False)
        U2 = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        vals = np.sum(obs3.node_weights * np.abs(U2 @ spec.vectors[:, :2].T), axis=1)
        brute = 1.0 / vals.min()
        assert abs(res.value - brute) / brute <= 0.02
        # sup LP vs a fine sphere grid, 3 modes on 5 points
        cloud = point_cloud(dom, [[0.4], [1.1], [1.7], [2.3], [2.9]])
        c_lp = constant_sup(spec, cloud, lam3).value
        P = spec.vectors[dom.node_to_unknown[cloud.points], :3]
        th = np.linspace(0, np.pi, 200)
        ph = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        T, Ph = np.meshgrid(th, ph, indexing="ij")
        G = np.stack([np.sin(T) * np.cos(Ph), np.sin(T) * np.sin(Ph),
                      np.cos(T)], axis=-1).reshape(-1, 3)
        gvals = np.abs(G @ spec.vectors[:, :3].T).max(axis=1) / np.abs(G @ P.T).max(axis=1)
        assert abs(c_lp - gvals.max()) / c_lp <= 0.02


def test_criterion_05_interpolation_batch(workhorse):
    with criterion(5, "two-time interpolation holds with one N over 50 draws"):
        dom, op, spec = workhorse
        kappa = op.coefficients.kappa
        obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa)
        rng = np.random.default_rng(2024)
        n_values, devs = [], []
        for _ in range(50):
            f = spec.synthesize_values(rng.standard_normal(spec.n_modes))
            rep = interpolation_check(spec, obs, f, 0.0, 0.5, 0.5)
            assert rep.holds
            n_values.append(rep.n_required)
            devs.append(rep.minimizer_identity_dev)
        n_single = max(n_values)
        assert math.isfinite(n_single)
        # the single N validates every instance by monotonicity of N e^{N/tau}
        assert max(devs) <= 0.01


def test_criterion_06_telescoping(workhorse):
    with criterion(6, "telescoped observability with one batch constant"):
        dom, op, spec = workhorse
        kappa = op.coefficients.kappa
        obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa)
        seq = lr_schedule(1.0, 0.5, 20)
        rng = np.random.default_rng(99)
        cs = []
        for _ in range(50):
            f = spec.synthesize_values(rng.standard_normal(spec.n_modes))
            rep = telescope_check(spec, obs, seq, f, D=1.0)
            assert np.all(rep.step_residuals <= 1e-12)
            cs.append(rep.c_instance)
        c_batch = max(cs)
        assert math.isfinite(c_batch) and c_batch > 0
        # one constant validates the whole batch by construction of the max
        assert all(c <= c_batch for c in cs)


def test_criterion_07_null_control_half_interval():
    with criterion(7, "impulsive null control to 1e-6 with convergent ledger"):
        t0 = time.perf_counter()
        dom = build_interval(np.pi, 400, DIRICHLET)
        op = assemble(dom, constant_coefficients(dom))
        spec = compute_spectrum(op, count=40)
        kappa = op.coefficients.kappa
        obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa)
        seq = lr_schedule(1.0, 0.5, 12)
        rng = np.random.default_rng(7)
        u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
        sched = synthesize(spec, obs, seq, u0)
        assert sched.terminal_relative <= 1e-6
        led = cost_report(sched, D=5e-4)
        assert led.converged
        assert led.last_increment_ratio < 1e-8
        certified = led.decay_constant * np.exp(5e-4 / (1.0 - led.times))
        assert np.all(led.variations <= certified * (1 + 1e-9))
        assert time.perf_counter() - t0 < 60.0


def test_criterion_08_control_on_cantor_cloud():
    with criterion(8, "impulsive control from a zero-measure Cantor cloud"):
        dom = build_interval(np.pi, 400, DIRICHLET)
        op = assemble(dom, constant_coefficients(dom))
        spec = compute_spectrum(op, count=20)
        cloud = cantor_set(dom, 1 / 3, 6, placement=(0.0, np.pi))
        assert cloud.points.size >= 60
        seq = lr_schedule(1.0, 0.5, 10)
        rng = np.random.default_rng(8)
        u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
        sched = synthesize(spec, cloud, seq, u0)
        assert sched.terminal_relative <= 1e-4
        led = cost_report(sched, D=5e-4)
        assert led.converged
        # nodal cloud: points where sin(2x) = 0 leave mode 2 unreachable
        nodal = point_cloud(dom, [[np.pi / 2]])
        with pytest.raises(SynthesisFailureError) as err:
            synthesize(spec, nodal, seq, u0)
        assert err.value.mode_index is not None


def test_criterion_09_doubling_orders():
    with criterion(9, "parity extensions at second order, spectra included"):
        for bc, mode_fn in ((DIRICHLET, np.sin), (NEUMANN, np.cos)):
            res, hs = [], []
            for n in (50, 100, 200):
                dom = build_interval(np.pi, n, bc)
                db = double_domain(dom, constant_coefficients(dom))
                x = dom.unknown_coords()[:, 0]
                e = mode_fn(2 * x)
                _, r = extend_eigenfunction(db, e, 4.0)
                res.append(r)
                hs.append(dom.h[0])
            order = np.polyfit(np.log(hs), np.log(res), 1)[0]
            assert order >= 1.8
        dom = build_interval(np.pi, 100, DIRICHLET)
        cf = random_lipschitz_coefficients(dom, 0.5, 0.5, seed=14)
        spec = compute_spectrum(assemble(dom, cf), count=10)
        db = double_domain(dom, cf)
        spec2 = compute_spectrum(db.operator)
        h2 = max(dom.h) ** 2
        for lam2 in spec.eigenvalues:
            assert np.abs(spec2.eigenvalues - lam2).min() <= h2 * max(lam2, 1.0)


def test_criterion_10_chart_diagnostics():
    with criterion(10, "anisotropic boundary chart: normal, pullback, kernel"):
        n, lam = boundary_normal(np.diag([4.0, 1.0]))
        assert abs(lam - 0.25) <= 1e-12
        assert np.abs(n - np.array([0.5, 0.0])).max() <= 1e-12
        a_fn = lambda y, z: np.broadcast_to(np.diag([4.0, 1.0]),
                                            np.shape(y) + (2, 2)).copy()
        worst = []
        for (ns, nz) in ((5, 801), (10, 1601), (20, 3201)):
            chart = build_chart(a_fn, s_max=0.04, n_s=ns, z_extent=1.0, n_z=nz)
            diag = pseudo_geodesic_diag(chart)
            h = max(chart.s_grid[1] - chart.s_grid[0],
                    chart.z_grid[1] - chart.z_grid[0])
            assert diag.b_fd_offdiag_max <= 10 * h
            assert diag.b0_offdiag_max <= 1e-12
            assert diag.b0_normal_dev <= 1e-10
            assert diag.b_tangent_min > 0
            assert abs(diag.kernel_mass_range[0] - 1) <= 1e-3
            assert abs(diag.kernel_mass_range[1] - 1) <= 1e-3
            worst.append(max(diag.d2_phi_max.values()))
        assert worst[2] <= 1.1 * max(worst[0], 1e-9) + 1e-9


def test_criterion_11_phung_wang_fat_cantor():
    with criterion(11, "density-point time sequence on a fat Cantor set"):
        c = 0.5 / (0.5 * (1 - 2.0 ** -8))
        intervals = [(0.0, 1.0)]
        for k in range(1, 9):
            ln = c * 4.0 ** -k
            nxt = []
            for a, b in intervals:
                mid = 0.5 * (a + b)
                nxt.append((a, mid - ln / 2))
                nxt.append((mid + ln / 2, b))
            intervals = nxt
        measure = sum(b - a for a, b in intervals)
        assert abs(measure - 0.5) <= 1e-9
        seq = phung_wang_times(intervals, z=2.0, anchor=0.0, depth=8)
        assert seq.measured_ratios.size >= 8
        assert np.all(seq.measured_ratios >= 1.0 / 3.0)


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "byte-identical CSV for identical config and seed"):
        cfg = {"experiment": "constant-sweep",
               "domain": {"kind": "interval", "length": math.pi, "cells": 200,
                          "bc": "dirichlet"},
               "coefficients": {"kind": "piecewise_linear", "lip_g": 1.0,
                                "lip_kappa": 1.0},
               "seed": 13,
               "set": {"kind": "random", "measure": 1.2},
               "lambda_grid": {"min": 1.5, "max": 6.0, "count": 7},
               "norms": ["l2", "l1"]}
        _, _, out1 = run(dict(cfg), out_dir=tmp_path / "r1", threads=2)
        _, _, out2 = run(dict(cfg), out_dir=tmp_path / "r2", threads=5)
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
