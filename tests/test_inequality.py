import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatlab import (
    DIRICHLET,
    NEUMANN,
    assemble,
    build_interval,
    build_rectangle,
    cantor_set,
    compute_spectrum,
    constant_coefficients,
    constant_l1,
    constant_l2,
    constant_sup,
    fit_growth,
    full_domain_set,
    interpolation_check,
    interval_mask,
    observable_cutoff,
    phung_wang_times,
    point_cloud,
    set_from_mask,
    telescope_check,
)
from heatlab.control import lr_schedule
from heatlab.errors import InsufficientDataError, SearchFailureError
from heatlab.inequality import LP_FEASIBILITY_TOL, TimeSequence, observed_band_svd
from heatlab.spectrum import Spectrum


@pytest.fixture(scope="module")
def setup():
    dom = build_interval(np.pi, 400, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op)
    return dom, op, spec


def kappa_of(spec):
    return spec.operator.coefficients.kappa


def test_constant_l2_full_domain_is_one(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    assert constant_l2(spec, obs, 10.5) == pytest.approx(1.0, rel=1e-9)


def test_constant_l2_single_mode_direct_formula(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, 1.0), kappa_of(spec))
    lam1 = spec.frequencies[0]
    c = constant_l2(spec, obs, lam1 + 0.5 * (spec.frequencies[1] - lam1))
    e1 = spec.vectors[:, 0]
    direct = np.sqrt(np.sum(spec.weights * e1**2) / np.sum(obs.node_weights * e1**2))
    assert c == pytest.approx(direct, rel=1e-10)


def test_constant_l2_sphere_oracle(setup):
    # oracle: max of ||phi|| / ||phi 1_E||_2 over 20000 random unit directions
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, 2.4), kappa_of(spec))
    lam = spec.frequencies[2] + 0.1
    c = constant_l2(spec, obs, lam)
    rng = np.random.default_rng(123)
    V = spec.vectors[:, :3]
    U = rng.standard_normal((20000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    phis = U @ V.T
    ratios = 1.0 / np.sqrt(np.sum(obs.node_weights * phis**2, axis=1))
    assert ratios.max() <= c * (1 + 1e-12)
    assert abs(c - ratios.max()) / c <= 0.01


def test_constant_l2_singular_gram_reports_inf(setup):
    # tiny set, wide band: the restricted Gram underflows and the constant is
    # reported as inf instead of raising
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, 0.5), kappa_of(spec))
    assert constant_l2(spec, obs, 8.5) == np.inf


def test_constant_l2_monotone_in_set_and_band(setup):
    dom, op, spec = setup
    small = set_from_mask(dom, interval_mask(dom, 0.0, 1.0), kappa_of(spec))
    big = set_from_mask(dom, interval_mask(dom, 0.0, 2.0), kappa_of(spec))
    assert constant_l2(spec, small, 4.5) >= constant_l2(spec, big, 4.5)
    assert constant_l2(spec, big, 2.5) <= constant_l2(spec, big, 4.5) * (1 + 1e-12)


def test_constant_l1_single_mode_exact(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.5, 1.5), kappa_of(spec))
    lam1 = spec.frequencies[0]
    res = constant_l1(spec, obs, lam1 + 0.1)
    e1 = spec.vectors[:, 0]
    exact = np.sqrt(np.sum(spec.weights * e1**2)) / np.sum(obs.node_weights * np.abs(e1))
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.converged


def test_constant_l1_great_circle_oracle(setup):
    # oracle: exhaustive minimization of the restricted L1 norm on a 10^4 circle
    dom, op, spec = setup
    mask = np.zeros(dom.n_cells_total, dtype=bool)
    mask[[30, 31, 32]] = True
    obs = set_from_mask(dom, mask, kappa_of(spec))
    lam = spec.frequencies[1] + 0.1
    res = constant_l1(spec, obs, lam, seed=5)
    V = spec.vectors[:, :2]
    thetas = np.linspace(0, np.pi, 10**4, endpoint=False)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals = np.sum(obs.node_weights * np.abs(U @ V.T), axis=1)
    brute = 1.0 / vals.min()
    assert abs(res.value - brute) / brute <= 0.02
    assert res.value >= res.floor - 1e-12


def test_constant_l1_full_domain_constant_mode():
    dom = build_interval(1.0, 200, NEUMANN)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op)
    obs = full_domain_set(dom, kappa_of(spec))
    res = constant_l1(spec, obs, spec.frequencies[0] + 0.5 * spec.frequencies[1])
    # constant mode: ||e0||_2 / ||e0||_1 = 1 / sqrt(volume)
    assert res.value == pytest.approx(1.0 / np.sqrt(dom.volume), rel=1e-9)


def test_constant_l1_certificate_equality(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, 1.2), kappa_of(spec))
    res = constant_l1(spec, obs, 4.5, seed=3)
    lhs = np.sqrt(np.sum(spec.weights * res.certificate**2))
    rhs = res.value * np.sum(obs.node_weights * np.abs(res.certificate))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_constant_sup_single_point_scaling(setup):
    dom, op, spec = setup
    x0 = dom.unknown_coords()[150, 0]
    obs = point_cloud(dom, [[x0]])
    lam1 = spec.frequencies[0]
    c = constant_sup(spec, obs, lam1 + 0.1).value
    e1 = spec.vectors[:, 0]
    i0 = np.where(np.isclose(dom.unknown_coords()[:, 0], x0))[0][0]
    assert c == pytest.approx(np.abs(e1).max() / abs(e1[i0]), rel=1e-6)


def test_constant_sup_null_observation_flagged(setup):
    dom, op, spec = setup
    # e_2 = sin(2x) vanishes at pi/2, which is a grid node for 400 cells
    obs = point_cloud(dom, [[np.pi / 2]])
    lam = spec.frequencies[1] + 0.05
    assert constant_sup(spec, obs, lam).value == np.inf


def test_constant_sup_oracles(setup):
    # oracles: 1e5 random feasible fields (lower bound) and a fine sphere grid
    dom, op, spec = setup
    pts = [[0.4], [1.1], [1.7], [2.3], [2.9]]
    obs = point_cloud(dom, pts)
    lam = spec.frequencies[2] + 0.1
    c = constant_sup(spec, obs, lam).value
    V = spec.vectors[:, :3]
    P = V[spec.operator.domain.node_to_unknown[obs.points], :]
    rng = np.random.default_rng(17)
    U = rng.standard_normal((10**5, 3))
    scale = np.abs(U @ P.T).max(axis=1)
    feas = np.abs(U @ V.T).max(axis=1) / scale
    assert feas.max() <= c * (1 + 1e-9)
    th = np.linspace(0, np.pi, 200)
    ph = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    T, Ph = np.meshgrid(th, ph, indexing="ij")
    G = np.stack([np.sin(T) * np.cos(Ph), np.sin(T) * np.sin(Ph), np.cos(T)], axis=-1).reshape(-1, 3)
    gscale = np.abs(G @ P.T).max(axis=1)
    gvals = np.abs(G @ V.T).max(axis=1) / gscale
    assert abs(c - gvals.max()) / c <= 0.02
    assert c == pytest.approx(float(exhaustive_sup(spec, obs, lam)), rel=1e-12)


def test_constant_sup_homogeneity(setup):
    dom, op, spec = setup
    obs = point_cloud(dom, [[0.5], [1.5], [2.5]])
    lam = spec.frequencies[1] + 0.1
    c = constant_sup(spec, obs, lam).value
    scaled = Spectrum(op, spec.frequencies, spec.vectors * 3.7, spec.weights)
    assert constant_sup(scaled, obs, lam).value == pytest.approx(c, rel=1e-8)


def solve_exact(M, b):
    """Integers N and D > 0 with M N = D b for a nonsingular integer matrix M
    and integer vector b: Bareiss's fraction-free elimination, then back
    substitution in rationals."""
    rows = [list(r) + [v] for r, v in zip(M, b)]
    n, prev = len(rows), 1
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        head = rows[col]
        for r in range(col + 1, n):
            row = rows[r]
            rows[r] = [0] * (col + 1) + [(head[col] * row[j] - row[col] * head[j]) // prev
                                         for j in range(col + 1, n + 1)]
        prev = head[col]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / Fraction(rows[i][i])
    D = math.lcm(*(v.denominator for v in x))
    return [int(v * D) for v in x], D


def exact_lp_value(A, c, on, duals):
    """Exact optimum of max c.u over A u <= 1, in rational arithmetic on the
    float data, from the solver's vertex with active rows `on`. A basis B is
    k independent rows, with vertex u_B = A_B^-1 1 and dual A_B^-T c. The
    start is the first basis of the active rows whose vertex is exactly
    feasible; the rows that carry the solver's dual go first, so that is the
    solver's own basis unless round-off made it infeasible at a degenerate
    vertex. Exact simplex pivots (Bland's rule) then move to a basis whose
    dual is exactly nonnegative, which proves its vertex optimal: on a
    dual-degenerate vertex the solver's zero duals come out as -1e-16. A
    vertex with no exactly feasible basis fails."""
    k = c.size
    # floats are dyadic: scaled by their largest denominator, A u <= 1 and c
    # become the integer rows A u <= scale and the integer cost
    scale = max(Fraction(float(v)).denominator for v in np.append(A.ravel(), c))
    rows = [[int(Fraction(float(v)) * scale) for v in row] for row in A]
    cost = [int(Fraction(float(v)) * scale) for v in c]

    def solve(B, rhs, transpose=False):
        M = [rows[i] for i in B]
        return solve_exact([list(col) for col in zip(*M)] if transpose else M, rhs)

    def feasible(B):
        if np.linalg.matrix_rank(A[list(B)]) < k:
            return False
        N, D = solve(B, [scale] * k)
        return all(sum(a * n for a, n in zip(row, N)) <= scale * D for row in rows)

    order = sorted(on, key=lambda i: (duals[i] == 0, -abs(duals[i])))
    B = next((list(B) for B in itertools.combinations(order, k) if feasible(B)), None)
    assert B is not None, "no basis of the solver's vertex is exactly feasible"
    while True:
        N, D = solve(B, cost, transpose=True)
        neg = [j for j in range(k) if N[j] < 0]
        if not neg:
            return Fraction(sum(N), D)
        j = min(neg, key=lambda j: B[j])          # Bland: the lowest row leaves B
        Nu, Du = solve(B, [scale] * k)
        Nd, _ = solve(B, [-(i == j) for i in range(k)])   # the edge leaving row j
        step, enter = None, None
        for i, row in enumerate(rows):
            slope = sum(a * n for a, n in zip(row, Nd))
            if i not in B and slope > 0:
                t = Fraction(scale * Du - sum(a * n for a, n in zip(row, Nu)), slope)
                if step is None or t < step:
                    step, enter = t, i
        assert enter is not None, "unbounded LP"
        B[j] = enter


def exhaustive_sup(spec, obs, lam):
    """Reference sup constant, exact for the float data: one HiGHS linear
    program per grid node, then the LP of every node within 1e-9 of the best
    is re-solved in rational arithmetic from the solver's vertex, and the
    largest exact value is returned as a Fraction. Call it only on a cloud
    that observes the band."""
    band = spec.band(lam)
    V = spec.vectors[:, band]
    P = V[obs.domain.node_to_unknown[obs.points], :]
    A_ub = np.vstack([P, -P])
    b_ub = np.ones(2 * P.shape[0])
    solves = []
    for y in range(V.shape[0]):
        res = scipy.optimize.linprog(-V[y], A_ub=A_ub, b_ub=b_ub,
                                     bounds=[(None, None)] * band.size, method="highs")
        assert res.status == 0, res.message
        solves.append((-res.fun, y, res))
    best = max(value for value, *_ in solves)
    return max(exact_lp_value(A_ub, V[y], np.flatnonzero(res.ineqlin.residual <= 1e-9),
                              res.ineqlin.marginals)
               for value, y, res in solves if value >= best * (1 - 1e-9))


@st.composite
def interval_problems(draw):
    """A 1-D grid of 20-80 cells, 1-12 cloud nodes drawn with replacement (so
    snapped duplicates occur), and a cutoff between two consecutive modes."""
    cells = draw(st.integers(20, 80))
    bc = draw(st.sampled_from([DIRICHLET, NEUMANN]))
    n_unknowns = cells - 1 if bc == DIRICHLET else cells + 1
    nodes = draw(st.lists(st.integers(0, n_unknowns - 1), min_size=1, max_size=12))
    modes = draw(st.integers(1, 16))
    return cells, bc, nodes, modes


def interval_spectrum(cells, bc):
    dom = build_interval(np.pi, cells, bc)
    return dom, compute_spectrum(assemble(dom, constant_coefficients(dom)))


def cutoff_after(spec, modes):
    """A frequency cutoff keeping exactly the first `modes` modes."""
    f = spec.frequencies
    return 0.5 * (f[modes - 1] + f[modes]) if modes < f.size else f[-1] + 1.0


# A 15-point cloud on a 61-cell interval whose band rows lose rank between 11
# and 12 modes (sigma_min / sigma_max 4.1e-6, then 9.1e-8): below the floor
# HiGHS returned 1.1e7 and 5.7e8 at 12 and 13 modes, and failed at 14.
ILL_CONDITIONED = (61, DIRICHLET, [52, 49, 54, 49, 50, 56, 15, 57, 45, 23,
                                   55, 45, 38, 59, 33, 57, 40, 49, 19, 50])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=interval_problems())
@example(problem=(40, DIRICHLET, [7, 7, 7], 1))            # one distinct node
@example(problem=(20, DIRICHLET, [0], 3))                  # fewer points than modes
@example(problem=(40, DIRICHLET, [3, 11, 11, 30], 4))      # duplicates, rank 3 < 4 modes
@example(problem=(33, NEUMANN, [2, 9, 9, 20, 28, 28], 3))  # duplicates, full rank
@example(problem=(25, DIRICHLET, [4, 15], 6))              # fewer points than modes
@example(problem=(*ILL_CONDITIONED, 14))                   # sigma ratio 1.5e-11
def test_constant_sup_pruning_matches_exhaustive(problem):
    # Below the floor the constant is inf before any LP; above it, it is the
    # exact value of one LP per node. Every draw is held to one of the two.
    cells, bc, nodes, modes = problem
    dom, spec = interval_spectrum(cells, bc)
    obs = point_cloud(dom, dom.unknown_coords()[nodes])
    lam = cutoff_after(spec, modes)
    got = constant_sup(spec, obs, lam)
    assert got.lp_solved + got.lp_certified + got.lp_pruned == dom.n_unknowns
    if observed_band_svd(obs.rows(spec.vectors[:, spec.band(lam)])) is None:
        assert np.isinf(got.value) and got.lp_solved == 0
    else:
        assert got.value == pytest.approx(float(exhaustive_sup(spec, obs, lam)), rel=1e-12)


def test_sup_and_control_cutoff_share_the_observability_floor():
    # for every band, the sup constant is finite exactly when the control
    # cutoff keeps the band
    cells, bc, nodes = ILL_CONDITIONED
    dom, spec = interval_spectrum(cells, bc)
    obs = point_cloud(dom, dom.unknown_coords()[nodes])
    kept = spec.band(observable_cutoff(spec, obs, lam_max=cutoff_after(spec, 15))).size
    finite = [np.isfinite(constant_sup(spec, obs, cutoff_after(spec, k)).value)
              for k in range(1, 16)]
    assert finite == [k <= kept for k in range(1, 16)]
    assert kept == 11


def test_constant_sup_prunes_cantor_sweep(setup):
    # the grid, cloud and cutoffs of configs/cantor_sup_sweep.json
    dom, op, spec = setup
    cloud = cantor_set(dom, 1 / 3, 6)
    grid = np.linspace(1.5, 12.5, 10)
    results = [constant_sup(spec, cloud, lam) for lam in grid]
    assert all(r.lp_solved + r.lp_certified + r.lp_pruned == dom.n_unknowns for r in results)
    assert sum(r.lp_solved for r in results) <= 0.02 * dom.n_unknowns * grid.size


def test_constant_sup_on_a_planar_cantor_cloud_is_exact_in_linear_memory():
    # a 2-D Cantor cloud is the product with a transverse segment, so the
    # cloud size m grows with the grid: n x m is the most a sweep may hold
    dom = build_rectangle(np.pi, np.pi, 16, 16, DIRICHLET)
    spec = compute_spectrum(assemble(dom, constant_coefficients(dom)))
    cloud = cantor_set(dom, 1 / 3, 3)
    n, m = dom.n_unknowns, cloud.points.size
    solved = 0
    for modes in (3, 6, 10):
        lam = cutoff_after(spec, modes)
        tracemalloc.start()
        try:
            got = constant_sup(spec, cloud, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.lp_solved + got.lp_certified + got.lp_pruned == n
        assert got.value == pytest.approx(float(exhaustive_sup(spec, cloud, lam)), rel=1e-12)
        assert peak <= 8 * (8 * n * m)   # a few float64 n x m arrays
        solved += got.lp_solved
    # each accepted basis bounds every open node by its ||Lambda_y||_1
    assert solved <= 50


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problem=interval_problems(), extra=st.integers(1, 8), data=st.data())
def test_constants_nondecreasing_in_cutoff(problem, extra, data):
    # nested bands: every field of the lower band lies in the upper one
    cells, bc, nodes, modes = problem
    dom, spec = interval_spectrum(cells, bc)
    lo = cutoff_after(spec, modes)
    hi = cutoff_after(spec, min(modes + extra, spec.n_modes))
    cloud = point_cloud(dom, dom.unknown_coords()[nodes])
    sup_lo, sup_hi = constant_sup(spec, cloud, lo).value, constant_sup(spec, cloud, hi).value
    assert sup_lo <= sup_hi * (1 + 4 * LP_FEASIBILITY_TOL)
    cells_in = data.draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=cells))
    mask = np.zeros(cells, dtype=bool)
    mask[cells_in] = True
    obs = set_from_mask(dom, mask, kappa_of(spec))
    # lam_min of the restricted Gram interlaces; ||G|| <= 1, so compare C^-2
    # up to the eigensolver's absolute error
    l2_lo, l2_hi = constant_l2(spec, obs, lo), constant_l2(spec, obs, hi)
    assert l2_hi ** -2 <= l2_lo ** -2 + 64 * np.finfo(float).eps


def test_fit_growth_flat_degenerate():
    fit = fit_growth(np.arange(1.0, 9.0), np.ones(8))
    assert fit.degenerate and fit.rate == 0.0 and np.isnan(fit.r_squared)


def test_fit_growth_recovers_slope():
    lam = np.linspace(1, 10, 12)
    fit = fit_growth(lam, 2.0 * np.exp(0.8 * lam))
    assert fit.rate == pytest.approx(0.8, rel=1e-9)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_growth_insufficient():
    with pytest.raises(InsufficientDataError):
        fit_growth(np.arange(1.0, 4.0), np.ones(3))


def test_fit_growth_lengths_differ():
    with pytest.raises(ValueError, match="differ in length"):
        fit_growth(np.arange(1.0, 9.0), np.ones(7))


def test_interpolation_single_mode_full_domain(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    f = spec.vectors[:, 0]
    rep = interpolation_check(spec, obs, f, 0.0, 0.5)
    assert rep.holds
    # single mode: lhs and s-norm are explicit exponentials
    lam2 = spec.eigenvalues[0]
    assert rep.lhs == pytest.approx(np.exp(-lam2 * 0.5), rel=1e-9)
    assert rep.s_norm == pytest.approx(1.0, rel=1e-9)
    norm1 = np.sum(obs.node_weights * np.abs(spec.vectors[:, 0]))
    assert rep.obs_norm == pytest.approx(np.exp(-lam2 * 0.5) * norm1, rel=1e-9)
    # the reported N satisfies its defining equation with the closed-form ratio
    ratio = rep.lhs / (rep.obs_norm ** 0.5 * rep.s_norm ** 0.5)
    assert rep.n_required * np.exp(rep.n_required / 0.5) == pytest.approx(ratio, rel=1e-9)


def test_interpolation_batch_stable_and_minimizer_identity(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    rng = np.random.default_rng(31)
    ns = []
    for _ in range(50):
        f = rng.standard_normal(spec.vectors.shape[0])
        rep = interpolation_check(spec, obs, f, 0.0, 0.5, 0.5)
        assert rep.holds
        assert rep.split_margin >= -1e-12
        assert rep.minimizer_identity_dev <= 0.01
        ns.append(rep.n_required)
    assert max(ns) < np.inf


def test_interpolation_invalid_args(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    f = spec.vectors[:, 0]
    with pytest.raises(ValueError):
        interpolation_check(spec, obs, f, 0.5, 0.5)
    with pytest.raises(ValueError):
        interpolation_check(spec, obs, f, 0.0, 0.5, epsilon=1.0)


def test_lr_schedule_gaps_and_dual_ratio():
    seq = lr_schedule(1.0, 0.5, 5)
    t = seq.times
    gaps = np.diff(np.concatenate([[0.0], t]))
    assert np.allclose(gaps, [0.5, 0.25, 0.125, 0.0625, 0.03125])
    s = seq.dual_times()
    d = -np.diff(s)
    assert np.allclose(d[1:], 0.5 * d[:-1], rtol=1e-12)
    with pytest.raises(ValueError):
        lr_schedule(1.0, 1.0, 5)


def test_telescope_single_mode_full_domain(setup):
    # oracle: every norm is an explicit exponential of the single mode
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 10)
    rep = telescope_check(spec, obs, seq, spec.vectors[:, 0], D=0.05)
    lam2 = spec.eigenvalues[0]
    e1_l1 = np.sum(obs.node_weights * np.abs(spec.vectors[:, 0]))
    s_times = seq.dual_times()
    gaps = -np.diff(s_times)
    weighted = np.exp(-0.05 / gaps) * np.exp(-lam2 * s_times[:-1]) * e1_l1
    expected_c = np.exp(-lam2 * 1.0) / weighted.max()
    assert rep.c_instance == pytest.approx(expected_c, rel=1e-9)
    assert np.all(rep.step_residuals <= 1e-12)


def test_telescope_batch_stability(setup):
    # the instance constant concentrates at moderate weight rates; at tiny D
    # the sup shifts to late observation times and tracks the leading-mode
    # content of the draw instead
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 20)
    rng = np.random.default_rng(77)
    cs = []
    for _ in range(50):
        f = rng.standard_normal(spec.vectors.shape[0])
        rep = telescope_check(spec, obs, seq, f, D=1.0)
        assert np.all(rep.step_residuals <= 1e-12)
        cs.append(rep.c_instance)
    assert max(cs) / min(cs) <= 3.0


def test_telescope_rejects_bad_sequence(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    # dual gaps (0.4, 0.1): the second shrinks below half the first
    bad = TimeSequence(np.array([0.4, 0.5]), "lr_geometric", 0.5, 1.0)
    f = spec.vectors[:, 0]
    with pytest.raises(ValueError):
        telescope_check(spec, obs, bad, f, D=0.05)


def test_phung_wang_full_interval():
    seq = phung_wang_times([(0.0, 1.0)], z=2.0, anchor=0.0, depth=6)
    assert np.all(seq.measured_ratios >= 1.0 - 1e-12)
    assert seq.times[0] > seq.times[1]


def fat_cantor_intervals(depth=8, total=1.0, target_removed=0.5):
    # remove scaled middles so the removed mass hits the target at this depth
    c = target_removed / (0.5 * (1 - 2.0 ** -depth))
    intervals = [(0.0, total)]
    for k in range(1, depth + 1):
        ln = c * 4.0 ** -k
        nxt = []
        for a, b in intervals:
            mid = 0.5 * (a + b)
            nxt.append((a, mid - ln / 2))
            nxt.append((mid + ln / 2, b))
        intervals = nxt
    return intervals


def test_phung_wang_fat_cantor():
    J = fat_cantor_intervals()
    measure = sum(b - a for a, b in J)
    assert measure == pytest.approx(0.5, rel=1e-9)
    seq = phung_wang_times(J, z=2.0, anchor=0.0, depth=8)
    assert np.all(seq.measured_ratios >= 1.0 / 3.0)


def test_phung_wang_invalid_ratio():
    with pytest.raises(ValueError):
        phung_wang_times([(0.0, 1.0)], z=1.0, anchor=0.0)

