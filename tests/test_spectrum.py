import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from heatlab import (
    DIRICHLET,
    NEUMANN,
    assemble,
    build_interval,
    build_rectangle,
    compute_spectrum,
    constant_coefficients,
    eigen_sup_exponent,
    elliptic_lift,
    heat_propagate,
    lift_residual,
    project_low,
    random_lipschitz_coefficients,
    sup_embedding_constant,
    weyl_exponent,
)
from heatlab import spectrum as spectrum_module
from heatlab.errors import InsufficientDataError, NumericalFailureError


def interval_spectrum(n, bc=DIRICHLET, length=np.pi, **kw):
    dom = build_interval(length, n, bc)
    op = assemble(dom, constant_coefficients(dom))
    return dom, op, compute_spectrum(op, **kw)


def test_dirichlet_closed_form():
    dom, op, spec = interval_spectrum(64)
    h = dom.h[0]
    k = np.arange(1, 64)
    exact = (2 - 2 * np.cos(k * h)) / h**2
    assert np.allclose(spec.eigenvalues, exact, rtol=1e-10)
    x = dom.unknown_coords()[:, 0]
    for kk in (1, 2, 5):
        e = spec.vectors[:, kk - 1]
        ref = np.sin(kk * x)
        ref /= np.sqrt(np.sum(op.w * ref**2))
        assert np.abs(np.abs(e) - np.abs(ref)).max() <= 1e-8


def test_neumann_zero_mode():
    dom, op, spec = interval_spectrum(40, bc=NEUMANN)
    assert spec.frequencies[0] == pytest.approx(0.0, abs=1e-7)
    e0 = spec.vectors[:, 0]
    assert np.abs(e0 - e0[0]).max() <= 1e-8 * abs(e0[0])


def test_2d_tensor_product_oracle():
    # oracle: 1-D discrete eigenvalues combine additively on the tensor grid
    nx, ny = 12, 10
    dom = build_rectangle(np.pi, np.pi, nx, ny, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op)
    hx, hy = dom.h
    ex = (2 - 2 * np.cos(np.arange(1, nx) * hx)) / hx**2
    ey = (2 - 2 * np.cos(np.arange(1, ny) * hy)) / hy**2
    tensor = np.sort((ex[:, None] + ey[None, :]).ravel())
    assert np.allclose(spec.eigenvalues, tensor, rtol=1e-9)


def test_orthonormality_and_residual_random_coefficients():
    dom = build_interval(1.0, 80, NEUMANN)
    cf = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=4)
    spec = compute_spectrum(assemble(dom, cf))
    rep = spec.validate()
    assert rep["orthonormality"] <= 1e-8
    assert rep["eigen_residual"] <= 1e-8
    assert rep["ascending"]


@pytest.mark.parametrize("dom", [build_interval(1.0, 80, NEUMANN),
                                 build_rectangle(1.0, 1.0, 12, 9, DIRICHLET)],
                         ids=["interval", "rectangle"])
def test_sparse_residual_matches_dense_formula(dom):
    # off-eigen vectors make the residual O(1), so agreement is not round-off
    op = assemble(dom, random_lipschitz_coefficients(dom, 1.0, 1.0, seed=6))
    rng = np.random.default_rng(6)
    V = rng.standard_normal((op.n, 7))
    freqs = np.sort(rng.uniform(0.0, 10.0, 7))
    spec = spectrum_module.Spectrum(op, freqs, V, op.w)
    R = op.K @ V - (op.w[:, None] * V) * freqs ** 2
    dense = np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0))
    assert spec.validate()["eigen_residual"] == pytest.approx(dense, rel=1e-13)


def dense_oracle(op):
    """Every eigenpair by scipy.linalg.eigh on the w^{-1/2}-symmetrized K, with
    w-normalized vectors whose largest-magnitude entry is positive."""
    w_isqrt = 1.0 / np.sqrt(op.w)
    A = (op.K * w_isqrt[:, None]) * w_isqrt[None, :]
    lam2, Y = scipy.linalg.eigh(0.5 * (A + A.T))
    V = w_isqrt[:, None] * Y
    V = V / np.sqrt(np.sum(op.w[:, None] * V**2, axis=0))
    V = V * np.sign(V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])])
    return np.maximum(lam2, 0.0), V


def band_only(monkeypatch):
    """Make any dense solve fail, so a passing call took the band path."""
    def no_dense(op):
        raise AssertionError("dense eigensolve on a band request")
    monkeypatch.setattr(spectrum_module, "_dense_solve", no_dense)


def lipschitz_square(n, seed=2):
    dom = build_rectangle(np.pi, np.pi, n, n, DIRICHLET)
    return assemble(dom, random_lipschitz_coefficients(dom, 0.5, 0.5, seed=seed))


@pytest.mark.parametrize("request_", [{"count": 40}, {"lam_max": 8.0}],
                         ids=["count", "lam_max"])
def test_band_solver_matches_dense_oracle(request_, monkeypatch):
    op = lipschitz_square(26)
    assert op.n >= spectrum_module._BAND_MIN_UNKNOWNS
    lam2, V = dense_oracle(op)
    band_only(monkeypatch)
    spec = compute_spectrum(op, **request_)
    m = request_.get("count") or int(np.count_nonzero(np.sqrt(lam2) <= request_["lam_max"]))
    assert spec.n_modes == m
    assert np.allclose(spec.eigenvalues, lam2[:m], rtol=1e-10, atol=0)
    overlap = np.diag(V[:, :m].T @ (op.w[:, None] * spec.vectors))
    assert np.abs(overlap - 1).max() <= 1e-10   # signs included
    assert spec.validation == spec.validate()


@pytest.mark.parametrize("side", [1 + 1e-9, 1 - 1e-9], ids=["above", "below"])
def test_band_cutoff_on_degenerate_pair(side, monkeypatch):
    # constant coefficients on a square: modes (i, j) and (j, i) share a frequency
    dom = build_rectangle(np.pi, np.pi, 24, 24, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    lam2, _ = dense_oracle(op)
    h = dom.h[0]
    e = (2 - 2 * np.cos(np.arange(1, 5) * h)) / h**2
    pair = np.sqrt(e[1] + e[3])           # modes (2, 4) and (4, 2)
    assert np.count_nonzero(np.abs(np.sqrt(lam2) - pair) <= 1e-9 * pair) == 2
    lam_max = pair * side
    band_only(monkeypatch)
    spec = compute_spectrum(op, lam_max=lam_max)
    assert spec.n_modes == np.count_nonzero(np.sqrt(lam2) <= lam_max)
    assert np.count_nonzero(np.abs(spec.frequencies - pair) <= 1e-9 * pair) == (2 if side > 1 else 0)


def test_certificate_rejects_skipped_modes():
    op = lipschitz_square(24)
    K, W = scipy.sparse.csr_matrix(op.K), scipy.sparse.diags(op.w)
    lam2, _ = dense_oracle(op)
    k = 20
    cut = 0.5 * (lam2[k - 1] + lam2[k])   # exactly k eigenvalues below
    assert spectrum_module._certify(K, W, lam2[:k], ((cut, k),))
    with pytest.raises(NumericalFailureError):   # an interior mode dropped
        spectrum_module._certify(K, W, np.delete(lam2[:k], 7))
    with pytest.raises(NumericalFailureError):   # a k one short of the band
        spectrum_module._certify(K, W, lam2[:k - 1], ((cut, k),))


def test_band_solve_that_skips_a_mode_raises(monkeypatch):
    op = lipschitz_square(24)
    eigsh = scipy.sparse.linalg.eigsh

    def skipping_eigsh(A, k, **kw):
        vals, vecs = eigsh(A, k=k + 1, **kw)
        drop = np.argsort(vals)[k // 2]
        return np.delete(vals, drop), np.delete(vecs, drop, axis=1)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", skipping_eigsh)
    with pytest.raises(NumericalFailureError):
        compute_spectrum(op, count=20)


def test_projector_identity_zero_idempotent():
    dom, op, spec = interval_spectrum(30)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(spec.vectors.shape[0])
    full = project_low(spec, f, spec.frequencies[-1] + 1)
    assert np.allclose(full, f, atol=1e-10)
    zero = project_low(spec, f, 0.5 * spec.frequencies[0])
    assert np.abs(zero).max() <= 1e-12
    once = project_low(spec, f, 10.0)
    twice = project_low(spec, once, 10.0)
    assert np.abs(once - twice).max() <= 1e-10


def test_projector_self_adjoint():
    dom, op, spec = interval_spectrum(30)
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal((2, spec.vectors.shape[0]))
    pf = project_low(spec, f, 12.0)
    pg = project_low(spec, g, 12.0)
    assert spec.inner(pf, g) == pytest.approx(spec.inner(f, pg), rel=1e-10)


def test_heat_semigroup_law_and_contraction():
    dom, op, spec = interval_spectrum(40)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(spec.vectors.shape[0])
    u1 = heat_propagate(spec, heat_propagate(spec, f, 0.1), 0.2)
    u2 = heat_propagate(spec, f, 0.3)
    assert np.abs(u1 - u2).max() <= 1e-12 * np.abs(u2).max()
    assert np.allclose(heat_propagate(spec, f, 0.0), f, atol=1e-12)
    for t in (0.01, 0.5, 3.0):
        assert spec.norm(heat_propagate(spec, f, t)) <= spec.norm(f) * (1 + 1e-12)


def test_heat_single_mode_and_negative_time():
    dom, op, spec = interval_spectrum(24)
    e1 = spec.vectors[:, 0]
    out = heat_propagate(spec, e1, 0.7)
    assert np.allclose(out, np.exp(-spec.eigenvalues[0] * 0.7) * e1, rtol=1e-12)
    with pytest.raises(ValueError):
        heat_propagate(spec, e1, -0.1)


def test_parseval_on_complete_basis():
    dom, op, spec = interval_spectrum(36)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(spec.vectors.shape[0])
    coeffs = spec.coefficients(f)
    assert np.sum(coeffs**2) == pytest.approx(spec.norm(f) ** 2, rel=1e-8)


def test_coefficients_follow_the_basis_and_the_values():
    # Two 20-mode spectra on one grid; the coefficients of A's heat flow taken
    # in B's basis must be B's, and must track later changes to the values.
    dom = build_interval(np.pi, 60, DIRICHLET)
    A = compute_spectrum(assemble(dom, constant_coefficients(dom)), count=20)
    B = compute_spectrum(assemble(dom, random_lipschitz_coefficients(dom, 1.0, 1.0, seed=4)),
                         count=20)
    f = np.random.default_rng(2).standard_normal(dom.n_unknowns)
    g = heat_propagate(A, f, 0.05)
    oracle = B.vectors.T @ (B.weights * g)
    assert np.allclose(B.coefficients(g), oracle, rtol=1e-12, atol=1e-14)
    assert np.abs(A.coefficients(g) - oracle).max() > 0.1 * np.abs(oracle).max()
    g[5] += 1.0
    after = B.coefficients(g)
    assert np.allclose(after - oracle, B.weights[5] * B.vectors[5], rtol=1e-10, atol=1e-14)


def test_elliptic_lift_zero_mode_convention():
    dom = build_interval(1.0, 20, NEUMANN)
    spec = compute_spectrum(assemble(dom, constant_coefficients(dom)))
    coeffs = np.zeros(spec.n_modes)
    coeffs[0] = 2.5
    t_grid = np.linspace(0, 0.3, 7)
    u = elliptic_lift(spec, coeffs, spec.frequencies[0] + 0.1, t_grid)
    e0 = spec.vectors[:, 0]
    for i, t in enumerate(t_grid):
        assert np.allclose(u[i], 2.5 * t * e0, atol=1e-12)


def test_elliptic_lift_initial_velocity():
    dom, op, spec = interval_spectrum(40)
    rng = np.random.default_rng(2)
    coeffs = np.zeros(spec.n_modes)
    coeffs[:6] = rng.standard_normal(6)
    phi = spec.synthesize_values(coeffs)
    dt = 1e-4
    u = elliptic_lift(spec, coeffs, spec.frequencies[5] + 0.1, np.array([-dt, 0.0, dt]))
    assert np.abs(u[1]).max() <= 1e-14
    vel = (u[2] - u[0]) / (2 * dt)
    assert np.abs(vel - phi).max() <= 1e-6 * np.abs(phi).max()


def test_elliptic_lift_residual_refines_in_dt():
    # refinement oracle: residual of the lifted equation drops at order dt^2
    dom, op, spec = interval_spectrum(50)
    rng = np.random.default_rng(6)
    coeffs = np.zeros(spec.n_modes)
    coeffs[:8] = rng.standard_normal(8)
    lam = spec.frequencies[7] + 0.1
    res = []
    dts = [0.02, 0.01, 0.005]
    for dt in dts:
        t_grid = np.arange(0, 0.2 + dt / 2, dt)
        u = elliptic_lift(spec, coeffs, lam, t_grid)
        res.append(lift_residual(spec, u, t_grid))
    order = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert order >= 1.8


def test_weyl_exponent_1d():
    dom, op, spec = interval_spectrum(700)
    assert spec.resolved_band().size >= 200
    assert abs(weyl_exponent(spec) - 1.0) <= 0.1


def test_weyl_exponent_2d():
    dom = build_rectangle(np.pi, np.pi, 40, 40, DIRICHLET)
    spec = compute_spectrum(assemble(dom, constant_coefficients(dom)))
    assert abs(weyl_exponent(spec) - 0.5) <= 0.15 * 0.5


def test_weyl_insufficient_modes():
    dom, op, spec = interval_spectrum(30, **{"count": 5})
    with pytest.raises(InsufficientDataError):
        weyl_exponent(spec)


def test_sup_exponent_flat_for_constant_coefficients():
    dom, op, spec = interval_spectrum(500)
    assert abs(eigen_sup_exponent(spec)) <= 0.1


def test_sup_exponent_reported_for_random_kappa():
    dom = build_interval(np.pi, 400, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=12)
    spec = compute_spectrum(assemble(dom, cf))
    val = eigen_sup_exponent(spec)
    assert np.isfinite(val)


def test_sup_embedding_constant_stable_under_refinement():
    # sigma = sup-norm exponent + d/2 + 0.6; sharp constant per grid
    consts = []
    for n in (100, 200, 400):
        dom, op, spec = interval_spectrum(n)
        sigma = 0.0 + 0.5 + 0.6
        consts.append(sup_embedding_constant(spec, sigma))
    assert max(consts) / min(consts) <= 1.1


def test_dense_count_selection():
    dom, op, spec = interval_spectrum(50, count=7)
    assert spec.n_modes == 7
    with pytest.raises(ValueError):
        compute_spectrum(op, count=0)
