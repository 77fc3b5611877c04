import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    NEUMANN,
    assemble,
    boundary_normal,
    build_chart,
    build_interval,
    build_rectangle,
    compute_spectrum,
    constant_coefficients,
    double_domain,
    extend_eigenfunction,
    kernel_mass,
    pseudo_geodesic_diag,
    random_lipschitz_coefficients,
    smooth_normal,
)
from heatlab.doubling import default_cutoff, poisson_kernel, tangential_kernel_l1
from heatlab.errors import DegenerateChartError, UnsupportedGeometryError


def test_normal_identity_metric():
    n, lam = boundary_normal(np.eye(2))
    assert lam == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(n, [1.0, 0.0], atol=1e-14)


def test_normal_anisotropic_closed_form():
    n, lam = boundary_normal(np.diag([4.0, 1.0]))
    assert lam == pytest.approx(0.25, rel=1e-12)
    assert np.allclose(n, [0.5, 0.0], atol=1e-12)
    a = np.diag([4.0, 1.0])
    assert n @ a @ n == pytest.approx(1.0, rel=1e-12)


def test_normal_rejects_indefinite():
    with pytest.raises(ValueError):
        boundary_normal(np.diag([1.0, -2.0]))


def test_normal_unique_solution_of_defining_system():
    # oracle: solve [a n = t e_1, n . a n = 1] directly for a generic metric
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 2))
    a = M @ M.T + 2 * np.eye(2)
    n, lam = boundary_normal(a)
    # a n is parallel to e_1 with positive first component, unit a-norm
    an = a @ n
    assert abs(an[1]) <= 1e-12
    assert n @ a @ n == pytest.approx(1.0, rel=1e-12)
    assert n[0] > 0


def test_kernel_mass_unit():
    dz = 1e-3
    for s in (2 * dz, 0.01, 0.1):
        assert kernel_mass(s, dz) == pytest.approx(1.0, abs=1e-3)


def test_tangential_kernel_masses_uniformly_bounded():
    dz = 1e-3
    for s in (2 * dz, 0.01, 0.05):
        assert tangential_kernel_l1(s, dz, "k2") <= 0.7
        assert tangential_kernel_l1(s, dz, "k3") <= 0.7


def test_smooth_constant_field_preserved():
    # window-tail mass ~ (2/pi) s / Z bounds the deviation at the center
    z = np.linspace(-1, 1, 1601)
    n0 = np.tile([0.6, 0.3], (z.size, 1))
    chi = np.ones(z.size)
    s_grid = np.array([0.0, 0.003, 0.004])   # s >= 2 dz keeps the lattice sum clean
    m = smooth_normal(n0, chi, s_grid, z)
    assert np.allclose(m[0], n0, atol=0)
    center = z.size // 2
    assert np.abs(m[1:, center, :] - n0[center]).max() <= 3e-3


def dense_smooth_normal(n0, chi, s_grid, z_grid):
    # oracle: the Poisson-kernel quadrature as one dense nz x nz matrix per level
    dz = z_grid[1] - z_grid[0]
    source = chi[:, None] * n0
    diff = z_grid[:, None] - z_grid[None, :]
    return np.stack([source if s == 0 else (poisson_kernel(s, diff) * dz) @ source
                     for s in s_grid])


@pytest.mark.parametrize("nz", [401, 800, 1601])
def test_smooth_normal_matches_dense_kernel_oracle(nz):
    z = np.linspace(-1, 1, nz)
    chi = default_cutoff(0.5, 0.8)(z)
    n0 = np.random.default_rng(nz).standard_normal((nz, 2))
    s_grid = np.linspace(0.0, 0.04, 11)
    m = smooth_normal(n0, chi, s_grid, z)
    want = dense_smooth_normal(n0, chi, s_grid, z)
    assert np.array_equal(m[0], chi[:, None] * n0)
    assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()


def test_smooth_commutes_with_constant_shift():
    z = np.linspace(-1, 1, 1601)
    rng = np.random.default_rng(1)
    base = np.cumsum(rng.uniform(-1, 1, z.size))[:, None] * (z[1] - z[0])
    n0 = np.hstack([1 + 0.1 * base, 0.1 * base])
    chi = np.ones(z.size)
    s_grid = np.array([0.003])
    shift = np.array([0.4, -0.2])
    m1 = smooth_normal(n0, chi, s_grid, z)
    m2 = smooth_normal(n0 + shift, chi, s_grid, z)
    center = z.size // 2
    assert np.abs(m2[0, center] - m1[0, center] - shift).max() <= 1e-3


def test_smooth_second_derivative_bounded_under_refinement():
    # Lipschitz input: FD d2m/dz2 stabilizes as the tangential grid refines
    s_fixed = 0.02
    worst = []
    for nz in (801, 1601, 3201):
        z = np.linspace(-1, 1, nz)
        dz = z[1] - z[0]
        n0 = np.stack([1 + 0.2 * np.abs(z), 0.2 * np.abs(z)], axis=1)  # kink at 0
        chi = default_cutoff(0.5, 0.8)(z)
        m = smooth_normal(n0, chi, np.array([s_fixed]), z)
        d2 = np.abs(np.diff(m[0], 2, axis=0)).max() / dz**2
        worst.append(d2)
    assert worst[2] <= 1.3 * worst[0] + 1e-9


def chart_const_metric(gxx=4.0):
    a_fn = lambda y, z: np.broadcast_to(np.diag([gxx, 1.0]),
                                        np.shape(y) + (2, 2)).copy()
    return build_chart(a_fn, s_max=0.05, n_s=10, z_extent=1.0, n_z=801)


def test_chart_flat_identity_metric():
    # full-window cutoff: phi = (s, z) up to the kernel's window-tail mass
    chart = build_chart(lambda y, z: np.broadcast_to(np.eye(2), np.shape(y) + (2, 2)).copy(),
                        s_max=0.05, n_s=8, z_extent=1.0, n_z=401,
                        cutoff=lambda z: np.ones_like(z))
    diag = pseudo_geodesic_diag(chart)
    i0 = np.where(chart.s_grid == 0)[0][0]
    mid = np.abs(chart.z_grid) <= 0.3
    assert np.abs(chart.phi[i0, mid, 0]).max() <= 1e-14
    s3 = chart.s_grid[i0 + 3]
    assert np.abs(chart.phi[i0 + 3, mid, 0] - s3).max() <= s3 * (2 / np.pi) * s3 / 0.7 * 1.1
    assert diag.b0_offdiag_max <= 1e-12
    assert diag.b0_normal_dev <= 1e-12


def test_chart_anisotropic_pullback_oracle():
    # oracle: 2x2 algebra J0^T a J0 with J0 = [[1/2, 0], [0, 1]]
    chart = chart_const_metric(4.0)
    diag = pseudo_geodesic_diag(chart)
    assert diag.unit_normal_dev <= 1e-12
    assert diag.orthogonality_dev <= 1e-12
    assert diag.m0_dev == 0.0
    b0 = diag.b0_algebraic
    assert np.abs(b0[:, 0, 0] - 1.0).max() <= 1e-10
    assert np.abs(b0[:, 0, 1]).max() <= 1e-12
    assert np.abs(b0[:, 1, 1] - 1.0).max() <= 1e-10
    assert diag.b_tangent_min > 0
    assert diag.kernel_mass_range[0] >= 1 - 1e-3
    assert diag.kernel_mass_range[1] <= 1 + 1e-3


def test_chart_zero_cutoff_degenerates():
    a_fn = lambda y, z: np.broadcast_to(np.eye(2), np.shape(y) + (2, 2)).copy()
    chart = build_chart(a_fn, s_max=0.05, n_s=6, z_extent=1.0, n_z=301,
                        cutoff=lambda z: np.zeros_like(z))
    chart.core = np.arange(chart.z_grid.size)  # force the empty-cutoff check
    with pytest.raises(DegenerateChartError):
        pseudo_geodesic_diag(chart)


def test_chart_second_derivatives_bounded_under_refinement():
    # both grids refine together with the collar spacing a fixed multiple of
    # the tangential spacing: the kernel quadrature resolves s >~ 2 dz only
    a_fn = lambda y, z: np.stack([np.stack([1 + 0.3 * np.sqrt(z * z + 0.04),
                                            np.zeros_like(z)], axis=-1),
                                  np.stack([np.zeros_like(z),
                                            np.ones_like(z)], axis=-1)], axis=-2)
    worst = []
    for (ns, nz) in ((5, 801), (10, 1601), (20, 3201)):
        chart = build_chart(a_fn, s_max=0.04, n_s=ns, z_extent=1.0, n_z=nz)
        diag = pseudo_geodesic_diag(chart)
        worst.append(max(diag.d2_phi_max.values()))
    assert worst[2] <= 1.1 * max(worst[0], 1e-12) + 1e-9


def test_double_interval_reflects_coefficients():
    dom = build_interval(1.0, 40, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=8)
    db = double_domain(dom, cf)
    assert db.domain.lengths[0] == pytest.approx(2.0)
    kap = db.coefficients.kappa
    assert np.allclose(kap, kap[::-1])          # even about the glue point
    assert db.interface_jump() <= 1e-12
    K = db.operator.K
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


def test_double_constant_matches_plain_laplacian():
    dom = build_interval(1.0, 30, DIRICHLET)
    db = double_domain(dom, constant_coefficients(dom))
    plain = assemble(build_interval(2.0, 60, DIRICHLET),
                     constant_coefficients(build_interval(2.0, 60, DIRICHLET)))
    assert np.allclose(db.operator.K, plain.K, atol=1e-12)
    assert np.allclose(db.operator.w, plain.w, atol=1e-14)


def test_double_unsupported_side():
    dom = build_interval(1.0, 10, DIRICHLET)
    with pytest.raises(UnsupportedGeometryError):
        double_domain(dom, constant_coefficients(dom), side="curved")


def test_extend_discrete_pairs_exact():
    dom = build_interval(np.pi, 60, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=2)
    spec = compute_spectrum(assemble(dom, cf), count=6)
    db = double_domain(dom, cf)
    for k in range(6):
        ext, res = extend_eigenfunction(db, spec.vectors[:, k], spec.eigenvalues[k],
                                        DIRICHLET)
        assert res <= 1e-9


def test_extend_neumann_constant_mode():
    dom = build_interval(1.0, 24, NEUMANN)
    cf = constant_coefficients(dom)
    db = double_domain(dom, cf)
    e0 = np.ones(dom.n_unknowns)
    ext, res = extend_eigenfunction(db, e0, 0.0, NEUMANN)
    assert res <= 1e-12
    assert np.allclose(ext, ext[0])


def test_extend_continuum_samples_second_order():
    # refinement oracle: sampled sin(kx) against the continuum eigenvalue k^2
    orders = []
    for k in (1, 2):
        res = []
        hs = []
        for n in (40, 80, 160):
            dom = build_interval(np.pi, n, DIRICHLET)
            cf = constant_coefficients(dom)
            db = double_domain(dom, cf)
            x = dom.unknown_coords()[:, 0]
            e = np.sin(k * x)
            _, r = extend_eigenfunction(db, e, float(k * k), DIRICHLET)
            res.append(r)
            hs.append(dom.h[0])
        orders.append(np.polyfit(np.log(hs), np.log(res), 1)[0])
    assert min(orders) >= 1.8


def test_extend_wrong_parity_flagged():
    dom = build_interval(np.pi, 50, DIRICHLET)
    cf = constant_coefficients(dom)
    spec = compute_spectrum(assemble(dom, cf), count=1)
    db = double_domain(dom, cf)
    _, res_ok = extend_eigenfunction(db, spec.vectors[:, 0], spec.eigenvalues[0],
                                     DIRICHLET)
    _, res_bad = extend_eigenfunction(db, spec.vectors[:, 0], spec.eigenvalues[0],
                                      DIRICHLET, parity="even")
    assert res_ok <= 1e-9
    assert res_bad >= 1e3 * max(res_ok, 1e-12)


def test_extend_bc_mismatch():
    dom = build_interval(1.0, 20, DIRICHLET)
    db = double_domain(dom, constant_coefficients(dom))
    with pytest.raises(ValueError):
        extend_eigenfunction(db, np.ones(dom.n_unknowns), 1.0, NEUMANN)


def test_spectral_inclusion_first_modes():
    dom = build_interval(np.pi, 80, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, 0.5, 0.5, seed=21)
    spec = compute_spectrum(assemble(dom, cf), count=10)
    db = double_domain(dom, cf)
    spec2 = compute_spectrum(db.operator)
    h2 = max(db.domain.h) ** 2
    for lam2 in spec.eigenvalues:
        dist = np.abs(spec2.eigenvalues - lam2).min()
        assert dist <= max(1e-8, h2) * max(lam2, 1.0)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_double_rectangle_flat_side(bc):
    dom = build_rectangle(1.0, 1.0, 12, 10, bc)
    cf = random_lipschitz_coefficients(dom, 0.5, 0.5, seed=5)
    db = double_domain(dom, cf)
    assert db.domain.n_cells == (24, 10)
    assert db.interface_jump() <= 1e-12
    spec = compute_spectrum(assemble(dom, cf), count=3)
    for k in range(3):
        ext, res = extend_eigenfunction(db, spec.vectors[:, k], spec.eigenvalues[k], bc)
        assert res <= 1e-9
