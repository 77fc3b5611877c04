import numpy as np
import pytest
import scipy.sparse

from heatlab import (
    DIRICHLET,
    NEUMANN,
    assemble,
    build_interval,
    build_rectangle,
    compute_spectrum,
    constant_coefficients,
    random_lipschitz_coefficients,
)
from heatlab.errors import UnsupportedGeometryError


def unit_interval_op(n, bc=DIRICHLET, length=np.pi):
    dom = build_interval(length, n, bc)
    return dom, assemble(dom, constant_coefficients(dom))


def test_unit_coefficient_stencil():
    dom, op = unit_interval_op(8)
    h = dom.h[0]
    # operator normalization reproduces the (2, -1, -1)/h^2 stencil
    A = op.K / op.w[:, None]
    assert A[3, 3] == pytest.approx(2 / h**2, rel=1e-12)
    assert A[3, 4] == pytest.approx(-1 / h**2, rel=1e-12)
    assert op.w[0] == pytest.approx(h, rel=1e-12)


def test_symmetry_and_psd_random_coefficients():
    dom = build_interval(1.0, 60, NEUMANN)
    cf = random_lipschitz_coefficients(dom, 1.5, 1.5, seed=2)
    op = assemble(dom, cf)
    assert np.abs(op.K - op.K.T).max() <= 1e-12 * np.abs(op.K).max()
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(op.n)
        assert u @ op.K @ u >= -1e-10


def test_neumann_rows_sum_to_zero():
    dom = build_interval(1.0, 40, NEUMANN)
    cf = random_lipschitz_coefficients(dom, 2.0, 2.0, seed=9)
    op = assemble(dom, cf)
    assert np.abs(op.K.sum(axis=1)).max() <= 1e-12 * np.abs(op.K).max()
    assert np.linalg.norm(op.K @ np.ones(op.n)) <= 1e-10


def test_dirichlet_positive_definite():
    dom = build_interval(1.0, 50, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=3)
    op = assemble(dom, cf)
    np.linalg.cholesky(op.K)   # raises LinAlgError unless K is positive definite


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("dom_of", [lambda bc: build_interval(1.0, 30, bc),
                                    lambda bc: build_rectangle(1.0, 1.0, 24, 24, bc)],
                         ids=["interval", "square"])
def test_csr_view_equals_k_and_is_built_once(dom_of, bc, monkeypatch):
    dom = dom_of(bc)
    op = assemble(dom, random_lipschitz_coefficients(dom, 1.0, 1.0, seed=4))
    to_csr = scipy.sparse.csr_matrix
    conversions = []

    def counted(arg, *args, **kwargs):
        if isinstance(arg, np.ndarray):
            conversions.append(arg)
        return to_csr(arg, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", counted)
    # on the square (529 and 625 unknowns) a 5-mode request takes the band
    # path, whose Lanczos solve and inertia counts use the view as well
    spec = compute_spectrum(op, count=5)
    spec.validate()
    assert op.K_csr is op.K_csr
    assert len(conversions) == 1 and conversions[0] is op.K
    dense = op.K_csr.toarray()
    assert dense.dtype == op.K.dtype and np.array_equal(dense, op.K)


def test_apply_constant_neumann_zero():
    dom = build_interval(2.0, 25, NEUMANN)
    op = assemble(dom, constant_coefficients(dom))
    assert np.abs(op.K @ np.ones(op.n)).max() <= 1e-10


def test_apply_discrete_eigenvector_identity():
    dom, op = unit_interval_op(32)
    h = dom.h[0]
    x = dom.unknown_coords()[:, 0]
    for k in (1, 3, 7):
        v = np.sin(k * x)
        lam2 = (2 - 2 * np.cos(k * h)) / h**2
        assert np.abs(op.K @ v / op.w - lam2 * v).max() <= 1e-9 * lam2


def test_2d_quadratic_form_against_direct_summation():
    # oracle: sum kappa (g^-1)_aa |du|^2 over edges with trapezoid transverse weights
    dom = build_rectangle(1.0, 1.0, 9, 7, DIRICHLET)
    cf = constant_coefficients(dom, np.diag([4.0, 1.0]), 1.0)
    op = assemble(dom, cf)
    rng = np.random.default_rng(1)
    hx, hy = dom.h
    nx, ny = dom.n_cells
    for _ in range(4):
        u_full = np.zeros(dom.n_nodes_total)
        u = rng.standard_normal(op.n)
        u_full[dom.unknown_nodes] = u
        U = u_full.reshape(nx + 1, ny + 1)
        ty = np.where((np.arange(ny + 1) == 0) | (np.arange(ny + 1) == ny), 0.5, 1.0) * hy
        tx = np.where((np.arange(nx + 1) == 0) | (np.arange(nx + 1) == nx), 0.5, 1.0) * hx
        qx = 0.25 * np.sum(((U[1:, :] - U[:-1, :]) / hx) ** 2 * ty[None, :]) * hx
        qy = 1.00 * np.sum(((U[:, 1:] - U[:, :-1]) / hy) ** 2 * tx[:, None]) * hy
        assert u @ op.K @ u == pytest.approx(qx + qy, rel=1e-12)


def test_2d_lipschitz_stiffness_against_node_pair_loop():
    # oracle: loop over neighbouring node pairs found from coordinates, with
    # the edge-averaged coefficient and the trapezoid transverse width
    dom = build_rectangle(1.4, 0.6, 7, 5, NEUMANN)
    cf = random_lipschitz_coefficients(dom, 0.8, 0.6, seed=4)
    op = assemble(dom, cf)
    coords = dom.node_coords(np.arange(dom.n_nodes_total))
    nodes = {}
    for i, (x, y) in enumerate(coords):
        nodes[round(x / dom.h[0]), round(y / dom.h[1])] = i
    K = np.zeros((dom.n_unknowns, dom.n_unknowns))
    for (ix, iy), p in nodes.items():
        for axis, q in ((0, nodes.get((ix + 1, iy))), (1, nodes.get((ix, iy + 1)))):
            if q is None:
                continue
            t = 1 - axis
            rim = (ix, iy)[t] in (0, dom.n_cells[t])
            width = dom.h[t] * (0.5 if rim else 1.0)
            kappa = 0.5 * (cf.kappa[p] + cf.kappa[q])
            g = 0.5 * (cf.g[p, axis, axis] + cf.g[q, axis, axis])
            c = kappa / g * width / dom.h[axis]
            i, j = dom.node_to_unknown[p], dom.node_to_unknown[q]
            K[i, i] += c
            K[j, j] += c
            K[i, j] -= c
            K[j, i] -= c
    assert np.allclose(op.K, K, rtol=1e-12, atol=1e-12 * np.abs(K).max())


def test_offdiagonal_metric_rejected_in_2d():
    dom = build_rectangle(1.0, 1.0, 4, 4, DIRICHLET)
    g = np.tile(np.array([[2.0, 0.3], [0.3, 1.0]]), (dom.n_nodes_total, 1, 1))
    from heatlab import coefficients_from_tables
    cf = coefficients_from_tables(dom, g, np.ones(dom.n_nodes_total))
    with pytest.raises(UnsupportedGeometryError):
        assemble(dom, cf)


@pytest.mark.parametrize("builder,exact", [
    ("interval", None),
    ("rectangle", None),
])
def test_second_order_consistency(builder, exact):
    # refinement oracle: operator residual against the closed-form Laplacian
    errs = []
    hs = []
    for n in (16, 32, 64):
        if builder == "interval":
            dom = build_interval(np.pi, n, DIRICHLET)
            x = dom.unknown_coords()[:, 0]
            u = np.sin(x)
            lap = np.sin(x)          # -u'' for u = sin
        else:
            dom = build_rectangle(np.pi, np.pi, n, n, DIRICHLET)
            xy = dom.unknown_coords()
            u = np.sin(xy[:, 0]) * np.sin(2 * xy[:, 1])
            lap = 5 * u
        op = assemble(dom, constant_coefficients(dom))
        errs.append(np.abs(op.K @ u / op.w - lap).max())
        hs.append(max(dom.h))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.8
