import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    NEUMANN,
    build_interval,
    build_rectangle,
    constant_coefficients,
    coefficients_from_tables,
    load_coefficients_csv,
    make_coefficients,
    random_lipschitz_coefficients,
)
from heatlab.errors import CoefficientRegularityError


def test_interval_dirichlet_unknowns():
    dom = build_interval(np.pi, 4, DIRICHLET)
    assert dom.n_unknowns == 3
    assert dom.h[0] == pytest.approx(np.pi / 4)


def test_interval_neumann_includes_endpoints():
    dom = build_interval(1.0, 1000, NEUMANN)
    assert dom.n_unknowns == 1001


def test_interval_too_few_cells():
    with pytest.raises(ValueError):
        build_interval(1.0, 1, DIRICHLET)


def test_interval_nonpositive_length():
    with pytest.raises(ValueError):
        build_interval(0.0, 10, DIRICHLET)


def test_rectangle_unknown_counts():
    assert build_rectangle(1, 1, 4, 4, DIRICHLET).n_unknowns == 9
    assert build_rectangle(2, 1, 4, 2, NEUMANN).n_unknowns == 15


def test_rectangle_invalid():
    with pytest.raises(ValueError):
        build_rectangle(0, 1, 4, 4, DIRICHLET)


def test_volume_matches_cell_sum():
    dom = build_rectangle(2.0, 3.0, 7, 5, NEUMANN)
    assert dom.volume == pytest.approx(dom.n_cells_total * dom.cell_volume, rel=1e-12)


def test_dual_volumes_partition_neumann():
    dom = build_rectangle(1.0, 2.0, 6, 4, NEUMANN)
    assert dom.dual_volumes().sum() == pytest.approx(dom.volume, rel=1e-12)


def test_constant_coefficients_zero_lipschitz():
    dom = build_interval(1.0, 10, DIRICHLET)
    cf = constant_coefficients(dom, 2.0, 3.0)
    assert cf.lip_g == 0.0 and cf.lip_kappa == 0.0
    assert cf.measured_lip_g == 0.0


def test_random_lipschitz_respects_declared_bound():
    # oracle: rescan all adjacent node pairs by hand
    dom = build_interval(2.0, 300, NEUMANN)
    cf = random_lipschitz_coefficients(dom, lip_g=2.0, lip_kappa=2.0, seed=7)
    h = dom.h[0]
    qk = np.abs(np.diff(cf.kappa)).max() / h
    qg = np.abs(np.diff(cf.g[:, 0, 0])).max() / h
    assert qk <= 2.0 + 1e-12
    assert qg <= 2.0 + 1e-12
    assert cf.kappa.min() > 0


def test_random_lipschitz_2d_diagonal():
    dom = build_rectangle(1.0, 1.0, 12, 9, DIRICHLET)
    cf = random_lipschitz_coefficients(dom, lip_g=1.0, lip_kappa=1.0, seed=3)
    assert cf.is_diagonal()
    assert cf.measured_lip_kappa <= 1.0 + 1e-12


def test_sampled_zero_density_rejected():
    dom = build_interval(1.0, 5, NEUMANN)
    kappa = np.ones(dom.n_nodes_total)
    kappa[3] = 0.0
    g = np.ones((dom.n_nodes_total, 1, 1))
    with pytest.raises(CoefficientRegularityError):
        coefficients_from_tables(dom, g, kappa)


def test_sampled_violating_declared_lipschitz_rejected():
    dom = build_interval(1.0, 5, NEUMANN)
    kappa = np.ones(dom.n_nodes_total)
    kappa[2] = 2.0  # slope 5 against declared 1
    g = np.ones((dom.n_nodes_total, 1, 1))
    with pytest.raises(CoefficientRegularityError):
        coefficients_from_tables(dom, g, kappa, lip_g=1.0, lip_kappa=1.0)


def test_non_spd_metric_rejected():
    dom = build_rectangle(1.0, 1.0, 3, 3, NEUMANN)
    g = np.tile(np.diag([1.0, -0.5]), (dom.n_nodes_total, 1, 1))
    with pytest.raises(CoefficientRegularityError):
        coefficients_from_tables(dom, g, np.ones(dom.n_nodes_total))


def test_make_coefficients_dispatch():
    dom = build_interval(1.0, 8, DIRICHLET)
    cf = make_coefficients(dom, {"kind": "constant", "g": 1.5, "kappa": 0.5})
    assert cf.kappa[0] == 0.5
    cf2 = make_coefficients(dom, {"kind": "piecewise_linear", "lip_g": 1.0,
                                  "lip_kappa": 1.0, "seed": 11})
    assert cf2.measured_lip_kappa <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        make_coefficients(dom, {"kind": "mystery"})


def test_csv_roundtrip(tmp_path):
    dom = build_interval(1.0, 6, NEUMANN)
    ref = random_lipschitz_coefficients(dom, 1.0, 1.0, seed=5)
    path = tmp_path / "coeffs.csv"
    with open(path, "w") as fh:
        for i in range(dom.n_nodes_total):
            fh.write(f"{i},{ref.g[i, 0, 0]:.17g},{ref.kappa[i]:.17g}\n")
    loaded = load_coefficients_csv(dom, path)
    assert np.allclose(loaded.g, ref.g)
    assert np.allclose(loaded.kappa, ref.kappa)


GRIDS = [
    (lambda bc: build_interval(2.0, 9, bc), "interval-9"),
    (lambda bc: build_rectangle(1.4, 0.6, 7, 5, bc), "rectangle-7x5"),
    (lambda bc: build_rectangle(0.5, 2.0, 4, 6, bc), "rectangle-4x6"),
]


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("make", [g[0] for g in GRIDS], ids=[g[1] for g in GRIDS])
def test_node_index_inverts_node_multi_index(make, bc):
    dom = make(bc)
    flat = np.arange(dom.n_nodes_total)
    assert np.array_equal(dom.node_index(*dom.node_multi_index(flat)), flat)
    for i in (0, dom.n_nodes_total // 3, dom.n_nodes_total - 1):
        assert dom.node_index(*dom.node_multi_index(i)) == i
    # the per-axis indices address the node's coordinates
    idx = dom.node_multi_index(flat)
    coords = dom.node_coords(flat)
    for a in range(dom.dimension):
        assert np.allclose(coords[:, a], idx[a] * dom.h[a], rtol=0, atol=1e-12)


@pytest.mark.parametrize("make", [g[0] for g in GRIDS], ids=[g[1] for g in GRIDS])
def test_edges_against_coordinate_oracle(make):
    # oracle: every edge joins two nodes one h apart along its axis, and its
    # width is the trapezoid weight of its lower node across the other axes
    dom = make(NEUMANN)
    axes = []
    for axis, a, b, width in dom.edges():
        axes.append(axis)
        step = np.zeros(dom.dimension)
        step[axis] = dom.h[axis]
        assert np.allclose(dom.node_coords(b) - dom.node_coords(a), step, rtol=0, atol=1e-12)
        n_t = [n + 1 for t, n in enumerate(dom.n_cells) if t != axis]
        assert a.size == dom.n_cells[axis] * int(np.prod(n_t))
        assert np.all(np.diff(a) > 0)
        assert np.unique(np.stack([a, b]), axis=1).shape[1] == a.size
        x = dom.node_coords(a)
        trapezoid = np.ones(a.size)
        for t in range(dom.dimension):
            if t != axis:
                lo = np.maximum(x[:, t] - dom.h[t], 0.0)
                hi = np.minimum(x[:, t] + dom.h[t], dom.lengths[t])
                trapezoid *= (hi - lo) / 2
        assert np.allclose(width, trapezoid, rtol=1e-12, atol=0)
    assert axes == list(range(dom.dimension))
