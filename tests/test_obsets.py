import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    NEUMANN,
    build_interval,
    build_rectangle,
    cantor_set,
    content_bound_geometry,
    dyadic_cover_cost,
    full_domain_set,
    hausdorff_content,
    interval_mask,
    point_cloud,
    random_set,
    set_from_mask,
)
from heatlab.errors import EmptySetError


def test_full_mask_measure():
    dom = build_interval(np.pi, 50, DIRICHLET)
    assert full_domain_set(dom).measure == pytest.approx(np.pi, rel=1e-12)


def test_half_mask_measure():
    dom = build_interval(1.0, 100, DIRICHLET)
    obs = set_from_mask(dom, interval_mask(dom, 0.0, 0.5))
    assert obs.measure == pytest.approx(0.5, rel=1e-12)


def test_empty_mask_rejected():
    dom = build_interval(1.0, 10, DIRICHLET)
    with pytest.raises(EmptySetError):
        set_from_mask(dom, np.zeros(10, dtype=bool))


def test_node_weights_sum_to_measure():
    dom = build_interval(1.0, 64, NEUMANN)
    obs = set_from_mask(dom, interval_mask(dom, 0.25, 0.75))
    assert obs.node_volumes.sum() == pytest.approx(obs.measure, rel=1e-12)


def test_cantor_counts_and_exponent():
    dom = build_interval(1.0, 500, DIRICHLET)
    obs = cantor_set(dom, 1 / 3, 5)
    iv = obs.meta["intervals"]
    assert iv.shape[0] == 32
    assert np.sum(iv[:, 1] - iv[:, 0]) == pytest.approx((2 / 3) ** 5, rel=1e-12)
    assert obs.exponent == pytest.approx(np.log(2) / np.log(3), rel=1e-12)
    assert obs.measure == 0.0


def test_cantor_invalid_ratio():
    dom = build_interval(1.0, 10, DIRICHLET)
    with pytest.raises(ValueError):
        cantor_set(dom, 0.6, 3)


def test_random_set_measure_and_determinism():
    dom = build_interval(1.0, 1000, DIRICHLET)
    obs = random_set(dom, 0.3, seed=42)
    assert abs(obs.measure - 0.3) <= 0.001 + 1e-12
    obs2 = random_set(dom, 0.3, seed=42)
    assert np.array_equal(obs.cells, obs2.cells)
    with pytest.raises(ValueError):
        random_set(dom, 2.0, seed=0)


def test_interval_content_at_full_exponent():
    dom = build_interval(1.0, 40, DIRICHLET)
    obs = full_domain_set(dom)
    assert hausdorff_content(obs, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_middle_thirds_mass_bound_and_dyadic_oracle():
    dom = build_interval(1.0, 729, DIRICHLET)
    obs = cantor_set(dom, 1 / 3, 6)
    s = obs.exponent
    bound = hausdorff_content(obs, s)
    assert bound == obs.content      # the declared content is the certified bound
    assert bound >= 0.25
    # oracle: brute-force dyadic covers at three depths upper-bound the content
    boxes = obs.boxes()
    for depth in (4, 6, 8):
        cube_cost = dyadic_cover_cost(boxes, None, s, depth)
        ball_upper = (np.sqrt(1) / 2) ** s * cube_cost  # cubes sit inside balls of half-diagonal radius
        assert ball_upper >= bound * (1 - 1e-9)


def test_finite_cloud_content_decays_with_depth():
    dom = build_interval(1.0, 64, DIRICHLET)
    pts = np.linspace(0.2, 0.8, 5)[:, None]
    obs = point_cloud(dom, pts)
    vals = [content_bound_geometry(None, obs.point_coords, 1.0, 1, depth)
            for depth in (4, 8, 12)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 0.01


def test_content_invalid_exponent():
    dom = build_interval(1.0, 16, DIRICHLET)
    obs = full_domain_set(dom)
    with pytest.raises(ValueError):
        hausdorff_content(obs, 0.0)
    with pytest.raises(ValueError):
        hausdorff_content(obs, 1.5)


def test_lipschitz_map_bound():
    # bi-Lipschitz images keep at least C^{-s} of the content bound
    dom = build_interval(1.0, 243, DIRICHLET)
    obs = cantor_set(dom, 1 / 3, 5)
    s = obs.exponent
    base = content_bound_geometry(obs.boxes(), None, s, 1, 10)
    for a in (2.0, 0.5, 1.25):
        boxes = obs.boxes() * a + 0.1
        mapped = content_bound_geometry(boxes, None, s, 1, 10)
        C = max(abs(a), 1 / abs(a))
        assert mapped >= C ** (-s) * base * (1 - 1e-9)


def test_content_subadditive_on_random_pairs():
    dom = build_interval(1.0, 128, DIRICHLET)
    rng = np.random.default_rng(7)
    for trial in range(4):
        m1 = random_set(dom, 0.2, seed=int(rng.integers(1 << 30)))
        m2 = random_set(dom, 0.15, seed=int(rng.integers(1 << 30)))
        s = 0.7
        u = np.zeros(dom.n_cells_total, dtype=bool)
        u[m1.cells] = True
        u[m2.cells] = True
        union = set_from_mask(dom, u)
        cu = hausdorff_content(union, s)
        assert cu <= hausdorff_content(m1, s) + hausdorff_content(m2, s) + 1e-12


def test_2d_cantor_product_exponent():
    dom = build_rectangle(1.0, 1.0, 81, 20, DIRICHLET)
    obs = cantor_set(dom, 1 / 3, 3, placement=(0.0, 1.0), transverse=(0.25, 0.75))
    assert obs.exponent == pytest.approx(1 + np.log(2) / np.log(3), rel=1e-12)
    assert hausdorff_content(obs, obs.exponent) == obs.content > 0
    assert obs.points.size > 0


def test_2d_full_mask_content():
    dom = build_rectangle(1.0, 1.0, 20, 20, DIRICHLET)
    obs = full_domain_set(dom)
    assert hausdorff_content(obs, 2.0) == pytest.approx(1 / np.pi, rel=1e-12)


def test_snap_distance_reported():
    dom = build_interval(1.0, 10, DIRICHLET)
    obs = point_cloud(dom, [[0.234]])
    assert obs.snap_distance <= dom.h[0] / 2 + 1e-12
    assert obs.points.size == 1

