"""Observation sets: positive-measure cell masks and Cantor-type point clouds
with certified Hausdorff-content lower bounds.

Content bounds are always lower bounds, never exact values. Cantor
constructions at their natural exponent get a mass-distribution bound; cell
masks at the full exponent get a covering bound from their Lebesgue measure;
everything else goes through an exact dynamic program over dyadic-cube covers
divided by the ball-vs-cube comparability factor. For finite point clouds the
dyadic bound is resolution-limited: it certifies covers down to the
program's depth and decays to zero as the depth grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import ArgumentError, EmptySetError

CELL_MASK = "cell_mask"
POINT_CLOUD = "point_cloud"

_UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi}


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """A cell mask (positive measure) or a point cloud (zero measure).

    Cell masks carry kappa-weighted node weights `node_weights` and plain
    volumes `node_volumes` over the unknowns: each member cell contributes
    cellvol / 2^d to each of its corner nodes, so the weights sum exactly to
    the (kappa-weighted) measure of the set restricted to active nodes.
    Point clouds carry node indices snapped to the nearest unknowns.
    """

    kind: str
    domain: Domain
    measure: float
    cells: np.ndarray | None = None
    node_weights: np.ndarray | None = None
    node_volumes: np.ndarray | None = None
    points: np.ndarray | None = None          # unknown node indices, unique
    point_coords: np.ndarray | None = None    # requested coordinates (m, d)
    snap_distance: float = 0.0
    exponent: float | None = None              # declared Hausdorff exponent s
    content: float | None = None               # declared content lower bound m
    boundary_margin: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def weighted_measure(self) -> float:
        """kappa-weighted mass of the set seen by the active nodes."""
        if self.node_weights is None:
            return 0.0
        return float(self.node_weights.sum())

    def boxes(self) -> np.ndarray | None:
        """Geometry as closed axis-aligned boxes (m, d, 2), if any."""
        if "intervals" in self.meta:
            iv = np.asarray(self.meta["intervals"])   # (m, 2) along axis 0
            if self.domain.dimension == 1:
                return iv[:, None, :]
            t0, t1 = self.meta["transverse"]
            out = np.empty((iv.shape[0], 2, 2))
            out[:, 0, :] = iv
            out[:, 1, 0] = t0
            out[:, 1, 1] = t1
            return out
        if self.kind == CELL_MASK:
            lo = np.stack([self.domain.cell_multi_index(self.cells)[a] * self.domain.h[a]
                           for a in range(self.domain.dimension)], axis=-1)
            return np.stack([lo, lo + np.array(self.domain.h)], axis=-1)
        return None

    def rows(self, V: np.ndarray) -> np.ndarray:
        """Rows of V (indexed by unknowns) at the cloud's nodes: V restricted
        to a point cloud."""
        if self.kind != POINT_CLOUD:
            raise ValueError("restriction to nodes needs a point cloud")
        return V[self.domain.node_to_unknown[self.points]]

    def gram(self, V: np.ndarray) -> np.ndarray:
        """Restricted Gram G_jk = <V_j 1_E, V_k 1_E>_w of the columns of V over
        a cell mask."""
        if self.kind != CELL_MASK:
            raise ValueError("the restricted Gram needs a cell mask")
        return (V.T * self.node_weights) @ V


def _node_weights_for_cells(domain: Domain, kappa: np.ndarray | None, cells: np.ndarray):
    """Distribute cellvol / 2^d of each member cell to its corner nodes."""
    d = domain.dimension
    share = domain.cell_volume / (2 ** d)
    vol = np.zeros(domain.n_nodes_total)
    idx = domain.cell_multi_index(cells)
    for corner in itertools.product((0, 1), repeat=d):
        np.add.at(vol, domain.node_index(*(i + c for i, c in zip(idx, corner))), share)
    vol_unknown = vol[domain.unknown_nodes]
    if kappa is None:
        kappa_u = np.ones_like(vol_unknown)
    else:
        kappa_u = kappa[domain.unknown_nodes]
    return kappa_u * vol_unknown, vol_unknown


def set_from_mask(domain: Domain, mask, kappa: np.ndarray | None = None) -> ObservationSet:
    """Cell-mask observation set with exact Lebesgue measure.

    `kappa` weights the node masses used in restricted norms; defaults to 1.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.shape != (domain.n_cells_total,):
        raise ValueError(f"mask has {mask.size} entries, expected {domain.n_cells_total}")
    cells = np.where(mask)[0]
    if cells.size == 0:
        raise EmptySetError("observation mask selects no cells")
    wE, volE = _node_weights_for_cells(domain, kappa, cells)
    measure = float(cells.size * domain.cell_volume)
    return ObservationSet(CELL_MASK, domain, measure, cells=cells,
                          node_weights=wE, node_volumes=volE)


def full_domain_set(domain: Domain, kappa=None) -> ObservationSet:
    return set_from_mask(domain, np.ones(domain.n_cells_total, dtype=bool), kappa)


def interval_mask(domain: Domain, a: float, b: float) -> np.ndarray:
    """Mask of cells contained in [a, b] along axis 0 (all of axis 1 in 2-D)."""
    if not b > a:
        raise ArgumentError("b", "need b > a")
    h0 = domain.h[0]
    cx = domain.cell_multi_index(np.arange(domain.n_cells_total))[0]
    return (cx * h0 >= a - 1e-12) & ((cx + 1) * h0 <= b + 1e-12)


def box_mask(domain: Domain, x0, x1, y0, y1) -> np.ndarray:
    """Mask of cells contained in [x0, x1] x [y0, y1]."""
    if domain.dimension != 2:
        raise ValueError("box_mask needs a 2-D domain")
    for arg, lo, hi in (("x1", x0, x1), ("y1", y0, y1)):
        if not hi > lo:
            raise ArgumentError(arg, f"need {arg} > {lo}, got {hi}")
    hx, hy = domain.h
    cx, cy = domain.cell_multi_index(np.arange(domain.n_cells_total))
    return ((cx * hx >= x0 - 1e-12) & ((cx + 1) * hx <= x1 + 1e-12) &
            (cy * hy >= y0 - 1e-12) & ((cy + 1) * hy <= y1 + 1e-12))


def random_set(domain: Domain, target_measure: float, seed: int,
               kappa=None) -> ObservationSet:
    """Random union of cells with measure within one cell volume of the target."""
    if not (0 < target_measure <= domain.volume + 1e-12):
        raise ArgumentError("target_measure",
                            f"target measure {target_measure} outside (0, {domain.volume}]")
    rng = np.random.default_rng(seed)
    k = int(round(target_measure / domain.cell_volume))
    k = min(max(k, 1), domain.n_cells_total)
    cells = np.sort(rng.choice(domain.n_cells_total, size=k, replace=False))
    mask = np.zeros(domain.n_cells_total, dtype=bool)
    mask[cells] = True
    return set_from_mask(domain, mask, kappa)


def _cantor_intervals(ratio: float, levels: int, a: float, b: float) -> np.ndarray:
    iv = np.array([[a, b]])
    for _ in range(levels):
        ln = (iv[:, 1] - iv[:, 0]) * ratio
        left = np.stack([iv[:, 0], iv[:, 0] + ln], axis=1)
        right = np.stack([iv[:, 1] - ln, iv[:, 1]], axis=1)
        iv = np.concatenate([left, right])
    return iv[np.argsort(iv[:, 0])]


def _snap_to_unknowns(domain: Domain, coords: np.ndarray):
    uc = domain.unknown_coords()
    dist = np.linalg.norm(coords[:, None, :] - uc[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    snap = float(dist[np.arange(coords.shape[0]), nearest].max())
    return np.unique(domain.unknown_nodes[nearest]), snap


def cantor_set(domain: Domain, ratio: float, levels: int,
               placement: tuple | None = None,
               transverse: tuple | None = None) -> ObservationSet:
    """Ratio-r Cantor construction: 2^levels intervals scaled into `placement`,
    represented as the point cloud of their left endpoints (snapped to nodes).

    Declared exponent s = log 2 / log(1/r) (plus 1 for the 2-D product with a
    transverse segment); the declared content is the mass-distribution bound,
    see `hausdorff_content`. A fault in `placement` = (a, b) names its end.
    """
    if not (0 < ratio < 0.5):
        raise ArgumentError("ratio", f"Cantor ratio must lie in (0, 1/2), got {ratio}")
    if levels < 1:
        raise ArgumentError("levels", "need at least one construction level")
    if placement is None:
        placement = (0.0, domain.lengths[0])
    a, b = float(placement[0]), float(placement[1])
    if not 0 <= a:
        raise ArgumentError("a", "placement interval must start inside the domain")
    if not a < b <= domain.lengths[0] + 1e-12:
        raise ArgumentError("b", "placement interval must end above its start, inside the domain")
    iv = _cantor_intervals(ratio, levels, a, b)
    s_nat = np.log(2.0) / np.log(1.0 / ratio)
    meta = {"ratio": float(ratio), "levels": int(levels), "placement": (a, b),
            "intervals": iv, "natural_exponent": float(s_nat)}

    if domain.dimension == 1:
        coords = iv[:, :1].copy()
        exponent = float(s_nat)
    else:
        if transverse is None:
            transverse = (0.0, domain.lengths[1])
        t0, t1 = float(transverse[0]), float(transverse[1])
        if not (0 <= t0 < t1 <= domain.lengths[1] + 1e-12):
            raise ArgumentError("transverse", "transverse segment must sit inside the domain")
        meta["transverse"] = (t0, t1)
        ys = domain.axes[1][(domain.axes[1] >= t0 - 1e-12) & (domain.axes[1] <= t1 + 1e-12)]
        xx, yy = np.meshgrid(iv[:, 0], ys, indexing="ij")
        coords = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        exponent = float(1.0 + s_nat)

    declared = _cantor_mass_bound(meta, s_nat)
    nodes, snap = _snap_to_unknowns(domain, coords)
    margin = float(domain.boundary_distance(domain.node_coords(nodes)).min())
    return ObservationSet(POINT_CLOUD, domain, 0.0, points=nodes, point_coords=coords,
                          snap_distance=snap, exponent=exponent, content=declared,
                          boundary_margin=margin, meta=meta)


def point_cloud(domain: Domain, coords) -> ObservationSet:
    """Explicit point cloud, an (n, d) array of n >= 1 finite points of the
    domain's closed box, snapped to the nearest unknown nodes."""
    coords = np.asarray(coords, dtype=float)
    d = domain.dimension
    if coords.ndim != 2 or coords.shape[1] != d:
        raise ArgumentError("coords", f"expected a list of points with {d} coordinates "
                            f"each, got an array of shape {coords.shape}")
    if coords.shape[0] == 0:
        raise EmptySetError("point cloud is empty")
    if not np.all((coords >= -1e-12) & (coords <= np.asarray(domain.lengths) + 1e-12)):
        raise ArgumentError("coords",
                            "every point must be finite and lie in the domain's closed box")
    nodes, snap = _snap_to_unknowns(domain, coords)
    margin = float(domain.boundary_distance(domain.node_coords(nodes)).min())
    return ObservationSet(POINT_CLOUD, domain, 0.0, points=nodes, point_coords=coords,
                          snap_distance=snap, boundary_margin=margin)


# ---------------------------------------------------------------------------
# Hausdorff content lower bounds
# ---------------------------------------------------------------------------

def _boxes_intersect_cube(boxes, lo, hi) -> bool:
    return bool(np.any(np.all((boxes[:, :, 0] <= hi + 1e-15) &
                              (boxes[:, :, 1] >= lo - 1e-15), axis=1)))

def _box_covers_cube(boxes, lo, hi) -> bool:
    """True if a single box contains the cube (enough for grid-resolved sets)."""
    return bool(np.any(np.all((boxes[:, :, 0] <= lo + 1e-12) &
                              (boxes[:, :, 1] >= hi - 1e-12), axis=1)))

def _points_in_cube(points, lo, hi) -> bool:
    return bool(np.any(np.all((points >= lo - 1e-15) & (points <= hi + 1e-15), axis=1)))


def dyadic_cover_cost(boxes, points, s: float, depth: int) -> float:
    """Exact minimum of sum(side^s) over mixed-depth dyadic-cube covers of the
    geometry, down to cubes of side root/2^depth. Root is the padded bounding
    cube of the geometry, so the value certifies covers at all coarser scales.
    """
    pts_lo, pts_hi = [], []
    if boxes is not None and len(boxes):
        pts_lo.append(np.min(boxes[:, :, 0], axis=0))
        pts_hi.append(np.max(boxes[:, :, 1], axis=0))
    if points is not None and len(points):
        pts_lo.append(np.min(points, axis=0))
        pts_hi.append(np.max(points, axis=0))
    if not pts_lo:
        return 0.0
    lo = np.min(pts_lo, axis=0)
    hi = np.max(pts_hi, axis=0)
    extent = float(np.max(hi - lo))
    if extent <= 0:
        extent = 1e-9
    side = 3.0 * extent  # padding keeps every lattice cube touching the set inside the root
    center = 0.5 * (lo + hi)
    root_lo = center - side / 2

    def rec(cube_lo, cube_side, d_left):
        cube_hi = cube_lo + cube_side
        hit = False
        if boxes is not None and len(boxes) and _boxes_intersect_cube(boxes, cube_lo, cube_hi):
            hit = True
        if not hit and points is not None and len(points) and _points_in_cube(points, cube_lo, cube_hi):
            hit = True
        if not hit:
            return 0.0
        take = cube_side ** s
        if d_left == 0:
            return take
        if boxes is not None and len(boxes) and _box_covers_cube(boxes, cube_lo, cube_hi):
            return take  # splitting a fully covered cube only raises the cost for s <= d
        half = cube_side / 2
        dim = cube_lo.size
        total = 0.0
        for corner in range(2 ** dim):
            off = np.array([(corner >> a) & 1 for a in range(dim)], dtype=float)
            total += rec(cube_lo + off * half, half, d_left - 1)
            if total >= take:
                return take
        return min(take, total)

    return float(rec(root_lo, side, depth))


def content_bound_geometry(boxes, points, s: float, dim: int, depth: int) -> float:
    """Lower bound on the ball-cover content from the dyadic program.

    A ball of radius rho is covered by at most 2^dim lattice cubes of side
    < 4 rho, so cube_cost <= 2^dim 4^s * sum rho^s for any ball cover; the
    bound divides by that factor.
    """
    cost = dyadic_cover_cost(boxes, points, s, depth)
    return cost / (2 ** dim * 4.0 ** s)


def _cantor_mass_bound(meta: dict, s: float) -> float:
    """Mass-distribution content bound of the Cantor construction in `meta`
    at its Cantor exponent s: of the 1-D Cantor set at exponent s, or of its
    product with the transverse segment at exponent 1 + s."""
    a, b = meta["placement"]
    scale, ratio = b - a, meta["ratio"]
    if "transverse" not in meta:
        # Uniform Cantor measure gives mu(I) <= (len(I)/scale)^s (1-2r)^{-s}: an
        # interval shorter than the level-k gap meets one level-k interval only.
        # Balls of radius rho have length 2 rho, hence sum rho^s >= (scale(1-2r)/2)^s.
        return (scale * (1.0 - 2.0 * ratio) / 2.0) ** s
    t0, t1 = meta["transverse"]
    # Product measure: nu(B(rho)) <= mu_c(I_{2rho}) * 2rho/Lt, so
    # sum rho^{1+s} >= (scale(1-2r))^s Lt / 2^{1+s}.
    return (scale * (1.0 - 2.0 * ratio)) ** s * (t1 - t0) / 2.0 ** (1.0 + s)


def hausdorff_content(obs: ObservationSet, s: float) -> float:
    """Certified lower bound on the Hausdorff content at exponent s.

    Cantor clouds at their natural exponent use the mass-distribution bound;
    cell masks at s = d use measure / unit-ball volume; anything else falls
    back to the dyadic-cover program, to depth 12 in 1-D and 8 in 2-D
    (resolution-limited for finite clouds).
    """
    d = obs.domain.dimension
    if not (0 < s <= d):
        raise ValueError(f"exponent must lie in (0, {d}], got {s}")

    if obs.kind == CELL_MASK and abs(s - d) < 1e-12:
        return obs.measure / _UNIT_BALL_VOLUME[d]

    meta = obs.meta
    if "natural_exponent" in meta:
        s_c = meta["natural_exponent"]
        if d == 1 and abs(s - s_c) <= 1e-9:
            return _cantor_mass_bound(meta, s)
        if d == 2 and abs(s - (1.0 + s_c)) <= 1e-9:
            return _cantor_mass_bound(meta, s_c)

    boxes = obs.boxes()
    points = obs.point_coords if boxes is None else None
    return content_bound_geometry(boxes, points, s, d, 12 if d == 1 else 8)
