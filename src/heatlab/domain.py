"""Uniform tensor-product grids on an interval or rectangle, plus Lipschitz
coefficient fields (metric g, density kappa) sampled at the nodes.

Nodes and cells are numbered flat, row-major over their per-axis indices
(last axis fastest). The numbering is private to `Domain`: other modules go
through `node_index`, `node_multi_index`, `cell_multi_index` and `edges`;
only sampled coefficient tables (`load_coefficients_csv`) name nodes by their
flat number. Unknowns are the interior nodes under Dirichlet conditions and
all nodes under Neumann conditions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CoefficientRegularityError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_LIP_SLACK = 1e-9  # relative slack when comparing measured quotients to declared bounds


@dataclass(frozen=True, eq=False)
class Domain:
    """Immutable uniform grid with boundary-condition choice.

    `axes` holds the node coordinates per axis (boundary included), `h` the
    uniform cell width per axis. Unknown bookkeeping is derived once at
    construction and shared read-only.
    """

    dimension: int
    lengths: tuple
    n_cells: tuple
    bc: str
    axes: tuple
    h: tuple
    volume: float
    unknown_nodes: np.ndarray   # flat node indices carrying a degree of freedom
    node_to_unknown: np.ndarray  # inverse map, -1 where the node is eliminated

    @property
    def n_unknowns(self) -> int:
        return int(self.unknown_nodes.size)

    @property
    def _node_shape(self) -> tuple:
        return tuple(n + 1 for n in self.n_cells)

    @property
    def n_nodes_total(self) -> int:
        return int(np.prod(self._node_shape))

    @property
    def n_cells_total(self) -> int:
        return int(np.prod(self.n_cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def node_index(self, *idx):
        """Per-axis node indices -> flat node index."""
        return np.ravel_multi_index(idx, self._node_shape)

    def node_multi_index(self, flat):
        """Flat node index -> per-axis indices."""
        return np.unravel_index(flat, self._node_shape)

    def cell_multi_index(self, flat):
        """Flat cell index -> per-axis indices."""
        return np.unravel_index(flat, self.n_cells)

    def node_coords(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of flat node indices, shape (m, d)."""
        idx = self.node_multi_index(flat)
        return np.stack([self.axes[a][idx[a]] for a in range(self.dimension)], axis=-1)

    def unknown_coords(self) -> np.ndarray:
        return self.node_coords(self.unknown_nodes)

    def _dual_width(self, idx, axes) -> np.ndarray:
        """Product over `axes` of the dual-cell width h (halved at grid ends)
        at the nodes with per-axis indices `idx`."""
        width = np.ones(np.shape(idx[0]))
        for a in axes:
            width *= self.h[a] * np.where((idx[a] == 0) | (idx[a] == self.n_cells[a]), 0.5, 1.0)
        return width

    def dual_volumes(self) -> np.ndarray:
        """Dual-cell volume of each unknown node (half cells at grid ends)."""
        return self._dual_width(self.node_multi_index(self.unknown_nodes), range(self.dimension))

    def edges(self):
        """Yield (axis, a, b, width) for each axis: the flat end nodes a, b of
        every grid edge along that axis (b one step up from a, a ascending)
        and the edge's transverse dual width: 1 in 1-D, else the product of
        the other axes' h, halved on the rim as in `dual_volumes`."""
        shape = self._node_shape
        for axis in range(self.dimension):
            lower = np.indices(shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:])
            lower = lower.reshape(self.dimension, -1)
            upper = lower.copy()
            upper[axis] += 1
            others = [t for t in range(self.dimension) if t != axis]
            yield (axis, self.node_index(*lower), self.node_index(*upper),
                   self._dual_width(lower, others))

    def boundary_distance(self, coords: np.ndarray) -> np.ndarray:
        """Distance of points to the domain boundary."""
        coords = np.atleast_2d(coords)
        d = np.full(coords.shape[0], np.inf)
        for a in range(self.dimension):
            d = np.minimum(d, coords[:, a])
            d = np.minimum(d, self.lengths[a] - coords[:, a])
        return d


def _build(lengths, n_cells, bc) -> Domain:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")
    for L in lengths:
        if not (L > 0):
            raise ValueError(f"domain length must be positive, got {L}")
    for n in n_cells:
        if n < 2:
            raise ValueError(f"need at least 2 cells per axis, got {n}")
    dim = len(lengths)
    axes = tuple(np.linspace(0.0, L, n + 1) for L, n in zip(lengths, n_cells))
    h = tuple(L / n for L, n in zip(lengths, n_cells))

    idx = np.indices(tuple(n + 1 for n in n_cells)).reshape(dim, -1)
    interior = ((idx > 0) & (idx < np.array(n_cells)[:, None])).all(axis=0)
    unknowns = np.flatnonzero(interior | (bc == NEUMANN))
    n_total = idx.shape[1]
    inverse = np.full(n_total, -1, dtype=int)
    inverse[unknowns] = np.arange(unknowns.size)
    volume = float(np.prod(lengths))
    return Domain(dim, tuple(float(L) for L in lengths), tuple(int(n) for n in n_cells),
                  bc, axes, h, volume, unknowns, inverse)


def build_interval(length: float, n_cells: int, bc: str) -> Domain:
    """Uniform grid on (0, length) with `n_cells` cells."""
    return _build((length,), (n_cells,), bc)


def build_rectangle(lx: float, ly: float, nx: int, ny: int, bc: str) -> Domain:
    """Uniform tensor-product grid on (0, lx) x (0, ly)."""
    return _build((lx, ly), (nx, ny), bc)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-node SPD metric g, positive density kappa, and declared Lipschitz
    bounds (verified against axis-wise difference quotients at construction)."""

    domain: Domain
    g: np.ndarray       # (n_nodes_total, d, d)
    kappa: np.ndarray   # (n_nodes_total,)
    lip_g: float
    lip_kappa: float
    measured_lip_g: float
    measured_lip_kappa: float

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        return bool(np.abs(self.g[:, 0, 1:]).max(initial=0.0) <= tol)


def _max_quotients(domain: Domain, g: np.ndarray, kappa: np.ndarray):
    qg = 0.0
    qk = 0.0
    for axis, a, b, _ in domain.edges():
        h = domain.h[axis]
        qg = max(qg, float(np.abs(g[b] - g[a]).max() / h))
        qk = max(qk, float(np.abs(kappa[b] - kappa[a]).max() / h))
    return qg, qk


def _finalize(domain, g, kappa, lip_g, lip_kappa) -> CoefficientField:
    g = np.asarray(g, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    d = domain.dimension
    if g.shape != (domain.n_nodes_total, d, d):
        raise ValueError(f"g has shape {g.shape}, expected {(domain.n_nodes_total, d, d)}")
    if kappa.shape != (domain.n_nodes_total,):
        raise ValueError(f"kappa has shape {kappa.shape}, expected {(domain.n_nodes_total,)}")
    if np.abs(g - np.swapaxes(g, 1, 2)).max() > 1e-12:
        raise CoefficientRegularityError("metric g must be symmetric at every node")
    gmin = float(np.linalg.eigvalsh(g).min())
    if not (gmin > 0):
        raise CoefficientRegularityError(f"metric g is not positive definite (min eigenvalue {gmin:.3e})")
    if not (kappa.min() > 0):
        raise CoefficientRegularityError(f"density kappa must be positive (min {kappa.min():.3e})")
    qg, qk = _max_quotients(domain, g, kappa)
    if lip_g is None:
        lip_g = qg
    if lip_kappa is None:
        lip_kappa = qk
    if qg > lip_g * (1 + _LIP_SLACK) + 1e-14:
        raise CoefficientRegularityError(
            f"measured metric difference quotient {qg:.6g} exceeds declared bound {lip_g:.6g}")
    if qk > lip_kappa * (1 + _LIP_SLACK) + 1e-14:
        raise CoefficientRegularityError(
            f"measured density difference quotient {qk:.6g} exceeds declared bound {lip_kappa:.6g}")
    return CoefficientField(domain, g, kappa, float(lip_g), float(lip_kappa), qg, qk)


def constant_coefficients(domain: Domain, g0=1.0, kappa0=1.0) -> CoefficientField:
    """Spatially constant field; declared Lipschitz bounds are zero."""
    d = domain.dimension
    g0 = np.asarray(g0, dtype=float)
    if g0.ndim == 0:
        g0 = np.eye(d) * float(g0)
    if g0.shape != (d, d):
        raise ValueError(f"g0 must be scalar or {(d, d)}, got {g0.shape}")
    g = np.broadcast_to(g0, (domain.n_nodes_total, d, d)).copy()
    kappa = np.full(domain.n_nodes_total, float(kappa0))
    return _finalize(domain, g, kappa, 0.0, 0.0)


def _reflected_walk(rng, n_steps, base, lip, h):
    """Random walk with per-step slope <= lip, reflected into [0.6, 1.4]*base.

    Reflection never increases a step, so the difference-quotient bound holds.
    """
    lo, hi = 0.6 * base, 1.4 * base
    vals = np.empty(n_steps + 1)
    vals[0] = base
    steps = rng.uniform(-1.0, 1.0, n_steps) * lip * h
    for i, s in enumerate(steps):
        v = vals[i] + s
        if v > hi:
            v = 2 * hi - v
        elif v < lo:
            v = 2 * lo - v
        vals[i + 1] = v
    return vals


def random_lipschitz_coefficients(domain: Domain, lip_g: float, lip_kappa: float,
                                  seed: int, g_base=1.0, kappa_base=1.0) -> CoefficientField:
    """Piecewise-linear random fields whose axis-wise difference quotients stay
    within the declared bounds. 2-D fields are sums of per-axis profiles; the
    metric stays diagonal."""
    rng = np.random.default_rng(seed)
    d = domain.dimension
    n_tot = domain.n_nodes_total
    if d == 1:
        n = domain.n_cells[0]
        kappa = _reflected_walk(rng, n, kappa_base, lip_kappa, domain.h[0])
        g = np.zeros((n_tot, 1, 1))
        g[:, 0, 0] = _reflected_walk(rng, n, g_base, lip_g, domain.h[0])
        return _finalize(domain, g, kappa, lip_g, lip_kappa)
    nx, ny = domain.n_cells
    hx, hy = domain.h

    def separable(base, lip):
        ax = _reflected_walk(rng, nx, base / 2, lip / 2, hx)
        ay = _reflected_walk(rng, ny, base / 2, lip / 2, hy)
        return (ax[:, None] + ay[None, :]).ravel()

    kappa = separable(kappa_base, lip_kappa)
    g = np.zeros((n_tot, 2, 2))
    g[:, 0, 0] = separable(g_base, lip_g)
    g[:, 1, 1] = separable(g_base, lip_g)
    return _finalize(domain, g, kappa, lip_g, lip_kappa)


def coefficients_from_tables(domain: Domain, g, kappa,
                             lip_g=None, lip_kappa=None) -> CoefficientField:
    """Wrap sampled per-node tables. Declared bounds default to the measured
    difference quotients; tighter declarations raise if violated."""
    return _finalize(domain, g, kappa, lip_g, lip_kappa)


def load_coefficients_csv(domain: Domain, path, lip_g=None, lip_kappa=None) -> CoefficientField:
    """Load node tables from CSV rows `node_index, g entries row-major, kappa`."""
    d = domain.dimension
    want = 1 + d * d + 1
    g = np.zeros((domain.n_nodes_total, d, d))
    kappa = np.zeros(domain.n_nodes_total)
    seen = np.zeros(domain.n_nodes_total, dtype=bool)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != want:
                raise ValueError(f"coefficient CSV row has {len(row)} fields, expected {want}")
            i = int(row[0])
            vals = [float(v) for v in row[1:]]
            g[i] = np.array(vals[:d * d]).reshape(d, d)
            kappa[i] = vals[-1]
            seen[i] = True
    if not seen.all():
        raise ValueError(f"coefficient CSV is missing {np.count_nonzero(~seen)} node rows")
    return _finalize(domain, g, kappa, lip_g, lip_kappa)


def make_coefficients(domain: Domain, spec: Mapping) -> CoefficientField:
    """Build a coefficient field from a declarative spec.

    Kinds: constant {g, kappa}; piecewise_linear {lip_g, lip_kappa, seed,
    g_base, kappa_base}; sampled {g, kappa, lip_g, lip_kappa}.
    """
    kind = spec.get("kind")
    if kind == "constant":
        return constant_coefficients(domain, spec.get("g", 1.0), spec.get("kappa", 1.0))
    if kind == "piecewise_linear":
        return random_lipschitz_coefficients(
            domain, spec["lip_g"], spec["lip_kappa"], spec["seed"],
            spec.get("g_base", 1.0), spec.get("kappa_base", 1.0))
    if kind == "sampled":
        return coefficients_from_tables(domain, spec["g"], spec["kappa"],
                                        spec.get("lip_g"), spec.get("lip_kappa"))
    raise ValueError(f"unknown coefficient spec kind {kind!r}")
