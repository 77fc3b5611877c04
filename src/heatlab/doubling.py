"""Boundary machinery at Lipschitz regularity: the metric-unit inward normal,
its harmonic-extension (Poisson kernel) smoothing in the collar variable, the
resulting boundary-adapted map with its pulled-back metric, and the reflected
double of an interval or rectangle on which eigenfunctions extend by parity.

The chart lives on a half space {y >= 0} x R_z with a 2x2 metric a(y, z); the
map phi(s, z) = (0, z) + s m(|s|, z) replaces geodesic normal coordinates,
which do not exist at this regularity. Its pullback metric b equals
diag(1, b') on the boundary with zero off-diagonal, which is what makes the
reflected metric on the double merely Lipschitz instead of discontinuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (DIRICHLET, CoefficientField, Domain, build_interval, build_rectangle,
                     coefficients_from_tables)
from .errors import DegenerateChartError
from .operators import DiscreteOperator, assemble


# ---------------------------------------------------------------------------
# inward normal
# ---------------------------------------------------------------------------

def boundary_normal(a: np.ndarray):
    """Metric-unit inward normal n = lambda^{-1/2} a^{-1} e_1 with the
    normalizer lambda = (a^{-1})_00, per boundary node.

    `a` has shape (m, d, d) or (d, d); returns (n, lambda) with n of shape
    (m, d). Each n satisfies n.a.n = 1 and is a-orthogonal to the boundary.
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    if np.abs(a - np.swapaxes(a, 1, 2)).max() > 1e-12:
        raise ValueError("boundary metric must be symmetric")
    evals = np.linalg.eigvalsh(a)
    if evals.min() <= 0:
        raise ValueError(f"boundary metric must be positive definite (min eig {evals.min():.3e})")
    a_inv = np.linalg.inv(a)
    lam = a_inv[:, 0, 0]
    n = a_inv[:, :, 0] / np.sqrt(lam)[:, None]
    if single:
        return n[0], float(lam[0])
    return n, lam


# ---------------------------------------------------------------------------
# Poisson kernel smoothing in the collar variable
# ---------------------------------------------------------------------------

TAIL_MASS = 1e-6   # relative kernel mass dropped by the quadrature truncation


def poisson_kernel(s: float, z: np.ndarray) -> np.ndarray:
    return (1.0 / math.pi) * s / (s * s + z * z)


def kernel_mass(s: float, dz: float) -> float:
    """Mass of the tail-truncated kernel quadrature at spacing dz: a direct
    lattice sum over 2000 spacings on each side of the peak plus the integral
    of the remaining ring up to the 1e-6-tail radius."""
    if s <= 0:
        raise ValueError("kernel mass needs s > 0")
    j = np.arange(-2000, 2001)
    direct = float(poisson_kernel(s, j * dz).sum() * dz)
    r_direct = j[-1] * dz
    r_tail = s * math.tan(math.pi / 2 * (1 - TAIL_MASS))
    if r_tail > r_direct:
        direct += (2 / math.pi) * (math.atan(r_tail / s) - math.atan(r_direct / s))
    return direct


def smooth_normal(n0: np.ndarray, chi: np.ndarray, s_grid: np.ndarray,
                  z_grid: np.ndarray) -> np.ndarray:
    """Harmonic extension m(s, z) of the cutoff normal field chi * n0 into the
    collar: convolution with the Poisson kernel at each s > 0, identity at
    s = 0 (exact on the grid).

    `n0` is (nz, d), `chi` is (nz,); returns (ns, nz, d). The integrand is
    compactly supported in the window, so the quadrature truncation is exact.
    On the uniform z grid the quadrature is a Toeplitz product, computed as a
    zero-padded FFT convolution with the kernel sampled once per level on the
    lags -(nz-1)..(nz-1).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid < 0):
        raise ValueError("collar grid must satisfy s >= 0")
    z_grid = np.asarray(z_grid, dtype=float)
    nz = z_grid.size
    dz = float(z_grid[1] - z_grid[0])
    source = chi[:, None] * n0             # (nz, d)
    out = np.empty((s_grid.size, nz, n0.shape[1]))
    out[s_grid == 0.0] = source
    pos = s_grid > 0.0
    if pos.any():
        lags = np.arange(-(nz - 1), nz) * dz
        kernel = poisson_kernel(s_grid[pos, None], lags[None, :]) * dz
        # a power-of-two length >= 2 nz - 1: the slice below then holds only
        # lags of the linear convolution, with no wrap-around
        size = 1 << (2 * nz - 2).bit_length()
        conv = np.fft.irfft(np.fft.rfft(kernel, size, axis=1)[:, :, None]
                            * np.fft.rfft(source, size, axis=0)[None], size, axis=1)
        out[pos] = conv[:, nz - 1:2 * nz - 1]
    return out


# ---------------------------------------------------------------------------
# boundary chart and its diagnostics
# ---------------------------------------------------------------------------

def default_cutoff(inner: float = 0.5, outer: float = 0.8):
    """Smooth cutoff: 1 on |z| <= inner, 0 beyond outer, with all derivatives
    vanishing at the junctions (a curvature jump there would leak a
    log(1/s) spike into the collar second differences)."""

    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    def chi(z):
        t = (np.abs(z) - inner) / (outer - inner)
        t = np.clip(t, 0.0, 1.0)
        a = bump(1.0 - t)
        b = bump(t)
        return a / (a + b + 1e-300)

    return chi


@dataclass(eq=False)
class BoundaryChart:
    """Collar chart data: grids, metric callable, cutoff, normal field, its
    smoothing, and the boundary-adapted map phi on the symmetric s grid."""

    a_fn: object                   # a_fn(y, z) -> (..., 2, 2), defined for y >= 0
    s_grid: np.ndarray             # symmetric, includes 0
    z_grid: np.ndarray
    chi: np.ndarray                # cutoff sampled on z_grid
    normal: np.ndarray             # (nz, 2) inward unit normal at y = 0
    m: np.ndarray                  # (ns, nz, 2) smoothed field at |s| levels
    phi: np.ndarray                # (ns, nz, 2) map values
    core: np.ndarray               # z indices where chi == 1 (diagnostic region)


def build_chart(a_fn, s_max: float, n_s: int, z_extent: float, n_z: int,
                cutoff=None) -> BoundaryChart:
    """Assemble the collar chart on [-s_max, s_max] x [-z_extent, z_extent].

    The kernel quadrature resolves collar levels with s >= ~2 dz only, so
    refinement studies should shrink both spacings together.
    """
    if cutoff is None:
        cutoff = default_cutoff(0.5 * z_extent, 0.8 * z_extent)
    z_grid = np.linspace(-z_extent, z_extent, n_z)
    s_half = np.linspace(0.0, s_max, n_s + 1)
    s_grid = np.concatenate([-s_half[:0:-1], s_half])
    chi = np.asarray(cutoff(z_grid), dtype=float)
    a0 = np.asarray(a_fn(np.zeros_like(z_grid), z_grid), dtype=float)
    n0, _ = boundary_normal(a0)
    m_half = smooth_normal(n0, chi, s_half, z_grid)
    ns = s_grid.size
    m = np.empty((ns, z_grid.size, 2))
    phi = np.empty_like(m)
    for i, s in enumerate(s_grid):
        mi = m_half[abs(i - (n_s))]    # m(|s|, z); index distance from s = 0
        m[i] = mi
        phi[i, :, 0] = s * mi[:, 0]
        phi[i, :, 1] = z_grid + s * mi[:, 1]
    core = np.where(chi >= 1.0 - 1e-12)[0]
    return BoundaryChart(a_fn, s_grid, z_grid, chi, n0, m, phi, core)


@dataclass(frozen=True)
class ChartDiagnostics:
    unit_normal_dev: float
    orthogonality_dev: float
    m0_dev: float                   # m(0,.) against chi * n (exact by construction)
    b0_algebraic: np.ndarray        # (nz_core, 2, 2) pullback at s = 0 from the closed form
    b0_offdiag_max: float
    b0_normal_dev: float            # max |b_00 - 1| on the core
    b_tangent_min: float            # min of b' on the core (positive = SPD)
    b_fd_offdiag_max: float         # off-diagonal at the first collar level, FD Jacobian
    d2_phi_max: dict
    kernel_mass_range: tuple


def pseudo_geodesic_diag(chart: BoundaryChart) -> ChartDiagnostics:
    """Boundary-map diagnostics: normal identities, Jacobian invertibility,
    the diag(1, b') structure of the pulled-back metric at the boundary, and
    finite-difference curvature (W2-infinity surrogate) bounds."""
    z = chart.z_grid
    n0, chi = chart.normal, chart.chi
    a0 = np.asarray(chart.a_fn(np.zeros_like(z), z), dtype=float)

    unit = np.einsum("mi,mij,mj->m", n0, a0, n0)
    tangent = np.einsum("mi,mij->mj", n0, a0)[:, 1]
    unit_dev = float(np.abs(unit - 1).max())
    orth_dev = float(np.abs(tangent).max())

    source = chi[:, None] * n0
    i0 = np.where(chart.s_grid == 0.0)[0][0]
    m0_dev = float(np.abs(chart.m[i0] - source).max())

    dets = source[:, 0]            # det of [[chi n_y, 0], [chi n_z, 1]]
    core = chart.core
    min_det = float(np.abs(dets[core]).min()) if core.size else 0.0
    if min_det < 1e-10:
        raise DegenerateChartError(
            f"map Jacobian degenerates on the boundary (min |det| = {min_det:.3e})")

    # closed-form pullback at s = 0 on the core
    J0 = np.zeros((core.size, 2, 2))
    J0[:, 0, 0] = source[core, 0]
    J0[:, 1, 0] = source[core, 1]
    J0[:, 1, 1] = 1.0
    b0 = np.einsum("mki,mkl,mlj->mij", J0, a0[core], J0)
    b0_off = float(np.abs(b0[:, 0, 1]).max())
    b0_ndev = float(np.abs(b0[:, 0, 0] - 1).max())
    b_tan_min = float(b0[:, 1, 1].min())

    # FD pullback at the first positive collar level
    ds = float(chart.s_grid[i0 + 1] - chart.s_grid[i0])
    dz = float(z[1] - z[0])
    dphi_ds = (chart.phi[i0 + 2] - chart.phi[i0]) / (2 * ds)
    dphi_dz = np.gradient(chart.phi[i0 + 1], dz, axis=0)
    J = np.stack([np.stack([dphi_ds[:, 0], dphi_dz[:, 0]], axis=-1),
                  np.stack([dphi_ds[:, 1], dphi_dz[:, 1]], axis=-1)], axis=1)
    y_eval = np.maximum(chart.phi[i0 + 1, :, 0], 0.0)
    a_eval = np.asarray(chart.a_fn(y_eval, chart.phi[i0 + 1, :, 1]), dtype=float)
    b_fd = np.einsum("mki,mkl,mlj->mij", J, a_eval, J)
    b_fd_off = float(np.abs(b_fd[core, 0, 1]).max())

    # curvature surrogates over the core, all three second differences
    ph = chart.phi[:, core, :]
    d2s = np.abs(np.diff(ph, 2, axis=0)).max() / ds ** 2
    d2z = np.abs(np.diff(ph, 2, axis=1)).max() / dz ** 2
    dsz = np.abs(np.diff(np.diff(ph, axis=0), axis=1)).max() / (ds * dz)
    d2 = {"ss": float(d2s), "zz": float(d2z), "sz": float(dsz)}

    masses = [kernel_mass(s, dz) for s in chart.s_grid if s > 0]
    mass_range = (float(min(masses)), float(max(masses))) if masses else (1.0, 1.0)

    return ChartDiagnostics(unit_dev, orth_dev, m0_dev, b0, b0_off,
                            b0_ndev, b_tan_min, b_fd_off, d2, mass_range)


# ---------------------------------------------------------------------------
# the reflected double
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DoubledSystem:
    """Reflected double across the x = 0 boundary side: glued grid, even
    coefficients, operator with no interface condition, and the index maps
    needed to extend one-sided vectors."""

    source_domain: Domain
    domain: Domain
    coefficients: CoefficientField
    operator: DiscreteOperator
    glue_axis_index: int           # node index of the interface along axis 0

    def interface_jump(self) -> float:
        """Max coefficient mismatch across the glue line (continuity check)."""
        dom, cf = self.domain, self.coefficients
        ix = dom.node_multi_index(np.arange(dom.n_nodes_total))[0]
        left, right = ix == self.glue_axis_index - 1, ix == self.glue_axis_index + 1
        dk = np.abs(cf.kappa[left] - cf.kappa[right]).max()
        dg = np.abs(np.diagonal(cf.g[left] - cf.g[right], axis1=1, axis2=2)).max()
        return float(max(dk, dg))


def double_domain(domain: Domain, coeffs: CoefficientField) -> DoubledSystem:
    """Reflect the domain and its coefficients across the x = 0 boundary side
    and assemble the glued operator (outer boundary keeps the original
    condition, the interface gets none)."""
    n = domain.n_cells[0]
    if domain.dimension == 1:
        doubled = build_interval(2 * domain.lengths[0], 2 * n, domain.bc)
    else:
        doubled = build_rectangle(2 * domain.lengths[0], domain.lengths[1],
                                  2 * n, domain.n_cells[1], domain.bc)
    idx = list(doubled.node_multi_index(np.arange(doubled.n_nodes_total)))
    flip = idx[0] < n                  # mirrored copy flips the off-diagonal sign
    idx[0] = np.abs(idx[0] - n)
    src = domain.node_index(*idx)
    g2 = coeffs.g[src].copy()
    kappa2 = coeffs.kappa[src].copy()
    g2[flip, 0, 1:] *= -1.0
    g2[flip, 1:, 0] *= -1.0
    coeffs2 = coefficients_from_tables(doubled, g2, kappa2)
    op2 = assemble(doubled, coeffs2)
    return DoubledSystem(domain, doubled, coeffs2, op2, n)


def extend_eigenfunction(doubled: DoubledSystem, eigvec: np.ndarray, lam_sq: float):
    """Parity extension of a one-sided eigenvector onto the double: odd for
    Dirichlet data, even for Neumann (the source domain's condition). Returns
    the extended vector over the doubled unknowns and the generalized-eigen
    residual ||K ext - lam_sq (w * ext)|| / ||ext||."""
    src_dom = doubled.source_domain
    parity = -1.0 if src_dom.bc == DIRICHLET else 1.0
    eigvec = np.asarray(eigvec, dtype=float)
    if eigvec.shape != (src_dom.n_unknowns,):
        raise ValueError(f"eigenvector has shape {eigvec.shape}, "
                         f"expected {(src_dom.n_unknowns,)}")

    dom2 = doubled.domain
    idx = list(dom2.node_multi_index(dom2.unknown_nodes))
    j = idx[0] - doubled.glue_axis_index
    idx[0] = np.abs(j)
    s_idx = src_dom.node_to_unknown[src_dom.node_index(*idx)]
    # nodes mapped to -1 lie on the glued Dirichlet trace, which is zero
    vals = np.where(s_idx >= 0, eigvec[np.maximum(s_idx, 0)], 0.0)
    ext = np.where(j < 0, parity, 1.0) * vals

    op2 = doubled.operator
    r = op2.K @ ext - lam_sq * (op2.w * ext)
    residual = float(np.linalg.norm(r) / max(np.linalg.norm(ext), 1e-300))
    return ext, residual
