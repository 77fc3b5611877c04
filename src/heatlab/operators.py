"""Assembly of the weighted Laplacian -(1/kappa) div g^{-1} kappa grad on the
grid: symmetric stiffness form K plus lumped kappa-weighted mass w.

K is the energy form, u^T K u ~ integral of kappa g^{-1} |grad u|^2, built
edge by edge with coefficients averaged from the nodes. The generalized
eigenproblem K e = lambda^2 (w * e) then reproduces the standard stencil
eigenvalues, e.g. (2 - 2 cos k h)/h^2 on a unit-coefficient interval. The
operator normalization is w^{-1} K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import CoefficientField, Domain
from .errors import UnsupportedGeometryError


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Stiffness form K (symmetric PSD, unknowns only) and mass weights w."""

    domain: Domain
    coefficients: CoefficientField
    K: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def validate(self) -> dict:
        """Measured invariants: symmetry, definiteness, row sums, positivity of w."""
        sym = float(np.abs(self.K - self.K.T).max() / max(np.abs(self.K).max(), 1e-300))
        report = {"symmetry_rel": sym, "w_min": float(self.w.min())}
        if self.domain.bc == "neumann":
            rows = np.abs(self.K.sum(axis=1)).max()
            report["neumann_row_sum"] = float(rows)
            const = np.ones(self.n)
            report["neumann_kernel_residual"] = float(np.linalg.norm(self.K @ const))
        else:
            try:
                np.linalg.cholesky(self.K)
                report["dirichlet_positive_definite"] = True
            except np.linalg.LinAlgError:
                report["dirichlet_positive_definite"] = False
        return report


def _edge_coefficient(coeffs: CoefficientField, a: np.ndarray, b: np.ndarray, axis: int):
    """kappa_e * (g_e^{-1})[axis, axis] with g, kappa averaged to the edge."""
    g_e = 0.5 * (coeffs.g[a] + coeffs.g[b])
    kappa_e = 0.5 * (coeffs.kappa[a] + coeffs.kappa[b])
    g_inv = np.linalg.inv(g_e)
    return kappa_e * g_inv[:, axis, axis]


def assemble(domain: Domain, coeffs: CoefficientField) -> DiscreteOperator:
    """Assemble stiffness and lumped mass for the given grid and coefficients.

    2-D assembly uses the mirror-symmetric 5-point edge scheme and therefore
    requires a diagonal metric; off-diagonal entries are rejected.
    """
    if coeffs.domain is not domain and coeffs.g.shape[0] != domain.n_nodes_total:
        raise ValueError("coefficient field does not match the domain grid")
    if domain.dimension == 2 and not coeffs.is_diagonal():
        raise UnsupportedGeometryError(
            "2-D assembly supports diagonal metrics only (edge scheme carries no cross terms)")

    N = domain.n_unknowns
    K = np.zeros((N, N))
    inv = domain.node_to_unknown

    if domain.dimension == 1:
        n = domain.n_cells[0]
        h = domain.h[0]
        a = np.arange(n)
        b = a + 1
        c = _edge_coefficient(coeffs, a, b, 0) / h  # coefficient * |edge| / h^2
        _accumulate(K, inv[a], inv[b], c)
    else:
        nx, ny = domain.n_cells
        hx, hy = domain.h
        # x-edges: (ix, iy) -- (ix+1, iy); transverse dual width hy (halved on rim)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny + 1), indexing="ij")
        a = (ix * (ny + 1) + iy).ravel()
        b = a + (ny + 1)
        ty = np.where((iy == 0) | (iy == ny), 0.5, 1.0).ravel() * hy
        c = _edge_coefficient(coeffs, a, b, 0) * ty / hx
        _accumulate(K, inv[a], inv[b], c)
        # y-edges: (ix, iy) -- (ix, iy+1)
        ix, iy = np.meshgrid(np.arange(nx + 1), np.arange(ny), indexing="ij")
        a = (ix * (ny + 1) + iy).ravel()
        b = a + 1
        tx = np.where((ix == 0) | (ix == nx), 0.5, 1.0).ravel() * hx
        c = _edge_coefficient(coeffs, a, b, 1) * tx / hy
        _accumulate(K, inv[a], inv[b], c)

    w = coeffs.kappa[domain.unknown_nodes] * domain.dual_volumes()
    return DiscreteOperator(domain, coeffs, K, w)


def _accumulate(K, ia, ib, c):
    """Add c*(u_b - u_a)^2 edge terms; endpoints mapped to -1 are eliminated."""
    ma, mb = ia >= 0, ib >= 0
    np.add.at(K, (ia[ma], ia[ma]), c[ma])
    np.add.at(K, (ib[mb], ib[mb]), c[mb])
    m = ma & mb
    np.add.at(K, (ia[m], ib[m]), -c[m])
    np.add.at(K, (ib[m], ia[m]), -c[m])

