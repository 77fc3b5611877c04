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
import scipy.sparse

from .domain import CoefficientField, Domain
from .errors import UnsupportedGeometryError


class StiffnessMatrix(scipy.sparse.csr_matrix):
    """CSR matrix whose `nbytes` is its stored bytes: data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Stiffness form K (symmetric PSD, unknowns only) and mass weights w.

    K is sparse (CSR), with the stencil's few entries per row. The
    eigensolvers, the residual checks and the parity extension multiply and
    factor it as it is; a 1-D (tridiagonal) K is never densified, and only
    the dense 2-D eigensolve densifies it."""

    domain: Domain
    coefficients: CoefficientField
    K: StiffnessMatrix
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.K.shape[0]


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
    if not coeffs.is_diagonal():
        raise UnsupportedGeometryError(
            "2-D assembly supports diagonal metrics only (edge scheme carries no cross terms)")

    inv = domain.node_to_unknown
    triplets = []
    for axis, a, b, width in domain.edges():
        # coefficient * transverse dual width / h: the edge's share of the energy form
        c = _edge_coefficient(coeffs, a, b, axis) * width / domain.h[axis]
        triplets += _edge_triplets(inv[a], inv[b], c)
    rows, cols, vals = (np.concatenate(t) for t in zip(*triplets))

    w = coeffs.kappa[domain.unknown_nodes] * domain.dual_volumes()
    return DiscreteOperator(domain, coeffs, _csr(rows, cols, vals, domain.n_unknowns), w)


def _edge_triplets(ia, ib, c):
    """(row, col, value) triplets of the c*(u_b - u_a)^2 edge terms; endpoints
    mapped to -1 are eliminated."""
    ma, mb = ia >= 0, ib >= 0
    m = ma & mb
    return [(ia[ma], ia[ma], c[ma]), (ib[mb], ib[mb], c[mb]),
            (ia[m], ib[m], -c[m]), (ib[m], ia[m], -c[m])]


def _csr(rows, cols, vals, n) -> StiffnessMatrix:
    """n x n CSR matrix with duplicate (row, col) triplets summed in the
    order given, one after another, so every entry is the same float a
    sequential accumulation into a dense array gives."""
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    data = np.zeros(keys.size)
    np.add.at(data, slot, vals)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return StiffnessMatrix((data, keys % n, indptr), shape=(n, n))

