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
from functools import cached_property

import numpy as np
import scipy.sparse

from .domain import CoefficientField, Domain
from .errors import UnsupportedGeometryError


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Stiffness form K (symmetric PSD, unknowns only) and mass weights w.

    K is dense; `K_csr` is its CSR view, which the eigensolver, the residual
    checks and the parity extension multiply and factor with."""

    domain: Domain
    coefficients: CoefficientField
    K: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @cached_property
    def K_csr(self) -> scipy.sparse.csr_matrix:
        """CSR copy of K, equal to it entry for entry, built on first use and
        shared by every sparse product and factorization of this operator."""
        return scipy.sparse.csr_matrix(self.K)


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

    K = np.zeros((domain.n_unknowns, domain.n_unknowns))
    inv = domain.node_to_unknown
    for axis, a, b, width in domain.edges():
        # coefficient * transverse dual width / h: the edge's share of the energy form
        c = _edge_coefficient(coeffs, a, b, axis) * width / domain.h[axis]
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

