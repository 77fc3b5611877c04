"""Eigenpairs of the discrete operator, spectral projectors, heat semigroup,
the sinh-in-time elliptic lift, and spectral-asymptotics diagnostics.

The generalized problem K e = lambda^2 (w * e) is solved densely after
symmetrizing by w^{-1/2}, or, for a low band of a large operator, by
shift-invert Lanczos whose completeness is certified by Sylvester inertia
counts. Eigenvectors are orthonormal in the kappa-weighted inner product
<u, v>_w = sum w_i u_i v_i. Frequencies are lambda_k = sqrt of the
eigenvalues, ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import InsufficientDataError, NumericalFailureError
from .operators import DiscreteOperator


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenfrequencies and w-orthonormal eigenvectors."""

    operator: DiscreteOperator
    frequencies: np.ndarray        # lambda_k >= 0, ascending
    vectors: np.ndarray            # (n_unknowns, n_modes), columns w-orthonormal
    weights: np.ndarray            # mass weights w
    validation: dict | None = None  # the validate() report compute_spectrum checked

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.frequencies ** 2

    @property
    def n_modes(self) -> int:
        return self.vectors.shape[1]

    @property
    def complete(self) -> bool:
        return self.n_modes == self.vectors.shape[0]

    def inner(self, u, v) -> float:
        return float(np.sum(self.weights * np.asarray(u) * np.asarray(v)))

    def norm(self, u) -> float:
        return float(np.sqrt(np.sum(self.weights * np.asarray(u) ** 2)))

    def coefficients(self, f) -> np.ndarray:
        """Modal coefficients u_k = <f, e_k>_w of nodal values f."""
        return self.vectors.T @ (self.weights * np.asarray(f, dtype=float))

    def synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self.vectors @ np.asarray(coeffs, dtype=float)

    def band(self, lam_max: float) -> np.ndarray:
        """Indices of modes with frequency <= lam_max."""
        return np.where(self.frequencies <= lam_max)[0]

    def resolved_band(self) -> np.ndarray:
        """Modes with positive frequency resolved by the grid: lambda * h <= 1."""
        hmax = max(self.operator.domain.h)
        return np.where((self.frequencies * hmax <= 1.0) & (self.frequencies > 1e-12))[0]

    def sup_norms(self) -> np.ndarray:
        return np.abs(self.vectors).max(axis=0)

    def validate(self) -> dict:
        """Orthonormality and generalized-eigen residual diagnostics."""
        G = self.vectors.T @ (self.weights[:, None] * self.vectors)
        ortho = float(np.abs(G - np.eye(self.n_modes)).max())
        R = self.operator.K_csr @ self.vectors - (self.weights[:, None] * self.vectors) * self.eigenvalues
        res = float(np.max(np.linalg.norm(R, axis=0) /
                           np.maximum(np.linalg.norm(self.vectors, axis=0), 1e-300)))
        asc = bool(np.all(np.diff(self.frequencies) >= -1e-12))
        return {"orthonormality": ortho, "eigen_residual": res, "ascending": asc}


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


# Band requests on at least this many unknowns are solved for the band only;
# below it a dense solve costs about as much (399 unknowns: 0.025 s dense,
# 0.021 s band; 841 unknowns: 0.17 s dense, 0.035 s band).
_BAND_MIN_UNKNOWNS = 512
# Bands holding more than this share of the unknowns are solved densely: the
# band solve overtakes the dense one near 15% (1,936 unknowns: 1.49 s dense;
# band 0.62 s at 10%, 1.44 s at 15%, 2.9 s at 20%).
_BAND_MAX_SHARE = 0.1


def _count_below(K, W, s: float) -> int | None:
    """Number of eigenvalues of K e = mu W e below s, by Sylvester's law of
    inertia: with symmetric row and column permutations, K - s W = L D L^T and
    the count is the number of negative pivots on the diagonal of U = D L^T.
    None when the factorization pivoted off the diagonal, which voids the count.
    """
    try:
        lu = scipy.sparse.linalg.splu((K - s * W).tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot: s is an eigenvalue
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _certify(K, W, lam2: np.ndarray, counts=()) -> bool:
    """Check the ascending eigenvalues `lam2` found by a band solve against
    inertia counts: just below the top value found, and at each known
    (shift, count) pair, the pencil must have exactly as many eigenvalues
    below the shift as were found. Raises NumericalFailureError on a mismatch
    (a mode was skipped); returns False when a count is void.
    """
    top = lam2[-1]
    # far above the round-off of the values found, far below their spacing
    below_top = top - 1e-9 * max(abs(top), 1.0)
    checks = [(below_top, _count_below(K, W, below_top)), *counts]
    for s, true in checks:
        if true is None:
            return False
        found = int(np.count_nonzero(lam2 < s))
        if found != true:
            raise NumericalFailureError(
                "band eigensolver skipped eigenpairs",
                {"shift": float(s), "inertia_count": true, "found": found})
    return True


def _band_solve(op: DiscreteOperator, lam_max: float | None, count: int | None):
    """(eigenvalues, vectors) of the requested band by shift-invert Lanczos,
    inertia-certified; None when the dense solve should run instead."""
    if op.n < _BAND_MIN_UNKNOWNS:
        return None
    K = op.K_csr
    W = scipy.sparse.diags(op.w)
    counts = ()
    if lam_max is not None:
        k = _count_below(K, W, lam_max ** 2)
        if k is None:
            return None
        if k == 0:
            raise ValueError("no eigenpairs in the requested band")
        counts = ((lam_max ** 2, k),)
    else:
        k = count
    if k > _BAND_MAX_SHARE * op.n:
        return None
    # A fixed generic start vector keeps ARPACK bitwise reproducible; a
    # symmetric one (like sqrt(w) on a symmetric grid) would hide whole
    # symmetry classes of modes from the Krylov space.
    v0 = np.random.default_rng(0).standard_normal(op.n)
    try:
        lam2, Y = scipy.sparse.linalg.eigsh(K, k=k, M=W, sigma=-1e-8, which="LM",
                                            tol=0, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailureError(
            "eigensolver did not converge",
            {"converged": len(getattr(exc, "eigenvalues", [])), "requested": k}) from exc
    order = np.argsort(lam2)
    lam2, Y = lam2[order], Y[:, order]
    if not _certify(K, W, lam2, counts):
        return None
    return lam2, Y / np.sqrt(np.sum(op.w[:, None] * Y ** 2, axis=0))


def _dense_solve(op: DiscreteOperator):
    """All eigenpairs, from the w^{-1/2}-symmetrized matrix."""
    w_isqrt = 1.0 / np.sqrt(op.w)
    A = (op.K * w_isqrt[:, None]) * w_isqrt[None, :]
    lam2, Y = scipy.linalg.eigh(0.5 * (A + A.T))
    return lam2, w_isqrt[:, None] * Y


def compute_spectrum(op: DiscreteOperator, lam_max: float | None = None,
                     count: int | None = None) -> Spectrum:
    """All eigenpairs with lambda <= lam_max, or the first `count`.

    A band request on at least _BAND_MIN_UNKNOWNS unknowns is solved for that
    band only, by shift-invert Lanczos certified with Sylvester inertia counts.
    The complete spectrum, small operators and wide bands are solved densely.
    """
    if lam_max is None and count is None:
        count = op.n
    if count is not None:
        count = int(count)
        if not (1 <= count <= op.n):
            raise ValueError(f"count must be in [1, {op.n}], got {count}")

    band = lam_max is not None or count < op.n
    solved = _band_solve(op, lam_max, count) if band else None
    lam2, vectors = solved if solved is not None else _dense_solve(op)
    freqs = np.sqrt(np.maximum(lam2, 0.0))
    if lam_max is not None:
        keep = freqs <= lam_max
        freqs, vectors = freqs[keep], vectors[:, keep]
    elif count is not None:
        freqs, vectors = freqs[:count], vectors[:, :count]
    if freqs.size == 0:
        raise ValueError("no eigenpairs in the requested band")
    spec = Spectrum(op, freqs, _fix_signs(vectors), op.w)
    rep = spec.validate()
    if rep["orthonormality"] > 1e-8 or rep["eigen_residual"] > 1e-8:
        raise NumericalFailureError("eigenpair invariants violated", rep)
    return replace(spec, validation=rep)


def project_low(spectrum: Spectrum, f, lam_max: float) -> np.ndarray:
    """Nodal values of the orthogonal projection onto the span of modes with
    lambda_k <= lam_max."""
    if lam_max < 0:
        raise ValueError("lam_max must be nonnegative")
    u = spectrum.coefficients(f)
    u[spectrum.frequencies > lam_max] = 0.0
    return spectrum.synthesize_values(u)


def heat_propagate(spectrum: Spectrum, f, t: float) -> np.ndarray:
    """Nodal values of e^{t Delta} f on the computed span (exact when the
    spectrum is complete)."""
    if t < 0:
        raise ValueError("heat flow requires t >= 0")
    return spectrum.synthesize_values(spectrum.coefficients(f) * np.exp(-spectrum.eigenvalues * t))


def elliptic_lift(spectrum: Spectrum, coeffs: np.ndarray, lam_max: float,
                  t_grid: np.ndarray) -> np.ndarray:
    """Space-time field u(t, x) = sum u_k sinh(lambda_k t)/lambda_k e_k(x) over
    the band lambda_k <= lam_max, with sinh(lambda t)/lambda := t at lambda=0.

    Satisfies u(0,.) = 0 and dt u(0,.) = sum u_k e_k discretely.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (spectrum.n_modes,):
        raise ValueError(f"coefficient vector has shape {coeffs.shape}, expected {(spectrum.n_modes,)}")
    high = np.abs(coeffs[spectrum.frequencies > lam_max])
    if high.size and high.max() > 1e-12 * max(np.abs(coeffs).max(), 1e-300):
        raise ValueError("lift input must vanish above the requested band")
    t_grid = np.asarray(t_grid, dtype=float)
    lam = spectrum.frequencies
    out = np.empty((t_grid.size, spectrum.vectors.shape[0]))
    for i, t in enumerate(t_grid):
        fac = np.where(lam > 1e-14, np.sinh(np.minimum(lam * t, 700.0)) / np.where(lam > 1e-14, lam, 1.0), t)
        out[i] = spectrum.synthesize_values(coeffs * fac)
    return out


def lift_residual(spectrum: Spectrum, u: np.ndarray, t_grid: np.ndarray) -> float:
    """Max interior-time w-norm of (D_t^2 - w^{-1}K) u, the discrete residual of
    the lifted equation (second time derivative balances the spatial operator)."""
    t_grid = np.asarray(t_grid, dtype=float)
    dt = np.diff(t_grid)
    if not np.allclose(dt, dt[0], rtol=1e-10, atol=0):
        raise ValueError("lift residual expects a uniform time grid")
    dt = dt[0]
    K, w = spectrum.operator.K_csr, spectrum.weights
    worst = 0.0
    for i in range(1, t_grid.size - 1):
        d2t = (u[i + 1] - 2 * u[i] + u[i - 1]) / dt ** 2
        r = d2t - (K @ u[i]) / w
        worst = max(worst, float(np.sqrt(np.sum(w * r ** 2))))
    return worst


def _log_fit(x: np.ndarray, y: np.ndarray) -> float:
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1])


def weyl_exponent(spectrum: Spectrum, min_modes: int = 30) -> float:
    """Least-squares slope of log lambda_k vs log k over the resolved band."""
    band = spectrum.resolved_band()
    if band.size < min_modes:
        raise InsufficientDataError(
            f"{band.size} resolved modes, need at least {min_modes} for the growth fit")
    k = np.arange(1, band.size + 1, dtype=float)
    return _log_fit(np.log(k), np.log(spectrum.frequencies[band]))


def eigen_sup_exponent(spectrum: Spectrum, min_modes: int = 30) -> float:
    """Slope of log ||e_k||_inf vs log(1 + lambda_k) over the resolved band."""
    band = spectrum.resolved_band()
    if band.size < min_modes:
        raise InsufficientDataError(
            f"{band.size} resolved modes, need at least {min_modes} for the sup-norm fit")
    sup = np.abs(spectrum.vectors[:, band]).max(axis=0)
    return _log_fit(np.log1p(spectrum.frequencies[band]), np.log(sup))


def sup_embedding_constant(spectrum: Spectrum, sigma: float) -> float:
    """Sharp constant C in ||sum u_k e_k||_inf <= C (sum |u_k|^2 (1+lambda_k)^{2 sigma})^{1/2}
    over the computed span: max_x sqrt(sum_k (1+lambda_k)^{-2 sigma} e_k(x)^2)."""
    decay = (1.0 + spectrum.frequencies) ** (-2.0 * sigma)
    point = np.sqrt((spectrum.vectors ** 2 * decay[None, :]).sum(axis=1))
    return float(point.max())
