"""Observability constants for low-frequency eigenfunction sums restricted to
observation sets, exponential growth fits in the frequency cutoff, and the
interpolation / telescoping / time-sequence machinery that turns them into
parabolic observability statements.

Norm conventions: the ambient norm is the kappa-weighted discrete L2 norm
||f||_w; restriction to a cell mask uses the set's node weights, so
||f 1_E||_1 = sum w^E_i |f_i|; restriction to a point cloud is the max over
its nodes. All constants are per-instance empirical values on the given grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.optimize is loaded on first attribute access, not at import

from .errors import InsufficientDataError, NumericalFailureError, SearchFailureError
from .obsets import CELL_MASK, ObservationSet
from .spectrum import Spectrum

GRAM_SINGULAR = 1e-14   # below this the restricted Gram is reported unobservable
LP_FEASIBILITY_TOL = 1e-7   # HiGHS primal/dual feasibility tolerance: slack on pruned bounds
_BASIS_MAX_COND = 1e4   # a sup basis beyond this (solve error ~cond*eps > 2e-12) is left to HiGHS
_L1_RESTARTS = 16       # IRLS starts: the Gram minimizer plus seeded random ones
_L1_MAX_ITER = 200      # IRLS iterations per start
_L1_TOL = 1e-8          # relative change of the L1 norm that ends a start
GROWTH_FIT_MIN_POINTS = 5   # finite sweep points a growth fit needs, and cutoffs a sweep needs


def observed_band_svd(P: np.ndarray):
    """Thin SVD (U, sigma, Vt) of a cloud's band rows P (points x modes) if the
    cloud observes the band, else None: it has at least as many points as
    modes, and sigma_min / sigma_max >= LP_FEASIBILITY_TOL, the LP solver's
    resolution. The one floor of constant_sup and the control cutoff."""
    if P.shape[0] < P.shape[1]:
        return None
    U, sigma, Vt = np.linalg.svd(P, full_matrices=False)
    return (U, sigma, Vt) if sigma[-1] >= LP_FEASIBILITY_TOL * sigma[0] else None


# ---------------------------------------------------------------------------
# growth fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    prefactor: float
    rate: float
    r_squared: float
    n_points: int
    degenerate: bool = False


def fit_growth(lambdas, constants) -> GrowthFit:
    """Least squares of log C(Lambda) against Lambda over the finite entries
    of a sweep: the constants C(Lambda) at the cutoffs `lambdas`."""
    lambdas = np.asarray(lambdas, dtype=float)
    constants = np.asarray(constants, dtype=float)
    if lambdas.shape != constants.shape:
        raise ValueError("lambda grid and constants differ in length")
    finite = np.isfinite(constants) & (constants > 0)
    if np.count_nonzero(finite) < GROWTH_FIT_MIN_POINTS:
        raise InsufficientDataError(f"growth fit needs at least {GROWTH_FIT_MIN_POINTS} "
                                    f"finite sweep points, have {np.count_nonzero(finite)}")
    x = lambdas[finite]
    y = np.log(constants[finite])
    if float(y.max() - y.min()) < 1e-12:
        return GrowthFit(float(np.exp(y.mean())), 0.0, float("nan"), x.size, degenerate=True)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    return GrowthFit(float(np.exp(coef[0])), float(coef[1]), r2, x.size)


# ---------------------------------------------------------------------------
# restricted norms
# ---------------------------------------------------------------------------

def observation_norm(obs: ObservationSet, values: np.ndarray) -> float:
    """L1 over a cell mask, sup over a point cloud."""
    if obs.kind == CELL_MASK:
        return float(np.sum(obs.node_weights * np.abs(values)))
    return float(np.abs(obs.rows(values)).max())


# ---------------------------------------------------------------------------
# spectral constants
# ---------------------------------------------------------------------------

def _band(spectrum: Spectrum, lam_max: float) -> np.ndarray:
    band = spectrum.band(lam_max)
    if band.size == 0:
        raise ValueError(f"no modes below cutoff {lam_max}")
    return band


def constant_l2(spectrum: Spectrum, obs: ObservationSet, lam_max: float) -> float:
    """Sharp discrete constant in ||phi||_2 <= C ||phi 1_E||_2 over the band,
    equal to lam_min(G)^{-1/2} for the restricted Gram G of the band. Returns
    inf when G is numerically singular."""
    G = obs.gram(spectrum.vectors[:, _band(spectrum, lam_max)])
    lam_min = float(np.linalg.eigvalsh(G)[0])
    if lam_min < GRAM_SINGULAR:
        return float("inf")
    return lam_min ** -0.5


@dataclass(frozen=True)
class L1Constant:
    value: float
    coefficients: np.ndarray       # band coefficients of the certificate
    certificate: np.ndarray        # nodal values of the certificate
    converged: bool
    floor: float                   # Cauchy-Schwarz floor C_L2 / sqrt(|E|_w)


def constant_l1(spectrum: Spectrum, obs: ObservationSet, lam_max: float,
                seed: int = 0) -> L1Constant:
    """Estimate of sup ||phi||_2 / ||phi 1_E||_1 over the band by iteratively
    reweighted minimization of the restricted L1 norm on the coefficient
    sphere, restarted from the Gram minimizer plus random seeds.

    The reported value is the best certificate found, hence a valid lower
    bound of the true constant; it always dominates the Cauchy-Schwarz floor
    because the Gram minimizer is among the starts.
    """
    band = _band(spectrum, lam_max)
    V = spectrum.vectors[:, band]
    wE = obs.node_weights
    evals, evecs = np.linalg.eigh(obs.gram(V))
    lam_min, u_floor = float(evals[0]), evecs[:, 0]
    floor = float("inf") if lam_min < GRAM_SINGULAR else \
        lam_min ** -0.5 / math.sqrt(obs.weighted_measure)

    def l1_of(u):
        return float(np.sum(wE * np.abs(V @ u)))

    rng = np.random.default_rng(seed)
    starts = [u_floor] + [rng.standard_normal(band.size) for _ in range(_L1_RESTARTS - 1)]
    best_u, best_val, any_converged = None, -float("inf"), False
    for u0 in starts:
        u = u0 / np.linalg.norm(u0)
        prev = l1_of(u)
        if prev <= 1e-300:
            return L1Constant(float("inf"), u, V @ u, True, floor)
        converged = False
        for _ in range(_L1_MAX_ITER):
            weights = wE / np.maximum(np.abs(V @ u), 1e-8)
            M = (V.T * weights) @ V
            u_new = np.linalg.eigh(M)[1][:, 0]
            cur = l1_of(u_new)
            if cur <= 1e-300:
                return L1Constant(float("inf"), u_new, V @ u_new, True, floor)
            done = abs(cur - prev) <= _L1_TOL * max(prev, 1e-300)
            u, prev = u_new, cur
            if done:
                converged = True
                break
        any_converged = any_converged or converged
        if 1.0 / prev > best_val:
            best_val, best_u = 1.0 / prev, u
    return L1Constant(best_val, best_u, V @ best_u, any_converged, floor)


@dataclass(frozen=True)
class SupConstant:
    value: float
    lp_solved: int      # linear programs handed to the solver
    lp_certified: int   # grid nodes settled by the optimal basis of another node's LP
    lp_pruned: int      # grid nodes neither solved nor certified


def constant_sup(spectrum: Spectrum, obs: ObservationSet, lam_max: float) -> SupConstant:
    """Discrete constant sup { ||phi||_inf : phi in the band, |phi| <= 1 on
    the cloud }, the maximum over grid nodes y of the linear program
    g(V[y]) = max { V[y] u : A u <= 1 }, where V is the band basis, P its m
    cloud rows and A = [P; -P].

    The value is exact (the vertex value of an optimal basis) when the
    maximizing node is settled by a basis within _BASIS_MAX_COND. A node
    whose vertex has no such basis keeps HiGHS's float optimum, which is off
    the exact LP optimum by the solver's own error: up to 6.1e-10 relative
    was measured, on a 52-cell Dirichlet interval with 10 modes and
    sigma_min / sigma_max of P at 1.3e-7, just above the floor.

    Every node carries an upper bound on g, and nodes are settled one at a
    time, always the open node with the largest bound, until no bound
    reaches the best value within the solver's feasibility tolerance. A
    skipped node is certified not to beat the best, so the value is that of
    one LP per node. Two mechanisms set the bounds and settle the nodes.

    A priori, LP duality bounds g for every node at once: for any lambda,
    g(c) <= ||lambda||_1 + ||c - P^T lambda||_2 sqrt(m) / sigma_min(P),
    taken at lambda = pinv(P^T) c.

    After each HiGHS solve, k independent rows of A active at its vertex
    (picked by QR with column pivoting) form a basis B with vertex
    u_B = A_B^-1 1, kept only if u_B is feasible within the solver's
    tolerance and cond(A_B) <= _BASIS_MAX_COND. Row y of Lambda = V A_B^-1
    is the dual of node y on B. Every row of A_B is a cloud row or its
    negative, so |A_B u| <= 1 for every feasible u, and g(V[y]) =
    max Lambda_y A_B u <= ||Lambda_y||_1 lowers every open bound. Lambda_y >= 0 proves u_B
    optimal for y (basis optimality: V[y] u <= Lambda_y 1 = V[y] u_B), so
    g(V[y]) = V[y] u_B with no LP and no tolerance: y is certified. The
    solved node takes its value from its basis too, unless that basis does
    not certify it, or its vertex has fewer than k active rows or an
    ill-conditioned or infeasible basis; then it keeps the solver's value.
    Each basis is dropped once its bounds and certificates are applied.
    Lambda is solved from A_B, so its error is about cond(A_B) * eps
    relative, below about 1e-10 at the condition cap; the
    LP_FEASIBILITY_TOL slack on pruning covers it.

    Below the floor it shares with the control cutoff (observed_band_svd:
    sigma_min / sigma_max of P under LP_FEASIBILITY_TOL) the value is inf,
    before any LP and with every node pruned; above it P has full column
    rank, every LP is bounded, and a solver failure raises. `lp_solved`,
    `lp_certified` and `lp_pruned` count the nodes solved, certified and
    skipped; they add up to the nodes.
    """
    band = _band(spectrum, lam_max)
    V = spectrum.vectors[:, band]
    P = obs.rows(V)
    m, k = P.shape
    svd = observed_band_svd(P)
    if svd is None:
        return SupConstant(float("inf"), 0, 0, V.shape[0])
    U, sigma, Vt = svd
    scale = math.sqrt(m) / (sigma[-1] - sigma[0] * m * np.finfo(float).eps)  # sigma_min less SVD error
    dual = V @ (Vt.T @ ((1 / sigma)[:, None] * U.T))   # row y: pinv(P^T) V[y]
    # the a-priori bound of every node; -inf marks a settled node
    upper = np.abs(dual).sum(axis=1) + np.linalg.norm(V - dual @ P, axis=1) * scale
    A_ub = np.vstack([P, -P])
    b_ub = np.ones(2 * m)
    bounds = [(None, None)] * k
    best, solved, certified = 0.0, 0, 0

    def basis(res):
        """(u_B, V A_B^-1) for k independent rows active at the solver's
        vertex, or None. Rows are picked by LAPACK's QR with column pivoting
        (geqp3): each step takes the row farthest from the span of those
        already picked. Rows that carry the solver's dual are weighted up so
        they go first: at a degenerate vertex B is the solver's own basis."""
        on = np.flatnonzero(A_ub @ res.x >= 1 - 1e-9)
        if on.size < k:
            return None
        left = A_ub[on] * np.where(res.ineqlin.marginals[on] != 0, 2.0 ** 20, 1.0)[:, None]
        A_B = A_ub[on[scipy.linalg.qr(left.T, mode="r", pivoting=True)[1][:k]]]
        if not np.linalg.cond(A_B) <= _BASIS_MAX_COND:
            return None
        u = np.linalg.solve(A_B, np.ones(k))
        if np.abs(P @ u).max() > 1 + LP_FEASIBILITY_TOL:
            return None
        return u, np.linalg.solve(A_B.T, V.T).T

    while True:
        y = int(np.argmax(upper))
        if upper[y] < best * (1 - LP_FEASIBILITY_TOL):
            break
        res = scipy.optimize.linprog(-V[y], A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                                     method="highs")
        solved += 1
        upper[y] = -np.inf
        if res.status != 0:
            raise NumericalFailureError(f"sup-constant LP failed at node {y}",
                                        {"status": res.status, "message": res.message})
        value = -res.fun
        found = basis(res)
        if found is not None:
            u, lam = found
            proven = np.all(lam >= 0, axis=1)
            if proven[y]:                 # y too takes its value from the vertex
                value = V[y] @ u
            proven &= upper > -np.inf
            if proven.any():
                certified += int(proven.sum())
                best = max(best, (V[proven] @ u).max())
                upper[proven] = -np.inf
            np.minimum(upper, np.abs(lam).sum(axis=1), out=upper)
        best = max(best, value)
    return SupConstant(float(best), solved, certified, int(np.sum(upper > -np.inf)))


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationReport:
    lhs: float                 # ||e^{t Delta} f||_2
    obs_norm: float            # ||e^{t Delta} f|| restricted to the set
    s_norm: float              # ||e^{s Delta} f||_2
    n_required: float          # smallest N with lhs <= N e^{N/(t-s)} obs^(1-eps) s_norm^eps
    lambda_opt_closed: float   # balance cutoff e^{Lambda^2 (t-s)} = s_norm/obs
    lambda_opt_numeric: float  # numeric minimizer of the two-term bound
    minimizer_identity_dev: float
    split_margin: float        # high-band decay slack at the balance cutoff
    holds: bool


def _solve_n(target: float, tau: float) -> float:
    """Smallest N > 0 with N * exp(N / tau) = target (monotone in N)."""
    if target <= 0:
        return 0.0
    f = lambda n: math.log(n) + n / tau - math.log(target)
    lo, hi = 1e-12, 1.0
    while f(hi) < 0:
        hi *= 2
        if hi > 1e12:
            return hi
    while f(lo) > 0:
        lo /= 2
        if lo < 1e-300:
            return lo
    return float(scipy.optimize.brentq(f, lo, hi, xtol=1e-14, rtol=1e-12))


def interpolation_check(spectrum: Spectrum, obs: ObservationSet, f,
                        s: float, t: float, epsilon: float = 0.5) -> InterpolationReport:
    """Measure one instance of the two-time interpolation inequality
    ||e^{t D} f||_2 <= N e^{N/(t-s)} obs(t)^{1-eps} ||e^{s D} f||_2^{eps}.

    Also locates the frequency cutoff balancing the low-band observation term
    against the high-band decay term and checks the high-band split
    ||e^{t D} P^L f||_2 <= e^{-L^2 (t-s)} ||e^{s D} f||_2 at that cutoff.
    """
    if not (0 <= s < t):
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    tau = t - s
    coeffs = spectrum.coefficients(f)
    lam2 = spectrum.eigenvalues
    at_t = coeffs * np.exp(-lam2 * t)
    at_s = coeffs * np.exp(-lam2 * s)
    lhs = float(np.linalg.norm(at_t))
    s_norm = float(np.linalg.norm(at_s))
    obs_norm = observation_norm(obs, spectrum.synthesize_values(at_t))
    if obs_norm <= 0 or s_norm <= 0:
        raise ValueError("interpolation check needs a nonzero field on the set")

    ratio = s_norm / obs_norm
    lam_opt_closed = math.sqrt(max(math.log(ratio), 0.0) / tau)

    def two_term(x):  # x = Lambda^2 * tau
        return math.exp(epsilon * x) * obs_norm + math.exp(-(1 - epsilon) * x) * s_norm

    res = scipy.optimize.minimize_scalar(two_term, bounds=(0.0, max(1.0, 4 * math.log(max(ratio, 1.0)) + 10)),
                                         method="bounded", options={"xatol": 1e-12})
    x_num = float(res.x)
    lam_opt_numeric = math.sqrt(max(x_num, 0.0) / tau)
    target_x = math.log(max((1 - epsilon) / epsilon * ratio, 1e-300))
    if target_x <= 0:
        identity_dev = abs(x_num - max(target_x, 0.0))
    else:
        identity_dev = abs(x_num / target_x - 1.0)

    n_req = _solve_n(lhs / (obs_norm ** (1 - epsilon) * s_norm ** epsilon), tau)

    high = spectrum.frequencies > lam_opt_closed
    high_norm = float(np.linalg.norm(at_t[high]))
    split_bound = math.exp(-lam_opt_closed ** 2 * tau) * s_norm
    split_margin = split_bound - high_norm

    holds = lhs <= n_req * math.exp(n_req / tau) * obs_norm ** (1 - epsilon) * s_norm ** epsilon * (1 + 1e-9)
    return InterpolationReport(lhs, obs_norm, s_norm, n_req,
                               lam_opt_closed, lam_opt_numeric, identity_dev,
                               split_margin, holds)


# ---------------------------------------------------------------------------
# time sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeSequence:
    """Monotone times with the construction tag and ratio parameter.

    lr_geometric: increasing control times t_j in (0, T) whose dual
    s_n = T - t_(n-1) (with s_0 = T) contracts by the ratio exactly.
    phung_wang: decreasing times l_m -> anchor with l_(m+1) - l = z^-m (l_1 - l).
    """

    times: np.ndarray
    tag: str
    ratio: float
    horizon: float
    measured_ratios: np.ndarray | None = None

    def __post_init__(self):
        d = np.diff(self.times)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("time sequence must be strictly monotone")

    def dual_times(self) -> np.ndarray:
        """Observation times s_n = T, T - t_0, T - t_1, ... (decreasing to 0)."""
        if self.tag != "lr_geometric":
            raise ValueError("dual times are defined for lr_geometric sequences")
        return self.horizon - np.concatenate([[0.0], self.times])


def validate_lr_ratio(seq: TimeSequence):
    s = seq.dual_times()
    gaps = -np.diff(s)           # s_n - s_(n+1) > 0
    if np.any(gaps[1:] < seq.ratio * gaps[:-1] * (1 - 1e-9)):
        raise ValueError("sequence gaps shrink faster than the declared ratio allows")


# ---------------------------------------------------------------------------
# telescoping observability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelescopeReport:
    lhs: float                    # ||e^{T Delta} f||_2
    obs_terms: np.ndarray         # weighted observations e^{-D/gap_n} obs_n
    c_instance: float             # smallest C with lhs <= C sup_n obs_terms
    step_residuals: np.ndarray    # two-time bound residuals, all <= 0 after fitting
    fitted_a: float
    fitted_b: float
    d_multiple: float
    c_steps: float


def telescope_check(spectrum: Spectrum, obs: ObservationSet, seq: TimeSequence,
                    f, D: float) -> TelescopeReport:
    """Evaluate the telescoped observability bound on one trajectory:
    lhs <= C sup_n e^{-D/(s_n - s_(n+1))} obs(e^{s_n Delta} f), with the dual
    times of the geometric sequence, and fit (A, B) in the per-step two-time
    bounds so their residuals are all nonpositive.
    """
    if seq.tag != "lr_geometric":
        raise ValueError("telescoping needs an lr_geometric sequence")
    validate_lr_ratio(seq)
    coeffs = spectrum.coefficients(f)
    lam2 = spectrum.eigenvalues
    s_times = seq.dual_times()
    gaps = -np.diff(s_times)

    def l2_at(time):
        return float(np.linalg.norm(coeffs * np.exp(-lam2 * time)))

    def obs_at(time):
        return observation_norm(obs, spectrum.synthesize_values(coeffs * np.exp(-lam2 * time)))

    T = seq.horizon
    lhs = l2_at(T)
    obs_vals = np.array([obs_at(s) for s in s_times[:-1]])
    weighted = np.exp(-D / gaps) * obs_vals
    c_instance = lhs / max(weighted.max(), 1e-300)

    # Two-time bounds e^{-A/g} ||e^{s_n}f|| - e^{-dm A/g} ||e^{s_n+1}f|| <= C e^{-B/g} obs_n
    # with the swallowing multiple dm = 1/ratio and B = A/2; A picked to
    # minimize the resulting C over a geometric grid.
    dm = 1.0 / seq.ratio
    l2_vals = np.array([l2_at(s) for s in s_times])
    best = None
    for A in np.geomspace(1e-3, 10.0, 120) * gaps.min():
        need = (np.exp(-A / gaps) * l2_vals[:-1] - np.exp(-dm * A / gaps) * l2_vals[1:]) \
            / np.maximum(np.exp(-(A / 2) / gaps) * obs_vals, 1e-300)
        c_need = float(max(need.max(), 0.0))
        if best is None or c_need < best[1]:
            best = (A, c_need)
    A_fit, c_steps = best
    c_steps *= 1 + 1e-12
    residuals = (np.exp(-A_fit / gaps) * l2_vals[:-1]
                 - np.exp(-dm * A_fit / gaps) * l2_vals[1:]
                 - c_steps * np.exp(-(A_fit / 2) / gaps) * obs_vals)
    return TelescopeReport(lhs, weighted, c_instance, residuals,
                           float(A_fit), float(A_fit / 2), dm, float(c_steps))


# ---------------------------------------------------------------------------
# density-point time sequences
# ---------------------------------------------------------------------------

def _interval_union_measure(intervals, lo, hi) -> float:
    """Measure of (union of intervals) intersected with (lo, hi)."""
    total = 0.0
    for a, b in intervals:
        total += max(0.0, min(b, hi) - max(a, lo))
    return total


def phung_wang_times(J, z: float, anchor: float, depth: int = 8) -> TimeSequence:
    """Geometric approach times to a density point of J.

    Searches l_1 in (anchor, T) with l_(m+1) - anchor = z^-m (l_1 - anchor)
    such that |J meets (l_(m+1), l_m)| >= (l_m - l_(m+1)) / 3 for every step
    up to `depth`, trying 200 candidates geometrically spaced from T down to
    1e-6 (T - anchor) above the anchor; returns the times and the measured
    intersection ratios.
    """
    if not z > 1:
        raise ValueError(f"ratio z must exceed 1, got {z}")
    intervals = [(float(a), float(b)) for a, b in J]
    if not intervals or any(b <= a for a, b in intervals):
        raise ValueError("J must be a nonempty union of nondegenerate intervals")
    T = max(b for _, b in intervals)
    if not (min(a for a, _ in intervals) - 1e-12 <= anchor < T):
        raise ValueError("anchor must lie in the closure of J below its top")

    tried = 0
    for frac in np.geomspace(1.0, 1e-6, 200):
        l1 = anchor + (T - anchor) * frac
        tried += 1
        times = anchor + (l1 - anchor) * float(z) ** -np.arange(depth + 2, dtype=float)
        ratios = []
        ok = True
        for m in range(depth + 1):
            hi_t, lo_t = times[m], times[m + 1]
            inter = _interval_union_measure(intervals, lo_t, hi_t)
            ratios.append(inter / (hi_t - lo_t))
            if ratios[-1] < 1.0 / 3.0:
                ok = False
                break
        if ok:
            return TimeSequence(times[:depth + 2], "phung_wang", float(z), T,
                                measured_ratios=np.array(ratios))
    raise SearchFailureError(
        "no admissible first time found: the anchor is not a usable density point "
        "at this resolution",
        {"anchor": anchor, "z": z, "depth": depth, "candidates_tried": tried})

