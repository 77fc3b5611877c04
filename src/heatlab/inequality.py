"""Observability constants for low-frequency eigenfunction sums restricted to
observation sets, exponential growth fits in the frequency cutoff, and the
interpolation / telescoping / time-slicing machinery that turns them into
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


# ---------------------------------------------------------------------------
# sweep containers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ConstantSweep:
    """(Lambda, C(Lambda)) pairs for one norm pair, ready for growth fitting."""

    lambdas: np.ndarray
    constants: np.ndarray
    norm_pair: str   # "l2", "l1", or "sup"

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.constants = np.asarray(self.constants, dtype=float)
        if self.lambdas.shape != self.constants.shape:
            raise ValueError("lambda grid and constants differ in length")
        if np.any(np.diff(self.lambdas) <= 0):
            raise ValueError("lambda grid must be strictly increasing")


@dataclass(frozen=True)
class GrowthFit:
    prefactor: float
    rate: float
    r_squared: float
    n_points: int
    degenerate: bool = False


def fit_growth(sweep: ConstantSweep) -> GrowthFit:
    """Least squares of log C(Lambda) against Lambda over the finite entries."""
    finite = np.isfinite(sweep.constants) & (sweep.constants > 0)
    if np.count_nonzero(finite) < 5:
        raise InsufficientDataError(
            f"growth fit needs at least 5 finite sweep points, have {np.count_nonzero(finite)}")
    x = sweep.lambdas[finite]
    y = np.log(sweep.constants[finite])
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

def restricted_l1(obs: ObservationSet, values: np.ndarray) -> float:
    if obs.kind != CELL_MASK:
        raise ValueError("L1 restriction needs a cell mask")
    return float(np.sum(obs.node_weights * np.abs(values)))


def restricted_sup(obs: ObservationSet, values: np.ndarray) -> float:
    return float(np.abs(obs.rows(values)).max())


def observation_norm(obs: ObservationSet, values: np.ndarray) -> float:
    """L1 over a cell mask, sup over a point cloud."""
    if obs.kind == CELL_MASK:
        return restricted_l1(obs, values)
    return restricted_sup(obs, values)


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
                restarts: int = 16, max_iter: int = 200, tol: float = 1e-8,
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
    starts = [u_floor] + [rng.standard_normal(band.size) for _ in range(restarts - 1)]
    best_u, best_val, any_converged = None, -float("inf"), False
    for u0 in starts:
        u = u0 / np.linalg.norm(u0)
        prev = l1_of(u)
        if prev <= 1e-300:
            return L1Constant(float("inf"), u, V @ u, True, floor)
        converged = False
        for _ in range(max_iter):
            weights = wE / np.maximum(np.abs(V @ u), 1e-8)
            M = (V.T * weights) @ V
            u_new = np.linalg.eigh(M)[1][:, 0]
            cur = l1_of(u_new)
            if cur <= 1e-300:
                return L1Constant(float("inf"), u_new, V @ u_new, True, floor)
            done = abs(cur - prev) <= tol * max(prev, 1e-300)
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
    lp_pruned: int      # grid nodes whose linear program was never solved


def constant_sup(spectrum: Spectrum, obs: ObservationSet, lam_max: float) -> SupConstant:
    """Exact discrete constant sup { ||phi||_inf : phi in the band,
    |phi| <= 1 on the cloud }, the maximum over grid nodes y of the linear
    program g(V[y]) = max { V[y] u : |P u| <= 1 }, where V is the band basis
    and P its m cloud rows.

    Only nodes that can still win are solved. LP duality bounds g for every
    node at once: for any lambda, g(c) <= ||lambda||_1 +
    ||c - P^T lambda||_2 sqrt(m) / sigma_min(P), taken at
    lambda = pinv(P^T) c. g is sublinear, so each solved node y0 tightens
    the bound to g(V[y0]) + bound(V[y] - V[y0]). An ascent from the node
    with the largest bound (solve, jump to argmax |V u*|, until a node
    repeats) finds a large value early; the other nodes are then solved in
    order of decreasing bound while the bound reaches the best value within
    the solver's feasibility tolerance. A skipped node is certified not to
    beat the best, so the value is that of one LP per node. A rank-deficient
    P makes every bound infinite, so every node is solved until the first
    unbounded LP. Returns inf when some band combination vanishes on the
    whole cloud. `lp_solved` and `lp_pruned` count the nodes solved and
    skipped.
    """
    band = _band(spectrum, lam_max)
    V = spectrum.vectors[:, band]
    P = obs.rows(V)
    m, k = P.shape
    # sigma_min less the SVD's backward error: a numerically singular P counts as singular
    sigma = np.linalg.svd(P, compute_uv=False)
    sigma_min = sigma[-1] - sigma[0] * max(m, k) * np.finfo(float).eps if m >= k else 0.0
    scale = math.sqrt(m) / sigma_min if sigma_min > 0 else math.inf
    dual = V @ np.linalg.pinv(P)          # row y: pinv(P^T) V[y]
    resid = V - dual @ P

    def bound(dual_rows, resid_rows):
        with np.errstate(invalid="ignore"):   # 0 * inf: a zero residual proves nothing
            slack = np.linalg.norm(resid_rows, axis=1) * scale
        return np.abs(dual_rows).sum(axis=1) + np.where(np.isnan(slack), np.inf, slack)

    A_ub = np.vstack([P, -P])
    b_ub = np.ones(2 * m)
    bounds = [(None, None)] * k
    n = V.shape[0]
    upper = bound(dual, resid)
    best, solved = 0.0, 0
    y, ascending = int(np.argmax(upper)), True
    while True:
        res = scipy.optimize.linprog(-V[y], A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                                     method="highs")
        solved += 1
        # u = 0 is feasible, so an infeasibility verdict (HiGHS presolve gives
        # one for some unbounded LPs) can only be the dual's: unbounded as well
        if res.status in (2, 3):
            return SupConstant(float("inf"), solved, n - solved)
        if res.status != 0:
            raise NumericalFailureError(f"sup-constant LP failed at node {y}",
                                        {"status": res.status, "message": res.message})
        best = max(best, -res.fun)
        upper = np.minimum(upper, -res.fun + bound(dual - dual[y], resid - resid[y]))
        upper[y] = -np.inf                # marks a solved node
        if ascending:                     # jump to where u* peaks until a node repeats
            y = int(np.argmax(np.abs(V @ res.x)))
            ascending = upper[y] > -np.inf
        if not ascending:
            y = int(np.argmax(upper))
            if upper[y] < best * (1 - LP_FEASIBILITY_TOL):
                break
    return SupConstant(float(best), solved, n - solved)


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationReport:
    lhs: float                 # ||e^{t Delta} f||_2
    obs_norm: float            # ||e^{t Delta} f|| restricted to the set
    s_norm: float              # ||e^{s Delta} f||_2
    epsilon: float
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
    return InterpolationReport(lhs, obs_norm, s_norm, epsilon, n_req,
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
    anchor: float | None = None
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


def validate_lr_ratio(seq: TimeSequence, tol: float = 1e-9):
    s = seq.dual_times()
    gaps = -np.diff(s)           # s_n - s_(n+1) > 0
    if np.any(gaps[1:] < seq.ratio * gaps[:-1] * (1 - tol)):
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


def phung_wang_times(J, z: float, anchor: float, depth: int = 8,
                     candidates: int = 200) -> TimeSequence:
    """Geometric approach times to a density point of J.

    Searches l_1 in (anchor, T) with l_(m+1) - anchor = z^-m (l_1 - anchor)
    such that |J meets (l_(m+1), l_m)| >= (l_m - l_(m+1)) / 3 for every step
    up to `depth`; returns the times and the measured intersection ratios.
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
    for frac in np.geomspace(1.0, 1e-6, candidates):
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
                                anchor=float(anchor),
                                measured_ratios=np.array(ratios))
    raise SearchFailureError(
        "no admissible first time found: the anchor is not a usable density point "
        "at this resolution",
        {"anchor": anchor, "z": z, "depth": depth, "candidates_tried": tried})


# ---------------------------------------------------------------------------
# space-time slicing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FubiniReport:
    slab_times: np.ndarray        # slab midpoints
    slice_measures: np.ndarray    # |E_t| per slab
    threshold: float              # |F| / (2T)
    j_slabs: np.ndarray           # slab indices with fat slices
    j_measure: float
    j_lower_bound: float          # |F| / (2 * support volume)
    mask_measure: float


def fubini_slices(mask: np.ndarray, domain, T: float) -> FubiniReport:
    """Slice a space-time cell mask into per-time spatial sets and collect the
    times whose slice measure reaches |F| / (2T); their total length is at
    least |F| / (2 Vol(support)).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[1] != domain.n_cells_total:
        raise ValueError(f"mask must be (n_slabs, {domain.n_cells_total})")
    nt = mask.shape[0]
    dt = T / nt
    cellvol = domain.cell_volume
    slice_measures = mask.sum(axis=1) * cellvol
    f_measure = float(slice_measures.sum() * dt)
    if f_measure <= 0:
        raise ValueError("space-time mask has zero measure")
    threshold = f_measure / (2 * T)
    j = np.where(slice_measures >= threshold)[0]
    support_cells = np.any(mask, axis=0)
    support_vol = float(np.count_nonzero(support_cells) * cellvol)
    bound = f_measure / (2 * support_vol)
    mid = (np.arange(nt) + 0.5) * dt
    return FubiniReport(mid, slice_measures, threshold, j, float(j.size * dt),
                        bound, f_measure)
