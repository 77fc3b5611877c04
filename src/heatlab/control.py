"""Constructive null control: impulsive minimum-norm moment controls at
geometric times (low band killed exactly, high band left to dissipate) and
their smeared-in-time variant on space-time masks, with exponential cost
bookkeeping.

Controls steer the state onto the free trajectory of the target: the tracked
quantity is the modal deficit d_k(t) between the state and e^{t Delta} v_0.
An impulse with payload mu adds <mu, e_k> to every modal coefficient, so one
step cancels the band lambda_k <= Lambda_j exactly while the remainder decays
by at least e^{-Lambda_j^2 gap}. The frequency rule grows like
sqrt(c_lambda / gap) but is capped at the numerically observable band of the
support, where the moment systems stay solvable in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SynthesisFailureError
from .inequality import TimeSequence, fubini_slices
from .obsets import CELL_MASK, ObservationSet, set_from_mask
from .spectrum import Spectrum

DEFAULT_C_LAMBDA = math.log(65536.0)   # per-step tail decay e^{-c} = 2^-16 <= 1/4
DEFAULT_GRAM_FLOOR = 1e-10
DEFAULT_COND_FLOOR = 1e-7
# Blind-support detection: genuinely unreachable modes leave O(1) relative
# moment residuals, while refined solves at the conditioning cap sit near
# eps * cond << this threshold.
MOMENT_RTOL = 1e-6


def lr_schedule(T: float, rho: float, n_steps: int) -> TimeSequence:
    """Control times t_j = T (1 - rho^(j+1)), j = 0..n_steps-1: the gaps
    (including the leading (0, t_0)) are geometric with ratio exactly rho, and
    the dual observation gaps contract by rho exactly."""
    if not (0 < rho < 1):
        raise ValueError(f"gap ratio must lie in (0, 1), got {rho}")
    if n_steps < 2:
        raise ValueError("need at least 2 control steps")
    if not T > 0:
        raise ValueError("horizon must be positive")
    j = np.arange(n_steps)
    times = T * (1.0 - rho ** (j + 1))
    return TimeSequence(times, "lr_geometric", float(rho), float(T))


@dataclass(eq=False)
class StepControl:
    """One impulsive control: a density on the mask nodes or atoms on the
    cloud points, with its modal jump and solve diagnostics."""

    time: float
    kind: str                      # "density" or "atoms"
    support: ObservationSet
    payload: np.ndarray            # density over unknowns (zero off the set) or atom weights
    total_variation: float
    lambda_cutoff: float
    moment_residual: float         # relative residual of the band moment solve
    gram_min_eigenvalue: float
    jump: np.ndarray = field(repr=False, default=None)   # modal jump, all modes


def _solve_step(spectrum: Spectrum, obs: ObservationSet, band: np.ndarray,
                targets: np.ndarray, time: float, step_index=None) -> StepControl:
    """Minimum-norm payload whose band moments equal `targets`."""
    lam_cut = float(spectrum.frequencies[band].max())
    if obs.kind == CELL_MASK:
        V = spectrum.vectors[:, band]
        G = obs.gram(V)
        evals, evecs = np.linalg.eigh(G)
        gmin = float(evals[0])
        keep = evals > max(evals[-1], 1e-300) * 1e-13

        def solve(rhs):
            return evecs[:, keep] @ ((evecs[:, keep].T @ rhs) / evals[keep])

        on_set = obs.node_weights > 0
        moments_of = lambda p: (V.T * obs.node_weights) @ p
        # iterative refinement in the payload frame: the conditioning cap keeps
        # cond * eps << 1, so each pass shrinks the achieved-moment residual
        payload = np.where(on_set, V @ solve(targets), 0.0)
        for _ in range(4):
            r = targets - moments_of(payload)
            if np.abs(r).max() <= 1e-13 * max(np.abs(targets).max(), 1e-300):
                break
            payload = payload + np.where(on_set, V @ solve(r), 0.0)
        achieved = moments_of(payload)
        jump = spectrum.vectors.T @ (obs.node_weights * payload)
        tv = float(np.sum(np.abs(payload) * obs.node_volumes))
        kind = "density"
    else:
        P = obs.rows(spectrum.vectors)
        A = P[:, band].T                        # (band, n_points)
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        gmin = float(sv[-1] ** 2)
        keep = sv > sv[0] * 1e-13

        def solve(rhs):
            return Vt[keep].T @ ((U[:, keep].T @ rhs) / sv[keep])

        weights = solve(targets)
        for _ in range(4):
            r = targets - A @ weights
            if np.abs(r).max() <= 1e-13 * max(np.abs(targets).max(), 1e-300):
                break
            weights = weights + solve(r)
        achieved = A @ weights
        payload = weights
        jump = P.T @ weights
        tv = float(np.abs(weights).sum())
        kind = "atoms"
    scale = max(float(np.abs(targets).max()), 1e-300)
    resid = np.abs(achieved - targets)
    rel = float(resid.max() / scale)
    if rel > MOMENT_RTOL:
        bad = int(band[int(resid.argmax())])
        raise SynthesisFailureError(
            f"support cannot reach mode {bad} (moment residual {rel:.2e})",
            mode_index=bad, step_index=step_index)
    return StepControl(time, kind, obs, payload, tv, lam_cut, rel, gmin, jump)


def step_control(spectrum: Spectrum, obs: ObservationSet, lam_max: float,
                 deficit, time: float = 0.0) -> StepControl:
    """Impulse cancelling a low-band deficit exactly.

    `deficit` must lie in the band lambda_k <= lam_max; the payload has the
    least kappa-weighted L2 norm among all fields on the set matching the
    required moments (atoms minimize the Euclidean weight norm).
    """
    band = spectrum.band(lam_max)
    if band.size == 0:
        raise ValueError(f"no modes below cutoff {lam_max}")
    coeffs = spectrum.coefficients(deficit)
    high = np.delete(coeffs, band)
    if high.size and np.abs(high).max() > 1e-8 * max(np.abs(coeffs).max(), 1e-300):
        raise ValueError("deficit must be supported on the band below the cutoff")
    return _solve_step(spectrum, obs, band, -coeffs[band], time)


def observable_cutoff(spectrum: Spectrum, obs: ObservationSet,
                      lam_max: float | None = None) -> float:
    """Largest frequency cutoff whose moment system stays numerically solvable:
    restricted-Gram minimum eigenvalue above DEFAULT_GRAM_FLOOR for masks,
    singular value ratio above DEFAULT_COND_FLOOR for clouds. The scan stops
    early at the first failing band and never looks past `lam_max`."""
    freqs = spectrum.frequencies
    n_scan = spectrum.n_modes if lam_max is None else int(np.sum(freqs <= lam_max))
    n_scan = max(n_scan, 1)
    if obs.kind == CELL_MASK:
        V = spectrum.vectors
        solvable = lambda k: np.linalg.eigvalsh(obs.gram(V[:, :k]))[0] >= DEFAULT_GRAM_FLOOR
    else:
        P = obs.rows(spectrum.vectors)

        def solvable(k):
            sv = np.linalg.svd(P[:, :k].T, compute_uv=False)
            return sv[-1] / sv[0] >= DEFAULT_COND_FLOOR

    ok = 0
    for k in range(1, n_scan + 1):
        if k < spectrum.n_modes and freqs[k] - freqs[k - 1] <= 1e-12 * max(freqs[k], 1.0):
            continue  # only cut between distinct frequencies
        if not solvable(k):
            break
        ok = k
    if ok == 0:
        raise SynthesisFailureError("support observes no mode at the requested floors")
    if ok >= spectrum.n_modes:
        return float(freqs[-1])
    return float(0.5 * (freqs[ok - 1] + freqs[ok]))


@dataclass(eq=False)
class ControlSchedule:
    """Synthesized impulsive schedule with its deficit history."""

    steps: list
    horizon: float
    support: ObservationSet
    u0_coeffs: np.ndarray
    v0_coeffs: np.ndarray
    terminal_deficit: float
    terminal_relative: float
    deficit_history: np.ndarray    # deficit norm after each step's jump

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])


def synthesize(spectrum: Spectrum, obs: ObservationSet, schedule: TimeSequence,
               u0, v0=None, c_lambda: float = DEFAULT_C_LAMBDA) -> ControlSchedule:
    """Iterative low-band steering along the given times.

    At each t_j the band lambda_k <= Lambda_j of the running deficit against
    the target trajectory is cancelled by a minimum-norm impulse; free flow to
    t_(j+1) then contracts the remainder. The terminal deficit after the last
    flow to the horizon is reported (relative to the initial deficit).
    """
    if schedule.tag != "lr_geometric":
        raise ValueError("synthesis expects an lr_geometric schedule")
    T = schedule.horizon
    times = schedule.times
    if times[0] <= 0 or times[-1] >= T:
        raise ValueError("control times must lie strictly inside (0, T)")
    gaps = np.diff(np.concatenate([times, [T]]))
    cap = observable_cutoff(spectrum, obs, lam_max=math.sqrt(c_lambda / gaps.min()))

    lam2 = spectrum.eigenvalues
    u0c = spectrum.coefficients(u0)
    v0c = np.zeros_like(u0c) if v0 is None else spectrum.coefficients(v0)
    d = u0c - v0c
    d0 = float(np.linalg.norm(d))
    steps, history = [], []
    t_prev = 0.0
    for j, tj in enumerate(times):
        d = d * np.exp(-lam2 * (tj - t_prev))
        gap = (times[j + 1] if j + 1 < times.size else T) - tj
        lam_j = min(math.sqrt(c_lambda / gap), cap)
        band = spectrum.band(lam_j)
        if band.size and float(np.abs(d[band]).max()) > 0:
            try:
                sc = _solve_step(spectrum, obs, band, -d[band], tj, step_index=j)
            except SynthesisFailureError as exc:
                exc.step_index = j
                raise
            d = d + sc.jump
            steps.append(sc)
        history.append(float(np.linalg.norm(d)))
        t_prev = tj
    d = d * np.exp(-lam2 * (T - t_prev))
    terminal = float(np.linalg.norm(d))
    rel = terminal / d0 if d0 > 0 else 0.0
    return ControlSchedule(steps, T, obs, u0c, v0c, terminal, rel, np.array(history))


@dataclass(eq=False)
class SimulationResult:
    times: np.ndarray              # snapshot times (jump times doubled pre/post)
    phases: list                   # "pre" / "post" / "end" per snapshot
    state_coeffs: np.ndarray       # (n_snapshots, n_modes)
    terminal_coeffs: np.ndarray
    terminal_error: float          # vs e^{T Delta} v_0; relative when v_0 != 0


def simulate(spectrum: Spectrum, u0, schedule: ControlSchedule, v0=None) -> SimulationResult:
    """Replay the piecewise heat flow with the schedule's modal jumps."""
    T = schedule.horizon
    lam2 = spectrum.eigenvalues
    u = spectrum.coefficients(u0)
    v0c = schedule.v0_coeffs if v0 is None else spectrum.coefficients(v0)
    times, phases, snaps = [0.0], ["start"], [u.copy()]
    t_prev = 0.0
    for sc in schedule.steps:
        if not (0 < sc.time < T):
            raise ValueError(f"step time {sc.time} outside the horizon (0, {T})")
        if sc.time < t_prev:
            raise ValueError("schedule steps must be time-ordered")
        u = u * np.exp(-lam2 * (sc.time - t_prev))
        times.append(sc.time); phases.append("pre"); snaps.append(u.copy())
        u = u + sc.jump
        times.append(sc.time); phases.append("post"); snaps.append(u.copy())
        t_prev = sc.time
    u = u * np.exp(-lam2 * (T - t_prev))
    times.append(T); phases.append("end"); snaps.append(u.copy())
    target = v0c * np.exp(-lam2 * T)
    err = float(np.linalg.norm(u - target))
    v_norm = float(np.linalg.norm(v0c))
    if v_norm > 0:
        err /= v_norm
    return SimulationResult(np.array(times), phases, np.array(snaps), u, err)


# ---------------------------------------------------------------------------
# distributed controls on space-time masks
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class WindowControl:
    t_start: float
    t_end: float
    slabs: np.ndarray              # slab indices carrying the control
    support: ObservationSet
    profile: np.ndarray            # density over unknowns, constant on the slabs
    lambda_cutoff: float
    sup_norm: float


@dataclass(eq=False)
class DistributedResult:
    windows: list
    sup_norm: float                # ||f||_inf over the space-time support
    terminal_deficit: float
    terminal_relative: float
    fubini: object


def distributed_control(spectrum: Spectrum, mask: np.ndarray, T: float, u0, v0=None,
                        n_steps: int = 8, rho: float = 0.5,
                        c_lambda: float = DEFAULT_C_LAMBDA) -> DistributedResult:
    """Steering by piecewise-constant-in-time densities on the fat slices of a
    space-time mask: each geometric window smears the low-band kill over its
    admissible time slabs (support: cells present in every used slab).
    """
    domain = spectrum.operator.domain
    kappa = spectrum.operator.coefficients.kappa
    fub = fubini_slices(mask, domain, T)
    nt = mask.shape[0]
    dt = T / nt
    schedule = lr_schedule(T, rho, n_steps)
    bounds = np.concatenate([schedule.times, [T]])
    lam2 = spectrum.eigenvalues

    u0c = spectrum.coefficients(u0)
    v0c = np.zeros_like(u0c) if v0 is None else spectrum.coefficients(v0)
    d = u0c - v0c
    d0 = float(np.linalg.norm(d))

    windows = []
    t_prev = 0.0
    for j in range(bounds.size):
        te = bounds[j]
        ts = t_prev
        if te <= ts:
            continue
        gap = te - ts
        # admissible slabs: fat slices whose slab lies inside the window
        slab_lo = fub.j_slabs * dt
        slab_hi = slab_lo + dt
        inside = (slab_lo >= ts - 1e-12) & (slab_hi <= te + 1e-12)
        slabs = fub.j_slabs[inside]
        lam_j = math.sqrt(c_lambda / gap)
        band = spectrum.band(lam_j)
        need = band.size and float(np.abs(d[band] * np.exp(-lam2[band] * gap)).max()) > 1e-300
        if need and slabs.size:
            common = np.all(mask[slabs], axis=0)
            if not common.any():
                raise SynthesisFailureError(
                    f"window ({ts:.4g}, {te:.4g}) has no common slice support")
            support = set_from_mask(domain, common, kappa)
            cap = observable_cutoff(spectrum, support, lam_max=lam_j)
            lam_j = min(lam_j, cap)
            band = spectrum.band(lam_j)
            # modal accumulation factors of a unit source over the slabs
            phi = np.zeros(spectrum.n_modes)
            for sl in slabs:
                a, b = sl * dt, (sl + 1) * dt
                with np.errstate(divide="ignore", invalid="ignore"):
                    contrib = np.where(lam2 > 1e-14,
                                       (np.exp(-lam2 * (te - b)) - np.exp(-lam2 * (te - a))) / np.where(lam2 > 1e-14, lam2, 1.0),
                                       b - a)
                phi += contrib
            targets = -(d[band] * np.exp(-lam2[band] * gap)) / phi[band]
            sc = _solve_step(spectrum, support, band, targets, ts, step_index=j)
            d = d * np.exp(-lam2 * gap) + sc.jump * phi
            win = WindowControl(ts, te, slabs, support, sc.payload, lam_j,
                                float(np.abs(sc.payload).max()))
            windows.append(win)
        else:
            d = d * np.exp(-lam2 * gap)
        t_prev = te
    terminal = float(np.linalg.norm(d))
    rel = terminal / d0 if d0 > 0 else 0.0
    sup = max((w.sup_norm for w in windows), default=0.0)
    return DistributedResult(windows, sup, terminal, rel, fub)


# ---------------------------------------------------------------------------
# cost bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostLedger:
    times: np.ndarray
    gaps: np.ndarray               # t_(j+1) - t_j with the horizon closing the last gap
    variations: np.ndarray         # |mu_j|
    log_terms: np.ndarray          # D / gap_j + log |mu_j|
    partial_sums: np.ndarray       # running sums of e^{D/gap} |mu_j|
    total: float
    last_increment_ratio: float
    decay_constant: float          # smallest C with |mu_j| <= C e^{D/(T - t_j)}
    converged: bool


def cost_report(schedule: ControlSchedule, D: float) -> CostLedger:
    """Weighted cost sums sum_j e^{D/(t_(j+1)-t_j)} |mu_j| and the per-step
    decay certificate |mu_j| <= C e^{D/(T-t_j)}."""
    if not D > 0:
        raise ValueError("cost rate D must be positive")
    steps = schedule.steps
    if not steps:
        z = np.zeros(0)
        return CostLedger(z, z, z, z, z, 0.0, 0.0, 0.0, True)
    times = np.array([s.time for s in steps])
    tv = np.array([s.total_variation for s in steps])
    nxt = np.concatenate([times[1:], [schedule.horizon]])
    gaps = nxt - times
    with np.errstate(divide="ignore"):
        log_terms = D / gaps + np.log(np.maximum(tv, 1e-300))
    log_terms[tv == 0] = -np.inf
    terms = np.exp(np.minimum(log_terms, 709.0))
    terms[log_terms > 709.0] = np.inf
    partial = np.cumsum(terms)
    total = float(partial[-1])
    last_ratio = float(terms[-1] / total) if np.isfinite(total) and total > 0 else float("inf")
    decay_c = float(np.max(tv * np.exp(-D / (schedule.horizon - times))))
    return CostLedger(times, gaps, tv, log_terms, partial, total, last_ratio,
                      decay_c, bool(np.isfinite(total)))
