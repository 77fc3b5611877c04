"""Constructive null control by one Lebeau-Robbiano steering loop: in each
window a minimum-norm moment control on the set cancels the low band of the
deficit exactly and the heat flow damps the rest. The control is an impulse
at the window's start, or a density on E x (window) held constant on time
slabs; both modes return a ControlSchedule, with exponential cost bookkeeping.

The tracked quantity is the modal deficit d_k(t) between the state and the
target's free trajectory e^{t Delta} v_0. A payload mu adds r_k <mu, e_k> to
d_k at the window's balance time, with reach r_k = 1 for an impulse and the
slab accumulation phi_k for a density, so the band lambda_k <= Lambda_j is
cancelled while the remainder decays by at least e^{-Lambda_j^2 gap}. The
frequency rule grows like sqrt(C_LAMBDA / gap) but is capped at the support's
numerically observable band, where the moment systems stay solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SynthesisFailureError
from .inequality import TimeSequence, observed_band_svd
from .obsets import CELL_MASK, ObservationSet
from .spectrum import Spectrum

C_LAMBDA = math.log(65536.0)   # per-step tail decay e^{-c} = 2^-16 <= 1/4
DEFAULT_GRAM_FLOOR = 1e-10
# Blind-support detection: genuinely unreachable modes leave O(1) relative
# moment residuals, while refined solves at the conditioning cap sit near
# eps * cond << this threshold.
MOMENT_RTOL = 1e-6


def lr_schedule(T: float, rho: float, n_steps: int) -> TimeSequence:
    """Control times t_j = T (1 - rho^(j+1)), j = 0..n_steps-1: the gaps
    (including the leading (0, t_0)) are geometric with ratio exactly rho, and
    the dual observation gaps contract by rho exactly. A tiny rho^n_steps
    rounds the times together or onto T, which raises."""
    times = T * (1.0 - rho ** (np.arange(n_steps) + 1))
    if not (0 < rho < 1 and n_steps >= 2 and 0 < times[0] and times[-1] < T):
        raise ValueError(f"need T > 0, rho in (0, 1), n_steps >= 2 and control times "
                         f"inside (0, T): got T={T}, rho={rho}, n_steps={n_steps}")
    return TimeSequence(times, "lr_geometric", float(rho), float(T))


@dataclass(eq=False)
class StepControl:
    """One control of the steering loop: a density on the mask nodes or atoms
    on the cloud points, acting over [time, end] and cancelling its band at
    `end`. An impulse has end == time and no slabs; a distributed density is
    held constant on the time slabs `slabs`."""

    time: float
    end: float
    slabs: np.ndarray              # indices of the time slabs carrying the density
    kind: str                      # "density" or "atoms"
    payload: np.ndarray            # density over unknowns (zero off the set) or atom weights
    total_variation: float
    lambda_cutoff: float           # top frequency of the band the control cancels
    moment_residual: float         # relative residual of the band moment solve
    gram_min_eigenvalue: float
    jump: np.ndarray = field(repr=False, default=None)   # payload moments, all modes


def _solve_step(spectrum: Spectrum, obs: ObservationSet, band: np.ndarray,
                targets: np.ndarray, time: float, end=None, slabs=(),
                step_index=None) -> StepControl:
    """Minimum-norm payload whose band moments equal `targets`: a density on
    the unknowns (zero off a cell mask) or atom weights on a point cloud."""
    lam_cut = float(spectrum.frequencies[band].max())
    if obs.kind == CELL_MASK:
        V = spectrum.vectors[:, band]
        evals, evecs = np.linalg.eigh(obs.gram(V))
        gmin = float(evals[0])
        keep = evals > max(evals[-1], 1e-300) * 1e-13
        E, ev = evecs[:, keep], evals[keep]
        on_set = obs.node_weights > 0

        def solve(rhs):
            return np.where(on_set, V @ (E @ ((E.T @ rhs) / ev)), 0.0)

        moments_of = lambda p: (V.T * obs.node_weights) @ p
    else:
        P = obs.rows(spectrum.vectors)
        A = P[:, band].T                        # (band, n_points)
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        gmin = float(sv[-1] ** 2)
        keep = sv > sv[0] * 1e-13

        def solve(rhs):
            return Vt[keep].T @ ((U[:, keep].T @ rhs) / sv[keep])

        moments_of = lambda w: A @ w
    # iterative refinement in the payload frame: the conditioning cap keeps
    # cond * eps << 1, so each pass shrinks the achieved-moment residual
    payload = solve(targets)
    for _ in range(4):
        r = targets - moments_of(payload)
        if np.abs(r).max() <= 1e-13 * max(np.abs(targets).max(), 1e-300):
            break
        payload = payload + solve(r)
    achieved = moments_of(payload)
    if obs.kind == CELL_MASK:
        jump = spectrum.vectors.T @ (obs.node_weights * payload)
        tv, kind = float(np.sum(np.abs(payload) * obs.node_volumes)), "density"
    else:
        jump = P.T @ payload
        tv, kind = float(np.abs(payload).sum()), "atoms"
    scale = max(float(np.abs(targets).max()), 1e-300)
    resid = np.abs(achieved - targets)
    rel = float(resid.max() / scale)
    if rel > MOMENT_RTOL:
        bad = int(band[int(resid.argmax())])
        raise SynthesisFailureError(
            f"support cannot reach mode {bad} (moment residual {rel:.2e})",
            mode_index=bad, step_index=step_index)
    return StepControl(time, time if end is None else end, np.asarray(slabs, dtype=int),
                       kind, payload, tv, lam_cut, rel, gmin, jump)


def observable_cutoff(spectrum: Spectrum, obs: ObservationSet, lam_max: float) -> float:
    """Largest frequency cutoff whose moment system stays numerically solvable:
    restricted-Gram minimum eigenvalue above DEFAULT_GRAM_FLOOR for masks, and
    for clouds the LP_FEASIBILITY_TOL floor that constant_sup shares
    (inequality.observed_band_svd). The scan stops early at the first failing
    band and never looks past `lam_max`."""
    freqs = spectrum.frequencies
    n_scan = max(int(np.sum(freqs <= lam_max)), 1)
    if obs.kind == CELL_MASK:
        V = spectrum.vectors
        solvable = lambda k: np.linalg.eigvalsh(obs.gram(V[:, :k]))[0] >= DEFAULT_GRAM_FLOOR
    else:
        P = obs.rows(spectrum.vectors)
        solvable = lambda k: observed_band_svd(P[:, :k]) is not None

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
    """The controls of one steering run, in time order, with the terminal
    deficit at the horizon (absolute and relative to the initial deficit)."""

    steps: list
    horizon: float
    u0_coeffs: np.ndarray
    v0_coeffs: np.ndarray
    terminal_deficit: float
    terminal_relative: float

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])

    @property
    def sup_norm(self) -> float:
        """Largest |payload| over all controls: ||f||_inf on E x (0, T) for densities."""
        return max((float(np.abs(s.payload).max()) for s in self.steps), default=0.0)


def _bounds(schedule: TimeSequence) -> np.ndarray:
    """The schedule's times followed by its horizon T."""
    if schedule.tag != "lr_geometric":
        raise ValueError("synthesis expects an lr_geometric schedule")
    times, T = schedule.times, schedule.horizon
    if times[0] <= 0 or times[-1] >= T:
        raise ValueError("control times must lie strictly inside (0, T)")
    return np.concatenate([times, [T]])


def _steer(spectrum: Spectrum, obs: ObservationSet, windows: list, u0, v0) -> ControlSchedule:
    """The steering loop over time-ordered windows (start, end, balance time,
    reach, slabs): at the balance time the band lambda_k <= sqrt(C_LAMBDA /
    (end - start)) of the deficit is cancelled by a control whose moments
    reach it times `reach`; a window with reach None carries no control. The
    first control makes the run's one cutoff scan, at the largest frequency a
    controlled window asks for. The horizon is the last window's end."""
    lam2 = spectrum.eigenvalues
    u0c = spectrum.coefficients(u0)
    v0c = np.zeros_like(u0c) if v0 is None else spectrum.coefficients(v0)
    d = u0c - v0c
    d0 = float(np.linalg.norm(d))
    lams = [math.sqrt(C_LAMBDA / (end - start)) for start, end, *_ in windows]
    lam_top = max((lam for lam, (*_, reach, _) in zip(lams, windows) if reach is not None),
                  default=0.0)
    T = windows[-1][1]
    cap, steps, t = None, [], 0.0
    for j, ((start, _, at, reach, slabs), lam_j) in enumerate(zip(windows, lams)):
        d = d * np.exp(-lam2 * (at - t))
        t = at
        band = spectrum.band(lam_j)
        if reach is None or not (band.size and float(np.abs(d[band]).max()) > 0):
            continue
        if cap is None:
            cap = observable_cutoff(spectrum, obs, lam_max=lam_top)
            # no control reaches a mode above the cap, so the flow alone must
            # damp it by e^{-C_LAMBDA} between this first control and T
            k = spectrum.band(cap).size
            if k < spectrum.band(math.sqrt(C_LAMBDA / (T - start))).size:
                raise SynthesisFailureError(f"support observes {k} modes, and mode {k} "
                                            "needs control", mode_index=k, step_index=j)
        band = spectrum.band(min(lam_j, cap))
        sc = _solve_step(spectrum, obs, band, -d[band] / reach[band], start, at, slabs,
                         step_index=j)
        d = d + sc.jump * reach
        steps.append(sc)
    d = d * np.exp(-lam2 * (T - t))
    terminal = float(np.linalg.norm(d))
    return ControlSchedule(steps, T, u0c, v0c, terminal, terminal / d0 if d0 > 0 else 0.0)


def synthesize(spectrum: Spectrum, obs: ObservationSet, schedule: TimeSequence,
               u0, v0=None) -> ControlSchedule:
    """Impulsive steering along the schedule's times.

    At each t_j the band lambda_k <= Lambda_j of the running deficit against
    the target trajectory is cancelled by a minimum-norm impulse; free flow to
    t_(j+1) then contracts the remainder. The terminal deficit after the last
    flow to the horizon is reported (relative to the initial deficit).
    """
    bounds = _bounds(schedule)
    ones = np.ones(spectrum.n_modes)
    windows = [(t, end, t, ones, ()) for t, end in zip(bounds[:-1], bounds[1:])]
    return _steer(spectrum, obs, windows, u0, v0)


def distributed_control(spectrum: Spectrum, obs: ObservationSet, schedule: TimeSequence,
                        n_slabs: int, u0, v0=None) -> ControlSchedule:
    """Steering by piecewise-constant-in-time densities on the cell-mask set
    E over the schedule's horizon T, cut into `n_slabs` equal time slabs: the
    windows run from one lr_schedule time to the next (the first from 0, the
    last to T), and each smears the low-band kill over the slabs that lie
    inside it, cancelling the band at the window's end; a window that holds
    no whole slab carries no control.
    """
    bounds = _bounds(schedule)
    dt = schedule.horizon / n_slabs
    slab_lo = np.arange(n_slabs) * dt
    lam2 = spectrum.eigenvalues
    small = lam2 <= 1e-14
    safe = np.where(small, 1.0, lam2)
    windows = []
    for ts, te in zip(np.concatenate([[0.0], bounds[:-1]]), bounds):
        slabs = np.flatnonzero((slab_lo >= ts - 1e-12) & (slab_lo + dt <= te + 1e-12))
        # modal reach at te of a unit source held on each slab [a, b]
        reach = sum(np.where(small, b - a,
                             (np.exp(-lam2 * (te - b)) - np.exp(-lam2 * (te - a))) / safe)
                    for a, b in ((sl * dt, (sl + 1) * dt) for sl in slabs))
        windows.append((ts, te, te, reach if slabs.size else None, slabs))
    return _steer(spectrum, obs, windows, u0, v0)


@dataclass(eq=False)
class SimulationResult:
    times: np.ndarray              # snapshot times (jump times doubled pre/post)
    phases: list                   # "pre" / "post" / "end" per snapshot
    state_coeffs: np.ndarray       # (n_snapshots, n_modes)
    terminal_coeffs: np.ndarray


def simulate(spectrum: Spectrum, u0, schedule: ControlSchedule) -> SimulationResult:
    """Replay the piecewise heat flow with an impulsive schedule's modal jumps."""
    T = schedule.horizon
    lam2 = spectrum.eigenvalues
    u = spectrum.coefficients(u0)
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
    return SimulationResult(np.array(times), phases, np.array(snaps), u)


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
