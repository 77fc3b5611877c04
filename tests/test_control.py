import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    assemble,
    build_interval,
    compute_spectrum,
    constant_coefficients,
    cost_report,
    distributed_control,
    full_domain_set,
    interval_mask,
    lr_schedule,
    observable_cutoff,
    point_cloud,
    set_from_mask,
    simulate,
    synthesize,
    telescope_check,
)
from heatlab import control
from heatlab.control import ControlSchedule, _solve_step
from heatlab.errors import SynthesisFailureError


@pytest.fixture(scope="module")
def setup():
    dom = build_interval(np.pi, 400, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op, count=40)
    return dom, op, spec


def kappa_of(spec):
    return spec.operator.coefficients.kappa


def step(spec, obs, lam_max, deficit, time=0.0):
    """The impulse cancelling the nodal `deficit` on the band lambda_k <= lam_max."""
    band = spec.band(lam_max)
    return _solve_step(spec, obs, band, -spec.coefficients(deficit)[band], time)


def heat(spec, f, t):
    return spec.synthesize_values(spec.coefficients(f) * np.exp(-spec.eigenvalues * t))


def test_step_control_full_domain_single_mode(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    c = 0.8
    deficit = c * spec.vectors[:, 0]
    sc = step(spec, obs, spec.frequencies[0] + 0.1, deficit)
    # unconstrained moment match: payload is -c e_1, variation |c| ||e_1||_L1
    assert np.allclose(sc.payload, -c * spec.vectors[:, 0], atol=1e-10)
    expected_tv = c * np.sum(np.abs(spec.vectors[:, 0]) * obs.node_volumes)
    assert sc.total_variation == pytest.approx(expected_tv, rel=1e-9)
    assert np.abs(sc.jump[0] + c) <= 1e-10
    assert sc.moment_residual <= 1e-10


def test_step_control_points_direct_solve_oracle(setup):
    dom, op, spec = setup
    pts = [[0.5], [1.1], [1.9], [2.6]]
    obs = point_cloud(dom, pts)
    lam = spec.frequencies[3] + 0.05
    rng = np.random.default_rng(3)
    coeffs = np.zeros(spec.n_modes)
    coeffs[:4] = rng.standard_normal(4)
    deficit = spec.synthesize_values(coeffs)
    sc = step(spec, obs, lam, deficit)
    # oracle: square evaluation matrix solved directly
    P = spec.vectors[spec.operator.domain.node_to_unknown[obs.points], :4]
    direct = np.linalg.solve(P.T, -coeffs[:4])
    assert np.allclose(sc.payload, direct, rtol=1e-8)
    assert sc.moment_residual <= 1e-10


def test_step_control_unreachable_mode(setup):
    dom, op, spec = setup
    # sin(2x) vanishes at pi/2: a one-point cloud there is blind to mode 2
    obs = point_cloud(dom, [[np.pi / 2]])
    deficit = spec.vectors[:, 1]
    with pytest.raises(SynthesisFailureError) as exc:
        step(spec, obs, spec.frequencies[1] + 0.05, deficit)
    assert exc.value.mode_index == 1


def test_cloud_cutoff_stops_at_the_number_of_points():
    # five atoms can match at most five moments, so the cutoff falls between
    # modes 5 and 6 and every seed's synthesis reaches its band
    dom = build_interval(np.pi, 400, DIRICHLET)
    spec = compute_spectrum(assemble(dom, constant_coefficients(dom)), count=20)
    obs = point_cloud(dom, [[0.3], [0.9], [1.4], [2.0], [2.7]])
    cut = observable_cutoff(spec, obs, lam_max=spec.frequencies[-1])
    assert spec.frequencies[4] < cut < spec.frequencies[5]
    for seed in range(4):
        u0 = spec.synthesize_values(np.random.default_rng(seed).standard_normal(20))
        sched = synthesize(spec, obs, lr_schedule(1.0, 0.5, 10), u0)
        assert max(sc.moment_residual for sc in sched.steps) <= 1e-13


def test_synthesize_trivial_when_target_reached(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 3)
    u0 = spec.vectors[:, 0]
    sched = synthesize(spec, obs, seq, u0, u0)
    assert sched.terminal_deficit <= 1e-14
    assert all(s.total_variation <= 1e-14 for s in sched.steps) or not sched.steps


def test_synthesize_single_mode_one_shot(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 3)
    rng = np.random.default_rng(0)
    u0 = 1.3 * spec.vectors[:, 0]
    sched = synthesize(spec, obs, seq, u0)
    assert sched.terminal_relative <= 1e-12
    # the first step cancels the whole (one-mode) deficit at t_0
    first = sched.steps[0]
    expected = -1.3 * np.exp(-spec.eigenvalues[0] * first.time)
    assert first.jump[0] == pytest.approx(expected, rel=1e-10)


def test_synthesize_exact_band_kill(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 8)
    rng = np.random.default_rng(5)
    u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
    sched = synthesize(spec, obs, seq, u0)
    # replay and verify the low band is zeroed right after each jump
    lam2 = spec.eigenvalues
    d = sched.u0_coeffs - sched.v0_coeffs
    t_prev = 0.0
    for sc in sched.steps:
        d = d * np.exp(-lam2 * (sc.time - t_prev))
        d = d + sc.jump
        band = spec.band(sc.lambda_cutoff)
        assert np.abs(d[band]).max() <= 1e-10 * max(np.abs(d).max(), 1e-300)
        t_prev = sc.time


def test_synthesize_geometric_deficit_contraction(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 12)
    rng = np.random.default_rng(11)
    u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
    sched = synthesize(spec, obs, seq, u0)
    assert sched.terminal_relative <= 1e-6
    # after each kill the deficit lives above the cutoff, so the flow to the
    # next time contracts it by at least the cutoff dissipation factor
    lam2 = spec.eigenvalues
    d = sched.u0_coeffs - sched.v0_coeffs
    t_prev = 0.0
    times = np.concatenate([sched.times, [sched.horizon]])
    for j, sc in enumerate(sched.steps):
        d = d * np.exp(-lam2 * (sc.time - t_prev))
        d = d + sc.jump
        post = np.linalg.norm(d)
        gap = times[j + 1] - sc.time
        survived = np.linalg.norm(d * np.exp(-lam2 * gap))
        assert survived <= post * np.exp(-sc.lambda_cutoff**2 * gap) * (1 + 1e-9)
        t_prev = sc.time


def test_simulate_zero_schedule_is_heat_flow(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 3)
    u0 = spec.vectors[:, 0] + 0.5 * spec.vectors[:, 3]
    sched = synthesize(spec, obs, seq, u0, u0)  # no-op schedule
    sim = simulate(spec, u0, sched)
    flow = heat(spec, u0, 1.0)
    assert np.allclose(spec.synthesize_values(sim.terminal_coeffs), flow, atol=1e-12)


def test_simulate_replays_synthesis(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 10)
    rng = np.random.default_rng(2)
    u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
    sched = synthesize(spec, obs, seq, u0)
    sim = simulate(spec, u0, sched)
    assert abs(np.linalg.norm(sim.terminal_coeffs - sched.v0_coeffs * np.exp(-spec.eigenvalues * 1.0))
               - sched.terminal_deficit) <= 1e-12


def test_simulate_single_impulse_kills_single_mode(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    u0 = 2.0 * spec.vectors[:, 0]
    t_imp = 0.4
    sc = step(spec, obs, spec.frequencies[0] + 0.1, heat(spec, u0, t_imp), time=t_imp)
    sched = ControlSchedule([sc], 1.0, spec.coefficients(u0),
                            np.zeros(spec.n_modes), 0.0, 0.0)
    sim = simulate(spec, u0, sched)
    assert np.abs(sim.terminal_coeffs).max() <= 1e-12


def test_distributed_single_mode_two_point_oracle():
    dom = build_interval(np.pi, 200, DIRICHLET)
    op = assemble(dom, constant_coefficients(dom))
    spec = compute_spectrum(op, count=1)
    obs = full_domain_set(dom, kappa_of(spec))
    u0 = 1.7 * spec.vectors[:, 0]
    res = distributed_control(spec, obs, lr_schedule(1.0, 0.5, 2), 16, u0)
    assert res.terminal_relative <= 1e-10
    # oracle: two-point boundary solve for the first window's constant source
    w0 = res.steps[0]
    lam2 = spec.eigenvalues[0]
    span = w0.end - w0.time
    needed = -np.exp(-lam2 * w0.end) * 1.7
    phi = (1 - np.exp(-lam2 * span)) / lam2
    moment = needed / phi
    profile_moment = np.sum(spec.weights * w0.payload * spec.vectors[:, 0])
    assert profile_moment == pytest.approx(moment, rel=1e-9)


def counting_cutoff(monkeypatch):
    calls = []
    scan = control.observable_cutoff
    monkeypatch.setattr(control, "observable_cutoff",
                        lambda *a, **k: calls.append(1) or scan(*a, **k))
    return calls


def test_distributed_half_interval(setup, monkeypatch):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    rng = np.random.default_rng(9)
    u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
    seq = lr_schedule(1.0, 0.5, 10)
    calls = counting_cutoff(monkeypatch)
    res = distributed_control(spec, obs, seq, 32, u0)
    assert len(calls) == 1                     # one cutoff scan per run
    synthesize(spec, obs, seq, u0)
    assert len(calls) == 2
    assert res.terminal_relative <= 1e-6
    assert np.isfinite(res.sup_norm)
    # replay the densities with each slab's reach in closed form: every window
    # cancels exactly the band its lambda_cutoff names, and not the next mode
    lam2, dt = spec.eigenvalues, 1.0 / 32
    d, t = spec.coefficients(u0), 0.0
    assert len(res.steps) == 5
    for sc in res.steps:
        assert sc.lambda_cutoff in spec.frequencies
        band = spec.band(sc.lambda_cutoff)
        d = d * np.exp(-lam2 * (sc.end - t))
        a = sc.slabs * dt
        phi = np.sum(np.exp(-np.outer(lam2, sc.end - a - dt))
                     - np.exp(-np.outer(lam2, sc.end - a)), axis=1) / lam2
        scale = np.abs(d[:band.size + 1]).max()
        d = d + sc.jump * phi
        assert np.abs(d[band]).max() <= 1e-10 * scale
        assert abs(d[band.size]) >= 1e-6 * scale
        t = sc.end


def test_distributed_run_without_a_whole_slab_issues_no_control(setup, monkeypatch):
    # one slab spans the whole horizon, so no window holds it: the run issues
    # no control, makes no cutoff scan, and the deficit flows freely to T
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    u0 = spec.vectors[:, 0] + spec.vectors[:, 3]
    calls = counting_cutoff(monkeypatch)
    res = distributed_control(spec, obs, lr_schedule(1.0, 0.5, 10), 1, u0)
    assert res.steps == [] and res.sup_norm == 0.0
    flow = np.linalg.norm(spec.coefficients(heat(spec, u0, 1.0)))
    assert res.terminal_relative == pytest.approx(flow / np.sqrt(2), rel=1e-12)
    synthesize(spec, obs, lr_schedule(1.0, 0.5, 10), u0, u0)   # at the target already
    assert calls == []


def test_cost_report_empty_and_single(setup):
    dom, op, spec = setup
    obs = full_domain_set(dom, kappa_of(spec))
    empty = ControlSchedule([], 1.0, np.zeros(spec.n_modes),
                            np.zeros(spec.n_modes), 0.0, 0.0)
    led = cost_report(empty, 0.5)
    assert led.total == 0.0 and led.converged
    sc = step(spec, obs, spec.frequencies[0] + 0.1, spec.vectors[:, 0], time=0.6)
    single = ControlSchedule([sc], 1.0, np.zeros(spec.n_modes),
                             np.zeros(spec.n_modes), 0.0, 0.0)
    led1 = cost_report(single, 0.5)
    assert led1.total == pytest.approx(np.exp(0.5 / 0.4) * sc.total_variation, rel=1e-9)


def test_cost_report_converges_on_synthesized_run(setup):
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 12)
    rng = np.random.default_rng(4)
    u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
    sched = synthesize(spec, obs, seq, u0)
    led = cost_report(sched, D=5e-4)
    assert led.converged
    assert led.last_increment_ratio <= 1e-8
    assert np.isfinite(led.decay_constant)


def test_duality_cost_bounded_by_observability(setup):
    # matched instances: distributed control on E x (0,T) against the
    # telescoped observation constant of the same set
    dom, op, spec = setup
    obs = set_from_mask(dom, interval_mask(dom, 0.0, np.pi / 2), kappa_of(spec))
    seq = lr_schedule(1.0, 0.5, 20)
    rng = np.random.default_rng(15)
    ratios = []
    for _ in range(5):
        u0 = spec.synthesize_values(rng.standard_normal(spec.n_modes))
        res = distributed_control(spec, obs, lr_schedule(1.0, 0.5, 10), 32, u0)
        rep = telescope_check(spec, obs, seq, u0, D=1.0)
        d0 = np.linalg.norm(spec.coefficients(u0))
        ratios.append(res.sup_norm / d0 / rep.c_instance)
    assert max(ratios) <= 10.0
