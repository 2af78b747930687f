"""Integrator: RK4 stepping, clamping policy, trajectories, extinction detection."""
import dataclasses
import math

import numpy as np
import pytest

import sitctl as s
from sitctl.harness import perturb_params, preset_scenario, trial_rng
from sitctl.simulate import _closed_loop_step


def _reduced_spec(params, cfg, variant, initial, t_end, dt=0.01, record_every=100):
    law = s.ControlLaw(variant, cfg, params)
    return s.SimSpec(model="reduced", law=law, initial=initial, t_end=t_end, dt=dt, record_every=record_every)


class TestStepRk4:
    def test_fixed_point_stays_put(self, params, eq):
        f = lambda t, st: s.reduced_rhs(st, 0.0, params)
        nxt, clamped = s.step_rk4((eq.F_bar, 0.0), 0.0, 0.01, f)
        assert clamped == 0.0
        assert nxt[0] == pytest.approx(eq.F_bar, rel=1e-9)
        assert nxt[1] == 0.0

    def test_exponential_decay_exact_to_rk4_order(self):
        nxt, _ = s.step_rk4((1.0,), 0.0, 0.01, lambda t, st: (-0.12 * st[0],))
        assert abs(nxt[0] - math.exp(-0.0012)) <= 1e-12

    def test_small_undershoot_clamped(self):
        # constant downward drift pushes the state slightly negative
        nxt, clamped = s.step_rk4((1e-12,), 0.0, 0.01, lambda t, st: (-1e-9,), clamp_tol=1e-9)
        assert nxt[0] == 0.0
        assert 0.0 < clamped <= 1e-9

    def test_large_undershoot_raises(self):
        with pytest.raises(s.NonnegativityError):
            s.step_rk4((0.0,), 0.0, 0.01, lambda t, st: (-10.0,), clamp_tol=1e-9)

    def test_order_four_convergence(self, params, cfg, eq):
        def end_state(dt):
            spec = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=100.0, dt=dt, record_every=10**6)
            return np.asarray(s.integrate(spec).states[-1])

        coarse, mid, fine = end_state(0.1), end_state(0.05), end_state(0.025)
        ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
        assert 13.0 <= ratio <= 19.0


class TestIntegrate:
    def test_deterministic(self, params, cfg, eq):
        spec = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=50.0)
        a, b = s.integrate(spec), s.integrate(spec)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.lyapunov, b.lyapunov)

    def test_step_size_robustness(self, params, cfg, eq):
        def end(dt):
            spec = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=200.0, dt=dt, record_every=10**6)
            return np.asarray(s.integrate(spec).states[-1])

        a, b = end(0.01), end(0.005)
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)

    def test_sample_count(self, params, cfg, eq):
        spec = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=10.0, dt=0.01, record_every=100)
        traj = s.integrate(spec)
        # 1000 steps, a sample every 100 steps, plus the initial state
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(10.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_open_loop_converges_to_persistence(self, open_loop_run, eq):
        assert open_loop_run.F[-1] == pytest.approx(eq.F_bar, rel=0.01)

    def test_extinction_unstable_from_small_population(self, params, cfg, eq):
        spec = _reduced_spec(params, cfg, "none", (0.01 * eq.F_bar, 0.0), t_end=100.0)
        traj = s.integrate(spec)
        assert traj.F[-1] > traj.F[0]

    def test_closed_loop_decay_with_lyapunov_envelope(self, nominal_plus_run, params, cfg):
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
        V = nominal_plus_run.lyapunov
        t = nominal_plus_run.times
        assert np.all(V <= V[0] * np.exp(-lam * t) * (1 + 1e-3))

    def test_female_decay_never_beats_death_rate(self, nominal_plus_run, params):
        t = nominal_plus_run.times
        floor = np.exp(-params.delta_F * t) * nominal_plus_run.F[0] * (1 - 1e-6)
        assert np.all(nominal_plus_run.F >= floor)

    def test_no_meaningful_clamping_on_nominal_runs(self, nominal_plus_run, full_strong_run, eq):
        assert nominal_plus_run.max_clamp <= 1e-9 * eq.F_bar
        assert full_strong_run.max_clamp <= 1e-9 * eq.E_bar

    def test_global_variant_control_nonnegative(self, global_high_run):
        assert np.all(global_high_run.controls >= 0.0)

    def test_raw_variant_naturally_nonnegative_on_nominal_run(self, params, cfg, eq):
        # the clipping correction never engages along this trajectory
        spec = _reduced_spec(params, cfg, "raw", (eq.F_bar, 0.0), t_end=500.0)
        traj = s.integrate(spec)
        assert np.all(traj.controls >= 0.0)

    def test_full_model_run_records_no_lyapunov(self, full_strong_run):
        assert full_strong_run.lyapunov is None
        assert full_strong_run.states.shape[1] == 4

    def test_early_stop_below_threshold(self, params, cfg, eq):
        law = s.ControlLaw("plus", cfg, params)
        spec = s.SimSpec(
            model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=2000.0,
            dt=0.05, record_every=20, stop_when_F_below=100.0,
        )
        traj = s.integrate(spec)
        assert traj.termination == "extinction-threshold"
        assert traj.F[-1] < 100.0
        assert traj.times[-1] < 2000.0

    def test_bad_specs_rejected(self, params, cfg, eq):
        law = s.ControlLaw("plus", cfg, params)
        with pytest.raises(ValueError):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=10.0, dt=0.5)
        with pytest.raises(ValueError):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar,), t_end=10.0)
        with pytest.raises(ValueError):
            s.SimSpec(model="planar", law=law, initial=(eq.F_bar, 0.0), t_end=10.0)
        with pytest.raises(ValueError):
            s.SimSpec(model="reduced", law=law, initial=(-1.0, 0.0), t_end=10.0)
        with pytest.raises(ValueError, match="whole number"):  # would end at t = 10.05
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=10.03, dt=0.05)
        with pytest.raises(s.ParamError):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=10.0, plant=params.replace(delta_s=0.03))

    def test_plant_drives_dynamics_law_keeps_its_target(self, params, cfg, eq):
        law = s.ControlLaw("plus", cfg, params)
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=50.0, dt=0.05, record_every=20)
        nominal = s.integrate(spec)
        same = s.integrate(dataclasses.replace(spec, plant=params.replace()))
        assert np.array_equal(same.states, nominal.states)
        plant = params.replace(delta_F=1.1 * params.delta_F, delta_M=0.9 * params.delta_M)
        mismatched = s.integrate(dataclasses.replace(spec, plant=plant))
        assert not np.allclose(mismatched.states, nominal.states, rtol=1e-3)
        u = law.evaluator()
        assert np.array_equal(mismatched.controls, [u(F, Ms) for F, Ms in mismatched.states])
        # the Lyapunov target ms* is the law's, not the plant's
        V_law = [s.lyapunov_V(F, Ms, cfg, params) for F, Ms in mismatched.states]
        V_plant = [s.lyapunov_V(F, Ms, cfg, plant) for F, Ms in mismatched.states]
        assert np.allclose(mismatched.lyapunov, V_law, rtol=1e-12)
        assert not np.allclose(mismatched.lyapunov, V_plant, rtol=1e-3)


def _clamp_tol(spec):
    return 1e-9 * math.sqrt(sum(x * x for x in spec.initial))


def _reference_rhs(spec, u):
    """The closed-loop field from the public vector fields, for step_rk4."""
    plant = spec.law.params if spec.plant is None else spec.plant
    if spec.model == "reduced":
        return lambda t, st: s.reduced_rhs(st, u(*st), plant)
    return lambda t, st: s.full_rhs(st, u(st[2], st[3]), plant)


def _bit_specs():
    """The five presets, a seed-2024 perturbed plant on each robust preset and
    the reduced global run from 2 F_bar, all cut to 50 days."""
    specs = {name: preset_scenario(name).sim_spec() for name in
             ("nominal-reduced", "nominal-full", "open-loop", "robust-reduced", "robust-full")}
    for name in ("robust-reduced", "robust-full"):
        plant, _ = perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(2024, 0))
        specs[name + "/perturbed"] = preset_scenario(name).sim_spec(plant)
    eq = s.persistence_equilibrium(s.NOMINAL_PARAMS)
    specs["global-2Fbar"] = preset_scenario("nominal-reduced", variant="global", initial=(2 * eq.F_bar, 0.0)).sim_spec()
    return {name: dataclasses.replace(spec, t_end=50.0) for name, spec in specs.items()}


BIT_SPECS = _bit_specs()


class TestUnrolledStep:
    """integrate's per-model step reproduces step_rk4 over reduced_rhs/full_rhs bit for bit."""

    @pytest.mark.parametrize("spec", BIT_SPECS.values(), ids=list(BIT_SPECS))
    def test_integrate_matches_step_rk4_loop(self, spec):
        f = _reference_rhs(spec, spec.law.evaluator())
        state = tuple(float(x) for x in spec.initial)
        for i in range(round(spec.t_end / spec.dt)):
            state, _ = s.step_rk4(state, i * spec.dt, spec.dt, f, _clamp_tol(spec))
        final = s.integrate(spec).states[-1]
        assert [float(x).hex() for x in final] == [x.hex() for x in state]

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_step_matches_step_rk4_on_scattered_states(self, params, cfg_strong, model):
        # single steps from states spread over many magnitudes reach the
        # roundings that a short run from the presets never meets
        law = s.ControlLaw("global", cfg_strong, params)
        initial = (1.0, 1.0) if model == "reduced" else (1.0, 1.0, 1.0, 1.0)
        spec = s.SimSpec(model=model, law=law, initial=initial, t_end=1.0, dt=0.1)
        u = law.evaluator()
        step = _closed_loop_step(spec, u, _clamp_tol(spec))
        f = _reference_rhs(spec, u)
        rng = np.random.default_rng(2024)
        for state in 10.0 ** rng.uniform(-3.0, 5.0, size=(2000, len(initial))):
            state = tuple(state.tolist())
            fast, _ = step(state)
            ref, _ = s.step_rk4(state, 0.0, spec.dt, f, _clamp_tol(spec))
            assert [x.hex() for x in fast] == [x.hex() for x in ref]

    @pytest.mark.parametrize("model", ["reduced", "full"])
    @pytest.mark.parametrize("release", [0.0, -1e-7, -1.0])
    def test_clamp_policy_matches_step_rk4(self, params, cfg, eq, model, release):
        # a constant release rate: -1e-7 undershoots Ms within the clamp
        # tolerance, -1.0 beyond it
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        spec = s.SimSpec(model=model, law=s.ControlLaw("plus", cfg, params), initial=initial, t_end=1.0, dt=0.1)
        u = lambda F, Ms: release
        step = _closed_loop_step(spec, u, _clamp_tol(spec))
        f = _reference_rhs(spec, u)
        if release == -1.0:
            with pytest.raises(s.NonnegativityError):
                step(initial)
            with pytest.raises(s.NonnegativityError):
                s.step_rk4(initial, 0.0, spec.dt, f, _clamp_tol(spec))
            return
        (fast, fast_clamp), (ref, ref_clamp) = step(initial), s.step_rk4(initial, 0.0, spec.dt, f, _clamp_tol(spec))
        assert [x.hex() for x in fast] == [x.hex() for x in ref]
        assert fast_clamp == ref_clamp
        assert (fast_clamp > 0.0) == (release < 0.0)

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_subnormal_state_runs_to_horizon(self, params, cfg_strong, model):
        # g's denominator and the law's underflow to 0 at F = 5e-324
        initial = (5e-324, 0.0) if model == "reduced" else (0.0, 0.0, 5e-324, 0.0)
        law = s.ControlLaw("global", cfg_strong, params)
        traj = s.integrate(s.SimSpec(model=model, law=law, initial=initial, t_end=1.0, dt=0.1))
        assert traj.termination == "horizon"
        assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.controls))


class TestDetectExtinction:
    def test_persistent_run_has_none(self, open_loop_run):
        assert s.detect_extinction(open_loop_run, 1.0) is None

    def test_threshold_above_initial_gives_time_zero(self, nominal_plus_run, eq):
        assert s.detect_extinction(nominal_plus_run, 2 * eq.F_bar) == 0.0

    def test_crossing_time_consistent_with_decay_rate(self, nominal_plus_run, eq):
        threshold = 1e-3 * eq.F_bar
        t_cross = s.detect_extinction(nominal_plus_run, threshold)
        assert t_cross is not None
        mask = (nominal_plus_run.times >= 100.0) & (nominal_plus_run.F > 0)
        rate, _ = s.fit_decay_rate(nominal_plus_run.times[mask], nominal_plus_run.F[mask])
        upper = math.log(nominal_plus_run.F[0] / threshold) * 2.0 / rate
        assert 0.0 < t_cross <= upper

    def test_requires_positive_threshold(self, nominal_plus_run):
        with pytest.raises(ValueError):
            s.detect_extinction(nominal_plus_run, 0.0)
