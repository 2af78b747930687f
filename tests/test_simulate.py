"""Integrator: RK4 stepping, clamping policy, trajectories, extinction detection."""
import dataclasses
import math

import numpy as np
import pytest

import sitctl as s


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
