"""Integrator: RK4 stepping, clamping policy, trajectories, extinction detection."""
import dataclasses
import math
import re
import textwrap
from functools import partial

import numpy as np
import pytest

import sitctl as s
import sitctl.control
import sitctl.model
import sitctl.native
import sitctl.simulate
from sitctl.configio import parse_config_text
from sitctl.harness import perturb_params, preset_scenario, scenario_from_config, trial_rng
from sitctl.model import FIELDS, RECRUITMENT, define, field_constants
from sitctl.simulate import _advance, _kernel

import reference
from reference import step_rk4


def _reduced_spec(params, cfg, variant, initial, t_end, dt=0.01, record_every=100):
    law = s.ControlLaw(variant, cfg, params)
    return s.SimSpec(model="reduced", law=law, initial=initial, t_end=t_end, dt=dt, record_every=record_every)


class TestStepRk4:
    def test_fixed_point_stays_put(self, params, eq):
        f = lambda t, st: s.reduced_rhs(st, 0.0, params)
        nxt, clamped = step_rk4((eq.F_bar, 0.0), 0.0, 0.01, f)
        assert clamped == 0.0
        assert nxt[0] == pytest.approx(eq.F_bar, rel=1e-9)
        assert nxt[1] == 0.0

    def test_exponential_decay_exact_to_rk4_order(self):
        nxt, _ = step_rk4((1.0,), 0.0, 0.01, lambda t, st: (-0.12 * st[0],))
        assert abs(nxt[0] - math.exp(-0.0012)) <= 1e-12

    def test_small_undershoot_clamped(self):
        # constant downward drift pushes the state slightly negative
        nxt, clamped = step_rk4((1e-12,), 0.0, 0.01, lambda t, st: (-1e-9,), clamp_tol=1e-9)
        assert nxt[0] == 0.0
        assert 0.0 < clamped <= 1e-9

    def test_large_undershoot_raises(self):
        with pytest.raises(s.NonnegativityError):
            step_rk4((0.0,), 0.0, 0.01, lambda t, st: (-10.0,), clamp_tol=1e-9)

    def test_order_four_convergence(self, params, cfg, eq):
        def end_state(dt):
            spec = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=100.0, dt=dt, record_every=10**6)
            return np.asarray(s.integrate(spec).states[-1])

        coarse, mid, fine = end_state(0.1), end_state(0.05), end_state(0.025)
        ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
        assert 13.0 <= ratio <= 19.0


class TestIntegrate:
    @pytest.mark.parametrize("found", [False, True], ids=["no-compiler", "compiler"])
    def test_a_spec_of_numpy_scalars_runs_as_plain_floats(self, params, cfg, eq, monkeypatch, found):
        # a numpy dt used to reach the kernel's C constant h2, which raised TypeError with a compiler and ran numpy
        # scalar arithmetic without one
        if not found:
            monkeypatch.setattr(sitctl.native, "compiler", lambda: None)
            monkeypatch.setattr(sitctl.native, "_BUILT", {})
        elif sitctl.native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        plain = _reduced_spec(params, cfg, "plus", (eq.F_bar, 0.0), t_end=20.0, dt=0.1, record_every=10)
        spec = _reduced_spec(params, cfg, "plus", (np.float64(eq.F_bar), np.float64(0.0)), t_end=np.float64(20.0),
                             dt=np.float64(0.1), record_every=10)
        assert [type(x) for x in (*spec.initial, spec.t_end, spec.dt)] == [float] * 4
        assert spec == plain
        a, b = s.integrate(spec), s.integrate(plain)
        assert (a.states.tobytes(), a.controls.tobytes(), a.termination) == (
            b.states.tobytes(), b.controls.tobytes(), b.termination)

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
        with pytest.raises(ValueError, match="whole number"):  # would round to no step
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=0.4 * 0.05, dt=0.05)
        with pytest.raises(s.ParamError):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=10.0, plant=params.replace(delta_s=0.03))

    @pytest.mark.parametrize("t_end, dt", [(10.0, 5e-324), (10.0, 1e-300), (1e9, 0.1)])
    def test_step_count_capped(self, params, cfg, eq, t_end, dt):
        # t_end/dt overflowed round() at 5e-324 and asked for ~1e300 steps at 1e-300
        law = s.ControlLaw("plus", cfg, params)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=t_end, dt=dt)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_t_end_and_initial_rejected(self, params, cfg, eq, bad):
        law = s.ControlLaw("plus", cfg, params)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=bad)
        for initial in ((bad, 0.0), (eq.F_bar, bad)):
            with pytest.raises(ValueError, match="initial state must be nonnegative and finite"):
                s.SimSpec(model="reduced", law=law, initial=initial, t_end=10.0)

    @pytest.mark.parametrize("model, index, name", [("reduced", 0, "F0"), ("reduced", 1, "Ms0"), ("full", 0, "E0"),
                                                    ("full", 1, "M0"), ("full", 2, "F0"), ("full", 3, "Ms0")])
    def test_initial_state_within_magnitude_bound(self, params, cfg, model, index, name):
        # F0 = 1e104 used to raise OverflowError in the law's lin**3, F0 = 1e300 in ms_star's denom**2
        law = s.ControlLaw("plus", cfg, params)
        at_bound = [1.0] * (2 if model == "reduced" else 4)
        at_bound[index] = 1e30
        s.SimSpec(model=model, law=law, initial=tuple(at_bound), t_end=1.0)
        beyond = list(at_bound)
        beyond[index] = 1e104
        with pytest.raises(ValueError, match=f"^initial {name} = 1e\\+104 exceeds MAX_MAGNITUDE = 1e\\+30$"):
            s.SimSpec(model=model, law=law, initial=tuple(beyond), t_end=1.0)

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


def _step(spec):
    """integrate's kernel for ``spec`` as one step ``state -> (next, clamp)``."""
    advance = reference.native_kernel(define(*_advance(spec)))
    return lambda state: advance(state, 1)[:2]


def _release_step(spec, release):
    """One step of the kernel for ``spec``'s model on the law's params, under the constant release rate ``release``."""
    kernel = _kernel(spec.model, "u = release\n", {"release": release}, spec.law.params, spec.dt, _clamp_tol(spec))
    advance = reference.native_kernel(define(*kernel))
    return lambda state: advance(state, 1)[:2]


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
    specs["global-2Fbar"] = preset_scenario("nominal-reduced", variant="global", F0_ratio=2).sim_spec()
    return {name: dataclasses.replace(spec, t_end=50.0) for name, spec in specs.items()}


BIT_SPECS = _bit_specs()


# float.hex of integrate(spec).states[-1] and controls[-1], recorded before
# the vector fields moved from simulate.py to model.py
GOLDEN_FINAL = {
    "nominal-reduced": (["0x1.9614156e18c04p+12", "0x1.d39ebfbcb4a67p+12"], "0x1.ef08c836a58e9p+9"),
    "nominal-full": (["0x1.577c8ae9d1674p+17", "0x1.230e3fe2c0facp+12", "0x1.85cedc893ea07p+11",
                      "0x1.ab49d9043461cp+15"], "0x1.deeb41788324fp+12"),
    "open-loop": (["0x1.796aa8b29e2a6p+13", "0x0.0p+0"], "0x0.0p+0"),
    "robust-reduced": (["0x1.7f272c58ba641p+11", "0x1.ae8f8e0e9a2dfp+15"], "0x1.e37c324327590p+12"),
    "robust-full": (["0x1.577c8ae9d82c2p+17", "0x1.230e3fe2c694fp+12", "0x1.85cedc8976791p+11",
                     "0x1.ab49d9040bcb6p+15"], "0x1.deeb41785a4f9p+12"),
    "robust-reduced/perturbed": (["0x1.8cf3c2efee0ccp+11", "0x1.9e2170dfd2d6dp+15"], "0x1.d80b69f40c13dp+12"),
    "robust-full/perturbed": (["0x1.5d60977daf910p+17", "0x1.2288075ded4f3p+12", "0x1.936368507eff7p+11",
                               "0x1.9b0ac811b24e2p+15"], "0x1.d3c1e4180fc62p+12"),
    "global-2Fbar": (["0x1.71f039736db63p+13", "0x1.118e721e43db5p+12"], "0x1.341568e0803f6p+9"),
}


LAW_DESIGNS = {"raw": ("raw", "quintic"), "plus": ("plus", "quintic"),
               "global": ("global", "quintic"), "global-cubic": ("global", "cubic")}


def _outcome(step, state):
    """``(next_state, clamp)`` of one step as float.hex, or the error it raised."""
    try:
        nxt, clamped = step(state)
    except (s.NonnegativityError, s.NonFiniteError) as err:
        return type(err).__name__
    return [x.hex() for x in nxt], clamped.hex()


def _pin_kernel(monkeypatch, in_c):
    """Make ``reference.native_kernel`` and ``sitctl.native.recorder``, which the step helpers and integrate call, run
    on the C driver, which must build, with ``in_c``; else the Python kernel and record function."""
    kernel, recorder = reference.native_kernel, sitctl.native.recorder

    def kernel_in_c(advance):
        fast = kernel(advance)
        assert fast is not advance, "the kernel did not build natively"
        return fast

    def recorder_in_c(*args):
        record = recorder(*args)
        assert not isinstance(record, partial), "the recorder did not build natively"
        return record

    monkeypatch.setattr(reference, "native_kernel", kernel_in_c if in_c else lambda advance: advance)
    monkeypatch.setattr(sitctl.native, "recorder", recorder_in_c if in_c else reference.python_recorder)


class TestUnrolledStep:
    """integrate's generated kernel reproduces step_rk4 over reduced_rhs/full_rhs bit for bit.

    Here the kernel is the Python one; :class:`TestNativeUnrolledStep` runs every test on its C record driver.
    """

    in_c = False

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _pin_kernel(monkeypatch, self.in_c)

    @pytest.mark.parametrize("name", list(BIT_SPECS))
    def test_integrate_golden_bits(self, name):
        # full_rhs is compiled from the field text the kernel inlines, so for the full
        # model the step_rk4 comparison below checks that text against itself
        traj = s.integrate(BIT_SPECS[name])
        assert ([float(x).hex() for x in traj.states[-1]], float(traj.controls[-1]).hex()) == GOLDEN_FINAL[name]

    @pytest.mark.parametrize("spec", BIT_SPECS.values(), ids=list(BIT_SPECS))
    def test_integrate_matches_step_rk4_loop(self, spec):
        f = _reference_rhs(spec, spec.law.evaluator())
        state = tuple(float(x) for x in spec.initial)
        for i in range(round(spec.t_end / spec.dt)):
            state, _ = step_rk4(state, i * spec.dt, spec.dt, f, _clamp_tol(spec))
        final = s.integrate(spec).states[-1]
        assert [float(x).hex() for x in final] == [x.hex() for x in state]

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_step_matches_step_rk4_on_scattered_states(self, params, cfg_strong, model):
        # single steps from states spread over many magnitudes reach the
        # roundings that a short run from the presets never meets
        law = s.ControlLaw("global", cfg_strong, params)
        initial = (1.0, 1.0) if model == "reduced" else (1.0, 1.0, 1.0, 1.0)
        spec = s.SimSpec(model=model, law=law, initial=initial, t_end=1.0, dt=0.1)
        step = _step(spec)
        f = _reference_rhs(spec, law.evaluator())
        rng = np.random.default_rng(2024)
        for state in 10.0 ** rng.uniform(-3.0, 5.0, size=(2000, len(initial))):
            state = tuple(state.tolist())
            fast, _ = step(state)
            ref, _ = step_rk4(state, 0.0, spec.dt, f, _clamp_tol(spec))
            assert [x.hex() for x in fast] == [x.hex() for x in ref]

    @pytest.mark.parametrize("mismatch", [False, True], ids=["own-plant", "perturbed-plant"])
    @pytest.mark.parametrize("design", list(LAW_DESIGNS))
    def test_law_rates_step_matches_step_rk4_on_scattered_states(self, params, design, mismatch):
        # on the law's own plant, integrate's reduced stage is the law's body and the
        # release line: the law's drift stands in for the field's dF, bit for bit
        variant, cutoff_kind = LAW_DESIGNS[design]
        cfg = s.nominal_controller(params, eps=0.01, cutoff_kind=cutoff_kind)
        law = s.ControlLaw(variant, cfg, params)
        plant = perturb_params(params, 0.1, trial_rng(2024, 0))[0] if mismatch else None
        spec = s.SimSpec(model="reduced", law=law, initial=(1.0, 1.0), t_end=1.0, dt=0.1, plant=plant)
        step = _step(spec)
        f = _reference_rhs(spec, law.evaluator())
        rng = np.random.default_rng(2024)
        edge = [(cfg.F_hat, 10.0), (3.0 * cfg.F_hat, 0.0), (0.0, 100.0), (0.0, 0.0), (5e-324, 0.0), (5e-324, 1.0)]
        for state in edge + [tuple(x) for x in (10.0 ** rng.uniform(-3.0, 5.0, size=(2000, 2))).tolist()]:
            ref = _outcome(lambda st: step_rk4(st, 0.0, spec.dt, f, _clamp_tol(spec)), state)
            assert _outcome(step, state) == ref, state

    @pytest.mark.parametrize("model", ["reduced", "full"])
    @pytest.mark.parametrize("release", [0.0, -1e-7, -1.0])
    def test_clamp_policy_matches_step_rk4(self, params, cfg, eq, model, release):
        # a constant release rate: -1e-7 undershoots Ms within the clamp
        # tolerance, -1.0 beyond it
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        spec = s.SimSpec(model=model, law=s.ControlLaw("plus", cfg, params), initial=initial, t_end=1.0, dt=0.1)
        u = lambda F, Ms: release
        step = _release_step(spec, release)
        f = _reference_rhs(spec, u)
        if release == -1.0:
            with pytest.raises(s.NonnegativityError):
                step(initial)
            with pytest.raises(s.NonnegativityError):
                step_rk4(initial, 0.0, spec.dt, f, _clamp_tol(spec))
            return
        (fast, fast_clamp), (ref, ref_clamp) = step(initial), step_rk4(initial, 0.0, spec.dt, f, _clamp_tol(spec))
        assert [x.hex() for x in fast] == [x.hex() for x in ref]
        assert fast_clamp == ref_clamp
        assert (fast_clamp > 0.0) == (release < 0.0)

    def test_error_carries_the_clamp_of_the_chunks_earlier_steps(self, params, cfg, eq, monkeypatch):
        # step 1 undershoots Ms within the clamp tolerance; step 2, in the same chunk, releases -1 at its first
        # stage, the only one with F == F1, and fails
        initial = (2.0 * eq.F_bar, 0.0)
        spec = s.SimSpec(model="reduced", law=s.ControlLaw("plus", cfg, params), initial=initial, t_end=1.0, dt=0.1,
                         plant=params.replace())
        (F1, _), clamp1 = _release_step(spec, -1e-7)(initial)
        law = "u = -1.0 if F == F1 else -1e-7\n"
        u = lambda F, Ms: -1.0 if F == F1 else -1e-7
        state, ref_clamp = step_rk4(initial, 0.0, spec.dt, _reference_rhs(spec, u), _clamp_tol(spec))
        assert ref_clamp == clamp1 > 0.0
        with pytest.raises(s.NonnegativityError):
            step_rk4(state, spec.dt, spec.dt, _reference_rhs(spec, u), _clamp_tol(spec))
        kernel = define(*_kernel("reduced", law, {"F1": F1}, params, spec.dt, _clamp_tol(spec)))
        with pytest.raises(s.NonnegativityError) as err:
            reference.native_kernel(kernel)(initial, 2)
        assert err.value.max_clamp == clamp1
        monkeypatch.setattr(s.ControlLaw, "body", lambda self: (law, {"F1": F1}))
        traj = s.integrate(spec)
        assert (traj.termination, traj.max_clamp, len(traj.times)) == (s.simulate.TERMINATION_NONNEG, clamp1, 1)

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_nan_state_raises_non_finite_in_both_steppers(self, params, cfg, eq, model):
        # nan < 0.0 is False, so a NaN state used to pass the nonnegativity test and ride to the horizon
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        spec = s.SimSpec(model=model, law=s.ControlLaw("plus", cfg, params), initial=initial, t_end=1.0, dt=0.1)
        u = lambda F, Ms: math.nan
        step = _release_step(spec, math.nan)
        f = _reference_rhs(spec, u)
        assert _outcome(step, initial) == "NonFiniteError"
        assert _outcome(lambda st: step_rk4(st, 0.0, spec.dt, f, _clamp_tol(spec)), initial) == "NonFiniteError"

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_infinite_state_raises_non_finite_in_both_steppers(self, params, cfg, eq, model):
        # inf >= 0.0 is True, so an overflowed state passed the test and was recorded, one step before the NaN
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        spec = s.SimSpec(model=model, law=s.ControlLaw("plus", cfg, params), initial=initial, t_end=1.0, dt=0.1)
        u = lambda F, Ms: 1e308  # dMs1 + 2 * (dMs2 + dMs3) overflows
        step = _release_step(spec, 1e308)
        f = _reference_rhs(spec, u)
        assert _outcome(step, initial) == "NonFiniteError"
        assert _outcome(lambda st: step_rk4(st, 0.0, spec.dt, f, _clamp_tol(spec)), initial) == "NonFiniteError"

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_subnormal_state_runs_to_horizon(self, params, cfg_strong, model):
        # g's denominator and the law's underflow to 0 at F = 5e-324
        initial = (5e-324, 0.0) if model == "reduced" else (0.0, 0.0, 5e-324, 0.0)
        law = s.ControlLaw("global", cfg_strong, params)
        traj = s.integrate(s.SimSpec(model=model, law=law, initial=initial, t_end=1.0, dt=0.1))
        assert traj.termination == "horizon"
        assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.controls))


@pytest.mark.skipif(sitctl.native.compiler() is None, reason="no C compiler on PATH")
class TestNativeUnrolledStep(TestUnrolledStep):
    """Every test of :class:`TestUnrolledStep` on the native kernel, which must build."""

    in_c = True


def _reference_run(spec):
    """integrate's record from a plain step_rk4 loop that checks the record rule at every step."""
    u = spec.law.evaluator()
    f = _reference_rhs(spec, u)
    n_steps = round(spec.t_end / spec.dt)
    state = tuple(float(x) for x in spec.initial)
    times, states = [0.0], [state]
    termination, max_clamp = s.simulate.TERMINATION_HORIZON, 0.0
    for i in range(1, n_steps + 1):
        try:
            state, clamped = step_rk4(state, (i - 1) * spec.dt, spec.dt, f, _clamp_tol(spec))
        except s.NonnegativityError:
            termination = s.simulate.TERMINATION_NONNEG
            break
        except s.NonFiniteError:
            termination = s.simulate.TERMINATION_NONFINITE
            break
        max_clamp = max(max_clamp, clamped)
        if i % spec.record_every == 0 or i == n_steps:
            times.append(i * spec.dt)
            states.append(state)
    lyap = None
    if spec.model == "reduced":
        lyap = np.array([s.lyapunov_V(*st, spec.law.config, spec.law.params) for st in states])
    return np.array(times), np.array(states), np.array([u(*st[-2:]) for st in states]), lyap, termination, max_clamp


FAST_STERILE = s.NOMINAL_PARAMS.replace(delta_s=20.0)


def _record_specs():
    """Short runs of each model, with and without a plant; some end mid-chunk."""
    plant, _ = perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(2024, 0))
    return {
        "nominal-reduced/every-7": preset_scenario("nominal-reduced", t_end=20.0, record_every=7).sim_spec(),
        "open-loop/every-1": preset_scenario("open-loop", t_end=2.0, record_every=1).sim_spec(),
        "nominal-full": preset_scenario("nominal-full", t_end=20.0).sim_spec(),
        "robust-reduced/perturbed/every-30": preset_scenario("robust-reduced", t_end=20.0, record_every=30).sim_spec(plant),
        "robust-full/perturbed": preset_scenario("robust-full", t_end=20.0).sim_spec(plant),
        # the stiff egg compartment undershoots at step 6, inside the second chunk of 4
        "full-global-55Fbar/nonneg": preset_scenario(
            "nominal-full", F0_ratio=55.0, t_end=10.0, dt=0.1, record_every=4,
        ).sim_spec(),
        # a law designed for delta_s = 20 releases 19.9 Ms on a plant whose sterile males die at 0.12:
        # Ms grows 20-fold a day, reaches inf at t = 36.4, the last step of a chunk, and NaN a step later
        "ds20/non-finite": dataclasses.replace(
            preset_scenario("nominal-full", F0=0.5, t_end=400.0, dt=0.1, record_every=4).sim_spec(s.NOMINAL_PARAMS),
            law=s.ControlLaw("global", s.nominal_controller(FAST_STERILE, eps=0.01, eta=0.1), FAST_STERILE),
        ),
    }


RECORD_SPECS = _record_specs()


class TestChunkedRecords:
    """integrate records in chunks of record_every steps; the record is the per-step rule's.

    Here the recorder is integrate's own, the C one where a compiler is found; :class:`TestPythonChunkedRecords`
    runs every test on the Python record function.
    """

    @pytest.mark.parametrize("spec", RECORD_SPECS.values(), ids=list(RECORD_SPECS))
    def test_whole_record_matches_step_rk4_loop(self, spec):
        times, states, controls, lyap, termination, max_clamp = _reference_run(spec)
        traj = s.integrate(spec)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.controls.tobytes() == controls.tobytes()
        assert (traj.lyapunov is None) == (lyap is None)
        if lyap is not None:
            assert traj.lyapunov.tobytes() == lyap.tobytes()
        assert (traj.termination, traj.max_clamp) == (termination, max_clamp)

    def test_specs_cover_short_last_chunk_and_mid_chunk_stop(self):
        n_steps = {name: round(spec.t_end / spec.dt) for name, spec in RECORD_SPECS.items()}
        assert n_steps["nominal-reduced/every-7"] % 7 != 0
        traj = s.integrate(RECORD_SPECS["full-global-55Fbar/nonneg"])
        assert traj.termination == s.simulate.TERMINATION_NONNEG
        assert traj.times[-1] == pytest.approx(0.4)  # the run stopped during steps 5-8

    def test_non_finite_run_ends_before_its_first_nan(self):
        # it used to end 'horizon' with Ms and u nan in the last samples; then 'non-finite', but with Ms = inf and
        # u = inf recorded at t = 36.4, the step before the NaN
        traj = s.integrate(RECORD_SPECS["ds20/non-finite"])
        assert traj.termination == s.simulate.TERMINATION_NONFINITE == "non-finite"
        assert traj.times[-1] == 36.0
        assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.controls))

    def test_an_overflow_in_a_step_stops_the_run_non_finite(self):
        # integrate raised the OverflowError of lin**3 at an RK4 stage, and simulate and robustness exited 1 with a
        # traceback; now the run keeps the samples before the chunk, as for a NaN or infinite state
        spec = scenario_from_config(parse_config_text(reference.OVERFLOW_CONFIG), "overflow").sim_spec()
        traj = s.integrate(spec)
        assert (len(traj.times), traj.termination, traj.max_clamp) == (1, s.simulate.TERMINATION_NONFINITE, 0.0)
        assert traj.states[0].tolist() == list(spec.initial)


class TestPythonChunkedRecords(TestChunkedRecords):
    """Every test of :class:`TestChunkedRecords` on the Python kernel and record function, compiler or not."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        _pin_kernel(monkeypatch, False)


def _stage(text):
    """``text`` as the kernel's RK4 loop writes it out in a stage."""
    return textwrap.indent(text, " " * 8)


class TestSharedRecruitment:
    """A reduced run on the law's own plant evaluates g once per stage, inside the law; on a perturbed plant,
    the plant's field follows the law in every stage."""

    @pytest.fixture
    def g_calls(self, monkeypatch):
        counts = {"g": 0}

        def counting_g(F, Ms, p, _g=sitctl.model.g):
            counts["g"] += 1
            return _g(F, Ms, p)

        monkeypatch.setattr(sitctl.model, "g", counting_g)  # control reads no g: its law is text
        return counts

    @pytest.mark.parametrize("variant", ["raw", "plus", "global"])
    def test_own_plant_splices_no_field(self, params, cfg, eq, g_calls, variant):
        law = s.ControlLaw(variant, cfg, params)
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=10.0, dt=0.1)
        source = sitctl.model.source(*_advance(spec))
        assert source.count(_stage(sitctl.control.LAW)) == 4  # the law, once per stage
        assert source.count(_stage(RECRUITMENT)) == 4  # g's text, inside the law only
        assert _stage(FIELDS["reduced"]) not in source and "plant_" not in source  # no field text, plain or renamed
        s.integrate(spec)
        assert g_calls == {"g": 0}

    @pytest.mark.parametrize("model", ["reduced", "full"])
    def test_perturbed_plant_splices_the_field_once_per_stage(self, params, cfg, eq, g_calls, model):
        plant, _ = perturb_params(params, 0.1, trial_rng(2024, 0))
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        law = s.ControlLaw("plus", cfg, params)
        spec = s.SimSpec(model=model, law=law, initial=initial, t_end=10.0, dt=0.1, plant=plant)
        source = sitctl.model.source(*_advance(spec))
        field = FIELDS[model]
        for name in field_constants(plant):  # the plant's constants, renamed beside the law's
            field = re.sub(rf"\b{name}\b", "plant_" + name, field)
        assert source.count(_stage(field)) == 4
        assert source.count(_stage(sitctl.control.LAW)) == 4
        assert source.count(_stage(RECRUITMENT)) == 4  # the law's; the field's reads the plant's names
        s.integrate(spec)
        assert g_calls == {"g": 0}


class TestKernelSource:
    """A kernel's source depends on the loop's shape only; values enter as the defaults of its constants."""

    SHAPES = [("reduced", None), ("reduced", "perturbed"), ("full", None), ("full", "perturbed")]

    @staticmethod
    def _spec(design, plant, model, variant="global", p=s.NOMINAL_PARAMS):
        cfg = s.nominal_controller(p) if design == "nominal" else s.strong_controller(p)
        eq = s.persistence_equilibrium(p)
        initial = (eq.F_bar, 0.0) if model == "reduced" else (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)
        return s.SimSpec(model=model, law=s.ControlLaw(variant, cfg, p), initial=initial, t_end=1.0, dt=0.05,
                         plant=plant)

    @pytest.mark.parametrize("model, plant", SHAPES)
    def test_two_plants_and_designs_compile_once(self, monkeypatch, model, plant):
        compiled = []

        def counting_compile(source, *args):
            compiled.append(source)
            return compile(source, *args)

        monkeypatch.setattr(sitctl.model, "_CODE", {})
        monkeypatch.setattr(sitctl.model, "compile", counting_compile, raising=False)
        draws = [None, None] if plant is None else [perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(2024, i))[0]
                                                     for i in range(2)]
        a, b = (define(*_advance(self._spec(design, draw, model)))
                for design, draw in zip(("nominal", "strong"), draws))
        assert a.__code__ is b.__code__
        assert len(compiled) == 1 and list(sitctl.model._CODE) == compiled
        assert a.__defaults__ != b.__defaults__

    @pytest.mark.parametrize("model, plant", SHAPES)
    def test_no_value_reaches_the_source(self, model, plant):
        # the law's params and the plant are draws, so no value is a round number that a literal could spell
        law_params = perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(7, 0))[0]
        plant = None if plant is None else perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(7, 1))[0]
        kernel = _advance(self._spec("strong", plant, model, p=law_params))
        advance, source = define(*kernel), sitctl.model.source(*kernel)
        values = [v for v in advance.__defaults__ if type(v) is float and v != math.inf]
        # the law's 25 constants, 14 of the plant's unless the law runs on its own reduced plant, dt, h2, sixth, clamp_tol
        assert len(values) == 25 + (0 if (model, plant) == ("reduced", None) else 14) + 4
        assert [repr(v) for v in values if repr(v) in source] == []
        assert set(map(type, advance.__defaults__)) == {float, bool, type(sitctl.simulate._clamp)}

    def test_variants_of_a_feedback_law_share_one_source(self):
        advances = [define(*_advance(self._spec("nominal", None, "reduced", variant)))
                    for variant in ("raw", "plus", "global")]
        assert len({a.__code__ for a in advances}) == 1


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

    @pytest.mark.parametrize("name", ["full-global-55Fbar/nonneg", "ds20/non-finite"])
    def test_run_that_stopped_early_has_none(self, name):
        # F is below the threshold at every sample, but the run never reached its horizon
        traj = s.integrate(RECORD_SPECS[name])
        assert traj.termination != s.simulate.TERMINATION_HORIZON
        assert s.detect_extinction(traj, 1e30) is None
        assert s.detect_extinction(dataclasses.replace(traj, termination="horizon"), 1e30) == 0.0
