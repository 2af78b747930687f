"""Scenario runner, parameter perturbation, robustness sweep and the CLI."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sitctl as s
from sitctl.cli import _scenario_from_config, build_parser
from sitctl.cli import main as cli_main
from sitctl.harness import (
    DEFAULT_PERTURB_SET,
    RobustnessConfig,
    ScenarioConfig,
    preset_scenario,
    run_robustness,
    trial_rng,
)
from sitctl.model import PARAM_KEYS


class TestPerturbParams:
    def test_zero_fraction_is_identity(self, params):
        perturbed, tries = s.perturb_params(params, 0.0, trial_rng(1, 0))
        assert perturbed == params
        assert tries == 1

    def test_bounded_multiplicative_noise(self, params):
        rng = trial_rng(11, 3)
        perturbed, _ = s.perturb_params(params, 0.10, rng)
        for name in DEFAULT_PERTURB_SET:
            ratio = getattr(perturbed, name) / getattr(params, name)
            assert 0.9 <= ratio <= 1.1
        assert perturbed.k == params.k  # capacity not perturbed by default

    def test_resample_rate_small_at_study_uncertainty(self, params):
        # the delta_s > delta_M margin is thin: 0.9 delta_s < 1.1 delta_M can
        # happen, so some draws need a resample; measure the rate
        rng = trial_rng(99, 0)
        draws = 10_000
        total = sum(s.perturb_params(params, 0.10, rng)[1] for _ in range(draws))
        rate = (total - draws) / draws
        assert 0.0 <= rate < 0.05

    def test_every_output_revalidates(self, params):
        rng = trial_rng(5, 0)
        for _ in range(200):
            perturbed, _ = s.perturb_params(params, 0.10, rng)
            s.validate_params(perturbed)

    def test_exhaustion_names_binding_constraint(self, params):
        hopeless = params.replace(delta_s=0.05)  # below delta_M at any 1% draw
        with pytest.raises(s.ParamError, match="delta_s"):
            s.perturb_params(hopeless, 0.01, trial_rng(0, 0), max_tries=5)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_perturbed_set_is_plain_floats_and_round_trips(self, seed, trial):
        perturbed, _ = s.perturb_params(s.NOMINAL_PARAMS, 0.10, trial_rng(seed, trial))
        assert all(type(getattr(perturbed, name)) is float for name in PARAM_KEYS)
        assert s.params_from_text(s.params_to_text(perturbed)) == perturbed

    def test_fraction_domain(self, params):
        with pytest.raises(ValueError):
            s.perturb_params(params, 1.0, trial_rng(0, 0))


class TestPresets:
    def test_known_presets(self):
        for name in ("nominal-reduced", "nominal-full", "open-loop", "robust-reduced", "robust-full"):
            scenario = preset_scenario(name)
            assert scenario.name == name

    def test_unknown_preset(self):
        with pytest.raises(s.ConfigError):
            preset_scenario("nominal-spatial")

    def test_sim_spec_drives_the_given_plant(self, params):
        plant, _ = s.perturb_params(params, 0.10, trial_rng(2024, 0))
        spec = preset_scenario("robust-reduced").sim_spec(plant=plant)
        assert spec.plant is plant
        assert spec.law.params is params  # the law stays nominal

    def test_default_initial_is_persistence_equilibrium(self, eq):
        reduced = preset_scenario("nominal-reduced").resolve_initial()
        assert reduced == (eq.F_bar, 0.0)
        full = preset_scenario("nominal-full").resolve_initial()
        assert full == (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)


class TestRunScenario:
    def test_nominal_reduced_passes_and_writes_artifacts(self, tmp_path):
        scenario = preset_scenario("nominal-reduced", t_end=400.0, out_dir=tmp_path)
        result = s.run_scenario(scenario)
        assert result.passed
        assert result.control_nonneg
        assert result.decay is not None and result.decay.passed
        assert type(result.decay.lambda_fit) is float
        assert (tmp_path / "nominal-reduced.csv").exists()
        summary = (tmp_path / "nominal-reduced.summary.txt").read_text()
        assert "passed = True" in summary
        assert "np.float64" not in summary

    def test_open_loop_returns_to_persistence(self, eq):
        scenario = preset_scenario("open-loop", t_end=2000.0, dt=0.05, record_every=20)
        result = s.run_scenario(scenario)
        assert result.passed
        assert result.trajectory.F[-1] == pytest.approx(eq.F_bar, rel=0.01)
        assert result.extinction_time is None

    def test_nominal_full_reaches_extinction(self, tmp_path):
        scenario = preset_scenario("nominal-full", dt=0.05, record_every=20, out_dir=tmp_path)
        result = s.run_scenario(scenario)
        assert result.passed
        assert result.extinction_time is not None
        assert result.control_nonneg


class TestRobustness:
    @pytest.fixture(scope="module")
    def quick_base(self):
        return preset_scenario("robust-reduced", t_end=800.0)

    def test_reproducible_summaries(self, quick_base):
        config = RobustnessConfig(base=quick_base, trials=3, uncertainty=0.10, seed=7)
        a = run_robustness(config).summary_lines()
        b = run_robustness(config).summary_lines()
        assert a == b

    def test_zero_uncertainty_equals_nominal_run(self, quick_base):
        config = RobustnessConfig(base=quick_base, trials=2, uncertainty=0.0, seed=3)
        result = run_robustness(config)
        nominal = s.integrate(quick_base.sim_spec())
        expected_ext = s.detect_extinction(nominal, quick_base.extinction_threshold)
        for trial in result.trials:
            assert trial.extinction_time == expected_ext
            assert trial.max_control == float(np.max(nominal.controls))
            assert trial.total_control == s.control_budget(nominal).total

    def test_perturbed_trials_extinct_with_nonnegative_control(self, quick_base):
        config = RobustnessConfig(base=quick_base, trials=5, uncertainty=0.10, seed=2024)
        result = run_robustness(config)
        assert result.n_extinct == 5
        assert result.n_nonneg == 5
        assert result.n_decreasing == 5

    def test_config_validation(self, quick_base):
        with pytest.raises(ValueError):
            RobustnessConfig(base=quick_base, trials=0)
        with pytest.raises(ValueError):
            RobustnessConfig(base=quick_base, uncertainty=1.5)


# The study configs of the README, each named after the preset it reproduces.
STUDY_CONFIGS = {
    "nominal-reduced": "[sim]\n",
    "nominal-full": "[controller]\neps = 0.01\nvariant = global\n[sim]\nmodel = full\n",
    "open-loop": "[controller]\nvariant = none\n[sim]\nF0_ratio = 0.9\n",
    "robust-reduced": "[controller]\neps = 0.01\nvariant = global\n[sim]\ndt = 0.05\nrecord_every = 20\n",
    "robust-full": "[controller]\neps = 0.01\nvariant = global\n[sim]\nmodel = full\ndt = 0.05\nrecord_every = 20\n",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "[params]\n"
        "beta_E = 10\ngamma_s = 1\nnu_E = 0.005\nnu = 0.49\n"
        "delta_E = 0.03\ndelta_M = 0.1\ndelta_F = 0.04\ndelta_s = 0.12\nk = 212370\n"
        "[controller]\nF_hat_ratio = 1.35\neta = 0.1\nrho = 0.5\nvariant = plus\n"
        "[sim]\nmodel = reduced\nt_end = 200\ndt = 0.05\nrecord_every = 20\n"
    )
    return path


class TestCli:
    def test_equilibria(self, config_file, capsys):
        assert cli_main(["equilibria", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "R0 = 17.5" in out
        assert "F_bar = 12264.3675" in out

    def test_simulate_writes_csv(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli_main(["simulate", str(config_file), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "study.csv").exists()
        out = capsys.readouterr().out
        assert "passed = True" in out
        assert "lambda_fit = 0.0" in out  # a plain float, not np.float64(...)

    def test_audit_single_check(self, config_file, capsys):
        assert cli_main(["audit", str(config_file), "--check", "mstar_identity"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check,grid,pass,worst_value,witness_F,witness_Ms")
        assert "mstar_identity" in out

    def test_robustness_exit_code(self, config_file, tmp_path, capsys):
        # a tighter recruitment target is needed to reach the extinction
        # threshold within the shortened 800-day horizon
        strong = tmp_path / "strong.cfg"
        strong.write_text(
            config_file.read_text().replace("F_hat_ratio = 1.35", "eps = 0.01")
        )
        config_file = strong
        out_dir = tmp_path / "rob"
        code = cli_main([
            "robustness", str(config_file), "--trials", "2", "--uncertainty", "0.0",
            "--seed", "1", "--variant", "global", "--t-end", "800", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "robustness.txt").read_text().count("trial=") == 2

    @pytest.mark.parametrize("line", ["model = planar", "t_end = ten", "record_every = 1.5"])
    def test_bad_sim_value_exits_2(self, config_file, line, capsys):
        key = line.split(" = ")[0]
        lines = [x for x in config_file.read_text().splitlines() if not x.startswith(key + " ")]
        config_file.write_text("\n".join(lines + [line]) + "\n")
        assert cli_main(["simulate", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert "[sim]" in err and key in err

    @pytest.mark.parametrize("option, value", [("--trials", "0"), ("--uncertainty", "1.5")])
    def test_bad_robustness_option_exits_2(self, config_file, option, value, capsys):
        assert cli_main(["robustness", str(config_file), option, value]) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", STUDY_CONFIGS.items(), ids=list(STUDY_CONFIGS))
    def test_study_config_builds_its_preset(self, tmp_path, name, text):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        scenario = _scenario_from_config(path, build_parser().parse_args(["simulate", str(path)]))
        assert scenario == preset_scenario(name)

    def test_simulate_near_extinction(self, tmp_path, capsys):
        # by t = 16000 F and Ms are ~1e-160 and smaller, where the law's
        # denominators underflow to 0
        path = tmp_path / "robust-reduced.cfg"
        path.write_text(STUDY_CONFIGS["robust-reduced"].replace("dt = 0.05", "dt = 0.1"))
        assert cli_main(["simulate", str(path), "--t-end", "16000"]) == 0
        assert "termination = horizon" in capsys.readouterr().out

    def test_robustness_one_sample_window_fits_without_warning(self, tmp_path, recwarn):
        # dt 0.05, record_every 20, t_end 1: samples at t = 0 and 1 only
        path = tmp_path / "robust-reduced.cfg"
        path.write_text(STUDY_CONFIGS["robust-reduced"])
        assert cli_main(["robustness", str(path), "--trials", "1", "--t-end", "1"]) in (0, 1)
        assert [str(w.message) for w in recwarn] == []

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nbetaE = 10\n")
        assert cli_main(["equilibria", str(bad)]) == 2
        assert "beta_E" in capsys.readouterr().err


@pytest.fixture(scope="module")
def short_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "short.cfg"
    path.write_text("[controller]\neps = 0.01\nvariant = global\n")
    return path


@given(
    command=st.sampled_from(["simulate", "robustness"]),
    trials=st.integers(min_value=-1, max_value=3),
    uncertainty=st.floats(min_value=-0.5, max_value=1.5),
    dt=st.sampled_from([-0.01, 0.0, 0.05, 0.5]),
    t_end=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(min_value=-1.0, max_value=2.0)),
)
@settings(max_examples=200, deadline=None)
def test_cli_exit_code_is_0_1_or_2(short_config, command, trials, uncertainty, dt, t_end):
    argv = [command, str(short_config), f"--dt={dt!r}", f"--t-end={t_end!r}"]
    if command == "robustness":
        argv += [f"--trials={trials}", f"--uncertainty={uncertainty!r}"]
    assert cli_main(argv) in (0, 1, 2)
