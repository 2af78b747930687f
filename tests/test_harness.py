"""Scenario runner, parameter perturbation, robustness sweep and the CLI."""
import csv
import io
import math
import os
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sitctl as s
from sitctl.cli import main as cli_main
from sitctl.configio import SECTION_KEYS, finite_float, params_to_text
from sitctl.harness import (
    DEFAULT_PERTURB_SET,
    PRESETS,
    RobustnessConfig,
    RobustnessResult,
    ScenarioConfig,
    _trial,
    preset_scenario,
    run_robustness,
    trial_rng,
)
from sitctl.model import PARAM_KEYS
from sitctl.verify import AUDIT_CHECKS

from reference import OVERFLOW_CONFIG


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
            s.perturb_params(hopeless, 0.01, trial_rng(0, 0))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_perturbed_set_is_plain_floats_and_round_trips(self, seed, trial):
        perturbed, _ = s.perturb_params(s.NOMINAL_PARAMS, 0.10, trial_rng(seed, trial))
        assert all(type(getattr(perturbed, name)) is float for name in PARAM_KEYS)
        assert s.params_from_text(s.params_to_text(perturbed)) == perturbed

    def test_fraction_domain(self, params):
        with pytest.raises(ValueError):
            s.perturb_params(params, 1.0, trial_rng(0, 0))


README = Path(__file__).resolve().parent.parent / "README.md"


class TestPresets:
    def test_known_presets(self):
        for name in ("nominal-reduced", "nominal-full", "open-loop", "robust-reduced", "robust-full"):
            scenario = preset_scenario(name)
            assert scenario.name == name

    def test_unknown_preset(self):
        with pytest.raises(s.ConfigError):
            preset_scenario("nominal-spatial")

    def test_readme_study_configs_are_the_presets(self):
        configs = re.findall(r"^printf '(.*)' > study/(.*)\.cfg$", README.read_text(), flags=re.MULTILINE)
        assert {name: text.replace("\\n", "\n") for text, name in configs} == PRESETS

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_fields(self, name, params, eq, cfg, cfg_strong):
        # every field of each preset as it was when the presets were written as ScenarioConfigs
        controller, variant, model, initial, dt, record_every = {
            "nominal-reduced": (cfg, "plus", "reduced", None, 0.01, 100),
            "nominal-full": (cfg_strong, "global", "full", None, 0.01, 100),
            "open-loop": (cfg, "none", "reduced", (0.9 * eq.F_bar, 0.0), 0.01, 100),
            "robust-reduced": (cfg_strong, "global", "reduced", None, 0.05, 20),
            "robust-full": (cfg_strong, "global", "full", None, 0.05, 20),
        }[name]
        assert preset_scenario(name) == ScenarioConfig(
            name=name, params=params, controller=controller, variant=variant, model=model, initial=initial,
            t_end=2000.0, dt=dt, record_every=record_every, extinction_threshold=1.0,
        )

    @pytest.mark.parametrize("overrides, named", [
        ({"initial": (1.0, 0.0)}, "unknown key 'initial' in [sim]"),
        ({"t_end": math.inf}, "[sim] t_end: invalid value 'inf'"),
        ({"record_every": 1.5}, "[sim] record_every: invalid value '1.5'"),
        ({"dt": 0.5}, "[sim] dt must lie in (0, 0.1]"),
        ({"E0": 5.0}, "[sim] E0: full model only, got model = reduced"),  # was dropped silently
        ({"F0": 5.0, "F0_ratio": 0.9}, "[sim] specify at most one of F0, F0_ratio"),  # F0 won silently
    ])
    def test_overrides_are_checked_as_config_values(self, overrides, named):
        with pytest.raises(s.ConfigError) as err:
            preset_scenario("nominal-reduced", **overrides)
        assert named in str(err.value)

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
        # the one artifact is the CSV at the given path; the summary file is the CLI's (TestCli)
        scenario = preset_scenario("nominal-reduced", t_end=400.0)
        result = s.run_scenario(scenario, tmp_path / "run.csv")
        assert result.passed
        assert result.control_nonneg
        assert result.decay is not None and result.decay.passed
        assert type(result.decay.lambda_fit) is float
        assert list(tmp_path.iterdir()) == [tmp_path / "run.csv"]
        header, rows = s.read_trajectory_csv(tmp_path / "run.csv")
        assert header == ["t", "F", "Ms", "u", "V"] and len(rows) == len(result.trajectory.times)

    def test_open_loop_returns_to_persistence(self, eq):
        scenario = preset_scenario("open-loop", t_end=2000.0, dt=0.05, record_every=20)
        result = s.run_scenario(scenario)
        assert result.passed
        assert result.trajectory.F[-1] == pytest.approx(eq.F_bar, rel=0.01)
        assert result.extinction_time is None

    def test_full_run_that_stops_early_fails(self):
        # F starts below this threshold, but the run stops on a nonnegativity violation at t = 0.4;
        # the full-model verdict used to ignore the termination and pass it
        scenario = preset_scenario("nominal-full", F0_ratio=55.0, t_end=10.0, dt=0.1, extinction_threshold=1e30)
        result = s.run_scenario(scenario)
        assert result.trajectory.termination == "nonnegativity-violation"
        assert result.extinction_time is None
        assert not result.passed

    def test_nominal_full_reaches_extinction(self):
        scenario = preset_scenario("nominal-full", dt=0.05, record_every=20)
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
            assert trial.total_control == s.control_budget(nominal)

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


def _fail_on_trial(seed: int, trial: int):
    """A stand-in for perturb_params that raises on the stream of ``trial`` and perturbs as usual otherwise."""
    perturb, marked = s.harness.perturb_params, trial_rng(seed, trial).bit_generator.state

    def perturb_or_fail(p, fraction, rng):
        if rng.bit_generator.state == marked:
            raise s.ParamError(f"trial {trial} refused")
        return perturb(p, fraction, rng)

    return perturb_or_fail


def _threads_left() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread is not threading.main_thread()]


class TestParallelSweep:
    """run_robustness maps _trial over worker threads; what it returns is the one-thread loop's."""

    @pytest.mark.parametrize("trials", [3, 5])
    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("preset", ["robust-reduced", "robust-full"])
    def test_summaries_equal_the_one_process_loop(self, monkeypatch, preset, seed, trials):
        monkeypatch.setattr(s.harness, "_usable_cpus", lambda: 2)  # a pool, even on a one-CPU machine
        config = RobustnessConfig(base=preset_scenario(preset, t_end=100.0), trials=trials, seed=seed)
        expected = RobustnessResult(trials=[_trial(config, i) for i in range(trials)]).summary_lines()
        assert run_robustness(config).summary_lines() == expected
        assert _threads_left() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_trials_run_in_workers_unless_one_cpu(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(s.harness, "_usable_cpus", lambda: cpus)
        integrate = s.harness.integrate

        def integrate_noting_thread(spec):
            (tmp_path / str(threading.get_ident())).touch()
            return integrate(spec)

        monkeypatch.setattr(s.harness, "integrate", integrate_noting_thread)
        run_robustness(RobustnessConfig(base=preset_scenario("robust-reduced", t_end=20.0), trials=3))
        threads = {int(path.name) for path in tmp_path.iterdir()}
        assert 1 <= len(threads) <= cpus and threading.get_ident() not in threads

    @pytest.mark.parametrize("preset", ["robust-reduced", "robust-full"])
    def test_more_threads_than_cpus_switching_often_equal_the_loop(self, monkeypatch, preset):
        # the threads share one built driver, the compiled-code caches and numpy: a crossed or lost write changes a line
        monkeypatch.setattr(s.harness, "_usable_cpus", lambda: 4)
        config = RobustnessConfig(base=preset_scenario(preset, t_end=200.0), trials=16, seed=7)
        expected = RobustnessResult(trials=[_trial(config, i) for i in range(16)]).summary_lines()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_robustness(config)
        finally:
            sys.setswitchinterval(interval)
        assert result.summary_lines() == expected
        assert _threads_left() == []

    def test_usable_cpus_is_the_affinity_mask(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert s.harness._usable_cpus() == expected

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "workers"])
    def test_failing_trial_fails_the_sweep(self, monkeypatch, tmp_path, cpus, capsys):
        monkeypatch.setattr(s.harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(s.harness, "perturb_params", _fail_on_trial(2024, 1))  # worker threads read it too
        config = RobustnessConfig(base=preset_scenario("robust-reduced", t_end=20.0), trials=4)
        with pytest.raises(s.ParamError, match="^trial 1 refused$"):
            run_robustness(config)
        assert _threads_left() == []
        path = tmp_path / "robust-reduced.cfg"
        path.write_text(PRESETS["robust-reduced"])
        assert cli_main(["robustness", str(path), "--trials", "4", "--t-end", "20"]) == 2
        assert capsys.readouterr() == ("", "error: trial 1 refused\n")
        assert _threads_left() == []

    def test_failing_trial_cancels_the_pending_trials(self, monkeypatch, tmp_path):
        monkeypatch.setattr(s.harness, "_usable_cpus", lambda: 2)
        failing = _fail_on_trial(2024, 0)

        def perturb_noting_trial(p, fraction, rng):
            (tmp_path / str(rng.bit_generator.state["state"]["state"])).touch()
            return failing(p, fraction, rng)

        monkeypatch.setattr(s.harness, "perturb_params", perturb_noting_trial)
        with pytest.raises(s.ParamError, match="trial 0 refused"):
            run_robustness(RobustnessConfig(base=preset_scenario("robust-reduced"), trials=20))
        # when trial 0 fails, only the trials that the two threads took up before the sweep saw it have started
        assert len(list(tmp_path.iterdir())) <= 6
        assert _threads_left() == []


# Every float-valued config key, read off the schema so that a new key is covered too.
FLOAT_KEYS = [(section, key) for section, schema in SECTION_KEYS.items() for key, convert in schema.items()
              if convert is finite_float]

# A law designed for delta_s = 20 releases 19.9 Ms.  On the table plant, whose sterile males die at 0.12, Ms grows
# 20-fold a day and the full-model state turns NaN after t = 30.
NON_FINITE_WITNESS = (
    f"[params]\n{params_to_text(s.NOMINAL_PARAMS.replace(delta_s=20.0))}"
    "[controller]\neps = 0.01\neta = 0.1\nvariant = global\n[sim]\nmodel = full\nF0 = 0.5\nt_end = 400\ndt = 0.1\n"
)


@pytest.fixture
def table_plant(monkeypatch):
    """Every scenario drives the table plant, whatever its law was designed for; sweep worker threads too.

    A config gives the law and the plant the same [params], and the step gate keeps such a run finite, so a
    run that turns NaN needs a plant that the law was not designed for.
    """
    sim_spec = ScenarioConfig.sim_spec
    monkeypatch.setattr(ScenarioConfig, "sim_spec", lambda self, plant=None: sim_spec(self, s.NOMINAL_PARAMS))


@pytest.fixture
def integrate_calls(monkeypatch):
    """The specs passed to integrate, which is replaced by a recorder: a test using this expects no run."""
    calls = []
    monkeypatch.setattr(s.harness, "integrate", lambda spec: calls.append(spec))
    return calls


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


def _set_keys(path, **values):
    """Rewrite the ``key = value`` lines of the config at ``path`` named in ``values``."""
    lines = []
    for line in path.read_text().splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {values[key]}" if key in values else line)
    path.write_text("\n".join(lines) + "\n")


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

    def test_simulate_out_writes_the_summary_file(self, tmp_path, capsys):
        # the summary-file checks of TestRunScenario, now that the CLI writes the file
        path = tmp_path / "nominal-reduced.cfg"
        path.write_text(PRESETS["nominal-reduced"])
        out_dir = tmp_path / "out"
        assert cli_main(["simulate", str(path), "--t-end", "400", "--out", str(out_dir)]) == 0
        summary = (out_dir / "nominal-reduced.summary.txt").read_text()
        assert "passed = True" in summary
        assert "np.float64" not in summary
        assert summary == capsys.readouterr().out  # stdout and the file carry the same lines
        assert sorted(p.name for p in out_dir.iterdir()) == ["nominal-reduced.csv", "nominal-reduced.summary.txt"]

    def test_an_overflow_in_a_step_exits_1_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "overflow.cfg"
        path.write_text(OVERFLOW_CONFIG)
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "samples = 1\ntermination = non-finite\n" in capsys.readouterr().out
        assert cli_main(["robustness", str(path), "--trials", "2", "--t-end", "20"]) == 1
        assert capsys.readouterr().err == ""

    def test_audit_single_check(self, config_file, capsys):
        assert cli_main(["audit", str(config_file), "--check", "mstar_identity"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check,grid,pass,worst_value,witness_F,witness_Ms")
        assert "mstar_identity" in out

    def test_audit_stdout_is_csv_with_empty_one_dimensional_witness_ms(self, config_file, capsys):
        # the 1-D rows printed '' where the witness_Ms field is empty
        assert cli_main(["audit", str(config_file)]) == 0
        rows = {row["check"]: row for row in csv.DictReader(io.StringIO(capsys.readouterr().out))}
        assert list(rows) == list(AUDIT_CHECKS)
        for check, row in rows.items():
            float(row["witness_F"])
            if check in ("lemma4", "mstar_identity"):
                assert row["witness_Ms"] == ""
            else:
                float(row["witness_Ms"])

    def test_audit_passes_at_the_largest_capacity(self, config_file, capsys):
        # at k = 1e30 the quintic cutoff rounded below 0 just under F_hat, and utilde_bound failed
        # with u = -7.43e12 at (7.79625e28, 1e5)
        _set_keys(config_file, k="1e30")
        assert cli_main(["audit", str(config_file)]) == 0, capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["equilibria", "simulate", "audit", "robustness"])
    @pytest.mark.parametrize("text, keys", [
        ("[controller]\nvariant = bogus\n[sim]\n", ["variant"]),
        ("[sim]\nmodel = planar\n", ["model"]),
        ("[sim]\ndt = 0.5\n", ["dt"]),
        ("[sim]\nE0 = 5\nM0 = 7\n", ["E0", "M0"]),
        ("[sim]\nF0 = 5\nF0_ratio = 0.9\n", ["F0", "F0_ratio"]),
    ], ids=["variant", "model", "dt", "E0-reduced", "F0-and-F0_ratio"])
    def test_every_subcommand_rejects_a_bad_config(self, tmp_path, command, text, keys, capsys):
        # equilibria and audit used to read only [params] and the [controller] gains and exited 0 on all five;
        # the other two let E0 on a reduced run and F0 next to F0_ratio pass without a word
        path = tmp_path / "bad.cfg"
        path.write_text(text + "t_end = 1\n")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err

    @pytest.mark.parametrize("command", ["simulate", "robustness"])
    def test_aquatic_state_under_model_flag_reduced_exits_2(self, tmp_path, command, capsys):
        path = tmp_path / "full.cfg"
        path.write_text("[sim]\nmodel = full\nE0 = 5\nt_end = 1\ndt = 0.1\n")
        assert cli_main([command, str(path), "--model", "reduced"]) == 2
        assert "[sim] E0: full model only, got model = reduced" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{section}.{key}" for section, key in FLOAT_KEYS])
    def test_non_finite_config_value_exits_2(self, tmp_path, section, key, value, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        assert cli_main(["simulate", str(path)]) == 2
        assert f"{path}:2: [{section}] {key}: invalid value '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "robustness"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_end_flag_exits_2(self, config_file, command, value, capsys):
        # --t-end inf used to end in an OverflowError traceback
        assert cli_main([command, str(config_file), f"--t-end={value}"]) == 2
        assert "t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--trials", "0"), ("--uncertainty", "1.5"), ("--seed", "-1")])
    def test_bad_robustness_option_exits_2(self, config_file, option, value, capsys):
        assert cli_main(["robustness", str(config_file), option, value]) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("command, case", [
        ("simulate", "directory"), ("equilibria", "directory"), ("simulate", "not-utf8"), ("equilibria", "not-utf8"),
        ("simulate", "out-is-a-file"), ("robustness", "out-is-a-file"),
    ])
    def test_file_error_exits_2_and_names_the_path(self, config_file, tmp_path, command, case, capsys):
        # each of these used to end in a traceback (IsADirectoryError, UnicodeDecodeError, FileExistsError)
        config, extra = config_file, ["--t-end", "20"] if command != "equilibria" else []
        if case == "directory":
            config = bad = tmp_path / "dir.cfg"
            bad.mkdir()
        elif case == "not-utf8":
            config = bad = tmp_path / "latin1.cfg"
            bad.write_bytes(config_file.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        else:
            bad = tmp_path / "taken"
            bad.write_text("")
            extra += ["--out", str(bad)] + (["--trials", "1"] if command == "robustness" else [])
        assert cli_main([command, str(config), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err, err

    def test_simulate_csv_config_without_out_exits_2_and_keeps_the_config(self, config_file, tmp_path, capsys):
        # the CSV goes to the config's name with suffix .csv, which used to be the config itself
        path = tmp_path / "run.csv"
        path.write_bytes(config_file.read_bytes())
        assert cli_main(["simulate", str(path)]) == 2
        assert path.read_bytes() == config_file.read_bytes()
        assert "pass --out" in capsys.readouterr().err

    def test_simulate_out_onto_the_config_exits_2_and_keeps_the_config(self, config_file, tmp_path, capsys):
        # simulate d/run.csv --out d wrote the CSV over the config and exited 0
        out_dir = tmp_path / "d"
        out_dir.mkdir()
        path = out_dir / "run.csv"
        path.write_bytes(config_file.read_bytes())
        assert cli_main(["simulate", str(path), "--out", str(out_dir), "--t-end", "20"]) == 2
        assert path.read_bytes() == config_file.read_bytes()
        out, err = capsys.readouterr()
        assert out == "" and "pass --out" in err
        assert list(out_dir.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["simulate", "robustness"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["a-file", "under-a-file"])
    def test_unusable_out_exits_2_before_any_run(self, config_file, tmp_path, integrate_calls, command,
                                                 out, capsys):
        # the --out directory used to be made after the whole run, and robustness printed every trial first
        (tmp_path / "taken").write_text("")
        argv = [command, str(config_file), "--out", str(tmp_path / out)]
        assert cli_main(argv + (["--trials", "2"] if command == "robustness" else [])) == 2
        stdout, err = capsys.readouterr()
        assert integrate_calls == [] and stdout == ""
        assert err.startswith("error: ") and str(tmp_path / "taken") in err

    @pytest.mark.parametrize("command, name, out", [
        ("simulate", "study.csv", True), ("simulate", "study.summary.txt", True), ("simulate", "study.csv", False),
        ("robustness", "robustness.txt", True),
    ], ids=["csv", "summary", "csv-next-to-config", "robustness-report"])
    def test_output_that_is_not_a_regular_file_exits_2_before_any_run(
            self, config_file, tmp_path, integrate_calls, command, name, out, capsys):
        # simulate integrated the whole run and only then exited 2 with "Is a directory"
        out_dir = tmp_path / "out" if out else tmp_path
        (out_dir / name).mkdir(parents=True)
        argv = [command, str(config_file)] + (["--out", str(out_dir)] if out else [])
        assert cli_main(argv + (["--trials", "2"] if command == "robustness" else [])) == 2
        stdout, err = capsys.readouterr()
        assert integrate_calls == [] and stdout == ""
        assert err == f"error: {out_dir / name}: exists and is not a regular file\n"

    def test_summary_path_is_not_checked_without_out(self, config_file, tmp_path, capsys):
        # without --out no summary file is written, so a directory of that name is no obstacle
        (tmp_path / "study.summary.txt").mkdir()
        assert cli_main(["simulate", str(config_file), "--t-end", "20"]) in (0, 1)
        assert f"trajectory = {tmp_path / 'study.csv'}" in capsys.readouterr().out

    def test_simulate_non_finite_run_ends_non_finite(self, tmp_path, table_plant, capsys):
        # it ended 'horizon' with Ms and u nan in the CSV, budget_total = nan and an extinction_time
        path = tmp_path / "witness.cfg"
        path.write_text(NON_FINITE_WITNESS)
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert "termination = non-finite\n" in out and "passed = False\n" in out
        assert "nan" not in out and "extinction_time" not in out
        header, rows = s.read_trajectory_csv(tmp_path / "out" / "witness.csv")
        assert np.all(np.isfinite(rows)) and rows[-1, 0] == 30.0

    def test_robustness_non_finite_trials_are_not_extinct(self, tmp_path, table_plant, capsys):
        # every trial used to read extinct=True u_max=nan
        path = tmp_path / "witness.cfg"
        path.write_text(NON_FINITE_WITNESS)
        assert cli_main(["robustness", str(path), "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert out.count("extinct=False t_ext=None") == 2 and "extinct=0/2" in out
        assert "nan" not in out

    def test_simulate_near_extinction(self, tmp_path, capsys):
        # by t = 16000 F and Ms are ~1e-160 and smaller, where the law's
        # denominators underflow to 0
        path = tmp_path / "robust-reduced.cfg"
        path.write_text(PRESETS["robust-reduced"].replace("dt = 0.05", "dt = 0.1"))
        assert cli_main(["simulate", str(path), "--t-end", "16000"]) == 0
        assert "termination = horizon" in capsys.readouterr().out

    def test_robustness_one_sample_window_fits_without_warning(self, tmp_path, recwarn):
        # dt 0.05, record_every 20, t_end 1: samples at t = 0 and 1 only
        path = tmp_path / "robust-reduced.cfg"
        path.write_text(PRESETS["robust-reduced"])
        assert cli_main(["robustness", str(path), "--trials", "1", "--t-end", "1"]) in (0, 1)
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("sim", ["dt = 5e-324", "dt = 1e-300", "t_end = 1e9\ndt = 0.1"])
    def test_step_count_cap_exits_2(self, tmp_path, sim, capsys):
        # 5e-324 overflowed round(t_end / dt); the others asked for 1e10 steps or more
        path = tmp_path / "long.cfg"
        path.write_text(f"[sim]\n{sim}\n")
        assert cli_main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[sim]" in err and "MAX_STEPS" in err

    @pytest.mark.parametrize("every", [10**8 + 1, 10**23])
    def test_record_every_past_max_steps_exits_2(self, tmp_path, every, capsys):
        # 10**23 is past a C long: integrate's sample times overflowed, and simulate exited 1 with a traceback
        path = tmp_path / "sparse.cfg"
        path.write_text(f"[sim]\nt_end = 1\ndt = 0.1\nrecord_every = {every}\n")
        assert cli_main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[sim] record_every" in err and "MAX_STEPS" in err

    def test_infinite_ceiling_exits_2(self, tmp_path, capsys):
        # with F2 set, F_hat = inf used to pass design and run to final_F = nan
        path = tmp_path / "ceiling.cfg"
        path.write_text("[controller]\nF_hat_ratio = 1e305\nF2 = 20000\n[sim]\nt_end = 1\ndt = 0.1\n")
        assert cli_main(["simulate", str(path)]) == 2
        assert "F_hat=inf must exceed the persistence level" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, named", [
        ({"record_every = 20": "record_every = 20\nF0 = 1e104"}, "initial F0 = 1e+104"),  # was OverflowError, lin**3
        ({"variant = plus": "variant = none", "record_every = 20": "record_every = 20\nF0 = 1e300"},
         "initial F0 = 1e+300"),  # was OverflowError from ms_star's denom**2
        ({"beta_E = 10": "beta_E = 1e308"}, "parameter beta_E = 1e+308"),  # was OverflowError, beta_E**2
        ({"beta_E = 10": "beta_E = 1e120"}, "parameter beta_E = 1e+120"),  # was OverflowError, lin**3
        ({"k = 212370": "k = 1e200"}, "parameter k = 1e+200"),  # was AssertionError: equilibrium balance violated
    ], ids=["F0-plus", "F0-none", "beta_E-1e308", "beta_E-1e120", "k-1e200"])
    def test_value_beyond_magnitude_bound_exits_2(self, config_file, edits, named, capsys):
        lines = config_file.read_text().replace("t_end = 200\ndt = 0.05", "t_end = 1\ndt = 0.1").splitlines()
        config_file.write_text("\n".join(edits.get(line, line) for line in lines) + "\n")
        assert cli_main(["simulate", str(config_file)]) == 2
        assert f"{named} exceeds MAX_MAGNITUDE = 1e+30" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["plus", "global"])
    @pytest.mark.parametrize("key, value", [
        ("gamma_s", 5e-324), ("delta_F", 5e-324),  # were ZeroDivisionError
        ("delta_F", 1e-300), ("k", 1e-300),  # were AssertionError: equilibrium balance violated
        ("gamma_s", 1e-300), ("delta_M", 1e-300),  # were RuntimeWarning: invalid value encountered in subtract
    ])
    def test_value_below_magnitude_floor_exits_2(self, config_file, key, value, variant, capsys):
        _set_keys(config_file, variant=variant, t_end=20, dt=0.1, **{key: value})
        assert cli_main(["simulate", str(config_file)]) == 2
        assert f"parameter {key} = {value} is below 1/MAX_MAGNITUDE = 1e-30" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["plus", "global"])
    @pytest.mark.parametrize("key", PARAM_KEYS)
    def test_value_at_magnitude_floor_passes_the_floor(self, config_file, key, variant, capsys):
        # a warning or traceback would fail the test; exit 2 may still come from R0 or nu
        _set_keys(config_file, variant=variant, t_end=20, dt=0.1, **{key: 1e-30})
        assert cli_main(["simulate", str(config_file)]) in (0, 1, 2)
        assert "1/MAX_MAGNITUDE" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equilibria", "simulate", "audit", "robustness"])
    @pytest.mark.parametrize("eps", ["0", "-0.0"])
    def test_non_positive_eps_exits_2(self, tmp_path, command, eps, capsys):
        # was a ZeroDivisionError in f_hat_for
        path = tmp_path / "eps.cfg"
        path.write_text(f"[controller]\neps = {eps}\n[sim]\nt_end = 1\ndt = 0.1\n")
        assert cli_main([command, str(path)]) == 2
        assert f"offset eps must be positive, got {float(eps)}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, model, variant", [
        ("eta = 1e308", "reduced", "plus"), ("eta = 1e308", "reduced", "global"),  # ran to final_F = nan
        ("eta = 1e308", "full", "global"),  # ran to budget_total = nan
        ("rho = 1e308", "reduced", "plus"),  # RuntimeWarning: invalid value encountered in subtract
        ("rho = 1e200", "reduced", "plus"),  # RuntimeWarning: overflow encountered in square
    ])
    def test_gain_beyond_magnitude_bound_exits_2(self, tmp_path, line, model, variant, capsys):
        path = tmp_path / "gain.cfg"
        path.write_text(f"[controller]\n{line}\nvariant = {variant}\n[sim]\nmodel = {model}\nt_end = 20\ndt = 0.1\n")
        assert cli_main(["simulate", str(path)]) == 2
        key, value = line.split(" = ")
        assert f"{key} must be positive and at most MAX_MAGNITUDE = 1e+30, got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["reduced", "full"])
    @pytest.mark.parametrize("variant", ["raw", "plus", "global"])
    @pytest.mark.parametrize("key", ["eta", "rho"])
    def test_gain_at_magnitude_bound_stays_finite(self, tmp_path, key, variant, model, capsys):
        # a warning or traceback would fail the test; lambda_fit is nan for any run this short.
        # eta is a decay rate of the loop, so eta = 1e30 passes the step gate only with dt <= 2.785e-30
        sim = "t_end = 2e-29\ndt = 1e-30" if key == "eta" else "t_end = 20\ndt = 0.1"
        path = tmp_path / "gain.cfg"
        path.write_text(f"[controller]\n{key} = 1e30\nvariant = {variant}\n[sim]\nmodel = {model}\n{sim}\n")
        assert cli_main(["simulate", str(path)]) in (0, 1)
        summary = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert math.isfinite(float(summary["final_F"])) and math.isfinite(float(summary["budget_total"]))

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nbetaE = 10\n")
        assert cli_main(["equilibria", str(bad)]) == 2
        assert "beta_E" in capsys.readouterr().err


# The fixed-step witnesses: each exited 1 after a run that ended nonnegativity-violation or non-finite.
NOMINAL_PARAMS_SECTION = f"[params]\n{params_to_text(s.NOMINAL_PARAMS)}"
UNSTABLE_STEP_WITNESSES = {
    "eta28-reduced": ("[controller]\neps = 0.01\neta = 28\nvariant = global\n[sim]\n", "eta = 28.0", "2.8"),
    "eta30-full": ("[controller]\neps = 0.01\neta = 30\nvariant = global\n[sim]\nmodel = full\n", "eta = 30.0", "3"),
    "delta_s30-reduced": (
        NOMINAL_PARAMS_SECTION.replace("delta_s = 0.12", "delta_s = 30")
        + "[controller]\neps = 0.001\nvariant = global\n[sim]\n", "delta_s = 30.0", "3"),
    "nu_E30-full": (
        NOMINAL_PARAMS_SECTION.replace("nu_E = 0.005", "nu_E = 30")
        + "[controller]\neps = 0.001\nvariant = global\n[sim]\nmodel = full\n", "nu_E + delta_E = 30.03", "3.003"),
}


class TestStepGate:
    """dt times a linear decay rate of the loop past RK4's real-axis limit is a config error, found before any run."""

    @pytest.mark.parametrize("command", ["simulate", "robustness", "equilibria"])
    @pytest.mark.parametrize("witness", list(UNSTABLE_STEP_WITNESSES))
    def test_witness_exits_2_naming_rate_and_dt(self, tmp_path, integrate_calls, witness, command,
                                                capsys):
        text, rate, product = UNSTABLE_STEP_WITNESSES[witness]
        path = tmp_path / "witness.cfg"
        path.write_text(text + "F0 = 0.5\nt_end = 400\ndt = 0.1\n")
        assert cli_main([command, str(path)]) == 2
        stdout, err = capsys.readouterr()
        assert integrate_calls == [] and stdout == ""
        assert err == (f"error: [sim] dt = 0.1 times the decay rate {rate} is {product}, "
                       "past RK4's stability limit 2.785 on the real axis\n")

    @pytest.mark.parametrize("witness", list(UNSTABLE_STEP_WITNESSES))
    def test_witness_runs_at_half_the_step(self, tmp_path, witness):
        text, _, _ = UNSTABLE_STEP_WITNESSES[witness]
        path = tmp_path / "witness.cfg"
        path.write_text(text + "F0 = 0.5\nt_end = 1\ndt = 0.05\n")
        assert cli_main(["simulate", str(path)]) in (0, 1)

    def test_limit_is_rk4s_real_axis_bound(self):
        # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 has |R(-x)| <= 1 up to x = 2.78529..., the root of x^3 - 4x^2 + 12x - 24
        R = lambda x: 1 - x + x * x / 2 - x ** 3 / 6 + x ** 4 / 24
        limit = s.simulate.RK4_REAL_LIMIT
        assert abs(R(limit)) < 1.0 < R(2.7853)
        assert 0.0 < 2.78529 - limit < 0.001  # just inside the root

    def test_edge_of_the_limit(self):
        # eta * dt = 2.78 runs; 2.79 is refused
        law = s.ControlLaw("global", s.nominal_controller(eps=0.01, eta=27.8), s.NOMINAL_PARAMS)
        s.SimSpec(model="reduced", law=law, initial=(1.0, 0.0), t_end=1.0, dt=0.1)
        law = s.ControlLaw("global", s.nominal_controller(eps=0.01, eta=27.9), s.NOMINAL_PARAMS)
        with pytest.raises(ValueError, match="eta = 27.9 is 2.79, past RK4's stability limit"):
            s.SimSpec(model="reduced", law=law, initial=(1.0, 0.0), t_end=1.0, dt=0.1)

    def test_open_loop_is_bounded_by_delta_s_not_eta(self):
        p = s.NOMINAL_PARAMS.replace(delta_s=27.9)
        law = s.ControlLaw("none", s.nominal_controller(p, eta=100.0), p)
        with pytest.raises(ValueError, match="delta_s = 27.9 is 2.79"):
            s.SimSpec(model="reduced", law=law, initial=(1.0, 0.0), t_end=1.0, dt=0.1)
        s.SimSpec(model="reduced", law=law, initial=(1.0, 0.0), t_end=0.9, dt=0.09)

    def test_plant_rates_are_the_plants(self):
        # a sweep trial drives a perturbed plant with the nominal law: the plant's delta_s bounds the step
        law = s.ControlLaw("global", s.strong_controller(), s.NOMINAL_PARAMS)
        with pytest.raises(ValueError, match="delta_s = 30.0 is 3"):
            s.SimSpec(model="reduced", law=law, initial=(1.0, 0.0), t_end=1.0, dt=0.1,
                      plant=s.NOMINAL_PARAMS.replace(delta_s=30.0))

    def test_sweep_checks_the_perturbed_rates_before_any_trial(self, tmp_path, integrate_calls, capsys):
        # delta_s = 26 at dt 0.1 runs (2.6), but a trial may perturb it up to 28.6 (2.86)
        path = tmp_path / "fast.cfg"
        path.write_text(NOMINAL_PARAMS_SECTION.replace("delta_s = 0.12", "delta_s = 26")
                        + "[controller]\neps = 0.001\nvariant = global\n[sim]\nt_end = 20\ndt = 0.1\n")
        assert cli_main(["robustness", str(path), "--uncertainty", "0.1"]) == 2
        stdout, err = capsys.readouterr()
        assert integrate_calls == [] and stdout == ""
        assert err == ("error: [sim] dt = 0.1 times the decay rate delta_s = 28.6 (1.1 times the plant's) is 2.86, "
                       "past RK4's stability limit 2.785 on the real axis, at uncertainty 0.1\n")

    def test_sweep_at_zero_uncertainty_needs_only_the_nominal_rates(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text(NOMINAL_PARAMS_SECTION.replace("delta_s = 0.12", "delta_s = 26")
                        + "[controller]\neps = 0.001\nvariant = global\n[sim]\nt_end = 20\ndt = 0.1\n")
        assert cli_main(["robustness", str(path), "--uncertainty", "0", "--trials", "2"]) in (0, 1)
        assert capsys.readouterr().out.count("trial=") == 2


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def usually(valid, invalid):
    """``valid`` four draws in five, else ``invalid``: most examples get past the checks to a run.

    ``valid`` is the branch hypothesis shrinks towards, so a failing example keeps its valid options.
    """
    return st.integers(min_value=0, max_value=4).flatmap(lambda i: invalid if i == 4 else valid)


@given(
    trials=usually(st.integers(min_value=1, max_value=3), st.integers(min_value=-1, max_value=0)),
    uncertainty=usually(st.floats(min_value=0.0, max_value=0.3),
                        st.one_of(st.floats(min_value=-0.5, max_value=1.5), NON_FINITE)),
    seed=usually(st.integers(min_value=0, max_value=2**32 - 1), st.integers(max_value=-1)),
    dt=usually(st.sampled_from([0.05, 0.1]), st.one_of(st.sampled_from([-0.01, 0.0, 0.5]), NON_FINITE)),
    t_end=usually(st.sampled_from([1.0, 2.0]), st.one_of(st.floats(min_value=-1.0, max_value=2.0), NON_FINITE)),
)
@example(trials=1, uncertainty=0.1, seed=-1, dt=0.05, t_end=1.0)  # robustness: was a ValueError traceback
@settings(max_examples=100, deadline=None)
def test_cli_exit_code_is_0_1_or_2(trials, uncertainty, seed, dt, t_end):
    # equilibria and audit take no flags, so they read dt and t_end from the config; the other two
    # take them as flags, which override the config line of the same name
    short = "[controller]\neps = 0.01\nvariant = global\n[sim]\n"
    sim = [f"--dt={dt!r}", f"--t-end={t_end!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        written, flagged = Path(tmp) / "written.cfg", Path(tmp) / "flagged.cfg"
        written.write_text(short + f"dt = {dt!r}\nt_end = {t_end!r}\n")
        flagged.write_text(short)
        codes = {
            "equilibria": cli_main(["equilibria", str(written)]),
            "audit": cli_main(["audit", str(written), "--check=mstar_identity"]),
            "simulate": cli_main(["simulate", str(flagged), *sim]),
            "robustness": cli_main(["robustness", str(flagged), *sim, f"--trials={trials}",
                                    f"--uncertainty={uncertainty!r}", f"--seed={seed}"]),
        }
    assert set(codes.values()) <= {0, 1, 2}, codes
    # one gate: a scenario simulate rejects is rejected by equilibria and audit too
    assert (codes["equilibria"] == 2) == (codes["audit"] == 2) == (codes["simulate"] == 2), codes


EXTREME_PARAMS = [5e-324, 1e-300, 1e-30, 1e30, 1e308, math.nan, math.inf]


@given(
    extremes=st.dictionaries(st.sampled_from(PARAM_KEYS), st.sampled_from(EXTREME_PARAMS)),
    variant=st.sampled_from(s.control.VARIANTS),
    model=st.sampled_from(["reduced", "full"]),
)
@settings(max_examples=300, deadline=None)
def test_cli_exit_code_is_0_1_or_2_for_extreme_params(extremes, variant, model):
    # every [params] value is nominal or extreme; pyproject.toml turns warnings
    # into errors, so a RuntimeWarning fails here too
    values = {key: extremes.get(key, getattr(s.NOMINAL_PARAMS, key)) for key in PARAM_KEYS}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extreme.cfg"
        params = "".join(f"{key} = {value!r}\n" for key, value in values.items())
        path.write_text(f"[params]\n{params}[controller]\nvariant = {variant}\n[sim]\nmodel = {model}\nt_end = 20\ndt = 0.1\n")
        assert cli_main(["simulate", str(path)]) in (0, 1, 2)


# Every [controller] and [sim] float key; one left out of a draw keeps its default, or t_end 20 and dt 0.1.
SETTING_KEYS = [(section, key) for section, key in FLOAT_KEYS if section != "params"]
EXTREME_SETTINGS = [0.0, -0.0, 5e-324, 1e-300, 1e-30, 1e30, 1e308]


@given(
    extremes=st.dictionaries(st.sampled_from(SETTING_KEYS), st.sampled_from(EXTREME_SETTINGS)),
    variant=st.sampled_from(s.control.VARIANTS),
    model=st.sampled_from(["reduced", "full"]),
)
@example(extremes={("controller", "eps"): 0.0}, variant="plus", model="reduced")  # was a ZeroDivisionError
@example(extremes={("controller", "rho"): 1e308}, variant="plus", model="reduced")  # was a RuntimeWarning
@settings(max_examples=200, deadline=None)
def test_cli_exit_code_is_0_1_or_2_for_extreme_settings(extremes, variant, model):
    sections = {"controller": {"variant": variant}, "sim": {"model": model, "t_end": 20, "dt": 0.1}}
    for (section, key), value in extremes.items():
        sections[section][key] = repr(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extreme.cfg"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
            for section, values in sections.items()
        ))
        assert cli_main(["simulate", str(path)]) in (0, 1, 2)
