"""Config parsing and trajectory CSV round-trips."""
import dataclasses
import hashlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import sitctl as s
from sitctl.configio import (
    INITIAL_KEYS,
    SECTION_KEYS,
    ConfigError,
    finite_float,
    params_from_mapping,
    parse_config_text,
    read_trajectory_csv,
    write_trajectory_csv,
)
from sitctl.harness import preset_scenario

README = Path(__file__).resolve().parent.parent / "README.md"

GOOD_CONFIG = """\
# nominal study parameters
[params]
beta_E = 10
gamma_s = 1
nu_E = 0.005
nu = 0.49
delta_E = 0.03
delta_M = 0.1
delta_F = 0.04
delta_s = 0.12
k = 212370

[controller]
F_hat_ratio = 1.35
eta = 0.1
rho = 0.5
variant = plus

[sim]
model = reduced
t_end = 100
dt = 0.01
"""


class TestConfigParsing:
    def test_good_config(self):
        sections = parse_config_text(GOOD_CONFIG)
        p = params_from_mapping(sections["params"])
        assert p == s.NOMINAL_PARAMS
        assert sections["controller"]["variant"] == "plus"
        assert float(sections["sim"]["t_end"]) == 100.0

    def test_values_are_typed(self):
        sections = parse_config_text(GOOD_CONFIG + "record_every = 20\n")
        assert type(sections["params"]["k"]) is float and sections["params"]["k"] == 212370.0
        assert sections["controller"] == {"F_hat_ratio": 1.35, "eta": 0.1, "rho": 0.5, "variant": "plus"}
        assert sections["sim"] == {"model": "reduced", "t_end": 100.0, "dt": 0.01, "record_every": 20}
        assert type(sections["sim"]["record_every"]) is int

    @pytest.mark.parametrize("line", ["t_end = ten", "record_every = 1.5", "dt = inf", "F0 = nan"])
    def test_bad_value_names_file_line_section_and_key(self, line):
        key, value = line.split(" = ")
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"# run\n[sim]\n{line}\n", source="run.cfg")
        assert str(err.value) == f"run.cfg:3: [sim] {key}: invalid value '{value}'"

    def test_every_key_has_a_consumer(self):
        # the CLI passes these on by name, so a key nothing takes would be a TypeError
        assert set(SECTION_KEYS["params"]) == set(s.BioParams.__dataclass_fields__)
        design = inspect.signature(s.ControllerConfig.design).parameters
        assert set(SECTION_KEYS["controller"]) - {"variant"} <= set(design)
        fields = {field.name for field in dataclasses.fields(s.ScenarioConfig)}
        assert set(SECTION_KEYS["sim"]) - set(INITIAL_KEYS) <= fields

    def test_readme_key_table_is_the_schema(self):
        # each row of the README's key table: section, backquoted keys (notes included), value type
        rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \| (.*) \|$", README.read_text(), flags=re.MULTILINE)
        table = {}
        for section, keys, value in rows:
            convert = finite_float if value.startswith("finite float") else int if value == "integer" else str
            for key in " ".join(re.findall(r"`([^`]*)`", keys)).split():
                table.setdefault(section, {})[key] = convert
        assert table == SECTION_KEYS

    def test_unknown_key_names_nearest_match(self):
        bad = GOOD_CONFIG.replace("beta_E = 10", "betaE = 10")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        msg = str(err.value)
        assert "betaE" in msg and "beta_E" in msg and ":3:" in msg
        # [sim] clamp_tol never reached the integrator, so it is not a key
        with pytest.raises(ConfigError, match=r"unknown key 'clamp_tol' in \[sim\]"):
            parse_config_text(GOOD_CONFIG + "clamp_tol = 1e-9\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[plant]\nbeta_E = 10\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("beta_E = 10\n")

    def test_missing_equals_carries_line_number(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("[params]\nbeta_E 10\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[params]\nbeta_E = 10\nbeta_E = 11\n")

    def test_missing_params_reported(self):
        with pytest.raises(ConfigError, match="missing"):
            params_from_mapping({"beta_E": "10"})

    def test_non_numeric_value(self):
        from sitctl.model import PARAM_KEYS
        mapping = {k: "1" for k in PARAM_KEYS}
        mapping["k"] = "many"
        with pytest.raises(ConfigError, match="not a number"):
            params_from_mapping(mapping)


class TestParamsText:
    def test_round_trip_identity(self, params):
        text = s.params_to_text(params)
        assert s.params_from_text(text) == params

    def test_round_trip_awkward_floats(self, params):
        p = params.replace(beta_E=10.000000000000002, k=212370.00000000003)
        assert s.params_from_text(s.params_to_text(p)) == p

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError, match="delta_s"):
            s.params_from_text("deltas = 0.12\n")

    def test_errors_count_lines_from_the_first(self, params):
        with pytest.raises(ConfigError, match=r"^<params>:2: expected"):
            s.params_from_text("beta_E = 10\nbeta_E 10\n")
        text = s.params_to_text(params).replace(f"k = {params.k!r}", "k = inf")
        with pytest.raises(ConfigError, match=r"^<params>:9: \[params\] k: invalid value 'inf'"):
            s.params_from_text(text)


class TestTrajectoryCsv:
    def test_reduced_round_trip_lossless(self, nominal_plus_run, tmp_path):
        path = tmp_path / "run.csv"
        write_trajectory_csv(nominal_plus_run, path)
        header, rows = read_trajectory_csv(path)
        assert header == ["t", "F", "Ms", "u", "V"]
        assert len(rows) == len(nominal_plus_run.times)
        data = np.array(rows)
        assert np.array_equal(data[:, 0], nominal_plus_run.times)
        assert np.array_equal(data[:, 1], nominal_plus_run.F)
        assert np.array_equal(data[:, 2], nominal_plus_run.Ms)
        assert np.array_equal(data[:, 3], nominal_plus_run.controls)
        assert np.array_equal(data[:, 4], nominal_plus_run.lyapunov)

    def test_full_model_header(self, full_strong_run, tmp_path):
        path = tmp_path / "full.csv"
        write_trajectory_csv(full_strong_run, path)
        header, rows = read_trajectory_csv(path)
        assert header == ["t", "F", "Ms", "E", "M", "u"]
        data = np.array(rows)
        assert np.array_equal(data[:, 1], full_strong_run.F)
        assert np.array_equal(data[:, 3], full_strong_run.states[:, 0])
        assert np.array_equal(data[:, 4], full_strong_run.states[:, 1])
        assert np.array_equal(data[:, 5], full_strong_run.controls)

    def test_row_count_matches_sampling(self, params, cfg, eq, tmp_path):
        law = s.ControlLaw("plus", cfg, params)
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=5.0, dt=0.01, record_every=100)
        traj = s.integrate(spec)
        path = tmp_path / "short.csv"
        write_trajectory_csv(traj, path)
        _, rows = read_trajectory_csv(path)
        # header excluded: initial sample + floor(500/100) recorded steps
        assert len(rows) == 1 + 5

    @pytest.mark.parametrize("preset, header, digest", [
        ("nominal-reduced", b"t,F,Ms,u,V", "51b13191228197e45237ba019e6bf779e84e42abbe9028288233b8501b3baa2e"),
        ("nominal-full", b"t,F,Ms,E,M,u", "f096a0ab6d1a5b6625f1801bd894d3a089c637b575c9fa3f319c5744ae778a2c"),
    ], ids=["reduced", "full"])
    def test_bytes_are_pinned(self, preset, header, digest, tmp_path):
        # CRLF line ends, %.17g cells, "0" for zero and the header: the round trips above compare only values
        path = tmp_path / "run.csv"
        write_trajectory_csv(s.integrate(preset_scenario(preset, t_end=5.0).sim_spec()), path)
        raw = path.read_bytes()
        assert raw.startswith(header + b"\r\n0,12264.3675,0,")
        assert raw.endswith(b"\r\n") and raw.count(b"\r\n") == 1 + 6
        assert hashlib.sha256(raw).hexdigest() == digest
