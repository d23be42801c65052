"""Strict config parsing and the command-line surface."""

import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

import gravlab
from gravlab import (
    CampaignConfig,
    ConfigError,
    FockSpace,
    HamiltonianParams,
    NoiseConfig,
    PhysicalConstants,
    PulseShape,
    SequenceTiming,
    SqueezingModel,
    read_shot_log,
    scale_factor,
)
from gravlab.cli import Manifest, main
from gravlab.config import SCHEMA, config_hash, load_config, parse_config
from gravlab.errors import COUNT, DURATION, FLAG, FRACTION, PATH, SEED
from gravlab.shots import PAIRS

K_EFF = 1.61057e7
DEFAULTS_FILE = os.path.join(os.path.dirname(gravlab.__file__), "default_config.yaml")


def distinct_value(k: int, builtin, rule):
    """A valid value of the k-th SCHEMA row that no other row and no built-in takes."""
    if rule in (FLAG, PATH):
        return not builtin if rule is FLAG else f"elsewhere{k}"
    if rule in (COUNT, PAIRS, SEED):
        return builtin + k + 1
    return (k + 1) / 100 if rule is FRACTION else (k + 1) * 1e-6 if rule is DURATION else k + 1.5


def nested(values: dict) -> dict:
    """Key paths and their values as the nested sections of a config."""
    tree: dict = {}
    for path, value in values.items():
        *sections, key = path.split(".")
        functools.reduce(lambda node, name: node.setdefault(name, {}), sections, tree)[key] = value
    return tree


# the keys whose field has another name; every other key fills its namesake
RENAMED = {
    "timing.tau_bm_s": "pulse_s", "timing.t_sep_s": "separation_s", "timing.big_t_s": "free_evolution_s",
    "timing.t0_s": "start_s", "noise.squeezing.strength_r": "strength",
}
EVERY_KEY_VALUES = {path: distinct_value(k, builtin, rule) for k, (path, (builtin, rule, _)) in enumerate(SCHEMA.items())}
EVERY_KEY_SET = parse_config(json.dumps(nested(EVERY_KEY_VALUES)))  # JSON is YAML


def rows_as_dict(csv_text):
    lines = [ln for ln in csv_text.strip().splitlines() if "," in ln]
    body = lines[1:]  # header
    return {ln.split(",")[0]: ln.split(",")[1] for ln in body}


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.timing.pulse_s == 60.0e-6
        assert cfg.timing.separation_s == 77.0e-6
        assert cfg.timing.free_evolution_s == 455.0e-6
        assert cfg.constants.k_eff_per_m == K_EFF
        assert cfg.campaign.t1_s == 455.0e-6
        assert cfg.campaign.t2_s == 155.0e-6
        assert cfg.campaign.cycle_time_s == 52.0
        assert cfg.campaign.n_pairs == 5000
        assert cfg.noise.contrast == 0.98
        assert cfg.noise.squeezing.atom_number == 6000.0
        assert cfg.output_dir == "runs"

    def test_shipped_defaults_file_equals_builtins(self):
        with open(DEFAULTS_FILE, encoding="utf-8") as fh:
            from_file = parse_config(fh.read())
        from_empty = parse_config("")
        assert from_file.resolved == from_empty.resolved
        assert from_file.timing == from_empty.timing
        assert from_file.constants == from_empty.constants
        assert from_file.noise == from_empty.noise
        assert from_file.campaign == from_empty.campaign

    def test_default_alpha_is_chirp_target_times_k_eff(self):
        cfg = parse_config("")
        assert cfg.campaign.alpha_rad_per_s2 == 9.8126 * K_EFF

    @pytest.mark.parametrize("path", list(SCHEMA))
    def test_every_key_reaches_its_field(self, path):
        # one config sets every key to a value of its own, so a key that
        # filled another key's field would show
        cfg, value = EVERY_KEY_SET, EVERY_KEY_VALUES[path]
        section, _, key = path.rpartition(".")
        field = SCHEMA[path][2]
        if field is not None:
            assert field == RENAMED.get(path, key)  # a row that named another key's field would pass below
            assert getattr(functools.reduce(getattr, section.split("."), cfg), field) == value
        elif path == "campaign.chirp_target_m_per_s2":
            assert cfg.campaign.alpha_rad_per_s2 == value * EVERY_KEY_VALUES["constants.k_eff_per_m"]
        elif path == "noise.atom_number_mean":
            assert cfg.noise.squeezing.atom_number == value
        else:
            assert (path, cfg.output_dir) == ("output_dir", value)
        assert functools.reduce(dict.get, path.split("."), cfg.resolved) == value

    def test_every_field_is_filled_by_the_schema(self):
        # a field no row fills would keep its dataclass default whatever the config says
        filled = {(path.rpartition(".")[0], field) for path, (_, _, field) in SCHEMA.items() if field}
        filled |= {("noise", "squeezing"), ("noise.squeezing", "atom_number"), ("campaign", "alpha_rad_per_s2")}
        sections = {"timing": SequenceTiming, "constants": PhysicalConstants, "noise": NoiseConfig,
                    "noise.squeezing": SqueezingModel, "campaign": CampaignConfig}
        assert filled == {(s, f.name) for s, cls in sections.items() for f in dataclasses.fields(cls)}

    def test_alpha_key_is_unknown(self):
        # the chirp has one key: alpha is always chirp_target_m_per_s2 * k_eff_per_m
        with pytest.raises(ConfigError) as info:
            parse_config("campaign:\n  t1_s: 4.0e-4\n  alpha_rad_per_s2: 1.5e+8\n")
        assert str(info.value) == "unknown config key 'campaign.alpha_rad_per_s2' (line 3)"

    @pytest.mark.parametrize("text, value", [("6e-05", 6e-05), ("1.5e8", 1.5e8), ("-2E+3", -2e3), (".5e1", 5.0)])
    def test_exponent_float_without_dot_or_sign_is_a_number(self, text, value):
        # YAML 1.2 and JSON read these as floats; YAML 1.1 as strings
        assert parse_config(f"campaign:\n  g_true_m_per_s2: {text}\n").campaign.g_true_m_per_s2 == value
        assert yaml.safe_load(f"a: {text}") == {"a": text}  # PyYAML's own loader is left as it was

    def test_quoted_exponent_float_stays_a_string(self):
        with pytest.raises(ConfigError, match="tau_bm_s' must be a duration in seconds > 0, got '6e-05'"):
            parse_config("timing:\n  tau_bm_s: '6e-05'\n")

    def test_partial_override_keeps_other_defaults(self):
        cfg = parse_config("noise:\n  contrast: 0.5\n")
        assert cfg.noise.contrast == 0.5
        assert cfg.noise.squeezing.atom_number == 6000.0
        assert cfg.timing.pulse_s == 60.0e-6

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config("foo: 1\n")

    def test_unknown_nested_key_names_path_and_line(self):
        with pytest.raises(ConfigError, match=r"noise\.bogus.*line 3"):
            parse_config("noise:\n  contrast: 0.9\n  bogus: 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "noise.contrast: 0.5\n",
            'noise:\n  "squeezing.strength_r": 2\n',
            '"noise.squeezing":\n  strength_r: 2\n',
            "1: 2\n",
        ],
        ids=["dotted-top", "dotted-nested", "dotted-section", "int-key"],
    )
    def test_key_that_is_not_a_plain_name_is_unknown(self, text):
        # a dotted key is never read by the nested overlay: it must not pass
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(text)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError, match=r"timing\.tau_bm_s"):
            parse_config("timing:\n  tau_bm_s: -1\n")

    def test_contrast_above_one_rejected(self):
        with pytest.raises(ConfigError, match=r"noise\.contrast"):
            parse_config("noise:\n  contrast: 1.5\n")

    def test_n_pairs_must_be_integer(self):
        with pytest.raises(ConfigError):
            parse_config("campaign:\n  n_pairs: 2.5\n")
        with pytest.raises(ConfigError):
            parse_config("campaign:\n  n_pairs: true\n")

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            parse_config("campaign:\n  seed: -1\n")

    @pytest.mark.parametrize("value", ["0.5", "0", ".inf"])
    def test_atom_number_mean_below_one_names_path_and_line(self, value):
        # the config layer, not NoiseConfig, refuses it: with key path and line
        with pytest.raises(ConfigError, match=r"noise\.atom_number_mean' must be a finite number >= 1.*line 3"):
            parse_config(f"noise:\n  contrast: 0.9\n  atom_number_mean: {value}\n")

    @pytest.mark.parametrize(
        "section, key, req",
        [
            ("campaign", "cycle_time_s", "a duration in seconds > 0"),
            ("timing", "tau_bm_s", "a duration in seconds > 0"),
            ("noise", "sigma_ac_rad", "a finite number >= 0"),
        ],
    )
    def test_infinity_refused_naming_path_and_line(self, section, key, req):
        with pytest.raises(ConfigError) as info:
            parse_config(f"{section}:\n  {key}: .inf\n")
        assert str(info.value) == f"config key '{section}.{key}' must be {req}, got inf (line 2)"

    def test_whole_number_beyond_the_float_range_refused_naming_path_and_line(self):
        # a float conversion would overflow later, in the scale factor
        why = r"config key 'timing\.tau_bm_s' must be a duration in seconds > 0, got 1000.*\(line 3\)"
        with pytest.raises(ConfigError, match=why):
            parse_config("timing:\n  t_sep_s: 7.7e-05\n  tau_bm_s: 1" + "0" * 400 + "\n")

    def test_scalar_where_section_expected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config("timing: 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("campaign:\n  t1_s: 1.0e-3\nnoise:\n  t1_s: 2\n", "unknown config key 'noise.t1_s' (line 4)"),
            ("campaign:\n  seed: 3\ntiming: 3\n", "config key 'timing' must be a section (line 3)"),
            ("noise: {contrast: 2}\n", "config key 'noise.contrast' must be a number in (0, 1], got 2 (line 1)"),
        ],
        ids=["namesake-in-other-section", "section", "flow-style"],
    )
    def test_error_names_the_line_of_its_key(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("noise:\n  contrast: 0.9\nnoise:\n  raman_efficiency: 0.5\n", "config key 'noise' is repeated (lines 1 and 3)"),
            ("noise:\n  contrast: 0.9\n  contrast: 0.8\n", "config key 'noise.contrast' is repeated (lines 2 and 3)"),
        ],
        ids=["section", "key"],
    )
    def test_repeated_key_names_both_lines(self, text, message):
        # YAML keeps the last of two equal keys, which would drop a value unseen
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "noise:\n  <<: {contrast: 0.9, raman_efficiency: 0.5}\n  contrast: 0.95\n",
            "noise:\n  <<: [{contrast: 0.9}, {contrast: 0.8, raman_efficiency: 0.5}]\n",
            "noise:\n  squeezing:\n    <<: {strength_r: 0.5, detection_noise_atoms: 2.0}\n    strength_r: 0.25\n",
        ],
        ids=["written-overrides-merged", "first-merged-wins", "nested"],
    )
    def test_merge_keys_resolve_as_yaml_does(self, text):
        def leaves(tree, prefix=""):
            for key, value in tree.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key, value

        resolved = dict(leaves(parse_config(text).resolved))
        for path, value in leaves(yaml.safe_load(text)):
            assert resolved[path] == value

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("a: [\n")


class TestLoadConfig:
    def test_explicit_path(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("noise:\n  contrast: 0.7\n")
        assert load_config(str(path)).noise.contrast == 0.7

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "c.yaml"
        path.write_text("noise:\n  contrast: 0.6\n")
        monkeypatch.setenv("GRAVLAB_CONFIG", str(path))
        assert load_config(None).noise.contrast == 0.6

    def test_no_path_no_env_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("GRAVLAB_CONFIG", raising=False)
        assert load_config(None).resolved == parse_config("").resolved

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.yaml")


class TestConfigHash:
    def test_stable_and_hex(self):
        cfg = parse_config("")
        h = config_hash(cfg)
        assert h == config_hash(parse_config(""))
        assert len(h) == 16
        int(h, 16)

    def test_sensitive_to_values(self):
        assert config_hash(parse_config("")) != config_hash(
            parse_config("campaign:\n  seed: 8\n")
        )


# each numeric or flag field of the settings dataclasses, with values
# outside its range; every field also refuses a string, a bool (a number
# for a flag), NaN and +-inf
SETTINGS = {
    SequenceTiming: {"pulse_s": [0.0, -6e-5, 10**400], "separation_s": [0], "free_evolution_s": [-1e-3], "start_s": []},
    PhysicalConstants: {"k_eff_per_m": [0.0, -1.61057e7]},
    NoiseConfig: {
        "contrast": [0.0, 1.5],
        "raman_efficiency": [0, 1.01],
        "sigma_ac_rad": [-1e-3],
        "sigma_raman_phase_rad": [-1e-3],
        "atom_number_sigma": [-1.0],
        "sigma_accel_m_s2": [-1e-9],
        "projection_noise": [],
    },
    CampaignConfig: {
        "t1_s": [0.0, -1e-3],
        "t2_s": [0, -155e-6],
        "alpha_rad_per_s2": [],
        "g_true_m_per_s2": [-(10**400)],
        "n_pairs": [0, 2.5, np.float64(3.0), 500_001, 10**9],
        "cycle_time_s": [0.0, -52.0],
        "seed": [-1, 2**64, 7.0],
    },
    SqueezingModel: {
        "atom_number": [0.0, -1.0],
        "strength": [-0.1],
        "optimal_phase_rad": [],
        "detection_noise_atoms": [-1],
    },
    HamiltonianParams: {"zeeman_q_rad_s": [], "interaction_rad_s": [], "pump_atoms": [0, 2.5]},
    FockSpace: {"n_max": [3, -1, 4.5, np.float64(40.0)]},
    PulseShape: {"duration_s": [0.0, -6e-5], "area_rad": [0.0, -math.pi]},
}


def refusal_cases():
    for cls, fields in SETTINGS.items():
        for field, out_of_range in fields.items():
            wrong_type = ["no", 1] if field == "projection_noise" else ["1", True]
            for value in [*wrong_type, math.nan, math.inf, -math.inf, *out_of_range]:
                yield pytest.param(cls, field, value, id=f"{cls.__name__}.{field}={value!r:.24}")


@pytest.mark.parametrize("cls, field, value", refusal_cases())
def test_settings_refuse_a_value_outside_the_rule_naming_the_field(cls, field, value):
    given = {"squeezing": SqueezingModel()} if cls is NoiseConfig else {}
    with pytest.raises(ConfigError, match=re.escape(f"{cls.__name__}.{field} must be ")):
        cls(**given, **{field: value})


@pytest.mark.parametrize("value", ["1", True, math.nan, math.inf, -math.inf, 0.5, 0])
def test_noise_config_refuses_a_model_of_fewer_than_one_atom(value):
    # the model's atom number is the campaign's mean: SqueezingModel asks only > 0, so
    # the value is set past its check to reach the rule of NoiseConfig
    model = SqueezingModel()
    object.__setattr__(model, "atom_number", value)
    with pytest.raises(ConfigError, match=re.escape("NoiseConfig.squeezing.atom_number must be a finite number >= 1")):
        NoiseConfig(squeezing=model)
    if value == 0.5:  # a model that passes its own check
        with pytest.raises(ConfigError, match=r"NoiseConfig\.squeezing\.atom_number .* got 0\.5$"):
            NoiseConfig(squeezing=SqueezingModel(atom_number=0.5))


# the settings dataclass that each section's rows fill, with values for its other fields that
# pass every cross-field check: t1_s and t2_s differ from each other and from every probe
SECTION_SETTINGS = {
    "timing": (SequenceTiming, {}),
    "constants": (PhysicalConstants, {}),
    "noise": (NoiseConfig, {"squeezing": SqueezingModel()}),
    "noise.squeezing": (SqueezingModel, {}),
    "campaign": (CampaignConfig, {"t1_s": 3e-3, "t2_s": 2e-3}),
}
RULE_PROBES = [-1, 0, 0.5, 1, 7, 455e-6, 500_001, 2**63, 2**64, "1", True, None, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("path", [path for path, (_, _, field) in SCHEMA.items() if field is not None])
def test_each_field_accepts_exactly_what_the_rule_of_its_config_key_accepts(path):
    _, rule, field = SCHEMA[path]
    cls, others = SECTION_SETTINGS[path.rpartition(".")[0]]
    for value in RULE_PROBES:
        try:
            cls(**{**others, field: value})
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == rule.test(value), f"{cls.__name__}.{field}={value!r}"


class TestCliBasics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert gravlab.__version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["scale-factor", "--bogus"]) == 1

    def test_bad_config_file_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("foo: 1\n")
        assert main(["scale-factor", "--config", str(path)]) == 1
        assert "foo" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_exit_one_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("noise:\n  contrast: 0.7  # r\u00e9glage\n".encode("latin-1"))
        assert main(["scale-factor", "--config", str(path), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize(
        "argv",
        [
            ["pulse", "--tau-s", "nan"],
            ["pulse", "--area-rad", "nan"],
            ["pulse", "--detuning-hz", "nan"],
            ["pulse", "--detuning-sigma-hz", "nan"],
            ["scale-factor", "--T", "inf"],
            ["scale-factor", "--T", "-1"],
            ["pulse", "--tau-s", "0"],
            ["pulse", "--area-rad", "-1"],
            ["pulse", "--detuning-sigma-hz", "-1", "--detuning-hz", "1"],
            ["pulse", "--samples", "-1"],
            ["tomography", "--points", "-1"],
            # 72.8 TiB of rows: refused before numpy is asked for them
            ["pulse", "--samples", "10000000000000"],
            ["tomography", "--points", "10000000000000"],
            ["simulate", "--pairs", "0"],
            ["simulate", "--pairs", "2.5"],
            ["simulate", "--pairs", "500001"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--seed", str(2**64)],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_number_is_usage_error_naming_the_flag(self, argv, capsys):
        assert main([*argv, "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: argument {argv[1]}: must be")

    @pytest.mark.parametrize("command, flag", [("pulse", "--samples"), ("tomography", "--points")])
    def test_table_size_is_bounded(self, command, flag, monkeypatch, capsys):
        monkeypatch.setattr(gravlab.cli, "MAX_TABLE_ROWS", 5)
        assert main([command, flag, "5", "--out", "-"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 5
        assert main([command, flag, "6", "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: argument {flag}: must be an integer in [0, ")

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_a_billion_pairs_are_refused_before_any_shot(self, command, tmp_path, monkeypatch, capsys):
        # 2 * 10^9 shots would be generated before the first write
        monkeypatch.setattr(gravlab.cli, "run_campaign", lambda *args: pytest.fail("shots were generated"))
        out = tmp_path / "out"
        assert main([command, "--pairs", "1000000000", "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --pairs: must be an integer in [1, 500000], got '1000000000'")
        assert not out.exists()

    def test_a_billion_configured_pairs_are_refused_naming_the_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gravlab.cli, "run_campaign", lambda *args: pytest.fail("shots were generated"))
        cfg, out = tmp_path / "c.yaml", tmp_path / "out"
        cfg.write_text("campaign:\n  n_pairs: 1000000000\n")
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert "config key 'campaign.n_pairs' must be an integer in [1, 500000], got 1000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_pair_count_is_bounded(self, tmp_path, monkeypatch, capsys):
        # the rule reads the bound when it runs: at a bound of 5, 5 pairs are written and 6 refused
        monkeypatch.setattr(gravlab.shots, "MAX_PAIRS", 5)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("campaign:\n  n_pairs: 2\n")  # the built-in 5000 is above this bound
        assert main(["simulate", "--config", str(cfg), "--pairs", "5", "--output-dir", str(tmp_path), "--out", "s.jsonl"]) == 0
        assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 10
        assert main(["simulate", "--config", str(cfg), "--pairs", "6", "--output-dir", str(tmp_path / "no")]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --pairs: must be an integer in [1, ")
        assert not (tmp_path / "no").exists()

    def test_env_config_respected(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("timing:\n  big_t_s: 300.0e-6\n")
        monkeypatch.setenv("GRAVLAB_CONFIG", str(path))
        assert main(["scale-factor"]) == 0
        got = rows_as_dict(capsys.readouterr().out)
        assert float(got["free_evolution_s"]) == 300.0e-6


class TestScaleFactorCommand:
    def test_long_t_value_and_formatting(self, capsys):
        assert main(["scale-factor", "--T", "455e-6"]) == 0
        got = rows_as_dict(capsys.readouterr().out)
        value = got["scale_s2_per_m"]
        assert float(value) == pytest.approx(1.4386255468000027, rel=1e-12)
        # 17 significant digits: the string survives a parse/format cycle
        assert format(float(value), ".17g") == value
        assert abs(float(got["net_area_s"])) < 1e-12

    def test_dash_out_writes_stdout_only(self, tmp_path, capsys):
        assert main(["scale-factor", "--out", "-", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("quantity,value")
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []


class TestPulseCommand:
    def test_table_shape_and_endpoints(self, capsys):
        assert main(["pulse", "--samples", "11"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t_s,envelope,accumulated_area_rad,sensitivity"
        assert len(lines) == 12
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 0.0 and float(last[1]) == 0.0
        assert float(last[2]) == math.pi / 2  # normalized to the sensitivity area

    def test_transfer_row(self, capsys):
        code = main(
            [
                "pulse",
                "--tau-s",
                "64.8e-6",
                "--detuning-hz",
                "2500",
                "--detuning-sigma-hz",
                "500",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "detuning_rad_s,transfer_mean,transfer_std"
        _, mean, std = map(float, lines[1].split(","))
        assert 0.97 < mean < 0.99
        assert 0.003 < std < 0.011

    @pytest.mark.parametrize("model", ["envelope", "constant"])
    def test_transfer_row_without_detuning_spread(self, model, capsys):
        assert main(["pulse", "--tau-s", "64.8e-6", "--detuning-hz", "2500", "--model", model]) == 0
        _, mean, std = capsys.readouterr().out.strip().splitlines()[1].split(",")
        shape = gravlab.PulseShape(kind="blackman", duration_s=64.8e-6)
        assert float(mean) == gravlab.transfer_probability(shape, 2 * math.pi * 2500.0, model)
        assert std == "0"


    @pytest.mark.parametrize("shape", ["blackman", "square"])
    def test_rows_are_the_scalar_functions_at_17_digits(self, shape, capsys):
        assert main(["pulse", "--samples", "7", "--shape", shape, "--out", "-"]) == 0
        pulse = gravlab.PulseShape(kind=shape, duration_s=load_config(None).timing.pulse_s)
        functions = (gravlab.envelope, gravlab.accumulated_area, gravlab.pulse_sensitivity)
        want = [[t, *(f(pulse, t) for f in functions)] for t in np.linspace(0.0, pulse.duration_s, 7).tolist()]
        assert capsys.readouterr().out.splitlines()[1:] == [",".join(format(v, ".17g") for v in row) for row in want]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["--samples", "0"], ""),
            (["--samples", "1"], "0,0,0,0\n"),
            (["--samples", "2"], "0,0,0,0\n6.0000000000000002e-05,0,1.5707963267948966,1\n"),
            (["--samples", "0", "--shape", "square"], ""),
            (["--samples", "1", "--shape", "square"], "0,1,0,0\n"),
            (["--samples", "2", "--shape", "square"], "0,1,0,0\n6.0000000000000002e-05,1,1.5707963267948966,1\n"),
        ],
    )
    def test_the_smallest_tables_keep_their_bytes(self, argv, text, capsys):
        assert main(["pulse", *argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == "t_s,envelope,accumulated_area_rad,sensitivity\n" + text

    def test_a_table_longer_than_the_stream_buffer_is_written_whole(self, tmp_path, capsys):
        assert main(["pulse", "--samples", "20000", "--output-dir", str(tmp_path), "--out", "p.csv"]) == 0
        assert main(["pulse", "--samples", "20000", "--out", "-"]) == 0
        text = (tmp_path / "p.csv").read_text()
        assert capsys.readouterr().out == f"wrote {tmp_path / 'p.csv'}\n" + text
        lines = text.splitlines()
        assert len(lines) == 20001 and lines[-1] == "6.0000000000000002e-05,0,1.5707963267948966,1"


class TestTomographyCommand:
    @pytest.mark.parametrize(
        "points, text", [("0", ""), ("1", "0,5347.5508098283053,5.5206366066254109\n")]
    )
    def test_the_smallest_tables_keep_their_bytes(self, points, text, capsys):
        assert main(["tomography", "--points", points, "--out", "-"]) == 0
        assert capsys.readouterr().out == "phi_rad,variance_atoms2,squeezing_db\n" + text

    def test_coherent_reads_zero_db_everywhere(self, capsys):
        assert main(["tomography", "--coherent", "--points", "16"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 16
        assert all(float(ln.split(",")[2]) == 0.0 for ln in lines)

    def test_calibrated_extremes(self, capsys):
        assert main(["tomography", "--points", "720"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        db = np.array([float(ln.split(",")[2]) for ln in lines])
        assert db.min() == pytest.approx(-5.4, abs=1e-3)
        assert db.max() == pytest.approx(9.9, abs=1e-3)


    def test_optimal_phase_turns_the_tomography_and_no_shot(self, tmp_path, capsys):
        # the sequence reads the squeezed quadrature at mid-fringe, whatever
        # tomography angle optimal_phase_rad gives it
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  squeezing:\n    optimal_phase_rad: 0.3\n")
        out = {}
        for config in ((), ("--config", str(cfg))):
            assert main(["tomography", "--points", "16", *config]) == 0
            tomography = capsys.readouterr().out
            assert main(["simulate", "--pairs", "200", "--output-dir", str(tmp_path), "--out", "s.jsonl", *config]) == 0
            out[config] = tomography, (tmp_path / "s.jsonl").read_bytes()
        default, turned = out.values()
        assert turned[0] != default[0]
        assert turned[1] == default[1]


class TestSimulateAnalyze:
    def run_sim(self, tmp_path, name, extra=()):
        code = main(
            [
                "simulate",
                "--pairs",
                "200",
                "--seed",
                "11",
                "--output-dir",
                str(tmp_path),
                "--out",
                name,
                *extra,
            ]
        )
        assert code == 0
        return tmp_path / name

    def test_simulate_writes_log_and_manifest(self, tmp_path):
        log = self.run_sim(tmp_path, "shots.jsonl")
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 400
        manifest = json.loads((tmp_path / "shots.jsonl.manifest.json").read_text())
        assert manifest["toolkit_version"] == gravlab.__version__
        assert manifest["seed"] == 11
        assert manifest["command"][0] == "gravlab"
        assert manifest["finished_utc"] is not None
        entry = manifest["outputs"][0]
        digest = hashlib.blake2b(log.read_bytes(), digest_size=8).hexdigest()
        assert entry == {"path": "shots.jsonl", "blake2b16": digest}

    def test_manifest_hashes_a_large_output_in_bounded_memory(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(5).bytes(20 << 20))
        manifest = Manifest(tmp_path / "m.json", parse_config(""), 7, [])
        tracemalloc.start()
        try:
            manifest.add(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1 MiB reads: the 20 MiB file is never held whole
        assert peak < 4 << 20
        digest = hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
        assert manifest.doc["outputs"] == [{"path": "big.bin", "blake2b16": digest}]

    def test_manifest_records_stream_version(self, tmp_path):
        self.run_sim(tmp_path, "shots.jsonl")
        manifest = json.loads((tmp_path / "shots.jsonl.manifest.json").read_text())
        assert manifest["stream_version"] == 3

    def test_zero_atom_and_clamped_shots_counted_in_manifest(self, tmp_path):
        # ~1 atom per shot: the even split leaves many shots empty, and the
        # detection noise drives most of the rest to the +-n/2 clamp
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  atom_number_mean: 1\n  atom_number_sigma: 2.0\n")
        self.run_sim(tmp_path, "shots.jsonl", extra=("--config", str(cfg)))
        recs = read_shot_log(tmp_path / "shots.jsonl")
        counts = list(zip(recs.count_f1.tolist(), recs.count_f2.tolist()))
        zero = sum(f1 + f2 == 0 for f1, f2 in counts)
        clamped = sum(f1 + f2 > 0 and min(f1, f2) == 0 for f1, f2 in counts)
        assert zero > 0 and clamped > 0
        manifest = json.loads((tmp_path / "shots.jsonl.manifest.json").read_text())
        assert manifest["diagnostics"] == {
            "squeezed": {"zero_atom_shots": zero, "clamped_imbalances": clamped}
        }

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_refused_before_writing(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        code = main(["simulate", "--pairs", "16", "--seed", seed, "--output-dir", str(out), "--out", "deep/shots.jsonl"])
        assert code == 1
        assert "argument --seed: must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, tmp_path):
        log = self.run_sim(tmp_path, "shots.jsonl", extra=("--seed", str(2**64 - 1)))
        assert json.loads((tmp_path / "shots.jsonl.manifest.json").read_text())["seed"] == 2**64 - 1
        assert len(log.read_text().splitlines()) == 400

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = self.run_sim(tmp_path / "a", "shots.jsonl")
        b = self.run_sim(tmp_path / "b", "shots.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_coherent_flag_changes_the_stream(self, tmp_path):
        a = self.run_sim(tmp_path, "sq.jsonl")
        b = self.run_sim(tmp_path, "coh.jsonl", extra=("--coherent",))
        assert a.read_bytes() != b.read_bytes()

    def test_analyze_roundtrip(self, tmp_path, capsys):
        log = self.run_sim(tmp_path, "shots.jsonl")
        capsys.readouterr()
        code = main(
            ["analyze", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "a.csv"]
        )
        assert code == 0
        got = rows_as_dict((tmp_path / "a.csv").read_text())
        assert float(got["n_pairs"]) == 200
        assert float(got["alpha_over_keff_m_s2"]) == pytest.approx(9.8126, rel=1e-12)
        assert abs(float(got["g_exp_m_s2"]) - 9.812637) < 0.01
        assert float(got["sigma_g_m_s2"]) > 0
        # every numeric cell is 17-significant-digit round-trippable
        for key, value in got.items():
            assert format(float(value), ".17g") == value or float(value).is_integer()

    def test_analyze_missing_file_is_exit_two(self, tmp_path, capsys):
        code = main(["analyze", "--shots", str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_analyze_empty_file_is_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", "--shots", str(empty)]) == 2
        assert "error" in capsys.readouterr().err

    def test_analyze_nan_count_is_exit_two(self, tmp_path, capsys):
        log = self.run_sim(tmp_path, "shots.jsonl")
        lines = log.read_text().splitlines(keepends=True)
        row = json.loads(lines[6])
        row["count_f2"] = float("nan")
        lines[6] = json.dumps(row, separators=(",", ":")) + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "a.csv"]) == 2
        assert f"{log}: bad shot record on line 7: count_f2 is nan" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_allan_output(self, tmp_path, capsys):
        log = self.run_sim(tmp_path, "shots.jsonl")
        capsys.readouterr()
        code = main(
            ["allan", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "adev.csv"]
        )
        assert code == 0
        lines = (tmp_path / "adev.csv").read_text().strip().splitlines()
        assert lines[0] == "tau_s,adev,err"
        taus = [float(ln.split(",")[0]) for ln in lines[1:]]
        # pairs are 104 s apart (two 52 s cycles), octave spacing up to M/3
        assert taus == [104.0 * 2**k for k in range(len(taus))]
        assert taus[-1] <= 104.0 * (200 // 3)

    def test_allan_tau0_is_the_log_pair_spacing(self, tmp_path):
        # pair 1 holds a zero-atom shot and is skipped: the kept pairs are
        # closed up, so the series still starts at one pair spacing
        log = self.run_sim(tmp_path, "shots.jsonl")
        lines = log.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row.update(count_f1=0, count_f2=0, imbalance=0.0)
        lines[2] = json.dumps(row, separators=(",", ":")) + "\n"
        log.write_text("".join(lines))
        code = main(["allan", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "adev.csv"])
        assert code == 0
        lines = (tmp_path / "adev.csv").read_text().strip().splitlines()
        taus = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert taus == [104.0 * 2**k for k in range(len(taus))]

    def test_allan_on_too_few_pairs_names_the_minimum(self, tmp_path, capsys):
        assert main(["simulate", "--pairs", "10", "--output-dir", str(tmp_path), "--out", "s.jsonl"]) == 0
        capsys.readouterr()
        assert main(["allan", "--shots", str(tmp_path / "s.jsonl"), "--output-dir", str(tmp_path), "--out", "a.csv"]) == 2
        assert "need a 1-d series of at least 16 samples" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_allan_on_a_one_pair_log_names_the_minimum(self, tmp_path, capsys):
        # two shots: the pair spacing would read a third shot that is not there
        assert main(["simulate", "--pairs", "1", "--output-dir", str(tmp_path), "--out", "s.jsonl"]) == 0
        capsys.readouterr()
        assert main(["allan", "--shots", str(tmp_path / "s.jsonl"), "--output-dir", str(tmp_path), "--out", "a.csv"]) == 2
        assert "need a 1-d series of at least 16 samples, got 1" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "allan"])
    def test_varying_chirp_is_exit_two_naming_the_record(self, tmp_path, capsys, command):
        log = self.run_sim(tmp_path, "shots.jsonl")
        lines = log.read_text().splitlines(keepends=True)
        row = json.loads(lines[5])
        row["chirp_rad_per_s2"] += 1000.0
        lines[5] = json.dumps(row, separators=(",", ":")) + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert main([command, "--shots", str(log), "--output-dir", str(tmp_path), "--out", "a.csv"]) == 2
        err = capsys.readouterr().err
        assert f"{log}: bad shot record on line 6: chirp varies" in err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("t_free", [0.0, -455e-6])
    def test_analyze_t_not_positive_is_exit_two_naming_the_line(self, tmp_path, capsys, t_free):
        log = self.run_sim(tmp_path, "shots.jsonl")
        lines = log.read_text().splitlines(keepends=True)
        row = json.loads(lines[8])
        row["free_evolution_s"] = t_free
        lines[8] = json.dumps(row, separators=(",", ":")) + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "a.csv"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {log}: bad shot record on line 9: free_evolution_s {t_free} is not > 0\n"
        assert not (tmp_path / "a.csv").exists()

    def test_zero_squeezing_names_the_key_and_the_coherent_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  squeezing:\n    strength_r: 0.0\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "noise.squeezing.strength_r" in err and "--coherent" in err
        assert not out.exists()
        assert main(["simulate", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out), "--coherent"]) == 0

    def test_variance_beyond_the_float_range_at_a_float_squeezing_names_the_model(self, tmp_path, capsys):
        # e^(2r) at r = 354 is a float, its product with N/4 at 1e300 atoms is not
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  atom_number_mean: 1.0e+300\n  squeezing:\n    strength_r: 354.0\n")
        model = load_config(str(cfg)).noise.squeezing
        assert main(["simulate", "--config", str(cfg), "--pairs", "16", "--out", "-"]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: the imbalance variance leaves the float range at model={model!r}\n" and out == ""

    def test_squeezing_beyond_the_float_range_names_the_model(self, tmp_path, capsys):
        # e^(2r) at r = 400 is no float; tomography refuses the same model in the same words
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  squeezing:\n    strength_r: 400.0\n")
        model = load_config(str(cfg)).noise.squeezing
        want = f"error: the imbalance variance leaves the float range at model={model!r}"
        code = main(["simulate", "--config", str(cfg), "--pairs", "16", "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err == want + "\n"
        assert main(["tomography", "--config", str(cfg), "--points", "8", "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == want + ", phi_rad=0.0\n"
        # a table of no angle has no variance to overflow
        assert main(["tomography", "--config", str(cfg), "--points", "0", "--out", "-"]) == 0
        assert capsys.readouterr().out == "phi_rad,variance_atoms2,squeezing_db\n"

    def test_nested_out_path_creates_directories(self, tmp_path):
        self.run_sim(tmp_path, os.path.join("deep", "nest", "shots.jsonl"))
        assert (tmp_path / "deep" / "nest" / "shots.jsonl").exists()

    def test_dash_out_writes_shot_log_to_stdout(self, tmp_path, capsys):
        log = self.run_sim(tmp_path / "file", "shots.jsonl")
        capsys.readouterr()
        self.run_sim(tmp_path / "dash", "-")
        captured = capsys.readouterr()
        assert captured.out == log.read_text()
        piped = tmp_path / "piped.jsonl"
        piped.write_text(captured.out)
        assert read_shot_log(piped).index.tolist() == list(range(400))
        assert "wrote" in captured.err
        assert not (tmp_path / "dash").exists()

    @pytest.mark.parametrize("command", ["analyze", "allan"])
    def test_a_log_is_paired_once(self, tmp_path, monkeypatch, command):
        assert main(["simulate", "--pairs", "20", "--output-dir", str(tmp_path), "--out", "s.jsonl"]) == 0
        calls = record_pairing(monkeypatch)
        assert main([command, "--shots", str(tmp_path / "s.jsonl"), "--output-dir", str(tmp_path)]) == 0
        assert [(name, n) for name, n in calls if n is not None] == [("delta_p", 40)]


def write_fringe_csv(path, scale, alpha_star, noise=0.0, seed=0):
    k = K_EFF
    span = 2.2 * 2.0 * math.pi / abs(scale)
    x = np.linspace(alpha_star / k - span / 2, alpha_star / k + span / 2, 90)
    p = 0.5 + 0.49 * np.cos(scale * (x - alpha_star / k))
    if noise:
        p = p + np.random.default_rng(seed).normal(0.0, noise, len(x))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha_rad_per_s2,p\n")
        for xi, pi in zip(x, p):
            fh.write(f"{xi * k:.17g},{pi:.17g}\n")


def record_pairing(monkeypatch):
    """Record each call the CLI makes to the pairing and to the estimators, as (name, the
    length of the ShotTable among its arguments, or None)."""
    calls = []

    def record(name, fn):
        def recorded(*args, **kwargs):
            tables = [len(a) for a in args if isinstance(a, gravlab.ShotTable)]
            calls.append((name, tables[0] if tables else None))
            return fn(*args, **kwargs)
        monkeypatch.setattr(gravlab.cli, name, recorded)

    for name in ("delta_p", "estimate_g", "metrological_squeezing", "allan_deviation"):
        record(name, getattr(gravlab.cli, name))
    return calls


class TestFringesCommand:
    def test_two_fringes_locate_common_crossing(self, tmp_path, capsys):
        alpha_star = 9.8126 * K_EFF
        f1 = tmp_path / "t1.csv"
        f2 = tmp_path / "t2.csv"
        write_fringe_csv(f1, -1.42, alpha_star)
        write_fringe_csv(f2, -0.767, alpha_star)
        code = main(
            ["fringes", str(f1), str(f2), "--output-dir", str(tmp_path), "--out", "fits.csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        star = [ln for ln in out.splitlines() if ln.startswith("alpha_star_over_keff")]
        assert len(star) == 1
        assert float(star[0].split(",")[1]) == pytest.approx(9.8126, abs=1e-7)
        printed = dict(ln.split(",") for ln in out.splitlines() if ln.count(",") == 1)
        sigma = float(printed["sigma_alpha_star_rad_per_s2"])
        assert 0.0 <= sigma < 1e-9 * K_EFF
        assert float(printed["sigma_alpha_star_over_keff_m_s2"]) == pytest.approx(sigma / K_EFF, rel=1e-15)
        fits = (tmp_path / "fits.csv").read_text().strip().splitlines()
        assert len(fits) == 3
        assert float(fits[1].split(",")[4]) == pytest.approx(-1.42, rel=1e-6)

    def test_equal_magnitude_scales_report_no_crossing(self, tmp_path, capsys):
        # p = 0.5 + 0.49 cos(1.1077 x + phase0) for phase0 0.5 and 4.0: the
        # second fit canonicalizes to scale -1.1077, the same fringe slope
        f1, f2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_fringe_csv(f1, 1.1077, -0.5 / 1.1077 * K_EFF)
        write_fringe_csv(f2, 1.1077, -4.0 / 1.1077 * K_EFF)
        assert main(["fringes", str(f1), str(f2), "--output-dir", str(tmp_path)]) == 0
        assert "alpha_star" not in capsys.readouterr().out
        fits = (tmp_path / "fringes.csv").read_text().strip().splitlines()[1:]
        assert sorted(float(row.split(",")[4]) for row in fits) == pytest.approx([-1.1077, 1.1077], rel=1e-9)

    def test_scales_the_parallel_rule_calls_equal_report_no_crossing(self, tmp_path, capsys):
        # noiseless scans at S = -1.4200000000004 and -1.4200000000006 fit to scales 2.0e-13
        # apart: below 1e-12 of |S|, the one rule of fringes_parallel, though they differ
        # when rounded to 12 decimals
        files = []
        for name, scale in (("a.csv", -1.4200000000004), ("b.csv", -1.4200000000006)):
            xs = [9.8 + 0.05 * i for i in range(-120, 121)]
            rows = [f"{x * K_EFF!r},{0.5 + 0.49 * math.cos(scale * (x - 9.8126))!r}" for x in xs]
            (tmp_path / name).write_text("\n".join(["alpha_rad_per_s2,p", *rows]) + "\n")
            files.append(str(tmp_path / name))
        assert main(["fringes", *files, "--output-dir", str(tmp_path)]) == 0
        assert "alpha_star" not in capsys.readouterr().out
        fits = (tmp_path / "fringes.csv").read_text().strip().splitlines()[1:]
        scales = [float(row.split(",")[4]) for row in fits]
        assert scales == [-1.4200000000004003, -1.4200000000005999]
        assert round(abs(scales[0]), 12) != round(abs(scales[1]), 12)

    def test_single_fringe_reports_no_crossing(self, tmp_path, capsys):
        f1 = tmp_path / "t1.csv"
        write_fringe_csv(f1, -1.42, 9.8126 * K_EFF)
        assert main(["fringes", str(f1), "--output-dir", str(tmp_path)]) == 0
        assert "alpha_star" not in capsys.readouterr().out

    def test_constant_data_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "flat.csv"
        with open(bad, "w") as fh:
            fh.write("alpha_rad_per_s2,p\n")
            for k in range(20):
                fh.write(f"{1.5e8 + k * 1e5},0.5\n")
        assert main(["fringes", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main(["fringes", str(tmp_path / "none.csv")]) == 2

    def test_header_only_file_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("alpha_rad_per_s2,p\n")
        assert main(["fringes", str(bad), "--out", "-"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: no fringe points\n"

    @pytest.mark.parametrize("distinct", [1, 2, 3])
    def test_fewer_than_four_distinct_chirps_is_exit_two(self, tmp_path, capsys, distinct):
        # 12 points on 1 to 3 chirp rates: too few for the fit's 4 parameters
        bad = tmp_path / "few.csv"
        rows = [f"{1.5e8 + 1e6 * (k % distinct)!r},{0.5 + 0.1 * k!r}" for k in range(12)]
        bad.write_text("\n".join(["alpha_rad_per_s2,p", *rows]) + "\n")
        assert main(["fringes", str(bad), "--out", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: need at least 4 distinct alpha values for the 4 fit parameters, got {distinct}\n"

    def test_file_that_is_not_utf8_is_exit_two_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("alpha_rad_per_s2,p # \u00b5\n1.5e8,0.5\n".encode("latin-1"))
        assert main(["fringes", str(bad), "--out", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read fringe file {bad}: 'utf-8' codec can't decode byte 0xb5")

    def test_byte_order_mark_does_not_turn_the_first_point_into_a_header(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_fringe_csv(plain, -1.42, 9.8126 * K_EFF)
        points = plain.read_text().split("\n", 1)[1]  # a headerless scan
        plain.write_text(points, encoding="utf-8")
        marked.write_text(points, encoding="utf-8-sig")  # starts with a byte-order mark
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        fits = []
        for path in (plain, marked):
            assert main(["fringes", str(path), "--out", "-"]) == 0
            _, row = capsys.readouterr().out.splitlines()  # the header, then one fit
            fits.append(row.split(",", 1)[1])  # all but the file name
        assert fits[0] == fits[1]

    def test_malformed_row_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha_rad_per_s2,p\n1.5e8\n")
        assert main(["fringes", str(bad)]) == 2
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1.5e8,nan", "inf,0.5", "-inf,0.5", "1.5e8,-Infinity"])
    def test_non_finite_value_is_exit_two_naming_the_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        write_fringe_csv(bad, -1.42, 9.8126 * K_EFF)
        lines = bad.read_text().splitlines()
        lines[3] = row
        bad.write_text("\n".join(lines) + "\n")
        assert main(["fringes", str(bad)]) == 2
        assert f"{bad}:4: non-finite" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output that cannot be written ends the command with one error
    line naming it (exit 1), never a traceback."""

    def assert_cannot_write(self, code, err, path, error):
        assert code == 1 and "Traceback" not in err, err
        assert err == f"error: cannot write {path}: {os.strerror(error)}\n", err

    def test_an_empty_out_names_the_output_directory(self, tmp_path, capsys):
        code = main(["scale-factor", "--output-dir", str(tmp_path), "--out", ""])
        self.assert_cannot_write(code, capsys.readouterr().err, os.path.join(str(tmp_path), ""), errno.EISDIR)

    def test_an_out_that_names_a_directory_is_refused(self, tmp_path, capsys):
        code = main(["simulate", "--pairs", "16", "--output-dir", str(tmp_path), "--out", "logs/"])
        self.assert_cannot_write(code, capsys.readouterr().err, str(tmp_path / "logs") + "/", errno.EISDIR)

    @pytest.mark.parametrize(
        "command", [["scale-factor", "--out", "sf.csv"], ["simulate", "--pairs", "16"], ["reproduce", "--pairs", "16"]]
    )
    def test_an_output_dir_that_names_a_file_is_refused_writing_nothing(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main([*command, "--output-dir", str(blocker)])
        self.assert_cannot_write(code, capsys.readouterr().err, str(blocker), errno.EEXIST)
        assert list(tmp_path.rglob("*")) == [blocker] and blocker.read_text() == ""

    @pytest.mark.parametrize("command", [["simulate", "--pairs", "20000", "--out", "-"], ["pulse", "--samples", "100000"]])
    def test_a_closed_stdout_is_one_error_line(self, tmp_path, command):
        # as `gravlab ... | head -c 100`: the reader takes 100 bytes and closes the pipe
        src = os.path.dirname(os.path.dirname(gravlab.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("GRAVLAB_CONFIG", None)
        argv = [sys.executable, "-m", "gravlab.cli", *command]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        self.assert_cannot_write(code, err, "stdout", errno.EPIPE)


class TestReproduceCommand:
    EXPECTED_QUANTITIES = {
        "scale_factor_long_T",
        "scale_factor_short_T",
        "transfer_mean",
        "transfer_std",
        "tomography_min_db",
        "tomography_max_db",
        "squeezed_metrological_db",
        "coherent_metrological_db",
        "time_to_target_ratio",
        "g_exp",
        "sigma_g",
        "g_true",
        "raman_phase_imbalance_noise",
        "raman_phase_level_db",
    }

    def run_repro(self, out_dir):
        code = main(
            ["reproduce", "--pairs", "24", "--seed", "3", "--output-dir", str(out_dir)]
        )
        assert code == 0
        return out_dir

    def test_manifest_config_regenerates_every_output(self, tmp_path):
        # the manifest's config, dumped as JSON (6e-05 and all), is a config
        # file: its command re-run on it reproduces every output bit for bit
        user = tmp_path / "user.yaml"
        user.write_text("timing:\n  tau_bm_s: 5.0e-5\nnoise:\n  contrast: 0.95\n  atom_number_sigma: 150.0\n")
        argv = ["reproduce", "--pairs", "300", "--seed", "5", "--config", str(user)]
        assert main([*argv, "--output-dir", str(tmp_path / "first")]) == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        with open(tmp_path / "config.json", "w", encoding="utf-8") as fh:
            json.dump(manifest["config"], fh)
        assert manifest["command"][0] == "gravlab"
        rerun = [*manifest["command"][1:], "--config", str(tmp_path / "config.json")]
        assert main([*rerun, "--output-dir", str(tmp_path / "again")]) == 0
        again = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert again["config_hash"] == manifest["config_hash"]
        assert len(manifest["outputs"]) == 7
        assert again["outputs"] == manifest["outputs"]

    def test_artifacts_and_summary(self, tmp_path):
        out = self.run_repro(tmp_path)
        names = {p.name for p in out.iterdir()}
        assert {
            "manifest.json",
            "summary.csv",
            "shots_squeezed.jsonl",
            "shots_coherent.jsonl",
            "analysis_squeezed.csv",
            "analysis_coherent.csv",
            "allan_squeezed.csv",
            "allan_coherent.csv",
        } <= names
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "quantity,simulated,reference,unit"
        assert {ln.split(",")[0] for ln in lines[1:]} == self.EXPECTED_QUANTITIES
        manifest = json.loads((out / "manifest.json").read_text())
        hashed = {entry["path"] for entry in manifest["outputs"]}
        assert "summary.csv" in hashed and "shots_squeezed.jsonl" in hashed

    def test_rerun_is_byte_identical_apart_from_manifest(self, tmp_path):
        a = self.run_repro(tmp_path / "a")
        b = self.run_repro(tmp_path / "b")
        for name in (
            "summary.csv",
            "shots_squeezed.jsonl",
            "shots_coherent.jsonl",
            "analysis_squeezed.csv",
            "analysis_coherent.csv",
            "allan_squeezed.csv",
            "allan_coherent.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for doc in (ma, mb):
            doc.pop("started_utc")
            doc.pop("finished_utc")
            doc.pop("command")  # carries the differing --output-dir
        assert ma == mb

    def test_manifest_stream_version_and_diagnostics(self, tmp_path):
        out = self.run_repro(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stream_version"] == 3
        assert "bootstrap" not in manifest  # the closed-form CI draws nothing
        for label in ("squeezed", "coherent"):
            recs = read_shot_log(out / f"shots_{label}.jsonl")
            counts = list(zip(recs.count_f1.tolist(), recs.count_f2.tolist()))
            assert manifest["diagnostics"][label] == {
                "zero_atom_shots": sum(f1 + f2 == 0 for f1, f2 in counts),
                "clamped_imbalances": sum(f1 + f2 > 0 and min(f1, f2) == 0 for f1, f2 in counts),
            }

    def test_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # reproduce writes fixed file names, so it takes no --out; run in
        # tmp_path so that a stray relative output would be seen there
        monkeypatch.chdir(tmp_path)
        code = main(["reproduce", "--pairs", "16", "--output-dir", str(tmp_path / "out"), "--out", "x.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_each_arm_is_paired_once(self, tmp_path, monkeypatch):
        # g, the squeezing and the Allan deviation all read the one series
        calls = record_pairing(monkeypatch)
        self.run_repro(tmp_path)
        assert [(name, n) for name, n in calls if n is not None] == [("delta_p", 48)] * 2
        assert [name for name, _ in calls].count("metrological_squeezing") == 2

    @pytest.mark.parametrize(
        "pairs, why", [("10", "at least 16 pairs"), ("0", "argument --pairs: must be an integer in [1, 500000]")], ids=["10", "0"]
    )
    def test_too_few_pairs_refused_before_writing(self, tmp_path, capsys, pairs, why):
        code = main(["reproduce", "--pairs", pairs, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert why in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64 - 1), str(2**64)])
    def test_out_of_range_seed_refused_before_writing(self, tmp_path, capsys, seed):
        # the coherent arm runs on seed + 1, so 2^64 - 1 cannot be used
        code = main(["reproduce", "--pairs", "16", "--seed", seed, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_configured_seed_refused_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"campaign:\n  seed: {2**64 - 1}\n")
        out = tmp_path / "out"
        code = main(["reproduce", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out)])
        assert code == 1
        assert "seed + 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_squeezing_refused_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  squeezing:\n    strength_r: 0.0\n")
        out = tmp_path / "out"
        code = main(["reproduce", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out)])
        assert code == 1
        assert "noise.squeezing.strength_r" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_configured_pairs_refused(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("campaign:\n  n_pairs: 15\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["reproduce", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 1
        assert "at least 16 pairs" in capsys.readouterr().err
        assert list(out.iterdir()) == []


NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


class TestNoNonFiniteOutput:
    """A result that overflows or is undefined ends the command with one
    error line (exit 2), never a traceback or a non-finite number."""

    def assert_one_error_line(self, capsys, *names):
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(name in err for name in names), err
        assert not NON_FINITE.search(out), out

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["pulse", "--area-rad", "1e308", "--detuning-hz", "1"], ("area", "1e+308")),
            (["pulse", "--detuning-hz", "1e308", "--detuning-sigma-hz", "1e308"], ()),
            # finite detunings whose widest quadrature node is not
            (
                ["pulse", "--detuning-hz", "1e307", "--detuning-sigma-hz", "1e307"],
                ("the widest quadrature detuning", "detuning_mean_rad_s=6.28", "detuning_sigma_rad_s=6.28"),
            ),
            # 0.42 x 5e-324 rounds to 0: the Blackman peak rate divides by zero
            (["pulse", "--tau-s", "5e-324", "--detuning-hz", "1"], ("area", "5e-324")),
        ],
        ids=["huge-area", "huge-detuning", "huge-quadrature-detuning", "subnormal-duration"],
    )
    def test_pulse_overflow_is_exit_two(self, capsys, argv, names):
        assert main([*argv, "--out", "-"]) == 2
        self.assert_one_error_line(capsys, *names)

    def test_pulse_at_a_huge_finite_detuning_is_a_negligible_transfer(self, capsys):
        assert main(["pulse", "--detuning-hz", "1e160", "--out", "-"]) == 0
        out, err = capsys.readouterr()
        _, mean, std = out.strip().splitlines()[1].split(",")
        assert 0.0 <= float(mean) <= 1e-300 and float(std) == 0.0 and err == ""

    def test_scale_factor_overflow_names_the_quantity(self, capsys):
        assert main(["scale-factor", "--T", "1e308", "--out", "-"]) == 2
        self.assert_one_error_line(capsys, "scale_s2_per_m")

    def test_undefined_time_ratio_names_the_quantity(self, tmp_path, capsys):
        # no noise at all: both arms' Allan deviations are 0, so their ratio is 0/0
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  projection_noise: false\n  sigma_ac_rad: 0.0\n  sigma_raman_phase_rad: 0.0\n")
        out = tmp_path / "out"
        assert main(["reproduce", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out)]) == 2
        self.assert_one_error_line(capsys, "time_to_target_ratio")
        assert not (out / "summary.csv").exists()
        # the manifest of the failed run lists, with digests, the six files it wrote
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["finished_utc"] is None
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(entry["path"] for entry in manifest["outputs"]) == written and len(written) == 6
        for entry in manifest["outputs"]:
            digest = hashlib.blake2b((out / entry["path"]).read_bytes(), digest_size=8).hexdigest()
            assert entry["blake2b16"] == digest, entry
        assert set(manifest["diagnostics"]) == {"squeezed", "coherent"}

    def test_contrast_whose_square_underflows_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  contrast: 1.0e-200\n")
        assert main(["reproduce", "--config", str(cfg), "--pairs", "16", "--output-dir", str(tmp_path / "out")]) == 2
        self.assert_one_error_line(capsys, "contrast=1e-200")

    @pytest.mark.parametrize("command", [["tomography", "--out", "-"], ["simulate", "--pairs", "16"], ["reproduce", "--pairs", "16"]])
    def test_overflowing_squeezing_strength_is_exit_two(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  squeezing:\n    strength_r: 400.0\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--output-dir", str(out)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "setting, command",
        [
            pytest.param(setting, command, id=f"{name}-command{k}")
            for name, setting in (
                ("huge-squeezing", "noise:\n  squeezing:\n    strength_r: 400.0\n"),
                ("huge-cycle-time", "campaign:\n  cycle_time_s: 1.0e+308\n"),
            )
            for k, command in enumerate([["simulate"], ["reproduce"]])
        ]
        # simulate estimates no squeezing, so only reproduce refuses the contrast
        + [pytest.param("noise:\n  contrast: 1.0e-200\n", ["reproduce"], id="tiny-contrast-reproduce")],
    )
    def test_run_failing_before_its_first_file_leaves_none(self, tmp_path, capsys, command, setting):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(setting)
        out = tmp_path / "out"
        assert main([*command, "--pairs", "16", "--config", str(cfg), "--output-dir", str(out)]) == 2
        self.assert_one_error_line(capsys)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]

    def test_overflowing_wall_time_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("campaign:\n  cycle_time_s: 1.0e+308\n")
        out = tmp_path / "out"
        assert main(["reproduce", "--config", str(cfg), "--pairs", "16", "--output-dir", str(out)]) == 2
        self.assert_one_error_line(capsys)
        assert not any(NON_FINITE.search(path.read_text()) for path in out.iterdir()), list(out.iterdir())
