"""Strict YAML configuration: schema, defaults, validation, hashing.

Every key the toolkit understands is one row of ``SCHEMA``: its built-in
value, its check and the requirement text an error quotes. Anything else
is rejected with the offending key path and, when it can be found, the
line in the file. The shipped ``default_config.yaml`` mirrors the table
and a test keeps the two equal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import yaml

from .errors import ConfigError
from .sensitivity import PhysicalConstants, SequenceTiming
from .shots import CampaignConfig, NoiseConfig, _seed_ok
from .squeezing import SqueezingModel

ENV_CONFIG_PATH = "GRAVLAB_CONFIG"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive(v) -> bool:
    return _is_number(v) and v > 0


def _non_negative(v) -> bool:
    return _is_number(v) and v >= 0


def _at_least_one(v) -> bool:
    return _is_number(v) and v >= 1


def _finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _unit_interval(v) -> bool:
    return _is_number(v) and 0 < v <= 1


def _pos_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _nullable_finite(v) -> bool:
    return v is None or _finite(v)


def _bool(v) -> bool:
    return isinstance(v, bool)


def _string(v) -> bool:
    return isinstance(v, str) and len(v) > 0


# key path -> (built-in value, predicate, requirement text)
SCHEMA: dict[str, tuple] = {
    "timing.tau_bm_s": (60.0e-6, _positive, "a duration in seconds > 0"),  # Raman pulse, main sequence
    "timing.t_sep_s": (77.0e-6, _positive, "a duration in seconds > 0"),  # separation inside a pulse pair
    "timing.big_t_s": (455.0e-6, _positive, "a duration in seconds > 0"),  # single-T commands
    "timing.t0_s": (0.0, _finite, "a finite time in seconds"),
    # 4*pi / 780.241 nm, counter-propagating
    "constants.k_eff_per_m": (1.61057e7, _positive, "a wavevector in 1/m > 0"),
    "noise.contrast": (0.98, _unit_interval, "a number in (0, 1]"),
    "noise.raman_efficiency": (1.0, _unit_interval, "a number in (0, 1]"),
    # light-shift phase noise solved so the default squeezed campaign sits at
    # -1.7 dB metrological squeezing (coherent input then lands near +2.1 dB)
    "noise.sigma_ac_rad": (0.007816159981487004, _non_negative, "radians >= 0"),
    "noise.sigma_raman_phase_rad": (1.2e-3, _non_negative, "radians >= 0"),
    "noise.atom_number_mean": (6000.0, _at_least_one, "atoms >= 1"),
    "noise.atom_number_sigma": (0.0, _non_negative, "atoms >= 0"),
    "noise.sigma_accel_m_s2": (0.0, _non_negative, "m/s^2 >= 0"),
    "noise.projection_noise": (True, _bool, "true or false"),
    # squeezing strength and detection noise solved from the (-5.4, +9.9) dB
    # tomography extremes at 6000 atoms (closed form, see calibrate_model)
    "noise.squeezing.strength_r": (1.1302698853537816, _non_negative, "dimensionless >= 0"),
    "noise.squeezing.optimal_phase_rad": (1.2 * math.pi, _finite, "radians"),
    "noise.squeezing.detection_noise_atoms": (16.61816667208982, _non_negative, "atoms >= 0"),
    "campaign.t1_s": (455.0e-6, _positive, "a duration in seconds > 0"),
    "campaign.t2_s": (155.0e-6, _positive, "a duration in seconds > 0"),
    # alpha/k_eff when alpha is null
    "campaign.chirp_target_m_per_s2": (9.8126, _finite, "m/s^2"),
    "campaign.alpha_rad_per_s2": (None, _nullable_finite, "rad/s^2 or null"),
    "campaign.g_true_m_per_s2": (9.812637, _finite, "m/s^2"),
    "campaign.n_pairs": (5000, _pos_int, "an integer >= 1"),
    "campaign.cycle_time_s": (52.0, _positive, "seconds > 0"),
    "campaign.seed": (7, _seed_ok, "an integer in [0, 2^64)"),
    "output_dir": ("runs", _string, "a non-empty path"),
}


@dataclass(frozen=True)
class AppConfig:
    """Validated toolkit configuration."""

    timing: SequenceTiming
    constants: PhysicalConstants
    noise: NoiseConfig
    campaign: CampaignConfig
    output_dir: str
    resolved: dict  # built-ins overlaid with the user's values, as plain data


def _walk(loader: yaml.SafeLoader, node: yaml.MappingNode, prefix: str = "") -> dict:
    """Check a mapping node of user values and return it as a dict: a key
    that is a SCHEMA row must pass its predicate, a prefix of rows must be
    a section, anything else is unknown, and a key written twice is an
    error. A key that is not a plain name is unknown too: 'noise.contrast'
    spelled as one key would pass the path checks, but parse_config reads
    the nested sections and would never use its value. Errors name the
    key's line."""
    written = sum(key.tag != "tag:yaml.org,2002:merge" for key, _ in node.value)
    loader.flatten_mapping(node)  # resolves '<<' merges: merged pairs first, written ones last
    merged = len(node.value) - written
    data: dict = {}
    lines: dict = {}  # path -> line of each written key
    for k, (key_node, value_node) in enumerate(node.value):
        key = loader.construct_object(key_node, deep=True)
        path = f"{prefix}{key}"
        line = key_node.start_mark.line + 1
        if k >= merged:
            if path in lines:
                raise ConfigError(f"config key '{path}' is repeated (lines {lines[path]} and {line})")
            lines[path] = line
        plain = isinstance(key, str) and "." not in key
        if plain and path in SCHEMA:
            value = loader.construct_object(value_node, deep=True)
            _, predicate, req = SCHEMA[path]
            if not predicate(value):
                raise ConfigError(f"config key '{path}' must be {req}, got {value!r} (line {line})")
        elif plain and any(row.startswith(path + ".") for row in SCHEMA):
            if not isinstance(value_node, yaml.MappingNode):
                raise ConfigError(f"config key '{path}' must be a section (line {line})")
            value = _walk(loader, value_node, path + ".")
        else:
            raise ConfigError(f"unknown config key '{path}' (line {line})")
        data[key] = value  # a later pair overrides a merged one, as in YAML
    return data


def parse_config(text: str) -> AppConfig:
    """Parse YAML text into a validated AppConfig; empty text = defaults."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        if node is None or node.tag == "tag:yaml.org,2002:null":
            data = {}
        elif isinstance(node, yaml.MappingNode):
            data = _walk(loader, node)
        else:
            raise ConfigError("config root must be a mapping")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    finally:
        loader.dispose()
    # the user's values overlaid on the built-ins, nested like the YAML
    resolved: dict = {}
    for path, (builtin, _, _) in SCHEMA.items():
        *sections, key = path.split(".")
        node, given = resolved, data
        for section in sections:
            node = node.setdefault(section, {})
            given = given.get(section, {})
        node[key] = given.get(key, builtin)

    timing = SequenceTiming(
        pulse_s=resolved["timing"]["tau_bm_s"],
        separation_s=resolved["timing"]["t_sep_s"],
        free_evolution_s=resolved["timing"]["big_t_s"],
        start_s=resolved["timing"]["t0_s"],
    )
    constants = PhysicalConstants(k_eff_per_m=resolved["constants"]["k_eff_per_m"])

    sq = resolved["noise"]["squeezing"]
    model = SqueezingModel(
        atom_number=resolved["noise"]["atom_number_mean"],
        strength=sq["strength_r"],
        optimal_phase_rad=sq["optimal_phase_rad"],
        detection_noise_atoms=sq["detection_noise_atoms"],
    )
    noise = NoiseConfig(
        squeezing=model,
        contrast=resolved["noise"]["contrast"],
        raman_efficiency=resolved["noise"]["raman_efficiency"],
        sigma_ac_rad=resolved["noise"]["sigma_ac_rad"],
        sigma_raman_phase_rad=resolved["noise"]["sigma_raman_phase_rad"],
        atom_number_mean=resolved["noise"]["atom_number_mean"],
        atom_number_sigma=resolved["noise"]["atom_number_sigma"],
        sigma_accel_m_s2=resolved["noise"]["sigma_accel_m_s2"],
        projection_noise=resolved["noise"]["projection_noise"],
    )

    cam = resolved["campaign"]
    alpha = cam["alpha_rad_per_s2"]
    if alpha is None:
        alpha = cam["chirp_target_m_per_s2"] * constants.k_eff_per_m
    campaign = CampaignConfig(
        t1_s=cam["t1_s"],
        t2_s=cam["t2_s"],
        alpha_rad_per_s2=alpha,
        g_true_m_per_s2=cam["g_true_m_per_s2"],
        n_pairs=cam["n_pairs"],
        cycle_time_s=cam["cycle_time_s"],
        seed=cam["seed"],
    )

    return AppConfig(
        timing=timing,
        constants=constants,
        noise=noise,
        campaign=campaign,
        output_dir=resolved["output_dir"],
        resolved=resolved,
    )


def load_config(path: str | None = None) -> AppConfig:
    """Load a config file; falls back to $GRAVLAB_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return parse_config("")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_hash(config: AppConfig) -> str:
    """64-bit stable hash of the resolved configuration (hex)."""
    canon = json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=8).hexdigest()
