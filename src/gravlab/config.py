"""Strict YAML configuration: schema, defaults, validation, hashing.

Every key the toolkit understands is one row of ``SCHEMA``: its built-in
value, the shared errors.Rule it must pass (the one the CLI flag that
mirrors it also uses) and the settings-dataclass field it fills, which
checks the same Rule; parse_config builds the settings from the table.
Anything else is rejected with the offending key path and, when it can
be found, the line in the file. The shipped ``default_config.yaml``
mirrors the table and a test keeps the two equal. Exponent floats
without a dot or a signed exponent (``6e-05``, ``1.5e8``) are numbers,
as in YAML 1.2 and JSON, so the resolved config a manifest records loads
back as a config file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import AT_LEAST_ONE, DURATION, FLAG, FRACTION, NON_NEGATIVE, NUMBER, PATH, POSITIVE, SEED
from .errors import ConfigError
from .sensitivity import PhysicalConstants, SequenceTiming
from .shots import PAIRS, CampaignConfig, NoiseConfig
from .squeezing import SqueezingModel

ENV_CONFIG_PATH = "GRAVLAB_CONFIG"


# key path -> (built-in value, rule, the field it fills in its section's settings
# dataclass); None for the rows parse_config reads by name: they fill no such field
SCHEMA: dict[str, tuple] = {
    "timing.tau_bm_s": (60.0e-6, DURATION, "pulse_s"),  # Raman pulse, main sequence
    "timing.t_sep_s": (77.0e-6, DURATION, "separation_s"),  # separation inside a pulse pair
    "timing.big_t_s": (455.0e-6, DURATION, "free_evolution_s"),  # single-T commands
    "timing.t0_s": (0.0, NUMBER, "start_s"),
    # 4*pi / 780.241 nm, counter-propagating
    "constants.k_eff_per_m": (1.61057e7, POSITIVE, "k_eff_per_m"),
    "noise.contrast": (0.98, FRACTION, "contrast"),
    "noise.raman_efficiency": (1.0, FRACTION, "raman_efficiency"),
    # light-shift phase noise solved so the default squeezed campaign sits at -1.7 dB metrological squeezing; the
    # coherent arm reads +2.040 dB (SD 0.084) over seeds 1-200 and +1.93 dB at criterion 06's seed 8 (ROADMAP item 15)
    "noise.sigma_ac_rad": (0.007816159981487004, NON_NEGATIVE, "sigma_ac_rad"),
    "noise.sigma_raman_phase_rad": (1.2e-3, NON_NEGATIVE, "sigma_raman_phase_rad"),
    "noise.atom_number_mean": (6000.0, AT_LEAST_ONE, None),  # fills noise.squeezing.atom_number
    "noise.atom_number_sigma": (0.0, NON_NEGATIVE, "atom_number_sigma"),
    "noise.sigma_accel_m_s2": (0.0, NON_NEGATIVE, "sigma_accel_m_s2"),
    "noise.projection_noise": (True, FLAG, "projection_noise"),
    # squeezing strength and detection noise solved from the (-5.4, +9.9) dB
    # tomography extremes at 6000 atoms (closed form, see calibrate_model)
    "noise.squeezing.strength_r": (1.1302698853537816, NON_NEGATIVE, "strength"),
    # the tomography angle of the squeezed quadrature; shots read that
    # quadrature at mid-fringe, so it sets the tomography and no shot
    "noise.squeezing.optimal_phase_rad": (1.2 * math.pi, NUMBER, "optimal_phase_rad"),
    "noise.squeezing.detection_noise_atoms": (16.61816667208982, NON_NEGATIVE, "detection_noise_atoms"),
    "campaign.t1_s": (455.0e-6, DURATION, "t1_s"),
    "campaign.t2_s": (155.0e-6, DURATION, "t2_s"),
    "campaign.chirp_target_m_per_s2": (9.8126, NUMBER, None),  # alpha / k_eff
    "campaign.g_true_m_per_s2": (9.812637, NUMBER, "g_true_m_per_s2"),
    "campaign.n_pairs": (5000, PAIRS, "n_pairs"),
    "campaign.cycle_time_s": (52.0, DURATION, "cycle_time_s"),
    "campaign.seed": (7, SEED, "seed"),
    "output_dir": ("runs", PATH, None),
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
    that is a SCHEMA row must pass its rule, a prefix of rows must be
    a section, anything else is unknown, and a key written twice is an
    error. A key that is not a plain name is unknown too: 'noise.contrast'
    spelled as one key would pass the path checks, but parse_config reads
    the nested sections and would never use its value. Errors name the
    key's line."""
    import yaml
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
            rule = SCHEMA[path][1]
            if not rule.test(value):
                raise ConfigError(f"config key '{path}' must be {rule.words}, got {value!r} (line {line})")
        elif plain and any(row.startswith(path + ".") for row in SCHEMA):
            if not isinstance(value_node, yaml.MappingNode):
                raise ConfigError(f"config key '{path}' must be a section (line {line})")
            value = _walk(loader, value_node, path + ".")
        else:
            raise ConfigError(f"unknown config key '{path}' (line {line})")
        data[key] = value  # a later pair overrides a merged one, as in YAML
    return data


def _loader(text: str) -> yaml.SafeLoader:
    """A SafeLoader for `text` that also resolves YAML 1.2's exponent
    floats, which YAML 1.1 reads as strings: 6e-05 (as repr and json.dump
    write 60e-6) and 1.5e8. The resolver goes on a subclass, so PyYAML's
    own loaders stay as they are."""
    import re
    import yaml

    Loader = type("Loader", (yaml.SafeLoader,), {})
    exponent_float = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent_float, list("-+.0123456789"))
    return Loader(text)


def parse_config(text: str) -> AppConfig:
    """Parse YAML text into a validated AppConfig; blank text = defaults."""
    data: dict = {}
    if text.strip():
        import yaml
        loader = _loader(text)
        try:
            node = loader.get_single_node()
            if isinstance(node, yaml.MappingNode):
                data = _walk(loader, node)
            elif node is not None and node.tag != "tag:yaml.org,2002:null":
                raise ConfigError("config root must be a mapping")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        finally:
            loader.dispose()
    # the user's values overlaid on the built-ins, nested like the YAML, and each section's fields
    resolved: dict = {}
    fields: dict = {}
    for path, (builtin, _, field) in SCHEMA.items():
        *sections, key = path.split(".")
        node, given = resolved, data
        for section in sections:
            node = node.setdefault(section, {})
            given = given.get(section, {})
        node[key] = given.get(key, builtin)
        if field is not None:
            fields.setdefault(".".join(sections), {})[field] = node[key]

    constants = PhysicalConstants(**fields["constants"])
    model = SqueezingModel(atom_number=resolved["noise"]["atom_number_mean"], **fields["noise.squeezing"])
    alpha = resolved["campaign"]["chirp_target_m_per_s2"] * constants.k_eff_per_m
    return AppConfig(
        timing=SequenceTiming(**fields["timing"]),
        constants=constants,
        noise=NoiseConfig(squeezing=model, **fields["noise"]),
        campaign=CampaignConfig(alpha_rad_per_s2=alpha, **fields["campaign"]),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_hash(config: AppConfig) -> str:
    """64-bit stable hash of the resolved configuration (hex)."""
    import hashlib
    canon = json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=8).hexdigest()
