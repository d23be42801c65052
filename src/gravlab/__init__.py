"""Desk-scale gravimeter simulation and analysis toolkit.

Simulates a four-pulse atom interferometer driven by smooth
amplitude-shaped beamsplitters, with optional spin-squeezed input
states, and provides the estimation chain from raw shot logs to a
gravity value, squeezing factors, and Allan deviations.

Each public name below is imported from its layer on first use, so
`import gravlab` loads no layer and each layer loads only those it calls.
"""

import importlib

__version__ = "0.1.0"

# each layer and the public names it defines
_LAYERS = {
    "analysis": """AllanSeries DeltaPSeries FringeCrossing FringeFit GravityEstimate PhaseNoiseBudget
        SqueezingEstimate allan_deviation delta_p estimate_g fit_fringe fringe_intersection
        gravity_from_delta_p metrological_squeezing phase_noise_budget squeezing_from_pairs""",
    "config": "AppConfig config_hash load_config parse_config",
    "errors": "CalibrationError ConfigError DataError DomainError FitError GravlabError NumericalError",
    "pulses": "PulseShape accumulated_area averaged_transfer envelope pulse_sensitivity transfer_probability",
    "sensitivity": "PhysicalConstants SequenceTiming gravity_sensitivity net_area phase_signal scale_factor",
    "shots": "CampaignConfig NoiseConfig ShotTable read_shot_log run_campaign simulate_shot write_shot_log",
    "squeezing": """FockSpace HamiltonianParams SparseOperator SqueezingModel build_hamiltonians calibrate_model
        coherent_model evolve mean_occupations mode_transform occupation_distribution pump_block
        squeezing_parameter tomography_variance vacuum_state""",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """A layer module, or a public name imported from its layer and kept here."""
    layer = _HOME.get(name, name if name in _LAYERS else None)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
