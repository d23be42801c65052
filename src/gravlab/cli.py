"""Command-line orchestration: deterministic runs, CSV/JSONL export.

Exit codes: 0 success, 1 usage or configuration problem, 2 numerical or
data problem. All output files are CSV with a one-line header or JSON
lines; floats carry 17 significant digits so re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    MIN_ALLAN_SAMPLES,
    allan_deviation,
    delta_p,
    estimate_g,
    fit_fringe,
    fringe_intersection,
    fringes_parallel,
    metrological_squeezing,
    phase_noise_budget,
    require_squeezing_contrast,
)
from .config import AppConfig, config_hash, load_config
from .errors import DURATION, NON_NEGATIVE, NUMBER, POSITIVE, SEED, SIZE, Rule
from .errors import ConfigError, DataError, GravlabError
from .pulses import _KINDS, _MODELS, PulseShape, accumulated_area, averaged_transfer, envelope, pulse_sensitivity
from .sensitivity import net_area, scale_factor
from .shots import PAIRS, STREAM_VERSION, dump_shot_log, read_shot_log, run_campaign, shot_diagnostics
from .shots import write_shot_log
from .squeezing import coherent_model, squeezing_parameter, tomography_variance

# reference values the summary table is compared against
REF_SCALE_T1 = 1.4290      # s^2/m at T = 455 us
REF_SCALE_T2 = 0.7707      # s^2/m at T = 155 us
REF_TRANSFER = (0.981, 0.007)
REF_TRANSFER_PULSE = (PulseShape(kind="blackman", duration_s=64.8e-6), 2500.0, 500.0)  # its pulse, detuning, spread (Hz)
REF_TOMOGRAPHY_DB = (-5.4, 9.9)
REF_SQUEEZED_DB = -1.7
REF_COHERENT_DB = 2.2      # derived calibration, not a direct quote
REF_TIME_RATIO = 10**0.39  # ~2.45x faster averaging
REF_G_EXP = 9.8118
REF_BUDGET = (4.0, -20.0)  # rounded imbalance noise and dB level

# rows a `pulse --samples` or `tomography --points` table may have: a
# million rows take ~3-4 s CPU and 70-85 MB peak RSS for either command
MAX_TABLE_ROWS = 10**6
TABLE_ROWS = Rule(lambda v: SIZE.test(v) and v <= MAX_TABLE_ROWS, f"an integer in [0, {MAX_TABLE_ROWS}]")
# the FringeFit fields of a fringes.csv row, after the file name
FRINGE_COLUMNS = ("offset", "amplitude", "contrast", "scale_s2_per_m", "phase0_rad", "residual_rms")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(rule, kind=float):
    """argparse type: a `kind` number that passes `rule`, the errors.Rule
    of the config key and settings field the flag mirrors."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not rule.test(value):
            raise argparse.ArgumentTypeError(f"must be {rule.words}, got {text!r}")
        return value

    return parse


def _f17(x) -> str:
    return format(float(x), ".17g")


def _out_path(args, name):
    base = getattr(args, "output_dir", None) or args.config_obj.output_dir
    if name is None or name == "-":
        return None
    path = name if os.path.isabs(name) else os.path.join(base, name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _f17_columns(*columns):
    """The rows of equal-length numeric columns as .17g text, each formatted as it is written."""
    return zip(*(map(_f17, column) for column in columns))


def _write_csv(args, name, header, rows):
    """Write a CSV table, an iterable of rows of text, to the output `name` (see _out_path) row by row:
    the stream's buffer is all the text held at once. Returns the path written, or None for stdout."""
    path = _out_path(args, name)
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    if path is not None:
        print(f"wrote {path}")
    return path


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class Manifest:
    """Run manifest: enough to regenerate every output bit-exactly.

    Written after each data file, with the digest of every output so far
    and the shot diagnostics of each arm; `finish` adds the end timestamp.
    A run that fails before its first data file leaves no manifest, and
    one that fails later leaves it with `finished_utc` null. Timestamps
    are the one part that differs between otherwise identical re-runs.
    """

    def __init__(self, path, config: AppConfig, seed, argv):
        self.path = path
        self.doc = {
            "toolkit_version": __version__,
            "config_hash": config_hash(config),
            "seed": seed,
            "stream_version": STREAM_VERSION,
            "command": ["gravlab", *argv],
            "started_utc": _utcnow(),
            "finished_utc": None,
            "config": config.resolved,
            "outputs": [],
            "diagnostics": {},
        }

    def _write(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def add(self, path):
        import hashlib
        digest = hashlib.blake2b(digest_size=8)
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):  # 1 MiB reads: memory stays bounded for any output size
                digest.update(chunk)
        self.doc["outputs"].append({"path": os.path.basename(path), "blake2b16": digest.hexdigest()})
        self._write()

    def finish(self):
        self.doc["finished_utc"] = _utcnow()
        self._write()
        print(f"wrote {self.path}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pulse(args) -> int:
    cfg = args.config_obj
    tau = args.tau_s if args.tau_s is not None else cfg.timing.pulse_s
    shape = PulseShape(kind=args.shape, duration_s=tau, area_rad=args.area_rad)
    if args.detuning_hz is not None:
        delta = 2.0 * math.pi * args.detuning_hz
        mean, std = averaged_transfer(shape, delta, 2.0 * math.pi * args.detuning_sigma_hz, args.model)
        _write_csv(args, args.out, ["detuning_rad_s", "transfer_mean", "transfer_std"], _f17_columns([delta], [mean], [std]))
        return 0
    ts = np.linspace(0.0, tau, args.samples)
    columns = ts, envelope(shape, ts), accumulated_area(shape, ts), pulse_sensitivity(shape, ts)
    _write_csv(args, args.out, ["t_s", "envelope", "accumulated_area_rad", "sensitivity"], _f17_columns(*columns))
    return 0


def _cmd_scale_factor(args) -> int:
    cfg = args.config_obj
    timing = cfg.timing if args.T is None else replace(cfg.timing, free_evolution_s=args.T)
    values = [scale_factor(timing, cfg.constants), net_area(timing), timing.free_evolution_s, *timing.breakpoints]
    names = ["scale_s2_per_m", "net_area_s", "free_evolution_s", *(f"breakpoint_{i}_s" for i in range(len(values) - 3))]
    _write_csv(args, args.out, ["quantity", "value"], zip(names, map(_f17, values)))
    return 0


def _cmd_tomography(args) -> int:
    cfg = args.config_obj
    model = coherent_model(cfg.noise.squeezing.atom_number) if args.coherent else cfg.noise.squeezing
    phis = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    variances = tomography_variance(model, phis)
    columns = phis, variances, squeezing_parameter(variances, model.atom_number)[1]
    _write_csv(args, args.out, ["phi_rad", "variance_atoms2", "squeezing_db"], _f17_columns(*columns))
    return 0


def _apply_state_choice(cfg: AppConfig, squeezed: bool, advice: str = "") -> AppConfig:
    """Return cfg with the squeezing strength forced off for a coherent
    campaign; a squeezed one needs strength > 0, and `advice` ends its error."""
    if not squeezed:
        return replace(cfg, noise=replace(cfg.noise, squeezing=replace(cfg.noise.squeezing, strength=0.0)))
    if cfg.noise.squeezing.strength == 0:
        raise ConfigError(f"a squeezed campaign needs noise.squeezing.strength_r > 0, got 0{advice}")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_state_choice(args.config_obj, args.squeezed, "; pass --coherent for a coherent campaign")
    campaign = replace(
        cfg.campaign,
        n_pairs=cfg.campaign.n_pairs if args.pairs is None else args.pairs,
        seed=cfg.campaign.seed if args.seed is None else args.seed,
    )
    out = _out_path(args, args.out)
    if out is None:
        # `--out -`: the log goes to stdout, and no manifest is written
        shots = run_campaign(campaign, cfg.timing, cfg.constants, cfg.noise)
        dump_shot_log(shots, sys.stdout)
        print(f"wrote {len(shots)} shots to stdout", file=sys.stderr)
        return 0
    manifest = Manifest(out + ".manifest.json", cfg, campaign.seed, args.raw_argv)
    _write_arm(cfg, campaign, "squeezed" if args.squeezed else "coherent", out, manifest)
    manifest.finish()
    return 0


def _write_arm(cfg: AppConfig, campaign, label: str, path, manifest: Manifest):
    """Generate one campaign, write its shot log to `path`, and record the
    log and its shot diagnostics under `label` in the manifest."""
    shots = run_campaign(campaign, cfg.timing, cfg.constants, cfg.noise)
    write_shot_log(shots, path)
    print(f"wrote {path} ({len(shots)} shots)")
    manifest.doc["diagnostics"][label] = shot_diagnostics(shots)
    manifest.add(path)
    return shots


def _write_analysis(args, name, cfg: AppConfig, deltas):
    """Estimate g and the metrological squeezing from a log's pairs `deltas`
    and write them as a quantity,value table to the output `name`; returns
    the path written (None for stdout) and both estimates."""
    s1 = scale_factor(replace(cfg.timing, free_evolution_s=deltas.t1_s), cfg.constants)
    s2 = scale_factor(replace(cfg.timing, free_evolution_s=deltas.t2_s), cfg.constants)
    alpha = deltas.chirp_rad_per_s2
    grav = estimate_g(deltas, cfg.noise.effective_contrast, s1, s2, alpha, cfg.constants)
    squeeze = metrological_squeezing(deltas, contrast=cfg.noise.effective_contrast)
    rows = [
        ["n_pairs", _f17(grav.n_pairs)],
        ["n_dropped", str(deltas.n_dropped)],
        ["n_skipped", str(deltas.n_skipped)],
        ["delta_p_mean", _f17(grav.delta_p_mean)],
        ["g_exp_m_s2", _f17(grav.g_exp_m_s2)],
        ["sigma_g_m_s2", _f17(grav.sigma_g_m_s2)],
        ["squeezing_db", _f17(squeeze.db)],
        ["squeezing_ci_low_db", _f17(squeeze.ci_low_db)],
        ["squeezing_ci_high_db", _f17(squeeze.ci_high_db)],
        ["contrast", _f17(cfg.noise.effective_contrast)],
        ["scale1_s2_per_m", _f17(s1)],
        ["scale2_s2_per_m", _f17(s2)],
        ["alpha_rad_per_s2", _f17(alpha)],
        ["alpha_over_keff_m_s2", _f17(alpha / cfg.constants.k_eff_per_m)],
    ]
    return _write_csv(args, name, ["quantity", "value"], rows), grav, squeeze


def _cmd_analyze(args) -> int:
    _, grav, squeeze = _write_analysis(args, args.out, args.config_obj, delta_p(read_shot_log(args.shots)))
    print(
        f"g = {grav.g_exp_m_s2:.6f} +- {grav.sigma_g_m_s2:.6f} m/s^2, "
        f"squeezing {squeeze.db:+.2f} dB "
        f"[{squeeze.ci_low_db:+.2f}, {squeeze.ci_high_db:+.2f}]"
    )
    return 0


def _write_allan(args, name, deltas):
    """The overlapping Allan deviation of a log's pair differences
    `deltas`, written as a tau_s,adev,err table to the output `name`;
    returns the path written (None for stdout) and the series."""
    # tau0 is the log's pair spacing: skipped pairs are closed up, not gaps
    series = allan_deviation(deltas.values, deltas.tau0_s)
    return _write_csv(args, name, ["tau_s", "adev", "err"], _f17_columns(series.tau_s, series.adev, series.err)), series


def _cmd_allan(args) -> int:
    _write_allan(args, args.out, delta_p(read_shot_log(args.shots)))
    return 0


def _read_fringe_file(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not part of line 1
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read fringe file {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.strip().split(",")
        if parts == [""] or lineno == 1 and not _is_float(parts[0]):
            continue  # a blank line or the header
        if len(parts) < 2 or not (_is_float(parts[0]) and _is_float(parts[1])):
            raise DataError(f"{path}:{lineno}: expected 'alpha,p'")
        alpha, p = float(parts[0]), float(parts[1])
        if not (math.isfinite(alpha) and math.isfinite(p)):
            raise DataError(f"{path}:{lineno}: non-finite alpha or p")
        rows.append((alpha, p))
    if not rows:
        raise DataError(f"{path}: no fringe points")
    return rows


def _is_float(s) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_fringes(args) -> int:
    cfg = args.config_obj
    fits = []
    rows = []
    alphas = []
    for path in args.files:
        pts = _read_fringe_file(path)
        fit = fit_fringe(pts, cfg.constants)
        fits.append(fit)
        alphas += [a for a, _ in pts]
        rows.append([os.path.basename(path), *(_f17(getattr(fit, name)) for name in FRINGE_COLUMNS)])
    _write_csv(args, args.out, ["file", *FRINGE_COLUMNS], rows)
    if not fringes_parallel(fits):  # one scan, or scans of equal |S|, have no crossing
        ordered, mid = sorted(alphas), len(alphas) // 2  # np.median would import numpy.ma
        center = ordered[mid] if len(alphas) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        star = fringe_intersection(fits, cfg.constants, center)
        k = cfg.constants.k_eff_per_m
        print(f"alpha_star_rad_per_s2,{_f17(star.alpha_rad_per_s2)}")
        print(f"alpha_star_over_keff_m_s2,{_f17(star.alpha_rad_per_s2 / k)}")
        print(f"sigma_alpha_star_rad_per_s2,{_f17(star.sigma_alpha_rad_per_s2)}")
        print(f"sigma_alpha_star_over_keff_m_s2,{_f17(star.sigma_alpha_rad_per_s2 / k)}")
    return 0


def _cmd_reproduce(args) -> int:
    cfg = args.config_obj
    n_pairs = args.pairs if args.pairs is not None else cfg.campaign.n_pairs
    if n_pairs < MIN_ALLAN_SAMPLES:
        # refused before any file exists: each arm's Allan series has one
        # sample per pair
        raise ConfigError(
            f"reproduce needs at least {MIN_ALLAN_SAMPLES} pairs per arm, got {n_pairs}"
        )
    seed = args.seed if args.seed is not None else cfg.campaign.seed
    if not SEED.test(seed + 1):
        # refused before any file exists: the coherent arm runs on seed + 1
        raise ConfigError(f"reproduce needs a seed in [0, 2^64 - 1), since the coherent arm runs on seed + 1; got {seed}")
    _apply_state_choice(cfg, True)  # refused before any file exists: the squeezed arm needs squeezing
    # refused before any file exists: each arm's squeezing estimate divides by the contrast squared
    require_squeezing_contrast(cfg.noise.effective_contrast)
    manifest = Manifest(_out_path(args, "manifest.json"), cfg, seed, args.raw_argv)

    summary = []

    def add(quantity, simulated, reference, unit):
        summary.append(
            [quantity, _f17(simulated), reference if isinstance(reference, str) else _f17(reference), unit]
        )

    # scale factors at the two free-evolution times
    s1 = scale_factor(replace(cfg.timing, free_evolution_s=cfg.campaign.t1_s), cfg.constants)
    s2 = scale_factor(replace(cfg.timing, free_evolution_s=cfg.campaign.t2_s), cfg.constants)
    add("scale_factor_long_T", s1, REF_SCALE_T1, "s^2/m")
    add("scale_factor_short_T", s2, REF_SCALE_T2, "s^2/m")

    # pi-pulse transfer under the calibrated light-shift detuning
    shape, detuning_hz, sigma_hz = REF_TRANSFER_PULSE
    mean, std = averaged_transfer(shape, 2 * math.pi * detuning_hz, 2 * math.pi * sigma_hz)
    add("transfer_mean", mean, REF_TRANSFER[0], "probability")
    add("transfer_std", std, REF_TRANSFER[1], "probability")

    # tomography extremes of the calibrated model
    model = cfg.noise.squeezing
    var_min = tomography_variance(model, model.optimal_phase_rad)
    var_max = tomography_variance(model, model.optimal_phase_rad + math.pi / 2)
    add("tomography_min_db", squeezing_parameter(var_min, model.atom_number)[1], REF_TOMOGRAPHY_DB[0], "dB")
    add("tomography_max_db", squeezing_parameter(var_max, model.atom_number)[1], REF_TOMOGRAPHY_DB[1], "dB")

    # the two campaigns; the coherent arm runs on seed+1
    results = {}
    for label, squeezed, arm_seed in (("squeezed", True, seed), ("coherent", False, seed + 1)):
        arm_cfg = _apply_state_choice(cfg, squeezed)
        campaign = replace(arm_cfg.campaign, seed=arm_seed, n_pairs=n_pairs)
        # the arm's shots are released once paired
        deltas = delta_p(_write_arm(arm_cfg, campaign, label, _out_path(args, f"shots_{label}.jsonl"), manifest))
        path, grav, squeeze = _write_analysis(args, f"analysis_{label}.csv", arm_cfg, deltas)
        manifest.add(path)
        path, series = _write_allan(args, f"allan_{label}.csv", deltas)
        manifest.add(path)
        results[label] = (grav, squeeze, series)
        del deltas  # else its pairs are held while the next arm is generated

    grav_s, squeeze_s, series_s = results["squeezed"]
    _, squeeze_c, series_c = results["coherent"]
    add("squeezed_metrological_db", squeeze_s.db, REF_SQUEEZED_DB, "dB")
    add("coherent_metrological_db", squeeze_c.db, REF_COHERENT_DB, "dB")
    # white-noise time to reach a fixed instability scales with the
    # tau0 deviation squared
    if not series_s.adev[0] > 0:
        raise DataError("time_to_target_ratio is undefined: the squeezed arm's Allan deviation at tau0 is 0")
    ratio = (series_c.adev[0] / series_s.adev[0]) ** 2
    add("time_to_target_ratio", ratio, REF_TIME_RATIO, "dimensionless")
    add("g_exp", grav_s.g_exp_m_s2, REF_G_EXP, "m/s^2")
    add("sigma_g", grav_s.sigma_g_m_s2, "", "m/s^2")
    add("g_true", cfg.campaign.g_true_m_per_s2, cfg.campaign.g_true_m_per_s2, "m/s^2")

    budget = phase_noise_budget(cfg.noise.sigma_raman_phase_rad, cfg.noise.squeezing.atom_number)
    add("raman_phase_imbalance_noise", budget.delta_jz_atoms, REF_BUDGET[0], "atoms")
    add("raman_phase_level_db", budget.db_vs_sql, REF_BUDGET[1], "dB")

    manifest.add(_write_csv(args, "summary.csv", ["quantity", "simulated", "reference", "unit"], summary))
    manifest.finish()

    print(f"squeezed: g = {grav_s.g_exp_m_s2:.6f} +- {grav_s.sigma_g_m_s2:.6f} m/s^2")
    print(f"squeezed: {squeeze_s.db:+.2f} dB, coherent: {squeeze_c.db:+.2f} dB, time ratio {ratio:.2f}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gravlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gravlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None, out=True):
        p.add_argument("--config", help="YAML config path (default $GRAVLAB_CONFIG, then built-ins)")
        p.add_argument("--output-dir", help="directory for output files")
        if out:
            p.add_argument("--out", default=out_default, help="output file (default: %(default)s)")

    p = sub.add_parser("pulse", help="pulse envelope, area and sensitivity ramp; optional transfer probability")
    common(p, None)
    p.add_argument("--tau-s", type=_number(DURATION), help="pulse duration in seconds")
    p.add_argument("--shape", choices=_KINDS, default="blackman")
    p.add_argument("--area-rad", type=_number(POSITIVE), default=math.pi)
    p.add_argument("--samples", type=_number(TABLE_ROWS, int), default=201)
    p.add_argument("--detuning-hz", type=_number(NUMBER), help="emit transfer probability at this detuning")
    p.add_argument("--detuning-sigma-hz", type=_number(NON_NEGATIVE), default=0.0)
    p.add_argument("--model", choices=_MODELS, default="envelope")
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("scale-factor", help="scale factor, net area and breakpoints")
    common(p, None)
    p.add_argument("--T", type=_number(DURATION), help="free evolution time in seconds")
    p.set_defaults(func=_cmd_scale_factor)

    p = sub.add_parser("tomography", help="variance vs readout angle of the input-state model")
    common(p, None)
    p.add_argument("--points", type=_number(TABLE_ROWS, int), default=181)
    p.add_argument("--coherent", action="store_true", help="ideal coherent input instead of the configured model")
    p.set_defaults(func=_cmd_tomography)

    p = sub.add_parser("simulate", help="run one campaign and write a JSONL shot log")
    common(p, "shots.jsonl")
    p.add_argument("--pairs", type=_number(PAIRS, int))
    p.add_argument("--seed", type=_number(SEED, int))
    state = p.add_mutually_exclusive_group()
    state.add_argument("--squeezed", action="store_true", default=True)
    state.add_argument("--coherent", dest="squeezed", action="store_false")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="gravity and squeezing estimates from a shot log")
    common(p, "analysis.csv")
    p.add_argument("--shots", required=True, help="JSONL shot log")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("allan", help="overlapping Allan deviation of the pair differences")
    common(p, "allan.csv")
    p.add_argument("--shots", required=True, help="JSONL shot log")
    p.set_defaults(func=_cmd_allan)

    p = sub.add_parser("fringes", help="fit fringe scans and locate their common crossing")
    common(p, "fringes.csv")
    p.add_argument("files", nargs="+", help="CSV files of alpha_rad_per_s2,p")
    p.set_defaults(func=_cmd_fringes)

    # writes fixed file names; no abbreviations, or --out would mean --output-dir
    p = sub.add_parser(
        "reproduce", help="simulate + analyze + allan for both input states, with a summary table", allow_abbrev=False
    )
    common(p, out=False)
    p.add_argument("--pairs", type=_number(PAIRS, int))
    p.add_argument("--seed", type=_number(SEED, int))
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.raw_argv = list(argv)
        args.config_obj = load_config(args.config)
        # a result that overflows or is undefined is an error, never a
        # non-finite number in an output file
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GravlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: numerical overflow or undefined result: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written: an input that cannot be read is a GravlabError
        if isinstance(exc, BrokenPipeError):  # stdout closed, as by `| head`: its flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
