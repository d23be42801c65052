"""Reference computations and output checks for the gravlab benchmark.

Nothing here imports gravlab. Each reference is computed from a closed
form, a definition, or the raw shot log parsed with plain ``json``, so a
check cannot pass merely because it shares a bug with the code under
test. Every ``check_*`` function returns a list of problems; an empty
list means the output is accepted. Every tolerance is written so that a
NaN fails it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

# tolerances, each stated by the benchmark's README
TRANSFER_TOL = 1e-8        # absolute, closed-form Gauss-Hermite transfer
SCALE_REL_TOL = 1e-6       # scale factors against k_eff (tau + t_sep)(T + 2 tau + t_sep)
TOMOGRAPHY_TOL = 1e-9      # dB, calibrated extremes
RECOMPUTE_REL_TOL = 1e-9   # g, sigma_g, squeezing and Allan recomputed from the log
G_SIGMAS = 5.0             # |g - g_true| <= G_SIGMAS sigma_g (see README)
NET_AREA_REL_TOL = 1e-9    # |net area| / (tau + t_sep)
CROSSING_TOL_M_S2 = 5e-7   # fringe common crossing, in alpha / k_eff (floor 1.4e-7, see README)
FRINGE_SCALE_REL_TOL = 1e-6
FOCK_N_TOL = 1e-6          # <N+> against sinh^2 r
FOCK_NORM_TOL = 1e-8
MARGINAL_TOL = 1e-4        # truncated first-mode marginal against the analytic one

TOMOGRAPHY_DB = (-5.4, 9.9)


# ---------------------------------------------------------------------------
# parsing gravlab's outputs


def quantity_table(text: str) -> dict[str, str]:
    """A two-column ``quantity,value`` CSV (or the first two columns of
    ``summary.csv``) as a dict of strings."""
    rows = list(csv.reader(io.StringIO(text)))
    return {r[0]: r[1] for r in rows[1:] if r}


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def blake2b64(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _off(got: float, want: float, tol: float) -> bool:
    """True unless |got - want| <= tol; a NaN is off whatever the tolerance."""
    return not abs(got - want) <= tol


def _off_rel(got: float, want: float, tol: float) -> bool:
    return _off(got, want, tol * max(abs(want), 1e-300))


# ---------------------------------------------------------------------------
# closed forms


def scale_closed_form(k_eff: float, tau: float, sep: float, big_t: float) -> float:
    """Scale factor in s^2/m. The two sensitivity lobes have the same shape
    and area tau + sep and sit 2 tau + sep + T apart, so the time-weighted
    area is their product whatever the ramp shape."""
    return k_eff * (tau + sep) * (big_t + 2.0 * tau + sep)


def config_inputs(config: dict) -> dict:
    """The numbers the references need, from the resolved configuration a
    gravlab manifest records: k_eff, tau, t_sep, the effective contrast
    C = contrast * raman_efficiency^4, and the closed-form scale factors of
    the campaign's two T."""
    k_eff = config["constants"]["k_eff_per_m"]
    tau, sep = config["timing"]["tau_bm_s"], config["timing"]["t_sep_s"]
    cam, noise = config["campaign"], config["noise"]
    return {
        "k_eff": k_eff, "tau": tau, "sep": sep,
        "contrast": noise["contrast"] * noise["raman_efficiency"] ** 4,
        "scales": [scale_closed_form(k_eff, tau, sep, t) for t in (cam["t1_s"], cam["t2_s"])],
    }


def transfer_closed_form(tau: float, detuning_hz: float, sigma_hz: float, nodes: int = 31):
    """Mean and std of the Blackman pi-pulse transfer when the detuning
    follows the envelope: p = (W0/W)^2 sin^2(0.21 W tau), W = sqrt(W0^2 + d^2),
    W0 = pi / (0.42 tau), averaged over a Gaussian detuning by an n-node
    Gauss-Hermite sum."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    om0 = math.pi / (0.42 * tau)
    d = 2.0 * math.pi * (detuning_hz + math.sqrt(2.0) * sigma_hz * x)
    big_w = np.sqrt(om0 * om0 + d * d)
    p = (om0 / big_w) ** 2 * np.sin(0.21 * big_w * tau) ** 2
    mean = float(np.sum(w * p))
    return mean, math.sqrt(max(float(np.sum(w * p * p)) - mean * mean, 0.0))


def squeezed_vacuum_marginal(r: float, n_max: int) -> np.ndarray:
    """P(n) of a single-mode squeezed vacuum for n <= n_max:
    P(2m) = (2m)! tanh^{2m} r / (4^m (m!)^2 cosh r), odd n zero."""
    p = np.zeros(n_max + 1)
    t = math.tanh(r)
    for m in range(n_max // 2 + 1):
        log_p = (math.lgamma(2 * m + 1) + 2 * m * math.log(t) - m * math.log(4.0)
                 - 2 * math.lgamma(m + 1) - math.log(math.cosh(r)))
        p[2 * m] = math.exp(log_p)
    return p


# ---------------------------------------------------------------------------
# references recomputed from a shot log


def log_reference(path, contrast: float, scale1: float, scale2: float, k_eff: float) -> dict:
    """g, sigma_g and the metrological squeezing of a JSONL shot log, by
    the formulas the README states: pair differences of p = f2/(f1 + f2),
    g = (2/C) mean / (S1 - S2) + alpha/k_eff with the standard error of the
    mean, and the second moment of the imbalance differences about zero
    over (mean N1 + mean N2)/4, divided by C^2."""
    f1, f2, jz, t, alpha = [], [], [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            f1.append(row["count_f1"])
            f2.append(row["count_f2"])
            jz.append(row["imbalance"])
            t.append(row["wall_time_s"])
            alpha = row["chirp_rad_per_s2"] if alpha is None else alpha
    n_shots = len(f1)
    n = n_shots - n_shots % 2
    f1, f2, jz, t = (np.asarray(v[:n], dtype=float) for v in (f1, f2, jz, t))
    atoms = f1 + f2
    p = f2 / atoms
    diffs = p[0::2] - p[1::2]
    mean = float(np.mean(diffs))
    sem = float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
    span = scale1 - scale2
    jd = jz[0::2] - jz[1::2]
    linear = (4.0 / contrast**2) * float(np.mean(jd * jd)) / float(np.mean(atoms[0::2]) + np.mean(atoms[1::2]))
    return {
        "n_shots": n_shots,
        "g_exp_m_s2": (2.0 / contrast) * mean / span + alpha / k_eff,
        "sigma_g_m_s2": (2.0 / contrast) * sem / abs(span),
        "squeezing_db": 10.0 * math.log10(linear),
        "delta_p": diffs,
        "tau0_s": float(t[2] - t[0]),
    }


def allan_reference(values, tau0: float) -> list[tuple[float, float, float]]:
    """Overlapping Allan deviation at m = 1, 2, 4, ... <= M/3, term by term
    (NIST SP 1065, 2008): every block sum is its own window sum, every
    term a difference of adjacent blocks, and the squares are summed
    exactly with fsum. Error bars are sigma / sqrt(number of terms)."""
    x = np.asarray(values, dtype=float)
    out = []
    m = 1
    while m <= len(x) // 3:
        blocks = np.convolve(x, np.ones(m), mode="valid")  # sum of x[j:j+m]
        terms = blocks[m:] - blocks[:-m]
        avar = math.fsum(terms * terms) / (2.0 * m * m * len(terms))
        adev = math.sqrt(avar)
        out.append((m * tau0, adev, adev / math.sqrt(len(terms))))
        m *= 2
    return out


# ---------------------------------------------------------------------------
# checks


def check_recomputed(table: dict[str, str], ref: dict, label: str = "analysis") -> list[str]:
    """An ``analysis*.csv`` against the values recomputed from its log."""
    errs = []
    for key in ("g_exp_m_s2", "sigma_g_m_s2", "squeezing_db"):
        got = float(table[key])
        if _off_rel(got, ref[key], RECOMPUTE_REL_TOL):
            errs.append(f"{label}: {key} = {got!r}, recomputed {ref[key]!r}")
    if not float(table["n_pairs"]) == ref["n_shots"] // 2:
        errs.append(f"{label}: n_pairs = {table['n_pairs']}, log holds {ref['n_shots'] // 2}")
    return errs


def check_allan(rows: list[dict[str, str]], ref) -> list[str]:
    if len(rows) != len(ref):
        return [f"allan: {len(rows)} rows, reference has {len(ref)}"]
    errs = []
    for row, (tau, adev, err) in zip(rows, ref):
        for key, want in (("tau_s", tau), ("adev", adev), ("err", err)):
            got = float(row[key])
            if _off_rel(got, want, RECOMPUTE_REL_TOL):
                errs.append(f"allan: {key} = {got!r} at tau {tau}, direct sum {want!r}")
    return errs


def check_transfer(mean: float, std: float, ref) -> list[str]:
    errs = []
    if _off(mean, ref[0], TRANSFER_TOL):
        errs.append(f"transfer mean {mean!r}, closed form {ref[0]!r}")
    if _off(std, ref[1], TRANSFER_TOL):
        errs.append(f"transfer std {std!r}, closed form {ref[1]!r}")
    return errs


def check_pulse(stdout: str, ref) -> list[str]:
    rows = csv_rows(stdout)
    if len(rows) != 1:
        return [f"pulse: expected one CSV row on stdout, got {len(rows)}"]
    return check_transfer(float(rows[0]["transfer_mean"]), float(rows[0]["transfer_std"]), ref)


def check_scale_factor(stdout: str, k_eff: float, tau: float, sep: float, big_t: float) -> list[str]:
    table = quantity_table(stdout)
    errs = []
    area = float(table["net_area_s"])
    if _off(area, 0.0, NET_AREA_REL_TOL * (tau + sep)):
        errs.append(f"scale-factor: net area {area!r} s, bound {NET_AREA_REL_TOL * (tau + sep)!r}")
    want = scale_closed_form(k_eff, tau, sep, big_t)
    got = float(table["scale_s2_per_m"])
    if _off_rel(got, want, SCALE_REL_TOL):
        errs.append(f"scale-factor: {got!r} s^2/m, closed form {want!r}")
    return errs


def check_fringes(stdout: str, fits: list[dict[str, str]], truth: dict) -> list[str]:
    """``truth`` holds the generating crossing (m/s^2) and scales (s^2/m)."""
    errs = []
    crossing = None
    for line in stdout.splitlines():
        if line.startswith("alpha_star_over_keff_m_s2,"):
            crossing = float(line.split(",", 1)[1])
    if crossing is None:
        errs.append("fringes: no common crossing printed")
    elif _off(crossing, truth["crossing_m_s2"], CROSSING_TOL_M_S2):
        errs.append(f"fringes: crossing {crossing!r} m/s^2, generated at {truth['crossing_m_s2']!r}")
    if len(fits) != len(truth["scales"]):
        return errs + [f"fringes: {len(fits)} fits for {len(truth['scales'])} scans"]
    for row, want in zip(fits, truth["scales"]):
        got = abs(float(row["scale_s2_per_m"]))
        if _off_rel(got, want, FRINGE_SCALE_REL_TOL):
            errs.append(f"fringes: {row['file']} scale {got!r}, generated {want!r}")
    return errs


def check_summary(summary: dict[str, str], config: dict) -> list[str]:
    """The properties of ``reproduce``'s summary.csv that hold whatever the
    seed: closed-form transfer and scale factors, calibrated tomography
    extremes, g within G_SIGMAS sigma_g, and the sign of each arm."""
    tim, cam = config["timing"], config["campaign"]
    k_eff = config["constants"]["k_eff_per_m"]
    tau, sep = tim["tau_bm_s"], tim["t_sep_s"]
    val = {k: float(v) for k, v in summary.items()}
    errs = check_transfer(val["transfer_mean"], val["transfer_std"],
                          transfer_closed_form(64.8e-6, 2500.0, 500.0))
    s1, s2 = val["scale_factor_long_T"], val["scale_factor_short_T"]
    want = k_eff * (tau + sep) * (cam["t1_s"] - cam["t2_s"])
    if _off_rel(s1 - s2, want, SCALE_REL_TOL):
        errs.append(f"summary: S1 - S2 = {s1 - s2!r}, k_eff (tau + t_sep)(T1 - T2) = {want!r}")
    for key, ref in zip(("tomography_min_db", "tomography_max_db"), TOMOGRAPHY_DB):
        if _off(val[key], ref, TOMOGRAPHY_TOL):
            errs.append(f"summary: {key} = {val[key]!r}, calibrated to {ref}")
    if _off(val["g_exp"], cam["g_true_m_per_s2"], G_SIGMAS * val["sigma_g"]):
        errs.append(f"summary: g = {val['g_exp']!r} is {G_SIGMAS} sigma_g = "
                    f"{G_SIGMAS * val['sigma_g']!r} or more from g_true {cam['g_true_m_per_s2']!r}")
    if not val["squeezed_metrological_db"] < 0.0 < val["coherent_metrological_db"]:
        errs.append(f"summary: squeezed arm {val['squeezed_metrological_db']!r} dB and coherent arm "
                    f"{val['coherent_metrological_db']!r} dB are not on either side of 0 dB")
    return errs


def check_manifest(manifest: dict, files: dict[str, bytes]) -> list[str]:
    """Every listed digest equals blake2b-64 of the file's bytes, and every
    file in ``files`` is listed."""
    listed = {o["path"]: o["blake2b16"] for o in manifest.get("outputs", [])}
    errs = [f"manifest: {name} not listed" for name in files if name not in listed]
    for name, digest in listed.items():
        if name not in files:
            errs.append(f"manifest: lists {name}, which is not there")
        elif blake2b64(files[name]) != digest:
            errs.append(f"manifest: digest of {name} is {digest}, file hashes to {blake2b64(files[name])}")
    if manifest.get("finished_utc") is None:
        errs.append("manifest: finished_utc is null")
    return errs


def check_identical(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Data files of two runs with one seed, as name -> digest."""
    errs = [f"{name}: missing on re-run" for name in first if name not in again]
    errs += [f"{name}: bytes differ from the first run with this seed"
             for name in first if name in again and again[name] != first[name]]
    return errs


def check_fock_evolution(r: float, n_plus: float, norm: float) -> list[str]:
    errs = []
    want = math.sinh(r) ** 2
    if _off(n_plus, want, FOCK_N_TOL):
        errs.append(f"fock r={r}: <N+> = {n_plus!r}, sinh^2 r = {want!r}")
    if _off(norm, 1.0, FOCK_NORM_TOL):
        errs.append(f"fock r={r}: norm {norm!r}")
    return errs


def check_marginal(marginal, r: float) -> list[str]:
    marginal = np.asarray(marginal, dtype=float)
    want = squeezed_vacuum_marginal(r, len(marginal) - 1)
    worst = float(np.max(np.abs(marginal - want)))  # NaN if any entry is
    if _off(worst, 0.0, MARGINAL_TOL):
        return [f"mode_transform r={r}: marginal off the squeezed vacuum by {worst:.3e}"]
    return []
