#!/usr/bin/env python3
"""gravlab benchmark: the paper's pipeline, the stored-data commands and
the Fock layer, each output checked against an independent computation.

    python3 bench/run.py --workload {reproduce,commands,fock} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; gravlab is imported from ./src.
Every gravlab command runs as a cold subprocess, one at a time, timed
from here; the Fock layer runs in one child interpreter that times its
own calls. Each gravlab process gets one BLAS thread. A run prepares the
workload's inputs SETUP_REPEATS times (``setup_s`` is the median), then
repeats the workload's round for S seconds (``round_cpu_s`` is the
median round). Both are CPU seconds (user + system) of the processes
doing the work, which leave out the time the virtual CPU was taken away
by the host.

With --trace 1 the run prepares every workload, runs each round once
untraced and once with layer spans recorded (bench/trace_child.py for
cold commands, the Fock child for the Fock calls), repeats the named
workload's round the same way for S seconds, writes the spans to
.bench_out/spans-<workload>-seed<N>.jsonl and prints the per-layer
metrics. The last line of stdout is one JSON object; progress and failed
checks go to stderr. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI = ["-c", "import sys; from gravlab.cli import main; sys.exit(main())"]

LOG_PAIRS = 50_000
SETUP_REPEATS = 3
FRINGE_T_S = (455e-6, 305e-6, 155e-6)
FRINGE_POINTS = 90
FRINGE_PERIODS = 1.25  # of the slowest fringe, so every scan spans > 1 period
FOCK_R = (0.5, 1.0, 1.13, 1.5)
PULSE = {"tau_s": 64.8e-6, "detuning_hz": 2500.0, "sigma_hz": 500.0}
WORKLOADS = ("reproduce", "commands", "fock")

END_TO_END = {
    "setup_s": "s",
    "round_cpu_s": "s",
    "peak_rss_mb": "MB",
}
# the untraced figure of each command; measured where the command runs,
# so reported from the traced run, which replays every workload
COMMAND_FIGURES = {
    "reproduce_s": "s",
    "analyze_shots_per_s": "shots/s",
    "allan_shots_per_s": "shots/s",
    "fringes_s": "s",
    "scale_factor_s": "s",
    "pulse_s": "s",
    "fock_evolve_s": "s",
    "mode_transform_s": "s",
}
PER_LAYER = {
    "import.gravlab_cli_s": "s",
    "config.load_config_ms": "ms",
    "sensitivity.scale_factor_ms": "ms",
    "pulses.averaged_transfer_ms": "ms",
    "shots.run_campaign_us_per_shot": "us/shot",
    "shots.write_shot_log_us_per_shot": "us/shot",
    "shots.read_shot_log_us_per_shot": "us/shot",
    "shots.log_bytes_per_shot": "B/shot",
    "analysis.delta_p_us_per_shot": "us/shot",
    "analysis.metrological_squeezing_ms": "ms",
    "analysis.allan_deviation_ms": "ms",
    "analysis.fit_fringe_ms": "ms",
    "analysis.fringe_intersection_ms": "ms",
    "squeezing.build_hamiltonians_ms": "ms",
    "squeezing.evolve_ms": "ms",
    "squeezing.mode_transform_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "shots.shots_generated": "count",
    "shots.shots_read": "count",
    "analysis.bootstrap_resamples": "count",
    "pulses.ode_solves": "count",
    "squeezing.evolutions": "count",
    "squeezing.state_dim": "count",
    "squeezing.hamiltonian_nnz": "count",
    "src_lines": "lines",
    **COMMAND_FIGURES,
}

MAX_WORK = ("state_dim", "hamiltonian_nnz")  # sizes: the largest, not the sum
UNWRAPPED = ("import.gravlab_cli", "cli.main")  # spans that wrap no call, so cost nothing


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def own_durations(spans, span_cost):
    """Each span's duration less the measured cost of the wrapped calls
    nested in it, so a layer is not charged for the tracing of the layers
    it calls. Spans come in start order, so a parent precedes its children."""
    nested = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i]["parent"]
        if parent >= 0:
            nested[parent] += nested[i] + (spans[i]["name"] not in UNWRAPPED)
    return [s["end"] - s["start"] - span_cost * n for s, n in zip(spans, nested)]


def fringe_scans(k_eff, tau, sep, g0, center, offset, amp):
    """Three noiseless scans p = offset - amp cos(S (alpha/k_eff - g0)) at the
    scales of FRINGE_T_S, on one grid of FRINGE_POINTS centred on ``center``
    (m/s^2). One offset and amplitude for all, so every fringe has its dark
    extremum at the common crossing g0. Returns ({file name: CSV text},
    {"crossing_m_s2": g0, "scales": [S, ...]})."""
    scales = [checks.scale_closed_form(k_eff, tau, sep, t) for t in FRINGE_T_S]
    span = FRINGE_PERIODS * 2.0 * math.pi / min(scales)
    xs = [center + span * (i / (FRINGE_POINTS - 1) - 0.5) for i in range(FRINGE_POINTS)]
    scans = {}
    for t, s in zip(FRINGE_T_S, scales):
        rows = [f"{x * k_eff!r},{offset - amp * math.cos(s * (x - g0))!r}" for x in xs]
        scans[f"fringe_T{round(t * 1e6)}us.csv"] = "\n".join(["alpha_rad_per_s2,p", *rows]) + "\n"
    return scans, {"crossing_m_s2": g0, "scales": scales}


class Proc:
    def __init__(self, code, wall, cpu, stdout, stderr, rss_mb):
        self.code, self.wall, self.cpu = code, wall, cpu
        self.stdout, self.stderr, self.rss_mb = stdout, stderr, rss_mb


class Bench:
    def __init__(self, workload, seed, trace, workdir):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = workdir
        self.rng = random.Random(seed)
        # one BLAS thread: a process's CPU time is then its work, not a
        # helper thread spin-waiting, and one thread computes at a time
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("GRAVLAB_CONFIG", None)
        self.attempted = self.failed = 0
        self.correct = True
        self.samples = defaultdict(list)   # round_cpu_s and each command figure -> values
        self.child_cpu = 0.0               # CPU seconds of every gravlab process so far
        self.rss_mb = []                   # peak RSS of each measured gravlab process
        self.plain_walls = defaultdict(list)  # command -> untraced wall times
        self.traces = defaultdict(list)    # command -> [(traced wall, spans, span cost)]
        self.fock = None
        self.nproc = 0
        self.reproduce_seed = self.rng.randrange(1, 2**31)
        self.log_seed = self.rng.randrange(1, 2**31)
        g0 = 9.8126 + self.rng.uniform(-2e-4, 2e-4)
        self.fringe_draws = (g0, g0 + self.rng.uniform(-0.1, 0.1),
                             self.rng.uniform(0.45, 0.55), self.rng.uniform(0.3, 0.45))
        self.first_reproduce = self.first_log = None

    # -- processes ---------------------------------------------------------

    def spawn(self, argv) -> Proc:
        """Run one Python child to its end; wall time, CPU time and peak
        RSS from here."""
        self.nproc += 1
        out, err = self.dir / f"p{self.nproc}.out", self.dir / f"p{self.nproc}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe,
                                     env=self.env, cwd=self.dir)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        self.child_cpu += cpu
        proc = Proc(child.returncode, wall, cpu, out.read_text(), err.read_text(), usage.ru_maxrss / 1024.0)
        out.unlink()
        err.unlink()
        return proc

    def verdict(self, label, code, errs, stderr=""):
        """Count one operation: failed on a non-zero exit or a failed check."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            log(f"FAILED {label}: exit {code}: {stderr.strip()[-300:]}")
        elif errs:
            self.failed += 1
            self.correct = False
            for e in errs:
                log(f"WRONG {label}: {e}")

    def gravlab(self, command, argv, check, prepare=None):
        """One cold command, checked; in trace mode also a traced replay.
        Returns the untraced (wall, CPU) seconds, or None when it failed."""
        times = None
        for traced in ((False, True) if self.trace else (False,)):
            if prepare:
                prepare()
            spans_path = self.dir / "spans.json"
            if traced:
                proc = self.spawn([str(BENCH / "trace_child.py"), str(spans_path), command, *argv])
            else:
                proc = self.spawn([*CLI, command, *argv])
            errs = self.run_check(check, proc) if proc.code == 0 else []
            self.verdict(f"{command}{' (traced)' if traced else ''}", proc.code, errs, proc.stderr)
            if proc.code != 0 or errs:
                continue
            if traced:
                trace = json.loads(spans_path.read_text())
                self.traces[command].append((proc.wall, trace["spans"], trace["span_cost_s"]))
                spans_path.unlink()
            else:
                self.plain_walls[command].append(proc.wall)
                self.rss_mb.append(proc.rss_mb)
                times = proc.wall, proc.cpu
        return times

    @staticmethod
    def run_check(check, proc):
        """A check's problems; output it cannot read is one of them."""
        try:
            return check(proc)
        except (OSError, LookupError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]

    # -- set-up ------------------------------------------------------------

    def setup(self, workload):
        """Prepare a workload's inputs SETUP_REPEATS times from scratch;
        returns the CPU seconds of each preparation, this process's and
        its children's."""
        times = []
        for _ in range(SETUP_REPEATS):
            self.stop_fock()  # the previous Fock child's exit is not set-up
            t0, c0 = time.process_time(), self.child_cpu
            getattr(self, f"setup_{workload}")()
            times.append(time.process_time() - t0 + self.child_cpu - c0)
        if workload == "commands":
            self.prepare_references()
        return times

    def setup_reproduce(self):
        """The first start of gravlab: a cold ``gravlab --version``, which
        imports every layer."""
        proc = self.spawn([*CLI, "--version"])
        errs = [] if proc.stdout.startswith("gravlab ") else [f"--version printed {proc.stdout!r}"]
        self.verdict("--version (set-up)", proc.code, errs, proc.stderr)

    def setup_commands(self):
        """The 100k-shot log from ``gravlab simulate`` and the fringe scans.
        Every repetition must write the same log bytes."""
        shutil.rmtree(self.dir / "log", ignore_errors=True)
        proc = self.spawn([*CLI, "simulate", "--pairs", str(LOG_PAIRS), "--seed", str(self.log_seed),
                           "--output-dir", "log", "--out", "shots.jsonl"])
        if proc.code != 0:
            self.verdict("simulate (set-up)", proc.code, [], proc.stderr)
            raise SystemExit(f"set-up failed: gravlab simulate exited {proc.code}")
        manifest = json.loads((self.dir / "log" / "shots.jsonl.manifest.json").read_text())
        self.config = manifest["config"]
        i = checks.config_inputs(self.config)
        scans, self.fringe_truth = fringe_scans(i["k_eff"], i["tau"], i["sep"], *self.fringe_draws)
        for name, text in scans.items():
            (self.dir / name).write_text(text)
        self.fringe_files = list(scans)
        files = {"shots.jsonl": (self.dir / "log" / "shots.jsonl").read_bytes()}
        digests = {k: checks.blake2b64(v) for k, v in files.items()}
        self.first_log = self.first_log or digests
        errs = checks.check_manifest(manifest, files) + checks.check_identical(self.first_log, digests)
        self.verdict("simulate (set-up)", proc.code, errs)

    def setup_fock(self):
        """A fresh Fock child: imports gravlab and prepares its input state."""
        self.start_fock()

    def prepare_references(self):
        """Reference values the command checks compare against; not timed."""
        self.inputs = checks.config_inputs(self.config)
        i = self.inputs
        self.log_ref = checks.log_reference(self.dir / "log" / "shots.jsonl", i["contrast"], *i["scales"], i["k_eff"])
        self.allan_ref = checks.allan_reference(self.log_ref["delta_p"], self.log_ref["tau0_s"])
        self.pulse_ref = checks.transfer_closed_form(PULSE["tau_s"], PULSE["detuning_hz"], PULSE["sigma_hz"])

    # -- the Fock child ----------------------------------------------------

    def start_fock(self):
        self.fock = subprocess.Popen([sys.executable, str(BENCH / "fock_child.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=self.env, cwd=self.dir, text=True)
        word, _, cpu = self.fock.stdout.readline().partition(" ")
        if word != "ready":
            raise SystemExit("the Fock child did not start")
        self.child_cpu += float(cpu)

    def stop_fock(self):
        if self.fock is None:
            return None
        self.fock.stdin.close()
        self.fock.stdout.close()
        _, _, usage = os.wait4(self.fock.pid, 0)
        self.fock.returncode = 0
        self.fock = None
        return usage.ru_maxrss / 1024.0

    def fock_call(self, order, traced):
        self.fock.stdin.write(json.dumps({"order": order, "trace": traced}) + "\n")
        self.fock.stdin.flush()
        line = self.fock.stdout.readline()
        if not line:
            raise SystemExit("the Fock child exited")
        return json.loads(line)

    # -- rounds --------------------------------------------------------------

    def round_reproduce(self):
        out = self.dir / "rep"
        times = self.gravlab("reproduce", ["--output-dir", "rep", "--seed", str(self.reproduce_seed)],
                             lambda p: self.check_reproduce(out),
                             prepare=lambda: shutil.rmtree(out, ignore_errors=True))
        if times is None:
            return None
        self.samples["reproduce_s"].append(times[0])
        return times[1]

    def check_reproduce(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        errs = checks.check_manifest(manifest, files)
        errs += checks.check_summary(checks.quantity_table(files["summary.csv"].decode()), manifest["config"])
        i = checks.config_inputs(manifest["config"])
        for arm in ("squeezed", "coherent"):
            ref = checks.log_reference(out / f"shots_{arm}.jsonl", i["contrast"], *i["scales"], i["k_eff"])
            table = checks.quantity_table(files[f"analysis_{arm}.csv"].decode())
            errs += checks.check_recomputed(table, ref, f"analysis_{arm}.csv")
        digests = {k: checks.blake2b64(v) for k, v in files.items()}
        self.first_reproduce = self.first_reproduce or digests
        return errs + checks.check_identical(self.first_reproduce, digests)

    def round_commands(self):
        shots = self.log_ref["n_shots"]
        out = self.dir / "out"
        log_args = ["--shots", "log/shots.jsonl", "--output-dir", "out"]

        def fresh():  # so a check never reads a file an earlier command left
            shutil.rmtree(out, ignore_errors=True)

        runs = [
            self.gravlab("analyze", log_args, lambda p: checks.check_recomputed(
                checks.quantity_table((out / "analysis.csv").read_text()), self.log_ref), prepare=fresh),
            self.gravlab("allan", log_args, lambda p: checks.check_allan(
                checks.csv_rows((out / "allan.csv").read_text()), self.allan_ref), prepare=fresh),
            self.gravlab("fringes", ["--output-dir", "out", *self.fringe_files], lambda p: checks.check_fringes(
                p.stdout, checks.csv_rows((out / "fringes.csv").read_text()), self.fringe_truth), prepare=fresh),
            self.gravlab("scale-factor", [], lambda p: checks.check_scale_factor(
                p.stdout, self.inputs["k_eff"], self.inputs["tau"], self.inputs["sep"],
                self.config["timing"]["big_t_s"])),
            self.gravlab("pulse", ["--tau-s", repr(PULSE["tau_s"]), "--detuning-hz", repr(PULSE["detuning_hz"]),
                                   "--detuning-sigma-hz", repr(PULSE["sigma_hz"])],
                         lambda p: checks.check_pulse(p.stdout, self.pulse_ref)),
        ]
        figures = (("analyze_shots_per_s", lambda w: shots / w), ("allan_shots_per_s", lambda w: shots / w),
                   ("fringes_s", None), ("scale_factor_s", None), ("pulse_s", None))
        for (name, convert), times in zip(figures, runs):
            if times is not None:
                self.samples[name].append(convert(times[0]) if convert else times[0])
        return None if None in runs else sum(cpu for _, cpu in runs)

    def round_fock(self):
        """Build plus four evolutions at n_max = 100 in a seeded order of r,
        then mode_transform at n_max = 40; in trace mode once more traced.
        Returns the child's CPU seconds in those calls."""
        order = list(FOCK_R)
        self.rng.shuffle(order)
        cpu = None
        for traced in ((False, True) if self.trace else (False,)):
            reply = self.fock_call(order, traced)
            ok = True
            for ev in reply["evolutions"]:
                errs = checks.check_fock_evolution(ev["r"], ev["n_plus"], ev["norm"])
                self.verdict(f"fock evolve r={ev['r']}{' (traced)' if traced else ''}", 0, errs)
                ok = ok and not errs
            errs = checks.check_marginal(reply["marginal"], reply["transform_r"])
            self.verdict(f"fock mode_transform{' (traced)' if traced else ''}", 0, errs)
            evolve_s = reply["build_s"] + sum(ev["seconds"] for ev in reply["evolutions"])
            if traced:
                self.traces["fock"].append((None, reply["spans"], reply["span_cost_s"]))
                continue
            if ok:
                self.samples["fock_evolve_s"].append(evolve_s)
            if not errs:
                self.samples["mode_transform_s"].append(reply["transform_s"])
            if ok and not errs:
                cpu = reply["cpu_s"]
        return cpu

    # -- results -------------------------------------------------------------

    def end_to_end(self, setup_times, fock_rss_mb):
        metrics = {"setup_s": statistics.median(setup_times)}
        if self.samples["round_cpu_s"]:
            metrics["round_cpu_s"] = statistics.median(self.samples["round_cpu_s"])
        rss = self.rss_mb + ([fock_rss_mb] if fock_rss_mb is not None else [])
        if rss:
            metrics["peak_rss_mb"] = max(rss)
        return metrics

    def per_layer(self):
        totals = defaultdict(float)   # span name -> seconds
        calls = defaultdict(int)
        work = defaultdict(float)     # span name + work key -> summed count
        last_work = {}                # command -> its work counts, for one pass
        parts = defaultdict(list)     # command -> [(traced wall, import, top-level spans, overhead)]
        overheads = defaultdict(list)  # command -> tracing cost of each traced pass
        for command, runs in self.traces.items():
            for wall, spans, span_cost in runs:
                counts = defaultdict(int)
                root = next((i for i, s in enumerate(spans) if s["name"] == "cli.main"), None)
                top = imp = 0.0
                overhead = span_cost * sum(s["name"] not in UNWRAPPED for s in spans)
                overheads[command].append(overhead)
                for s, dur in zip(spans, own_durations(spans, span_cost)):
                    totals[s["name"]] += dur
                    calls[s["name"]] += 1
                    if s["name"] == "import.gravlab_cli":
                        imp = dur
                    if root is not None and s["parent"] == root:
                        top += dur
                    for key, value in (s["work"] or {}).items():
                        work[(s["name"], key)] += value
                        counts[key] = max(counts[key], value) if key in MAX_WORK else counts[key] + value
                    if s["name"] == "scipy.solve_ivp":
                        counts["ode_solves"] += 1
                last_work[command] = counts
                if wall is not None:
                    parts[command].append((wall, imp, top, overhead))

        def per_call_ms(name):
            return 1e3 * totals[name] / calls[name] if calls[name] else 0.0

        def per_shot_us(name, key):
            return 1e6 * totals[name] / work[(name, key)] if work[(name, key)] else 0.0

        def one_pass(key):
            values = [c.get(key, 0) for c in last_work.values()]
            return max(values) if key in MAX_WORK else sum(values)

        log_bytes = (self.dir / "log" / "shots.jsonl").stat().st_size / self.log_ref["n_shots"]
        metrics = {
            "import.gravlab_cli_s": statistics.median(part[1] for p in parts.values() for part in p),
            "config.load_config_ms": per_call_ms("config.load_config"),
            "sensitivity.scale_factor_ms": per_call_ms("sensitivity.scale_factor"),
            "pulses.averaged_transfer_ms": per_call_ms("pulses.averaged_transfer"),
            "shots.run_campaign_us_per_shot": per_shot_us("shots.run_campaign", "shots_generated"),
            "shots.write_shot_log_us_per_shot": per_shot_us("shots.write_shot_log", "shots"),
            "shots.read_shot_log_us_per_shot": per_shot_us("shots.read_shot_log", "shots_read"),
            "shots.log_bytes_per_shot": log_bytes,
            "analysis.delta_p_us_per_shot": per_shot_us("analysis.delta_p", "shots"),
            "analysis.metrological_squeezing_ms": per_call_ms("analysis.metrological_squeezing"),
            "analysis.allan_deviation_ms": per_call_ms("analysis.allan_deviation"),
            "analysis.fit_fringe_ms": per_call_ms("analysis.fit_fringe"),
            "analysis.fringe_intersection_ms": per_call_ms("analysis.fringe_intersection"),
            "squeezing.build_hamiltonians_ms": per_call_ms("squeezing.build_hamiltonians"),
            "squeezing.evolve_ms": per_call_ms("squeezing.evolve"),
            "squeezing.mode_transform_ms": per_call_ms("squeezing.mode_transform"),
            "cli.self_s": sum(statistics.median(w - imp - top - over for w, imp, top, over in p)
                              for p in parts.values()),
            "trace.overhead_s": sum(statistics.median(o) for o in overheads.values()),
            "shots.shots_generated": one_pass("shots_generated"),
            "shots.shots_read": one_pass("shots_read"),
            "analysis.bootstrap_resamples": one_pass("bootstrap_resamples"),
            "pulses.ode_solves": one_pass("ode_solves"),
            "squeezing.evolutions": one_pass("evolutions"),
            "squeezing.state_dim": one_pass("state_dim"),
            "squeezing.hamiltonian_nnz": one_pass("hamiltonian_nnz"),
            "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        }
        metrics.update({name: statistics.median(self.samples[name])
                        for name in COMMAND_FIGURES if self.samples[name]})
        self.report_decomposition(parts)
        return metrics

    def report_decomposition(self, parts):
        """Per cold command, medians over its traced runs: import + layer
        spans + cli self + tracing overhead = traced wall. The overhead is
        the measured cost of one wrapped call times the calls wrapped; the
        last column, traced minus untraced wall, should match it to within
        the run-to-run drift of one command."""
        log(f"{'command':<13}{'untraced_s':>11}{'traced_s':>10}{'import_s':>10}"
            f"{'spans_s':>9}{'cli_self_s':>11}{'overhead_s':>11}{'gap_s':>9}")
        for command, p in parts.items():
            if not self.plain_walls[command]:
                continue
            plain = statistics.median(self.plain_walls[command])
            traced = statistics.median(part[0] for part in p)
            imp, top, over = (statistics.median(part[k] for part in p) for k in (1, 2, 3))
            own = statistics.median(w - i - t - o for w, i, t, o in p)
            log(f"{command:<13}{plain:>11.4f}{traced:>10.4f}{imp:>10.4f}"
                f"{top:>9.4f}{own:>11.4f}{over:>11.4f}{traced - plain:>9.4f}")

    def write_spans(self):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for runs in self.traces.values():
                for _, spans, _ in runs:
                    for s in spans:
                        fh.write(json.dumps(s) + "\n")
        log(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gravlab" / "cli.py").is_file():
        log(f"no gravlab source at {SRC}; run from the root of a gravlab checkout")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    bench = Bench(args.workload, args.seed, bool(args.trace), workdir)
    home = getattr(bench, f"round_{args.workload}")
    try:
        if args.trace:
            # every workload once, untraced and traced, then the home round
            for name in WORKLOADS:
                getattr(bench, f"setup_{name}")()
            bench.prepare_references()
            for name in WORKLOADS:
                if name != args.workload:
                    getattr(bench, f"round_{name}")()
        else:
            setup_times = bench.setup(args.workload)
        t0 = time.perf_counter()
        while True:
            cpu = home()
            if cpu is not None:
                bench.samples["round_cpu_s"].append(cpu)
            if time.perf_counter() - t0 >= args.seconds:
                break
        fock_rss = bench.stop_fock()
        if args.trace:
            metrics, units = bench.per_layer(), PER_LAYER
            bench.write_spans()
        else:
            metrics, units = bench.end_to_end(setup_times, fock_rss), END_TO_END
    finally:
        bench.stop_fock()
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m for m in units if m not in metrics]
    if missing:
        log(f"no measurement for {', '.join(missing)}: every operation behind it failed")
        return 1
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
