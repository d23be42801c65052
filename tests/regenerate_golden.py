"""The golden outputs: a fixed set of gravlab commands and what they write.

    PYTHONPATH=src python tests/regenerate_golden.py [DIR]

runs the command set and writes its golden files into DIR, which must be
empty or absent; with no DIR it rewrites tests/golden/, beside this
script. There is one subdirectory per group of commands. CSV outputs are stored
as text. A shot log is stored as its blake2b-64 digest, the manifest's
`blake2b16`, in `<log>.blake2b16`. Manifests are not stored, since their
timestamps differ between runs. `fringes` prints its crossing to stdout;
those lines are stored as `crossing.csv`.

tests/test_golden.py runs the same set and compares every stored file row
by row, to the byte except the values of PLATFORM_TOLERANT (below). A
change that moves an output on purpose reruns this script and says which
files changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import sys
import tempfile

from gravlab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

K_EFF = 1.61057e7  # the built-in constants.k_eff_per_m
ALPHA_STAR_OVER_KEFF = 9.8126  # where the three fringe scans cross
SCAN_SCALES = (-1.42, -0.767, -1.1)  # s^2/m, one scan each
SCAN_SEED = 17
SCAN_NOISE = 0.01  # standard deviation of p

# The files whose values move in their last digits with the machine: the fringe
# fit and the Magnus transfer run numpy's SIMD kernels and OpenBLAS, whose results
# differ by the vector width each picks. Over numpy's X86_V2, X86_V3 and X86_V4
# dispatch (NPY_DISABLE_CPU_FEATURES) and eight OPENBLAS_CORETYPE kernels they
# moved by at most 1.5e-12 relative, and no other file moved at all. The test
# compares these values to PLATFORM_RTOL and every other file to the byte.
PLATFORM_TOLERANT = ("fringes/crossing.csv", "fringes/fringes.csv", "pulse/transfer_blackman_constant.csv")
PLATFORM_RTOL = 1e-10


def write_scans(directory) -> list[str]:
    """Three fringe scans crossing at ALPHA_STAR_OVER_KEFF, 90 points over
    2.2 periods each, with Gaussian noise on p from random.Random(SCAN_SEED):
    the standard library's stream, so numpy's version does not move them."""
    rng = random.Random(SCAN_SEED)
    paths = []
    for k, scale in enumerate(SCAN_SCALES):
        span = 2.2 * 2.0 * math.pi / abs(scale)
        xs = [ALPHA_STAR_OVER_KEFF + span * (i / 89 - 0.5) for i in range(90)]
        rows = [
            f"{x * K_EFF!r},{0.5 + 0.49 * math.cos(scale * (x - ALPHA_STAR_OVER_KEFF)) + rng.gauss(0.0, SCAN_NOISE)!r}"
            for x in xs
        ]
        paths.append(os.path.join(directory, f"scan{k}.csv"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write("\n".join(["alpha_rad_per_s2,p", *rows]) + "\n")
    return paths


def gravlab(*argv) -> list[str]:
    """Run one command in this process; its stdout lines other than the `wrote` lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"gravlab {' '.join(map(str, argv))} exited {code}")
    return [line for line in out.getvalue().splitlines() if not line.startswith("wrote ")]


def run_commands(work) -> None:
    """The command set, each group's outputs in work/<group>; the inputs in work/inputs."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    built_in, analog = os.path.join(inputs, "built_in.yaml"), os.path.join(inputs, "analog.yaml")
    with open(built_in, "w", encoding="utf-8") as fh:
        fh.write("# the built-in config, whatever $GRAVLAB_CONFIG says\n")
    with open(analog, "w", encoding="utf-8") as fh:
        fh.write("noise:\n  projection_noise: false\n  atom_number_sigma: 150.0\n")

    def out(group):
        return ["--output-dir", os.path.join(work, group)]

    gravlab("reproduce", "--pairs", 300, "--seed", 5, "--config", built_in, *out("reproduce"))
    for group, config, seed in (("simulate", built_in, 11), ("analog", analog, 12)):
        gravlab("simulate", "--pairs", 200, "--seed", seed, "--config", config, *out(group))
        log = os.path.join(work, group, "shots.jsonl")
        gravlab("analyze", "--shots", log, "--config", config, *out(group))
        gravlab("allan", "--shots", log, "--config", config, *out(group))

    crossing = gravlab("fringes", *write_scans(inputs), "--config", built_in, *out("fringes"))
    with open(os.path.join(work, "fringes", "crossing.csv"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in crossing))

    gravlab("scale-factor", "--config", built_in, *out("scale-factor"), "--out", "long_T.csv")
    gravlab("scale-factor", "--T", 155e-6, "--config", built_in, *out("scale-factor"), "--out", "short_T.csv")
    gravlab("tomography", "--config", built_in, *out("tomography"), "--out", "squeezed.csv")
    gravlab("tomography", "--coherent", "--config", built_in, *out("tomography"), "--out", "coherent.csv")
    for shape in ("blackman", "square"):
        gravlab("pulse", "--shape", shape, "--config", built_in, *out("pulse"), "--out", f"{shape}.csv")
        for model in ("envelope", "constant"):
            transfer = ["--detuning-hz", 2500, "--detuning-sigma-hz", 500, "--model", model]
            gravlab("pulse", "--shape", shape, *transfer, "--config", built_in, *out("pulse"),
                    "--out", f"transfer_{shape}_{model}.csv")


def generate(directory) -> None:
    """Run the command set and write its golden files into `directory`."""
    with tempfile.TemporaryDirectory() as work:
        run_commands(work)
        for group in sorted(os.listdir(work)):
            if group == "inputs":
                continue
            os.makedirs(os.path.join(directory, group), exist_ok=True)
            for name in sorted(os.listdir(os.path.join(work, group))):
                source, target = os.path.join(work, group, name), os.path.join(directory, group, name)
                if name.endswith(".csv"):
                    shutil.copyfile(source, target)
                elif name.endswith(".jsonl"):
                    with open(source, "rb") as fh:
                        digest = hashlib.blake2b(fh.read(), digest_size=8).hexdigest()
                    with open(target + ".blake2b16", "w", encoding="utf-8") as fh:
                        fh.write(digest + "\n")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    if target == GOLDEN and os.path.isdir(target):
        shutil.rmtree(target)
    elif os.path.exists(target) and os.listdir(target):
        sys.exit(f"{target} is not empty")
    generate(target)
    print(f"wrote {target}")
