"""Child interpreter of the ``fock`` workload.

    python3 bench/fock_child.py

Imports gravlab and prepares the r = 1.13 two-mode squeezed vacuum at
n_max = 40 (the input of ``mode_transform``), then prints ``ready`` and
its CPU seconds so far. Each line on stdin is a JSON request
``{"order": [r, ...], "trace": bool}``; the reply is one JSON line with
the wall time of each call, the CPU time of all of them, the numbers the
parent checks, and (when traced) the spans and the cost of one wrapped
call. The checked numbers are computed here with numpy from the returned
states, not by gravlab. The process exits at end of input.
"""

import json
import sys
import time

import numpy as np

from gravlab import squeezing as sq
from tracer import Tracer, span_cost

N_MAX = 100
TRANSFORM_N_MAX = 40
TRANSFORM_R = 1.13
CALLS = ("build_hamiltonians", "evolve", "mode_transform")


def _first_mode(state, dim_single):
    return (np.abs(state.reshape(dim_single, dim_single)) ** 2).sum(axis=1)


def main():
    params = sq.HamiltonianParams()
    space = sq.FockSpace(n_max=N_MAX)
    vacuum = sq.vacuum_state(space)
    small = sq.FockSpace(n_max=TRANSFORM_N_MAX)
    chain = sq.build_hamiltonians(small, params)
    transform_input = sq.evolve(chain.two_mode, sq.vacuum_state(small), TRANSFORM_R)
    plain = {name: getattr(sq, name) for name in CALLS}
    print(f"ready {time.process_time()!r}", flush=True)

    clock, cpu_clock = time.perf_counter, time.process_time
    for line in sys.stdin:
        request = json.loads(line)
        tracer = Tracer() if request["trace"] else None
        call = {n: tracer.wrap(f"squeezing.{n}", f) for n, f in plain.items()} if tracer else plain

        cpu_s = 0.0
        t0, c0 = clock(), cpu_clock()
        chain = call["build_hamiltonians"](space, params)
        build_s, cpu_s = clock() - t0, cpu_s + cpu_clock() - c0
        evolutions = []
        for r in request["order"]:
            t0, c0 = clock(), cpu_clock()
            state = call["evolve"](chain.two_mode, vacuum, r)
            seconds, cpu_s = clock() - t0, cpu_s + cpu_clock() - c0
            first = _first_mode(state, space.dim_single)
            evolutions.append({
                "r": r,
                "seconds": seconds,
                "n_plus": float(first @ np.arange(space.dim_single)),
                "norm": float(np.sqrt(first.sum())),
            })
        t0, c0 = clock(), cpu_clock()
        out = call["mode_transform"](transform_input, small)
        transform_s, cpu_s = clock() - t0, cpu_s + cpu_clock() - c0

        reply = {
            "build_s": build_s,
            "evolutions": evolutions,
            "transform_s": transform_s,
            "cpu_s": cpu_s,
            "transform_r": TRANSFORM_R,
            "marginal": _first_mode(out, small.dim_single).tolist(),
            "spans": tracer.records("fock") if tracer else [],
            "span_cost_s": span_cost() if tracer else 0.0,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
