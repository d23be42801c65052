"""Span recording at gravlab's layer boundaries, from outside the program.

A span is (name, start, end, parent, work): ``parent`` is the index of the
enclosing span in the same process (-1 for a root) and ``work`` holds the
counts the call did, such as shots generated or the state dimension.
Spans stay in memory until the process hands them over.

``install`` wraps every reference that one gravlab module holds to a
public function of another layer, so a call counts when it crosses a
layer boundary (cli -> analysis, shots -> sensitivity), not when a layer
calls itself. ``span_cost`` measures what one wrapped call costs, so the
tracing overhead can be counted and taken out of the spans around it.
This module imports only the standard library, so loading
it does not move gravlab's import time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("config", "sensitivity", "pulses", "shots", "analysis", "squeezing")


def _work(name, signature, args, kwargs, result):
    if name == "shots.run_campaign":
        return {"shots_generated": len(result)}
    if name == "shots.read_shot_log":
        return {"shots_read": len(result)}
    if name in ("shots.write_shot_log", "analysis.delta_p"):
        return {"shots": len(args[0])}
    if name == "analysis.metrological_squeezing":
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"bootstrap_resamples": bound.arguments["n_bootstrap"]}
    if name == "squeezing.evolve":
        hamiltonian, state = args[0], args[1]
        return {"evolutions": 1, "state_dim": len(state),
                "hamiltonian_nnz": int(getattr(hamiltonian, "nnz", hamiltonian.size))}
    if name == "squeezing.build_hamiltonians":
        return {"state_dim": result.two_mode.shape[0], "hamiltonian_nnz": int(result.two_mode.nnz)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def add(self, name, start, end, parent=-1):
        self.spans.append([name, start, end, parent, None])
        return len(self.spans) - 1

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = _work(name, signature, args, kwargs, result)
            return result

        return traced

    def span(self, name):
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer.add(name, time.perf_counter(), 0.0, tracer._stack[-1])
                tracer._stack.append(self.index)

            def __exit__(self, *exc):
                tracer._stack.pop()
                tracer.spans[self.index][2] = time.perf_counter()

        return _Span()

    def install(self):
        """Wrap cross-layer references in every loaded gravlab module, and
        scipy's ODE solver where the pulses layer calls it (counted as
        ``scipy.solve_ivp``)."""
        modules = {n: sys.modules[f"gravlab.{n}"] for n in LAYERS + ("cli",)}
        for layer in LAYERS:
            home = modules[layer]
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for name, other in modules.items():
                    if name == layer:
                        continue
                    for ref, obj in list(vars(other).items()):
                        if obj is fn:
                            setattr(other, ref, wrapper)
        pulses = modules["pulses"]
        pulses.solve_ivp = self.wrap("scipy.solve_ivp", pulses.solve_ivp)

    def records(self, op):
        return [{"op": op, "name": n, "start": s, "end": e, "parent": p, "work": w}
                for n, s, e, p, w in self.spans]


def span_cost(calls=4000, batches=5):
    """Seconds one wrapped call adds to the span around it: a wrapped
    no-op against a bare one, median of ``batches``. The no-op's name
    matches no branch of ``_work``, as for most spans."""

    def noop(*args):
        return None

    wrapped = Tracer().wrap("trace.noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(calls):
            noop(1)
        t1 = clock()
        for _ in range(calls):
            wrapped(1)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(sorted(costs)[batches // 2], 0.0)
