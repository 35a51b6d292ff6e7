"""In-memory span tracing around dipolelab's public calls.

``from .x import f`` binds ``f`` in the importing module, so each traced name
is patched in every module that looks it up; the FFTs are patched on
``numpy.fft``, through which every module calls them.  A span is
``[name, start, end, parent index, attrs]``; spans stay in memory and the
per-layer metrics are derived from them once the traced run ends.  Self time
is a span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)
FFT_NAMES = ("fftn", "ifftn", "fft", "ifft")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, args, kwargs, attrs=None):
        """fn(*args, **kwargs) inside a span; attrs(args, result) annotates it."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = self.clock()
            self._stack.pop()
        if attrs is not None:
            rec[ATTRS] = attrs(args, result)
        return result

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> list[tuple]:
        """Put every original back; returns the (module, attr, original) list."""
        restored = []
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
            restored.append((module, attr, original))
        return restored

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span, parenting the calls inside it."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._stack.pop()


def install(tracer: Tracer) -> None:
    """Patch every traced name; ``tracer.restore()`` undoes all of them."""
    from dipolelab import bounds, cli, cook, fields, hamiltonians, harness, propagate

    def plain(module, attr, name, attrs=None):
        tracer.patch(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    for attr in FFT_NAMES:
        plain(np.fft, attr, "spatial.fft", lambda a, r: a[0].size)
    for module in (fields, hamiltonians, cook):
        plain(module, "profile_value", "fields.profile")
    for module in (hamiltonians, propagate, bounds):
        plain(module, "potential_on_grid", "hamiltonians.potential")
        original = module.hamiltonian_apply_fn

        def build(spec, t, grid, _original=original):
            closure = tracer.call(f"hamiltonians.build.{spec.kind}", _original,
                                  (spec, t, grid), {})
            return tracer.wrap(f"hamiltonians.apply.{spec.kind}", closure)

        tracer.patch(module, "hamiltonian_apply_fn", build)
    plain(propagate, "hermiticity_defect", "hamiltonians.hermiticity")

    def evolve_attrs(args, traj):
        return (traj.method, traj.nsteps)

    plain(harness, "evolve", "propagate.evolve", evolve_attrs)
    plain(cook, "evolve", "propagate.evolve", evolve_attrs)

    def capture_ground(args, result):
        tracer.captured["ground"].append((args[0], args[1], result))

    plain(harness, "ground_state_imaginary_time", "propagate.ground", capture_ground)
    plain(harness, "dipole_node_trajectory", "cook.trajectory")
    plain(harness, "_bound_from_samples", "cook.bound")
    plain(cook, "cook_integrand", "cook.integrand")
    plain(harness, "write_snapshot", "spatial.snapshot",
          lambda a, r: os.path.getsize(a[0]))
    plain(harness, "run_gauge_check", "gauge.check")
    plain(harness, "velocity_to_length", "gauge.map")
    plain(harness, "length_to_velocity", "gauge.map")
    plain(bounds, "contraction_scan", "bounds.contraction")
    plain(bounds, "resolvent_apply", "bounds.resolvent")
    plain(bounds, "infinitesimal_bound_scan", "bounds.relative")
    plain(bounds, "graph_norm_constants", "bounds.graph")

    def capture_sweep(args, result):
        tracer.captured["sweep"].append(result)

    for module in (harness, cli):
        plain(module, "run_convergence_sweep", "harness.sweep", capture_sweep)
    plain(cli, "run_study", "harness.study")


# -- span arithmetic -------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [rec[END] - rec[START]
            - union_length(children.get(i, ()), rec[START], rec[END])
            for i, rec in enumerate(spans)]


def duration(rec) -> float:
    return rec[END] - rec[START]


def busy(spans, name: str) -> float:
    """Total time inside spans of this name, not counting nested repeats."""
    total = 0.0
    for rec in spans:
        if rec[NAME] != name:
            continue
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += duration(rec)
    return total


def layer_values(spans, captured, ground_residual: float) -> dict:
    """Per-layer values from one traced run's spans (see bench/README.md)."""
    named = defaultdict(list)
    root = []  # the root span (setup, study or probe) each span runs under
    for i, rec in enumerate(spans):
        named[rec[NAME]].append(i)
        root.append(i if rec[PARENT] < 0 else root[rec[PARENT]])
    selfs = self_times(spans)

    def count(name):
        return len(named[name])

    v = {}
    profiles = named["fields.profile"]
    v["fields.profile_calls"] = count("fields.profile")
    v["fields.profile_s"] = busy(spans, "fields.profile")
    v["fields.pulse_first_call_s"] = duration(spans[profiles[0]])

    # the probe's FFTs belong to the bounds layer and follow the seed
    ffts = [i for i in named["spatial.fft"] if spans[root[i]][NAME] != "probe"]
    v["spatial.fft_calls"] = len(ffts)
    v["spatial.fft_s"] = sum(duration(spans[i]) for i in ffts)
    v["spatial.fft_bytes_computed"] = sum(2 * 16 * spans[i][ATTRS] for i in ffts)
    v["spatial.snapshot_s"] = busy(spans, "spatial.snapshot")
    v["spatial.snapshot_bytes"] = sum(spans[i][ATTRS] for i in named["spatial.snapshot"])

    v["hamiltonians.apply_calls.full"] = count("hamiltonians.apply.full")
    v["hamiltonians.apply_s.full"] = busy(spans, "hamiltonians.apply.full")
    v["hamiltonians.potential_calls"] = count("hamiltonians.potential")
    v["hamiltonians.potential_s"] = busy(spans, "hamiltonians.potential")
    v["hamiltonians.hermiticity_s"] = busy(spans, "hamiltonians.hermiticity")

    evolves = {m: [i for i in named["propagate.evolve"] if spans[i][ATTRS][0] == m]
               for m in ("split", "krylov")}
    krylov = set(evolves["krylov"])
    steps = {m: sum(spans[i][ATTRS][1] for i in idx) for m, idx in evolves.items()}
    builds = sum(spans[i][PARENT] in krylov for i in named["hamiltonians.build.full"])
    applies = sum(spans[i][PARENT] in krylov for i in named["hamiltonians.apply.full"])
    v["propagate.split_steps"] = steps["split"]
    v["propagate.split_s"] = sum(duration(spans[i]) for i in evolves["split"])
    v["propagate.krylov_steps"] = steps["krylov"]
    v["propagate.krylov_s"] = sum(duration(spans[i]) for i in krylov)
    v["propagate.krylov_self_s"] = sum(selfs[i] for i in krylov)
    v["propagate.krylov_dim_mean"] = applies / builds
    v["propagate.krylov_retries"] = builds - steps["krylov"]
    v["propagate.krylov_accept_ratio"] = steps["krylov"] / builds
    v["propagate.ground_calls"] = count("propagate.ground")
    v["propagate.ground_s"] = busy(spans, "propagate.ground")
    v["propagate.ground_residual"] = ground_residual

    records = [r for sweep in captured["sweep"] for r in sweep.records]
    v["cook.trajectory_s"] = busy(spans, "cook.trajectory")
    v["cook.integrand_calls"] = count("cook.integrand")
    v["cook.integrand_s"] = busy(spans, "cook.integrand")
    v["cook.quad_self_err_max"] = max(abs(r.bound - r.bound_coarse) / r.bound
                                      for r in records if r.bound)
    v["cook.quad_flags"] = sum(bool(r.quad_flag) for r in records)

    v["gauge.check_s"] = busy(spans, "gauge.check")
    v["gauge.map_calls"] = count("gauge.map")
    v["gauge.map_s"] = busy(spans, "gauge.map")

    v["bounds.contraction_s"] = busy(spans, "bounds.contraction")
    v["bounds.resolvent_calls"] = count("bounds.resolvent")
    v["bounds.relative_s"] = busy(spans, "bounds.relative")
    v["bounds.graph_s"] = busy(spans, "bounds.graph")

    bound_s = sum(duration(spans[i]) for i in named["cook.bound"])
    v["harness.sweep_s"] = busy(spans, "harness.sweep")
    v["harness.lambda_s"] = (v["propagate.krylov_s"] + bound_s) / len(records)
    v["harness.io_s"] = sum(selfs[i] for i in named["harness.study"])
    return v
