"""Spans around morphosim's public functions, recorded from outside `src/`.

`install(tracer)` replaces the module-level names that callers go through
with wrappers that open one span per call.  Spans nest (the solver is
single threaded), stay in memory, and are written out when the run ends.
`layer_metrics` turns the spans of one run into per-layer self times and
exact counts.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of every span below a root plus the root's
own self time (the untraced remainder) add up to the root's duration.
"""

import functools
import json
import os
import time


class Tracer:
    """In-memory span recorder.  Each span is
    ``[name, start, end, parent_index, run_id]``; the parent index is -1 for
    a root span."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self.counts = {}

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def caller(self):
        """Name of the span enclosing the innermost open one."""
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 \
            else None

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def _wrap(tracer, fn, span, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            tracer.open("trace.bookkeeping")
            try:
                after(tracer, args, result)
            finally:
                tracer.close()
        return result
    return traced


def patch(tracer, owner, attr, span, after=None):
    # getattr raises if a refactor renamed the target, so a stale tracer
    # fails loudly instead of silently reporting zero calls
    setattr(owner, attr, _wrap(tracer, getattr(owner, attr), span, after))


class _TracedFactor:
    """A SuperLU factor whose `solve` opens a `fem.tri_solve` span."""

    def __init__(self, tracer, lu):
        self._lu = lu
        self.solve = _wrap(tracer, lu.solve, "fem.tri_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgView:
    """What `fem` sees as `scipy.sparse.linalg`: the real module, except
    that `splu` is traced and returns a traced factor.  Other users of
    scipy in the process are left alone."""

    def __init__(self, tracer, module):
        self._module = module
        splu = _wrap(tracer, module.splu, "fem.factorize", _record_fill)
        self.splu = lambda *a, **k: _TracedFactor(tracer, splu(*a, **k))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _record_fill(tracer, args, lu):
    tracer.count("fem.factor_nnz", int(lu.L.nnz + lu.U.nnz))


def _record_sweeps(tracer, args, solution):
    tracer.count("elasticity.sweeps", solution.iterations)
    if solution.iterations == 0:
        tracer.count("elasticity.zero_sweep_solves")
    if solution.method == "newton":
        tracer.count("elasticity.newton_sweeps", solution.iterations)


def _record_energy(tracer, args, value):
    # hooks run inside a bookkeeping span opened by the energy's caller
    if tracer.caller() == "elasticity.solve_newton":
        tracer.count("elasticity.line_search.evals")


def _record_hessian(tracer, args, H):
    tracer.count("materials.hessian.qp", int(H.size // 16))


def _record_outputs(tracer, args, paths):
    tracer.count("coupled.output_files", len(paths))
    tracer.count("coupled.output_bytes", sum(os.path.getsize(p)
                                             for p in paths))


def install(tracer):
    """Wrap morphosim's public functions so that every call records a span.

    Must run after `morphosim` is imported and before the workload builds
    its inputs.
    """
    from morphosim import (benchmarks, coupled, elasticity, fem, growth,
                           materials, scenario)

    patch(tracer, scenario, "load_scenario", "scenario.load")
    for module in (scenario, benchmarks):
        patch(tracer, module, "rectangle_mesh", "mesh.build")

    patch(tracer, coupled, "run_coupled", "coupled.run")
    patch(tracer, coupled, "write_outputs", "coupled.write_outputs",
           _record_outputs)
    patch(tracer, coupled, "solve_equilibrium", "elasticity.solve_equilibrium")
    patch(tracer, coupled, "stress_field", "elasticity.stress_field")
    patch(tracer, coupled, "solve_nutrient", "nutrient.solve")

    for attr in ("solve_fixed_point", "solve_newton"):
        patch(tracer, elasticity, attr, "elasticity." + attr, _record_sweeps)
    patch(tracer, elasticity, "lift_dirichlet", "elasticity.lift")

    patch(tracer, fem, "assemble_vector_operator", "fem.assemble_vector")
    patch(tracer, fem, "assemble_scalar_operator", "fem.assemble_scalar")
    for attr in ("interpolate_gradient", "nodal_from_cells",
                 "growth_at_quadrature"):
        patch(tracer, fem, attr, "fem." + attr)
    fem.spla = _LinalgView(tracer, fem.spla)

    patch(tracer, growth, "rk4_step", "growth.rk4_step")

    energy = materials.PolarWellEnergy
    patch(tracer, energy, "evaluate", "materials.energy", _record_energy)
    patch(tracer, energy, "first_derivative", "materials.stress")
    patch(tracer, energy, "second_derivative", "materials.hessian",
           _record_hessian)
    for law in materials.GrowthLaw.__subclasses__():
        if "evaluate" in vars(law):
            patch(tracer, law, "evaluate", "materials.growth_law")


# span name -> per-layer self-time metric
SELF_TIME = {
    "scenario.load": "scenario.load_s",
    "mesh.build": "mesh.build_s",
    "mesh.geometry": "mesh.build_s",
    "coupled.run": "coupled.self_s",
    "coupled.write_outputs": "coupled.output_s",
    "elasticity.solve_equilibrium": "elasticity.self_s",
    "elasticity.solve_fixed_point": "elasticity.self_s",
    "elasticity.solve_newton": "elasticity.self_s",
    "elasticity.lift": "elasticity.lift_s",
    "elasticity.stress_field": "elasticity.stress_field_s",
    "nutrient.solve": "nutrient.self_s",
    "fem.assemble_vector": "fem.assemble_vector_s",
    "fem.assemble_scalar": "fem.assemble_scalar_s",
    "fem.factorize": "fem.factorize_s",
    "fem.tri_solve": "fem.tri_solve_s",
    "fem.interpolate_gradient": "fem.gradient_transfer_s",
    "fem.nodal_from_cells": "fem.gradient_transfer_s",
    "fem.growth_at_quadrature": "fem.gradient_transfer_s",
    "growth.rk4_step": "growth.rk4.self_s",
    "materials.energy": "materials.energy_s",
    "materials.stress": "materials.stress_s",
    "materials.hessian": "materials.hessian_s",
    "materials.growth_law": "materials.growth_law_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}

# per-layer call counts: metric -> span name
CALLS = {
    "elasticity.lift.calls": "elasticity.lift",
    "materials.hessian.calls": "materials.hessian",
    "fem.assemble_vector.calls": "fem.assemble_vector",
    "fem.factorize.calls": "fem.factorize",
    "fem.tri_solve.calls": "fem.tri_solve",
    "nutrient.solves": "nutrient.solve",
    "growth.rk4.steps": "growth.rk4_step",
}

# counters kept by the wrappers and reported as they are
COUNTERS = ("elasticity.sweeps", "elasticity.line_search.evals",
            "materials.hessian.qp", "fem.factor_nnz", "coupled.output_files",
            "coupled.output_bytes")

SETUP_METRICS = ("scenario.load_s", "mesh.build_s")


def _self_times(spans):
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _root_of(spans, index):
    while spans[index][3] >= 0:
        index = spans[index][3]
    return index


def layer_metrics(tracer, setup_root, run_root):
    """Per-layer metrics of one traced run.

    Setup metrics come from spans below `setup_root`, all others from spans
    below `run_root` (the indices of the two root spans).  Also returns
    `trace.run_s` (the traced run's duration) and `trace.remainder_s` (run
    time covered by no layer span).
    """
    spans = tracer.spans
    own = _self_times(spans)
    times = {metric: 0.0 for metric in SELF_TIME.values()}
    calls = {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            continue
        root = _root_of(spans, index)
        wanted_root = (setup_root if SELF_TIME.get(name) in SETUP_METRICS
                       else run_root)
        if root != wanted_root:
            continue
        times[SELF_TIME[name]] += own[index]
        calls[name] = calls.get(name, 0) + 1

    out = dict(times)
    for metric, span in CALLS.items():
        out[metric] = calls.get(span, 0)
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    solves = (calls.get("elasticity.solve_fixed_point", 0)
              + calls.get("elasticity.solve_newton", 0))
    out["elasticity.solves"] = solves
    out["elasticity.zero_sweep_share"] = (
        tracer.counts.get("elasticity.zero_sweep_solves", 0) / solves
        if solves else 0.0)
    # every Newton sweep evaluates the potential once at its start and
    # accepts exactly one of the trial steps that follow
    newton_sweeps = tracer.counts.get("elasticity.newton_sweeps", 0)
    trials = out["elasticity.line_search.evals"] - newton_sweeps
    out["elasticity.line_search.accept_share"] = (
        newton_sweeps / trials if trials > 0 else 0.0)
    factorizations = out["fem.factorize.calls"]
    out["fem.tri_solves_per_factorization"] = (
        out["fem.tri_solve.calls"] / factorizations if factorizations
        else 0.0)
    out["trace.run_s"] = spans[run_root][2] - spans[run_root][1]
    out["trace.remainder_s"] = own[run_root]
    return out
