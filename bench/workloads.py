"""The benchmark's workloads: inputs drawn from a seed, set-up, the timed
solve, and the correctness check.

Each workload is a class with four steps and a calibration.  `draw` (run by
the launcher)
turns the seed into physical parameters and writes any input file the
program reads.  `setup`, `run` and `check` run in the fresh worker process:
`setup(params)` is what every user run pays before its first solve,
`run(inputs)` is timed as time to solution, and
`check(params, inputs, outputs)` is not timed.  `calibration` names the
worker's calibration kernel that resembles the workload, and how often it
runs before and again after the run: together about a tenth of the run,
so that the kernel samples the host's speed over a comparable stretch of
time (NOTES.md, "Steadiness and bounds").

Seeds only move physical parameters, inside ranges chosen so that every
check holds and the solver does the same number of sweeps for every seed;
mesh sizes and step counts are fixed.  Why each workload is here is in
NOTES.md.
"""

import configparser
import csv
import json
import os
import random

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join("demos", "scenarios")
REFERENCE = os.path.join(BENCH_DIR, "reference", "stress_modulated.json")


def _write_scenario(root, demo, workdir, changes):
    """Copy a shipped scenario file into `workdir` with some fields set."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(os.path.join(root, SCENARIO_DIR, demo)) as fh:
        cp.read_file(fh)
    for section, fields in changes.items():
        for key, value in fields.items():
            cp[section][key] = str(value)
    path = os.path.join(workdir, demo)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _load_and_validate(path):
    """What `morphosim run` does before its first solve."""
    from morphosim import scenario as sc
    scenario = sc.load_scenario(path)
    touch_geometry(scenario.mesh)
    sc.require_valid(sc.validate_scenario(scenario))
    return scenario


def _run_scenario(scenario):
    from morphosim import coupled
    trajectory = coupled.run_coupled(scenario)
    coupled.write_outputs(trajectory, scenario.mesh, scenario.output)
    return trajectory


def _completed(trajectory):
    if trajectory.failed:
        return {"completed": False, "status": trajectory.status,
                "error": str(trajectory.error)}
    return {"completed": True}


class Inflation:
    """`analytic_growth.cfg` (16x16, dt 1e-3, substeps, fixed point) on a
    seed-drawn rectangle, writing run.csv only."""

    name = "inflation"
    t_end = 0.05
    calibration = ("interpreted", 8)

    def draw(self, seed, root, workdir):
        rng = random.Random(seed)
        x0, y0 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        x1, y1 = x0 + rng.uniform(0.5, 2.0), y0 + rng.uniform(0.5, 2.0)
        params = {"x0": x0, "y0": y0, "x1": x1, "y1": y1}
        params["scenario"] = _write_scenario(root, "analytic_growth.cfg",
                                             workdir, {
            "mesh": {k: repr(v) for k, v in params.items()},
            "time": {"t_end": self.t_end},
            "output": {"directory": os.path.join(workdir, "out"),
                       "write_fields": "false"},
        })
        return params

    def setup(self, params):
        return _load_and_validate(params["scenario"])

    def run(self, scenario):
        return _run_scenario(scenario)

    def check(self, params, scenario, trajectory):
        report = _completed(trajectory)
        if not report["completed"]:
            return False, report
        x = scenario.mesh.vertices
        err_G = err_y = 0.0
        for state in trajectory.states:
            scale = 1.0 / (1.0 - state.t)
            err_G = max(err_G, float(np.max(np.abs(
                state.growth - scale * np.eye(2)))))
            err_y = max(err_y, float(np.max(np.abs(
                state.deformation - scale * x))))
        with open(os.path.join(scenario.output.directory, "run.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        report.update(err_G=err_G, err_y=err_y, csv_rows=rows,
                      snapshots=len(trajectory.states))
        ok = (err_G <= 1e-6 and err_y <= 1e-8
              and rows == len(trajectory.states)
              and trajectory.states[-1].t == self.t_end)
        return ok, report


def csv_summary(path):
    """Per-column (min, max, mean, last) of a run.csv file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = {}
    for column in rows[0]:
        values = np.array([float(r[column]) for r in rows])
        summary[column] = [float(values.min()), float(values.max()),
                           float(values.mean()), float(values[-1])]
    return len(rows), summary


class StressModulated:
    """`stress_modulated.cfg` (12x12, Newton with line search, 50 steps)
    with a seed-drawn growth rate and absorption, writing all 51 VTK
    snapshots.  The seed picks a grid point, so that a reference summary of
    run.csv exists for every seed."""

    name = "stress_modulated"
    calibration = ("interpreted", 8)
    gammas = (0.2, 0.225, 0.25, 0.275, 0.3)
    beta0s = (0.35, 0.425, 0.5, 0.575, 0.65)
    # run.csv summaries must match the reference to
    # |value - ref| <= RTOL * |ref| + ATOL * max|column|
    RTOL = 1e-6
    ATOL = 1e-9

    @staticmethod
    def key(gamma, beta0):
        return "gamma=%r,beta0=%r" % (gamma, beta0)

    def draw(self, seed, root, workdir):
        rng = random.Random(seed)
        gamma, beta0 = rng.choice(self.gammas), rng.choice(self.beta0s)
        return {"gamma": gamma, "beta0": beta0,
                "scenario": self.write(root, workdir, gamma, beta0)}

    def write(self, root, workdir, gamma, beta0):
        return _write_scenario(root, "stress_modulated.cfg", workdir, {
            "growth": {"gamma": repr(gamma)},
            "nutrient": {"beta0": repr(beta0)},
            "output": {"directory": os.path.join(workdir, "out"),
                       "write_fields": "true"},
        })

    def setup(self, params):
        return _load_and_validate(params["scenario"])

    def run(self, scenario):
        return _run_scenario(scenario)

    def check(self, params, scenario, trajectory):
        report = _completed(trajectory)
        if not report["completed"]:
            return False, report
        nutrient_min = min(d.nutrient_min for d in trajectory.diagnostics)
        outdir = scenario.output.directory
        vtk = sum(1 for f in os.listdir(outdir) if f.endswith(".vtk"))
        rows, summary = csv_summary(os.path.join(outdir, "run.csv"))
        with open(REFERENCE) as fh:
            reference = json.load(fh)[self.key(params["gamma"],
                                               params["beta0"])]
        mismatched = []
        for column, ref in reference["summary"].items():
            got = summary.get(column)
            scale = max(abs(v) for v in ref)
            if got is None or any(
                    abs(g - r) > self.RTOL * abs(r) + self.ATOL * scale
                    for g, r in zip(got, ref)):
                mismatched.append(column)
        report.update(nutrient_min=nutrient_min, vtk_files=vtk,
                      csv_rows=rows, mismatched_columns=mismatched)
        ok = (nutrient_min >= -1e-10 and vtk == 51
              and rows == reference["rows"] and not mismatched)
        return ok, report


class ContractionSweep:
    """`benchmarks.contraction_problem` on 16^2, 32^2 and 64^2 with a seed-drawn
    traction, solved by both the chord iteration and Newton."""

    name = "contraction_sweep"
    sizes = (16, 32, 64)
    calibration = ("sparse", 4)
    # every traction in this range takes 5 chord sweeps at each size and
    # 3/4/4 Newton sweeps, so the work does not depend on the seed
    traction_range = (0.0092, 0.0100)

    def draw(self, seed, root, workdir):
        return {"traction": random.Random(seed).uniform(*self.traction_range)}

    def setup(self, params):
        from morphosim import benchmarks
        problems = []
        for n in self.sizes:
            pair = (benchmarks.contraction_problem(n, params["traction"]),
                    benchmarks.contraction_problem(n, params["traction"],
                                                   method="newton"))
            for problem in pair:
                touch_geometry(problem.mesh)
            problems.append(pair)
        return problems

    def run(self, problems):
        from morphosim import elasticity
        return [(elasticity.solve_fixed_point(fp),
                 elasticity.solve_newton(newton)) for fp, newton in problems]

    def check(self, params, problems, solutions):
        report = {"completed": True, "sizes": {}}
        ok = True
        for n, (fp, newton) in zip(self.sizes, solutions):
            inc = fp.increment_history
            worst = max((inc[k + 1] / inc[k] for k in range(len(inc) - 1)
                         if inc[k] > 1e-300), default=0.0)
            diff = float(np.max(np.abs(fp.displacement
                                       - newton.displacement)))
            report["sizes"][n] = {"max_increment_ratio": worst,
                                  "max_diff": diff,
                                  "sweeps": [fp.iterations,
                                             newton.iterations]}
            ok = ok and worst < 1.0 and diff <= 1e-10
        return ok, report


def touch_geometry(mesh):
    """First touch of the cached mesh geometry, part of building the mesh."""
    mesh.cell_gradients()
    mesh.quad_points()
    mesh.quad_weights()


WORKLOADS = {w.name: w for w in (Inflation(), StressModulated(),
                                 ContractionSweep())}
