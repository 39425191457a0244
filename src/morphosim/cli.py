"""Command line interface.

Subcommands: ``run`` (full simulation from a scenario file), ``check``
(assumption validation only), ``bench`` (built-in benchmark with verdict
table), ``mesh gen`` (emit a mesh file).  Exit codes: 0 on success, 1 on
solver or guard failure (including failed checks/benchmarks), 2 on usage
or parse errors.
"""

import argparse
import inspect
import os
import sys
import warnings

from .benchmarks import BENCHMARKS, SCENARIOS
from .coupled import check_first_step, run_coupled, write_outputs
from .elasticity import METHODS
from .errors import (InvalidTagRule, IoError, MorphosimError, ParseError,
                     ValidationError)
from .growth import TimeGrid
from .mesh import rectangle_mesh, write_mesh
from .scenario import load_scenario, require_valid, validate_scenario


def _add_run_options(parser):
    parser.add_argument("--output-dir", default=None,
                        help="directory for CSV and field output")
    parser.add_argument("--dt", type=float, default=None,
                        help="override the scenario time step")
    parser.add_argument("--t-end", type=float, default=None,
                        help="override the scenario end time")
    parser.add_argument("--method", default=None,
                        choices=METHODS,
                        help="override the equilibrium solver method")
    parser.add_argument("--cold-start", action="store_true", default=None,
                        help="disable warm starting between steps")
    parser.add_argument("--verbose", action="store_true", default=None,
                        help="stream per-iteration diagnostics to stderr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphosim",
        description="Finite-element simulation of nutrient-driven "
                    "morphoelastic growth")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    _add_run_options(p_run)

    p_check = sub.add_parser("check", help="validate scenario assumptions")
    p_check.add_argument("scenario")

    p_bench = sub.add_parser("bench", help="run a built-in benchmark")
    p_bench.add_argument("name", choices=sorted(BENCHMARKS))
    _add_run_options(p_bench)

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate a rectangle mesh file")
    p_gen.add_argument("--nx", type=int, required=True)
    p_gen.add_argument("--ny", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--mode", default="crossed",
                       choices=["crossed", "diagonal"])
    p_gen.add_argument("--extent", default="0,0,1,1",
                       help="x0,y0,x1,y1 of the box")
    p_gen.add_argument("--elastic-dirichlet", default="all")
    p_gen.add_argument("--nutrient-dirichlet", default="all")
    return parser


# the options `_add_run_options` adds, by argparse destination
RUN_OPTIONS = ("output_dir", "dt", "t_end", "method", "cold_start", "verbose")


def _apply_overrides(scenario, args):
    """Apply the run options to a scenario; a time grid that `TimeGrid`
    rejects is a usage error."""
    if args.dt is not None or args.t_end is not None:
        grid = scenario.time
        try:
            scenario.time = TimeGrid(
                t_end=args.t_end if args.t_end is not None else grid.t_end,
                dt=args.dt if args.dt is not None else grid.dt,
                t0=grid.t0)
        except ValueError as exc:
            raise ParseError("--dt/--t-end: %s" % exc)
    if args.method is not None:
        scenario.solver.method = args.method
    if args.cold_start:
        scenario.solver.warm_start = False
    if args.verbose:
        scenario.solver.diagnostics = sys.stderr
    if args.output_dir is not None:
        scenario.output.directory = args.output_dir


def _write(trajectory, scenario, args):
    """Write a trajectory's outputs; False, with a message, if it
    halted."""
    paths = write_outputs(trajectory, scenario.mesh, scenario.output)
    if args.verbose:
        for p in paths:
            print("wrote %s" % p, file=sys.stderr)
    if trajectory.failed:
        print("morphosim: %s halted (%s): %s"
              % (scenario.name, trajectory.status, trajectory.error),
              file=sys.stderr)
    return not trajectory.failed


def _cmd_run(args):
    scenario = load_scenario(args.scenario)
    _apply_overrides(scenario, args)
    require_valid(validate_scenario(scenario))
    # an unwritable output directory fails before the first step
    try:
        os.makedirs(scenario.output.directory, exist_ok=True)
    except OSError as exc:
        raise IoError("cannot write outputs: %s" % exc)
    trajectory = run_coupled(scenario)
    if not _write(trajectory, scenario, args):
        return 1
    print("completed %s: %d snapshots, final t = %.17g"
          % (scenario.name, len(trajectory.states),
             trajectory.states[-1].t))
    return 0


def _cmd_check(args):
    """Print every assumption check and, once they all pass, whether the
    first step solves and yields a growth rate."""
    scenario = load_scenario(args.scenario)
    reports = validate_scenario(scenario)
    if all(r.passed for r in reports):
        reports.append(check_first_step(scenario))
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_bench(args):
    """A benchmark that runs a scenario takes every run option, as `run`
    does; any other takes the options its parameters name."""
    bench = BENCHMARKS[args.name]
    if args.name in SCENARIOS:
        scenario = SCENARIOS[args.name]()
        scenario.output.directory = os.path.join("out", args.name)
        _apply_overrides(scenario, args)
        result = bench(scenario)
    else:
        options = {name: getattr(args, name) for name in RUN_OPTIONS
                   if getattr(args, name) is not None}
        for name in options:
            if name not in inspect.signature(bench).parameters:
                raise ParseError("benchmark %s takes no --%s"
                                 % (args.name, name.replace("_", "-")))
        result = bench(**options)
    print(result.table())
    if args.name in SCENARIOS and not _write(result.trajectory, scenario,
                                             args):
        return 1
    return 0 if result.passed else 1


def _cmd_mesh(args):
    try:
        x0, y0, x1, y1 = (float(v) for v in args.extent.split(","))
    except ValueError:
        raise ParseError("--extent expects x0,y0,x1,y1")
    try:
        mesh = rectangle_mesh(args.nx, args.ny, extent=((x0, y0), (x1, y1)),
                              mode=args.mode,
                              elastic_dirichlet=args.elastic_dirichlet,
                              nutrient_dirichlet=args.nutrient_dirichlet)
    except ValueError as exc:
        raise ParseError("mesh gen: %s" % exc)
    write_mesh(mesh, args.out)
    print("wrote %s (%d vertices, %d cells)"
          % (args.out, mesh.num_vertices, mesh.num_cells))
    return 0


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """One ``morphosim: warning:`` line per warning, without the source
    location Python's default formatter adds."""
    print("morphosim: warning: %s: %s" % (category.__name__, message),
          file=sys.stderr if file is None else file)


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "check": _cmd_check, "bench": _cmd_bench,
                "mesh": _cmd_mesh}
    # restored on return, so library users keep their own formatter
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return commands[args.command](args)
        except (ParseError, InvalidTagRule) as exc:
            print("morphosim: %s" % exc, file=sys.stderr)
            return 2
        except ValidationError as exc:
            print("morphosim: scenario invalid: %s" % exc, file=sys.stderr)
            return 1
        except MorphosimError as exc:
            print("morphosim: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
