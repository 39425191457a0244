import configparser
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from morphosim import benchmarks, cli, elasticity
from morphosim.cli import main
from morphosim.coupled import run_coupled
from morphosim.materials import StressModulatedGrowthLaw
from morphosim.mesh import read_mesh, rectangle_mesh, write_mesh

TRIVIAL = """
[mesh]
nx = 4
ny = 4

[boundary]
f = x, y
f_n = 1

[time]
t_end = 0.1
dt = 0.05

[output]
directory = {outdir}
"""


def write_cfg(tmp_path, text, name="scenario.cfg", outdir=None):
    outdir = outdir or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(text.format(outdir=outdir))
    return path, outdir


def scenario_copy(tmp_path, scenario_dir, demo, section, key, value):
    """A copy of a shipped scenario with one key set, writing under
    tmp_path."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(scenario_dir / demo)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    cp["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / demo
    with open(path, "w") as fh:
        cp.write(fh)
    return path


# values the model, mesh or config constructors reject with ValueError
MALFORMED = [("solver", "max_iterations", "ten"), ("guards", "det_min", "-1"),
             ("output", "every", "x"), ("energy", "p", "0.5"),
             ("growth", "eta", "cubic"), ("growth", "gamma", "fast"),
             ("mesh", "nx", "0"), ("mesh", "mode", "hex"),
             ("output", "every", "0")]


class TestRun:
    def test_trivial_run_succeeds(self, tmp_path, capsys):
        cfg, outdir = write_cfg(tmp_path, TRIVIAL)
        assert main(["run", str(cfg)]) == 0
        assert os.path.exists(os.path.join(outdir, "run.csv"))
        assert "completed" in capsys.readouterr().out

    def test_missing_scenario_is_usage_error(self, capsys):
        assert main(["run", "missing.cfg"]) == 2

    def test_malformed_scenario_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[mesh\nnx=")
        assert main(["run", str(path)]) == 2

    def test_invalid_scenario_fails(self, tmp_path, capsys):
        text = TRIVIAL.replace("f_n = 1", "") \
            .replace("[mesh]", "[mesh]\nnutrient_dirichlet = none") \
            + "\n[nutrient]\nbeta0 = 0\n"
        cfg, _ = write_cfg(tmp_path, text)
        assert main(["run", str(cfg)]) == 1

    def test_overrides(self, tmp_path, capsys):
        cfg, outdir = write_cfg(tmp_path, TRIVIAL)
        assert main(["run", str(cfg), "--dt", "0.025", "--t-end", "0.05",
                     "--method", "newton", "--cold-start"]) == 0
        csv = open(os.path.join(outdir, "run.csv")).read()
        assert len(csv.strip().split("\n")) == 1 + 3  # t = 0, 0.025, 0.05

    def test_failure_at_first_solve_leaves_failure_note(self, tmp_path,
                                                        scenario_dir, capsys):
        # a reflected boundary folds the lift before any snapshot exists
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_free.cfg",
                            "boundary", "f", "x, 1 - y")
        assert main(["run", str(cfg)]) == 1
        note = (tmp_path / "out" / "failure.txt").read_text()
        assert "halted after 0 snapshots\n" in note
        assert "folds some cell" in note
        assert not (tmp_path / "out" / "failure_snapshot.vtk").exists()

    def test_data_non_finite_between_samples_halts_cleanly(self, tmp_path,
                                                           capsys):
        # validation samples the data at t = 0, 0.25 and 0.5 only; at
        # t = 0.2 the boundary positions are infinite
        cfg, outdir = write_cfg(tmp_path, """
[mesh]
nx = 4
ny = 4

[growth]
law = none

[boundary]
f = x + 0.001 / (0.2 - t), y
f_n = 1

[time]
t_end = 0.5
dt = 0.1

[output]
directory = {outdir}
""")
        assert main(["check", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = open(os.path.join(outdir, "run.csv")).read().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0, 0.1]
        note = open(os.path.join(outdir, "failure.txt")).read()
        assert "status: solver_failure\n" in note
        assert "non-finite Dirichlet data" in note

    def test_guard_violation_leaves_failure_files(self, tmp_path,
                                                  scenario_dir, capsys):
        outdir = tmp_path / "guard"
        assert main(["run", str(scenario_dir / "analytic_growth.cfg"),
                     "--dt", "0.05", "--t-end", "0.99",
                     "--output-dir", str(outdir)]) == 1
        note = (outdir / "failure.txt").read_text()
        assert "status: guard_violation\n" in note
        assert (outdir / "failure_snapshot.vtk").exists()
        # the norm just past its guard prints apart from the guard
        value, guard = re.search(r"growth norm (\S+) above guard (\S+)",
                                 note).groups()
        assert float(value) > float(guard) == 10.0

    def test_nan_growth_rate_leaves_failure_files(self, tmp_path,
                                                  scenario_dir, capsys,
                                                  monkeypatch):
        def nan_rate(self, G, Y, N, x):
            return np.full_like(G, np.nan)
        monkeypatch.setattr(StressModulatedGrowthLaw, "evaluate", nan_rate)
        outdir = tmp_path / "nan"
        assert main(["run", str(scenario_dir / "stress_modulated.cfg"),
                     "--t-end", "0.05", "--output-dir", str(outdir)]) == 1
        note = (outdir / "failure.txt").read_text()
        assert "status: guard_violation\n" in note
        assert "non-finite growth rate at t = 0" in note
        assert (outdir / "failure_snapshot.vtk").exists()
        assert "guard_violation" in capsys.readouterr().err

    def _solver_failure(self, scenario_dir, outdir, cause):
        """A short stress_modulated run halts after its first snapshot with
        a solver failure and leaves both failure files."""
        assert main(["run", str(scenario_dir / "stress_modulated.cfg"),
                     "--t-end", "0.05", "--output-dir", str(outdir)]) == 1
        note = (outdir / "failure.txt").read_text()
        assert "status: solver_failure\n" in note
        assert "halted after 1 snapshots" in note
        assert cause in note
        assert (outdir / "failure_snapshot.vtk").exists()

    def test_singular_newton_tangent_leaves_failure_files(
            self, tmp_path, scenario_dir, capsys, monkeypatch):
        # the first snapshot returns at iterate 0; the first tangent
        # assembled afterwards is zero, so its factorization fails
        stiffness = elasticity._Workspace.stiffness

        def zero_stiffness(self, state):
            K = stiffness(self, state)
            K.data[:] = 0.0
            return K
        monkeypatch.setattr(elasticity._Workspace, "stiffness",
                            zero_stiffness)
        self._solver_failure(scenario_dir, tmp_path / "singular",
                             "cause: Newton tangent singular at sweep 1: "
                             "sparse factorization failed")

    def test_line_search_failure_leaves_failure_files(
            self, tmp_path, scenario_dir, capsys, monkeypatch):
        def far(state, free, step):
            # every trial leaves the admissible ball: its potential is inf
            u = state.u.reshape(-1).copy()
            u[free] += 1e3
            return u.reshape(-1, 2)
        monkeypatch.setattr(elasticity, "_stepped", far)
        self._solver_failure(scenario_dir, tmp_path / "line_search",
                             "cause: line search failed at sweep 1")

    def test_negative_nutrient_halts_cleanly(self, tmp_path, scenario_dir,
                                             capsys):
        # strong absorption drives the nutrient below zero on this mesh;
        # the growth law refuses it and the run halts with a failure note
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "nutrient", "beta0", "2000")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["run", str(cfg), "--t-end", "0.02"]) == 1
        note = (tmp_path / "out" / "failure.txt").read_text()
        assert "status: solver_failure\n" in note
        assert "nutrient concentration must be non-negative" in note
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "failure_snapshot.vtk").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_output_dir_under_a_file(self, tmp_path, scenario_dir, capsys,
                                     monkeypatch):
        def no_run(scenario):
            pytest.fail("the run started before its output directory was "
                        "made")
        monkeypatch.setattr(cli, "run_coupled", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", str(scenario_dir / "stress_free.cfg"),
                     "--output-dir", str(blocker / "out")]) == 1
        assert "IoError" in capsys.readouterr().err

    def test_hybrid_method_is_gone(self, tmp_path, scenario_dir, capsys):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_free.cfg",
                            "solver", "method", "hybrid")
        assert main(["check", str(cfg)]) == 2
        with pytest.raises(SystemExit) as info:
            main(["run", str(cfg), "--method", "hybrid"])
        assert info.value.code == 2

    def test_output_dir_override(self, tmp_path):
        cfg, _ = write_cfg(tmp_path, TRIVIAL)
        target = tmp_path / "elsewhere"
        assert main(["run", str(cfg), "--output-dir", str(target)]) == 0
        assert (target / "run.csv").exists()


# values the command line's constructors reject: usage errors
REJECTED = [
    (["run", "{cfg}", "--dt", "-1"], "dt must be positive"),
    (["run", "{cfg}", "--t-end", "0"], "need 0 <= t0 < t_end"),
    (["bench", "stress_free_reference", "--dt", "0"], "dt must be positive"),
    (["mesh", "gen", "--nx", "0", "--ny", "2", "--out", "{mesh}"],
     "nx and ny must be >= 1"),
    (["mesh", "gen", "--nx", "2", "--ny", "2", "--out", "{mesh}",
      "--extent", "0,0,0,1"], "degenerate extent")]


@pytest.mark.parametrize("argv,message", REJECTED,
                         ids=["run_dt", "run_t_end", "bench_dt", "mesh_nx",
                              "mesh_extent"])
def test_rejected_value_is_usage_error(tmp_path, capsys, argv, message):
    cfg, _ = write_cfg(tmp_path, TRIVIAL)
    mesh = tmp_path / "grid.mesh"
    argv = [a.format(cfg=cfg, mesh=mesh) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not mesh.exists()


class TestCheck:
    @pytest.mark.parametrize("demo", sorted(
        name for name in os.listdir(os.path.join(
            os.path.dirname(__file__), "..", "demos", "scenarios"))
        if name.endswith(".cfg")))
    def test_shipped_scenario_passes(self, scenario_dir, capsys, demo):
        assert main(["check", str(scenario_dir / demo)]) == 0
        assert "PASS first_step: t=0" in capsys.readouterr().out

    def test_failing_first_step(self, tmp_path, scenario_dir, capsys):
        # strong absorption drives the t0 nutrient below zero, which the
        # growth law refuses: the run would halt at its first step
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "nutrient", "beta0", "2000")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["check", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert ("FAIL first_step: t=0, error=ValidationError: nutrient "
                "concentration must be non-negative" in captured.out)
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_warning_is_one_line(self, tmp_path, scenario_dir):
        # run as a program, so Python's own warning filters and formatter
        # apply, not the test runner's
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "nutrient", "beta0", "2000")
        result = subprocess.run(
            [sys.executable, "-m", "morphosim.cli", "check", str(cfg)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert ("morphosim: warning: NegativeSolutionWarning: nutrient "
                "solution dips to" in result.stderr)
        assert "nutrient.py" not in result.stderr
        assert "warnings.warn(" not in result.stderr

    def test_warning_format_is_scoped(self, tmp_path, scenario_dir, capsys):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "nutrient", "beta0", "2000")
        before = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["check", str(cfg)]) == 1
            assert warnings.showwarning is before

    def test_unused_mesh_vertex_is_usage_error(self, tmp_path, scenario_dir,
                                               capsys):
        # a vertex no cell uses would leave the operators singular
        write_mesh(rectangle_mesh(4, 4), tmp_path / "grid.mesh")
        lines = (tmp_path / "grid.mesh").read_text().splitlines()
        n = int(lines[1])
        lines[1] = str(n + 1)
        lines.insert(2 + n, "5 5")
        (tmp_path / "grid.mesh").write_text("\n".join(lines) + "\n")
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "mesh", "source", "file")
        text = cfg.read_text().replace("source = file",
                                       "source = file\npath = grid.mesh")
        cfg.write_text(text)
        for command in ("check", "run"):
            assert main([command, str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "vertex %d belongs to no cell" % n in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_valid_scenario(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, TRIVIAL)
        assert main(["check", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS frame_indifference" in out
        assert "PASS coercivity" in out

    def test_invalid_scenario(self, tmp_path, capsys):
        text = TRIVIAL.replace("f_n = 1", "") \
            .replace("[mesh]", "[mesh]\nnutrient_dirichlet = none") \
            + "\n[nutrient]\nbeta0 = 0\n"
        cfg, _ = write_cfg(tmp_path, text)
        assert main(["check", str(cfg)]) == 1
        assert "FAIL nutrient_uniqueness" in capsys.readouterr().out

    @pytest.mark.parametrize("f", [
        "(" * 300 + "x" + ")" * 300 + ", y",   # past Python's paren bound
        "x" + " + 0*x" * 1200 + ", y",         # flat, but 1,200 levels deep
        "__import__('os').system('true'), y"],  # never reaches eval
        ids=["nested_300", "terms_1200", "import"])
    def test_unparsable_expression_is_usage_error(self, tmp_path,
                                                  scenario_dir, capsys, f):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_free.cfg",
                            "boundary", "f", f)
        assert main(["check", str(cfg)]) == 2

    @pytest.mark.parametrize("key,value,name", [("f", "x + 0*nx, y", "nx"),
                                                ("f_n", "1 + 0*ny", "ny")])
    def test_normal_outside_boundary_flux_is_usage_error(
            self, tmp_path, scenario_dir, capsys, key, value, name):
        # the normal exists only where g and g_n are evaluated
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_free.cfg",
                            "boundary", key, value)
        assert main(["check", str(cfg)]) == 2
        assert main(["run", str(cfg)]) == 2
        assert "unsupported %r" % name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # IEEE arithmetic makes each datum inf or nan at some boundary point,
    # and validation names it before any solve
    @pytest.mark.parametrize("key,value", [
        ("f_n", "1/0*x"), ("f_n", "10^400*x"), ("f_n", "(0-1)^0.5*x"),
        ("f", "x/0, y")], ids=["divide", "overflow", "complex", "position"])
    def test_non_finite_boundary_data_fail_validation(
            self, tmp_path, scenario_dir, capsys, key, value):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            "boundary", key, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", str(cfg)]) == 1
            check = capsys.readouterr()
            assert main(["run", str(cfg)]) == 1
            run = capsys.readouterr()
        failure = r"FAIL boundary_data_finite: [^;\n]*non_finite=%s\b" % key
        assert re.search(failure, check.out)
        assert re.search(failure, run.err)
        assert "Traceback" not in check.err + run.err
        # ComplexWarning is a RuntimeWarning
        assert not [w for w in caught if issubclass(w.category,
                                                    RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value", MALFORMED)
    def test_malformed_value_is_usage_error(self, tmp_path, scenario_dir,
                                            capsys, section, key, value):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_modulated.cfg",
                            section, key, value)
        assert main(["check", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("section,key,value", [
        ("time", "adaptive", "true"), ("guards", "contraction_budget", "0.5")])
    def test_deleted_time_and_guard_keys_are_usage_errors(
            self, tmp_path, scenario_dir, capsys, command, section, key,
            value):
        cfg = scenario_copy(tmp_path, scenario_dir, "stress_free.cfg",
                            section, key, value)
        assert main([command, str(cfg)]) == 2
        assert ("unknown key %r in [%s]" % (key, section)
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestBench:
    def test_stress_free_reference(self, tmp_path, capsys):
        assert main(["bench", "stress_free_reference",
                     "--output-dir", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "PASS stress_free_reference" in out
        assert "max nodal |u|" in out

    def test_ode_order(self, capsys):
        assert main(["bench", "ode_order"]) == 0

    def test_unknown_benchmark_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "no_such_bench"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["ode_order", "--dt", "0.5"], ["contraction", "--method", "newton"],
        ["compatible_growth", "--t-end", "5"],
        ["nutrient_manufactured", "--cold-start"], ["ode_order", "--verbose"],
        ["contraction", "--output-dir", "x"]], ids=lambda a: "_".join(a))
    def test_option_the_benchmark_ignores_is_usage_error(self, capsys, argv):
        assert main(["bench"] + argv) == 2
        err = capsys.readouterr().err
        assert "benchmark %s takes no %s" % (argv[0], argv[1]) in err

    def test_trajectory_benchmark_takes_run_options(self, tmp_path, capsys,
                                                    monkeypatch):
        seen = []

        def recording_run(scenario):
            seen.append(scenario)
            return run_coupled(scenario)
        monkeypatch.setattr(benchmarks, "run_coupled", recording_run)
        outdir = tmp_path / "b"
        assert main(["bench", "stress_free_reference", "--dt", "0.125",
                     "--method", "newton", "--cold-start", "--verbose",
                     "--output-dir", str(outdir)]) == 0
        solver = seen[0].solver
        assert (solver.method, solver.warm_start) == ("newton", False)
        assert solver.diagnostics is sys.stderr
        csv = (outdir / "run.csv").read_text()
        assert len(csv.strip().split("\n")) == 1 + 3  # t = 0, 0.125, 0.25
        assert "wrote %s" % (outdir / "run.csv") in capsys.readouterr().err

    def test_guard_firing_returns_failure(self, tmp_path, capsys):
        outdir = tmp_path / "guard"
        code = main(["bench", "analytic_growth", "--t-end", "0.99",
                     "--dt", "0.01", "--output-dir", str(outdir)])
        assert code == 1
        assert (outdir / "failure_snapshot.vtk").exists()
        assert (outdir / "failure.txt").exists()
        assert "guard_violation" in (outdir / "failure.txt").read_text()


class TestMeshGen:
    def test_generate_and_read_back(self, tmp_path):
        out = tmp_path / "grid.mesh"
        assert main(["mesh", "gen", "--nx", "3", "--ny", "2",
                     "--out", str(out), "--elastic-dirichlet", "left"]) == 0
        mesh = read_mesh(out)
        assert mesh.num_cells == 24
        assert mesh.num_vertices == 12 + 6

    def test_bad_extent(self, tmp_path, capsys):
        out = tmp_path / "grid.mesh"
        assert main(["mesh", "gen", "--nx", "2", "--ny", "2",
                     "--out", str(out), "--extent", "0,0,1"]) == 2


def test_console_entry_point(tmp_path):
    # exercised once through a real subprocess to cover packaging
    result = subprocess.run(
        [sys.executable, "-m", "morphosim.cli", "bench", "ode_order"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "PASS ode_order" in result.stdout
