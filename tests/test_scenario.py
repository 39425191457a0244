import numpy as np
import pytest

from morphosim import benchmarks
from morphosim.coupled import run_coupled, trajectory_csv
from morphosim.errors import ParseError, ValidationError
from morphosim.materials import (DetRatioNutrientModel, PolarWellEnergy,
                                 ProductGrowthLaw, StressModulatedGrowthLaw,
                                 ZeroGrowthLaw)
from morphosim.scenario import (load_scenario, require_valid,
                                validate_scenario)

MINIMAL = """
[mesh]
nx = 4
ny = 4

[boundary]
f = x, y
f_n = 1

[time]
t_end = 0.1
dt = 0.05
"""


# MINIMAL with every optional key set to the default of the constructor
# it configures (nu: a quarter of d0's smallest eigenvalue)
EXPLICIT_DEFAULTS = MINIMAL.replace("ny = 4", """ny = 4
source = rectangle
x0 = 0
y0 = 0
x1 = 1
y1 = 1
mode = crossed
elastic_dirichlet = all
nutrient_dirichlet = all""").replace("dt = 0.05", """dt = 0.05
t0 = 0
substeps = false""") + """
[energy]
model = polar_well
p = 2
admissible_radius = 0.5

[growth]
law = none

[nutrient]
model = det_ratio
d0 = 1
beta0 = 0
nu = 0.25

[initial]
g0 = identity

[guards]
det_min = 0.1
norm_max = auto

[solver]
method = fixed_point
max_iterations = 50
warm_start = true

[output]
directory = out
write_fields = true
every = 1
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoading:
    def test_minimal_defaults(self, tmp_path):
        sc = load_scenario(write_cfg(tmp_path, MINIMAL))
        assert sc.mesh.num_cells == 64
        assert isinstance(sc.energy, PolarWellEnergy)
        assert isinstance(sc.growth_law, ZeroGrowthLaw)
        assert isinstance(sc.nutrient_model, DetRatioNutrientModel)
        assert sc.time.dt == 0.05
        assert sc.solver.method == "fixed_point"
        assert not sc.substeps

    def test_shipped_scenarios_load_and_validate(self, scenario_dir):
        for name in ("stress_free.cfg", "analytic_growth.cfg",
                     "stress_modulated.cfg", "zero_nutrient.cfg",
                     "compatible_sine.cfg", "stress_feedback.cfg"):
            sc = load_scenario(scenario_dir / name)
            reports = validate_scenario(sc, samples=200)
            assert all(r.passed for r in reports), \
                "%s: %s" % (name, [str(r) for r in reports if not r.passed])

    def test_boundary_data_binding(self, tmp_path):
        text = MINIMAL.replace("f = x, y", "f = x / (1 - t), 2 * y")
        sc = load_scenario(write_cfg(tmp_path, text))
        pts = np.array([[1.0, 1.0]])
        assert np.allclose(sc.dirichlet_at(0.5)(pts), [[2.0, 2.0]])

    def test_growth_law_selection(self, tmp_path):
        text = MINIMAL + "\n[growth]\nlaw = product\n"
        sc = load_scenario(write_cfg(tmp_path, text))
        assert isinstance(sc.growth_law, ProductGrowthLaw)
        text = MINIMAL + ("\n[growth]\nlaw = stress_modulated\n"
                          "eta = saturating\nmu = linear_stress\n"
                          "mu_coeff = 0.2\n")
        sc = load_scenario(write_cfg(tmp_path, text))
        assert isinstance(sc.growth_law, StressModulatedGrowthLaw)
        assert sc.growth_law.mu_coeff == 0.2

    def test_gradient_initial_growth(self, tmp_path):
        text = MINIMAL + ("\n[initial]\n"
                          "g0 = gradient: x + 0.1*x*y, y - 0.05*x^2\n")
        sc = load_scenario(write_cfg(tmp_path, text))
        G = sc.g0(np.array([[0.5, 0.25]]))
        expected = np.array([[1.0 + 0.1 * 0.25, 0.1 * 0.5],
                             [-0.1 * 0.5, 1.0]])
        assert np.allclose(G[0], expected)

    def test_constant_initial_growth(self, tmp_path):
        text = MINIMAL + "\n[initial]\ng0 = constant: 1.1 0; 0 0.95\n"
        sc = load_scenario(write_cfg(tmp_path, text))
        G = sc.initial_growth_nodal()
        assert np.allclose(G, np.diag([1.1, 0.95]))

    @pytest.mark.parametrize("value,expected", [
        ("1.2", 1.2 * np.eye(2)),
        ("1.1 0.05; 0 0.95", np.array([[1.1, 0.05], [0.0, 0.95]]))],
        ids=["scalar", "matrix"])
    def test_constant_initial_growth_value(self, tmp_path, value, expected):
        # a scalar s means s I, as it does for d0
        text = MINIMAL + "\n[initial]\ng0 = constant: %s\n" % value
        G = load_scenario(write_cfg(tmp_path, text)).initial_growth_nodal()
        assert G.shape == (25 + 16, 2, 2)
        assert np.array_equal(G, np.broadcast_to(expected, G.shape))

    def test_guard_and_solver_sections(self, tmp_path):
        text = MINIMAL + ("\n[guards]\ndet_min = 0.2\nnorm_max = 7\n"
                          "\n[solver]\nmethod = newton\nmax_iterations = 9\n"
                          "warm_start = no\n")
        sc = load_scenario(write_cfg(tmp_path, text))
        assert sc.guards.det_min == 0.2
        assert sc.guards.norm_max == 7.0
        assert sc.solver.method == "newton"
        assert sc.solver.max_iterations == 9
        assert not sc.solver.warm_start

    def test_defaults_live_in_the_constructors(self, tmp_path):
        implicit = load_scenario(write_cfg(tmp_path, MINIMAL, "implicit.cfg"))
        explicit = load_scenario(write_cfg(tmp_path, EXPLICIT_DEFAULTS))
        for name in ("vertices", "cells", "facets", "facet_elastic_dirichlet",
                     "facet_nutrient_dirichlet"):
            assert np.array_equal(getattr(implicit.mesh, name),
                                  getattr(explicit.mesh, name))
        for name in ("energy", "growth_law", "nutrient_model"):
            a, b = getattr(implicit, name), getattr(explicit, name)
            assert type(a) is type(b)
            assert vars(a) == vars(b)
        for name in ("time", "guards", "solver", "output", "substeps", "g",
                     "g_n"):
            assert getattr(implicit, name) == getattr(explicit, name)
        assert np.array_equal(implicit.initial_growth_nodal(),
                              explicit.initial_growth_nodal())

    def test_growth_law_defaults_live_in_the_constructor(self, tmp_path):
        law = "\n[growth]\nlaw = stress_modulated\n"
        implicit = load_scenario(write_cfg(tmp_path, MINIMAL + law, "a.cfg"))
        explicit = load_scenario(write_cfg(tmp_path, MINIMAL + law + (
            "gamma = 1\neta = linear\nmu = identity\nmu_coeff = 0\n")))
        a, b = vars(implicit.growth_law), vars(explicit.growth_law)
        assert type(a.pop("energy")) is type(b.pop("energy"))
        assert a == b

    def test_mesh_from_file(self, tmp_path):
        from morphosim.mesh import rectangle_mesh, write_mesh
        write_mesh(rectangle_mesh(3, 3), tmp_path / "grid.mesh")
        text = MINIMAL.replace("[mesh]\nnx = 4\nny = 4",
                               "[mesh]\nsource = file\npath = grid.mesh")
        sc = load_scenario(write_cfg(tmp_path, text))
        assert sc.mesh.num_cells == 36


class TestLoadingErrors:
    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/missing.cfg")

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, "not ini content [[["))

    def test_missing_time_section(self, tmp_path):
        text = "[mesh]\nnx = 2\nny = 2\n\n[boundary]\nf = x, y\n"
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, text))

    def test_missing_dirichlet_position(self, tmp_path):
        text = MINIMAL.replace("f = x, y", "g = 0, 0")
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, text))

    def test_bad_expression(self, tmp_path):
        text = MINIMAL.replace("f = x, y", "f = x +, y")
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, text))

    def test_unknown_method(self, tmp_path):
        text = MINIMAL + "\n[solver]\nmethod = secant\n"
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("line", ["methd = newton", "tol_increment = 1e-9",
                                      "tol_residual = 1e-9",
                                      "line_search = false"])
    def test_unknown_solver_key(self, tmp_path, line):
        path = write_cfg(tmp_path, MINIMAL + "\n[solver]\n%s\n" % line)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        key = line.split(" = ")[0]
        assert str(info.value) == "%s: unknown key %r in [solver]" % (path, key)

    def test_unknown_key_in_any_section(self, tmp_path):
        text = MINIMAL.replace("dt = 0.05", "dt = 0.05\nt_start = 0")
        with pytest.raises(ParseError, match="unknown key 't_start' in"):
            load_scenario(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("section,key,text", [
        ("time", "adaptive",
         MINIMAL.replace("dt = 0.05", "dt = 0.05\nadaptive = true")),
        ("guards", "contraction_budget",
         MINIMAL + "\n[guards]\ncontraction_budget = 0.5\n")])
    def test_deleted_step_control_key(self, tmp_path, section, key, text):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value) == ("%s: unknown key %r in [%s]"
                                   % (path, key, section))

    @pytest.mark.parametrize("section,key,text", [
        ("growth", "gamma", MINIMAL + "\n[growth]\nlaw = none\ngamma = 0.2\n"),
        ("growth", "eta",
         MINIMAL + "\n[growth]\nlaw = product\neta = bogus\n"),
        ("mesh", "nx", MINIMAL.replace(
            "[mesh]\n", "[mesh]\nsource = file\npath = grid.mesh\n")),
        ("mesh", "path", MINIMAL.replace(
            "[mesh]\n", "[mesh]\nsource = rectangle\npath = grid.mesh\n"))],
        ids=["law_none", "law_product", "source_file", "source_rectangle"])
    def test_key_the_chosen_part_never_reads(self, tmp_path, section, key,
                                             text):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value).startswith("%s: key %r in [%s] is not read"
                                          % (path, key, section))

    @pytest.mark.parametrize("section,key,text", [
        ("time", "dt", MINIMAL.replace("dt = 0.05", "dt = abc")),
        ("solver", "warm_start",
         MINIMAL + "\n[solver]\nwarm_start = maybe\n")],
        ids=["dt", "warm_start"])
    def test_malformed_value_names_its_key(self, tmp_path, section, key,
                                           text):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value).startswith("%s: invalid value for %r in [%s]"
                                          % (path, key, section))

    @pytest.mark.parametrize("section,text", [
        ("mesh", MINIMAL.replace("nx = 4", "nx = 0")),
        ("energy", MINIMAL + "\n[energy]\np = 0.5\n"),
        ("growth",
         MINIMAL + "\n[growth]\nlaw = stress_modulated\neta = bogus\n"),
        ("time", MINIMAL.replace("dt = 0.05", "dt = -0.05")),
        ("guards", MINIMAL + "\n[guards]\ndet_min = -1\n"),
        ("output", MINIMAL + "\n[output]\nevery = 0\n"),
        ("energy", MINIMAL + "\n[energy]\nadmissible_radius = nan\n"),
        ("energy", MINIMAL + "\n[energy]\np = inf\n"),
        ("growth",
         MINIMAL + "\n[growth]\nlaw = stress_modulated\ngamma = nan\n"),
        ("growth",
         MINIMAL + "\n[growth]\nlaw = stress_modulated\nmu_coeff = inf\n"),
        ("time", MINIMAL.replace("t_end = 0.1", "t_end = inf")),
        ("time", MINIMAL.replace("dt = 0.05", "dt = nan")),
        ("guards", MINIMAL + "\n[guards]\ndet_min = nan\n"),
        ("guards", MINIMAL + "\n[guards]\nnorm_max = -1\n"),
        ("energy", MINIMAL + "\n[energy]\nadmissible_radius = 1e308\n"),
        ("energy", MINIMAL + "\n[energy]\nadmissible_radius = 1e153\n"),
        ("energy", MINIMAL + "\n[energy]\np = 2000\n")],
        ids=["mesh", "energy", "growth", "time", "guards", "output",
             "admissible_radius_nan", "p_inf", "gamma_nan", "mu_coeff_inf",
             "t_end_inf", "dt_nan", "det_min_nan", "norm_max_negative",
             "admissible_radius_1e308", "admissible_radius_1e153", "p_2000"])
    def test_rejected_value_names_its_section(self, tmp_path, section,
                                              text):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value).startswith("%s: invalid value in [%s] ("
                                          % (path, section))

    def test_unknown_section(self, tmp_path):
        text = MINIMAL + "\n[solvr]\nmethod = newton\n"
        with pytest.raises(ParseError, match="unknown section"):
            load_scenario(write_cfg(tmp_path, text))

    def test_unknown_model(self, tmp_path):
        text = MINIMAL + "\n[energy]\nmodel = rubber\n"
        with pytest.raises(ParseError):
            load_scenario(write_cfg(tmp_path, text))


class TestValidation:
    def test_nutrient_uniqueness_violation(self, tmp_path):
        # no absorption, no nutrient Dirichlet part, no flux
        text = MINIMAL.replace("nx = 4", "nx = 4").replace(
            "f_n = 1", "") + ("\n[nutrient]\nmodel = det_ratio\nbeta0 = 0\n")
        text = text.replace("[mesh]\n", "[mesh]\nnutrient_dirichlet = none\n")
        sc = load_scenario(write_cfg(tmp_path, text))
        reports = validate_scenario(sc, samples=100)
        failing = [r for r in reports if not r.passed]
        assert any(r.name == "nutrient_uniqueness" for r in failing)
        with pytest.raises(ValidationError):
            require_valid(reports)

    def test_negative_nutrient_data_flagged(self, tmp_path):
        text = MINIMAL.replace("f_n = 1", "f_n = x - 2")
        sc = load_scenario(write_cfg(tmp_path, text))
        reports = validate_scenario(sc, samples=100)
        assert any(r.name == "nutrient_dirichlet_sign" and not r.passed
                   for r in reports)

    def test_non_finite_fluxes_flagged(self, tmp_path):
        # the normals: nx = 0 on the top and bottom sides, so 0 * inf
        text = MINIMAL.replace("[mesh]\n", "[mesh]\nelastic_dirichlet = left\n"
                               "nutrient_dirichlet = left\n").replace(
            "f_n = 1", "f_n = 1\ng = 1/0*nx, 0\ng_n = 0*nx/0")
        sc = load_scenario(write_cfg(tmp_path, text))
        report, = [r for r in validate_scenario(sc, samples=100)
                   if r.name == "boundary_data_finite"]
        assert not report.passed
        assert report.details == {"checked": "f g f_n g_n",
                                  "non_finite": "g g_n"}

    def test_initial_growth_outside_ball_flagged(self, tmp_path):
        text = MINIMAL + "\n[initial]\ng0 = constant: 1.4 0; 0 1.4\n"
        sc = load_scenario(write_cfg(tmp_path, text))
        reports = validate_scenario(sc, samples=100)
        assert any(r.name == "initial_growth" and not r.passed
                   for r in reports)

    def test_valid_scenario_passes(self, tmp_path):
        sc = load_scenario(write_cfg(tmp_path, MINIMAL))
        require_valid(validate_scenario(sc, samples=100))


class TestBuiltInScenarios:
    """`benchmarks.SCENARIOS` builds in Python the scenarios two shipped
    files declare; both must run to the same bytes."""

    @pytest.mark.parametrize("name,cfg,cut", [
        ("stress_free_reference", "stress_free.cfg", {}),
        ("analytic_growth", "analytic_growth.cfg", {"t_end": 0.01})],
        ids=["stress_free", "analytic_growth"])
    def test_matches_the_shipped_file(self, tmp_path, scenario_dir, name,
                                      cfg, cut):
        text = (scenario_dir / cfg).read_text()
        if cut:
            assert "\nt_end = 0.5\n" in text
            text = text.replace("\nt_end = 0.5\n", "\nt_end = 0.01\n")
        shipped = load_scenario(write_cfg(tmp_path, text, cfg))
        built = benchmarks.SCENARIOS[name](**cut)
        assert (trajectory_csv(run_coupled(built))
                == trajectory_csv(run_coupled(shipped)))
