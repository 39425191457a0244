import numpy as np
import pytest

from morphosim import fem, tensor
from morphosim.elasticity import EquilibriumProblem, lift_dirichlet
from morphosim.errors import (EllipticityViolation, SingularMatrix,
                              SingularSystem, ValidationError)
from morphosim.materials import (ConstantNutrientModel, DetRatioNutrientModel,
                                 PolarWellEnergy)
from morphosim.mesh import rectangle_mesh
from morphosim.nutrient import (NutrientProblem, nutrient_coefficient_fields,
                                solve_nutrient)


def identity_fields(mesh):
    G = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2)).copy()
    return G, mesh.vertices.copy()


def make_problem(mesh, model, dirichlet=None, flux=None, growth=None, y=None):
    G0, y0 = identity_fields(mesh)
    return NutrientProblem(mesh, model,
                           growth if growth is not None else G0,
                           y if y is not None else y0,
                           dirichlet_data=dirichlet, neumann_flux=flux)


class TestSolve:
    def test_constant_solution(self):
        mesh = rectangle_mesh(6, 6)
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        sol = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: np.ones(len(pts))))
        assert np.max(np.abs(sol.concentration - 1.0)) <= 1e-12
        assert sol.min_value >= 1.0 - 1e-12
        assert sol.residual_norm <= 1e-12

    def test_cosh_manufactured_second_order(self):
        errors = []
        for n in (8, 16, 32):
            mesh = rectangle_mesh(n, n)
            model = DetRatioNutrientModel(d0=1.0, beta0=1.0)
            sol = solve_nutrient(make_problem(
                mesh, model, dirichlet=lambda pts: np.cosh(pts[:, 0])))
            errors.append(float(np.max(np.abs(
                sol.concentration - np.cosh(mesh.vertices[:, 0])))))
        r1 = np.log2(errors[0] / errors[1])
        r2 = np.log2(errors[1] / errors[2])
        assert 1.7 <= r1 <= 2.3
        assert 1.7 <= r2 <= 2.3

    def test_linearity_in_dirichlet_data(self):
        mesh = rectangle_mesh(8, 8, nutrient_dirichlet="left,right")
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        one = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: 1.0 + pts[:, 1]))
        two = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: 2.0 * (1.0 + pts[:, 1])))
        assert np.max(np.abs(two.concentration
                             - 2.0 * one.concentration)) <= 1e-11

    def test_non_negativity_on_delaunay_mesh(self):
        mesh = rectangle_mesh(12, 12, nutrient_dirichlet="left")
        model = DetRatioNutrientModel(d0=1.0, beta0=0.5)
        sol = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: pts[:, 1]))
        assert sol.min_value >= -1e-10

    def test_neumann_flux_feeds_boundary(self):
        mesh = rectangle_mesh(8, 8, nutrient_dirichlet="left")
        model = DetRatioNutrientModel(d0=1.0, beta0=1.0)
        base = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: np.zeros(len(pts))))
        fed = solve_nutrient(make_problem(
            mesh, model, dirichlet=lambda pts: np.zeros(len(pts)),
            flux=lambda pts, n: 0.5 * np.ones(pts.shape[:-1])))
        assert np.min(fed.concentration) >= -1e-12
        assert np.max(fed.concentration) > np.max(base.concentration)

    def test_singular_without_uniqueness_mechanism(self):
        # no Dirichlet part, zero absorption, zero flux: constants in kernel
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet="none")
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        with pytest.raises(SingularSystem):
            solve_nutrient(make_problem(mesh, model))

    def test_absorption_restores_uniqueness(self):
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet="none")
        model = DetRatioNutrientModel(d0=1.0, beta0=1.0)
        sol = solve_nutrient(make_problem(
            mesh, model, flux=lambda pts, n: np.ones(pts.shape[:-1])))
        assert np.all(np.isfinite(sol.concentration))
        assert sol.min_value >= -1e-10

    def test_negative_dirichlet_rejected(self):
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        with pytest.raises(ValidationError):
            solve_nutrient(make_problem(
                mesh, model, dirichlet=lambda pts: -np.ones(len(pts))))

    def test_negative_flux_rejected(self):
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet="left")
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        with pytest.raises(ValidationError):
            solve_nutrient(make_problem(
                mesh, model, dirichlet=lambda pts: np.ones(len(pts)),
                flux=lambda pts, n: -np.ones(pts.shape[:-1])))

    def test_ellipticity_guard(self):
        mesh = rectangle_mesh(4, 4)
        model = ConstantNutrientModel(d0=0.05, beta0=0.0, ellipticity_nu=0.5)
        with pytest.raises(EllipticityViolation):
            solve_nutrient(make_problem(
                mesh, model, dirichlet=lambda pts: np.ones(len(pts))))


class TestCoefficientFields:
    def test_compatible_state_reduces_to_reference(self):
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=np.diag([2.0, 0.5]), beta0=1.5)
        c = 1.2
        G = np.broadcast_to(c * np.eye(2), (mesh.num_vertices, 2, 2)).copy()
        y = c * mesh.vertices
        D, beta = nutrient_coefficient_fields(
            make_problem(mesh, model, growth=G, y=y))
        assert np.max(np.abs(D - np.diag([2.0, 0.5]))) <= 1e-12
        assert np.max(np.abs(beta - 1.5)) <= 1e-12

    def test_compression_ratio(self):
        # deformation gradient twice the growth: D0/4 and 4 beta0 in d = 2
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=1.0, beta0=1.0)
        G = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2)).copy()
        y = 2.0 * mesh.vertices
        D, beta = nutrient_coefficient_fields(
            make_problem(mesh, model, growth=G, y=y))
        assert np.max(np.abs(D - 0.25 * np.eye(2))) <= 1e-13
        assert np.max(np.abs(beta - 4.0)) <= 1e-12

    def test_random_pairs_stay_elliptic_and_symmetric(self):
        rng = np.random.default_rng(4)
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=np.diag([1.0, 2.0]), beta0=0.3)
        G = np.eye(2) + 0.1 * rng.standard_normal((mesh.num_vertices, 2, 2))
        x1, x2 = mesh.vertices[:, 0], mesh.vertices[:, 1]
        bump = 0.05 * np.sin(np.pi * x1)[:, None] * np.sin(np.pi * x2)[:, None]
        y = mesh.vertices + bump
        D, beta = nutrient_coefficient_fields(
            make_problem(mesh, model, growth=G, y=y))
        assert np.max(np.abs(D - np.swapaxes(D, -1, -2))) <= 1e-12
        assert np.min(np.linalg.eigvalsh(D)) >= model.ellipticity_nu
        assert np.min(beta) >= 0.0

    def test_det_y_is_taken_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=np.diag([1.0, 2.0]), beta0=0.3)
        G = np.eye(2) + 0.1 * rng.standard_normal((mesh.num_vertices, 2, 2))
        y = mesh.vertices + 0.01 * rng.standard_normal((mesh.num_vertices, 2))
        det = tensor.det
        shapes = []

        def counting(a):
            shapes.append(np.shape(a))
            return det(a)
        monkeypatch.setattr(tensor, "det", counting)
        D, beta = nutrient_coefficient_fields(
            make_problem(mesh, model, growth=G, y=y))
        monkeypatch.undo()
        # det Y of the cells once, det G at the quadrature points once
        nc = mesh.num_cells
        assert shapes == [(nc, 2, 2), (nc, 3, 2, 2)]
        # the same fields as the model taking det Y at every point itself
        Y = fem.interpolate_gradient(mesh, y)
        Yq = np.broadcast_to(Y[:, None], (nc, 3, 2, 2))
        Gq = fem.growth_at_quadrature(mesh, G)
        D_ref, beta_ref = model.coefficients(Gq, Yq, mesh.quad_points())
        assert np.array_equal(D, D_ref)
        assert np.array_equal(beta, beta_ref)

    def test_workspace_growth_tier_gives_the_resampled_fields(self):
        # the coupled loop hands the equilibrium workspace's Gq and its
        # checked det G to the nutrient solve instead of resampling
        rng = np.random.default_rng(7)
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=np.diag([1.0, 2.0]), beta0=0.3)
        G = np.eye(2) + 0.1 * rng.standard_normal((mesh.num_vertices, 2, 2))
        y = mesh.vertices + 0.01 * rng.standard_normal((mesh.num_vertices, 2))
        ws = EquilibriumProblem(mesh, PolarWellEnergy(), G,
                                lambda pts: pts).workspace
        handed = NutrientProblem(mesh, model, ws.Gq, y, growth_det=ws.detGq)
        D, beta = nutrient_coefficient_fields(handed)
        D_ref, beta_ref = nutrient_coefficient_fields(
            make_problem(mesh, model, growth=G, y=y))
        assert D.tobytes() == D_ref.tobytes()
        assert beta.tobytes() == beta_ref.tobytes()

    def test_handed_det_g_is_still_checked(self):
        model = DetRatioNutrientModel(d0=1.0, beta0=0.3)
        G = np.broadcast_to(np.eye(2), (4, 2, 2))
        with pytest.raises(SingularMatrix):
            model.coefficients(G, G, np.zeros((4, 2)),
                               detG=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_handed_det_y_is_still_checked(self):
        model = DetRatioNutrientModel(d0=1.0, beta0=0.3)
        G = np.broadcast_to(np.eye(2), (4, 2, 2))
        with pytest.raises(SingularMatrix):
            model.coefficients(G, G, np.zeros((4, 2)),
                               detY=np.array([1.0, 1.0, 0.0, 1.0]))

    def test_degenerate_deformation(self):
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        y = np.zeros_like(mesh.vertices)  # constant map, zero gradient
        with pytest.raises(SingularMatrix):
            nutrient_coefficient_fields(make_problem(mesh, model, y=y))

    def test_nan_deformation_is_singular(self):
        mesh = rectangle_mesh(4, 4)
        model = DetRatioNutrientModel(d0=1.0, beta0=0.0)
        y = mesh.vertices.copy()
        y[7, 0] = np.nan
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(SingularMatrix):
            solve_nutrient(make_problem(
                mesh, model, dirichlet=lambda pts: np.ones(len(pts)), y=y))

    def test_nan_determinant_is_singular(self):
        model = DetRatioNutrientModel(d0=1.0, beta0=0.3)
        G = np.broadcast_to(np.eye(2), (4, 2, 2))
        Y = G.copy()
        Y[1, 0, 0] = np.nan
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(SingularMatrix):
            model.coefficients(G, Y, np.zeros((4, 2)))


class TestDirichletSystemShared:
    """The lift and the nutrient solve are both scalar problems: they share
    one Dirichlet system when their Dirichlet vertices coincide, and one
    recorded sort when they do not."""

    @pytest.mark.parametrize("part,count", [("all", 1), ("left", 2)])
    def test_lift_and_nutrient(self, monkeypatch, part, count):
        built = []
        system = fem.DirichletSystem

        def counting(*args, **kwargs):
            built.append(args[0])
            return system(*args, **kwargs)
        monkeypatch.setattr(fem, "DirichletSystem", counting)
        mesh = rectangle_mesh(4, 4, nutrient_dirichlet=part)
        lift_dirichlet(mesh, lambda pts: 1.01 * np.asarray(pts))
        sol = solve_nutrient(make_problem(
            mesh, DetRatioNutrientModel(d0=1.0, beta0=1.0),
            dirichlet=lambda pts: np.ones(len(pts))))
        assert built == [mesh.num_vertices] * count
        lift, nutrient = (fem.dirichlet_system(mesh, 1, nodes) for nodes in (
            mesh.elastic_dirichlet_nodes(), mesh.nutrient_dirichlet_nodes()))
        assert (lift is nutrient) == (count == 1)
        assert np.array_equal(lift.order, nutrient.order)
        assert (lift.order is nutrient.order) == (count == 1)
        assert np.array_equal(sol.concentration[nutrient.fixed],
                              np.ones(len(nutrient.fixed)))
