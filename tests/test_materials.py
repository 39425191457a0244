import numpy as np
import pytest

from morphosim import EquilibriumProblem, interpolate_gradient, tensor
from morphosim.errors import (OutsideAdmissibleBall, SingularMatrix,
                              ValidationError)
from morphosim.materials import (ConstantNutrientModel, DetRatioNutrientModel,
                                 EnergyModel, PolarWellEnergy,
                                 ProductGrowthLaw, StressModulatedGrowthLaw,
                                 ZeroGrowthLaw, check_coercivity,
                                 check_frame_indifference,
                                 check_nutrient_assumptions,
                                 check_nutrient_frame_indifference,
                                 max_admissible_radius, piola_kirchhoff)
from morphosim.mesh import rectangle_mesh

X0 = np.zeros(2)


def sample_admissible(rng, n, radius=0.3, d=2):
    out = np.empty((n, d, d))
    k = 0
    while k < n:
        batch = np.eye(d) + rng.uniform(-radius, radius, size=(2 * n, d, d))
        good = batch[np.linalg.det(batch) > 0.3][: n - k]
        out[k:k + len(good)] = good
        k += len(good)
    return out


class TestEnergyValues:
    def test_reference_is_unstressed(self):
        e = PolarWellEnergy()
        assert e.evaluate(X0, np.eye(2)) == 0.0
        assert np.allclose(e.first_derivative(X0, np.eye(2)), 0.0, atol=1e-14)

    def test_rotations_cost_nothing(self):
        e = PolarWellEnergy()
        for theta in (0.2, 1.1, -0.4):
            assert abs(e.evaluate(X0, tensor.rotation(theta))) <= 1e-14

    def test_diag_stretch_value(self):
        # dist^2 = 1, det = 2: 1 + 1/4 + 4 - 2
        e = PolarWellEnergy()
        assert abs(e.evaluate(X0, np.diag([2.0, 1.0])) - 3.25) <= 1e-14

    def test_nonnegative_on_samples(self):
        rng = np.random.default_rng(0)
        e = PolarWellEnergy()
        F = sample_admissible(rng, 500)
        assert np.min(e.evaluate(np.zeros((len(F), 2)), F)) >= 0.0

    def test_volume_exponent_parameter(self):
        e3 = PolarWellEnergy(p=3)
        F = np.diag([2.0, 1.0])
        assert abs(e3.evaluate(X0, F) - (1.0 + 8.0 + 1.0 / 8.0 - 2.0)) <= 1e-14

    def test_singular_argument(self):
        e = PolarWellEnergy()
        with pytest.raises(SingularMatrix):
            e.evaluate(X0, np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("p,bound", [(1, 6.7039e153), (1.5, 3.9908e102),
                                         (2, 8.1877e76), (3, 1.6799e51),
                                         (4, 2.4062e38), (7.3, 9.1796e20)])
    def test_radius_bound_keeps_the_volume_term_finite(self, p, bound):
        # a matrix of the ball has |det F| <= 2 (1 + r)^2; at the bound
        # both it and its p-th power are finite, and just past the bound
        # the constructor refuses the radius
        r = max_admissible_radius(p)
        assert r == pytest.approx(bound, rel=1e-4)
        det = np.float64(2.0) * (1.0 + r) ** 2
        assert np.isfinite(det) and np.isfinite(det ** float(p))
        assert PolarWellEnergy(p=p, admissible_radius=r).admissible_radius == r
        with pytest.raises(ValueError, match="at p = %g" % p):
            PolarWellEnergy(p=p, admissible_radius=1.001 * r)

    @pytest.mark.parametrize("p", [1024, 2000, 10000])
    def test_no_radius_from_p_1024_on(self, p):
        # big^(1/p) <= 2 there, so even a ball of radius 0 would not keep
        # |det F|^p finite; the constructor says so instead of naming a
        # negative bound
        assert max_admissible_radius(p) <= 0.0
        with pytest.raises(ValueError, match=r"^no admissible radius keeps "
                           r"det F\^p finite at p = %g" % p):
            PolarWellEnergy(p=p, admissible_radius=1e-6)

    def test_default_radius_above_p_472_names_the_bound(self):
        # the ball shrinks below the default 0.5 between p = 471 and 472
        assert max_admissible_radius(471) > 0.5 > max_admissible_radius(472)
        PolarWellEnergy(p=471)
        with pytest.raises(ValueError, match="at most 0.499775"):
            PolarWellEnergy(p=472)


class TestEnergyDerivatives:
    @pytest.mark.parametrize("dim,p", [(2, 2), (2, 3)])
    def test_first_derivative_finite_difference(self, dim, p):
        rng = np.random.default_rng(dim * 10 + p)
        e = PolarWellEnergy(p=p)
        n = 200
        F = sample_admissible(rng, n, radius=0.3, d=dim)
        x = np.zeros((n, dim))
        D = e.first_derivative(x, F)
        h = 1e-5
        for k in range(dim):
            for l in range(dim):
                E = np.zeros((dim, dim))
                E[k, l] = 1.0
                fd = (e.evaluate(x, F + h * E) - e.evaluate(x, F - h * E)) / (2 * h)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(D[:, k, l] - fd) / scale) <= 1e-6

    @pytest.mark.parametrize("dim", [2])
    def test_second_derivative_finite_difference(self, dim):
        rng = np.random.default_rng(dim)
        e = PolarWellEnergy()
        n = 200
        F = sample_admissible(rng, n, radius=0.3, d=dim)
        x = np.zeros((n, dim))
        H = e.second_derivative(x, F)
        h = 1e-5
        for k in range(dim):
            for l in range(dim):
                E = np.zeros((dim, dim))
                E[k, l] = 1.0
                fd = (e.first_derivative(x, F + h * E)
                      - e.first_derivative(x, F - h * E)) / (2 * h)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(H[..., :, :, k, l] - fd) / scale) <= 1e-6

    def test_hessian_quadratic_form_at_identity(self):
        # analytic form on directions B: |B + B^T|^2 / 2 + 8 (tr B)^2
        e = PolarWellEnergy()
        H = e.second_derivative(X0, np.eye(2))
        rng = np.random.default_rng(4)
        for _ in range(20):
            B = rng.standard_normal((2, 2))
            quad = np.einsum("ijkl,ij,kl->", H, B, B)
            expected = 0.5 * np.sum((B + B.T) ** 2) + 8.0 * np.trace(B) ** 2
            assert abs(quad - expected) <= 1e-10 * (1 + abs(expected))
        ones = np.einsum("ijkl,ij,kl->", H, np.eye(2), np.eye(2))
        assert abs(ones - 36.0) <= 1e-10

    def test_major_symmetry(self):
        rng = np.random.default_rng(9)
        e = PolarWellEnergy()
        F = sample_admissible(rng, 100)
        H = e.second_derivative(np.zeros((100, 2)), F)
        Ht = np.einsum("...ijkl->...klij", H)
        assert np.max(np.abs(H - Ht)) <= 1e-12 * np.max(np.abs(H))


class TestPiolaKirchhoff:
    def test_reference_state(self):
        e = PolarWellEnergy()
        P = piola_kirchhoff(e, X0, np.eye(2), np.eye(2))
        assert np.allclose(P, 0.0, atol=1e-14)

    def test_compatible_states_are_stress_free(self):
        rng = np.random.default_rng(21)
        e = PolarWellEnergy()
        G = sample_admissible(rng, 100, radius=0.2)
        P = piola_kirchhoff(e, np.zeros((100, 2)), G, G)
        assert np.max(np.abs(P)) <= 1e-12

    def test_energy_gradient_oracle(self):
        # P is the derivative of F -> det(G) W(x, F G^-1) at F = Y
        rng = np.random.default_rng(34)
        e = PolarWellEnergy()
        G = sample_admissible(rng, 50, radius=0.15)
        Y = G @ sample_admissible(rng, 50, radius=0.15)
        P = piola_kirchhoff(e, np.zeros((50, 2)), G, Y)
        detG = np.linalg.det(G)
        Ginv = np.linalg.inv(G)
        h = 1e-6
        x = np.zeros((50, 2))
        for k in range(2):
            for l in range(2):
                E = np.zeros((2, 2))
                E[k, l] = 1.0
                fd = detG * (e.evaluate(x, (Y + h * E) @ Ginv)
                             - e.evaluate(x, (Y - h * E) @ Ginv)) / (2 * h)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(P[:, k, l] - fd) / scale) <= 1e-6

    def test_outside_ball(self):
        e = PolarWellEnergy()
        with pytest.raises(OutsideAdmissibleBall):
            piola_kirchhoff(e, X0, np.eye(2), 1.8 * np.eye(2))

    def test_singular_growth(self):
        e = PolarWellEnergy()
        with pytest.raises(SingularMatrix):
            piola_kirchhoff(e, X0, np.zeros((2, 2)), np.eye(2))

    def test_matches_workspace_stress(self):
        # the growth law's stress and the equilibrium solve's stress are
        # one computation: equal bytes at quadrature-point G and Y
        mesh = rectangle_mesh(5, 4)
        problem = EquilibriumProblem(
            mesh, PolarWellEnergy(),
            growth=lambda pts: np.eye(2) + 0.1 * np.stack([
                np.stack([np.sin(pts[..., 0]), 0.5 * pts[..., 1]], -1),
                np.stack([0.3 * pts[..., 0], np.cos(pts[..., 1])], -1)],
                -2),
            dirichlet_data=lambda pts: 1.05 * np.asarray(pts))
        ws = problem.workspace
        u = 0.01 * np.random.default_rng(4).standard_normal(
            (mesh.num_vertices, 2))
        Y = interpolate_gradient(mesh, u) + ws.grad_ft
        P = piola_kirchhoff(ws.energy, ws.qpoints, ws.Gq,
                            np.broadcast_to(Y[:, None], ws.Gq.shape))
        assert np.array_equal(P, ws.stress(ws.elastic_state(u)))


class _NotFrameIndifferent(EnergyModel):
    admissible_radius = 0.5

    def evaluate(self, x, F):
        F = np.asarray(F)
        return F[..., 0, 0] ** 2

    def first_derivative(self, x, F):
        F = np.asarray(F)
        D = np.zeros_like(F)
        D[..., 0, 0] = 2.0 * F[..., 0, 0]
        return D

    def second_derivative(self, x, F):
        F = np.asarray(F)
        H = np.zeros(F.shape + (2, 2))
        H[..., 0, 0, 0, 0] = 2.0
        return H


class _ZeroEnergy(EnergyModel):
    def evaluate(self, x, F):
        return np.zeros(np.asarray(F).shape[:-2])

    def first_derivative(self, x, F):
        return np.zeros_like(np.asarray(F))

    def second_derivative(self, x, F):
        F = np.asarray(F)
        return np.zeros(F.shape + (2, 2))


class TestCheckers:
    def test_frame_indifference_passes(self):
        report = check_frame_indifference(PolarWellEnergy(), samples=1000)
        assert report.passed
        assert report.details["max_abs_diff"] <= 1e-10

    def test_frame_indifference_fails_for_bad_model(self):
        report = check_frame_indifference(_NotFrameIndifferent(), samples=200)
        assert not report.passed

    def test_coercivity_passes_with_unit_constant(self):
        report = check_coercivity(PolarWellEnergy(), samples=1000)
        assert report.passed
        assert report.details["c_hat"] >= 1.0

    def test_coercivity_fails_for_zero_energy(self):
        report = check_coercivity(_ZeroEnergy(), samples=200)
        assert not report.passed

    @pytest.mark.parametrize("radius", [0.5, 10.0, 1e6, 8.1e76])
    def test_coercivity_passes_at_every_radius(self, radius):
        # sample scales spread from 1e-3 to 0.8 of the radius, so det F^p
        # at the largest cannot hide the well at the identity
        report = check_coercivity(PolarWellEnergy(admissible_radius=radius))
        assert report.passed, report.details
        assert 1.0 <= report.details["c_hat"] <= 1.02

    @pytest.mark.parametrize("radius", [0.5, 1e6, 8.1e76])
    def test_coercivity_fails_without_coercivity_at_every_radius(self,
                                                                 radius):
        energy = _ZeroEnergy()
        energy.admissible_radius = radius
        report = check_coercivity(energy, samples=200)
        assert not report.passed
        assert report.details["c_hat"] == 0.0

    def test_nutrient_assumptions_pass(self):
        model = DetRatioNutrientModel(d0=1.0, beta0=0.5)
        report = check_nutrient_assumptions(model, samples=500)
        assert report.passed
        assert report.details["min_eigenvalue"] >= model.ellipticity_nu

    def test_nutrient_eigenvalues_without_compression(self):
        model = DetRatioNutrientModel(d0=np.diag([2.0, 3.0]), beta0=0.0)
        G = np.eye(2)[None]
        D, beta = model.coefficients(G, G, np.zeros((1, 2)))
        assert np.allclose(np.linalg.eigvalsh(D[0]), [2.0, 3.0])
        assert beta[0] == 0.0

    def test_nutrient_frame_indifference(self):
        report = check_nutrient_frame_indifference(
            DetRatioNutrientModel(d0=np.diag([1.0, 2.0]), beta0=0.3),
            samples=500)
        assert report.passed


class TestGrowthLaws:
    def test_zero_law(self):
        law = ZeroGrowthLaw()
        G = np.eye(2)[None]
        assert np.array_equal(law.evaluate(G, G, np.zeros(1), np.zeros((1, 2))),
                              np.zeros((1, 2, 2)))

    def test_product_law_identity(self):
        law = ProductGrowthLaw()
        G = np.eye(2)[None]
        assert np.allclose(law.evaluate(G, G, np.zeros(1), np.zeros((1, 2))),
                           np.eye(2))

    def test_product_law_is_matrix_product(self):
        rng = np.random.default_rng(2)
        law = ProductGrowthLaw()
        G = sample_admissible(rng, 10)
        Y = sample_admissible(rng, 10)
        assert np.allclose(law.evaluate(G, Y, np.zeros(10), np.zeros((10, 2))),
                           G @ Y)

    def test_stress_modulated_zero_nutrient(self):
        law = StressModulatedGrowthLaw(PolarWellEnergy(), eta="linear")
        G = 1.1 * np.eye(2)[None]
        rate = law.evaluate(G, G, np.zeros(1), np.zeros((1, 2)))
        assert np.allclose(rate, 0.0)

    def test_stress_modulated_degenerate_exponential(self):
        # constant response and stress-blind factor: rate reduces to G
        law = StressModulatedGrowthLaw(PolarWellEnergy(), gamma=1.0,
                                       eta="constant", mu="identity")
        rng = np.random.default_rng(8)
        G = sample_admissible(rng, 20, radius=0.2)
        rate = law.evaluate(G, G, np.ones(20), np.zeros((20, 2)))
        assert np.allclose(rate, G)

    def test_stress_modulated_uses_stress(self):
        law = StressModulatedGrowthLaw(PolarWellEnergy(), eta="constant",
                                       mu="linear_stress", mu_coeff=0.5)
        G = np.eye(2)[None]
        Y = 1.1 * np.eye(2)[None]
        rate = law.evaluate(G, Y, np.ones(1), np.zeros((1, 2)))
        P = piola_kirchhoff(PolarWellEnergy(), np.zeros((1, 2)), G, Y)
        assert np.allclose(rate, (np.eye(2) + 0.5 * P[0]) @ G[0])

    def test_saturating_response(self):
        law = StressModulatedGrowthLaw(PolarWellEnergy(),
                                       eta="saturating")
        G = np.eye(2)[None]
        rate = law.evaluate(G, G, np.array([1.0]), np.zeros((1, 2)))
        assert np.allclose(rate, 0.5 * np.eye(2))

    def test_negative_nutrient_rejected(self):
        law = StressModulatedGrowthLaw(PolarWellEnergy())
        G = np.eye(2)[None]
        # a MorphosimError, so the coupled loop halts with a failure note
        with pytest.raises(ValidationError, match=r"non-negative \(min -1\)"):
            law.evaluate(G, G, np.array([-1.0]), np.zeros((1, 2)))


class TestNutrientModels:
    def test_det_ratio_reduction_on_compatible_states(self):
        rng = np.random.default_rng(6)
        model = DetRatioNutrientModel(d0=np.diag([1.5, 0.5]), beta0=2.0)
        G = sample_admissible(rng, 30, radius=0.2)
        x = np.zeros((30, 2))
        D, beta = model.coefficients(G, G, x)
        assert np.allclose(D, np.diag([1.5, 0.5]))
        assert np.allclose(beta, 2.0)

    def test_det_ratio_compression_scaling(self):
        # doubling the deformation gradient in d = 2 quarters D, quadruples beta
        model = DetRatioNutrientModel(d0=1.0, beta0=1.0)
        G = np.eye(2)[None]
        x = np.zeros((1, 2))
        D, beta = model.coefficients(G, 2.0 * G, x)
        assert np.allclose(D, 0.25 * np.eye(2))
        assert np.allclose(beta, 4.0)

    def test_det_ratio_scaling_identity(self):
        # scaling Y by s multiplies D by s^-d and beta by s^d, exactly
        rng = np.random.default_rng(12)
        model = DetRatioNutrientModel(d0=np.diag([2.0, 1.0]), beta0=0.7)
        G = sample_admissible(rng, 20, radius=0.2)
        Y = sample_admissible(rng, 20, radius=0.2)
        x = np.zeros((20, 2))
        s = 1.37
        D, beta = model.coefficients(G, Y, x)
        Ds, betas = model.coefficients(G, s * Y, x)
        assert np.allclose(Ds, s ** -2 * D, rtol=1e-13)
        assert np.allclose(betas, s ** 2 * beta, rtol=1e-13)

    def test_constant_model(self):
        model = ConstantNutrientModel(d0=np.diag([1.0, 3.0]), beta0=0.2)
        G = 1.3 * np.eye(2)[None]
        x = np.zeros((1, 2))
        D, beta = model.coefficients(G, 2 * G, x)
        assert np.allclose(D, np.diag([1.0, 3.0]))
        assert np.allclose(beta, 0.2)

    def test_spatial_fields(self):
        model = DetRatioNutrientModel(
            d0=lambda x: np.einsum("...i,ij->...ij",
                                   np.ones(np.asarray(x).shape[:-1] + (2,)),
                                   np.eye(2)) * (1 + x[..., :1, None]),
            beta0=lambda x: x[..., 0])
        G = np.broadcast_to(np.eye(2), (3, 2, 2))
        x = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        _, beta = model.coefficients(G, G, x)
        assert np.allclose(beta, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("d0", [
        1.7, np.array([[1.5, 0.3], [0.1, 0.5]])], ids=["scalar", "matrix"])
    @pytest.mark.parametrize("model,share", [
        (DetRatioNutrientModel, 0.25), (ConstantNutrientModel, 0.5)])
    def test_default_nu_is_a_share_of_d0(self, model, share, d0):
        # the default ellipticity constant, as each model computed it
        probe = d0 * np.eye(2) if np.ndim(d0) == 0 else d0
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (probe + probe.T))))
        nu = model(d0=d0).ellipticity_nu
        assert type(nu) is float and nu == share * lam
        assert model(d0=d0, ellipticity_nu=0.125).ellipticity_nu == 0.125


class TestComputedOnce:
    """The energy checks det F once; the nutrient model takes det Y from
    its caller.  Results equal the separate computations."""

    @pytest.mark.parametrize("dim", [2])
    def test_energy_matches_public_polar_kernels(self, dim):
        rng = np.random.default_rng(6)
        F = sample_admissible(rng, 50, d=dim)
        e = PolarWellEnergy()
        d = np.linalg.det(F)
        hp = 2.0 * d - 2.0 * d ** -3.0
        hs = 2.0 * d ** 0.0 + 6.0 * d ** -4.0
        eye = np.eye(dim)
        cof = tensor.cofactor(F)
        W = tensor.dist_so(F) ** 2 + d ** 2.0 + d ** -2.0 - 2.0
        P = 2.0 * (F - tensor.polar_rotation(F)) + hp[..., None, None] * cof
        H = 2.0 * (np.einsum("ik,jl->ijkl", eye, eye)
                   - tensor._polar_rotation_derivative_2d(F))
        H = H + hs[..., None, None, None, None] * np.einsum(
            "...ij,...kl->...ijkl", cof, cof)
        H = H + hp[..., None, None, None, None] * \
            tensor._COFACTOR_DERIVATIVE
        assert np.array_equal(e.evaluate(X0, F), W)
        assert np.array_equal(e.first_derivative(X0, F), P)
        assert np.array_equal(e.second_derivative(X0, F), H)

    def test_energy_keeps_its_checks(self):
        e = PolarWellEnergy()
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        for method in (e.evaluate, e.first_derivative, e.second_derivative):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                method(X0, bad)
            with pytest.raises(SingularMatrix):
                method(X0, np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("model", [
        DetRatioNutrientModel(d0=np.diag([1.5, 0.5]), beta0=0.7),
        ConstantNutrientModel(d0=np.diag([1.0, 3.0]), beta0=0.2)])
    def test_nutrient_coefficients_with_given_det(self, model):
        # det Y handed in by the nutrient solve gives the coefficients the
        # model computes from Y alone
        rng = np.random.default_rng(9)
        G = sample_admissible(rng, 40)
        Y = sample_admissible(rng, 40)
        x = rng.uniform(0.0, 1.0, size=(40, 2))
        D, beta = model.coefficients(G, Y, x, detY=np.linalg.det(Y))
        D_own, beta_own = model.coefficients(G, Y, x)
        assert np.array_equal(D, D_own)
        assert np.array_equal(beta, beta_own)
