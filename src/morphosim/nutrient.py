"""Linear elliptic reaction-diffusion solve for the nutrient concentration.

Coefficients depend pointwise on the growth tensor and the total
deformation gradient; both are sampled at the volume quadrature points
(the gradient is piecewise constant, the growth tensor P1-interpolated
unless supplied analytically).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fem, tensor
from .errors import NegativeSolutionWarning, SingularMatrix, ValidationError


@dataclass
class NutrientProblem:
    """One nutrient solve.

    `growth` is any description `fem.growth_at_quadrature` accepts;
    `growth_det`, when given, is det G of the sampled (cells, nq, 2, 2)
    `growth`, already computed and checked by the caller (the coupled loop
    hands over the equilibrium workspace's `Gq` and `detGq`, so G is
    sampled and its determinant taken once per state).
    `deformation` is the nodal total deformation y (not the displacement);
    `dirichlet_data` maps boundary points to concentrations >= 0 on the
    nutrient Dirichlet part and `neumann_flux` maps (points, normals) to
    the prescribed co-normal flux >= 0 (the physical outward flux is its
    negative).
    """

    mesh: object
    model: object
    growth: object
    deformation: np.ndarray
    dirichlet_data: object = None
    neumann_flux: object = None
    growth_det: np.ndarray = None


@dataclass
class NutrientSolution:
    concentration: np.ndarray
    min_value: float
    residual_norm: float
    deformation_gradient: np.ndarray  # (cells, 2, 2) grad y, as read


def nutrient_coefficient_fields(problem, Y=None):
    """Diffusion and absorption sampled at the quadrature points.

    Returns ``(D, beta)`` with shapes (cells, nq, 2, 2) and (cells, nq).
    `Y` is the per-cell gradient of the deformation when already taken.
    Raises SingularMatrix when the deformation gradient degenerates.
    """
    mesh = problem.mesh
    if Y is None:
        Y = fem.interpolate_gradient(mesh, problem.deformation)
    detY = tensor.det(Y)
    if not np.all(detY > 0.0):  # NaN fails
        raise SingularMatrix("deformation gradient with non-positive "
                             "determinant")
    nq = mesh.quad_points().shape[1]
    Yq = np.broadcast_to(Y[:, None], (mesh.num_cells, nq, 2, 2))
    detYq = np.broadcast_to(detY[:, None], (mesh.num_cells, nq))
    Gq = fem.growth_at_quadrature(mesh, problem.growth)
    x = mesh.quad_points()
    D, beta = problem.model.coefficients(Gq, Yq, x, detY=detYq,
                                         detG=problem.growth_det)
    return np.asarray(D, dtype=float), np.asarray(beta, dtype=float)


def solve_nutrient(problem):
    """First-order FEM solution of the nutrient equation.

    Dirichlet data is imposed strongly, the flux datum weakly as the
    `fem.boundary_load_vector` of the nutrient-Neumann facets.  The
    diffusion matrices must pass the model's ellipticity constant at every
    quadrature point (EllipticityViolation otherwise); a singular reduced
    operator (no Dirichlet part and vanishing absorption) raises
    SingularSystem.  A solution dipping below ``-1e-10 * scale`` emits
    NegativeSolutionWarning when the mesh is Delaunay-like
    (`fem.delaunay_like`), a verdict built only for such a dip.
    """
    mesh = problem.mesh
    Y = fem.interpolate_gradient(mesh, problem.deformation)
    D, beta = nutrient_coefficient_fields(problem, Y)

    nodes = mesh.nutrient_dirichlet_nodes()
    values = np.zeros(0)
    if len(nodes):
        if problem.dirichlet_data is None:
            raise ValidationError("nutrient Dirichlet facets present but no "
                                  "boundary data given")
        values = np.asarray(problem.dirichlet_data(mesh.vertices[nodes]),
                            dtype=float).reshape(len(nodes))
        if np.any(values < 0.0):
            raise ValidationError("nutrient Dirichlet data must be >= 0")

    K = fem.assemble_scalar_operator(
        mesh, D, reaction=beta, ellipticity_nu=problem.model.ellipticity_nu)
    rhs = np.zeros(mesh.num_vertices)
    if problem.neumann_flux is not None:
        def flux(points, normals):
            vals = np.asarray(problem.neumann_flux(points, normals),
                              dtype=float)
            if np.any(vals < 0.0):
                raise ValidationError("nutrient flux datum must be >= 0")
            return vals
        rhs = fem.boundary_load_vector(mesh, ~mesh.facet_nutrient_dirichlet,
                                       flux, 1)
    N, resid = fem.dirichlet_system(mesh, 1, nodes).solve(K, rhs, values)
    min_value = float(np.min(N))
    scale = max(1.0, float(np.max(np.abs(N))))
    if min_value < -1e-10 * scale and fem.delaunay_like(mesh):
        warnings.warn("nutrient solution dips to %.3e on a Delaunay-type "
                      "mesh" % min_value, NegativeSolutionWarning)
    return NutrientSolution(N, min_value, resid, Y)
