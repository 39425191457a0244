"""morphosim: finite-element simulation of nutrient-driven morphoelastic
growth.

The deformation gradient splits multiplicatively into an elastic factor
and a growth tensor; equilibrium and nutrient transport are quasi-static
solves for the current growth field, which itself evolves by a pointwise
ODE.  See README.md for the module map and the benchmark suite.
"""

from . import errors
from .coupled import SystemState, Trajectory, run_coupled, write_outputs
from .elasticity import (EquilibriumProblem, EquilibriumSolution,
                         SolverOptions, assemble_linearized_at_zero,
                         elastic_energy, lift_dirichlet, residual,
                         solve_equilibrium, solve_fixed_point, solve_newton,
                         stress_field)
from .fem import (DirichletSystem, assemble_scalar_operator,
                  assemble_vector_operator, dirichlet_system,
                  interpolate_gradient, nodal_from_cells)
from .growth import (GuardConfig, TimeGrid, det_guard, picard_step_control,
                     rk4_step)
from .materials import (CheckReport, ConstantNutrientModel,
                        DetRatioNutrientModel, EnergyModel, GrowthLaw,
                        NutrientModel, PolarWellEnergy, ProductGrowthLaw,
                        StressModulatedGrowthLaw, ZeroGrowthLaw,
                        check_coercivity, check_frame_indifference,
                        check_nutrient_assumptions,
                        check_nutrient_frame_indifference, piola_kirchhoff)
from .mesh import Mesh, read_mesh, rectangle_mesh, write_mesh
from .nutrient import (NutrientProblem, NutrientSolution,
                       nutrient_coefficient_fields, solve_nutrient)
from .scenario import (Scenario, load_scenario, require_valid,
                       validate_scenario)
from .tensor import (cofactor, dist_so, frobenius_norm, polar_rotation,
                     positive_det, rotation, transpose)

__version__ = "0.1.0"
