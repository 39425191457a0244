"""Equilibrium solves: the frozen-linearization contraction versus Newton.

A small normal traction pulls on the free part of the boundary while the
left edge stays pinned.  The frozen map assembles its stiffness once at
zero displacement and then just re-solves against updated residuals; each
sweep shrinks the update by a roughly constant factor (a contraction).
Newton converges in a few sweeps to the same displacement field.
"""

import sys

import numpy as np

from morphosim import (EquilibriumProblem, PolarWellEnergy, SolverOptions,
                       rectangle_mesh, solve_fixed_point, solve_newton)


def make_problem(traction):
    mesh = rectangle_mesh(16, 16, elastic_dirichlet="left")
    return EquilibriumProblem(
        mesh, PolarWellEnergy(),
        growth=lambda pts: np.broadcast_to(
            np.eye(2), np.asarray(pts).shape[:-1] + (2, 2)).copy(),
        dirichlet_data=lambda pts: np.asarray(pts, dtype=float),
        neumann_traction=lambda pts, n: traction * np.asarray(n),
        options=SolverOptions(diagnostics=sys.stdout))


print("=== frozen-linearization sweeps (traction 0.01 * n) ===")
print("k,increment,residual,rho_hat")
fp = solve_fixed_point(make_problem(0.01))
print()
print("converged in %d sweeps, max |u| = %.4e, contraction ratio %.3f"
      % (fp.iterations, np.max(np.abs(fp.displacement)), fp.rho_hat))

print()
print("=== Newton on the same problem ===")
newton_problem = make_problem(0.01)
newton_problem.options.diagnostics = None
nw = solve_newton(newton_problem)
print("converged in %d sweeps, residual %.3e" % (nw.iterations,
                                                 nw.residual_norm))
diff = np.max(np.abs(fp.displacement - nw.displacement))
print("largest nodal difference between the two solvers: %.3e" % diff)

print()
print("=== pushing the data outside the contraction regime ===")
hard = make_problem(0.5)
hard.options.diagnostics = None
try:
    solve_fixed_point(hard)
except Exception as exc:
    print("frozen map at traction 0.5: %s: %s" % (type(exc).__name__, exc))
print("(Newton with backtracking still handles moderately larger loads;")
print(" the frozen map is exactly the regime the theory controls.)")
