"""Rotation-group geometry behind the elastic energy.

Walks through the polar decomposition, the Frobenius distance to SO(2),
and the energy well: the stored energy vanishes exactly on rotations at
unit volume and grows quadratically around them.
"""

import numpy as np

from morphosim import PolarWellEnergy, dist_so, polar_rotation, rotation

print("=== nearest rotations (polar factor) ===")
samples = {
    "identity": np.eye(2),
    "pure stretch diag(2, 1)": np.diag([2.0, 1.0]),
    "rotation(0.7)": rotation(0.7),
    "rotation(pi/4) @ diag(2, 1)": rotation(np.pi / 4) @ np.diag([2.0, 1.0]),
}
for name, F in samples.items():
    R = polar_rotation(F)
    print("%-28s -> dist to SO(2) = %8.5f, R =\n%s"
          % (name, dist_so(F), np.array_str(R, precision=4)))

print()
print("=== the energy well ===")
energy = PolarWellEnergy()
print("W(identity)      =", energy.evaluate(np.zeros(2), np.eye(2)))
print("W(rotation(1.0)) =", energy.evaluate(np.zeros(2), rotation(1.0)))
print("W(diag(2, 1))    =", energy.evaluate(np.zeros(2), np.diag([2.0, 1.0])))

# quadratic growth around the well: W(1 + eps B) ~ eps^2 H[B, B] / 2
rng = np.random.default_rng(0)
B = rng.standard_normal((2, 2))
H = energy.second_derivative(np.zeros(2), np.eye(2))
quad = 0.5 * np.einsum("ijkl,ij,kl->", H, B, B)
print()
print("Taylor check along a random direction B:")
for eps in (1e-1, 1e-2, 1e-3):
    w = energy.evaluate(np.zeros(2), np.eye(2) + eps * B)
    print("  eps = %.0e:  W / eps^2 = %10.6f   (quadratic form: %10.6f)"
          % (eps, w / eps ** 2, quad))

print()
print("The ratio converges to the Hessian form: the well is quadratic, with")
print("stiffness |B + B^T|^2 / 2 against shape changes and 8 (tr B)^2")
print("against volume changes.")
