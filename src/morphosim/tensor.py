"""Dense d-by-d matrix kernels (d in {2, 3}) and rotation-group geometry.

All functions accept stacked operands of shape ``(..., d, d)`` and
broadcast over the leading axes.  Everything here is a pure function of
its arguments, so concurrent use is safe.

Storage convention: row-major, index ``[i, j]`` = (row, column).  Fourth
order tensors are stored as ``(..., d, d, d, d)`` arrays; energy Hessians
use ``H[i, j, k, l] = d^2 W / dF_ij dF_kl`` and therefore carry the major
symmetry ``H[i, j, k, l] == H[k, l, i, j]``.
"""

import numpy as np

from .errors import SingularMatrix

#: |det F| <= SINGULARITY_REL * ||F||_F^d is treated as singular.
SINGULARITY_REL = 1e-12

# Levi-Civita symbol for the 3d cofactor/rotation calculus.
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


def matmul(A, B):
    """Matrix product over the trailing two axes."""
    return np.asarray(A) @ np.asarray(B)


def transpose(F):
    """Transpose of the trailing two axes."""
    return np.swapaxes(np.asarray(F), -1, -2)


def trace(F):
    """Trace over the trailing two axes."""
    return np.einsum("...ii->...", np.asarray(F))


def frobenius_norm(F):
    """Frobenius norm over the trailing two axes."""
    F = np.asarray(F)
    return np.sqrt(np.einsum("...ij,...ij->...", F, F))


def max_abs(F):
    """Largest absolute entry over the trailing two axes."""
    F = np.asarray(F)
    return np.max(np.abs(F), axis=(-2, -1))


def det(F):
    return np.linalg.det(np.asarray(F))


def identity(d, like=None):
    """d-by-d identity, broadcast against `like` if given."""
    eye = np.eye(d)
    if like is None:
        return eye
    return np.broadcast_to(eye, np.asarray(like).shape).copy()


def rotation(theta):
    """2-by-2 rotation matrix (stacked if `theta` is an array)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    R = np.empty(theta.shape + (2, 2))
    R[..., 0, 0] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    R[..., 1, 1] = c
    return R


def singularity_threshold(F):
    """Scale-invariant singularity cutoff for `F`."""
    F = np.asarray(F)
    return SINGULARITY_REL * frobenius_norm(F) ** F.shape[-1]


def _check_finite(F, what="matrix"):
    if not np.all(np.isfinite(F)):
        raise ValueError("%s contains non-finite entries" % what)


def invert(F):
    """Inverse over the trailing two axes.

    Raises
    ------
    SingularMatrix
        If ``|det F| <= SINGULARITY_REL * ||F||_F^d`` anywhere in the
        stack.
    """
    F = np.asarray(F, dtype=float)
    _check_finite(F)
    d = np.linalg.det(F)
    if np.any(np.abs(d) <= singularity_threshold(F)):
        raise SingularMatrix("matrix is singular to working precision")
    return np.linalg.inv(F)


def cofactor(F):
    """Cofactor matrix, ``cof(F)[i, j] = d det(F) / d F[i, j]``.

    Polynomial in the entries, so no invertibility is required; for
    invertible F it equals ``det(F) * F^{-T}``.
    """
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if d == 2:
        c = np.empty_like(F)
        c[..., 0, 0] = F[..., 1, 1]
        c[..., 0, 1] = -F[..., 1, 0]
        c[..., 1, 0] = -F[..., 0, 1]
        c[..., 1, 1] = F[..., 0, 0]
        return c
    if d == 3:
        return 0.5 * np.einsum("ijk,pqr,...jq,...kr->...ip", _EPS3, _EPS3, F, F)
    raise ValueError("only d in {2, 3} is supported")


def det_derivative(F):
    """Derivative of the determinant with respect to the matrix entries."""
    return cofactor(F)


def cofactor_derivative(F):
    """Derivative ``d cof(F)[i, j] / d F[k, l]`` as a (..., d, d, d, d) array."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if d == 2:
        eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        D = np.einsum("ik,jl->ijkl", eps2, eps2)
        return np.broadcast_to(D, F.shape + (2, 2)).copy()
    if d == 3:
        return np.einsum("ikq,jls,...qs->...ijkl", _EPS3, _EPS3, F)
    raise ValueError("only d in {2, 3} is supported")


def polar_rotation(F):
    """Rotation factor of the polar decomposition, the nearest rotation to F.

    For d = 2 the closed form ``R = (F + cof F) / |F + cof F|_row`` is used
    (robust arbitrarily close to rotations); for d = 3 the rotation is built
    from the SVD with a sign fix on the last singular vector.

    Raises
    ------
    SingularMatrix
        If ``det F`` is not positive (beyond the scale-invariant cutoff).
    """
    F = np.asarray(F, dtype=float)
    _check_finite(F)
    d = F.shape[-1]
    detF = np.linalg.det(F)
    if np.any(detF <= singularity_threshold(F)):
        raise SingularMatrix("polar decomposition requires det F > 0")
    if d == 2:
        return _polar_rotation_2d(F)
    if d == 3:
        U, _, Vt = np.linalg.svd(F)
        R = U @ Vt
        flip = np.linalg.det(R) < 0
        if np.any(flip):
            U = U.copy()
            U[flip, :, -1] *= -1.0
            R = U @ Vt
        return R
    raise ValueError("only d in {2, 3} is supported")


def polar_rotation_derivative(F):
    """Derivative ``d R(F)[i, j] / d F[k, l]`` of the rotation factor.

    d = 2 differentiates the closed form directly.  d = 3 solves, per
    direction, the skew-symmetric equation obtained by differentiating
    F = R S: with ``a`` the axial vector of ``R^T dR``, one has
    ``((tr S) I - S) a = axial(R^T dF - dF^T R)``.
    """
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    R = polar_rotation(F)
    if d == 2:
        return _polar_rotation_derivative_2d(F)
    if d == 3:
        S = transpose(R) @ F
        S = 0.5 * (S + transpose(S))
        B = trace(S)[..., None, None] * np.eye(3) - S
        Binv = np.linalg.inv(B)
        # w[..., p, k, l] = axial(R^T E_kl - E_lk R)_p for unit directions E_kl
        w = np.einsum("ipl,...ki->...pkl", _EPS3, R)
        a = np.einsum("...mp,...pkl->...mkl", Binv, w)
        return np.einsum("...is,smj,...mkl->...ijkl", R, _EPS3, a)
    raise ValueError("only d in {2, 3} is supported")


def _polar_rotation_2d(F):
    """Closed-form 2-d rotation factor ``(F + cof F) / |F + cof F|_row``.
    Unchecked: the caller has established finite entries and det F > 0."""
    p = F[..., 0, 0] + F[..., 1, 1]
    q = F[..., 0, 1] - F[..., 1, 0]
    r = np.hypot(p, q)
    R = np.empty_like(F)
    R[..., 0, 0] = R[..., 1, 1] = p / r
    R[..., 0, 1] = q / r
    R[..., 1, 0] = -q / r
    return R


def _polar_rotation_derivative_2d(F):
    """Derivative of `_polar_rotation_2d`, under the same preconditions."""
    p = F[..., 0, 0] + F[..., 1, 1]
    q = F[..., 0, 1] - F[..., 1, 0]
    r2 = p * p + q * q
    r = np.sqrt(r2)
    dp = np.array([[1.0, 0.0], [0.0, 1.0]])
    dq = np.array([[0.0, 1.0], [-1.0, 0.0]])
    shape = F.shape[:-2]
    dr = (p[..., None, None] * dp + q[..., None, None] * dq) / r[..., None, None]
    dpr = dp / r[..., None, None] - (p / r2)[..., None, None] * dr
    dqr = dq / r[..., None, None] - (q / r2)[..., None, None] * dr
    DR = np.empty(shape + (2, 2, 2, 2))
    DR[..., 0, 0, :, :] = dpr
    DR[..., 1, 1, :, :] = dpr
    DR[..., 0, 1, :, :] = dqr
    DR[..., 1, 0, :, :] = -dqr
    return DR


def dist_so(F):
    """Frobenius distance from F to the rotation group SO(d).

    Equals ``||F - R(F)||_F`` with R(F) the polar rotation factor, and
    coincides with the l2 distance of the singular values of F to 1.
    """
    F = np.asarray(F, dtype=float)
    return frobenius_norm(F - polar_rotation(F))


def major_symmetry_error(H):
    """Relative deviation of a (..., d, d, d, d) tensor from major symmetry."""
    H = np.asarray(H)
    Ht = np.einsum("...ijkl->...klij", H)
    scale = np.max(np.abs(H))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(H - Ht)) / scale)
