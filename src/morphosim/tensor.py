"""Dense 2-by-2 matrix kernels and rotation-group geometry.

All functions accept stacked operands of shape ``(..., 2, 2)`` and
broadcast over the leading axes.  Everything here is a pure function of
its arguments, so concurrent use is safe.

Storage convention: row-major, index ``[i, j]`` = (row, column).  Fourth
order tensors are stored as ``(..., 2, 2, 2, 2)`` arrays; energy Hessians
use ``H[i, j, k, l] = d^2 W / dF_ij dF_kl`` and therefore carry the major
symmetry ``H[i, j, k, l] == H[k, l, i, j]``.
"""

import numpy as np

from .errors import SingularMatrix

#: det F <= SINGULARITY_REL * ||F||_F^2 fails `positive_det`.
SINGULARITY_REL = 1e-12

#: Smallest normal double: OpenBLAS divides by a pivot below it.
_TINY = np.finfo(float).tiny


def transpose(F):
    """Transpose of the trailing two axes."""
    return np.swapaxes(np.asarray(F), -1, -2)


def frobenius_norm(F):
    """Frobenius norm over the trailing two axes."""
    F = np.asarray(F)
    return np.sqrt(np.einsum("...ij,...ij->...", F, F))


def max_abs(F, shift=0.0):
    """Largest absolute entry of ``F - shift I`` over the trailing two
    axes, one 1-D operation per entry."""
    F = np.asarray(F)
    return np.maximum(
        np.maximum(np.abs(F[..., 0, 0] - shift), np.abs(F[..., 0, 1])),
        np.maximum(np.abs(F[..., 1, 0]), np.abs(F[..., 1, 1] - shift)))


def product(A, B):
    """Stacked (m, 2) by (2, n) product, entry by entry as einsum sums it:
    ``(0 + A[i, 0] B[0, k]) + A[i, 1] B[1, k]``, the zero start as +0.0
    added last (a sum is -0.0 only where every term is)."""
    C = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                 + (A.shape[-2], B.shape[-1]))
    for i, k in np.ndindex(C.shape[-2:]):
        c = A[..., i, 0] * B[..., 0, k]
        c += A[..., i, 1] * B[..., 1, k]
        C[..., i, k] = c
    C += 0.0
    return C


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


def positive_det(F):
    """det F over the trailing two axes: the one checked determinant.

    Raises ValueError on a non-finite entry and SingularMatrix where
    ``det F <= SINGULARITY_REL * ||F||_F^2``.
    """
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("matrix contains non-finite entries")
    d = det(F)
    if np.any(d <= SINGULARITY_REL * frobenius_norm(F) ** 2):
        raise SingularMatrix("determinant not positive to working precision")
    return d


def _lu(G):
    """LU factors of a flat stack G of shape (n, 2, 2), by the operations
    of OpenBLAS's 2x2 ``getrf``, which `np.linalg.det` and
    `np.linalg.inv` call.

    Partial pivoting (a tie keeps row 0) with a reciprocal pivot: for the
    pivot row (p0, p1) and the other row (q0, q1), returns ``swap`` (row 1
    is the pivot row), p0, ``l = q0 (1 / p0)`` and ``u22 = q1 - l p1``.
    Holds at most three float temporaries of the stack's length.
    """
    a, b = G[:, 0, 0], G[:, 0, 1]
    c, d = G[:, 1, 0], G[:, 1, 1]
    swap = np.abs(c) > np.abs(a)
    p0 = np.where(swap, c, a)
    l = np.where(swap, a, c)
    l *= 1.0 / p0
    # l p1 in place, then subtracted from q1 row by row, so that no
    # fourth buffer holds q1
    u22 = np.where(swap, d, b)
    u22 *= l
    np.subtract(d, u22, out=u22, where=~swap)
    np.subtract(b, u22, out=u22, where=swap)
    return swap, p0, l, u22


def det(F):
    """Determinant over the trailing two axes, byte for byte
    `np.linalg.det`, without one LAPACK call per matrix.

    numpy takes sign * exp(log|u11| + log|u22|) from the LU factors of
    `_lu`, through libm's `log` and `exp`; numpy runs its own `np.log` and
    `np.exp` in a scalar loop over libm, not in SIMD, when input and output
    strides have opposite signs, so each of the three calls writes into a
    reversed view.  A zero u22 gives +0.0, as LAPACK's singular exit does
    in numpy.  Rows with a subnormal or zero pivot, or with a non-finite
    result (a non-finite entry, or an overflow), are recomputed by
    `np.linalg.det`, with its warnings; the closed form itself warns of
    nothing.
    """
    F = np.asarray(F, dtype=float)
    G = F.reshape(-1, 2, 2)
    with np.errstate(all="ignore"):
        swap, p0, l, u22 = _lu(G)
        negative = swap ^ (p0 < 0.0)
        negative ^= u22 < 0.0
        negative &= u22 != 0.0
        np.abs(p0, out=p0)
        small = p0 < _TINY
        # l and p0 take the logs, reversed; their sum is exponentiated
        # back into natural order in u22
        np.log(p0, out=l[::-1])
        np.log(np.abs(u22, out=u22), out=p0[::-1])
        np.add(l, p0, out=l)
        np.exp(l, out=u22[::-1])
        np.negative(u22, out=u22, where=negative)
    small |= ~np.isfinite(u22)
    if small.any():
        u22[small] = np.linalg.det(G[small])
    return u22.reshape(F.shape[:-2])[()]


def inv(F):
    """Inverse over the trailing two axes, by the operations OpenBLAS's
    ``dgesv`` performs for `np.linalg.inv` on a 2x2 matrix.

    The LU factors of `_lu`, then one solve per column of the permuted
    identity with reciprocal pivots; the one fused multiply-add of the
    back substitution, ``round(1 - p1 x1)``, is computed exactly by
    `_one_minus_product` (within its range).  Unchecked, like
    `_polar_rotation_2d`: the caller has required det F > 0.
    """
    F = np.asarray(F, dtype=float)
    G = F.reshape(-1, 2, 2)
    swap, p0, l, u22 = _lu(G)
    p1 = np.where(swap, G[:, 1, 1], G[:, 0, 1])
    r0 = 1.0 / p0
    r22 = 1.0 / u22
    # x solves for the permuted right-hand side (1, 0) and y for (0, 1),
    # y1 = r22; y0's fused update from a zero start is the negated
    # product, zero signs included
    x1 = (0.0 - l) * r22
    x0 = _one_minus_product(p1, x1) * r0
    y0 = (0.0 - p1 * r22) * r0
    X = np.empty(G.shape)
    X[:, 0, 0] = np.where(swap, y0, x0)
    X[:, 1, 0] = np.where(swap, r22, x1)
    X[:, 0, 1] = np.where(swap, x0, y0)
    X[:, 1, 1] = np.where(swap, x1, r22)
    return X.reshape(F.shape)


#: Veltkamp's splitting constant 2^27 + 1.
_SPLIT = 134217729.0


def _split(a):
    """``a = hi + lo`` exactly, each half of at most 26 significant bits,
    so that a product of two halves is exact (Dekker 1971)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """``(h, t)`` with ``h = round(a b)`` and ``h + t = a b`` exactly."""
    ah, al = _split(a)
    bh, bl = _split(b)
    h = a * b
    return h, ((ah * bh - h) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """``(s, e)`` with ``s = round(a + b)`` and ``s + e = a + b`` exactly."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _one_minus_product(p, x):
    """``round(1 - p x)`` with one rounding, as a fused multiply-add.

    With ``p x = h + t`` and ``1 - h = s + e`` exactly, ``e - t`` rounded
    to odd and then added to s rounds ``1 - h - t`` correctly (Boldo &
    Melquiond, IEEE Trans. Comput. 57(4), 2008).  Exact when p and x are
    zero or of magnitude in [2^-450, 2^450]: no step then overflows, and
    every product of halves is exact.
    """
    h, t = _two_product(p, x)
    s, e = _two_sum(1.0, -h)
    v, err = _two_sum(e, -t)
    # round to odd: truncate toward zero, then set the last bit, where
    # v is inexact
    inexact = err != 0.0
    toward_zero = inexact & (np.signbit(v) != np.signbit(err))
    odd = (v.view(np.int64) - toward_zero) | inexact
    return s + odd.view(np.float64)


def cofactor(F):
    """Cofactor matrix, ``cof(F)[i, j] = d det(F) / d F[i, j]``.

    Polynomial in the entries, so no invertibility is required; for
    invertible F it equals ``det(F) * F^{-T}``.
    """
    F = np.asarray(F, dtype=float)
    c = np.empty_like(F)
    c[..., 0, 0] = F[..., 1, 1]
    c[..., 0, 1] = -F[..., 1, 0]
    c[..., 1, 0] = -F[..., 0, 1]
    c[..., 1, 1] = F[..., 0, 0]
    return c


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
#: Derivative ``d cof(F)[i, j] / d F[k, l]``, the same for every F.
_COFACTOR_DERIVATIVE = np.einsum("ik,jl->ijkl", _EPS2, _EPS2)


def polar_rotation(F):
    """Rotation factor of the polar decomposition, the nearest rotation to F.

    Uses the closed form ``R = (F + cof F) / |F + cof F|_row`` (robust
    arbitrarily close to rotations).

    Raises ValueError or SingularMatrix as `positive_det` does.
    """
    F = np.asarray(F, dtype=float)
    positive_det(F)
    return _polar_rotation_2d(F)


def _polar_rotation_2d(F):
    """Closed-form 2-d rotation factor ``(F + cof F) / |F + cof F|_row``.
    Unchecked: the caller has called `positive_det` on F."""
    p = F[..., 0, 0] + F[..., 1, 1]
    q = F[..., 0, 1] - F[..., 1, 0]
    r = np.hypot(p, q)
    R = np.empty_like(F)
    R[..., 0, 0] = R[..., 1, 1] = p / r
    R[..., 0, 1] = q / r
    R[..., 1, 0] = -q / r
    return R


def _entries(F):
    """The entries of a stack F (..., 2, 2) as one C-contiguous (4, N)
    array, entry-major in row-major entry order, so that every operation
    on it runs one inner loop N long per entry."""
    return np.ascontiguousarray(np.reshape(F, (-1, 4)).T)


def _stacked(E, shape, buffer=None):
    """The entry-major (4, 4, N) array E of a fourth-order tensor as the
    C-contiguous (shape..., 2, 2, 2, 2) stack, written into `buffer`, an
    array of E's size whose values are spent, when one is given."""
    stack = (np.empty(E.shape) if buffer is None else buffer).reshape(
        shape + (2, 2, 2, 2))
    np.copyto(np.moveaxis(stack.reshape(-1, 4, 4), 0, -1), E)
    return stack


#: Entry columns of the identity and of `_EPS2`: the derivatives of the
#: p and q of `_polar_rotation_2d` by F[k, l], kl flattened.
_DP = np.eye(2).reshape(4, 1)
_DQ = _EPS2.reshape(4, 1)


def _polar_rotation_derivative_2d(F):
    """Derivative ``d R(F)[i, j] / d F[k, l]`` of `_polar_rotation_2d`,
    differentiating the closed form directly, under the same
    preconditions; computed entry-major by
    `_polar_rotation_derivative_entries`."""
    F = np.asarray(F, dtype=float)
    return _stacked(_polar_rotation_derivative_entries(_entries(F)),
                    F.shape[:-2])


def _polar_rotation_derivative_entries(f):
    """`_polar_rotation_derivative_2d` of the stack with entries f (4, N)
    as a (4, 4, N) array, row ij and column kl: the 16 entries at once,
    each by the same operations in the same order."""
    p = f[0] + f[3]
    q = f[1] - f[2]
    r2 = p * p + q * q
    r = np.sqrt(r2)
    dr = p * _DP
    dr += q * _DQ
    dr /= r
    DR = np.empty((4, 4, f.shape[1]))
    np.divide(_DP, r, out=DR[0])
    DR[0] -= (p / r2) * dr
    DR[3] = DR[0]
    np.divide(_DQ, r, out=DR[1])
    DR[1] -= (q / r2) * dr
    np.negative(DR[1], out=DR[2])
    return DR


def dist_so(F):
    """Frobenius distance from F to the rotation group SO(2).

    Equals ``||F - R(F)||_F`` with R(F) the polar rotation factor, and
    coincides with the l2 distance of the singular values of F to 1.
    """
    F = np.asarray(F, dtype=float)
    return frobenius_norm(F - polar_rotation(F))

