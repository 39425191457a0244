import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from morphosim import tensor
from morphosim.errors import SingularMatrix


def random_gl2(rng, n, spread=0.4, min_det=0.5, max_det=2.0):
    """Random 2x2 matrices with determinant inside [min_det, max_det]."""
    out = np.empty((n, 2, 2))
    k = 0
    while k < n:
        batch = np.eye(2) + rng.uniform(-spread, spread, size=(2 * n, 2, 2))
        d = np.linalg.det(batch)
        good = batch[(d >= min_det) & (d <= max_det)][: n - k]
        out[k:k + len(good)] = good
        k += len(good)
    return out


def dist_by_rotation_scan(F):
    """Brute-force distance to SO(2): dense scan over angles plus a local
    refinement, independent of the polar decomposition."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 20001)
    R = tensor.rotation(thetas)
    d = np.sqrt(np.sum((F[None] - R) ** 2, axis=(1, 2)))
    k = int(np.argmin(d))
    lo, hi = thetas[max(k - 1, 0)], thetas[min(k + 1, len(thetas) - 1)]
    for _ in range(60):  # bisection on the smooth 1d objective
        mids = np.linspace(lo, hi, 5)
        dm = np.sqrt(np.sum((F[None] - tensor.rotation(mids)) ** 2,
                            axis=(1, 2)))
        j = int(np.argmin(dm))
        lo, hi = mids[max(j - 1, 0)], mids[min(j + 1, 4)]
    return float(np.min(dm))


class TestPolarRotation:
    def test_identity_fixed_point(self):
        assert np.allclose(tensor.polar_rotation(np.eye(2)), np.eye(2),
                           atol=1e-14)

    def test_rotations_are_fixed_points(self):
        for theta in (0.1, 1.0, 2.5, -0.7):
            Q = tensor.rotation(theta)
            assert np.allclose(tensor.polar_rotation(Q), Q, atol=1e-13)

    def test_spd_factor_has_identity_rotation(self):
        assert np.allclose(tensor.polar_rotation(np.diag([2.0, 1.0])),
                           np.eye(2), atol=1e-14)

    def test_rotated_stretch(self):
        Q = tensor.rotation(np.pi / 4)
        F = Q @ np.diag([2.0, 1.0])
        R = tensor.polar_rotation(F)
        # oracle: R = U V^T from the SVD
        U, _, Vt = np.linalg.svd(F)
        assert np.allclose(R, U @ Vt, atol=1e-13)
        assert np.allclose(R, Q, atol=1e-13)

    def test_orthogonality_and_determinant_bulk(self):
        rng = np.random.default_rng(42)
        F = random_gl2(rng, 1000)
        R = tensor.polar_rotation(F)
        assert np.max(np.abs(tensor.transpose(R) @ R - np.eye(2))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            tensor.polar_rotation(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrix):
            tensor.polar_rotation(np.diag([1.0, -1.0]))  # det > 0 required


class TestDistSO:
    def test_identity(self):
        assert tensor.dist_so(np.eye(2)) == 0.0

    def test_diag_stretch(self):
        # singular values (2, 1): distance is the l2 gap to (1, 1)
        assert abs(tensor.dist_so(np.diag([2.0, 1.0])) - 1.0) <= 1e-14
        oracle = dist_by_rotation_scan(np.diag([2.0, 1.0]))
        assert abs(tensor.dist_so(np.diag([2.0, 1.0])) - oracle) <= 1e-9

    def test_small_stretch_after_rotation(self):
        eps = 1e-3
        F = tensor.rotation(0.8) @ np.diag([1.0 + eps, 1.0])
        assert abs(tensor.dist_so(F) - eps) <= 1e-12

    def test_left_rotation_invariance(self):
        rng = np.random.default_rng(7)
        F = random_gl2(rng, 300)
        Q = tensor.rotation(rng.uniform(0, 2 * np.pi, size=300))
        assert np.max(np.abs(tensor.dist_so(Q @ F) - tensor.dist_so(F))) <= 1e-12

    def test_singular_value_oracle(self):
        rng = np.random.default_rng(11)
        F = random_gl2(rng, 500)
        sv = np.linalg.svd(F, compute_uv=False)
        oracle = np.sum((sv - 1.0) ** 2, axis=1)
        assert np.max(np.abs(tensor.dist_so(F) ** 2 - oracle)) <= 1e-10

    def test_scan_oracle_random(self):
        rng = np.random.default_rng(13)
        for F in random_gl2(rng, 5):
            assert abs(tensor.dist_so(F) - dist_by_rotation_scan(F)) <= 1e-8


class TestCofactor:
    def test_identity(self):
        assert np.array_equal(tensor.cofactor(np.eye(2)), np.eye(2))

    def test_diag(self):
        assert np.allclose(tensor.cofactor(np.diag([3.0, 5.0])),
                           np.diag([5.0, 3.0]))

    @pytest.mark.parametrize("d", [2])
    def test_finite_difference(self, d):
        rng = np.random.default_rng(d)
        F = rng.standard_normal((100, d, d))
        C = tensor.cofactor(F)
        h = 1e-6
        for k in range(d):
            for l in range(d):
                E = np.zeros((d, d))
                E[k, l] = 1.0
                fd = (np.linalg.det(F + h * E) - np.linalg.det(F - h * E)) / (2 * h)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(C[:, k, l] - fd) / scale) <= 1e-7

    def test_matches_det_times_inverse_transpose(self):
        rng = np.random.default_rng(5)
        F = random_gl2(rng, 50)
        expected = np.linalg.det(F)[:, None, None] * tensor.transpose(
            np.linalg.inv(F))
        assert np.allclose(tensor.cofactor(F), expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2])
    def test_cofactor_derivative_fd(self, d):
        rng = np.random.default_rng(17 + d)
        F = np.eye(d) + 0.4 * rng.standard_normal((20, d, d))
        DC = tensor._COFACTOR_DERIVATIVE
        h = 1e-6
        for k in range(d):
            for l in range(d):
                E = np.zeros((d, d))
                E[k, l] = 1.0
                fd = (tensor.cofactor(F + h * E)
                      - tensor.cofactor(F - h * E)) / (2 * h)
                assert np.max(np.abs(DC[..., k, l] - fd)) <= 1e-8


class TestPositiveDet:
    def test_identity(self):
        assert tensor.positive_det(np.eye(2)) == 1.0

    def test_diagonal(self):
        assert np.isclose(tensor.positive_det(np.diag([2.0, 4.0])), 8.0)

    def test_matches_linalg_det(self):
        rng = np.random.default_rng(23)
        F = random_gl2(rng, 200)
        assert np.array_equal(tensor.positive_det(F), np.linalg.det(F))

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            tensor.positive_det(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_negative_det(self):
        F = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(SingularMatrix):
            tensor.positive_det(F)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            tensor.positive_det(np.array([[bad, 0.0], [0.0, 1.0]]))


def inverse_families(rng, n=20000):
    """Named stacks of nonsingular 2x2 matrices: near the identity, scaled
    over six decades, signed zeros in every slot, pivot ties |a| = |c| of
    both signs, diagonal, rotations and small integers."""
    families = {
        "near_identity": np.eye(2) + 1e-3 * rng.standard_normal((n, 2, 2)),
        "scaled": rng.standard_normal((n, 2, 2))
        * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1, 1)),
        "diagonal": np.eye(2) * rng.uniform(-4.0, 4.0, (n, 1, 2)),
        "rotations": tensor.rotation(rng.uniform(-4.0, 4.0, n)),
        "small_integers": rng.integers(-5, 6, (n, 2, 2)).astype(float),
    }
    zeros = rng.standard_normal((n, 2, 2))
    picked = rng.random(zeros.shape) < 0.3
    zeros[picked] = np.copysign(0.0, rng.standard_normal(picked.sum()))
    families["signed_zeros"] = zeros
    ties = rng.standard_normal((n, 2, 2))
    ties[:, 1, 0] = ties[:, 0, 0] * rng.choice([-1.0, 1.0], n)
    families["pivot_ties"] = ties
    return {name: F[np.linalg.det(F) != 0.0] for name, F in families.items()}


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert (hashlib.sha256(actual.tobytes()).hexdigest()
            == hashlib.sha256(expected.tobytes()).hexdigest())


def exact_one_minus_product(p, x):
    """round(1 - p x), once, from exact rational arithmetic."""
    return float(1 - Fraction(p) * Fraction(x))


def near_midpoint_inputs(rng, n):
    """(p, x) with 1 - p x within 2^-108 of a midpoint between two doubles
    next to 1, but not on it: a product h + t whose head h sits on a
    midpoint, 1 - h = s +- 2^-54, and whose tail t is k 2^-112 with
    0 < |k| <= 16.  Rounding e - t to nearest would land on +-2^-54 and
    leave a tie to s + e; only the rounding to odd keeps t's sign.

    With p = P 2^-52 and x = X 2^-60 for 53-bit integers P, X, that asks
    for P X = H 2^58 + k with H odd: X is k / P modulo 2^58, drawn until it
    has 53 bits.  Both signs are flipped at random and p, x are scaled by
    2^j and 2^-j, which leaves the product unchanged."""
    pairs = []
    while len(pairs) < n:
        draws = zip(rng.integers(2 ** 52, 2 ** 53, 1000).tolist(),
                    rng.integers(1, 17, 1000).tolist(),
                    rng.choice([-1, 1], 1000).tolist())
        for P, k, sign in draws:
            P, k = P | 1, sign * k
            X = k * pow(P, -1, 2 ** 58) % 2 ** 58
            if 2 ** 52 <= X < 2 ** 53 and (P * X - k) >> 58 & 1:
                pairs.append((P, X))
    signs = rng.choice([-1.0, 1.0], n)
    j = rng.integers(-20, 21, n)
    p = signs * np.ldexp([P for P, _ in pairs[:n]], j - 52)
    x = signs * np.ldexp([X for _, X in pairs[:n]], -j - 60)
    return p, x


class TestInv:
    @pytest.mark.parametrize("name", [
        "near_identity", "scaled", "signed_zeros", "pivot_ties", "diagonal",
        "rotations", "small_integers"])
    def test_matches_linalg_inv_bytes(self, name):
        F = inverse_families(np.random.default_rng(7))[name]
        assert len(F) > 1000
        assert_same_bytes(tensor.inv(F), np.linalg.inv(F))

    def test_pivot_ties_keep_row_zero(self):
        F = np.array([[[2.0, 1.0], [2.0, 3.0]], [[2.0, 1.0], [-2.0, 3.0]],
                      [[-2.0, 1.0], [2.0, 3.0]], [[-0.0, 1.0], [3.0, 0.0]]])
        assert_same_bytes(tensor.inv(F), np.linalg.inv(F))

    @pytest.mark.parametrize("shape", [(), (50,), (40, 3)])
    def test_stack_shapes(self, shape):
        rng = np.random.default_rng(11)
        F = random_gl2(rng, int(np.prod(shape, dtype=int))).reshape(
            shape + (2, 2))
        X = tensor.inv(F)
        assert_same_bytes(X, np.linalg.inv(F))
        # a transposed (non-contiguous) view of the same matrices
        assert_same_bytes(tensor.inv(tensor.transpose(F)),
                          np.linalg.inv(tensor.transpose(F)))

    def test_fused_update_random(self):
        rng = np.random.default_rng(13)
        p = rng.standard_normal(3000) * 10.0 ** rng.uniform(-3, 3, 3000)
        x = rng.standard_normal(3000) * 10.0 ** rng.uniform(-3, 3, 3000)
        got = tensor._one_minus_product(p, x)
        assert got.tolist() == [exact_one_minus_product(*px)
                                for px in zip(p, x)]

    def test_fused_update_near_midpoints(self):
        p, x = near_midpoint_inputs(np.random.default_rng(17), 1000)
        got = tensor._one_minus_product(p, x)
        assert got.tolist() == [exact_one_minus_product(*px)
                                for px in zip(p, x)]

    def test_fused_update_on_midpoints_ties_to_even(self):
        # 1 - (2i + 1) 2^-54 lies halfway between two doubles below 1
        x = np.array([(2 * i + 1) * 2.0 ** -54 for i in range(64)])
        for p in (1.0, 2.0 ** 10, 2.0 ** -10):
            got = tensor._one_minus_product(np.full_like(x, p), x / p)
            assert got.tolist() == [exact_one_minus_product(p, xi / p)
                                    for xi in x]
            assert np.all(got.view(np.int64) % 2 == 0)

    # entries zero or of magnitude in [1e-6, 1e6], so that every step of
    # the fused update stays inside its exact range
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0])
                    | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
                    min_size=4, max_size=4))
    def test_inverse_property(self, entries):
        F = np.array(entries).reshape(2, 2)
        norm = float(tensor.frobenius_norm(F))
        assume(abs(F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) > 1e-8 * norm ** 2)
        X = tensor.inv(F)
        tol = 8.0 * np.finfo(float).eps * norm * float(tensor.frobenius_norm(X))
        assert np.max(np.abs(F @ X - np.eye(2))) <= tol


def det_families(rng, n=20000):
    """Named stacks of 2x2 matrices: near the identity, entries scaled by
    e^U(-300, 300), signed zeros in every slot and zero columns, pivot
    ties |c| = |a| of both signs, singular rows, small integers, and NaN,
    inf, subnormal and overflowing entries."""
    families = {
        "near_identity": np.eye(2) + 0.3 * rng.standard_normal((n, 2, 2)),
        "scaled": rng.standard_normal((n, 2, 2))
        * np.exp(rng.uniform(-300.0, 300.0, (n, 2, 2))),
        "small_integers": rng.integers(-5, 6, (n, 2, 2)).astype(float),
    }
    zeros = rng.standard_normal((n, 2, 2))
    picked = rng.random(zeros.shape) < 0.3
    zeros[picked] = np.copysign(0.0, rng.standard_normal(picked.sum()))
    column = rng.integers(0, 2, n)
    rows = rng.random(n) < 0.2
    zeros[rows, :, column[rows]] = np.copysign(
        0.0, rng.standard_normal((rows.sum(), 2)))
    families["signed_zeros"] = zeros
    ties = rng.standard_normal((n, 2, 2))
    ties[:, 1, 0] = ties[:, 0, 0] * rng.choice([-1.0, 1.0], n)
    families["pivot_ties"] = ties
    # the second row a multiple of the first: by a small integer u22 is
    # often exactly zero, by a normal sample a rounding residue
    singular = rng.standard_normal((n, 2, 2))
    factor = np.where(rng.random(n) < 0.5, rng.integers(-3, 4, n),
                      rng.standard_normal(n))
    singular[:, 1] = factor[:, None] * singular[:, 0]
    families["singular"] = singular
    odd = rng.standard_normal((n, 2, 2))
    specials = np.array([np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                         1e-308, 1e300, -1e300])
    picked = rng.random(odd.shape) < 0.1
    odd[picked] = rng.choice(specials, picked.sum())
    families["non_finite_and_subnormal"] = odd
    return families


def recorded_det(det, F):
    """`det(F)` and the (category, message) of every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = det(F)
    return d, [(w.category, str(w.message)) for w in caught]


class TestDet:
    @pytest.mark.parametrize("name", [
        "near_identity", "scaled", "signed_zeros", "pivot_ties", "singular",
        "small_integers", "non_finite_and_subnormal"])
    def test_matches_linalg_det_bytes(self, name):
        F = det_families(np.random.default_rng(19))[name]
        d, caught = recorded_det(tensor.det, F)
        expected, expected_caught = recorded_det(np.linalg.det, F)
        assert_same_bytes(d, expected)
        # the NaN and overflow rows warn as numpy's own det does, once
        assert caught == expected_caught
        assert bool(caught) == (name == "non_finite_and_subnormal")

    def test_edge_rows_take_numpy_exits(self):
        # +0.0 for an exactly singular u22 of either sign; LAPACK's
        # singular exit, a subnormal pivot and an overflow go to numpy
        F = np.array([[[1.0, 2.0], [2.0, 4.0]], [[-1.0, 2.0], [2.0, -4.0]],
                      [[0.0, 1.0], [-0.0, 1.0]], [[5e-324, 1.0], [0.0, 1.0]],
                      [[1e300, 0.0], [0.0, 1e300]], [[2.0, 1.0], [-2.0, 3.0]]])
        d, caught = recorded_det(tensor.det, F)
        expected, expected_caught = recorded_det(np.linalg.det, F)
        assert_same_bytes(d, expected)
        assert not np.signbit(d[:3]).any()
        assert caught == expected_caught == [
            (RuntimeWarning, "overflow encountered in det")]

    @pytest.mark.parametrize("shape", [(), (3,), (5, 3), (2, 3, 4), (0,)])
    @pytest.mark.parametrize("name", ["near_identity", "small_integers"])
    def test_stack_shapes(self, shape, name):
        n = int(np.prod(shape, dtype=int))
        F = det_families(np.random.default_rng(29), n)[name].reshape(
            shape + (2, 2))
        assert_same_bytes(np.asarray(tensor.det(F)), np.asarray(
            np.linalg.det(F)))
        assert type(tensor.det(F)) is type(np.linalg.det(F))
        # a transposed (non-contiguous) view of the same matrices
        assert_same_bytes(np.asarray(tensor.det(tensor.transpose(F))),
                          np.asarray(np.linalg.det(tensor.transpose(F))))

    def test_temporaries_stay_below_four_stacks(self):
        # one 16384 x 3 stack: the result and at most two more float
        # buffers of its length are live at once, 1.43 MB (np.linalg.det
        # holds its result alone, 0.39 MB)
        F = np.eye(2) + 0.3 * np.random.default_rng(3).standard_normal(
            (16384, 3, 2, 2))
        tensor.det(F)
        tracemalloc.start()
        try:
            tensor.det(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_opposite_strides_run_libm(self):
        # tensor.det's bytes rest on this numpy property: float64 np.log
        # and np.exp run libm's log and exp, as math.log and math.exp do,
        # when input and output strides have opposite signs
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
        rng = np.random.default_rng(37)
        n = 100_000
        cases = [(np.log, math.log, np.exp(rng.uniform(-1.0, 1.0, n))),
                 (np.exp, math.exp, rng.uniform(-1.0, 1.0, n))]
        targets = opt_func_info(func_name="^(log|exp)$", signature="float64")
        for ufunc, libm, x in cases:
            expected = np.array([libm(v) for v in x])
            out = np.empty(n)
            ufunc(x, out=out[::-1])
            assert_same_bytes(out[::-1], expected)
            assert_same_bytes(ufunc(x[::-1])[::-1], expected)
            # numpy's AVX-512 loops differ from libm in the last bit on
            # some inputs, so these inputs do reach the loop the reversed
            # calls avoid; its AVX2 and baseline loops are libm's
            current = targets[ufunc.__name__]["dd"]["current"]
            if "X86_V4" in current or "AVX512" in current:
                assert not np.array_equal(ufunc(x), expected)


class TestPolarDerivative:
    @pytest.mark.parametrize("d", [2])
    def test_finite_difference(self, d):
        rng = np.random.default_rng(31 + d)
        F = np.eye(d) + 0.3 * rng.standard_normal((30, d, d))
        F = F[np.linalg.det(F) > 0.4]
        DR = tensor._polar_rotation_derivative_2d(F)
        h = 1e-6
        for k in range(d):
            for l in range(d):
                E = np.zeros((d, d))
                E[k, l] = 1.0
                fd = (tensor.polar_rotation(F + h * E)
                      - tensor.polar_rotation(F - h * E)) / (2 * h)
                assert np.max(np.abs(DR[..., k, l] - fd)) <= 2e-8


def test_basic_algebra_helpers():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 2, 2))
    assert np.allclose(tensor.transpose(A)[..., 0, 1], A[..., 1, 0])
    assert np.allclose(tensor.frobenius_norm(A),
                       np.sqrt(np.sum(A * A, axis=(1, 2))))
    assert tensor.max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
