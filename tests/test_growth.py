import re

import numpy as np
import pytest

from morphosim.errors import GuardViolation
from morphosim.growth import (GuardConfig, TimeGrid, det_guard,
                              lipschitz_estimate, picard_step_control,
                              rk4_step)


def integrate(G0, rhs, t_end, dt, guards=None):
    G = np.array(G0, dtype=float, copy=True)
    steps = int(round(t_end / dt))
    t = 0.0
    for _ in range(steps):
        G, _ = rk4_step(G, rhs, t, dt, guards=guards)
        t += dt
    return G


class TestRK4:
    def test_zero_rate_is_identity_step(self):
        G = np.array([[[1.2, 0.1], [0.0, 0.9]]])
        out, _ = rk4_step(G, lambda t, Gs: np.zeros_like(Gs), 0.0, 0.1)
        assert np.array_equal(out, G)

    def test_exponential_single_step(self):
        dt = 0.05
        out, _ = rk4_step(np.eye(2)[None], lambda t, Gs: Gs, 0.0, dt)
        assert np.max(np.abs(out - np.exp(dt) * np.eye(2))) <= dt ** 5 / 10.0

    def test_exponential_order(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            G = integrate(np.eye(2)[None], lambda t, Gs: Gs, 1.0, dt)
            errors.append(abs(G[0, 0, 0] - np.e))
        assert 12.0 <= errors[0] / errors[1] <= 20.0
        assert 12.0 <= errors[1] / errors[2] <= 20.0

    def test_inflation_tracking_fourth_order(self):
        # rhs G/(1-t) with the time-dependent factor: solution (1-t)^-1
        def rhs(t, Gs):
            return Gs / (1.0 - t)

        errors = []
        for dt in (2e-3, 1e-3):
            G = integrate(np.eye(2)[None], rhs, 0.5, dt)
            errors.append(np.max(np.abs(G - 2.0 * np.eye(2))))
        assert errors[0] <= 1e-11
        assert errors[1] <= errors[0]

    def test_nodewise_permutation_invariance(self):
        rng = np.random.default_rng(0)
        G = np.eye(2) + 0.1 * rng.standard_normal((40, 2, 2))
        H = rng.standard_normal((40, 2, 2))

        def rhs(t, Gs):
            return Gs @ H

        perm = rng.permutation(40)
        inv = np.argsort(perm)
        plain = integrate(G, rhs, 0.1, 1e-2)

        def rhs_perm(t, Gs):
            return Gs @ H[perm]

        permuted = integrate(G[perm], rhs_perm, 0.1, 1e-2)
        assert np.array_equal(permuted[inv], plain)

    def test_traceless_multiplicative_conserves_volume(self):
        H = np.array([[0.7, 0.3], [0.4, -0.7]])
        G = integrate(np.eye(2)[None], lambda t, Gs: Gs @ H, 1.0, 1e-3)
        assert abs(np.linalg.det(G[0]) - 1.0) <= 1e-10

    def test_jacobi_lower_bound_along_trajectory(self):
        # det' = det tr(H), so det(t) >= det(0) exp(-t d |H|_max)
        H = np.array([[-0.5, 0.2], [0.1, 0.3]])
        bound_rate = 2.0 * np.max(np.abs(H))
        G = np.eye(2)[None]
        t, dt = 0.0, 1e-3
        while t < 1.0 - 1e-12:
            G, _ = rk4_step(G, lambda ts, Gs: Gs @ H, t, dt)
            t += dt
            assert np.linalg.det(G[0]) >= np.exp(-t * bound_rate) - 1e-8

    def test_stage_guard_violation(self):
        guards = GuardConfig(det_min=0.1, norm_max=1.5)

        def rhs(t, Gs):
            return 100.0 * Gs  # blows past the norm guard within one step

        with pytest.raises(GuardViolation):
            rk4_step(np.eye(2)[None], rhs, 0.0, 0.1, guards=guards)

    def test_nonfinite_rate_raises(self):
        def rhs(t, Gs):
            return np.full_like(Gs, np.nan)

        with pytest.raises(GuardViolation):
            rk4_step(np.eye(2)[None], rhs, 0.0, 0.1,
                     guards=GuardConfig(det_min=0.1, norm_max=10.0))


class TestGivenFirstStage:
    """A caller holding rhs(t, G) hands it over as the first stage."""

    @staticmethod
    def rhs_and_state():
        rng = np.random.default_rng(3)
        G = np.eye(2) + 0.1 * rng.standard_normal((7, 2, 2))
        H = 0.3 * rng.standard_normal((2, 2))
        calls = []

        def rhs(ts, Gs):
            calls.append(ts)
            return Gs @ H + ts * Gs
        return G, rhs, calls

    def test_bitwise_identical_to_evaluating_it(self):
        G, rhs, calls = self.rhs_and_state()
        guards = GuardConfig(det_min=0.1, norm_max=10.0)
        ref, _ = rk4_step(G, rhs, 0.2, 0.05, guards=guards)
        assert len(calls) == 4
        k1 = rhs(0.2, G)
        del calls[:]
        got, _ = rk4_step(G, rhs, 0.2, 0.05, guards=guards, k1=k1)
        assert len(calls) == 3 and 0.2 not in calls
        assert np.array_equal(got, ref)

    def test_given_stage_is_checked(self):
        G, rhs, _ = self.rhs_and_state()
        with pytest.raises(GuardViolation, match="non-finite"):
            rk4_step(G, rhs, 0.0, 0.1, k1=np.full_like(G, np.inf))
        with pytest.raises(GuardViolation, match="step start"):
            rk4_step(0.2 * G, rhs, 0.0, 0.1, k1=rhs(0.0, 0.2 * G),
                     guards=GuardConfig(det_min=0.1, norm_max=10.0))


class TestStepControl:
    def test_constant_rate_keeps_dt(self):
        assert picard_step_control(0.0, 0.0, 1.0, 0.25) == 0.25

    def test_lipschitz_budget(self):
        assert picard_step_control(10.0, 1.0, 1.0, 1.0) == pytest.approx(0.05)

    def test_blowup_proximity_shrinks(self):
        dt = picard_step_control(0.0, 1e9, 1.0, 1.0)
        assert dt == pytest.approx(0.5e-9)
        assert dt > 0.0

    def test_lipschitz_estimate(self):
        G1 = np.eye(2)[None]
        G2 = 1.1 * np.eye(2)[None]
        assert lipschitz_estimate(G1, G2, 2.0 * G1, 2.0 * G2) \
            == pytest.approx(2.0)
        assert lipschitz_estimate(G1, G1, G1, G1) == 0.0


class TestGuards:
    def test_identity_passes(self):
        report = det_guard(np.broadcast_to(np.eye(2), (10, 2, 2)),
                           GuardConfig(det_min=0.1, norm_max=5.0))
        assert not report.violated
        assert report.min_det == 1.0

    def test_norm_violation_at_late_time(self):
        # (1-t)^-1 at t = 0.9 has entries of size 10, beyond a guard of 5
        G = np.broadcast_to(10.0 * np.eye(2), (4, 2, 2))
        report = det_guard(G, GuardConfig(det_min=0.1, norm_max=5.0))
        assert report.violated
        assert report.max_norm == 10.0

    def test_messages_print_values_that_tell_apart(self):
        # a norm one rounding step past its guard, and a determinant
        # just below its guard, each print digits that parse back
        G = np.broadcast_to(10.000000000000112 * np.eye(2), (4, 2, 2))
        config = GuardConfig(det_min=0.1, norm_max=10.0)
        report = det_guard(G, config)
        value, guard = re.fullmatch(r"growth norm (\S+) above guard (\S+)",
                                    report.message).groups()
        assert float(value) == report.max_norm != float(guard)
        assert float(guard) == config.norm_max
        G = np.broadcast_to(np.diag([0.09999999999999999, 1.0]), (4, 2, 2))
        report = det_guard(G, config)
        value, guard = re.fullmatch(
            r"growth determinant (\S+) below guard (\S+)",
            report.message).groups()
        assert float(value) == report.min_det != float(guard)
        assert float(guard) == config.det_min

    def test_det_violation(self):
        G = np.broadcast_to(0.2 * np.eye(2), (4, 2, 2))
        report = det_guard(G, GuardConfig(det_min=0.1, norm_max=50.0))
        assert report.violated  # det = 0.04 < 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(det_min=0.0)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0, dt=0.1)
