"""Explicit time integration of the nodal growth-tensor field.

The growth ODE is pointwise, so one classical Runge-Kutta step acts on
the whole stacked field at once and never mixes nodes (unless the caller's
right-hand side itself couples them, as the stage re-solve mode of the
coupled driver does).  Guards watch the nodal determinant and norm; the
step-size control mirrors the admissible horizon of the contraction
argument behind the ODE's well-posedness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation


@dataclass
class TimeGrid:
    """Uniform time grid, optionally shortened adaptively per step."""

    t_end: float
    dt: float
    t0: float = 0.0
    adaptive: bool = False

    def __post_init__(self):
        if not (0.0 <= self.t0 < self.t_end):
            raise ValueError("need 0 <= t0 < t_end")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass
class GuardConfig:
    """Runaway guards for the growth field.

    `norm_max` bounds the largest absolute tensor entry per node (None:
    set to 10 * max|G0| by the driver); `det_min` the smallest nodal
    determinant; `contraction_budget` is the safety factor applied to the
    admissible-horizon step control.
    """

    det_min: float = 0.1
    norm_max: float = None
    contraction_budget: float = 0.5

    def __post_init__(self):
        if self.det_min <= 0.0:
            raise ValueError("det_min must be positive")


@dataclass
class GuardReport:
    min_det: float
    max_norm: float
    violated: bool
    message: str = ""


def det_guard(G, config):
    """Report the nodal determinant/norm extremes against the guards."""
    G = np.asarray(G, dtype=float)
    dets = np.linalg.det(G)
    norms = np.max(np.abs(G), axis=(-2, -1))
    min_det = float(np.min(dets))
    max_norm = float(np.max(norms))
    violated = False
    message = ""
    if min_det < config.det_min:
        violated = True
        message = ("growth determinant %.6g below guard %.6g"
                   % (min_det, config.det_min))
    elif config.norm_max is not None and max_norm > config.norm_max:
        violated = True
        message = ("growth norm %.6g above guard %.6g"
                   % (max_norm, config.norm_max))
    return GuardReport(min_det, max_norm, violated, message)


def _check_stage(G, config, label):
    if config is None:
        return
    report = det_guard(G, config)
    if report.violated:
        raise GuardViolation("%s at %s" % (report.message, label),
                             report=report)


def rk4_step(G, rhs, t, dt, guards=None, k1=None):
    """One classical 4th-order Runge-Kutta step of ``dG/dt = rhs(t, G)``.

    `rhs` receives the stage time and the full stacked field (n, d, d) and
    must return the stacked rate.  Stage states are guard-checked when a
    GuardConfig is supplied; non-finite rates also raise GuardViolation.
    A caller that already holds ``rhs(t, G)`` passes it as `k1`, which
    then serves as the first stage (checked like the others) instead of a
    fresh evaluation.
    """
    G = np.asarray(G, dtype=float)

    def finite(ts, k):
        k = np.asarray(k, dtype=float)
        if not np.all(np.isfinite(k)):
            raise GuardViolation("non-finite growth rate at t = %.6g" % ts)
        return k

    def rate(ts, Gs):
        return finite(ts, rhs(ts, Gs))

    _check_stage(G, guards, "step start (t = %.6g)" % t)
    k1 = rate(t, G) if k1 is None else finite(t, k1)
    s2 = G + 0.5 * dt * k1
    _check_stage(s2, guards, "stage 2 (t = %.6g)" % (t + 0.5 * dt))
    k2 = rate(t + 0.5 * dt, s2)
    s3 = G + 0.5 * dt * k2
    _check_stage(s3, guards, "stage 3 (t = %.6g)" % (t + 0.5 * dt))
    k3 = rate(t + 0.5 * dt, s3)
    s4 = G + dt * k3
    _check_stage(s4, guards, "stage 4 (t = %.6g)" % (t + dt))
    k4 = rate(t + dt, s4)
    Gnew = G + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_stage(Gnew, guards, "step end (t = %.6g)" % (t + dt))
    return Gnew


def picard_step_control(k_hat, m_hat, r0, dt, safety=0.5):
    """Admissible step size from estimated Lipschitz constant and bound.

    Returns ``min(dt, safety * r0 / m_hat, safety / k_hat)`` (singular
    terms dropped): the step must both keep the state inside the remaining
    radius r0 and keep the contraction budget ``k_hat * dt`` below one.
    """
    candidates = [float(dt)]
    if m_hat > 0.0:
        candidates.append(safety * r0 / m_hat)
    if k_hat > 0.0:
        candidates.append(safety / k_hat)
    return min(candidates)


def lipschitz_estimate(G1, G2, rate1, rate2):
    """Finite-difference Lipschitz estimate between two field states."""
    dG = float(np.max(np.abs(np.asarray(G1) - np.asarray(G2))))
    if dG <= 1e-300:
        return 0.0
    dr = float(np.max(np.abs(np.asarray(rate1) - np.asarray(rate2))))
    return dr / dG


def gradient_surrogate(mesh, G):
    """Largest per-cell finite-difference of the nodal growth field, a
    crude surrogate for its spatial regularity (reported, never asserted)."""
    G = np.asarray(G, dtype=float)
    local = G[mesh.cells]
    spread = local.max(axis=1) - local.min(axis=1)
    return float(np.max(spread)) if spread.size else 0.0
