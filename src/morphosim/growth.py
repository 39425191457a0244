"""Explicit time integration of the nodal growth-tensor field.

The growth ODE is pointwise, so one classical Runge-Kutta step acts on
the whole stacked field at once and never mixes nodes (unless the caller's
right-hand side itself couples them, as the stage re-solve mode of the
coupled driver does).  The ODE is well posed by a fixed-point argument:
on a short enough horizon, G -> G0 + int rate(G) dt keeps G in a ball
around G0 and contracts.  The loop steps on a fixed grid, and guards on
the nodal determinant and norm halt a run that leaves that regime.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import GuardViolation


@dataclass
class TimeGrid:
    """Uniform time grid; the last step is shortened to land on t_end."""

    t_end: float
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        # tested as not in range, so that NaN fails too
        if not 0.0 <= self.t0 < self.t_end < np.inf:
            raise ValueError("need 0 <= t0 < t_end < inf")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")


@dataclass
class GuardConfig:
    """Runaway guards for the growth field.

    `norm_max` bounds the largest absolute tensor entry per node (None:
    set to 10 * max|G0| by the driver); `det_min` the smallest nodal
    determinant.
    """

    det_min: float = 0.1
    norm_max: float = None

    def __post_init__(self):
        if not 0.0 < self.det_min < np.inf:
            raise ValueError("det_min must be positive and finite")
        if self.norm_max is not None and not 0.0 < self.norm_max < np.inf:
            raise ValueError("norm_max must be positive and finite")


@dataclass
class GuardReport:
    min_det: float
    max_norm: float
    violated: bool
    message: str = ""


def det_guard(G, config):
    """Report the nodal determinant/norm extremes against the guards."""
    G = np.asarray(G, dtype=float)
    min_det = float(np.min(tensor.det(G)))
    max_norm = float(np.max(tensor.max_abs(G)))
    message = ""
    # shortest round-trip digits, so a value just past its guard reads so;
    # each test is written so that a NaN fails it
    if not min_det >= config.det_min:
        message = ("growth determinant %r below guard %r"
                   % (min_det, float(config.det_min)))
    elif config.norm_max is not None and not max_norm <= config.norm_max:
        message = ("growth norm %r above guard %r"
                   % (max_norm, float(config.norm_max)))
    return GuardReport(min_det, max_norm, bool(message), message)


def _check_stage(G, config, label, report=None):
    """The guard report of G (`report` when the caller holds it), raising
    GuardViolation at `label` when it is violated; None without guards."""
    if config is None:
        return None
    if report is None:
        report = det_guard(G, config)
    if report.violated:
        raise GuardViolation("%s at %s" % (report.message, label),
                             report=report)
    return report


def rk4_step(G, rhs, t, dt, guards=None, k1=None, start_report=None):
    """One classical 4th-order Runge-Kutta step of ``dG/dt = rhs(t, G)``.

    `rhs` receives the stage time and the full stacked field (n, d, d) and
    must return the stacked rate.  Stage states are guard-checked when a
    GuardConfig is supplied; non-finite rates also raise GuardViolation.
    A caller that already holds ``rhs(t, G)`` passes it as `k1`, which
    then serves as the first stage (checked like the others) instead of a
    fresh evaluation; one that holds ``det_guard(G, guards)`` passes it as
    `start_report`, which the step-start check then reads.

    Returns the new field and the `GuardReport` of its step-end check
    (None without guards), which the next step can take as its start.
    """
    G = np.asarray(G, dtype=float)

    def finite(ts, k):
        k = np.asarray(k, dtype=float)
        if not np.all(np.isfinite(k)):
            raise GuardViolation("non-finite growth rate at t = %.6g" % ts)
        return k

    def rate(ts, Gs):
        return finite(ts, rhs(ts, Gs))

    _check_stage(G, guards, "step start (t = %.6g)" % t, start_report)
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
    return Gnew, _check_stage(Gnew, guards, "step end (t = %.6g)" % (t + dt))
