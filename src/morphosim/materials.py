"""Material models: elastic energy densities, growth laws, nutrient
coefficients, and numerical checkers for their structural assumptions.

All evaluation methods are vectorized over stacked arguments and pure;
models are immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import OutsideAdmissibleBall, SingularMatrix, ValidationError


# ---------------------------------------------------------------------------
# elastic energy


class EnergyModel:
    """Hyperelastic energy density W(x, F) defined on a matrix ball around
    the identity.

    Subclasses provide `evaluate`, `first_derivative` and
    `second_derivative`, all vectorized over ``x: (..., 2)`` points and
    ``F: (..., 2, 2)`` matrices.  Each also takes ``det``, the value of
    `tensor.positive_det` at F that a caller already holds; without it
    they compute and check it themselves.  The model promises

    * W(x, F) >= 0 with W(x, 1) = 0 (unstressed reference),
    * D_pW(x, 1) = 0 (the identity is an interior minimum),
    * major symmetry of the Hessian,

    on the ball ``max |F - 1| < admissible_radius`` (infinity matrix norm).
    """

    admissible_radius = 0.5

    def evaluate(self, x, F, det=None):
        raise NotImplementedError

    def first_derivative(self, x, F, det=None):
        raise NotImplementedError

    def second_derivative(self, x, F, det=None):
        raise NotImplementedError


def max_admissible_radius(p):
    """The largest radius whose ball (|det F| <= 2 (1 + radius)^2) keeps det F
    and det F^p finite, less 1e-12 relative against rounding."""
    big = np.finfo(float).max
    return min(np.sqrt(big) / 2.0,
               (np.sqrt(big ** (1.0 / p) / 2.0) - 1.0) * (1.0 - 1e-12))


class PolarWellEnergy(EnergyModel):
    """Isotropic energy with a well on the rotation group and a volume well.

        W(F) = dist(F, SO(2))^2 + det(F)^p + det(F)^(-p) - 2

    The distance term is the squared Frobenius distance to the nearest
    rotation (polar factor); the determinant terms vanish exactly at unit
    volume ratio.  W is frame indifferent, vanishes exactly on SO(2), and
    is smooth wherever det F > 0.

    Derivatives are assembled analytically: the distance term contributes
    2(F - R(F)) because R(F) is the nearest-point projection onto SO(2),
    and the determinant terms follow from the cofactor rule.
    """

    def __init__(self, p=2, admissible_radius=0.5):
        self.p = float(p)
        self.admissible_radius = float(admissible_radius)
        # tested as not in range, so that NaN fails too
        if not 1.0 <= self.p < np.inf:
            raise ValueError("volume exponent p must be finite and >= 1")
        bound = max_admissible_radius(self.p)
        if not bound > 0.0:
            raise ValueError(
                "no admissible radius keeps det F^p finite at p = %g: the "
                "volume exponent must be below 1024" % self.p)
        if not 0.0 < self.admissible_radius <= bound:
            raise ValueError(
                "admissible_radius must be positive and at most %.6g, the "
                "largest radius whose ball has finite det F and det F^p at "
                "p = %g" % (bound, self.p))

    # The unchecked polar kernels below run after `tensor.positive_det`,
    # here or in the caller that passes `det`, which is the check
    # `tensor.polar_rotation` makes.

    def evaluate(self, x, F, det=None):
        F = np.asarray(F, dtype=float)
        d = tensor.positive_det(F) if det is None else det
        p = self.p
        dist = tensor.frobenius_norm(F - tensor._polar_rotation_2d(F))
        return dist ** 2 + d ** p + d ** (-p) - 2.0

    def first_derivative(self, x, F, det=None):
        F = np.asarray(F, dtype=float)
        d = tensor.positive_det(F) if det is None else det
        p = self.p
        hprime = p * d ** (p - 1) - p * d ** (-p - 1)
        # + hprime cof F entry by entry, cof F = [[F11, -F10], [-F01, F00]]
        DW = 2.0 * (F - tensor._polar_rotation_2d(F))
        DW[..., 0, 0] += hprime * F[..., 1, 1]
        DW[..., 0, 1] -= hprime * F[..., 1, 0]
        DW[..., 1, 0] -= hprime * F[..., 0, 1]
        DW[..., 1, 1] += hprime * F[..., 0, 0]
        return DW

    def second_derivative(self, x, F, det=None):
        F = np.asarray(F, dtype=float)
        d = tensor.positive_det(F) if det is None else det
        p = self.p
        hprime = p * d ** (p - 1) - p * d ** (-p - 1)
        hsecond = p * (p - 1) * d ** (p - 2) + p * (p + 1) * d ** (-p - 2)
        # the 16 entries at once, entry-major (4, 4, N) as
        # `tensor._polar_rotation_derivative_entries` returns them; each
        # entry is 2 (I - DR), then + h'' (cof_ij cof_kl), then + h' dcof.
        # I - DR is never -0.0, so einsum's zero start in cof cof is moot
        f = tensor._entries(F)
        H = tensor._polar_rotation_derivative_entries(f)
        np.subtract(_IDENTITY_ENTRIES, H, out=H)
        H *= 2.0
        # cof F = [[F11, -F10], [-F01, F00]], entries reversed, two negated
        cof = f[::-1].copy()
        np.negative(cof[1:3], out=cof[1:3])
        term = np.multiply(cof[:, None], cof)
        term *= np.reshape(hsecond, -1)
        H += term
        term[...] = _COFACTOR_DERIVATIVE_ENTRIES    # dcof h', in place
        term *= np.reshape(hprime, -1)
        H += term
        return tensor._stacked(H, F.shape[:-2], buffer=term)


#: The identity and `tensor._COFACTOR_DERIVATIVE` as entry-major (4, 4, 1)
#: columns for `PolarWellEnergy.second_derivative`.
_IDENTITY_ENTRIES = np.eye(4).reshape(4, 4, 1)
_COFACTOR_DERIVATIVE_ENTRIES = tensor._COFACTOR_DERIVATIVE.reshape(4, 4, 1)


def elastic_factor(energy, F, Ginv):
    """``(F_el, det F_el)`` for the split ``F = F_el G`` over broadcast
    stacks, F_el by `tensor.product`.

    Raises OutsideAdmissibleBall, naming the worst stack index, where F_el
    leaves the energy's ball, then as `tensor.positive_det` does.
    """
    Fel = tensor.product(F, Ginv)
    dev = tensor.max_abs(Fel, 1.0)
    worst = tuple(int(i) for i in np.unravel_index(np.argmax(dev), dev.shape))
    if dev[worst] >= energy.admissible_radius:
        raise OutsideAdmissibleBall(
            "elastic state left the admissible ball at index %s "
            "(max|F_el - 1| = %.4g)" % (worst, dev[worst]),
            worst_cell=worst[0] if worst else None,
            deviation=float(dev[worst]))
    return Fel, tensor.positive_det(Fel)


def grown_stress(energy, x, Fel, det, Ginv, detG):
    """First Piola-Kirchhoff stress ``det(G) DW(x, F_el) G^-T`` from
    `elastic_factor`'s output, DW G^-T by `tensor.product`."""
    P = tensor.product(energy.first_derivative(x, Fel, det=det),
                       tensor.transpose(Ginv))
    for i, k in np.ndindex(2, 2):
        P[..., i, k] *= detG
    return P


def piola_kirchhoff(energy, x, G, Y):
    """First Piola-Kirchhoff stress for growth tensor G and deformation
    gradient Y:  ``det(G) * D_pW(x, Y G^-1) * G^-T``.

    Vanishes whenever Y = G (compatible state: the elastic factor is the
    identity).  Raises SingularMatrix unless det G > 0 and
    OutsideAdmissibleBall when ``Y G^-1`` leaves the model ball.
    """
    G = np.asarray(G, dtype=float)
    detG = tensor.positive_det(G)
    Ginv = tensor.inv(G)
    Fel, det = elastic_factor(energy, np.asarray(Y, dtype=float), Ginv)
    return grown_stress(energy, x, Fel, det, Ginv, detG)


# ---------------------------------------------------------------------------
# growth laws


class GrowthLaw:
    """Right-hand side of the pointwise growth ODE, ``dG/dt = rate``.

    `evaluate(G, Y, N, x)` is vectorized over nodes:  G and Y are stacked
    matrices, N a stacked scalar (nutrient concentration, >= 0), x the
    stacked material points.  The flags `needs_deformation` /
    `needs_nutrient` let drivers skip subsolves whose output the law
    ignores; a law whose `needs_deformation` is False is passed Y = None
    and must not read it.
    """

    needs_deformation = True
    needs_nutrient = True

    def evaluate(self, G, Y, N, x):
        raise NotImplementedError


class ZeroGrowthLaw(GrowthLaw):
    """Static growth tensor (rate identically zero)."""

    needs_deformation = False
    needs_nutrient = False

    def evaluate(self, G, Y, N, x):
        return np.zeros_like(np.asarray(G, dtype=float))


class ProductGrowthLaw(GrowthLaw):
    """Growth rate equal to the product of growth tensor and deformation
    gradient: ``rate = G Y``.

    Drives the analytic benchmark: with boundary data stretching the body
    by 1/(1-t) and compatible unit initial growth, the solution is
    G(t) = (1-t)^-1 * 1 and the deformation stays stress free.
    """

    needs_nutrient = False

    def evaluate(self, G, Y, N, x):
        return np.asarray(G, dtype=float) @ np.asarray(Y, dtype=float)


# named eta(N) response curves for the stress-modulated law
ETA_RESPONSES = {
    "constant": lambda N: np.ones_like(np.asarray(N, dtype=float)),
    "linear": lambda N: np.asarray(N, dtype=float),
    "saturating": lambda N: np.asarray(N, dtype=float) / (1.0 + np.asarray(N, dtype=float)),
}


class StressModulatedGrowthLaw(GrowthLaw):
    """Multiplicative growth law modulated by nutrients and elastic stress:

        rate = gamma(x) * eta(N) * mu(P(Y, G)) * G

    with P the first Piola-Kirchhoff stress computed from the configured
    energy model.  `eta` is one of the named response curves
    ('constant' | 'linear' | 'saturating'); `mu` maps stress to a matrix
    factor, either 'identity' (stress-blind) or 'linear_stress'
    (1 + mu_coeff * P).  `gamma` is a scalar spatial modulation, constant
    or callable on points.
    """

    def __init__(self, energy, gamma=1.0, eta="linear", mu="identity",
                 mu_coeff=0.0):
        if not (callable(gamma) or np.isfinite(gamma)):
            raise ValueError("gamma must be finite or callable")
        self.energy = energy
        self.gamma = gamma
        if eta not in ETA_RESPONSES:
            raise ValueError("unknown eta response %r" % (eta,))
        self.eta = ETA_RESPONSES[eta]
        if mu not in ("identity", "linear_stress"):
            raise ValueError("unknown mu response %r" % (mu,))
        self.mu_name = mu
        self.mu_coeff = float(mu_coeff)
        if not np.isfinite(self.mu_coeff):
            raise ValueError("mu_coeff must be finite")

    @property
    def needs_deformation(self):
        return self.mu_name == "linear_stress"

    def _gamma(self, x):
        if callable(self.gamma):
            return np.asarray(self.gamma(x), dtype=float)
        return float(self.gamma)

    def evaluate(self, G, Y, N, x):
        G = np.asarray(G, dtype=float)
        N = np.asarray(N, dtype=float)
        if np.any(N < 0.0):
            raise ValidationError("nutrient concentration must be "
                                  "non-negative (min %.6g)" % float(np.min(N)))
        scale = self._gamma(x) * self.eta(N)
        if self.mu_name == "identity":
            rate = G.copy()
        else:
            P = piola_kirchhoff(self.energy, x, G, np.asarray(Y, dtype=float))
            rate = (np.eye(2) + self.mu_coeff * P) @ G
        return np.asarray(scale)[..., None, None] * rate


# ---------------------------------------------------------------------------
# nutrient coefficient models


class NutrientModel:
    """Pointwise diffusion/absorption coefficients of the nutrient equation.

    `coefficients(G, Y, x, detY=None, detG=None)` returns ``(D, beta)``:
    stacked symmetric diffusion matrices (units area/time) with smallest
    eigenvalue >= `ellipticity_nu`, and stacked non-negative absorption
    rates (units 1/time).  `detY` and `detG`, when given, are det Y and
    det G already computed and checked by the caller.  The default
    `ellipticity_nu` is the model's `nu_share` of the smallest eigenvalue
    of sym(d0) at the origin.
    """

    nu_share = None

    def __init__(self, d0=1.0, beta0=0.0, ellipticity_nu=None):
        self.d0 = d0
        self.beta0 = beta0
        if ellipticity_nu is None:
            probe = _spatial_matrix(d0, np.zeros((1, 2)))[0]
            ellipticity_nu = self.nu_share * float(
                np.min(np.linalg.eigvalsh(0.5 * (probe + probe.T))))
        self.ellipticity_nu = float(ellipticity_nu)

    def coefficients(self, G, Y, x, detY=None, detG=None):
        raise NotImplementedError


def _spatial_matrix(value, x):
    if callable(value):
        return np.asarray(value(x), dtype=float)
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        value = value * np.eye(2)
    return np.broadcast_to(value, np.asarray(x).shape[:-1] + (2, 2)).copy()


def _spatial_scalar(value, x):
    if callable(value):
        return np.asarray(value(x), dtype=float)
    return np.broadcast_to(float(value), np.asarray(x).shape[:-1]).copy()


class DetRatioNutrientModel(NutrientModel):
    """Compression-sensitive coefficients built from reference fields:

        D(G, Y) = det(G)/det(Y) * D0,    beta(G, Y) = det(Y)/det(G) * beta0.

    Elastic compression (det Y < det G) lowers the diffusion rate and
    raises the absorption rate; both reduce to the reference coefficients
    for compatible states Y = G.  Frame indifferent in Y by construction
    (only det Y enters).
    """

    nu_share = 0.25

    def coefficients(self, G, Y, x, detY=None, detG=None):
        if detG is None:
            detG = tensor.det(G)
        if detY is None:
            detY = tensor.det(Y)
        if not (np.all(detY > 0.0) and np.all(detG > 0.0)):  # NaN fails
            raise SingularMatrix("det-ratio coefficients need positive determinants")
        r = detG / detY
        return (r[..., None, None] * _spatial_matrix(self.d0, x),
                _spatial_scalar(self.beta0, x) / r)


class ConstantNutrientModel(NutrientModel):
    """State-independent coefficients D0, beta0 (decoupling/testing aid)."""

    nu_share = 0.5

    def coefficients(self, G, Y, x, detY=None, detG=None):
        return _spatial_matrix(self.d0, x), _spatial_scalar(self.beta0, x)


# ---------------------------------------------------------------------------
# assumption checkers


@dataclass
class CheckReport:
    """Outcome of one sampled assumption check."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def __str__(self):
        body = ", ".join("%s=%s" % (k, _fmt(v)) for k, v in self.details.items())
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.name, body)


def _fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def _sample_admissible(rng, n, radius, min_det=0.15, smallest=None):
    """n random matrices in the entrywise ball around 1 with safe det; with
    `smallest`, each in a ball of its own radius, drawn log-uniformly from
    [smallest, radius]."""
    out = np.empty((n, 2, 2))
    k = 0
    while k < n:
        size = (2 * (n - k), 2, 2)
        scale = radius
        if smallest is not None:
            scale = np.exp(rng.uniform(np.log(smallest), np.log(radius),
                                       size=size[:1] + (1, 1)))
        batch = np.eye(2) + rng.uniform(-scale, scale, size=size)
        good = tensor.det(batch) > min_det
        take = batch[good][: n - k]
        out[k:k + len(take)] = take
        k += len(take)
    return out


def _sample_rotations(rng, n):
    return tensor.rotation(rng.uniform(0.0, 2.0 * np.pi, size=n))


def check_frame_indifference(model, samples=1000, seed=0):
    """Sample |W(x, QF) - W(x, F)| over random rotations Q and admissible F.

    Passes when the largest deviation is below ``1e-10 * (1 + |W|)``.
    """
    rng = np.random.default_rng(seed)
    F = _sample_admissible(rng, samples, 0.8 * model.admissible_radius)
    x = rng.uniform(0.0, 1.0, size=(samples, 2))
    Q = _sample_rotations(rng, samples)
    w = model.evaluate(x, F)
    wq = model.evaluate(x, Q @ F)
    err = np.abs(wq - w)
    tol = 1e-10 * (1.0 + np.abs(w))
    passed = bool(np.all(err <= tol))
    return CheckReport("frame_indifference", passed, {
        "samples": samples,
        "max_abs_diff": float(np.max(err)),
        "max_rel_diff": float(np.max(err / (1.0 + np.abs(w)))),
    })


def check_nutrient_frame_indifference(model, samples=1000, seed=0):
    """Sample invariance of D and beta under Y -> QY for rotations Q."""
    rng = np.random.default_rng(seed)
    G = _sample_admissible(rng, samples, 0.3)
    Y = _sample_admissible(rng, samples, 0.3)
    x = rng.uniform(0.0, 1.0, size=(samples, 2))
    Q = _sample_rotations(rng, samples)
    D, beta = model.coefficients(G, Y, x)
    DQ, betaQ = model.coefficients(G, Q @ Y, x)
    dD, db = np.abs(DQ - D), np.abs(betaQ - beta)
    scaleD, scaleb = 1.0 + np.abs(D), 1.0 + np.abs(beta)
    passed = bool(np.all(dD <= 1e-10 * scaleD) and np.all(db <= 1e-10 * scaleb))
    return CheckReport("nutrient_frame_indifference", passed, {
        "samples": samples,
        "max_diffusion_diff": float(np.max(dD)),
        "max_absorption_diff": float(np.max(db)),
    })


def check_coercivity(model, samples=1000, seed=0):
    """Estimate the coercivity constant and test the induced Hessian bound.

    Estimates ``c_hat = min W / dist(F, SO(2))^2`` over admissible samples
    (ignoring near-rotations where the quotient degenerates), each drawn
    in a ball whose radius is log-uniform from min(1e-3, 0.8 R) to 0.8 R,
    R the admissible radius, and verifies
    ``D_p^2 W(x, 1)[B, B] >= (c_hat / 2) |B + B^T|^2 - tol`` on random
    directions, with ``tol = 0.05 * (1 + |B + B^T|^2)``.  The slack
    absorbs the upward bias of the sampled minimum (c_hat can only
    overestimate the true constant, and equality holds for trace-free
    directions of the shipped energy).  Fails when no positive constant is
    found or the Hessian bound is violated beyond the slack.
    """
    rng = np.random.default_rng(seed)
    # sample scales spread log-uniformly up to 0.8 of the radius: at one
    # scale near a large radius, det F^p dominates W and c_hat says
    # nothing about the well at the identity that the Hessian bound tests
    largest = 0.8 * model.admissible_radius
    F = _sample_admissible(rng, samples, largest,
                           smallest=min(1e-3, largest))
    x = rng.uniform(0.0, 1.0, size=(samples, 2))
    dist2 = tensor.dist_so(F) ** 2
    keep = dist2 > 1e-8
    w = model.evaluate(x, F)
    if not np.any(keep):
        c_hat = 0.0
    else:
        c_hat = float(np.min(w[keep] / dist2[keep]))

    B = rng.standard_normal((samples, 2, 2))
    H = model.second_derivative(x, np.broadcast_to(np.eye(2), (samples, 2, 2)))
    quad = np.einsum("...ijkl,...ij,...kl->...", H, B, B)
    sym2 = np.einsum("...ij,...ij->...", B + tensor.transpose(B),
                     B + tensor.transpose(B))
    slack = quad - 0.5 * c_hat * sym2
    hess_ok = bool(np.all(slack >= -0.05 * (1.0 + sym2)))
    passed = c_hat > 0.0 and hess_ok
    return CheckReport("coercivity", passed, {
        "samples": samples,
        "c_hat": c_hat,
        "hessian_bound_ok": hess_ok,
        "worst_hessian_slack": float(np.min(slack)),
    })


def check_nutrient_assumptions(model, samples=1000, seed=0):
    """Sample symmetry, ellipticity >= nu of D, and non-negativity of beta."""
    rng = np.random.default_rng(seed)
    G = _sample_admissible(rng, samples, 0.3)
    Y = _sample_admissible(rng, samples, 0.3)
    x = rng.uniform(0.0, 1.0, size=(samples, 2))
    D, beta = model.coefficients(G, Y, x)
    sym_err = float(np.max(np.abs(D - tensor.transpose(D))))
    Dsym = 0.5 * (D + tensor.transpose(D))
    min_eig = float(np.min(np.linalg.eigvalsh(Dsym)))
    min_beta = float(np.min(beta))
    passed = (sym_err <= 1e-12 * (1.0 + float(np.max(np.abs(D))))
              and min_eig >= model.ellipticity_nu - 1e-12
              and min_beta >= 0.0)
    return CheckReport("nutrient_assumptions", passed, {
        "samples": samples,
        "symmetry_error": sym_err,
        "min_eigenvalue": min_eig,
        "nu": model.ellipticity_nu,
        "min_absorption": min_beta,
    })
