"""Integral-relation kernels and their numerical verification.

Two kernels connect the members of each solution pair: applying the
transform integral to the member built at infinity reproduces the member
built at zero up to a constant.  This module evaluates the kernels,
checks the adjoint-operator identity with exact derivatives, performs the
transform quadrature, monitors the boundary ('integrated') terms, and
verifies the closed-form integrals the derivations rest on.

A kernel is K = Pz(z) Pt(t) (xi - 1)^pw, its two factors given as
``GaugeMap`` objects, so its jets in z and in t come from the gauges'
``prefactor_derivatives`` and core's jet rules.  The adjoint identity
applies ``core.residual`` at the parameters with B3 = 0 in z, and at the
r2 image of those parameters, the formal adjoint, in t.

A kernel kind is described once, by its sign (+1 for K1, -1 for K2) and
its power exponent: the half-plane and parameter conditions, the
contour variable and the predicted boundary decay all follow from those
two.  The transform's integrand (``_integrand``) is written once too:
``transform`` integrates it, and ``verify_boundary_terms`` multiplies it
by the bilinear concomitant at its sample points.

Integrands over (1, inf) are numpy functions of the array of quadrature
nodes: ``transform`` evaluates the infinity member on each batch of nodes
in one call, and the boundary terms on all their sample points in one
call.  The A2, A3 and Whittaker integrands call ``hyp_u`` or
``whittaker_w`` once per batch, on the array of its nodes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DcheParams, GaugeMap, apply_rule, jet_chain, jet_product, residual
from .errors import BranchError, ConditionError, QuadratureError
from .quadrature import exp_sinh
from .specialfn import gamma, hyp_u, whittaker_w
from .tolerances import ADJOINT_GRID, BRANCH_TOL, MAGNITUDE_FLOOR, RATIO_TOL


@dataclass(frozen=True)
class KernelSpec:
    """One of the two transform kernels, bound to a parameter set.

    kind K1: K = e^{i w (z+t) + B1/z} z^(2-B2) (xi - 1)^(B2/2 - i eta - 2),
    xi = -2 i w z t / B1; valid for Re(B2/2 - i eta - 1) > 0, Re(B1/z) > 0.
    kind K2: K = e^{i w (z+t) - B1/t} t^(B2-2) (zeta - 1)^(-B2/2 - i eta),
    zeta = 2 i w z t / B1; valid for Re(B2/2 + i eta - 1) < 0, Re(B1/z) < 0.
    Contour endpoints are fixed at xi (or zeta) = 1 and infinity.

    Both conditions read Re(power_exponent + 1) > 0 and sign Re(B1/z) > 0,
    and the contour variable is -sign 2 i w z t / B1.
    """

    kind: str
    params: DcheParams

    def __post_init__(self):
        if self.kind not in ("K1", "K2"):
            raise ValueError("kind must be K1 or K2")
        self.params.require_nondegenerate()

    @property
    def sign(self) -> int:
        """+1 for K1, -1 for K2: the side of Re(B1/z) where the kernel holds."""
        return 1 if self.kind == "K1" else -1

    @property
    def power_exponent(self) -> complex:
        p = self.params
        if self.kind == "K1":
            return p.b2 / 2 - p.i_eta - 2
        return -p.b2 / 2 - p.i_eta

    @property
    def factors(self):
        """(Pz, Pt): the gauges with K = Pz(z) Pt(t) (xi - 1)^pw."""
        p = self.params
        iw = 1j * p.omega
        if self.kind == "K1":
            return GaugeMap(exp_z=iw, exp_inv=p.b1, power=2 - p.b2), GaugeMap(exp_z=iw)
        return GaugeMap(exp_z=iw), GaugeMap(exp_z=iw, exp_inv=-p.b1, power=p.b2 - 2)

    def contour_variable(self, z: complex, t: complex) -> complex:
        return -self.sign * 2j * self.params.omega * z * t / self.params.b1

    def param_condition(self) -> bool:
        return (self.power_exponent + 1).real > 0

    def z_condition(self, z: complex) -> bool:
        return self.sign * (self.params.b1 / z).real > 0


def kernel_value(spec: KernelSpec, z, t, exponent_shift: complex = 0.0) -> complex:
    """Kernel K(z, t); ``exponent_shift`` perturbs the power exponent
    (fault injection for negative controls)."""
    return _kernel_jets(spec, complex(z), complex(t), exponent_shift)[0][0]


def _kernel_jets(spec: KernelSpec, z: complex, t: complex, exponent_shift: complex):
    """Jets (K, K', K'') of K(z, t) in z at fixed t, and in t at fixed z.

    K = Pz(z) Pt(t) x^pw at x = xi - 1; xi is proportional to z t, so
    dxi/dz = xi/z and dxi/dt = xi/t.
    """
    xi = spec.contour_variable(z, t)
    if abs(xi - 1) < BRANCH_TOL:
        raise BranchError("kernel branch point: contour variable equals 1")
    power = GaugeMap(power=spec.power_exponent + exponent_shift).prefactor_derivatives(xi - 1)
    pz, pt = spec.factors
    in_z = jet_product(pz.prefactor_derivatives(z), jet_chain(power, (xi, xi / z, 0.0)))
    in_t = jet_product(pt.prefactor_derivatives(t), jet_chain(power, (xi, xi / t, 0.0)))
    return [pt.prefactor(t) * d for d in in_z], [pz.prefactor(z) * d for d in in_t]


def verify_adjoint(spec: KernelSpec, exponent_shift: complex = 0.0) -> float:
    """Max relative defect of the adjoint identity on a 3 x 3 (z, t) grid.

    The kernel must satisfy L_z{K} = Lbar_t{K}.  L is the equation's
    operator (``core.residual``) at B3 = 0, and its formal adjoint Lbar is
    the same operator at the r2 image of those parameters
    (``core.apply_rule``).  The jets of K are exact.
    """
    p = spec.params.with_b3(0)
    adjoint = apply_rule("r2", p)[0]
    worst = 0.0
    for z0, t0 in ADJOINT_GRID:
        z0, t0 = complex(z0), complex(t0)
        in_z, in_t = _kernel_jets(spec, z0, t0, exponent_shift)
        lhs = residual(p, lambda _: in_z, z0)
        rhs = residual(adjoint, lambda _: in_t, t0)
        scale = max(abs(lhs), abs(rhs), MAGNITUDE_FLOOR)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def contour_quad(g: Callable[[np.ndarray], np.ndarray], p: complex) -> complex:
    """Integral of (xi - 1)^p g(xi) over (1, inf), Re p > -1, by the exp-sinh rule.

    The rule places its nodes at xi - 1 = exp(pi/2 sinh t) and forms the
    endpoint power from that exact offset, so (xi - 1)^p stays accurate
    where 1 + (xi - 1) rounds to 1; ``g`` carries the rest of the
    integrand.  It takes a float array of distinct xi and returns their
    values, and over all of the rule's batches it sees each distinct
    float xi once: every node next to the endpoint whose xi rounds to 1.0
    shares one evaluation.

    Raises QuadratureError when the rule does not converge to 1e-12
    times the sum of |terms| (see ``quadrature.exp_sinh``).
    """
    at_xi: dict = {}

    def on_nodes(u: np.ndarray) -> np.ndarray:
        xi, back = np.unique(1.0 + u, return_inverse=True)
        fresh = [x for x in xi.tolist() if x not in at_xi]
        if fresh:
            at_xi.update(zip(fresh, np.asarray(g(np.array(fresh)), dtype=complex).tolist()))
        return np.array([at_xi[x] for x in xi.tolist()], dtype=complex)[back]

    value, _ = exp_sinh(on_nodes, p)
    return complex(value)


def _integrand(spec: KernelSpec, u_inf, z: complex):
    """(pref, g): the transform at z is pref * int_1^inf (xi-1)^pw g(xi) dxi.

    K1: pref = e^{i w z + B1/z} z^(1-B2),
        g(xi) = e^{-B1 xi/(2z)} U(-B1 xi/(2 i w z))
    K2: pref = e^{i w z} z^(1-B2),
        g(zeta) = e^{B1 zeta/(2z) - 2 i w z/zeta} zeta^(B2-2) U(B1 zeta/(2 i w z))

    ``g`` takes a float array of contour points and evaluates the
    infinity member U on all of them in one call.
    """
    p = spec.params
    if spec.kind == "K1":
        def g(xi: np.ndarray) -> np.ndarray:
            t = -p.b1 * xi / (2j * p.omega * z)
            return np.exp(-p.b1 * xi / (2 * z)) * u_inf(t)[0]

        pref = cmath.exp(1j * p.omega * z + p.b1 / z) * cmath.exp((1 - p.b2) * cmath.log(z))
    else:
        def g(zeta: np.ndarray) -> np.ndarray:
            t = p.b1 * zeta / (2j * p.omega * z)
            return (
                np.exp(p.b1 * zeta / (2 * z) - 2j * p.omega * z / zeta)
                * np.exp((p.b2 - 2) * np.log(zeta))
                * u_inf(t)[0]
            )

        pref = cmath.exp(1j * p.omega * z) * cmath.exp((1 - p.b2) * cmath.log(z))
    return pref, g


def transform(spec: KernelSpec, u_inf, z: complex, exponent_shift: complex = 0.0) -> complex:
    """Transform integral of the infinity member, evaluated at z (see
    ``_integrand``); the member is evaluated on each batch of quadrature
    nodes in one call."""
    pref, g = _integrand(spec, u_inf, complex(z))
    return pref * contour_quad(g, spec.power_exponent + exponent_shift)


@dataclass
class RatioReport:
    ratios: list
    mean: complex
    max_rel_dev: float
    passed: bool


def verify_transform(
    pair, spec: KernelSpec, z_samples: Sequence[complex], exponent_shift: complex = 0.0,
) -> RatioReport:
    """Check that the transformed infinity member is proportional to the
    zero member with a z-independent ratio: passed when the ratios spread
    by less than 1e-6 relative to their mean.

    Raises ConditionError when the parameter or half-plane preconditions
    are violated (the boundary terms would not vanish).
    """
    u_inf, u_zero = pair
    if not spec.param_condition():
        raise ConditionError(
            "parameter half-plane condition violated: boundary terms do not vanish"
        )
    for z in z_samples:
        if not spec.z_condition(complex(z)):
            raise ConditionError(f"z = {z} violates the Re(B1/z) half-plane condition")
    ratios = []
    for z in z_samples:
        z = complex(z)
        num = transform(spec, u_inf, z, exponent_shift)
        den = u_zero(z)[0]
        if den == 0:
            raise QuadratureError("zero member vanished at a sample point")
        ratios.append(num / den)
    mean = sum(ratios) / len(ratios)
    dev = max(abs(r - mean) for r in ratios) / max(abs(mean), MAGNITUDE_FLOOR)
    return RatioReport(ratios=ratios, mean=mean, max_rel_dev=dev, passed=dev < RATIO_TOL)


@dataclass
class BoundaryReport:
    eps_values: list
    eps_magnitudes: list
    fitted_eps_slope: float
    predicted_eps_slope: float
    r_values: list
    r_log_magnitudes: list
    fitted_decay_rate: float
    predicted_decay_rate: float
    vanishes_at_1: bool
    vanishes_at_inf: bool


def verify_boundary_terms(pair, spec: KernelSpec, z: complex) -> BoundaryReport:
    """Decay of the integrated terms toward both contour endpoints.

    The integrated term at xi is the bilinear concomitant
    (B1^2 xi/(2 i w z^2) + sign B1) z (xi - 1)^(pw+1) pref g(xi), with
    (pref, g) the transform's integrand and pw the kernel's power
    exponent; for K2 it carries the constant (B1/(2 i w))^(B2-2), the
    Jacobian of zeta -> t.  The infinity member is evaluated on all sample
    points in one call.

    Near the finite endpoint the magnitude must scale as
    eps^Re(pw + 1); toward infinity it must decay exponentially at the
    rate sign Re(B1/z): the kernel and the e^{i omega t} factor of the
    infinity member each contribute e^{-B1 xi/(2z)}.  Divergence (a
    negative fitted slope at the finite end, or growth at the far end) is
    reported, not raised.
    """
    u_inf, _ = pair
    z = complex(z)
    p = spec.params
    pref, g = _integrand(spec, u_inf, z)
    # Deep enough that the power law alone sets the slope: the other
    # factors can vanish near xi ~ 1.01, where a sample would read ~100x low.
    eps_values = [10.0 ** (-k) for k in (4, 5, 6, 7, 8)]
    r_values = [10.0, 14.0, 18.0, 22.0, 26.0, 30.0]
    xi = np.array([1 + e for e in eps_values] + r_values)
    pw1 = spec.power_exponent + 1
    jacobian = 1.0 if spec.kind == "K1" else cmath.exp(
        (p.b2 - 2) * cmath.log(p.b1 / (2j * p.omega))
    )
    terms = (
        (p.b1**2 * xi / (2j * p.omega * z * z) + spec.sign * p.b1)
        * z * np.exp(pw1 * np.log(xi - 1)) * (pref * jacobian) * g(xi)
    )
    logs = np.log(np.maximum(np.abs(terms), MAGNITUDE_FLOOR))
    n_eps = len(eps_values)
    slope_eps = float(np.polyfit(np.log(eps_values), logs[:n_eps], 1)[0])
    mags, r_logmags = np.abs(terms[:n_eps]).tolist(), logs[n_eps:].tolist()
    # fit log|PQ| = -rate*xi + q*log(xi) + c; the log term absorbs the
    # algebraic prefactors so the exponential rate is read off cleanly
    design = np.column_stack([r_values, np.log(r_values), np.ones(len(r_values))])
    coef, *_ = np.linalg.lstsq(design, np.array(r_logmags), rcond=None)
    rate = -float(coef[0])
    return BoundaryReport(
        eps_values=eps_values,
        eps_magnitudes=mags,
        fitted_eps_slope=slope_eps,
        predicted_eps_slope=pw1.real,
        r_values=r_values,
        r_log_magnitudes=r_logmags,
        fitted_decay_rate=rate,
        predicted_decay_rate=spec.sign * (p.b1 / z).real,
        vanishes_at_1=slope_eps > 0 and mags[-1] < mags[0],
        vanishes_at_inf=rate > 0 and r_logmags[-1] < r_logmags[0],
    )


def appendix_closed_form(which: str, **kw) -> complex:
    """Right-hand sides of the three closed-form integrals."""
    if which == "A1":
        a, b, y = kw["alpha"], kw["beta"], kw["y"]
        return gamma(a) * cmath.exp(-complex(y)) * hyp_u(a, b, y)
    if which == "A2":
        k, l, mu, a = kw["kappa"], kw["lam"], kw["mu"], complex(kw["a"])
        return (
            gamma(mu) * cmath.exp(-a) * cmath.exp(-complex(mu) * cmath.log(a))
            * hyp_u(0.5 - k - l, 1 - 2 * l - mu, a)
        )
    if which == "A3":
        k, l, mu, a = kw["kappa"], kw["lam"], kw["mu"], complex(kw["a"])
        return gamma(mu) * cmath.exp(-a) * hyp_u(0.5 + mu - k + l, 1 + 2 * l, a)
    raise ValueError("which must be A1, A2 or A3")


def appendix_integral(which: str, **kw) -> complex:
    """Left-hand sides, by ``contour_quad`` over (1, inf).

    A1(alpha, beta, y):   e^{-y t} (t-1)^(alpha-1) t^(beta-alpha-1)
    A2(kappa, lam, mu, a): e^{-a y} (y-1)^(mu-1) U(1/2-kappa-lam, 1-2 lam, a y)
    A3(kappa, lam, mu, a): e^{-a y} (y-1)^(mu-1) y^(kappa+lam-mu-1/2)
                           U(1/2+lam-kappa, 2 lam+1, a y)
    Validity requires Re of the endpoint exponent and of the decay
    constant to be positive; ConditionError otherwise.
    """
    if which == "A1":
        a, b, y = complex(kw["alpha"]), complex(kw["beta"]), complex(kw["y"])
        if a.real <= 0 or y.real <= 0:
            raise ConditionError("A1 requires Re(alpha) > 0 and Re(y) > 0")

        def g(t):
            return np.exp(-y * t) * np.exp((b - a - 1) * np.log(t))

        return contour_quad(g, a - 1)
    k = complex(kw["kappa"])
    l = complex(kw["lam"])
    mu = complex(kw["mu"])
    a = complex(kw["a"])
    if mu.real <= 0 or a.real <= 0:
        raise ConditionError(f"{which} requires Re(mu) > 0 and Re(a) > 0")
    if which == "A2":
        def g(y):
            return np.exp(-a * y) * hyp_u(0.5 - k - l, 1 - 2 * l, a * y)

        return contour_quad(g, mu - 1)
    if which == "A3":
        def g(y):
            return (
                np.exp(-a * y)
                * np.exp((k + l - mu - 0.5) * np.log(y))
                * hyp_u(0.5 + l - k, 2 * l + 1, a * y)
            )

        return contour_quad(g, mu - 1)
    raise ValueError("which must be A1, A2 or A3")


def whittaker_index_check(kappa, lam, mu, a, corrected: bool = True) -> float:
    """Relative error of the Whittaker form underlying the A2 integral.

    int_1^inf e^{-a y/2} (y-1)^(mu-1) y^(lam-1/2) W_{kappa,lam}(a y) dy
    = Gamma(mu) e^{-a/2} a^(-mu/2) W_{kappa-mu/2, lam+mu/2}(a).

    With ``corrected`` False the second index is taken as lam - mu/2 (a
    known tabulation misprint) and the identity fails.
    """
    k, l, mu, a = map(complex, (kappa, lam, mu, a))
    if mu.real <= 0 or a.real <= 0:
        raise ConditionError("requires Re(mu) > 0 and Re(a) > 0")

    def g(y):
        return (
            np.exp(-a * y / 2)
            * np.exp((l - 0.5) * np.log(y))
            * whittaker_w(k, l, a * y)
        )

    lhs = contour_quad(g, mu - 1)
    idx = l + mu / 2 if corrected else l - mu / 2
    rhs = (
        gamma(mu)
        * cmath.exp(-a / 2)
        * cmath.exp((-mu / 2) * cmath.log(a))
        * whittaker_w(k - mu / 2, idx, a)
    )
    return abs(lhs - rhs) / max(abs(lhs), MAGNITUDE_FLOOR)


def r3_companion(spec: KernelSpec) -> KernelSpec:
    """Kernel for the sign-flipped solution families: (eta, omega) negated."""
    p = spec.params
    return KernelSpec(
        kind=spec.kind,
        params=DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta),
    )
