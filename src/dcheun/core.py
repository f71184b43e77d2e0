"""Equation core: parameters, residual, transformation rules, normal forms.

The equation treated throughout is

    z^2 U'' + (B1 + B2 z) U' + (B3 - 2 eta omega z + omega^2 z^2) U = 0,

with B1 != 0 and omega != 0; both singular points (0 and infinity) are
irregular.  Degenerate parameter sets reduce to the confluent
hypergeometric equation or to a constant-coefficient equation and are
handled by :func:`reduce_degenerate`.

Derivatives are carried as jets (value, d1, d2).  Every product, chain
or exponential rule on them in the package is one of three functions:
``jet_product`` (the product rule), ``jet_chain`` (the chain rule
through a change of variable) and ``jet_exp`` (a prefactor from its
logarithmic derivatives).  A ``GaugeMap`` gives its prefactor's jet and
carries a solution's jet through its change of variable.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NotDegenerate
from .tolerances import CONSTRAINT_TOL


def _c(x) -> complex:
    z = complex(x)
    if not cmath.isfinite(z):
        raise DomainError(f"non-finite value {x!r}")
    return z


def jet_product(f, g):
    """(fg, (fg)', (fg)'') from the jets (value, d1, d2) of f and of g."""
    f0, f1, f2 = f
    g0, g1, g2 = g
    return f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + 2 * f1 * g1 + f0 * g2


def jet_chain(f_at_w, w_jet):
    """Jet of F(w(z)) from F's jet at w = w(z) and the jet (w, w', w'') of w."""
    f0, f1, f2 = f_at_w
    _, w1, w2 = w_jet
    return f0, f1 * w1, f2 * w1 * w1 + f1 * w2


def jet_exp(p, l1, l2):
    """Jet of P = e^L from its value p and the derivatives l1 = L', l2 = L''."""
    return p, p * l1, p * (l1 * l1 + l2)


@dataclass(frozen=True)
class DcheParams:
    """The five constants (B1, B2, B3, omega, eta) of the equation."""

    b1: complex
    b2: complex
    b3: complex
    omega: complex
    eta: complex

    def __post_init__(self):
        for name in ("b1", "b2", "b3", "omega", "eta"):
            object.__setattr__(self, name, _c(getattr(self, name)))

    @property
    def i_eta(self) -> complex:
        return 1j * self.eta

    @property
    def is_degenerate(self) -> bool:
        return self.b1 == 0 or self.omega == 0

    def require_nondegenerate(self):
        if self.is_degenerate:
            raise DomainError(
                "B1 = 0 or omega = 0: not a two-point confluent problem; "
                "use reduce_degenerate"
            )

    def with_b3(self, b3) -> "DcheParams":
        return replace(self, b3=_c(b3))


@dataclass(frozen=True)
class VarMap:
    """Variable substitution attached to a gauge prefactor.

    kinds: ``linear`` (w = c z), ``inversion`` (w = c / z),
    ``log`` (w = ln(z) / c, inverse of z = e^{c u}),
    ``sqrt`` (w = z^{1/2}, inverse of z = w^2).
    """

    kind: str = "linear"
    const: complex = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "inversion", "log", "sqrt"):
            raise ValueError(f"unknown variable map kind {self.kind!r}")
        object.__setattr__(self, "const", _c(self.const))

    def apply(self, z: complex) -> complex:
        return self.derivatives(z)[0]

    def derivatives(self, z):
        """(w, dw/dz, d2w/dz2) at z; the linear and inversion maps also take
        a numpy array of points."""
        if self.kind == "linear":
            return self.const * z, self.const, 0.0j
        if self.kind == "inversion":
            return self.const / z, -self.const / z**2, 2 * self.const / z**3
        if self.kind == "log":
            return cmath.log(z) / self.const, 1 / (self.const * z), -1 / (self.const * z**2)
        w = cmath.sqrt(z)
        return w, 0.5 / w, -0.25 / (w * z)


IDENTITY_MAP = VarMap()


@dataclass(frozen=True)
class GaugeMap:
    """Prefactor const * exp(exp_z * z + exp_inv / z) * z^power with a variable map.

    A gauge transports a solution W of one equation into
    ``z -> prefactor(z) * W(varmap(z))`` solving another.
    """

    exp_z: complex = 0.0
    exp_inv: complex = 0.0
    power: complex = 0.0
    const: complex = 1.0
    varmap: VarMap = IDENTITY_MAP

    def __post_init__(self):
        for name in ("exp_z", "exp_inv", "power", "const"):
            object.__setattr__(self, name, _c(getattr(self, name)))

    def prefactor(self, z):
        """P(z) at a scalar z (cmath) or at a numpy array of points (numpy)."""
        xp = np if isinstance(z, np.ndarray) else cmath
        p = xp.exp(self.exp_z * z + self.exp_inv / z)
        if self.power != 0:
            p *= xp.exp(self.power * xp.log(z))
        return self.const * p

    def prefactor_derivatives(self, z):
        """(P, P', P'') of the prefactor at z, a scalar or a numpy array."""
        return jet_exp(
            self.prefactor(z),
            self.exp_z - self.exp_inv / z**2 + self.power / z,  # (log P)'
            2 * self.exp_inv / z**3 - self.power / z**2,        # (log P)''
        )

    def transport(self, f):
        """Given f(w) -> (value, d1, d2), return g(z) = P(z) f(w(z)) -> (value, d1, d2)."""

        def g(z: complex):
            w = self.varmap.derivatives(z)
            return jet_product(self.prefactor_derivatives(z), jet_chain(f(w[0]), w))

        return g

    def compose(self, inner: "GaugeMap") -> "GaugeMap":
        """Gauge equivalent to applying ``inner`` first, then this one.

        transport of the composite equals self.transport after
        inner.transport.  Supported for linear/inversion variable maps,
        where the family is closed under composition.
        """
        if self.varmap.kind not in ("linear", "inversion") or inner.varmap.kind not in (
            "linear",
            "inversion",
        ):
            raise DomainError("composition supported for linear/inversion maps only")
        # Composite prefactor: P_self(z) * P_inner(w_self(z)).
        c = self.varmap.const
        if self.varmap.kind == "linear":
            exp_z = self.exp_z + inner.exp_z * c
            exp_inv = self.exp_inv + inner.exp_inv / c
            power = self.power + inner.power
            const = self.const * inner.const * cmath.exp(inner.power * cmath.log(c))
            if inner.varmap.kind == "linear":
                vm = VarMap("linear", inner.varmap.const * c)
            else:
                vm = VarMap("inversion", inner.varmap.const / c)
        else:  # inversion: w = c / z
            exp_z = self.exp_z + inner.exp_inv / c
            exp_inv = self.exp_inv + inner.exp_z * c
            power = self.power - inner.power
            const = self.const * inner.const * cmath.exp(inner.power * cmath.log(c))
            if inner.varmap.kind == "linear":
                vm = VarMap("inversion", inner.varmap.const * c)
            else:
                vm = VarMap("linear", inner.varmap.const / c)
        return GaugeMap(exp_z=exp_z, exp_inv=exp_inv, power=power, const=const, varmap=vm)


IDENTITY_GAUGE = GaugeMap()


def residual(params: DcheParams, f, z) -> complex:
    """Apply the full differential operator to f at z.

    ``f(z)`` must return (value, first, second derivative).  The result is
    z^2 f'' + (B1 + B2 z) f' + (B3 - 2 eta omega z + omega^2 z^2) f, which
    vanishes exactly when f solves the equation at z.
    """
    return residual_parts(params, f, z)[0]


def residual_parts(params: DcheParams, f, z):
    """(residual, scale) where scale is the largest of the three term magnitudes."""
    z = _c(z)
    if z == 0:
        raise DomainError("the equation has an irregular singularity at z = 0")
    fv, f1, f2 = f(z)
    t2 = z * z * f2
    t1 = (params.b1 + params.b2 * z) * f1
    t0 = (params.b3 - 2 * params.eta * params.omega * z + params.omega**2 * z * z) * fv
    return t2 + t1 + t0, max(abs(t2), abs(t1), abs(t0))


RULES = ("r1", "r2", "r3")


def apply_rule(rule: str, params: DcheParams):
    """Transformation rules mapping the equation onto itself.

    Returns ``(params2, gauge)``: any solution W of the equation with
    ``params2`` yields a solution ``gauge.transport(W)`` of the equation
    with ``params``.  r3 changes the sign of (eta, omega) only where those
    quantities appear explicitly; its gauge is the identity.
    """
    params.require_nondegenerate()
    b2h = params.b2 / 2
    ie = params.i_eta
    if rule == "r1":
        new = DcheParams(
            b1=params.omega * params.b1,
            b2=2 + 2 * ie,
            b3=params.b3 - (b2h + ie) * (b2h - ie - 1),
            omega=1.0,
            eta=-1j * (b2h - 1),  # i eta' = B2/2 - 1
        )
        gauge = GaugeMap(
            exp_z=1j * params.omega,
            exp_inv=params.b1 / 2,
            power=-ie - b2h,
            varmap=VarMap("inversion", 1j * params.b1 / 2),
        )
        return new, gauge
    if rule == "r2":
        new = DcheParams(
            b1=-params.b1,
            b2=4 - params.b2,
            b3=params.b3 + 2 - params.b2,
            omega=params.omega,
            eta=params.eta,
        )
        return new, GaugeMap(exp_inv=params.b1, power=2 - params.b2)
    if rule == "r3":
        new = DcheParams(
            b1=params.b1, b2=params.b2, b3=params.b3, omega=-params.omega, eta=-params.eta
        )
        return new, IDENTITY_GAUGE
    raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")


@dataclass(frozen=True)
class DegenerateReduction:
    """Confluent-hypergeometric reduction of a degenerate parameter set."""

    kind: str  # B1_ZERO | OMEGA_ZERO | CONSTANT_COEFF
    substitution: str
    roots: tuple = ()
    chosen: complex = 0.0
    hyp_ab: tuple = ()       # (a, b) for the chosen root
    hyp_ab_all: tuple = ()   # (a, b) per root, same order as roots


def _quadratic_roots(p: complex, q: complex):
    """Roots of x^2 + p x + q = 0, larger real part first."""
    d = cmath.sqrt(p * p - 4 * q)
    r1 = (-p + d) / 2
    r2 = (-p - d) / 2
    if r2.real > r1.real:
        r1, r2 = r2, r1
    return r1, r2


def reduce_degenerate(params: DcheParams) -> DegenerateReduction:
    """Reduction constants for B1 = 0 and/or omega = 0."""
    if not params.is_degenerate:
        raise NotDegenerate("both B1 and omega are nonzero")
    if params.b1 == 0 and params.omega == 0:
        return DegenerateReduction(
            kind="CONSTANT_COEFF", substitution="z = exp(y) gives constant coefficients"
        )
    if params.b1 == 0:
        # alpha^2 - (1 - B2) alpha + B3 = 0; U = e^{-y/2} y^alpha f(y), y = -2 i omega z
        roots = _quadratic_roots(-(1 - params.b2), params.b3)
        ab = tuple(
            (params.i_eta + a + params.b2 / 2, 2 * a + params.b2) for a in roots
        )
        return DegenerateReduction(
            kind="B1_ZERO",
            substitution="y = -2 i omega z, U = exp(-y/2) y^alpha f(y)",
            roots=roots,
            chosen=roots[0],
            hyp_ab=ab[0],
            hyp_ab_all=ab,
        )
    # omega = 0: beta^2 - (B2 - 1) beta + B3 = 0; U = y^beta g(y), y = B1/z
    roots = _quadratic_roots(-(params.b2 - 1), params.b3)
    ab = tuple((b, 2 * b + 2 - params.b2) for b in roots)
    return DegenerateReduction(
        kind="OMEGA_ZERO",
        substitution="y = B1/z, U = y^beta g(y)",
        roots=roots,
        chosen=roots[0],
        hyp_ab=ab[0],
        hyp_ab_all=ab,
    )


NORMAL_FORMS = ("ALGEBRAIC", "HYPERBOLIC", "RHO_ALGEBRAIC")


def normal_form(params: DcheParams, kind: str, lam: complex = 1.0):
    """Second-derivative-only form of the equation.

    Returns ``(coeff, gauge)`` where the normal-form equation is
    F'' + coeff(x) F = 0 in the normal-form variable x, and ``gauge``
    transports a normal-form solution F back to a solution U of the
    original equation: U = gauge.transport(F).
    """
    params.require_nondegenerate()
    b1, b2, b3 = params.b1, params.b2, params.b3
    w, eta = params.omega, params.eta
    if kind == "ALGEBRAIC":
        def coeff(z: complex) -> complex:
            return (
                w * w
                - 2 * eta * w / z
                + (b3 - b2 * b2 / 4 + b2 / 2) / z**2
                + b1 * (1 - b2 / 2) / z**3
                - b1 * b1 / (4 * z**4)
            )

        gauge = GaugeMap(exp_inv=b1 / 2, power=-b2 / 2)
        return coeff, gauge
    if kind == "HYPERBOLIC":
        lam = _c(lam)
        if lam == 0:
            raise DomainError("hyperbolic form needs a nonzero scale constant")

        def coeff(u: complex) -> complex:
            i_u = (
                -(b1 * (1 - b2 / 2) + 2 * eta * w) * cmath.sinh(lam * u)
                + (w * w + b1 * b1 / 4) * cmath.sinh(2 * lam * u)
                + (b1 * (1 - b2 / 2) - 2 * eta * w) * cmath.cosh(lam * u)
                + (w * w - b1 * b1 / 4) * cmath.cosh(2 * lam * u)
                + b3
                - (1 - b2) ** 2 / 4
            )
            return lam * lam * i_u

        # W(u) = z^{(B2-1)/2} e^{-B1/(2z)} U(z) with z = e^{lam u};
        # inverse: U(z) = z^{(1-B2)/2} e^{B1/(2z)} W(ln(z)/lam)
        gauge = GaugeMap(exp_inv=b1 / 2, power=(1 - b2) / 2, varmap=VarMap("log", lam))
        return coeff, gauge
    if kind == "RHO_ALGEBRAIC":
        def coeff(rho: complex) -> complex:
            return (
                4 * w * w * rho * rho
                - 8 * eta * w
                + 4 * (b3 - b2 * b2 / 4 + b2 / 2 - 3.0 / 16.0) / rho**2
                + 4 * b1 * (1 - b2 / 2) / rho**4
                - b1 * b1 / rho**6
            )

        # U(z) = z^{(1-2B2)/4} e^{B1/(2z)} G(sqrt(z))
        gauge = GaugeMap(exp_inv=b1 / 2, power=(1 - 2 * b2) / 4, varmap=VarMap("sqrt"))
        return coeff, gauge
    raise ValueError(f"unknown normal form {kind!r}; expected one of {NORMAL_FORMS}")


@dataclass(frozen=True)
class SpecialEquationSpec:
    """Hyperbolic special case W'' + [th0 + th1 h(ku) + th2 cosh(2ku)] W = 0.

    ``kind`` is WHE (h = cosh) or SECOND_TYPE (h = sinh).
    """

    kind: str
    kappa: complex
    theta0: complex
    theta1: complex
    theta2: complex


def special_case_constraints(params: DcheParams, lam: complex = 1.0):
    """Detect the two three-parameter special cases of the equation.

    Both require omega^2 = -B1^2/4; the cross term 2 eta omega must equal
    -B1(1 - B2/2) (WHE, cosh forcing) or +B1(1 - B2/2) (second type, sinh
    forcing).  Returns a SpecialEquationSpec or None.
    """
    params.require_nondegenerate()
    lam = _c(lam)
    b1, b2 = params.b1, params.b2
    w, eta = params.omega, params.eta
    scale = max(abs(w * w), abs(b1 * b1) / 4)
    if abs(w * w + b1 * b1 / 4) > CONSTRAINT_TOL * scale:
        return None
    cross = 2 * eta * w
    rhs = b1 * (1 - b2 / 2)
    cscale = max(abs(cross), abs(rhs), 1.0)
    common = dict(
        kappa=lam,
        theta0=lam * lam * (params.b3 - (1 - b2) ** 2 / 4),
        theta1=-4 * eta * w * lam * lam,
        theta2=2 * w * w * lam * lam,
    )
    if abs(cross + rhs) <= CONSTRAINT_TOL * cscale:
        return SpecialEquationSpec(kind="WHE", **common)
    if abs(cross - rhs) <= CONSTRAINT_TOL * cscale:
        return SpecialEquationSpec(kind="SECOND_TYPE", **common)
    return None


@dataclass(frozen=True)
class GsweSpecialMap:
    """Variable map taking the B2=1, B1=-z0/2 spheroidal form to a special case.

    ``thetas`` are in terms of the *spheroidal* constants (B3, eta, omega)
    supplied by the caller; no spheroidal solving is performed.
    """

    kind: str
    z0: complex
    sigma: complex
    theta0: complex
    theta1: complex
    theta2: complex

    def z_of_u(self, u: complex) -> complex:
        if self.kind == "WHE":
            return self.z0 * cmath.cosh(self.sigma * u / 2) ** 2
        return (self.z0 / 2) * (1j * cmath.sinh(self.sigma * u) + 1)


def gswe_special_maps(b3, eta, omega, z0, sigma, kind: str) -> GsweSpecialMap:
    """Descriptor of the change of variable producing each special case."""
    b3, eta, omega, z0, sigma = map(_c, (b3, eta, omega, z0, sigma))
    if z0 == 0 or sigma == 0:
        raise DomainError("z0 and sigma must be nonzero")
    ew = eta * omega
    th0 = sigma**2 * (b3 + ew * z0 - omega**2 * z0**2 / 8)
    if kind == "WHE":
        return GsweSpecialMap(
            kind=kind,
            z0=z0,
            sigma=sigma,
            theta0=th0,
            theta1=-(sigma**2) * ew * z0,
            theta2=sigma**2 * omega**2 * z0**2 / 8,
        )
    if kind == "SECOND_TYPE":
        return GsweSpecialMap(
            kind=kind,
            z0=z0,
            sigma=sigma,
            theta0=th0,
            theta1=-1j * sigma**2 * ew * z0,
            theta2=-(sigma**2) * omega**2 * z0**2 / 8,
        )
    raise ValueError(f"unknown special case kind {kind!r}")
