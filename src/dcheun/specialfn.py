"""Complex special functions used by every solution family.

Provides the complex gamma function, the irregular confluent
hypergeometric function U(a, b, z) on its principal branch, generalized
Laguerre polynomials for complex parameters, and the Kummer
transformation that connects alternative forms of U.

U(a, b, z) is evaluated by one of four routes:

1. exact polynomial path when ``a`` is zero or a negative integer,
   via U(-l, 1+alpha, y) = (-1)^l l! L_l^alpha(y);
2. for |z| < 30, the two-term connection through the regular Kummer
   function M;
3. for |z| >= 30, the asymptotic descending series truncated at its
   smallest term;
4. the Laplace integral on the exp-sinh rule, recurred down in ``a``
   for Re a < 1.  It serves b next to an integer, where both connection
   terms have poles, and every point where route 2 or 3 estimates its
   error above 1e-11.

Routes 2 and 3 return an error estimate that includes the rounding of
their running products and, for route 2, of the Gamma coefficients, so
it grows with the cancellation between the two connection terms.

U is computed on every call; nothing is kept between calls.

SciPy is not imported with this module: ``gamma`` and ``rgamma`` load
SciPy's complex ufuncs on their first call, so importing the package
(and every CLI command that never needs Gamma) stays free of SciPy.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from .errors import BranchError, ConvergenceError, DomainError, PoleError, QuadratureError
from .quadrature import exp_sinh

_EPS = 2.220446049250313e-16
_ASYMPTOTIC_CUTOFF = 30.0
_FALLBACK_TOL = 1e-11
# relative error allowed for a product of two of SciPy's complex Gamma values
# (up to about 2.5e-15 against mpmath on the connection coefficients)
_GAMMA_REL = 5e-15
# b this close to an integer skips the connection route: both of its terms
# have poles there, and its estimate (of order eps / |b - n|) would reject it
_INTEGER_B_WINDOW = 1e-5
_LAPLACE_TOL = 1e-12


def _as_complex(x) -> complex:
    z = complex(x)
    if not (cmath.isfinite(z)):
        raise DomainError(f"non-finite argument {x!r}")
    return z


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    return abs(z.imag) <= tol and z.real <= 0.5 and abs(z.real - round(z.real)) <= tol


@cache
def _scipy_special():
    """scipy.special, imported on the first Gamma evaluation, not with the package."""
    import scipy.special

    return scipy.special


def gamma(z) -> complex:
    """Complex gamma function, >= 12 significant digits for |z| <= 50."""
    z = _as_complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    return complex(_scipy_special().gamma(z))


def rgamma(z) -> complex:
    """Reciprocal gamma 1/gamma(z); entire, zero at the poles of gamma."""
    return complex(_scipy_special().rgamma(_as_complex(z)))


def laguerre(l: int, alpha, y) -> complex:
    """Generalized Laguerre polynomial L_l^alpha(y), complex alpha and y.

    Uses the standard ascending three-term recurrence, exact for the
    polynomial degree l >= 0.
    """
    if l < 0 or int(l) != l:
        raise DomainError(f"polynomial degree must be a nonnegative integer, got {l}")
    alpha = _as_complex(alpha)
    y = _as_complex(y)
    if l == 0:
        return 1.0 + 0.0j
    prev, cur = 1.0 + 0.0j, 1.0 + alpha - y
    for n in range(1, l):
        prev, cur = cur, ((2 * n + 1 + alpha - y) * cur - (n + alpha) * prev) / (n + 1)
    return cur


def kummer_transform(a, b, y):
    """Parameter map of the Kummer relation U(a,b,y) = y^(1-b) U(1+a-b, 2-b, y).

    Returns ``(a', b', prefactor_exponent)`` = (1+a-b, 2-b, 1-b).  Applying
    the map twice composes to the identity with total exponent 0.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    _as_complex(y)
    return 1 + a - b, 2 - b, 1 - b


def _kummer_m(a: complex, b: complex, z: complex, max_terms: int = 700):
    """Regular Kummer series M(a,b,z); returns (sum, rounding bound / eps).

    Term k is a running product of k factors and carries about k
    roundings, so the sum is off by at most about eps * sum_k (k+1) |term_k|.
    """
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    bound = 1.0
    for k in range(max_terms):
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        t = abs(term)
        bound += (k + 2) * t
        if t <= _EPS * abs(s) and k > 3:
            return s, bound
    raise ConvergenceError(f"Kummer series did not converge for M({a}, {b}, {z})")


def _u_asymptotic(a: complex, b: complex, z: complex):
    """Descending series z^(-a) * 2F0(a, a-b+1; -1/z), optimal truncation.

    Returns (value, relative error estimate).  Stopped at its smallest
    term, the series is off by a few times that term, by up to a factor
    of order sqrt(|z|) towards the Stokes lines arg z = +-pi (DLMF
    13.7(ii)); the running products add the same rounding as in M.
    """
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    best = 1.0
    rounding = 1.0
    for k in range(120):
        new = term * (a + k) * (a - b + 1 + k) / (-(k + 1) * z)
        if abs(new) >= abs(term) and k > 1:
            break  # divergent tail reached; stop at the smallest term
        term = new
        s += term
        best = abs(term)
        rounding += (k + 2) * best
        if best <= _EPS * abs(s):
            break
    pref = cmath.exp(-a * cmath.log(z))
    err = 2 * math.sqrt(abs(z)) * best + _EPS * rounding
    return pref * s, err / max(abs(s), 1e-300)


def _gamma_b_minus_1(b: complex) -> complex:
    """Gamma(b - 1), accurate also near its poles at b = 0, -1, -2, ...

    For b near n <= 0 the rounded argument b - 1 is off by up to half an
    ulp of n - 1, which Gamma amplifies by 1/|b - n|; in the connection
    that error is not cancelled (U(0.5, 1e-5, 0.5) would lose 6 digits).
    The offset d = b - n is exact, so the pole factors are built from it:
    Gamma(b - 1) = Gamma(1 + d) / prod_{k=n-1}^{0} (k + d).  The one
    pole with n > 0 is at b = 1, where b - 1 is itself exact.  The caller
    keeps b off the integers, so the ufunc is called without pole checks.
    """
    n = round(b.real)
    if n > 0:
        return complex(_scipy_special().gamma(b - 1))
    d = b - n
    den = 1.0 + 0.0j
    for k in range(n - 1, 1):
        den *= k + d
    return complex(_scipy_special().gamma(1 + d)) / den


def _u_connection(a: complex, b: complex, z: complex):
    """Two-term M-series connection; returns (value, relative error estimate).

    The estimate adds the rounding bound of each M series to the error of
    its Gamma coefficient, both scaled by the term's size against the
    value, so it grows with the cancellation between the two terms.
    """
    m1, e1 = _kummer_m(a, b, z)
    m2, e2 = _kummer_m(a - b + 1, 2 - b, z)
    # b is off the integers here, so 1 - b is no pole of Gamma
    sp = _scipy_special()
    c1 = complex(sp.gamma(1 - b) * sp.rgamma(a - b + 1))
    c2 = _gamma_b_minus_1(b) * complex(sp.rgamma(a)) * cmath.exp((1 - b) * cmath.log(z))
    val = c1 * m1 + c2 * m2
    err = _EPS * (abs(c1) * e1 + abs(c2) * e2) + _GAMMA_REL * (abs(c1 * m1) + abs(c2 * m2))
    return val, err / max(abs(val), 1e-300)


def _u_laplace(a: complex, b: complex, z: complex) -> complex:
    """U by its Laplace integral on the exp-sinh rule (DLMF 13.4.4).

    U(c, b, z) = z^(-c) / Gamma(c) int_0^inf e^(-s) s^(c-1) (1 + s/z)^(b-c-1) ds
    along the ray arg s = theta.  The ray is the real axis for
    |arg z| <= pi/2 and arg z / 4 beyond, which keeps the branch point
    s = -z at least pi/4 off the path, also at arg z = pi.  The integral
    needs Re c > 0 and is best conditioned for Re c >= 1, so for Re a < 1
    U is computed at c = a + m and a + m + 1 and recurred down in the
    first parameter (DLMF 13.3.7), the direction in which U is minimal.
    """
    phase = cmath.phase(z)
    theta = phase / 4 if abs(phase) > math.pi / 2 else 0.0
    ray = cmath.exp(1j * theta)
    ray_z = ray / z
    log_ray_z = 1j * theta - cmath.log(z)

    def at(c: complex) -> complex:
        # on the ray s = e^{i theta} x: U(c) = rgamma(c) (e^{i theta} / z)^c * integral
        e = b - c - 1
        try:
            val, _ = exp_sinh(
                lambda x: np.exp(e * np.log(1 + ray_z * x) - ray * x), c - 1, _LAPLACE_TOL
            )
        except QuadratureError as exc:
            raise ConvergenceError(f"Laplace integral of U({a}, {b}, {z}): {exc}") from exc
        return rgamma(c) * cmath.exp(c * log_ray_z) * val

    m = max(0, math.ceil(1 - a.real))
    if m == 0:
        return at(a)
    up, cur = at(a + m + 1), at(a + m)
    for k in range(m, 0, -1):
        c = a + k
        up, cur = cur, -(b - 2 * c - z) * cur - c * (c - b + 1) * up
    return cur


def hyp_u(a, b, z) -> complex:
    """Irregular confluent hypergeometric function U(a, b, z), principal branch.

    Parameters
    ----------
    a, b, z : complex
        ``z`` must be nonzero (z = 0 is a branch point in general).

    Raises
    ------
    BranchError
        at z = 0.
    ConvergenceError
        when the Laplace integral, the last route, does not converge.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    z = _as_complex(z)
    if z == 0:
        raise BranchError("U(a, b, z) has a branch point at z = 0")
    # Polynomial degeneration: exact for a in {0, -1, -2, ...}.
    if _is_nonpositive_integer(a):
        l = int(round(-a.real))
        sign = -1.0 if l % 2 else 1.0
        fact = 1.0
        for k in range(2, l + 1):
            fact *= k
        return sign * fact * laguerre(l, b - 1, z)

    if abs(z) >= _ASYMPTOTIC_CUTOFF:
        val, err = _u_asymptotic(a, b, z)
    elif abs(b - round(b.real)) < _INTEGER_B_WINDOW:
        return _u_laplace(a, b, z)
    else:
        val, err = _u_connection(a, b, z)
    if err < _FALLBACK_TOL:
        return val
    return _u_laplace(a, b, z)


def u_shift_factor(a: complex, order: int) -> complex:
    """(-1)^k (a)_k in d^k/dz^k U(a,b,z) = (-1)^k (a)_k U(a+k, b+k, z), DLMF 13.3.22."""
    if order < 0 or int(order) != order:
        raise DomainError(f"derivative order must be a nonnegative integer, got {order}")
    c = 1.0 + 0.0j
    for j in range(int(order)):
        c *= -(a + j)
    return c


def hyp_u_dz(a, b, z, order: int = 1) -> complex:
    """Derivative d^k/dz^k U(a,b,z), k = order an integer >= 0, by the parameter shift."""
    a = _as_complex(a)
    b = _as_complex(b)
    return u_shift_factor(a, order) * hyp_u(a + order, b + order, z)


def whittaker_w(kappa, mu, y) -> complex:
    """Irregular Whittaker function W_{kappa,mu}(y) expressed through U."""
    kappa = _as_complex(kappa)
    mu = _as_complex(mu)
    y = _as_complex(y)
    if y == 0:
        raise BranchError("W_{kappa,mu}(y) has a branch point at y = 0")
    return (
        cmath.exp(-y / 2)
        * cmath.exp((mu + 0.5) * cmath.log(y))
        * hyp_u(0.5 - kappa + mu, 2 * mu + 1, y)
    )
