"""Complex special functions used by every solution family.

Provides the complex gamma function, the irregular confluent
hypergeometric function U(a, b, z) on its principal branch, generalized
Laguerre polynomials for complex parameters, and the Kummer
transformation that connects alternative forms of U.

U(a, b, z) is evaluated by one of five routes:

1. exact polynomial path when ``a`` or ``a - b + 1`` is zero or a negative
   integer, via U(-l, 1+alpha, y) = (-1)^l l! L_l^alpha(y) and, in the
   second case, the Kummer relation U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z);
2. for |z| < 5, and for |z| < 30 in the left half-plane, the two-term
   connection through the regular Kummer function M;
3. for 5 <= |z| < 30 with Re z > 0, Miller's backward recurrence in
   ``a`` on the terms of a sum that adds up to z^(-a), whatever b is; it
   also takes over connection misses at 2 <= |z| < 5 with Re z > 0;
4. for |z| >= 30, the asymptotic descending series truncated at its
   smallest term;
5. the Laplace integral on the exp-sinh rule, recurred down in ``a``
   for Re a < 1.  It serves b next to an integer at |z| < 5 or in the
   left half-plane, where both connection terms have poles, and every
   point where routes 2-4 estimate their error above 1e-11 or Miller's
   recurrence reaches its depth cap.

Routes 2, 3 and 4 return an error estimate that includes the rounding of
their running products and, for route 2, of the Gamma coefficients, so
it grows with the cancellation between the two connection terms.  Route
2 takes its four Gamma factors from three Gamma evaluations; route 3
uses no Gamma function.

``hyp_u``, ``hyp_u_dz`` and ``whittaker_w`` take a scalar or a 1-D numpy
array of points.  For an array, the points in route 2's band go through
one numpy pass of both M series, with the Gamma factors taken once, and
each keeps its scalar error estimate; every other point, and each point
whose estimate misses, is a scalar call of ``hyp_u``.  So each point
takes the route that a scalar call at it takes.  Miller's route stays
scalar: its depth differs from point to point.

U is computed on every call; nothing is kept between calls.  Along the
terms of a series, ``u_ladder`` gives U at (a0 + n, b0 + n) or
(a0 + n, b0 + 2n) from the two direct values at one seed term and
contiguous relations of U, each run from the seed in the direction in
which U is the dominant solution; its docstring says where the seed sits.

``gamma`` and ``rgamma`` are Lanczos's approximation with Godfrey's g = 7
and nine coefficients (``LANCZOS_G7``), with the reflection formula below
Re z = 1/2; ``gamma`` is ``math.gamma`` on the real axis.  No route of the
package imports SciPy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import _c
from .errors import BranchError, DomainError, NoConvergence, PoleError, QuadratureError
from .quadrature import exp_sinh
from .tolerances import (
    ASYMPTOTIC_CUTOFF,
    ASYMPTOTIC_MAX_TERMS,
    EPS,
    FALLBACK_TOL,
    GAMMA_REL,
    INTEGER_B_WINDOW,
    KUMMER_MAX_TERMS,
    LADDER_GAP,
    LANCZOS_G7,
    MAGNITUDE_FLOOR,
    MILLER_DEPTH_SCALE,
    MILLER_MAX_DEPTH,
    MILLER_MIN_Z,
    MILLER_RESCUE_Z,
    POLE_TOL,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return (
        abs(z.imag) <= POLE_TOL and z.real <= 0.5 and abs(z.real - round(z.real)) <= POLE_TOL
    )


_SQRT_2PI = math.sqrt(2 * math.pi)


def _lanczos(z: complex):
    """(s, e) with Gamma(z) = s e^e, for Re z >= 1/2 (``LANCZOS_G7``)."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = LANCZOS_G7
    p = (((((((p8 * z + p7) * z + p6) * z + p5) * z + p4) * z + p3) * z + p2) * z + p1) * z + p0
    w = z * (z + 7)  # z (z+1) ... (z+7) = w (w+6) (w+10) (w+12)
    q = w * (w + 6) * (w + 10) * (w + 12)
    # t^(z - 1/2) e^(-t) for t = z + 6.5 = (z - 1/2) + 7; smaller terms round
    return _SQRT_2PI * p / q, (z - 0.5) * (cmath.log(z + 6.5) - 1) - 7


def _sinpi(z: complex) -> complex:
    """sin(pi z) as (-1)^n sin(pi (z - n)), n the integer nearest Re z.

    z - n is exact, so the value keeps its relative accuracy next to the
    zeros, where sin(pi * z) would carry the rounding of pi * z, and is
    exactly 0 at the integers.
    """
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if n % 2 else s


def _gamma(z: complex) -> complex:
    """Gamma(z) off its poles: the Lanczos sum, by reflection, pi / (sin(pi z)
    Gamma(1 - z)), below Re z = 1/2.

    On the real axis it is ``math.gamma``, at a quarter of the cost and
    within 1e-15, where the rounding of the sum's exponent alone reaches
    4e-14 at z = 60.  The connection's b is real in most calls.
    """
    if not z.imag:
        return complex(math.gamma(z.real))
    if z.real >= 0.5:
        s, e = _lanczos(z)
        return s * cmath.exp(e)
    s, e = _lanczos(1 - z)
    d = _sinpi(z) * s
    if cmath.isinf(d):  # sin(pi z) at the edge of the double range
        raise OverflowError(f"sin(pi z) Gamma(1 - z) overflows at z = {z}")
    return math.pi / d * cmath.exp(-e)


def _rgamma(z: complex) -> complex:
    """1 / Gamma(z), exactly 0 at z = 0, -1, -2, ..."""
    if z.real >= 0.5:
        s, e = _lanczos(z)
        return cmath.exp(-e) / s
    s, e = _lanczos(1 - z)
    v = _sinpi(z) * s * cmath.exp(e) / math.pi
    if not cmath.isfinite(v):  # sin(pi z) at the edge of the double range
        raise OverflowError(f"sin(pi z) Gamma(1 - z) overflows at z = {z}")
    return v


def gamma(z) -> complex:
    """Complex gamma function, >= 12 significant digits for |z| <= 50.

    The relative error against mpmath is at most 2.1e-13 over 4000 draws
    on that disk (``LANCZOS_G7``); it is the approximation's own error,
    which grows with |Im z|.  On the real axis it is ``math.gamma``'s.

    Raises PoleError at 0, -1, -2, ... and DomainError where the value is
    past the double range (Re z above about 171).  Left of Re z = 1/2,
    where sin(pi z) overflows from |Im z| of about 225 on, the reflection
    is taken in logs (``_reflected_in_logs``), and a value below the
    double range is 0.
    """
    z = _c(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    try:
        return _gamma(z)
    except OverflowError:
        return _reflected_in_logs(z, 1, "gamma")


def rgamma(z) -> complex:
    """Reciprocal gamma 1/gamma(z); entire, exactly zero at the poles of gamma.

    Raises DomainError where 1/Gamma is past the double range.
    """
    z = _c(z)
    try:
        return _rgamma(z)
    except OverflowError:
        return _reflected_in_logs(z, -1, "rgamma")


def _reflected_in_logs(z: complex, power: int, name: str) -> complex:
    """Gamma(z) ** power, power = +-1, where the direct form overflows.

    Left of Re z = 1/2 the overflow may be sin(pi z) alone, at large
    |Im z|, while the value is in range: the reflection is then taken in
    logs.  With r = z - n, n the integer nearest Re z, and s the sign of
    Im z, log sin(pi z) = i pi n - log 2 + i s pi (1/2 - r) + log(1 -
    e^(2 i s pi r)), where |e^(2 i s pi r)| <= 1, so nothing overflows.  A
    value past the double range raises DomainError.
    """
    if z.real < 0.5:
        n = round(z.real)
        r = z - n
        if r == 0:  # a pole of Gamma, past the range of Gamma(1 - z)
            return 0j
        s = math.copysign(1.0, z.imag)
        log_sin = (
            1j * math.pi * (n + s * (0.5 - r))
            - math.log(2)
            + cmath.log(1 - cmath.exp(2j * s * math.pi * r))
        )
        p, e = _lanczos(1 - z)
        try:
            return cmath.exp(power * (math.log(math.pi) - log_sin - cmath.log(p) - e))
        except OverflowError:
            pass
    raise DomainError(f"{name}({z}) is past the double range")


def laguerre(l: int, alpha, y) -> complex:
    """Generalized Laguerre polynomial L_l^alpha(y), complex alpha and y.

    Uses the standard ascending three-term recurrence, exact for the
    polynomial degree l >= 0.
    """
    if l < 0 or int(l) != l:
        raise DomainError(f"polynomial degree must be a nonnegative integer, got {l}")
    alpha = _c(alpha)
    y = _c(y)
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
    a = _c(a)
    b = _c(b)
    _c(y)
    return 1 + a - b, 2 - b, 1 - b


def _kummer_m(a: complex, b: complex, z: complex):
    """Regular Kummer series M(a,b,z); returns (sum, rounding bound / eps).

    Term k is a running product of k factors and carries about k
    roundings, so the sum is off by at most about eps * sum_k (k+1) |term_k|.
    For Re b < 0 the factor 1/(b + k) makes the terms grow again as k
    nears -Re b, so a small term before that point is no sign of
    convergence: the series may stop only once k is past -Re b.
    """
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    bound = 1.0
    k_min = max(3.0, -b.real)
    for k in range(KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        t = abs(term)
        bound += (k + 2) * t
        if t <= EPS * abs(s) and k > k_min:
            return s, bound
    raise NoConvergence(f"Kummer series did not converge for M({a}, {b}, {z})")


def _kummer_m_many(a: np.ndarray, b: np.ndarray, z: np.ndarray):
    """``_kummer_m`` at each entry of the equal-length arrays a, b and z.

    One numpy step per term serves every entry.  An entry leaves the live
    arrays at the term where the scalar series stops, and its (sum,
    bound) go to the output; an entry still live after
    ``KUMMER_MAX_TERMS`` terms keeps an infinite bound, which makes it a
    connection miss.  For a real b each term's factor is the scalar
    one bit for bit: its numerator is divided part by part, as Python's
    complex division does it, where numpy's multiplies by a reciprocal.
    numpy's complex products and absolute values may still differ from
    Python's in the last bit.  The scalar loop is kept apart, as one loop
    for both shapes made a scalar call about 17% slower.
    """
    s_out = np.zeros(len(z), dtype=complex)
    bound_out = np.full(len(z), math.inf)
    pos = np.arange(len(z))
    s = term = np.ones(len(z), dtype=complex)
    bound = np.ones(len(z))
    k_min = np.maximum(3.0, -b.real)
    real_b = not b.imag.any()
    if real_b:
        b = b.real
    for k in range(KUMMER_MAX_TERMS):
        num, den = (a + k) * z, (b + k) * (k + 1)
        if real_b:
            term = term * (num.view(float).reshape(-1, 2) / den[:, None]).view(complex).ravel()
        else:
            term = term * (num / den)
        s = s + term
        t = np.abs(term)
        bound = bound + (k + 2) * t
        done = (t <= EPS * np.abs(s)) & (k > k_min)
        if done.any():
            s_out[pos[done]], bound_out[pos[done]] = s[done], bound[done]
            keep = ~done
            pos, a, b, z, s, term, bound, k_min = (
                x[keep] for x in (pos, a, b, z, s, term, bound, k_min)
            )
            if not len(pos):
                break
    return s_out, bound_out


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
    for k in range(ASYMPTOTIC_MAX_TERMS):
        new = term * (a + k) * (a - b + 1 + k) / (-(k + 1) * z)
        if abs(new) >= abs(term) and k > 1:
            break  # divergent tail reached; stop at the smallest term
        term = new
        s += term
        best = abs(term)
        rounding += (k + 2) * best
        if best <= EPS * abs(s):
            break
    pref = cmath.exp(-a * cmath.log(z))
    err = 2 * math.sqrt(abs(z)) * best + EPS * rounding
    return pref * s, err / max(abs(s), MAGNITUDE_FLOOR)


def _connection_gammas(a: complex, b: complex):
    """(Gamma(1-b) / Gamma(a-b+1), Gamma(b-1) / Gamma(a)) from three Gamma values.

    The two b-dependent values share one, by reflection and
    Gamma(b) = (b - 1) Gamma(b - 1): for Re b > 1/2 both come from
    Gamma(b), below from Gamma(1 - b), with Gamma(1 - b) Gamma(b - 1) =
    pi / (sin(pi b) (b - 1)).  ``_sinpi`` reduces b by its nearest integer
    n exactly, so next to the poles at b = n both keep their relative
    accuracy, which the connection does not cancel (U(0.5, 1e-5, 0.5)
    would otherwise lose 6 digits).  b must be off the integers.
    """
    if b.real > 0.5:
        g = _gamma(b)
        g1, g2 = math.pi / (_sinpi(b) * g), g / (b - 1)
    else:
        g1 = _gamma(1 - b)
        g2 = math.pi / (_sinpi(b) * (b - 1) * g1)
    return g1 * _rgamma(a - b + 1), g2 * _rgamma(a)


def _u_connection(a: complex, b: complex, z):
    """Two-term M-series connection; returns (value, relative error estimate).

    The estimate adds the rounding bound of each M series to the error of
    its Gamma coefficient, both scaled by the term's size against the
    value, so it grows with the cancellation between the two terms.  A
    Gamma value past the double range makes the call a miss.

    ``z`` may be a 1-D array of points, which gives an array of values
    and one estimate per point: both M series then step together in one
    ``_kummer_m_many`` loop, and the Gamma factors are taken once.
    """
    many = isinstance(z, np.ndarray)
    if many:
        n = len(z)
        m, e = _kummer_m_many(
            np.repeat((a, a - b + 1), n), np.repeat((b, 2 - b), n), np.concatenate((z, z))
        )
        (m1, m2), (e1, e2) = m.reshape(2, n), e.reshape(2, n)
        # log z as a scalar call takes it: numpy's can differ in the last bit
        power = np.exp((1 - b) * np.array([cmath.log(x) for x in z.tolist()]))
    else:
        m1, e1 = _kummer_m(a, b, z)
        m2, e2 = _kummer_m(a - b + 1, 2 - b, z)
        power = cmath.exp((1 - b) * cmath.log(z))
    try:
        c1, c2 = _connection_gammas(a, b)
    except OverflowError:
        return math.nan, math.inf
    c2 = c2 * power
    val = c1 * m1 + c2 * m2
    err = EPS * (abs(c1) * e1 + abs(c2) * e2) + GAMMA_REL * (abs(c1 * m1) + abs(c2 * m2))
    return val, err / (np.maximum if many else max)(abs(val), MAGNITUDE_FLOOR)


def _u_miller(a: complex, b: complex, z: complex):
    """U by Miller's backward recurrence in a; returns (value, relative error estimate).

    The terms h_n = (a)_n (a-b+1)_n / n! U(a+n, b, z) sum to z^(-a)
    (Temme, Numer. Math. 41 (1983) 63-82) and solve DLMF 13.3.7 in the form
    (a+n-1)(a-b+n) h_{n-1} = n (2a + 2n + z - b) h_n - n (n+1) h_{n+1},
    in which they are the minimal solution.  Run down from h_{N+1} = 0,
    h_N = 1, the recurrence gives them up to one factor, which the sum
    fixes: U = z^(-a) h_0 / sum h_n.  No Gamma function enters, and b may
    sit on an integer.  The depth N is taken from |z| and Re(a - b/2) (see
    ``MILLER_DEPTH_SCALE``) and doubled while h_N is above eps of the sum;
    the route raises NoConvergence past ``MILLER_MAX_DEPTH``, or when the
    terms overflow.  Each h_k carries about k + 1 roundings, so the
    estimate is eps sum (k+1) |h_k| plus the tail beyond N, both against
    the sum, plus the rounding of z^(-a).  The caller keeps a and a - b + 1
    off the nonpositive integers, where a step divides by zero.
    """
    rz = abs(z) * math.cos(cmath.phase(z) / 2) ** 2
    power = max(a.real - b.real / 2, 0.0)
    depth = math.ceil((math.sqrt(MILLER_DEPTH_SCALE) + 2 * power) ** 2 / rz)
    c = a - b
    while depth <= MILLER_MAX_DEPTH:
        up, h, total = 0j, 1.0 + 0.0j, 1.0 + 0.0j
        bound = depth + 1.0
        for n in range(depth, 0, -1):
            up, h = h, n * ((2 * (a + n) + z - b) * h - (n + 1) * up) / ((a + n - 1) * (c + n))
            total += h
            bound += n * abs(h)
        if not math.isfinite(bound):
            raise NoConvergence(f"Miller recurrence for U({a}, {b}, {z}) overflowed at {depth}")
        if EPS * abs(total) >= 1.0:
            log_z = cmath.log(z)
            # the terms beyond N fall like e^(-2 sqrt(n z)): their sum is about
            # h_N (1 + 2 sqrt(N / |z| cos^2))
            tail = 1.0 + 2.0 * math.sqrt(depth / rz)
            # z^(-a) = exp(-a log z): log z and the product each round
            err = (EPS * bound + tail) / abs(total) + 2 * EPS * abs(a * log_z)
            return cmath.exp(-a * log_z) * h / total, err
        depth *= 2
    raise NoConvergence(f"Miller recurrence for U({a}, {b}, {z}) needs over {depth // 2} terms")


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
            val, _ = exp_sinh(lambda x: np.exp(e * np.log(1 + ray_z * x) - ray * x), c - 1)
        except QuadratureError as exc:
            raise NoConvergence(f"Laplace integral of U({a}, {b}, {z}): {exc}") from exc
        return rgamma(c) * cmath.exp(c * log_ray_z) * val

    m = max(0, math.ceil(1 - a.real))
    if m == 0:
        return at(a)
    up, cur = at(a + m + 1), at(a + m)
    for k in range(m, 0, -1):
        c = a + k
        up, cur = cur, -(b - 2 * c - z) * cur - c * (c - b + 1) * up
    return cur


def _u_polynomial(a: complex, b: complex, z: complex) -> complex:
    """U(-l, b, z) = (-1)^l l! L_l^(b-1)(z), exact for a = -l in {0, -1, -2, ...}."""
    l = int(round(-a.real))
    sign = -1.0 if l % 2 else 1.0
    fact = 1.0
    for k in range(2, l + 1):
        fact *= k
    return sign * fact * laguerre(l, b - 1, z)


def hyp_u(a, b, z):
    """Irregular confluent hypergeometric function U(a, b, z), principal branch.

    When a or a - b + 1 is zero or a negative integer, U is a polynomial
    (times z^(1-b) in the second case, by ``kummer_transform``); that is
    checked before any other route, and keeps Miller's recurrence, which
    divides by a + n - 1 and a - b + n, off those lattices.

    ``z`` is a scalar, which gives a builtin complex, or a 1-D numpy array
    of points, which gives a complex array.  For an array the choices that
    depend on a and b alone are made once.  Off the polynomial lattices,
    and with b away from the integers, every point of the connection band
    takes the connection route in one numpy pass (``_u_connection``).
    Each point that misses there, and every point outside the band, is a
    scalar call of ``hyp_u``, so each point takes the route that a scalar
    call at it takes.

    Parameters
    ----------
    a, b : complex
    z : complex or 1-D array
        nonzero (z = 0 is a branch point in general) and finite.

    Raises
    ------
    BranchError
        at z = 0.
    DomainError
        at a non-finite a, b or z.
    ValueError
        for an array z of more than one dimension.
    NoConvergence
        when the Laplace integral, the last route, does not converge.
    """
    a = _c(a)
    b = _c(b)
    if isinstance(z, np.ndarray):
        return _hyp_u_many(a, b, _points(z, "U(a, b, z)"))
    z = _c(z)
    if z == 0:
        raise BranchError("U(a, b, z) has a branch point at z = 0")
    if _is_nonpositive_integer(a):
        return _u_polynomial(a, b, z)
    if _is_nonpositive_integer(a - b + 1):
        a2, b2, power = kummer_transform(a, b, z)
        return cmath.exp(power * cmath.log(z)) * _u_polynomial(a2, b2, z)

    miller = z.real > 0 and abs(z) >= MILLER_RESCUE_Z
    if abs(z) >= ASYMPTOTIC_CUTOFF:
        val, err = _u_asymptotic(a, b, z)
    elif miller and abs(z) >= MILLER_MIN_Z:
        val, err = _u_miller_or_miss(a, b, z)
    elif abs(b - round(b.real)) < INTEGER_B_WINDOW:
        return _u_laplace(a, b, z)
    else:
        val, err = _u_connection(a, b, z)
        if err >= FALLBACK_TOL and miller:
            val, err = _u_miller_or_miss(a, b, z)
    if err < FALLBACK_TOL:
        return val
    return _u_laplace(a, b, z)


def _points(z: np.ndarray, name: str) -> np.ndarray:
    """A 1-D array of points as complex, checked as ``solutions.evaluate``
    checks its points; ``name`` is the function in the error messages."""
    z = z.astype(complex)
    if z.ndim != 1:
        raise ValueError(f"{name} takes a scalar or a 1-D array of points")
    if not np.isfinite(z).all():
        raise DomainError(f"{name} is evaluated at finite points only")
    if (z == 0).any():
        raise BranchError(f"{name} has a branch point at 0")
    return z


def _hyp_u_many(a: complex, b: complex, z: np.ndarray) -> np.ndarray:
    """``hyp_u`` at each point of a checked 1-D array (see ``hyp_u``)."""
    out = np.empty(len(z), dtype=complex)
    scalar = np.ones(len(z), dtype=bool)
    lattice = _is_nonpositive_integer(a) or _is_nonpositive_integer(a - b + 1)
    if not lattice and abs(b - round(b.real)) >= INTEGER_B_WINDOW:
        r = np.hypot(z.real, z.imag)  # abs(z) to the bit; np.abs can differ
        band = np.flatnonzero((r < MILLER_MIN_Z) | ((r < ASYMPTOTIC_CUTOFF) & (z.real <= 0)))
        if len(band):
            out[band], err = _u_connection(a, b, z[band])
            scalar[band] = ~np.less(err, FALLBACK_TOL)  # err is a float on a Gamma overflow
    rest = np.flatnonzero(scalar)
    out[rest] = [hyp_u(a, b, x) for x in z[rest].tolist()]
    return out


def _u_miller_or_miss(a: complex, b: complex, z: complex):
    """Miller's (value, estimate), with an infinite estimate past its depth cap,
    so that the Laplace route takes over."""
    try:
        return _u_miller(a, b, z)
    except NoConvergence:
        return math.nan, math.inf


def hyp_u_dz(a, b, z, order: int = 1):
    """Derivative d^k/dz^k U(a,b,z), k = order an integer >= 0, by the
    parameter shift d^k/dz^k U(a,b,z) = (-1)^k (a)_k U(a+k, b+k, z), DLMF 13.3.22.

    ``z`` is a scalar or a 1-D array of points, as for ``hyp_u``."""
    if order < 0 or int(order) != order:
        raise DomainError(f"derivative order must be a nonnegative integer, got {order}")
    a = _c(a)
    b = _c(b)
    c = 1.0 + 0.0j
    for j in range(int(order)):
        c *= -(a + j)
    return c * hyp_u(a + order, b + order, z)


def u_ladder(a0, b0, db: int, w, n_lo: int, count: int):
    """Pairs (U(a, b, w), U(a+1, b+1, w)) at a = a0 + n, b = b0 + db n, in order
    of n = n_lo, ..., n_lo + count - 1.

    Only the pair at a seed term comes from ``hyp_u``; the others follow
    from contiguous relations of U, run from the seed in the direction in
    which U is the dominant solution, so that rounding does not grow
    (Gautschi, SIAM Rev. 9, 1967).  The pairs above the top seed are
    computed as they are taken, so a caller that stops early pays for no
    more steps.

    db = 1: w (a+1) U(a+2, b+2) = (b - w) U(a+1, b+1) + U(a, b), Kummer's
    equation written in the shifts.  U is minimal in n while Re a is
    below about |w| and dominant beyond, so the seed sits at Re a ~ |w|:
    the relation runs backward from there, with no division, and forward
    above it.

    db = 2: w U(a+1, b+2) = b U(a+1, b+1) + U(a, b), applied at (a, b)
    and at (a+1, b+1), with U(a+2, b+2) from the db = 1 relation.  U is
    dominant forward from Re b ~ 1 - 2 min(Re w, 0), where the seed sits;
    the terms below it solve the same relations backward, which divides
    by b - a.  For w in the left half-plane backward steps lose digits
    again once Re b falls below about 1 + 1.5 Re w, so a two-sided ladder
    that reaches there takes a second seed pair at that point and fills
    the terms below it from that seed.  A backward step also loses digits
    as b - a nears 0, and cannot be taken where it is 0: where b - a =
    b0 - a0 + n is within ``LADDER_GAP`` of 0 at a term n below the top
    seed, that term is a seed too.

    Every forward step divides by a + 1, so the top seed also sits above
    the zero of a + 1 when Im a is small.  Where a0 is a nonpositive
    integer (a polynomial U) that puts it at a >= 0, and the backward
    steps cross a = -1, whose factor a + 1 = 0 drops the seed's
    transcendental part exactly.
    """
    a0 = _c(a0)
    b0 = _c(b0)
    w = _c(w)
    if count < 1:
        raise DomainError(f"ladder needs at least one term, got {count}")
    n_hi = n_lo + count - 1
    if db == 1:
        seed = min(max(round(abs(w) - a0.real), n_lo), n_hi)
        return _ladder_1(a0 + n_lo, b0 + n_lo, w, seed - n_lo, count)
    if db != 2:
        raise DomainError(f"ladder step in b must be 1 or 2, got {db}")
    centre, left = (1 - b0.real) / 2, max(0.0, -w.real)
    top = round(centre + left)
    if abs(a0.imag) < 0.5:
        top = max(top, math.ceil(-a0.real - 0.5))
    top = min(max(top, n_lo), n_hi)
    low = round(centre - 0.75 * left)
    seeds = {low} if n_lo < low < top else set()
    k = round(a0.real - b0.real)  # backward steps divide by b - a = b0 - a0 + n
    if n_lo <= k < top and abs(b0 - a0 + k) < LADDER_GAP:
        seeds.add(k)
    seeds = sorted(s - n_lo for s in seeds)
    return _ladder_2(a0 + n_lo, b0 + 2 * n_lo, w, seeds + [top - n_lo], count)


def _ladder_1(a, b, w, seed, count):
    """db = 1 ladder: f_j = U(a+j, b+j, w), term j is (f_j, f_{j+1})."""
    f = [0j] * (seed + 2)
    f[seed] = hyp_u(a + seed, b + seed, w)
    f[seed + 1] = hyp_u(a + seed + 1, b + seed + 1, w)
    for j in range(seed - 1, -1, -1):
        f[j] = w * (a + j + 1) * f[j + 2] - (b + j - w) * f[j + 1]
    yield from zip(f, f[1:])
    lo, hi = f[seed], f[seed + 1]
    for j in range(seed, count - 1):
        lo, hi = hi, ((b + j - w) * hi + lo) / (w * (a + j + 1))
        yield lo, hi


def _ladder_2(a, b, w, seeds, count):
    """db = 2 ladder: term j is (U(a+j, b+2j, w), U(a+j+1, b+2j+1, w)).

    Each seed fills the terms below it down to the seed before it."""
    g = [0j] * (seeds[-1] + 1)
    h = [0j] * (seeds[-1] + 1)
    stop = -1
    for s in seeds:
        g[s] = hyp_u(a + s, b + 2 * s, w)
        h[s] = hyp_u(a + s + 1, b + 2 * s + 1, w)
        for j in range(s - 1, stop, -1):
            aj, bj = a + j, b + 2 * j
            u22 = (w * h[j + 1] - g[j + 1]) / (bj - aj)  # U(aj+2, bj+2)
            h[j] = g[j + 1] - (aj + 1) * u22
            g[j] = w * g[j + 1] - bj * h[j]
        stop = s
    yield from zip(g, h)
    gj, hj = g[-1], h[-1]
    for j in range(seeds[-1], count - 1):
        aj, bj = a + j, b + 2 * j
        u22 = ((bj - w) * hj + gj) / (w * (aj + 1))
        gj, hj = (bj * hj + gj) / w, ((bj + 1) * u22 + hj) / w
        yield gj, hj


def whittaker_w(kappa, mu, y):
    """Irregular Whittaker function W_{kappa,mu}(y) expressed through U.

    ``y`` is a scalar or a 1-D array of points, as for ``hyp_u``, which
    takes an array in one call.
    """
    kappa = _c(kappa)
    mu = _c(mu)
    many = isinstance(y, np.ndarray)
    if many:
        y = _points(y, "W_{kappa,mu}(y)")
    else:
        y = _c(y)
        if y == 0:
            raise BranchError("W_{kappa,mu}(y) has a branch point at y = 0")
    xp = np if many else cmath
    return (
        xp.exp(-y / 2)
        * xp.exp((mu + 0.5) * xp.log(y))
        * hyp_u(0.5 - kappa + mu, 2 * mu + 1, y)
    )
