"""Three-term recurrence engine.

Coefficient generation for one- and two-sided series, continued-fraction
characteristic equations (modified Lentz), minimal-solution diagnostics,
finite-series detection, and the small tridiagonal eigenproblems that
arise from terminating series.
"""

from __future__ import annotations

import cmath
import operator
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .core import DcheParams
from .errors import CFBreakdownError, GenerationError, NoConvergence, TheoremViolation

_TINY = 1e-30
_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class ThreeTermCoeffs:
    """Closures (alpha(n), beta(n), gamma(n)) of the row

        alpha(n) b_{n+1} + beta(n) b_n + gamma(n) b_{n-1} = 0.

    A one-sided series starts at n = 0 with alpha(-1) = 0, so its first
    row has no gamma(0) column.  Closures must be pure functions of n.
    """

    alpha: Callable[[int], complex]
    beta: Callable[[int], complex]
    gamma: Callable[[int], complex]
    two_sided: bool = False


@dataclass
class CoeffSeq:
    """Series coefficients b_n, n from n_min upward, normalized b_0 = 1."""

    values: list
    n_min: int = 0
    finite: bool = False

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def b(self, n: int) -> complex:
        if n < self.n_min or n > self.n_max:
            return 0.0j
        return self.values[n - self.n_min]

    def row_residuals(self, coeffs: ThreeTermCoeffs):
        """Relative residual of each interior recurrence row on re-substitution."""
        out = []
        lo = self.n_min + 1 if self.n_min < 0 else 1
        for n in range(lo, self.n_max):
            terms = (
                coeffs.alpha(n) * self.b(n + 1),
                coeffs.beta(n) * self.b(n),
                coeffs.gamma(n) * self.b(n - 1),
            )
            scale = max(abs(t) for t in terms) or 1.0
            out.append(abs(sum(terms)) / scale)
        return out


def generate(coeffs: ThreeTermCoeffs, n_max: int, finite_n: Optional[int] = None) -> CoeffSeq:
    """Forward generation of a one-sided sequence with b_0 = 1.

    Row 0 reads alpha(0) b_1 + beta(0) b_0 = 0; later rows are the full
    three-term rows.  If ``finite_n`` is given the series is a terminating
    one: exactly N = finite_n coefficients (0 <= n <= N-1) are produced
    and the finite flag is set.
    """
    if coeffs.two_sided:
        raise GenerationError("use generate_two_sided for two-sided coefficients")
    if finite_n is not None:
        n_max = finite_n - 1
    if n_max < 0:
        raise GenerationError("n_max must be >= 0")
    b = [1.0 + 0.0j]
    for n in range(n_max):
        an = coeffs.alpha(n)
        if an == 0:
            raise GenerationError(f"alpha({n}) = 0: cannot advance the recurrence")
        prev = coeffs.gamma(n) * b[n - 1] if n else 0.0
        b.append(-(coeffs.beta(n) * b[n] + prev) / an)
    return CoeffSeq(values=b, finite=finite_n is not None)


def _minimal_ratios(num, diag, off, count: int, depth: int) -> list:
    """Ratios r_k = x_k / x_{k-1}, k = 1..count, of the minimal solution of

        off(k) x_{k+1} + diag(k) x_k + num(k) x_{k-1} = 0,

    by backward recursion r_k = -num(k) / (diag(k) + off(k) r_{k+1})
    started at r = 0 ``depth`` rows beyond ``count`` (Gautschi, SIAM Rev.
    9 (1967)), which damps the dominant branch.  The right tail of a
    recurrence is (gamma, beta, alpha); the left tail is the same
    recursion under n -> -n with alpha and gamma swapped.
    """
    r = 0.0j
    ratios = []
    for k in range(count + depth, 0, -1):
        den = diag(k) + off(k) * r
        if den == 0:
            den = _TINY
        r = -num(k) / den
        if k <= count:
            ratios.append(r)
    ratios.reverse()
    return ratios


def generate_minimal(coeffs: ThreeTermCoeffs, n_max: int, depth: int = 60) -> CoeffSeq:
    """Minimal-solution sequence b_0 = 1, ..., b_{n_max} by backward recursion.

    Forward generation of a minimal solution is unstable: roundoff seeds
    the dominant branch, which overtakes after a few dozen terms.  Ratios
    b_n / b_{n-1} are instead started ``depth`` rows beyond n_max and
    recursed downward (``_minimal_ratios``).  Consistent with the n = 0
    row only when the characteristic equation holds.
    """
    if coeffs.two_sided:
        raise GenerationError("use generate_two_sided for two-sided coefficients")
    if n_max < 0:
        raise GenerationError("n_max must be >= 0")
    ratios = _minimal_ratios(coeffs.gamma, coeffs.beta, coeffs.alpha, n_max, depth)
    return CoeffSeq(values=list(accumulate(ratios, operator.mul, initial=1.0 + 0.0j)))


def lentz(a: Callable[[int], complex], b: Callable[[int], complex], depth: int, tol: float):
    """Value of a(1)/(b(1) + a(2)/(b(2) + ...)) by the modified Lentz algorithm."""
    f = _TINY
    c = f
    d = 0.0j
    for j in range(1, depth + 1):
        aj, bj = a(j), b(j)
        d = bj + aj * d
        if d == 0:
            d = _TINY
        c = bj + aj / c
        if c == 0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if not cmath.isfinite(f):
            raise CFBreakdownError("continued fraction overflowed despite rescue")
        if abs(delta - 1.0) < tol and j > 2:
            return f
    return f


def _tail_fraction(coeffs: ThreeTermCoeffs, direction: int, depth: int, tol: float) -> complex:
    """Right tail (direction=+1): a0 g1/(b1-) a1 g2/(b2-)...; left mirrors it."""
    if direction > 0:
        def a(j):
            s = 1.0 if j == 1 else -1.0
            return s * coeffs.alpha(j - 1) * coeffs.gamma(j)

        def b(j):
            return coeffs.beta(j)
    else:
        def a(j):
            s = 1.0 if j == 1 else -1.0
            return s * coeffs.alpha(-j) * coeffs.gamma(-j + 1)

        def b(j):
            return coeffs.beta(-j)

    return lentz(a, b, depth, tol)


def char_value(coeffs: ThreeTermCoeffs, depth: int = 60, tol: float = 1e-14) -> complex:
    """Characteristic function whose root selects the minimal solution.

    One-sided: beta(0) - K with K the infinite continued fraction of the
    right tail.  Two-sided: beta(0) minus both the left and right tails.
    A root of char_value = 0 is the condition for the generated sequence
    to be the minimal solution.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = coeffs.beta(0) - _tail_fraction(coeffs, +1, depth, tol)
    if coeffs.two_sided:
        value -= _tail_fraction(coeffs, -1, depth, tol)
    return value


@dataclass
class RootResult:
    x: complex
    residual: float
    iterations: int


def char_root(
    factory: Callable[[complex], ThreeTermCoeffs],
    guess: complex,
    tol: float = 1e-11,
    depth: int = 80,
    max_iter: int = 200,
) -> RootResult:
    """Secant root of x -> char_value(factory(x)) starting from guess.

    ``x`` is whatever scalar parametrizes the coefficients (a constant
    term, a phase parameter, an energy).  Raises NoConvergence after
    ``max_iter`` steps; multi-start from perturbed guesses is advised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def f(x):
        return char_value(factory(x), depth=depth, tol=min(tol * 1e-3, 1e-14))

    x0 = complex(guess)
    x1 = x0 * (1 + 1e-4) + 1e-4 * (1 + 0.3j)
    f0, f1 = f(x0), f(x1)
    for it in range(1, max_iter + 1):
        if abs(f1) < tol:
            return RootResult(x=x1, residual=abs(f1), iterations=it)
        denom = f1 - f0
        if denom == 0:
            x2 = x1 + 1e-7 * (1 + 1j)
        else:
            x2 = x1 - f1 * (x1 - x0) / denom
        x0, f0 = x1, f1
        x1 = x2
        f1 = f(x1)
        if abs(f1) < tol or (abs(x1 - x0) < 1e-15 * max(1.0, abs(x1)) and abs(f1) < 1e3 * tol):
            return RootResult(x=x1, residual=abs(f1), iterations=it + 1)
    raise NoConvergence(
        f"secant iteration stalled at |char_value| = {abs(f1):.3e} after {max_iter} steps; "
        "try a different starting guess (multi-start)"
    )


@dataclass
class RatioReport:
    skipped: bool
    fitted: complex = 0.0
    expected: Optional[complex] = None
    passed: Optional[bool] = None
    growing: bool = False


def minimal_ratio_check(seq: CoeffSeq, expected_const: Optional[complex] = None) -> RatioReport:
    """Check that b_{n+1}/b_n decays like const/n (minimal solution pattern).

    The dominant solution has ratios growing like -n instead.  For a
    finite series the test is meaningless and is skipped with a flag.
    ``expected_const`` is the predicted limit of n * b_{n+1}/b_n.
    """
    if seq.finite:
        return RatioReport(skipped=True)
    vals = seq.values
    if len(vals) < 20:
        raise ValueError("need at least 20 coefficients for the ratio check")
    n_hi = len(vals) - 2
    fitted = []
    for n in range(max(1, n_hi - 8), n_hi + 1):
        if vals[n] == 0:
            continue
        fitted.append(n * vals[n + 1] / vals[n])
    c = fitted[-1]
    growing = abs(vals[-1]) > abs(vals[len(vals) // 2]) and abs(c) > 10 * max(
        1.0, abs(expected_const or 1.0)
    )
    passed = None
    if expected_const is not None:
        passed = (not growing) and abs(c - expected_const) <= 0.2 * abs(expected_const)
    return RatioReport(skipped=False, fitted=c, expected=expected_const, passed=passed, growing=growing)


# Finite-series conditions per solution pair: the displayed offsets
# B2/2 + i*eta (pairs 1, 3) or B2/2 - i*eta (pairs 2, 4) must sit at the
# stated integer.  Pairs 5..8 are the sign-flipped images (eta -> -eta).
def finite_series_condition(pair_id: int, params: DcheParams) -> Optional[int]:
    """N >= 1 when the pair's series terminates with 0 <= n <= N-1, else None."""
    if pair_id not in range(1, 9):
        raise ValueError("pair_id must be 1..8")
    ie = params.i_eta
    if pair_id in (5, 6, 7, 8):
        ie = -ie
        pair_id -= 4
    half = params.b2 / 2
    if pair_id in (1, 3):
        x = 1 - (half + ie)
    else:
        x = (half - ie) - 1
    n = round(x.real)
    if n >= 1 and abs(x - n) <= _INTEGER_TOL:
        return n
    return None


@dataclass
class EigenResult:
    values: list
    certified: bool
    products: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.values)


def _tridiag_matrix(coeffs: ThreeTermCoeffs, size: int) -> np.ndarray:
    """Rows 0..size-1: diagonal beta(j), superdiagonal alpha(j), subdiagonal gamma(j)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    m = np.zeros((size, size), dtype=complex)
    for j in range(size):
        m[j, j] = coeffs.beta(j)
        if j + 1 < size:
            m[j, j + 1] = coeffs.alpha(j)
            m[j + 1, j] = coeffs.gamma(j + 1)
    return m


def tridiag_eigen(coeffs: ThreeTermCoeffs, size: int) -> EigenResult:
    """All eigenvalues of the size x size tridiagonal coefficient matrix.

    Diagonal beta(j), superdiagonal alpha(j), subdiagonal gamma(j).  When
    every product alpha(j) * gamma(j+1) is real and positive (the product
    is invariant under the i^n rescaling that makes pure-imaginary
    off-diagonals real) the eigenvalues are certified real and distinct
    and are returned sorted ascending; otherwise a TheoremViolation
    warning is issued and eigenvalues are sorted by real part, and by
    imaginary part among those whose real parts agree (_spectral_order).
    """
    m = _tridiag_matrix(coeffs, size)
    ev = np.linalg.eigvals(m)
    products = [complex(m[j, j + 1] * m[j + 1, j]) for j in range(size - 1)]
    scale = max((abs(p) for p in products), default=1.0) or 1.0
    diag_real = all(abs(m[j, j].imag) <= 1e-12 * max(1.0, abs(m[j, j])) for j in range(size))
    certified = diag_real and all(
        abs(p.imag) <= 1e-10 * scale and p.real > 0 for p in products
    )
    if certified:
        vals = [complex(v) for v in sorted(float(v.real) for v in ev)]
    else:
        if size > 1:
            warnings.warn(
                "a product alpha_j * gamma_{j+1} is not real-positive: eigenvalues "
                "are not certified real and distinct",
                TheoremViolation,
            )
        vals = _spectral_order([complex(v) for v in ev])
    return EigenResult(values=vals, certified=certified, products=products)


def _spectral_order(values: list) -> list:
    """Complex eigenvalues by real part, then by imaginary part within each
    group whose real parts agree to 1e-8 of the largest modulus.

    The real parts of a conjugate-like pair come out of eigvals equal up to
    rounding, so a plain (real, imag) key would let rounding pick which of
    the two comes first.
    """
    vals = sorted(values, key=lambda v: v.real)
    tol = 1e-8 * max((abs(v) for v in vals), default=0.0)
    out, group = [], []
    for v in vals:
        if group and v.real - group[0].real > tol:
            out += sorted(group, key=lambda u: u.imag)
            group = []
        group.append(v)
    return out + sorted(group, key=lambda u: u.imag)


def generate_two_sided(
    coeffs: ThreeTermCoeffs,
    window: Optional[int] = None,
    depth: int = 60,
    tail_tol: float = 1e-16,
) -> CoeffSeq:
    """Two-sided minimal sequence b_n, |n| <= window, normalized b_0 = 1.

    Ratios toward each tail are evaluated by backward recursion started
    deep in the tail (minimal-solution selection).  If ``window`` is None
    it is doubled from 8 until both tail coefficients are below
    tail_tol * max|b_n|, capped at 128.
    """
    if not coeffs.two_sided:
        raise GenerationError("coefficients are not two-sided")

    def build(w: int) -> CoeffSeq:
        right = _minimal_ratios(coeffs.gamma, coeffs.beta, coeffs.alpha, w, depth)
        left = _minimal_ratios(
            lambda m: coeffs.alpha(-m), lambda m: coeffs.beta(-m), lambda m: coeffs.gamma(-m),
            w, depth,
        )
        one = 1.0 + 0.0j
        below = list(accumulate(left, operator.mul, initial=one))[:0:-1]  # b_{-w}..b_{-1}
        above = list(accumulate(right, operator.mul, initial=one))  # b_0..b_w
        return CoeffSeq(values=below + above, n_min=-w)

    if window is not None:
        return build(window)
    w = 8
    while True:
        seq = build(w)
        mx = max(abs(v) for v in seq.values)
        if (abs(seq.values[0]) <= tail_tol * mx and abs(seq.values[-1]) <= tail_tol * mx) or w >= 128:
            return seq
        w *= 2
