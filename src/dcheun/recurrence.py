"""Three-term recurrence engine.

Forward generation, finite-series detection, the small tridiagonal
eigenproblems that arise from terminating series, and one minimal-solution
routine (``_minimal_ratios``).  It starts the deepest ratio from the tail's
continued fraction (modified Lentz), fills the rest by backward recursion,
and raises NoConvergence when the fraction has not settled within
``CF_ROWS`` rows.  The one-sided series, both tails of a two-sided
sequence and the characteristic value (row 0 of the minimal solution) all
take their ratios from it.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .core import DcheParams
from .errors import CFBreakdownError, GenerationError, NoConvergence, TheoremViolation
from .tolerances import (
    CERT_DIAG_IMAG,
    CERT_PRODUCT_IMAG,
    CF_ROWS,
    CF_TINY,
    CF_TOL,
    CHAR_ROOT_MAX_ITER,
    CHAR_ROOT_TOL,
    INTEGER_TOL,
    REAL_PART_TIE,
    SECANT_NUDGE,
    SECANT_OFFSET,
    STALL_FACTOR,
    STALL_STEP,
)


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


def generate(coeffs: ThreeTermCoeffs, n_max: int) -> CoeffSeq:
    """Forward generation of b_0 = 1, ..., b_{n_max} of a one-sided sequence.

    Row 0 reads alpha(0) b_1 + beta(0) b_0 = 0; later rows are the full
    three-term rows.  The sequence is not marked finite: a caller whose
    series terminates sets the flag.
    """
    if coeffs.two_sided:
        raise GenerationError("use generate_two_sided for two-sided coefficients")
    if n_max < 0:
        raise GenerationError("n_max must be >= 0")
    b = [1.0 + 0.0j]
    for n in range(n_max):
        an = coeffs.alpha(n)
        if an == 0:
            raise GenerationError(f"alpha({n}) = 0: cannot advance the recurrence")
        prev = coeffs.gamma(n) * b[n - 1] if n else 0.0
        b.append(-(coeffs.beta(n) * b[n] + prev) / an)
    return CoeffSeq(values=b)


def _minimal_ratios(num, diag, off, count: int) -> list:
    """Ratios r_k = x_k / x_{k-1}, k = 1..count, of the minimal solution of

        off(k) x_{k+1} + diag(k) x_k + num(k) x_{k-1} = 0.

    The deepest ratio is the tail's continued fraction

        r_count = -num(count) / (diag(count) - off(count) num(count+1) / (diag(count+1) - ...)),

    summed by ``lentz`` over at most ``CF_ROWS`` rows; the others follow
    by backward recursion r_k = -num(k) / (diag(k) + off(k) r_{k+1})
    (Gautschi, SIAM Rev. 9 (1967)).  The right tail of a recurrence is
    (gamma, beta, alpha); the left tail is the same recursion under
    n -> -n with alpha and gamma swapped (``_tail``).  Raises
    NoConvergence when the fraction does not settle: then the recurrence
    has no minimal solution there, or none that the cap resolves.
    """
    if count < 1:
        return []
    r = lentz(
        lambda j: -num(count) if j == 1 else -off(count + j - 2) * num(count + j - 1),
        lambda j: diag(count + j - 1),
        CF_ROWS,
        CF_TOL,
    )
    ratios = [r]
    for k in range(count - 1, 0, -1):
        den = diag(k) + off(k) * r
        if den == 0:
            den = CF_TINY
        r = -num(k) / den
        ratios.append(r)
    ratios.reverse()
    return ratios


def _tail(coeffs: ThreeTermCoeffs, side: int):
    """(num, diag, off) of the right (side = +1) or left (side = -1) tail."""
    if side > 0:
        return coeffs.gamma, coeffs.beta, coeffs.alpha
    return (
        lambda m: coeffs.alpha(-m), lambda m: coeffs.beta(-m), lambda m: coeffs.gamma(-m)
    )


def generate_minimal(coeffs: ThreeTermCoeffs, n_max: int) -> CoeffSeq:
    """Minimal-solution sequence b_0 = 1, ..., b_{n_max} by backward recursion.

    Forward generation of a minimal solution is unstable: roundoff seeds
    the dominant branch, which overtakes after a few dozen terms.  The
    ratios b_n / b_{n-1} come from ``_minimal_ratios`` instead.
    Consistent with the n = 0 row only when the characteristic equation
    holds.
    """
    if coeffs.two_sided:
        raise GenerationError("use generate_two_sided for two-sided coefficients")
    if n_max < 0:
        raise GenerationError("n_max must be >= 0")
    ratios = _minimal_ratios(*_tail(coeffs, +1), n_max)
    return CoeffSeq(values=list(accumulate(ratios, operator.mul, initial=1.0 + 0.0j)))


def lentz(a: Callable[[int], complex], b: Callable[[int], complex], depth: int, tol: float):
    """Value of a(1)/(b(1) + a(2)/(b(2) + ...)) by the modified Lentz algorithm.

    Stops once a row changes the value by less than ``tol`` (relative);
    raises NoConvergence when ``depth`` rows do not get there.
    """
    f = CF_TINY
    c = f
    d = 0.0j
    for j in range(1, depth + 1):
        aj, bj = a(j), b(j)
        d = bj + aj * d
        if d == 0:
            d = CF_TINY
        c = bj + aj / c
        if c == 0:
            c = CF_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if not cmath.isfinite(f):
            raise CFBreakdownError("continued fraction overflowed despite rescue")
        if abs(delta - 1.0) < tol and j > 2:
            return f
    raise NoConvergence(f"continued fraction not settled after {depth} rows")


def char_value(coeffs: ThreeTermCoeffs) -> complex:
    """Characteristic function whose root selects the minimal solution.

    Row 0 of the minimal solution: beta(0) + alpha(0) r_1, plus
    gamma(0) r_{-1} when two-sided, with the ratios r_{+-1} = b_{+-1} / b_0
    of each tail from ``_minimal_ratios``.  It vanishes exactly when the
    minimal solution also satisfies the central row.
    """
    value = coeffs.beta(0) + coeffs.alpha(0) * _minimal_ratios(*_tail(coeffs, +1), 1)[0]
    if coeffs.two_sided:
        value += coeffs.gamma(0) * _minimal_ratios(*_tail(coeffs, -1), 1)[0]
    return value


@dataclass
class RootResult:
    x: complex
    residual: float
    iterations: int


def char_root(
    factory: Callable[[complex], ThreeTermCoeffs],
    guess: complex,
    tol: float = CHAR_ROOT_TOL,
    max_iter: int = CHAR_ROOT_MAX_ITER,
) -> RootResult:
    """Secant root of x -> char_value(factory(x)) starting from guess.

    ``x`` is whatever scalar parametrizes the coefficients (a constant
    term, a phase parameter, an energy).  Raises NoConvergence after
    ``max_iter`` steps, or at the first iterate whose continued fraction
    does not settle within ``CF_ROWS`` rows; multi-start from perturbed
    guesses is advised.  ``tol`` must be positive and finite (ValueError).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not tol < math.inf:
        raise ValueError(f"tol must be finite, got {tol!r}")

    def f(x):
        return char_value(factory(x))

    x0 = complex(guess)
    x1 = x0 * (1 + SECANT_OFFSET) + SECANT_OFFSET * (1 + 0.3j)
    f0, f1 = f(x0), f(x1)
    for it in range(1, max_iter + 1):
        if abs(f1) < tol:
            return RootResult(x=x1, residual=abs(f1), iterations=it)
        denom = f1 - f0
        if denom == 0:
            x2 = x1 + SECANT_NUDGE * (1 + 1j)
        else:
            x2 = x1 - f1 * (x1 - x0) / denom
        x0, f0 = x1, f1
        x1 = x2
        f1 = f(x1)
        stalled = abs(x1 - x0) < STALL_STEP * max(1.0, abs(x1))
        if abs(f1) < tol or (stalled and abs(f1) < STALL_FACTOR * tol):
            return RootResult(x=x1, residual=abs(f1), iterations=it + 1)
    raise NoConvergence(
        f"secant iteration stalled at |char_value| = {abs(f1):.3e} after {max_iter} steps; "
        "try a different starting guess (multi-start)"
    )


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
    if n >= 1 and abs(x - n) <= INTEGER_TOL:
        return n
    return None


@dataclass
class EigenResult:
    values: list
    certified: bool
    products: list = field(default_factory=list)


def _tridiag_matrix(coeffs: ThreeTermCoeffs, size: int) -> np.ndarray:
    """Rows 0..size-1: diagonal beta(j), superdiagonal alpha(j), subdiagonal gamma(j).

    The matrix is real when every entry is, so that an eigensolve takes
    LAPACK's real routine.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    m = np.zeros((size, size), dtype=complex)
    for j in range(size):
        m[j, j] = coeffs.beta(j)
        if j + 1 < size:
            m[j, j + 1] = coeffs.alpha(j)
            m[j + 1, j] = coeffs.gamma(j + 1)
    return m if m.imag.any() else m.real.copy()


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
    diag_real = all(
        abs(m[j, j].imag) <= CERT_DIAG_IMAG * max(1.0, abs(m[j, j])) for j in range(size)
    )
    certified = diag_real and all(
        abs(p.imag) <= CERT_PRODUCT_IMAG * scale and p.real > 0 for p in products
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
    tol = REAL_PART_TIE * max((abs(v) for v in vals), default=0.0)
    out, group = [], []
    for v in vals:
        if group and v.real - group[0].real > tol:
            out += sorted(group, key=lambda u: u.imag)
            group = []
        group.append(v)
    return out + sorted(group, key=lambda u: u.imag)


def generate_two_sided(coeffs: ThreeTermCoeffs, window: int) -> CoeffSeq:
    """Two-sided minimal sequence b_n, |n| <= window, normalized b_0 = 1.

    Each tail's ratios come from ``_minimal_ratios``.  A window below 1
    raises GenerationError.
    """
    if not coeffs.two_sided:
        raise GenerationError("coefficients are not two-sided")
    if window < 1:
        raise GenerationError(f"window must be >= 1, got {window}")
    one = 1.0 + 0.0j
    right = _minimal_ratios(*_tail(coeffs, +1), window)
    left = _minimal_ratios(*_tail(coeffs, -1), window)
    below = list(accumulate(left, operator.mul, initial=one))[:0:-1]  # b_{-w}..b_{-1}
    above = list(accumulate(right, operator.mul, initial=one))  # b_0..b_w
    return CoeffSeq(values=below + above, n_min=-window)
