"""Quasi-exactly-solvable hyperbolic potentials and radial parameter maps.

Maps two hyperbolic Schrodinger potentials onto the equation through
z = e^u.  The energy enters only through B3, so both spectra come from
one energy matrix, minus the series rows at E = 0: its leading 2s+1
block gives the algebraic part of the spectrum, and the eigenvalues of
a deeper truncation seed the continued-fraction roots of the
infinite-series part.  Assembles eigenfunctions (with matching of the
two series pieces when they do not terminate) and checks the regularity
conditions psi(u) -> 0 as u -> +-infinity.  Also provides the parameter
maps for two radial potentials that reduce to the algebraic normal forms.

An eigenfunction's psi is the pair member carried to u by the gauge
z^{(B2-1)/2} e^{-B1/(2z)} and z = e^u, with derivatives from core's jet
rules.  The parity-resolved psi at C = 0 is the even or odd part of that
psi, (psi(-u) +- psi(u))/2.  An eigenfunction's psi, like ``potential``,
takes a float u or a float array; ``schrodinger_residual`` evaluates psi once on its whole grid.
``regularity_check`` stays pointwise: it accepts any scalar psi and
catches OverflowError point by point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DcheParams, jet_chain, jet_exp, jet_product
from .errors import (
    DcheunError,
    DegenerateError,
    DomainError,
    MatchFailure,
    NoRoots,
    NotQes,
)
from .recurrence import (
    ThreeTermCoeffs,
    _tridiag_matrix,
    char_root,
    finite_series_condition,
    tridiag_eigen,
)
from .solutions import build_pair_power, power_coeffs
from .tolerances import (
    BRACKET_SLACK,
    CF_ROOT_TOL,
    CF_SEED_ROWS,
    COMPLEX_ROOT_TOL,
    LEVEL_DEDUPE,
    MAGNITUDE_FLOOR,
    MATCH_U,
    MISMATCH_TOL,
    PARITY_PROBE_TOL,
    PARITY_PROBE_U,
    TAIL_FRAC,
    TAIL_U,
)

KINDS = ("DOUBLE_MORSE", "SECOND_TYPE")


@dataclass(frozen=True)
class QesProblem:
    """A hyperbolic potential with strength B, asymmetry C and spin-like s.

    DOUBLE_MORSE: V(u) = (B^2/4)(sinh u - C/B)^2 - B(s + 1/2) cosh u.
    SECOND_TYPE:  V(u) = (B^2/4) sinh^2 u - B(s + 1/2) sinh u (C = 0).
    The reduced energy is E := 2 m E_phys / (hbar a)^2.
    """

    kind: str
    B: float
    s: float
    C: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        for name in ("B", "C", "s"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.B <= 0:
            raise DomainError("B must be positive")
        if self.s < 0:
            raise DomainError("s must be nonnegative")
        if self.kind == "SECOND_TYPE" and self.C != 0:
            raise DomainError("the sinh-forced potential has no asymmetry parameter")
        if self.C < 0:
            raise DomainError("C must be nonnegative")

    @property
    def qes_flag(self) -> bool:
        """True when s is a nonnegative integer or half-integer: the series
        of pair 1 terminates, after N = 1 + 2s terms for both potentials."""
        return finite_series_condition(1, problem_params(self)) is not None


def potential(problem: QesProblem, u):
    """V(u) at a float u, or at a float array of points."""
    B, C, s = problem.B, problem.C, problem.s
    xp = np if isinstance(u, np.ndarray) else math
    if problem.kind == "DOUBLE_MORSE":
        return (B**2 / 4) * (xp.sinh(u) - C / B) ** 2 - B * (s + 0.5) * xp.cosh(u)
    return (B**2 / 4) * xp.sinh(u) ** 2 - B * (s + 0.5) * xp.sinh(u)


def problem_params(problem: QesProblem, energy: complex = 0.0) -> DcheParams:
    """Equation parameters of the potential at an energy, with z = e^u.

    DOUBLE_MORSE (asymmetric cosh-forced):
    (B1, B2, B3, omega, i eta) = (B/2, 1+C-2s, E+B^2/8+s^2-sC, iB/4, -C/2-1/2-s).
    SECOND_TYPE (sinh-forced):
    (B1, B2, B3, i omega, i eta) = (-B/2, 1-2s, E+B^2/8+s^2, -B/4, -1/2-s).
    Both share psi(u) = z^{(B2-1)/2} e^{-B1/(2z)} U(z).  B3 is affine in
    the energy.
    """
    B, C, s = problem.B, problem.C, problem.s
    if problem.kind == "DOUBLE_MORSE":
        return DcheParams(
            b1=B / 2,
            b2=1 + C - 2 * s,
            b3=energy + B**2 / 8 + s**2 - s * C,
            omega=1j * B / 4,
            eta=(-C / 2 - 0.5 - s) / 1j,
        )
    return DcheParams(
        b1=-B / 2,
        b2=1 - 2 * s,
        b3=energy + B**2 / 8 + s**2,
        omega=(-B / 4) / 1j,
        eta=(-0.5 - s) / 1j,
    )


@dataclass
class SpectrumResult:
    energies: list
    method: str
    certificates: dict = field(default_factory=dict)


def _energy_rows(problem: QesProblem, pair: int) -> ThreeTermCoeffs:
    """Rows of the energy matrix M of series pair ``pair``: M b = E b.

    The energy enters the rows only through B3, on the diagonal with
    slope 1, so M is minus the pair's rows at E = 0.
    """
    tc = power_coeffs(pair, problem_params(problem, 0.0))
    return ThreeTermCoeffs(
        alpha=lambda n: -tc.alpha(n),
        beta=lambda n: -tc.beta(n),
        gamma=lambda n: -tc.gamma(n),
    )


def quasi_polynomial_spectrum(problem: QesProblem, route: str = "PAIR1") -> SpectrumResult:
    """Energies of the terminating series, for either potential kind.

    For the sinh-forced potential the resulting eigenfunctions are not
    regular; they are exposed only as regularity counterexamples.
    """
    if route not in ("PAIR1", "PAIR3"):
        raise ValueError("route must be PAIR1 or PAIR3")
    size = finite_series_condition(1, problem_params(problem))
    if size is None:
        raise NotQes(f"s = {problem.s} is not an integer or half-integer")
    res = tridiag_eigen(_energy_rows(problem, 1 if route == "PAIR1" else 3), size)
    certs = {"offdiag_products": res.products, "certified_real_distinct": res.certified}
    energies = [v.real if res.certified else v for v in res.values]
    return SpectrumResult(energies=energies, method="TRIDIAG", certificates=certs)


def qes_spectrum(problem: QesProblem, route: str = "PAIR1") -> SpectrumResult:
    """The 2s+1 real distinct algebraic energies of the cosh-forced potential."""
    if problem.kind != "DOUBLE_MORSE":
        raise DomainError(
            "terminating series of the sinh-forced potential are not regular; "
            "use infinite_spectrum"
        )
    return quasi_polynomial_spectrum(problem, route)


def _series_pair_id(problem: QesProblem) -> int:
    return 1 if problem.kind == "DOUBLE_MORSE" else 2


def energy_coeff_factory(problem: QesProblem) -> Callable[[complex], ThreeTermCoeffs]:
    """Recurrence coefficients of the regular series pair as a function of E."""
    pair = _series_pair_id(problem)

    def factory(energy: complex) -> ThreeTermCoeffs:
        return power_coeffs(pair, problem_params(problem, energy))

    return factory


def infinite_spectrum(problem: QesProblem, bracket) -> SpectrumResult:
    """Energies from roots of the characteristic continued fraction.

    Starting guesses are the distinct real parts, inside ``bracket =
    (lo, hi)``, of the eigenvalues of the regular pair's energy matrix
    truncated at 80 rows.  Each is polished by secant iteration on the
    characteristic value to 1e-10; complex roots are dropped, and the real
    roots validated by an eigenfunction whose two series pieces match are
    kept.  Raises NoRoots when the bracket contains none.

    A characteristic root only guarantees that both series of the pair
    converge and solve the equation; it does not by itself make them
    proportional, so regularity at both ends is a runtime check, not an
    assumption.  Terminating (quasi-exactly-solvable) energies pass the
    check and reproduce the tridiagonal spectrum; non-terminating roots
    are kept only when the derivative matching succeeds, and brackets
    holding none raise NoRoots.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("bracket must be finite")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    factory = energy_coeff_factory(problem)
    rows = _energy_rows(problem, _series_pair_id(problem))
    eigs = np.linalg.eigvals(_tridiag_matrix(rows, CF_SEED_ROWS))
    seeds = sorted({v.real for v in eigs if lo <= v.real <= hi})
    roots = []
    for seed in seeds:
        try:
            r = char_root(factory, complex(seed), tol=CF_ROOT_TOL)
        except (DcheunError, ArithmeticError):
            continue
        if abs(r.x.imag) > COMPLEX_ROOT_TOL * max(1.0, abs(r.x)):
            continue  # a complex characteristic root is no level
        e = r.x.real
        if not (lo - BRACKET_SLACK <= e <= hi + BRACKET_SLACK):
            continue
        if any(abs(e - q) < LEVEL_DEDUPE for q in roots):
            continue
        # a characteristic root need not be a level: a genuine eigenvalue
        # must admit a matched regular eigenfunction
        try:
            eigenfunction(problem, e)
        except MatchFailure:
            continue
        roots.append(e)
    if not roots:
        raise NoRoots(f"no spectrum found in [{lo}, {hi}]")
    return SpectrumResult(
        energies=sorted(roots),
        method="CONTINUED_FRACTION",
        certificates={"char_depth": CF_SEED_ROWS},
    )


@dataclass
class Eigenfunction:
    """Evaluable wavefunction: psi(u) -> (value, dpsi/du, d2psi/du2)."""

    psi: Callable[[float], tuple]
    problem: QesProblem
    energy: complex
    pair_id: int
    finite: bool
    mismatch: float
    parity: Optional[str] = None
    match_u: Optional[float] = None

    def __call__(self, u):
        return self.psi(u)


def _member_to_psi(params: DcheParams, member) -> Callable[[float], tuple]:
    """Wrap a z-plane pair member as psi(u) with z = e^u.

    psi = P(u) V(u) with log P = ((B2-1)/2) u - (B1/2) e^{-u} and
    V(u) = member(e^u).  ``u`` is a float or a float array, which the
    member evaluates in one call.
    """
    b1, b2 = params.b1, params.b2

    def psi(u):
        xp = np if isinstance(u, np.ndarray) else cmath
        z = xp.exp(u)
        pre = xp.exp(((b2 - 1) / 2) * u - (b1 / 2) * xp.exp(-u))
        gauge = jet_exp(pre, (b2 - 1) / 2 + b1 / (2 * z), -b1 / (2 * z))
        return jet_product(gauge, jet_chain(member(z), (z, z, z)))

    return psi


def _parity_part(psi: Callable, parity: str) -> Callable[[float], tuple]:
    """(psi(-u) + psi(u))/2 (EVEN) or (psi(-u) - psi(u))/2 (ODD), with its
    two derivatives; ``u`` is a float or a float array.

    At C = 0, psi(u) = e^{-(B/2) cosh u} sum_n b_n (B/2)^{-n} e^{(s-n)u},
    so the parts are the sums with cosh((n-s)u) and sinh((n-s)u).
    """
    sign = 1 if parity == "EVEN" else -1

    def part(u):
        (v, d1, d2), (r0, r1, r2) = psi(u), psi(-u)
        return (r0 + sign * v) / 2, (sign * d1 - r1) / 2, (r2 + sign * d2) / 2

    return part


def eigenfunction(
    problem: QesProblem,
    energy: complex,
    pair_choice: Optional[int] = None,
    parity: Optional[str] = None,
    mismatch_tol: float = MISMATCH_TOL,
) -> Eigenfunction:
    """Wavefunction at a candidate energy, with an eigenvalue diagnostic.

    Terminating series give a single globally valid quasi-polynomial;
    the diagnostic is the relative residual of the closing recurrence
    row.  Non-terminating series are pieced from the member convergent
    at large e^u (u >= 0) and the member convergent at small e^u
    (u <= 0), each scaled to unit value at the matching point; the
    diagnostic is the relative derivative mismatch there.  A diagnostic
    above ``mismatch_tol`` raises MatchFailure (the energy is not an
    eigenvalue).  ``parity`` EVEN/ODD builds the symmetric/antisymmetric
    combination (terminating series at C = 0 only).
    """
    if pair_choice is None:
        pair_choice = _series_pair_id(problem)
    params = problem_params(problem, energy)
    tc = power_coeffs(pair_choice, params)
    u_inf, u_zero = build_pair_power(pair_choice, params)
    seq = u_inf.coeffs
    if seq.finite:
        # closing row: alpha_{N-1} b_N vanishes only at an eigenvalue
        n = seq.n_max
        terms = (tc.beta(n) * seq.b(n), tc.gamma(n) * seq.b(n - 1))
        scale = max(max(abs(t) for t in terms), max(abs(v) for v in seq.values))
        mismatch = abs(sum(terms)) / scale
        if mismatch > mismatch_tol:
            raise MatchFailure(
                f"closing-row residual {mismatch:.3e} at energy {energy}: "
                "not an eigenvalue"
            )
        psi = _member_to_psi(params, u_inf)
        if parity is not None:
            if problem.C != 0:
                raise DomainError("parity combinations exist only for C = 0")
            if parity not in ("EVEN", "ODD"):
                raise ValueError("parity must be EVEN or ODD")
            # the combination of the wrong parity cancels: it is judged
            # against psi(u) and psi(-u) at the same points
            u = np.array(PARITY_PROBE_U)
            scale = max(np.abs(psi(u)[0]).max(), np.abs(psi(-u)[0]).max())
            psi = _parity_part(psi, parity)
            if np.abs(psi(u)[0]).max() < PARITY_PROBE_TOL * scale:
                raise DomainError(
                    f"the {parity} combination vanishes at energy {energy}; "
                    "the eigenfunction has the opposite parity"
                )
        return Eigenfunction(
            psi=psi, problem=problem, energy=energy, pair_id=pair_choice,
            finite=True, mismatch=mismatch, parity=parity,
        )

    if parity is not None:
        raise DomainError("parity combinations require a terminating series")
    p_inf = _member_to_psi(params, u_inf)
    p_zero = _member_to_psi(params, u_zero)
    vi, di, _ = p_inf(MATCH_U)
    vz, dz, _ = p_zero(MATCH_U)
    if vi == 0 or vz == 0:
        raise MatchFailure("a series piece vanishes at the matching point")
    di, dz = di / vi, dz / vz
    mismatch = abs(di - dz) / max(abs(di), abs(dz), 1.0)
    if mismatch > mismatch_tol:
        raise MatchFailure(
            f"derivative mismatch {mismatch:.3e} at u* = {MATCH_U}: "
            f"energy {energy} is not an eigenvalue"
        )

    def psi(u):
        if not isinstance(u, np.ndarray):
            if u >= MATCH_U:
                v, d1, d2 = p_inf(u)
                return v / vi, d1 / vi, d2 / vi
            v, d1, d2 = p_zero(u)
            return v / vz, d1 / vz, d2 / vz
        out = np.empty((3, len(u)), dtype=complex)
        for side, piece, scale in ((u >= MATCH_U, p_inf, vi), (u < MATCH_U, p_zero, vz)):
            if side.any():
                out[:, side] = np.array(piece(u[side])) / scale
        return tuple(out)

    return Eigenfunction(
        psi=psi, problem=problem, energy=energy, pair_id=pair_choice,
        finite=False, mismatch=mismatch, match_u=MATCH_U,
    )


def schrodinger_residual(
    efn: Eigenfunction, u_grid: Sequence[float]
) -> float:
    """max |psi'' + (E - V) psi| over the grid, relative to max |psi|.

    psi is called once, on the whole grid as a float array.
    """
    u = np.asarray(u_grid, dtype=float)
    v, _, d2 = efn.psi(u)
    res = np.abs(d2 + (efn.energy - potential(efn.problem, u)) * v)
    return float(res.max()) / max(float(np.abs(v).max()), MAGNITUDE_FLOOR)


@dataclass
class RegularityReport:
    passed: bool
    tail_plus: float
    tail_minus: float
    interior_max: float
    rate_plus: float
    rate_minus: float
    predicted_rate: float


def regularity_check(psi: Callable, problem: QesProblem) -> RegularityReport:
    """Decay of |psi| toward u = +-10.

    Passes when both tails fall below 1e-6 of the interior maximum on
    [-6, 6] and the measured log-decrements have the sign of the
    dominant prefactor rate (B/2) sinh(u) cosh-well decay.
    """

    def val(u):
        try:
            out = psi(u)
        except OverflowError:
            return math.inf
        return abs(out[0]) if isinstance(out, tuple) else abs(out)

    interior = max(val(u) for u in np.linspace(-6.0, 6.0, 49))
    tp, tm = val(TAIL_U), val(-TAIL_U)
    # log-decrement over the last half-unit at each end; a tail that
    # underflows to zero counts as decaying
    rp = math.log(max(val(TAIL_U - 0.5), MAGNITUDE_FLOOR)) - math.log(max(tp, MAGNITUDE_FLOOR))
    rm = math.log(max(val(-TAIL_U + 0.5), MAGNITUDE_FLOOR)) - math.log(max(tm, MAGNITUDE_FLOOR))
    pred = (problem.B / 2) * (math.cosh(TAIL_U) - math.cosh(TAIL_U - 0.5))
    passed = (
        interior > 0
        and tp < TAIL_FRAC * interior
        and tm < TAIL_FRAC * interior
        and (rp > 0 or tp == 0.0)
        and (rm > 0 or tm == 0.0)
    )
    return RegularityReport(
        passed=passed, tail_plus=tp, tail_minus=tm, interior_max=interior,
        rate_plus=rp, rate_minus=rm, predicted_rate=pred,
    )


RADIAL_KINDS = ("INVERSE_POWER", "EVEN_POWER")


def map_radial(kind: str, v1, v2, v3, v4, energy, l) -> list:
    """Equation parameters for two radial potentials, both B1 sign branches.

    INVERSE_POWER, V(r) = V1/r + V2/r^2 + V3/r^3 + V4/r^4, matches the
    algebraic normal form in z = r:
    omega^2 = E, 2 eta omega = V1, B1^2 = 4 V4, B1(1 - B2/2) = -V3,
    B3 - B2^2/4 + B2/2 = -l(l+1) - V2.

    EVEN_POWER, V(r) = V1 r^2 + V2/r^2 + V3/r^4 + V4/r^6, matches the
    quadratic-variable normal form in rho = r:
    4 omega^2 = -V1, 8 eta omega = -E, B1^2 = V4, 4 B1(1 - B2/2) = -V3,
    4(B3 - B2^2/4 + B2/2 - 3/16) = -l(l+1) - V2.
    """
    if kind not in RADIAL_KINDS:
        raise ValueError(f"kind must be one of {RADIAL_KINDS}")
    v1, v2, v3, v4 = map(complex, (v1, v2, v3, v4))
    energy = complex(energy)
    if v4 == 0:
        raise DegenerateError("V4 = 0: the singular rank drops and B1 would vanish")
    out = []
    if kind == "INVERSE_POWER":
        omega = cmath.sqrt(energy)
        eta = v1 / (2 * omega) if omega != 0 else 0.0
        for b1 in (2 * cmath.sqrt(v4), -2 * cmath.sqrt(v4)):
            b2 = 2 * (1 + v3 / b1)
            b3 = -l * (l + 1) - v2 + b2 * b2 / 4 - b2 / 2
            out.append(DcheParams(b1, b2, b3, omega, eta))
        return out
    omega = cmath.sqrt(-v1) / 2
    eta = -energy / (8 * omega) if omega != 0 else 0.0
    for b1 in (cmath.sqrt(v4), -cmath.sqrt(v4)):
        b2 = 2 * (1 + v3 / (4 * b1))
        b3 = (-l * (l + 1) - v2) / 4 + b2 * b2 / 4 - b2 / 2 + 3.0 / 16.0
        out.append(DcheParams(b1, b2, b3, omega, eta))
    return out
