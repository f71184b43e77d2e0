"""Three-term recurrence engine: generation, continued fractions, eigenproblems."""

import math

import numpy as np
import pytest

from dcheun.core import DcheParams
from dcheun.errors import CFBreakdownError, GenerationError, NoConvergence, TheoremViolation
from dcheun.recurrence import (
    ThreeTermCoeffs,
    char_root,
    char_value,
    finite_series_condition,
    generate,
    generate_minimal,
    generate_two_sided,
    lentz,
    tridiag_eigen,
)
from dcheun.solutions import coulomb_nu_coeffs, power_coeffs

from conftest import draw_params


def bessel_coeffs(x: float) -> ThreeTermCoeffs:
    """J_{n}(x) satisfies J_{n+1} - (2n/x) J_n + J_{n-1} = 0.

    J_n is the minimal solution; everything about it is tabulated, so it
    serves as an exact oracle for the minimal-solution machinery.
    """
    return ThreeTermCoeffs(
        alpha=lambda n: 1.0,
        beta=lambda n: -2.0 * n / x,
        gamma=lambda n: 1.0,
    )


def test_generate_forward_matches_hand_rolled():
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: n + 1.0,
        beta=lambda n: 2.0 * n - 1.0,
        gamma=lambda n: 0.5 * n,
    )
    seq = generate(coeffs, 6)
    b = [1.0 + 0.0j]
    b.append(-coeffs.beta(0) * b[0] / coeffs.alpha(0))
    for n in range(1, 6):
        b.append(-(coeffs.beta(n) * b[n] + coeffs.gamma(n) * b[n - 1]) / coeffs.alpha(n))
    assert seq.values == pytest.approx(b)
    assert max(seq.row_residuals(coeffs)) < 1e-14


@pytest.mark.parametrize("window", [0, -3])
def test_two_sided_window_below_one_is_refused(window):
    # window = -3 used to give the single term b_0, which build_pair_coulomb_nu
    # summed with no warning; window = 0 failed later with "increase n_terms"
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: 1.0, beta=lambda n: -4.0, gamma=lambda n: 1.0, two_sided=True
    )
    with pytest.raises(GenerationError, match="window must be >= 1"):
        generate_two_sided(coeffs, window)


def test_generate_rejects_vanishing_leading_coefficient():
    coeffs = ThreeTermCoeffs(alpha=lambda n: float(n), beta=lambda n: 1.0, gamma=lambda n: 1.0)
    with pytest.raises(GenerationError):
        generate(coeffs, 3)


def test_minimal_generation_reproduces_bessel():
    from scipy.special import jv

    x = 1.7
    seq = generate_minimal(bessel_coeffs(x), 12)
    for n in range(13):
        ref = jv(n, x) / jv(0, x)
        assert abs(seq.b(n) - ref) < 1e-12 * max(1.0, abs(ref)), n


def test_forward_generation_of_minimal_solution_degrades():
    # forward recursion seeds the dominant branch; by n ~ 20 the relative
    # error is catastrophic, which is why generate_minimal exists
    from scipy.special import jv

    x = 1.7
    fwd = generate(bessel_coeffs(x), 20)
    ref = jv(20, x) / jv(0, x)
    assert abs(fwd.b(20) - ref) > 1e3 * abs(ref)


def test_lentz_known_continued_fraction():
    # tanh(1) = 1/(1+ 1/(3+ 1/(5+ ...)))
    val = lentz(lambda j: 1.0, lambda j: 2.0 * j - 1.0, depth=40, tol=1e-15)
    assert abs(val - math.tanh(1.0)) < 1e-14


def test_lentz_raises_when_rows_run_out():
    # -2/(1 - 2/(1 - ...)) would be a root of x^2 + x + 2: complex, so the
    # real iterates never settle
    with pytest.raises(NoConvergence):
        lentz(lambda j: -2.0, lambda j: 1.0, 40, 1e-14)


def test_lentz_raises_when_the_value_overflows():
    # 1/(1e-300 + 1/(1e-300 + ...)) settles near 1, but Lentz's first row
    # multiplies its 1e-30 start by 1e30 / 1e-300, past the double range
    with pytest.raises(CFBreakdownError):
        lentz(lambda j: 1.0, lambda j: 1e-300, 400, 1e-14)


def test_generate_minimal_raises_without_minimal_solution():
    # constant rows x_{n+1} + x_n + 2 x_{n-1} = 0: both roots of t^2 + t + 2
    # have modulus sqrt(2), so no solution is minimal
    coeffs = ThreeTermCoeffs(alpha=lambda n: 1.0, beta=lambda n: 1.0, gamma=lambda n: 2.0)
    with pytest.raises(NoConvergence):
        generate_minimal(coeffs, 10)


def test_char_value_is_row_zero_of_the_minimal_solution(rng):
    # char_value is beta(0) + alpha(0) b_1 (+ gamma(0) b_{-1}) on the
    # sequences that generate_minimal and generate_two_sided build
    def check(tc, seq):
        row = [tc.beta(0), tc.alpha(0) * seq.b(1)]
        if tc.two_sided:
            row.append(tc.gamma(0) * seq.b(-1))
        assert abs(char_value(tc) - sum(row)) <= 1e-12 * max(abs(t) for t in row)

    for k in range(40):
        tc = power_coeffs(1 + k % 4, draw_params(rng))
        check(tc, generate_minimal(tc, 60))
    done = 0
    while done < 40:
        nu = complex(rng.uniform(-1.5, 1.0), rng.uniform(-1.0, 1.0))
        if abs(2 * nu - round((2 * nu).real)) < 0.1:  # on a denominator n + nu + {0, +-1/2, 1}
            continue
        tc = coulomb_nu_coeffs(1 + done % 2, draw_params(rng), nu)
        check(tc, generate_two_sided(tc, window=24))
        done += 1


def test_char_value_vanishes_on_minimal_solution():
    # the Bessel recurrence admits a minimal solution for every x, but the
    # characteristic equation holds only where beta(0) balances the tail;
    # use the n >= 1 rows shifted so that row 0 is the J_1 row
    x = 2.404825557695773  # first zero of J_0: b_0 = J_1 normalization works
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: 1.0,
        beta=lambda n: -2.0 * (n + 1) / x,
        gamma=lambda n: 1.0,
    )
    # row n reads alpha b_{n+1} + beta b_n + gamma b_{n-1} with b_{-1} = J_0(x) = 0,
    # so char_value(coeffs) = beta(0) - CF must vanish at a zero of J_0
    assert abs(char_value(coeffs)) < 1e-12


def test_char_root_finds_bessel_zero():
    def fac(x):
        return ThreeTermCoeffs(
            alpha=lambda n: 1.0,
            beta=lambda n, x=x: -2.0 * (n + 1) / x,
            gamma=lambda n: 1.0,
        )

    r = char_root(fac, 2.3)
    assert abs(r.x - 2.404825557695773) < 1e-10
    assert r.residual < 1e-10


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-3])
def test_char_root_refuses_a_tolerance_outside_zero_to_inf(tol):
    # tol = inf would accept the second secant point as a root, and
    # tol = nan would run every step and report a zero residual
    calls = []

    def fac(x):
        calls.append(x)
        return bessel_coeffs(x)

    with pytest.raises(ValueError, match="tol must be"):
        char_root(fac, 2.3, tol=tol)
    assert calls == []


def test_char_root_reports_stall():
    def fac(x):
        return ThreeTermCoeffs(
            alpha=lambda n: 1.0, beta=lambda n: 1.0 + 0 * x, gamma=lambda n: 1.0
        )

    with pytest.raises(NoConvergence):
        char_root(fac, 0.3, max_iter=5)


def test_finite_series_condition_offsets():
    # pairs 1, 3 terminate when B2/2 + i eta = 1 - N; pairs 2, 4 when
    # B2/2 - i eta = 1 + N; 5..8 are the eta-flipped images
    p = DcheParams(1.0, 0.6, 0.0, 1.0, (1 - 0.3 - 3) / 1j)  # i eta = -2.3 -> pair1 N=3
    assert finite_series_condition(1, p) == 3
    assert finite_series_condition(3, p) == 3
    assert finite_series_condition(2, p) is None
    p2 = DcheParams(1.0, 0.6, 0.0, 1.0, (0.3 - 1 - 2) / 1j)  # i eta = -2.7 -> pair2 N=2
    assert finite_series_condition(2, p2) == 2
    assert finite_series_condition(4, p2) == 2
    # eta flip: pair 5 sees -i eta
    p5 = DcheParams(1.0, 0.6, 0.0, 1.0, -(1 - 0.3 - 3) / 1j)
    assert finite_series_condition(5, p5) == 3
    with pytest.raises(ValueError):
        finite_series_condition(9, p)


def test_generate_finite_length():
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: n + 1.0, beta=lambda n: -1.0, gamma=lambda n: 0.1 * n
    )
    seq = generate(coeffs, 3)
    assert not seq.finite and len(seq.values) == 4


def test_tridiag_eigen_analytic_2x2():
    # [[1, 2], [3, 4]]: eigenvalues (5 +- sqrt(33))/2
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: 2.0, beta=lambda n: 1.0 + 3.0 * n, gamma=lambda n: 3.0
    )
    r = tridiag_eigen(coeffs, 2)
    exact = sorted([(5 - math.sqrt(33)) / 2, (5 + math.sqrt(33)) / 2])
    assert [v.real for v in r.values] == pytest.approx(exact, abs=1e-12)
    assert r.certified
    assert r.products == [pytest.approx(6.0)]


def test_tridiag_eigen_imaginary_offdiagonals_still_certified():
    # pure-imaginary off-diagonals with positive products are similar to a
    # real symmetric-like matrix via diag(i^n): still certified
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: 2.0j, beta=lambda n: float(n), gamma=lambda n: -1.5j
    )
    r = tridiag_eigen(coeffs, 4)
    assert r.certified
    assert all(abs(v.imag) < 1e-10 for v in r.values)
    gaps = np.diff([v.real for v in r.values])
    assert np.all(gaps > 1e-8)


def test_tridiag_eigen_violation_warns():
    coeffs = ThreeTermCoeffs(
        alpha=lambda n: 1.0, beta=lambda n: float(n), gamma=lambda n: -1.0
    )
    with pytest.warns(TheoremViolation):
        r = tridiag_eigen(coeffs, 3)
    assert not r.certified


@pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (2.0, 0.5)])
def test_two_sided_generation_consistency(alpha, gamma):
    # a two-sided recurrence with rapidly growing |beta(n)| has a minimal
    # solution decaying in both directions; rows must re-substitute.  The
    # asymmetric case catches a left tail that swaps alpha and gamma.
    def fac(x):
        return ThreeTermCoeffs(
            alpha=lambda n: alpha,
            beta=lambda n, x=x: x if n == 0 else -(4.0 * n * n + 3.0),
            gamma=lambda n: gamma,
            two_sided=True,
        )

    # the central row only closes when beta(0) balances both tails; tune it
    root = char_root(fac, -3.0)
    coeffs = fac(root.x)
    seq = generate_two_sided(coeffs, window=12)
    assert abs(seq.b(0) - 1.0) < 1e-15
    assert max(seq.row_residuals(coeffs)) < 1e-10
    # central row closes as well once the characteristic equation holds
    central = coeffs.alpha(0) * seq.b(1) + coeffs.beta(0) * seq.b(0) + coeffs.gamma(0) * seq.b(-1)
    assert abs(central) < 1e-10
    assert abs(seq.b(12)) < 1e-12 and abs(seq.b(-12)) < 1e-12
