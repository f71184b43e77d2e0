"""Special-function layer: confluent U, Laguerre, Whittaker W."""

import cmath
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

import dcheun.specialfn
from dcheun.errors import BranchError, DomainError, NoConvergence, PoleError
from dcheun.specialfn import (
    _connection_gammas,
    _u_connection,
    _u_laplace,
    _u_miller,
    gamma,
    hyp_u,
    hyp_u_dz,
    kummer_transform,
    laguerre,
    rgamma,
    u_ladder,
    whittaker_w,
)
from dcheun.tolerances import (
    ASYMPTOTIC_CUTOFF,
    EPS,
    FALLBACK_TOL,
    INTEGER_B_WINDOW,
    LANCZOS_G7,
    MILLER_MIN_Z,
    MILLER_RESCUE_Z,
)


def quad_u(a: float, b: float, y: float) -> float:
    """Independent integral-representation oracle for U(a, b, y), a > 0, y > 0.

    U(a, b, y) = 1/Gamma(a) * int_0^inf e^{-y t} t^{a-1} (1+t)^{b-a-1} dt.
    """
    val, _ = quad(
        lambda t: math.exp(-y * t) * t ** (a - 1) * (1 + t) ** (b - a - 1),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return val / sp_gamma(a)


def laguerre_closed(l: int, alpha: float, y: float) -> float:
    """Finite-sum closed form of the generalized Laguerre polynomial."""
    total = 0.0
    for k in range(l + 1):
        binom = sp_gamma(l + alpha + 1) / (sp_gamma(l - k + 1) * sp_gamma(alpha + k + 1))
        total += (-1) ** k * binom * y**k / math.factorial(k)
    return total


def test_u_reference_value():
    # exp(1) * E1(1), a classical tabulated constant
    assert abs(hyp_u(1.0, 1.0, 1.0) - 0.5963473623) < 1e-8


def test_u_against_quadrature_oracle(rng):
    for _ in range(25):
        a = rng.uniform(0.2, 2.5)
        b = rng.uniform(-1.0, 3.0)
        y = rng.uniform(0.3, 6.0)
        ref = quad_u(a, b, y)
        got = hyp_u(a, b, y)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (a, b, y)


def test_u_kummer_reflection(rng):
    # U(a, b, z) = z^(1-b) U(1 + a - b, 2 - b, z)
    for _ in range(100):
        a = rng.uniform(0.1, 3.0) + 1j * rng.uniform(-1.0, 1.0)
        b = rng.uniform(-2.0, 3.0) + 1j * rng.uniform(-1.0, 1.0)
        z = rng.uniform(0.3, 5.0) + 1j * rng.uniform(-1.0, 1.0)
        a2, b2, pref_exp = kummer_transform(a, b, z)
        lhs = hyp_u(a, b, z)
        rhs = z**pref_exp * hyp_u(a2, b2, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 2.0),
    b=st.floats(-1.5, 2.5),
    z=st.floats(0.5, 4.0),
)
@example(a=1.0, b=1e-07, z=1.0)  # next to the pole of the connection terms at b = 0
@example(a=0.5, b=1e-05, z=0.5)  # Gamma(b - 1) next to its pole at b = 0
def test_u_kummer_reflection_property(a, b, z):
    a2, b2, pref_exp = kummer_transform(a, b, z)
    lhs = hyp_u(a, b, z)
    rhs = z**pref_exp * hyp_u(a2, b2, z)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("b", [1e-7, -1e-7, 1 + 1e-7, 2 - 1e-7, 1e-5, -1e-5, -1 - 1e-4])
def test_u_near_integer_b_against_mpmath(b):
    # U is analytic in b across the integers, where both connection terms
    # have poles; Gamma(b - 1) must keep its digits next to b = 0, -1, ...
    for a, z in ((1.0, 1.0), (0.5, 0.5), (0.7 + 0.2j, 2.5 - 0.5j)):
        ref = complex(mpmath.hyperu(a, b, z))
        assert abs(hyp_u(a, b, z) - ref) <= 1e-9 * max(1.0, abs(ref)), (a, b, z)


def test_u_close_to_integer_b_against_mpmath():
    ref = complex(mpmath.hyperu(0.5, 0.9999, 4))
    assert abs(hyp_u(0.5, 0.9999, 4) - ref) <= 1e-10 * abs(ref)


def _draws(n: int, seed: int):
    """(a, b, z) with |z| in [0.3, 40] log-uniform, arg z in [-pi, pi] and
    exactly pi every tenth draw, Re a in [-1, 5], and b an integer, within
    1e-8 .. 1e-1 of one, or generic, in turn."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        r = math.exp(rng.uniform(math.log(0.3), math.log(40.0)))
        z = complex(-r, 0.0) if i % 10 == 0 else cmath.rect(r, rng.uniform(-math.pi, math.pi))
        a = complex(rng.uniform(-1.0, 5.0), rng.uniform(-1.0, 1.0))
        n_b = int(rng.integers(-2, 6))
        if i % 3 == 0:
            b = complex(n_b)
        elif i % 3 == 1:
            b = complex(n_b + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8.0, -1.0))
        else:
            b = complex(rng.uniform(-2.0, 5.0), rng.uniform(-1.0, 1.0))
        yield a, b, z


def _mp_u(a, b, z) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.hyperu(a, b, z))


@pytest.fixture(scope="module")
def sweep():
    return [(a, b, z, _mp_u(a, b, z)) for a, b, z in _draws(300, 2024)]


def test_u_laplace_route_against_mpmath(sweep):
    # the route every estimate-gated route falls back to, on the whole sweep
    worst = max(abs(_u_laplace(a, b, z) - ref) / abs(ref) for a, b, z, ref in sweep)
    assert worst <= 1e-12


def test_u_against_mpmath_sweep(sweep):
    # any route may answer, but only within the 1e-11 its estimate gates on
    for a, b, z, ref in sweep:
        got = hyp_u(a, b, z)
        assert type(got) is complex
        assert abs(got - ref) <= 1e-11 * abs(ref), (a, b, z)
    assert type(hyp_u(-2, 1.5, 0.7)) is complex  # the polynomial route


def test_u_on_recorded_connection_misses():
    # arguments the bench workloads pass, on which the connection route once
    # reported under 1e-11 while its true error was above 1e-11
    data = json.loads((Path(__file__).parent / "data" / "u_connection_misses.json").read_text())
    for rec in data["args"]:
        a, b, z = (complex(*rec[k]) for k in ("a", "b", "z"))
        ref = _mp_u(a, b, z)
        assert abs(hyp_u(a, b, z) - ref) <= 1e-11 * abs(ref), rec


def _miller_draws(n: int, seed: int):
    """(a, b, z) on Miller's domain: Re z > 0 with |z| in [2, 30) (below 5
    it serves connection misses), Re a in [-1, 30] (ladder seeds sit at
    Re a ~ |w|), and b an integer, within 1e-8 .. 1e-1 of one, or generic,
    in turn."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        r = rng.uniform(2.0, 30.0) if i % 4 == 0 else rng.uniform(5.0, 30.0)
        z = cmath.rect(r, rng.uniform(-0.499, 0.499) * math.pi)
        a = complex(rng.uniform(-1.0, 30.0), rng.uniform(-1.0, 1.0))
        n_b = int(rng.integers(-2, 6))
        if i % 3 == 0:
            b = complex(n_b)
        elif i % 3 == 1:
            b = complex(n_b + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8.0, -1.0))
        else:
            b = complex(rng.uniform(-2.0, 5.0), rng.uniform(-1.0, 1.0))
        yield a, b, z


@pytest.fixture(scope="module")
def miller_sweep():
    return [(a, b, z, _mp_u(a, b, z)) for a, b, z in _miller_draws(200, 22)]


def test_u_miller_estimate_holds_against_mpmath(miller_sweep):
    # wherever the estimate passes the gate it bounds the true error; the
    # draws at large Re a with z near the imaginary axis miss it
    passed = 0
    for a, b, z, ref in miller_sweep:
        try:
            val, est = _u_miller(a, b, z)
        except NoConvergence:
            continue
        if est < FALLBACK_TOL:
            passed += 1
            assert abs(val - ref) <= est * abs(ref), (a, b, z)
    assert passed >= 150


def test_u_on_miller_domain_against_mpmath(miller_sweep):
    for a, b, z, ref in miller_sweep:
        assert abs(hyp_u(a, b, z) - ref) <= FALLBACK_TOL * abs(ref), (a, b, z)


def test_u_in_miller_band_needs_no_laplace(monkeypatch):
    # integer b, b next to an integer, and connection misses at
    # 2 <= |z| < 5 in the right half-plane: none reaches the Laplace route
    def no_laplace(a, b, z):
        raise AssertionError(f"Laplace route taken at {(a, b, z)}")

    monkeypatch.setattr(dcheun.specialfn, "_u_laplace", no_laplace)
    for a, b, z in ((0.4 + 0.1j, 1.0, 7.5), (0.9, 2.0 + 1e-9, 14.0 - 6.0j),
                    (-0.3 + 0.5j, -1.0, 29.0 + 1.0j), (1.28 - 0.14j, 0.997 - 0.042j, 2.3 - 0.17j),
                    (0.66 + 0.014j, 0.953, 4.87)):
        ref = _mp_u(a, b, z)
        assert abs(hyp_u(a, b, z) - ref) <= 1e-13 * abs(ref), (a, b, z)


def test_u_miller_raises_at_its_depth_cap(monkeypatch):
    a, b, z = 0.7 + 0.2j, 1.5, 8.0 + 1.0j
    ref = _mp_u(a, b, z)
    assert abs(_u_miller(a, b, z)[0] - ref) <= 1e-13 * abs(ref)
    monkeypatch.setattr(dcheun.specialfn, "MILLER_MAX_DEPTH", 16)
    with pytest.raises(NoConvergence):
        _u_miller(a, b, z)
    # U itself then takes the Laplace route
    assert abs(hyp_u(a, b, z) - ref) <= FALLBACK_TOL * abs(ref)


@pytest.mark.parametrize("z", [0.8 + 0.3j, 3.5, 12.0 - 4.0j, -9.0 + 2.0j, 40.0])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_u_where_a_minus_b_plus_1_is_a_nonpositive_integer(m, z):
    # U(a, b, z) = z^(1-b) U(-m, 2-b, z), a polynomial times a power; a step
    # of Miller's recurrence would divide by a - b + 1 + m = 0 there
    for a in (0.35 + 0.4j, 2.6, 11.2 - 0.5j):
        b = a + 1 + m
        ref = _mp_u(a, b, z)
        assert abs(hyp_u(a, b, z) - ref) <= 1e-13 * abs(ref), (a, b)


def _ladder_draws(n: int, seed: int):
    """(a0, b0, db, w, n_lo, count) with |w| in [0.3, 8] log-uniform and every
    third draw at |arg w| < 0.4; db = 1 and 2 in turn, n from 0 to 60; every
    fourth db = 2 draw two-sided, n from -40 to 40 (the Coulomb-nu window);
    every fourth draw of each db a polynomial start, a0 in {0, -1, -2}."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        r = math.exp(rng.uniform(math.log(0.3), math.log(8.0)))
        arg = rng.uniform(-0.4, 0.4) if i % 3 == 0 else rng.uniform(-math.pi, math.pi)
        db, kind = 1 + i % 2, (i // 2) % 4
        a0 = complex(-(i // 8 % 3)) if kind == 3 else complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        b0 = complex(rng.uniform(0.0, 3.0), rng.uniform(-1.0, 1.0))
        n_lo, count = (-40, 81) if db == 2 and kind == 2 else (0, 61)
        yield a0, b0, db, cmath.rect(r, arg), n_lo, count


@pytest.fixture(scope="module")
def ladder_sweep():
    """Draws with mpmath's pairs at every fourth term and the last."""
    out = []
    for a0, b0, db, w, n_lo, count in _ladder_draws(36, 77):
        js = sorted(set(range(0, count, 4)) | {count - 1})
        ref = {}
        for j in js:
            a, b = a0 + n_lo + j, b0 + db * (n_lo + j)
            ref[j] = (_mp_u(a, b, w), _mp_u(a + 1, b + 1, w))
        out.append(((a0, b0, db, w, n_lo, count), ref))
    return out


def _ladder_error(args, ref) -> float:
    pairs = list(u_ladder(*args))
    assert len(pairs) == args[-1]
    return max(abs(got - want) / abs(want)
               for j, pair in ref.items() for got, want in zip(pairs[j], pair))


def test_u_ladder_recurrence_against_mpmath(ladder_sweep, monkeypatch):
    # with mpmath's seeds the error is the recurrence's own: it must not
    # grow away from a seed in either direction.  A seed is two direct
    # values; only a two-sided db = 2 ladder may take a second seed.
    seeds = []

    def mp_seed(a, b, w):
        seeds.append(a)
        return _mp_u(a, b, w)

    monkeypatch.setattr(dcheun.specialfn, "hyp_u", mp_seed)
    for args, ref in ladder_sweep:
        seeds.clear()
        assert _ladder_error(args, ref) <= 1e-12, args
        assert len(seeds) == 2 or (len(seeds) == 4 and args[4] < 0)


@pytest.mark.parametrize("n_lo", [0, -40])
@pytest.mark.parametrize("gap", [0.0, 1e-7, 1e-4j, 0.08])
def test_u_ladder_where_b_minus_a_vanishes(gap, n_lo):
    # b - a = b0 - a0 + n is `gap` at n = 3, below every top seed here: a
    # backward db = 2 step there would divide by it
    for a0, w in ((-1.5, 0.9 + 0.4j), (0.3 - 0.2j, -2.5 + 1.0j), (-4.2 + 0.1j, 3.0j)):
        b0 = a0 - 3 + gap
        count = 10 - n_lo
        js = sorted(set(range(0, count, 3)) | {count - 1, 2 - n_lo, 3 - n_lo, 4 - n_lo})
        ref = {j: (_mp_u(a0 + n_lo + j, b0 + 2 * (n_lo + j), w),
                   _mp_u(a0 + n_lo + j + 1, b0 + 2 * (n_lo + j) + 1, w)) for j in js}
        assert _ladder_error((a0, b0, 2, w, n_lo, count), ref) <= 1e-12, (a0, w)


def test_u_ladder_against_mpmath(ladder_sweep):
    # with the library's seeds, within the 1e-11 that U's own routes gate on
    for args, ref in ladder_sweep:
        assert _ladder_error(args, ref) <= 1e-11, args


def test_u_terminates_to_laguerre(rng):
    # U(-l, alpha + 1, y) = (-1)^l l! L_l^alpha(y), exact polynomial case
    for l in range(0, 7):
        for _ in range(4):
            alpha = rng.uniform(-0.8, 2.0)
            y = rng.uniform(0.1, 8.0)
            lag = laguerre(l, alpha, y)
            ref = laguerre_closed(l, alpha, y)
            assert abs(lag - ref) <= 1e-12 * max(1.0, abs(ref))
            u_val = hyp_u(-l, alpha + 1.0, y)
            assert abs(u_val - (-1) ** l * math.factorial(l) * lag) <= 1e-12 * max(
                1.0, abs(u_val)
            )


def test_u_derivative_matches_finite_difference(rng):
    for _ in range(10):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(-0.5, 2.0)
        z = rng.uniform(0.8, 4.0)
        h = 1e-5 * z
        fd = (hyp_u(a, b, z + h) - hyp_u(a, b, z - h)) / (2 * h)
        assert abs(hyp_u_dz(a, b, z) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_whittaker_is_gauged_u(rng):
    # W_{kappa,mu}(y) = e^{-y/2} y^{mu+1/2} U(1/2 - kappa + mu, 2 mu + 1, y)
    for _ in range(10):
        kappa = rng.uniform(-1.0, 1.0)
        mu = rng.uniform(-0.4, 1.0)
        y = rng.uniform(0.5, 4.0)
        lhs = whittaker_w(kappa, mu, y)
        rhs = math.exp(-y / 2) * y ** (mu + 0.5) * hyp_u(0.5 - kappa + mu, 2 * mu + 1, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gamma_pole_rejected():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


# Godfrey's g = 7 partial-fraction coefficients, as published (Numerical
# Recipes 6.1): Gamma(z) = sqrt(2 pi) t^(z-1/2) e^-t (c_0 + sum_k c_k / (z+k-1))
GODFREY_G7 = (
    "0.99999999999980993", "676.5203681218851", "-1259.1392167224028",
    "771.32342877765313", "-176.61502916214059", "12.507343278686905",
    "-0.13857109526572012", "9.9843695780195716e-6", "1.5056327351493116e-7",
)


def test_lanczos_table_is_godfreys_partial_fractions():
    # the table is the numerator of Godfrey's sum over z (z+1) ... (z+7)
    with mpmath.workdps(40):
        c = [mpmath.mpf(x) for x in GODFREY_G7]
        p = [mpmath.mpf(x) for x in reversed(LANCZOS_G7)]
        for z in (0.5, 1.0, 2.5 + 1j, 7.0, 30 - 20j, 0.5 + 50j):
            zm = mpmath.mpc(z)
            partial = c[0] + sum(c[k] / (zm + k - 1) for k in range(1, 9))
            ratio = mpmath.polyval(p, zm) / mpmath.fprod(zm + k for k in range(8))
            assert abs(ratio / partial - 1) <= 1e-15, z


def _rel(got: complex, ref: complex) -> float:
    return abs(got - ref) / abs(ref)


@pytest.mark.parametrize("half", [1, -1], ids=["right", "left"])
def test_gamma_against_mpmath_on_the_disk(half):
    # |z| <= 50, area-uniform in one half-plane; the left one takes the
    # reflection formula.  Worst measured over these draws: 1.7e-13 (2.1e-13
    # over 4000 on the disk), the Lanczos error itself, which grows with
    # |Im z| (7e-14 already at Re z = 0.4, |Im z| = 10).
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = cmath.rect(50 * math.sqrt(rng.uniform()), rng.uniform(-0.5, 0.5) * math.pi)
        z = complex(half * z.real, z.imag)
        with mpmath.workdps(30):
            g, rg = complex(mpmath.gamma(z)), complex(mpmath.rgamma(z))
        assert _rel(gamma(z), g) <= 2.5e-13, z
        assert _rel(rgamma(z), rg) <= 2.5e-13, z


def test_gamma_on_the_real_axis_against_mpmath():
    # gamma is math.gamma there (worst measured 6.3e-16), rgamma the Lanczos
    # sum (4.8e-14)
    rng = np.random.default_rng(23)
    for _ in range(400):
        x = rng.uniform(-50.0, 50.0)
        with mpmath.workdps(30):
            g, rg = float(mpmath.gamma(x)), float(mpmath.rgamma(x))
        assert type(gamma(x)) is complex
        assert _rel(gamma(x), g) <= 1e-15, x
        assert _rel(rgamma(x), rg) <= 1e-13, x


def test_gamma_next_to_its_poles_against_mpmath():
    # offsets 1e-2 .. 1e-12 from 0, -1, ..., -8 in a random direction: the
    # reflection's sin(pi z) is reduced exactly.  Worst measured: 5.0e-15.
    # Within POLE_TOL of a pole gamma raises; rgamma is entire.
    rng = np.random.default_rng(23)
    for k in range(9):
        for p in range(2, 13):
            z = -k + 10.0**-p * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(30):
                g, rg = complex(mpmath.gamma(z)), complex(mpmath.rgamma(z))
            assert _rel(rgamma(z), rg) <= 1e-14, z
            if p == 12:
                with pytest.raises(PoleError):
                    gamma(z)
            else:
                assert _rel(gamma(z), g) <= 1e-14, z


def test_rgamma_is_exactly_zero_at_the_poles():
    for k in range(0, 30):
        assert rgamma(-k) == 0
        assert rgamma(complex(-k, 0.0)) == 0


def test_gamma_past_the_double_range_raises():
    assert rgamma(200) == 0  # underflows to 0; 1/Gamma is no larger
    with pytest.raises(DomainError):
        gamma(200)
    with pytest.raises(DomainError):
        rgamma(-200.5)


def test_u_connection_past_the_double_range_is_a_miss():
    # Gamma(1 - b) overflows at b = -180.3: the connection reports a miss,
    # and the Laplace route answers
    assert _u_connection(0.5 + 0j, -180.3 + 0j, 0.5 + 0j)[1] == math.inf
    ref = _mp_u(0.5, -180.3, 0.5)
    assert abs(hyp_u(0.5, -180.3, 0.5) - ref) <= 1e-11 * abs(ref)


def _connection_draws(n: int, seed: int):
    """(a, b) with Re a in [-1, 30] and b generic or 1e-5 .. 1e-1 off an
    integer, the connection route's b, in turn."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        a = complex(rng.uniform(-1.0, 30.0), rng.uniform(-1.0, 1.0))
        if i % 2:
            n_b = int(rng.integers(-2, 6))
            b = complex(n_b + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-5.0, -1.0))
        else:
            b = complex(rng.uniform(-2.0, 5.0), rng.uniform(-1.0, 1.0))
        yield a, b


def test_connection_gammas_against_mpmath():
    # Gamma(1-b)/Gamma(a-b+1) and Gamma(b-1)/Gamma(a) from three Gamma values,
    # against the exact a and b, so the rounding of a - b + 1 counts too.
    # Worst measured over these draws: 2.0e-14 (2.7e-14 on other seeds;
    # SciPy's gamma and rgamma gave 3.8e-14 here).
    data = json.loads((Path(__file__).parent / "data" / "u_connection_misses.json").read_text())
    args = [(complex(*rec["a"]), complex(*rec["b"])) for rec in data["args"]]
    for a, b in args + list(_connection_draws(300, 23)):
        c1, c2 = _connection_gammas(a, b)
        with mpmath.workdps(30):
            am, bm = mpmath.mpc(a), mpmath.mpc(b)
            r1 = complex(mpmath.gamma(1 - bm) * mpmath.rgamma(am - bm + 1))
            r2 = complex(mpmath.gamma(bm - 1) * mpmath.rgamma(am))
        assert _rel(c1, r1) <= 3e-14, (a, b)
        assert _rel(c2, r2) <= 3e-14, (a, b)


@pytest.mark.parametrize("order", [-1, 0.5])
def test_u_derivative_order_must_be_nonnegative_integer(order):
    # a shift by order -1 gives U(a - 1, b - 1, z), which is no derivative
    with pytest.raises(DomainError):
        hyp_u_dz(1.5, 2.5, 1.0, order)


def test_whittaker_branch_point_rejected():
    with pytest.raises(BranchError):
        whittaker_w(0.3, 0.2, 0)


@pytest.mark.parametrize("re", [-1.0, 0.4, 0.6])
@pytest.mark.parametrize("im", [226.0, -226.0, 300.0, -300.0, 400.0, -400.0])
def test_gamma_at_large_imaginary_part_against_mpmath(re, im):
    # left of Re z = 1/2, sin(pi z) overflows from |Im z| ~ 226 on while
    # Gamma is about 1e-208 at -1 + 300i; just below that, sin(pi z) is
    # finite but its product with the Lanczos sum is not.  Worst measured
    # here: 3.1e-13 (4.4e-13 over |Im z| in [200, 440] at these Re z), the
    # Lanczos sum's own error, which grows with |Im z|
    z = complex(re, im)
    with mpmath.workdps(30):
        ref_g, ref_r = complex(mpmath.gamma(z)), complex(mpmath.rgamma(z))
    assert _rel(gamma(z), ref_g) <= 5e-13
    assert _rel(rgamma(z), ref_r) <= 5e-13


def test_gamma_reflection_in_logs_only_where_the_direct_form_overflows():
    # rgamma past the double range still raises, and at a pole left of the
    # range of Gamma(1 - z) it is exactly 0
    with pytest.raises(DomainError):
        rgamma(-1 + 450j)
    assert rgamma(-200) == 0
    assert gamma(-1 + 700j) == 0  # below the double range


def _array_cases():
    """(a, b) for the array tests: generic, b inside and just outside
    ``INTEGER_B_WINDOW`` of an integer, both polynomial lattices, a
    Gamma(1 - b) past the double range, and Re b < -3, where the M
    series may stop only past k = -Re b."""
    w = INTEGER_B_WINDOW
    return [
        (0.4 + 0.15j, 0.59), (1.3 - 0.4j, -0.7 + 0.3j), (2.2, 1.6 - 0.2j),
        (0.7 + 0.2j, 2 + 0.5 * w), (0.7 + 0.2j, 2 + 2 * w), (0.3, -1 - 0.5 * w),
        (-2.0, 0.6 + 0.1j), (0.3 + 0.1j, 2.3 + 0.1j), (0.5, -180.3), (0.4, -6 + 3 * w),
    ]


def _array_points(seed: int, b: complex, n: int = 24) -> np.ndarray:
    """Points on both sides of |z| = 2, 5 and 30 and of Re z = 0, two at
    |z| = 1e-3, and draws with |z| in [0.2, 40].  At b = -180.3 only those
    with 0.2 <= |z| < 5: elsewhere no route of a scalar call converges
    either."""
    rng = np.random.default_rng(seed)
    edges = [r * f for r in (MILLER_RESCUE_Z, MILLER_MIN_Z, ASYMPTOTIC_CUTOFF) for f in (0.999, 1.001)]
    phases = [math.pi / 2 + d for d in (-1e-3, 1e-3)] + [-math.pi / 2 + d for d in (-1e-3, 1e-3)]
    pts = [cmath.rect(r, rng.choice(phases)) for r in edges]
    pts += [cmath.rect(r, rng.uniform(-0.4, 0.4)) for r in edges]
    radii = np.exp(rng.uniform(math.log(0.2), math.log(40.0), n))
    pts += [cmath.rect(r, rng.uniform(-math.pi, math.pi)) for r in radii]
    pts = np.array(pts + [-3.0, 7.0 + 0j, 1e-3, -1e-3j])
    r = np.abs(pts)
    return pts[(r >= 0.2) & (r < MILLER_MIN_Z)] if b.real < -100 else pts


def _connection_band(a: complex, b: complex, z: complex) -> bool:
    """Where an array call takes the connection route in its numpy pass."""
    lattice = any(x.real <= 0 and x == round(x.real) for x in (a, a - b + 1))
    r = abs(z)
    near = abs(b - round(b.real)) < INTEGER_B_WINDOW
    return not lattice and not near and (r < MILLER_MIN_Z or (r < ASYMPTOTIC_CUTOFF and z.real <= 0))


@pytest.mark.parametrize("case", range(len(_array_cases())))
def test_u_on_an_array_matches_scalar_calls(case):
    # each point agrees with a scalar call to within the scalar connection's
    # estimate (4 eps at least); off the numpy pass it is a scalar call
    a, b = (complex(x) for x in _array_cases()[case])
    z = _array_points(100 + case, b)
    got = hyp_u(a, b, z)
    assert got.dtype == complex and got.shape == z.shape
    for zi, gi in zip(z.tolist(), got.tolist()):
        ref = hyp_u(a, b, zi)
        if _connection_band(a, b, zi):
            tol = max(4 * EPS, _u_connection(a, b, zi)[1])
            assert abs(gi - ref) <= tol * abs(ref), (a, b, zi)
        else:
            assert gi == ref, (a, b, zi)


@pytest.mark.parametrize("case", range(len(_array_cases())))
def test_whittaker_and_u_derivative_on_an_array(case):
    # as for U, plus for W the rounding of its prefactor's two exponents,
    # which numpy and cmath may place differently
    a, b = (complex(x) for x in _array_cases()[case])
    kappa, mu = (b - 2 * a) / 2, (b - 1) / 2  # W's U is U(a, b)
    z = _array_points(200 + case, b)
    for zi, gw, gd in zip(z.tolist(), whittaker_w(kappa, mu, z).tolist(), hyp_u_dz(a, b, z, 2).tolist()):
        est = _u_connection(a, b, zi)[1] if _connection_band(a, b, zi) else 0.0
        exponents = 1 + abs(zi) / 2 + abs((mu + 0.5) * cmath.log(zi))
        ref_w = whittaker_w(kappa, mu, zi)
        assert abs(gw - ref_w) <= max(4 * EPS * exponents, est) * abs(ref_w), (a, b, zi)
        # hyp_u_dz takes U at (a + 2, b + 2)
        est = _u_connection(a + 2, b + 2, zi)[1] if _connection_band(a + 2, b + 2, zi) else 0.0
        ref_d = hyp_u_dz(a, b, zi, 2)
        assert abs(gd - ref_d) <= max(4 * EPS, est) * abs(ref_d), (a, b, zi)


@pytest.mark.parametrize("f", [lambda z: hyp_u(0.3, 0.7, z), lambda z: whittaker_w(0.2, 0.1, z)],
                         ids=["hyp_u", "whittaker_w"])
def test_array_points_are_checked_as_evaluate_checks_them(f):
    with pytest.raises(ValueError):
        f(np.ones((2, 2), dtype=complex))
    with pytest.raises(DomainError):
        f(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        f(np.array([1.0, complex(np.inf, 0.0)]))
    with pytest.raises(BranchError):
        f(np.array([1.0, 0.0, 2.0]))
    empty = f(np.array([], dtype=complex))
    assert empty.shape == (0,) and empty.dtype == complex
    assert f(np.array([1, 3])).dtype == complex  # integer points are taken as complex


def test_u_array_misses_go_through_scalar_u(monkeypatch):
    # with a gate no estimate passes, every band point is a scalar call of
    # hyp_u, made through the module global; the values are those calls'
    a, b = 0.4 + 0.15j, 0.59
    z = np.array([0.5 + 0.2j, 1.5, -4.0 + 1.0j, 3.0 - 2.0j])
    real_u, seen = dcheun.specialfn.hyp_u, []

    def counting_u(a, b, z):
        seen.append(z)
        return real_u(a, b, z)

    monkeypatch.setattr(dcheun.specialfn, "hyp_u", counting_u)
    hyp_u(a, b, z)
    assert seen == []  # the numpy pass answers every point
    monkeypatch.setattr(dcheun.specialfn, "FALLBACK_TOL", 1e-300)
    seen.clear()
    got = hyp_u(a, b, z)
    assert seen == z.tolist()
    assert got.tolist() == [real_u(a, b, zi) for zi in z.tolist()]
