"""Solution families: power/hypergeometric pairs, Coulomb-type pairs."""

import cmath
import warnings

import numpy as np
import pytest

import dcheun.solutions
import dcheun.specialfn
from dcheun.core import DcheParams, residual_parts
from dcheun.errors import DenominatorError, DomainError, NoConvergence, SectorWarning
from dcheun.recurrence import char_root, finite_series_condition, tridiag_eigen
from dcheun.solutions import (
    build_pair_coulomb,
    build_pair_coulomb_nu,
    build_pair_power,
    coulomb_coeffs,
    coulomb_nu_coeffs,
    power_coeffs,
    r3_family,
)

from conftest import draw_params, tune_b3


def rel_residual(params, member, z):
    res, scale = residual_parts(params, member, z)
    return abs(res) / max(scale, 1e-300)


def sample_points(rng, member, count=5, single_branch=False):
    """Points inside the member's half-plane of validity.

    ``single_branch`` keeps Im(z) >= 0 so that all points lie in one
    connected sector: member pairs with different gauge powers of z pick
    up different phases across the negative-real branch cut, so ratio
    comparisons are only meaningful on one side of it.
    """
    sign = member.halfplane_sign or +1
    b1 = member.params.b1
    pts = []
    while len(pts) < count:
        z = rng.uniform(0.6, 2.5) + 1j * rng.uniform(-0.8, 0.8)
        if sign * (b1 / z).real < 0:
            z = -z
        if single_branch and z.imag < 0:
            z = z.conjugate() if sign * (b1 / z.conjugate()).real > 0 else z.real
            z = complex(z)
        if z != 0 and sign * (b1 / z).real > 0:
            pts.append(z)
    return pts


def finite_power_params(rng, pair_id: int, n_fin: int) -> DcheParams:
    """Admissible draw with a terminating pair and a closing B3.

    Termination fixes B2/2 +- i eta at an integer; closure additionally
    requires B3 to be minus an eigenvalue of the leading N x N block, since
    the block's beta depends on B3 only through an additive shift.
    """
    b2 = rng.uniform(0.2, 1.4)
    base = pair_id if pair_id <= 4 else pair_id - 4
    flip = -1 if pair_id >= 5 else 1
    if base in (1, 3):
        ie = (1 - n_fin) - b2 / 2
    else:
        ie = b2 / 2 - (1 + n_fin)
    eta = flip * ie / 1j
    p0 = DcheParams(
        b1=rng.uniform(0.5, 1.5),
        b2=b2,
        b3=0.0,
        omega=1j * rng.uniform(0.3, 0.9),
        eta=eta,
    )
    pid = pair_id if pair_id <= 4 else pair_id - 4
    pp = p0 if pair_id <= 4 else DcheParams(p0.b1, p0.b2, p0.b3, -p0.omega, -p0.eta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ev = tridiag_eigen(power_coeffs(pid, pp), n_fin)
    return p0.with_b3(-complex(ev.values[0]))


@pytest.mark.parametrize("pair_id", [1, 2, 3, 4, 5, 6, 7, 8])
def test_power_pair_residuals(pair_id, rng):
    builder = build_pair_power if pair_id <= 4 else r3_family
    pid = pair_id if pair_id <= 4 else pair_id - 4
    for _ in range(5):
        p = draw_params(rng, b2_range=(0.0, 1.5))
        if pair_id >= 5:
            flip = DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta)
            pt = tune_b3(pid, flip)
            p = DcheParams(p.b1, p.b2, pt.b3, p.omega, p.eta)
        else:
            p = tune_b3(pid, p)
        for member in builder(pid, p):
            for z in sample_points(rng, member, 4):
                assert rel_residual(p, member, z) < 1e-8, (pair_id, z)


def test_finite_series_both_members_exact(rng):
    for pair_id in (1, 2, 3, 4):
        p = finite_power_params(rng, pair_id, 3)
        assert finite_series_condition(pair_id, p) == 3
        u_inf, u_zero = build_pair_power(pair_id, p)
        assert u_inf.finite and len(u_inf.coeffs.values) == 3
        for member in (u_inf, u_zero):
            for z in sample_points(rng, member, 3):
                assert rel_residual(p, member, z) < 1e-10, pair_id


def test_power_vs_coulomb_proportionality(rng):
    # the one-sided Coulomb construction expands the same solution: the
    # pointwise ratio must be z-independent for both members
    for pair_id in (1, 2, 3, 4):
        p = tune_b3(pair_id, draw_params(rng, b2_range=(0.3, 1.2)))
        power_pair = build_pair_power(pair_id, p)
        coulomb_pair = build_pair_coulomb(pair_id, p)
        for pm, cm in zip(power_pair, coulomb_pair):
            zs = sample_points(rng, pm, 4, single_branch=True)
            ratios = [cm(z)[0] / pm(z)[0] for z in zs]
            mean = sum(ratios) / len(ratios)
            dev = max(abs(r - mean) for r in ratios) / abs(mean)
            assert dev < 1e-6, (pair_id, pm.variant, dev)


def test_finite_series_n_agreement(rng):
    # terminating draws: both constructions terminate with the same N and
    # stay proportional
    for k in range(20):
        pair_id = 1 + k % 4
        n_fin = 2 + k % 3
        p = finite_power_params(rng, pair_id, n_fin)
        assert finite_series_condition(pair_id, p) == n_fin
        pw = build_pair_power(pair_id, p)
        cb = build_pair_coulomb(pair_id, p)
        assert all(m.finite for m in pw) and all(m.finite for m in cb)
        assert len(pw[0].coeffs.values) == len(cb[0].coeffs.values) == n_fin
        zs = sample_points(rng, pw[0], 3, single_branch=True)
        ratios = [cb[0](z)[0] / pw[0](z)[0] for z in zs]
        mean = sum(ratios) / len(ratios)
        assert max(abs(r - mean) for r in ratios) / abs(mean) < 1e-8


def coulomb_nu_pairs(rng, pair_id: int, attempts: int = 12):
    """(params, pair) of two-sided Coulomb pairs at characteristic roots
    off the denominator lattice, for up to ``attempts`` draws."""
    for _ in range(attempts):
        p = draw_params(rng, b2_range=(0.4, 1.2))

        def fac(nu, p=p):
            return coulomb_nu_coeffs(pair_id, p, nu)

        # quadratic start: the diagonal dominates both tails
        guesses = np.roots([1.0, 1.0, (p.b2 / 2) * (1 - p.b2 / 2) + p.b3])
        try:
            root = char_root(fac, guesses[0] + 0.1j)
        except Exception:
            continue
        # spurious roots sit on the denominator lattice n + nu + off = 0
        lattice_gap = min(
            abs(root.x + n + off)
            for n in range(-4, 5)
            for off in (0.0, 0.5, -0.5, 1.0)
        )
        if lattice_gap < 1e-4:
            continue
        try:
            yield p, build_pair_coulomb_nu(pair_id, p, root.x, window=40)
        except Exception:
            continue


def test_coulomb_nu_pair_residuals(rng):
    for pair_id in (1, 2):
        found = 0
        for p, pair in coulomb_nu_pairs(rng, pair_id):
            for member in pair:
                for z in sample_points(rng, member, 3):
                    assert rel_residual(p, member, z) < 1e-8, (pair_id, z)
            found += 1
            if found == 2:
                break
        assert found >= 1, pair_id


def test_coulomb_nu_default_window_meets_the_residual():
    # a pair-2 draw (from coulomb_nu_pairs, rng seed 0) whose sums need
    # more than 24 terms a side: at z = -1.5 the member at zero reads 3e-7
    p = DcheParams(
        0.5991237450861121 + 0.34131727961238323j, 0.45335200701368117,
        -0.6227600847834993 - 0.1394025361043334j, 1.46606208078407 + 0.06223184222845701j,
        -0.4822708136581355 - 0.5166485718113101j,
    )
    nu = -0.9250224758652087 + 0.20909265244203842j
    zs = (-1.0, -1.5, -1.2 - 0.5j)  # Re(B1/z) < 0, the zero member's half-plane
    for member in build_pair_coulomb_nu(2, p, nu):
        for z in zs:
            assert rel_residual(p, member, z) < 1e-8, z
    _, short = build_pair_coulomb_nu(2, p, nu, window=24)
    assert rel_residual(p, short, -1.5) > 1e-8


def test_root_next_to_the_lattice_raises():
    # a coulomb_nu_1 draw of the series census (seed 1003): the root search
    # accepts nu with 2 nu 1.1e-8 from -2, past the 1e-9 pole guard, and the
    # members used to come back without a warning, with relative residuals
    # of 0.08 and 0.27 at z = B1/|B1|
    p = DcheParams(
        1.391959421017568 + 0.3217120594430496j, 0.902315182539914,
        -0.5474456808700738 - 0.5210844436561948j, 0.8744946754061891 - 0.20467379715245282j,
        0.7765884038415649 - 0.06722478228754758j,
    )
    nu = -0.9999999955125434 + 3.201884209057104e-09j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="1.10e-08 from the nearest integer"):
            build_pair_coulomb_nu(1, p, nu)


def test_sector_warning_on_wrong_halfplane(rng):
    # the member at zero needs s*Re(B1/z) > 0: s = +1 for pairs 1 and 3,
    # and pairs 2 and 4, the r2 images (B1 -> -B1), need s = -1
    for pair_id, sign in ((1, +1), (2, -1), (3, +1), (4, -1)):
        p = tune_b3(pair_id, draw_params(rng, b2_range=(0.3, 1.0)))
        _, u_zero = build_pair_power(pair_id, p)
        assert u_zero.halfplane_sign == sign
        z = sign * p.b1 / abs(p.b1) ** 2  # B1/z = sign * |B1|^2
        with warnings.catch_warnings():
            warnings.simplefilter("error", SectorWarning)
            u_zero(z)
        with pytest.warns(SectorWarning):
            u_zero(-z)


def test_origin_rejected(rng):
    p = tune_b3(1, draw_params(rng))
    u_inf, _ = build_pair_power(1, p)
    with pytest.raises(DomainError):
        u_inf(0.0)


def test_untuned_series_is_not_a_solution(rng):
    # backward recursion satisfies every row except n = 0; when B3 misses
    # the characteristic root the n = 0 defect shows up as an O(1) residual
    p = tune_b3(1, draw_params(rng, b2_range=(0.3, 1.0)))
    u_inf, _ = build_pair_power(1, p)
    bad, _ = build_pair_power(1, p.with_b3(p.b3 + 0.37))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert rel_residual(p, u_inf, 1.1) < 1e-8
        assert rel_residual(p.with_b3(p.b3 + 0.37), bad, 1.1) > 1e-4


def test_short_series_raises_on_a_live_tail(rng):
    # four terms of a non-terminating pair leave the tail at z = 1 far
    # above 1e-10 of its peak: evaluate must refuse the truncated sum
    p = tune_b3(1, draw_params(rng))
    for member in build_pair_power(1, p, 4):
        with pytest.raises(NoConvergence):
            member(1.0)
        with pytest.raises(NoConvergence):
            member(np.array([1.0, 1.4 + 0.2j]))


def patched_entry(pair_id: int, p: DcheParams):
    """The 0/0 table entry ('beta0' or 'gamma1') that ``coulomb_coeffs``
    replaced by its closed-form limit at ``p``, or None."""
    tc = coulomb_coeffs(pair_id, p)
    got = {"beta0": tc.beta(0), "gamma1": tc.gamma(1)}
    hits = [
        entry for entry, value in got.items()
        if abs(value - degenerate_limit(pair_id, entry, p))
        <= 1e-13 * max(1.0, abs(value))
    ]
    assert len(hits) <= 1
    return hits[0] if hits else None


def test_coulomb_pole_guard():
    base = dict(b1=1.0, b2=0.7, b3=0.2, omega=0.8)
    assert patched_entry(1, DcheParams(eta=0.5j, **base)) == "gamma1"  # i eta = -1/2
    assert patched_entry(1, DcheParams(eta=0.0, **base)) == "beta0"
    assert patched_entry(1, DcheParams(eta=0.3, **base)) is None
    with pytest.raises(DenominatorError, match="sign-reversal rule"):
        coulomb_coeffs(1, DcheParams(eta=1.5j, **base))  # i eta = -3/2
    b = dict(b1=1.0, b3=0.2, omega=0.8, eta=0.3)
    assert patched_entry(3, DcheParams(b2=1.0, **b)) == "gamma1"
    assert patched_entry(3, DcheParams(b2=2.0, **b)) == "beta0"
    assert patched_entry(4, DcheParams(b2=3.0, **b)) == "gamma1"
    assert patched_entry(4, DcheParams(b2=2.0, **b)) == "beta0"
    with pytest.raises(DenominatorError, match="pair 4"):
        coulomb_coeffs(3, DcheParams(b2=0.0, **b))
    # pair 4 reads its rows off pair 3 at B2 -> 4 - B2 = 0, but its remedy
    # is still its own companion
    for find in (coulomb_coeffs, build_pair_coulomb):
        with pytest.raises(DenominatorError, match="pair 3"):
            find(4, DcheParams(b2=4.0, **b))


def degenerate_limit(pair_id: int, entry: str, p: DcheParams) -> complex:
    """Closed-form limit of the 0/0 table entry: beta(0) at nu = 0, gamma(1)
    at nu = -1/2."""
    iwb = 1j * p.omega * p.b1
    ewb = p.eta * p.omega * p.b1
    if entry == "beta0":
        lim = {1: -iwb * (p.b2 / 2 - 1), 2: -iwb * (p.b2 / 2 - 1), 3: ewb, 4: -ewb}[pair_id]
        return p.b3 + (1 - p.b2 / 2) * (p.b2 / 2) + lim
    # pairs 2 and 4 take the rows of pairs 1 and 3 at the r2 parameters,
    # where B1 -> -B1 flips the sign of i omega B1
    sign = 1 if pair_id in (1, 3) else -1
    f = {1: p.b2 / 2 - 0.5, 2: 1.5 - p.b2 / 2, 3: 0.5 + p.i_eta, 4: 0.5 + p.i_eta}[pair_id]
    return sign * 2 * iwb * f


def tuned_coulomb_pair(pair_id: int, p: DcheParams):
    """B3-tuned truncated Coulomb pair at ``p``, and its coefficients."""

    def fac(b3):
        return coulomb_coeffs(pair_id, p.with_b3(b3))

    pt = p.with_b3(char_root(fac, p.b3).x)
    return pt, fac(pt.b3), build_pair_coulomb(pair_id, pt)


def degenerate_pair(pair_id: int, entry: str, ie: float):
    """B3-tuned truncated Coulomb pair at a degenerate point, and its coefficients.

    Pairs 1, 2 degenerate at i eta in {0, -1/2}, pairs 3, 4 at the B2 that
    puts their phase nu at 0 (beta(0) patched) or -1/2 (gamma(1) patched).
    """
    if pair_id in (1, 2):
        p = DcheParams(b1=1.1, b2=0.8, b3=0.4, omega=0.7j, eta=ie / 1j)
    else:
        b2 = {"beta0": 2.0, "gamma1": 1.0 if pair_id == 3 else 3.0}[entry]
        p = DcheParams(b1=1.1, b2=b2, b3=0.4, omega=0.7j, eta=0.3 + 0.2j)
    assert patched_entry(pair_id, p) == entry
    return tuned_coulomb_pair(pair_id, p)


DEGENERATE_POINTS = [(0.0, "beta0"), (-0.5, "gamma1")]


@pytest.mark.parametrize("ie,entry", DEGENERATE_POINTS)
def test_degenerate_point_projection(ie, entry, rng):
    # at the degenerate points one table entry is 0/0: it must equal its
    # closed-form limit, and the pair must still be a genuine solution
    for pair_id in (1, 2, 3, 4):
        pt, tc, pair = degenerate_pair(pair_id, entry, ie)
        got = tc.beta(0) if entry == "beta0" else tc.gamma(1)
        expected = degenerate_limit(pair_id, entry, pt)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), (pair_id, got, expected)
        if pair_id == 2:
            continue  # see test_degenerate_pair_2_residual
        for member in pair:
            for z in sample_points(rng, member, 3):
                assert rel_residual(pt, member, z) < 1e-8, (pair_id, entry, member.variant)


@pytest.mark.parametrize("ie,entry", DEGENERATE_POINTS)
def test_degenerate_pair_2_residual(ie, entry):
    # at i eta in {0, -1/2} every term of the pair-2 member at infinity has
    # integer b, where U takes its Laplace integral
    pt, _, (u_inf, _) = degenerate_pair(2, entry, ie)
    for t in (-0.6, -0.3, 0.0, 0.3, 0.6):
        z = 0.65 * cmath.exp(1j * t)
        assert rel_residual(pt, u_inf, z) < 1e-8, (entry, z)


@pytest.mark.parametrize("pair_id,b2", [(3, -0.5), (3, -1.5), (3, -2.5), (4, 4.5), (4, 5.5)])
def test_quarter_integer_phase_is_not_a_pole(pair_id, b2, rng):
    # nu = B2/2 - 1 (pair 3) or 1 - B2/2 (pair 4) is -5/4, -7/4 or -9/4:
    # 2 nu is off the integers, so no denominator n + nu + c vanishes
    p = DcheParams(b1=1.1, b2=b2, b3=0.4, omega=0.7j, eta=0.3 + 0.2j)
    pt, _, pair = tuned_coulomb_pair(pair_id, p)
    for member in pair:
        for z in sample_points(rng, member, 3):
            assert rel_residual(pt, member, z) < 1e-8, (pair_id, b2, member.variant)


@pytest.mark.parametrize("nu", [45.0, -45.0, 44.5])
def test_two_sided_pole_past_the_window_is_refused(nu):
    # the tails' continued fractions run past n = +-40 onto the pole
    p = DcheParams(b1=1.1, b2=0.8, b3=0.4, omega=0.7j, eta=0.3 + 0.2j)
    with pytest.raises(DenominatorError, match="companion characteristic root"):
        build_pair_coulomb_nu(1, p, nu, window=40)


# every denominator of the Coulomb table is n + nu + c, c in these offsets;
# one-sided rows: alpha and beta from n = 0, gamma from n = 1
TABLE_DENOMINATORS = {"alpha": (1.0, 1.5), "beta": (0.0, 1.0), "gamma": (0.0, -0.5)}


def vanishing_denominators(nu: complex, one_sided: bool) -> set:
    """(entry, n, c) of each denominator n + nu + c within 1e-9 of 0 in
    the rows a sum uses: n >= 0 (gamma n >= 1) one-sided, |n| <= 500
    two-sided (past the window and the tails' 400 continued-fraction rows)."""
    found = set()
    for entry, offsets in TABLE_DENOMINATORS.items():
        lo = (1 if entry == "gamma" else 0) if one_sided else -500
        for n in range(lo, 501):
            found.update((entry, n, c) for c in offsets if abs(n + nu + c) < 1e-9)
    return found


def coulomb_at_phase(pair_id: int, nu: float):
    """Build the Coulomb pair ``pair_id`` whose table phase is nu: pairs 1-4
    one-sided (nu = i eta, i eta, B2/2 - 1, 1 - B2/2), 0 the two-sided pair
    1 at a window of 2, which the lattice below reaches past."""
    p = DcheParams(b1=1.1, b2=0.7, b3=0.4, omega=0.7j, eta=0.3 + 0.2j)
    if pair_id == 0:
        return build_pair_coulomb_nu(1, p, nu, window=2)
    if pair_id in (1, 2):
        p = DcheParams(p.b1, p.b2, p.b3, p.omega, nu / 1j)
    else:
        p = DcheParams(p.b1, 2 * nu + 2 if pair_id == 3 else 2 - 2 * nu, p.b3, p.omega, p.eta)
    return build_pair_coulomb(pair_id, p)


@pytest.mark.parametrize("pair_id", [0, 1, 2, 3, 4])
def test_pole_guard_against_brute_force_denominators(pair_id):
    # the guard refuses exactly the phases where some row's denominator
    # vanishes, save the one-sided 0/0 entries beta(0) at nu = 0 and
    # gamma(1) at nu = -1/2, which take their limits.  Offset 7e-10 is
    # inside the 1e-9 distance in nu but not in 2 nu; 0.25 puts 2 nu
    # halfway between the integers, where no denominator vanishes
    for k in range(-8, 9):
        for off in (0.0, 1e-10, -1e-10, 7e-10, -7e-10, 1e-3, -1e-3, 0.25):
            nu = k / 2 + off
            bad = vanishing_denominators(nu, pair_id > 0)
            if pair_id:
                bad -= {("beta", 0, 0.0), ("gamma", 1, -0.5)}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if bad:
                    with pytest.raises(DenominatorError):
                        coulomb_at_phase(pair_id, nu)
                    continue
                pair = coulomb_at_phase(pair_id, nu)
            assert all(cmath.isfinite(b) for b in pair[0].coeffs.values), (k, off)


@pytest.mark.parametrize("build", [build_pair_power, build_pair_coulomb])
def test_two_direct_u_calls_per_series_point(build, monkeypatch):
    # B2 = 0.5, i eta = -2.25 ends pair 3 after N = 3 terms; the member at
    # infinity has a0 = -2 (every U a polynomial) and db = 1 (power pair)
    # or db = 2 (Coulomb).  Its U ladder takes two direct values per point,
    # and the rest by recurrence, also across the pole of the forward step.
    p = DcheParams(1.0, 0.5, 0.0, 0.5j, 2.25j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = p.with_b3(-tridiag_eigen(power_coeffs(3, p), 3).values[0])  # closes the series
    u_inf, _ = build(3, p)
    assert u_inf.finite and all(u_inf.coeffs.values)
    assert u_inf.scheme.a0 == -2
    real_u, seen = dcheun.specialfn.hyp_u, []

    def counting_u(a, b, w):
        seen.append((a, b, w))
        return real_u(a, b, w)

    monkeypatch.setattr(dcheun.specialfn, "hyp_u", counting_u)
    for z in (1.2 + 0.3j, 0.7 - 0.9j):
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_inf(z)
        assert len(seen) == 2 == len(set(seen))  # one seed: U(a, b) and U(a+1, b+1)
        assert rel_residual(p, u_inf, z) < 1e-10
    zs = np.array([1.2 + 0.3j, 0.7 - 0.9j, 2.1 + 0.1j])
    seen.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u_inf(zs)
    assert len(seen) == 2 * len(zs) == len(set(seen))


def _direct_u_ladder(a0, b0, db, w, n_lo, count):
    for n in range(n_lo, n_lo + count):
        a, b = a0 + n, b0 + db * n
        yield dcheun.specialfn.hyp_u(a, b, w), dcheun.specialfn.hyp_u(a + 1, b + 1, w)


@pytest.mark.parametrize("pair_id,b2,ie", [(1, 0.5, -1.75), (2, 3.5, -1.75),
                                           (3, 0.5, 1.25), (4, 3.5, 1.25)])
def test_coulomb_ladder_where_b_minus_a_vanishes(pair_id, b2, ie, monkeypatch):
    # b0 - a0 is 0 (member at zero of pairs 1, 2) or -1 (member at infinity
    # of pairs 3, 4): a backward db = 2 step at that term would divide by
    # b - a = 0.  With w = -z the member at infinity's top seed sits above
    # n = 1.  Each member must agree with U taken directly at every term.
    p = DcheParams(1.0, b2, 0.3, -0.5j, -1j * ie)
    pts = (2.6 + 0.4j, 1.9 - 0.5j, 0.8 + 0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = build_pair_coulomb(pair_id, p)
        got = [[m(z) for z in pts] for m in pair]
        monkeypatch.setattr(dcheun.solutions, "u_ladder", _direct_u_ladder)
        want = [[m(z) for z in pts] for m in pair]
    assert {(m.scheme.b0 - m.scheme.a0).real for m in pair} >= {0.0 if pair_id < 3 else -1.0}
    for member, gs, ws in zip(pair, got, want):
        for z, g, w in zip(pts, gs, ws):
            for gk, wk in zip(g, w):
                assert abs(gk - wk) <= 1e-10 * abs(wk), (member.variant, z)


def family_pair(rng, family: str, pair_id: int, finite: bool):
    """(params, pair) of one family at a fresh draw: a terminating series
    when ``finite``, else a tuned minimal one."""
    if family == "coulomb_nu":
        return next(coulomb_nu_pairs(rng, pair_id))
    if finite:
        p = finite_power_params(rng, pair_id, 3)
    elif pair_id >= 5:
        p = draw_params(rng, b2_range=(0.0, 1.5))
        flip = tune_b3(pair_id - 4, DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta))
        p = p.with_b3(flip.b3)
    else:
        p = tune_b3(pair_id, draw_params(rng, b2_range=(0.0, 1.5)))
    if family == "r3":
        return p, r3_family(pair_id - 4, p)
    build = build_pair_power if family == "power" else build_pair_coulomb
    return p, build(pair_id, p)


def residual_scale_error(member, zs, got):
    """Worst distance of an array call's triples from the pointwise loop,
    relative to the residual scale max(|f|, |z f'|, |z^2 f''|) at each point."""
    worst = 0.0
    for k, z in enumerate(zs):
        want = member(complex(z))
        scale = max(abs(want[j]) * abs(z) ** j for j in range(3))
        worst = max(worst, max(abs(got[j][k] - want[j]) * abs(z) ** j for j in range(3)) / scale)
    return worst


FAMILY_CASES = (
    [("power", i, f) for i in (1, 2, 3, 4) for f in (False, True)]
    + [("r3", i, f) for i in (5, 6, 7, 8) for f in (False, True)]
    + [("coulomb", i, f) for i in (1, 2, 3, 4) for f in (False, True)]
    + [("coulomb_nu", i, False) for i in (1, 2)]
)


@pytest.mark.parametrize("family,pair_id,finite", FAMILY_CASES)
def test_array_call_matches_pointwise(family, pair_id, finite, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p, pair = family_pair(rng, family, pair_id, finite)
    for member in pair:
        assert member.finite == finite
        zs = np.array(sample_points(rng, member, 24))
        got = member(zs)
        assert all(isinstance(x, np.ndarray) and x.shape == zs.shape for x in got)
        assert residual_scale_error(member, zs, got) <= (1e-13 if finite else 1e-10)
        assert max(rel_residual(p, member, z) for z in zs) < 1e-8


def test_array_points_stopping_at_different_terms(rng, monkeypatch):
    # pair 1's member at infinity sums powers of 1/z: far points leave the
    # sum many terms before near ones, and must leave it where a scalar
    # call stops
    p = tune_b3(1, draw_params(rng, b2_range=(0.3, 1.2)))
    u_inf, _ = build_pair_power(1, p)
    zs = np.array([0.6 + 0.2j, 1.3 - 0.4j, 4.0 + 1.0j, 25.0 - 3.0j])
    live, real_term = [], dcheun.solutions.TermScheme.term

    def counting_term(self, n, z, *args):
        live.append(len(z) if isinstance(z, np.ndarray) else 1)
        return real_term(self, n, z, *args)

    monkeypatch.setattr(dcheun.solutions.TermScheme, "term", counting_term)
    got = u_inf(zs)
    assert len(set(live)) == len(zs)  # each point left at its own term
    assert residual_scale_error(u_inf, zs, got) <= 1e-13


def test_array_call_domain_and_sector(rng):
    p = tune_b3(1, draw_params(rng))
    u_inf, u_zero = build_pair_power(1, p)
    with pytest.raises(DomainError):
        u_inf(np.array([1.1, 0.0, 0.8j]))
    z = p.b1 / abs(p.b1) ** 2  # Re(B1/z) = |B1|^2 > 0: the right side
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u_zero(np.array([z, 1.5 * z]))
        assert not caught
        u_zero(np.array([z, -z, -2 * z]))
    assert [w.category for w in caught] == [SectorWarning]


def member_of_kind(rng, kind):
    """A member whose terms carry powers only ("power"), U only ("U"),
    or both (the Coulomb kinds)."""
    if kind == "coulomb_nu":
        _, pair = next(coulomb_nu_pairs(rng, 1))
        return pair[0]
    p = tune_b3(1, draw_params(rng, b2_range=(0.3, 1.2)))
    if kind == "coulomb":
        return build_pair_coulomb(1, p)[0]
    return build_pair_power(1, p)[0 if kind == "power" else 1]


@pytest.mark.parametrize("kind", ["power", "U", "coulomb", "coulomb_nu"])
def test_non_finite_points_are_refused(kind, rng):
    # a power member used to return NaN values for these, while the U
    # factors of the other kinds refused them
    member = member_of_kind(rng, kind)
    z = member.params.b1 / abs(member.params.b1)  # inside every member's half-plane
    for bad in (complex("nan"), complex("inf"), complex(1.0, float("inf")), float("nan")):
        with pytest.raises(DomainError, match="finite"):
            member(bad)
        with pytest.raises(DomainError, match="finite"):
            member(np.array([z, bad, 1.5 * z]))


def test_scalar_call_returns_builtin_complex(rng):
    p = tune_b3(3, draw_params(rng, b2_range=(0.3, 1.2)))
    for member in build_pair_power(3, p) + build_pair_coulomb(3, p):
        for z in (1.1, np.float64(0.9), 1.2 - 0.3j):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = member(z)
            assert isinstance(out, tuple) and all(type(x) is complex for x in out)
