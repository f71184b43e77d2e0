"""Integral relations: kernels, transforms, boundary terms, closed forms."""

import cmath
import math
import warnings

import numpy as np
import pytest

import dcheun.kernels
import dcheun.specialfn
from dcheun.core import DcheParams
from dcheun.errors import BranchError, ConditionError, QuadratureError
from dcheun.kernels import (
    KernelSpec,
    appendix_closed_form,
    appendix_integral,
    contour_quad,
    kernel_value,
    r3_companion,
    verify_adjoint,
    verify_boundary_terms,
    verify_transform,
    whittaker_index_check,
)
from dcheun.recurrence import finite_series_condition, tridiag_eigen
from dcheun.solutions import build_pair_power, power_coeffs, r3_family
from dcheun.specialfn import gamma
from dcheun.tolerances import MILLER_RESCUE_Z

# i eta = -1.3 satisfies the K1 condition Re(B2/2 - i eta - 1) > 0 and
# terminates pair 1 at N = 2; i eta = -2.7 does the same for K2 / pair 2
P_K1 = DcheParams(1.0, 0.6, 0.2, 0.5j, 1.3j)
P_K2 = DcheParams(1.0, 0.6, 0.2, 0.5j, 2.7j)


def closing_b3(pair_id: int, p: DcheParams, n_fin: int) -> complex:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ev = tridiag_eigen(power_coeffs(pair_id, p.with_b3(0.0)), n_fin)
    return -complex(ev.values[0])


@pytest.fixture(scope="module")
def k1_setup():
    n = finite_series_condition(1, P_K1)
    assert n == 2
    pp = P_K1.with_b3(closing_b3(1, P_K1, n))
    return pp, build_pair_power(1, pp), KernelSpec("K1", pp)


@pytest.fixture(scope="module")
def k2_setup():
    n = finite_series_condition(2, P_K2)
    assert n == 2
    pp = P_K2.with_b3(closing_b3(2, P_K2, n))
    return pp, build_pair_power(2, pp), KernelSpec("K2", pp)


def test_adjoint_identity_both_kernels():
    assert verify_adjoint(KernelSpec("K1", P_K1)) < 1e-6
    assert verify_adjoint(KernelSpec("K2", P_K2)) < 1e-6


def test_adjoint_identity_fault_injection():
    # a corrupted power exponent must break the identity (sensitivity check
    # that the verifier is not trivially passing)
    assert verify_adjoint(KernelSpec("K1", P_K1), exponent_shift=0.01) > 1e-4


def test_adjoint_identity_sign_flipped_companion():
    comp = r3_companion(KernelSpec("K1", P_K1))
    assert comp.params.omega == -P_K1.omega and comp.params.eta == -P_K1.eta
    assert verify_adjoint(comp) < 1e-6


def test_kernel_branch_point_rejected():
    spec = KernelSpec("K1", P_K1)
    # solve xi(z, t) = 1 for t at fixed z
    z = 1.0
    t = P_K1.b1 / (-2j * P_K1.omega * z)
    with pytest.raises(BranchError):
        kernel_value(spec, z, t)


def test_transform_ratio_constancy_k1(k1_setup):
    pp, pair, spec = k1_setup
    rep = verify_transform(pair, spec, [0.8, 1.1, 1.4, 0.9 + 0.3j])
    assert rep.passed and rep.max_rel_dev < 1e-6


def test_transform_ratio_constancy_k2(k2_setup):
    pp, pair, spec = k2_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_transform(pair, spec, [-0.8, -1.1, -1.4])
    assert rep.passed and rep.max_rel_dev < 1e-6


def test_transform_wrong_halfplane_rejected(k1_setup):
    _, pair, spec = k1_setup
    with pytest.raises(ConditionError):
        verify_transform(pair, spec, [-1.0])


def test_transform_violated_parameter_condition_rejected():
    # Re(B2/2 - i eta - 1) = -0.2 < 0: boundary terms would not vanish
    p_bad = DcheParams(1.0, 0.6, 0.3, 0.5j, 0.5j)
    pair = build_pair_power(1, p_bad)
    with pytest.raises(ConditionError):
        verify_transform(pair, KernelSpec("K1", p_bad), [1.0])


def test_transform_fault_injection_breaks_constancy(k1_setup):
    _, pair, spec = k1_setup
    rep = verify_transform(pair, spec, [0.8, 1.1, 1.4], exponent_shift=0.05)
    assert not rep.passed and rep.max_rel_dev > 1e-3


@pytest.mark.parametrize("which,z", [("K1", 1.1), ("K2", -1.1)])
def test_boundary_term_decay(which, z, k1_setup, k2_setup):
    _, pair, spec = k1_setup if which == "K1" else k2_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = verify_boundary_terms(pair, spec, z)
    assert br.vanishes_at_1 and br.vanishes_at_inf
    assert abs(br.fitted_eps_slope - br.predicted_eps_slope) < 0.05 * abs(
        br.predicted_eps_slope
    )
    assert abs(br.fitted_decay_rate - br.predicted_decay_rate) < 0.05 * abs(
        br.predicted_decay_rate
    )


def test_boundary_term_negative_control():
    # violated parameter condition: the finite-endpoint term must not vanish
    p_bad = DcheParams(1.0, 0.6, 0.3, 0.5j, 0.5j)
    pair = build_pair_power(1, p_bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = verify_boundary_terms(pair, KernelSpec("K1", p_bad), 1.1)
    assert not br.vanishes_at_1


# (B1, B2, omega, eta, z) of two terminating K1 sign-flip inputs (N = 3)
# whose boundary term has a zero near xi ~ 1.01, next to the finite end
NEAR_ZERO_BOUNDARY = [
    (1.0813397167202563, 0.3380074744557682, 0.5771544873410647j, 2.169003737227884j,
     1.1707421003407195),
    (0.8594468267439596, 0.36783957136008677, 0.5052529533502662j, 2.183919785680043j,
     1.0817607834277496),
]


@pytest.mark.parametrize("b1,b2,omega,eta,z", NEAR_ZERO_BOUNDARY, ids=("B1=1.08", "B1=0.86"))
def test_boundary_slope_not_fooled_by_a_nearby_zero(b1, b2, omega, eta, z):
    p = DcheParams(b1, b2, 0.0, omega, eta)
    p = p.with_b3(closing_b3(1, p, 3))
    flip = DcheParams(p.b1, p.b2, p.b3, -p.omega, -p.eta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = verify_boundary_terms(r3_family(1, flip), r3_companion(KernelSpec("K1", flip)), z)
    assert br.vanishes_at_1
    assert abs(br.fitted_eps_slope - br.predicted_eps_slope) < 0.05 * br.predicted_eps_slope


def _bare_member(t):
    """A stand-in infinity member: the predictions do not depend on it."""
    return (np.exp(-t),)


def test_kernel_kind_conditions(rng):
    # each condition and prediction, written out per kind, against the
    # one description (sign, power exponent) both kinds share
    outcomes = set()
    for _ in range(40):
        p = DcheParams(*(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2) for _ in range(5)))
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        t = rng.uniform(0.5, 2) + 1j * rng.uniform(-1, 1)
        ie = p.i_eta
        written = {
            "K1": ((p.b2 / 2 - ie - 1).real > 0, (p.b1 / z).real > 0,
                   -2j * p.omega * z * t / p.b1, (p.b2 / 2 - ie - 1).real, (p.b1 / z).real),
            "K2": ((p.b2 / 2 + ie - 1).real < 0, (p.b1 / z).real < 0,
                   2j * p.omega * z * t / p.b1, (1 - p.b2 / 2 - ie).real, -(p.b1 / z).real),
        }
        for kind, (par, zc, xi, slope, rate) in written.items():
            spec = KernelSpec(kind, p)
            assert spec.param_condition() == par and spec.z_condition(z) == zc
            assert spec.contour_variable(z, t) == xi
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                br = verify_boundary_terms((_bare_member, None), spec, z)
            assert abs(br.predicted_eps_slope - slope) <= 1e-12 * max(1.0, abs(slope))
            assert br.predicted_decay_rate == rate
            outcomes.add((kind, par, zc))
    assert len(outcomes) == 8  # every verdict of both conditions was drawn


def concomitant_oracle(spec, u_inf, z, xi):
    """The integrated term at xi, written out per kind with scalar member calls."""
    p = spec.params
    if spec.kind == "K1":
        t = -p.b1 * xi / (2j * p.omega * z)
        return (
            (p.b1**2 * xi / (2j * p.omega * z * z) + p.b1)
            * cmath.exp((2 - p.b2) * cmath.log(z))
            * cmath.exp((p.b2 / 2 - p.i_eta - 1) * cmath.log(xi - 1))
            * u_inf(t)[0]
            * cmath.exp(1j * p.omega * z + p.b1 / z - p.b1 * xi / (2 * z))
        )
    t = p.b1 * xi / (2j * p.omega * z)
    return (
        (p.b1**2 * xi / (2j * p.omega * z * z) - p.b1)
        * cmath.exp((p.b2 - 2) * cmath.log(t))
        * cmath.exp((1 - p.b2 / 2 - p.i_eta) * cmath.log(xi - 1))
        * u_inf(t)[0]
        * cmath.exp(1j * p.omega * z + p.b1 * xi / (2 * z) - 2j * p.omega * z / xi)
    )


@pytest.mark.parametrize("which,r3", [("K1", False), ("K2", False), ("K1", True), ("K2", True)],
                         ids=["K1", "K2", "K1_r3", "K2_r3"])
def test_boundary_terms_match_the_bilinear_concomitant(which, r3, k1_setup, k2_setup):
    pp, pair, spec = k1_setup if which == "K1" else k2_setup
    z = 1.1 if which == "K1" else -1.1
    if r3:
        flip = DcheParams(pp.b1, pp.b2, pp.b3, -pp.omega, -pp.eta)
        pair = r3_family(1 if which == "K1" else 2, flip)
        spec = r3_companion(KernelSpec(which, flip))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = verify_boundary_terms(pair, spec, z)
        xis = [1 + e for e in br.eps_values] + br.r_values
        want = [abs(concomitant_oracle(spec, pair[0], z, xi)) for xi in xis]
    got = br.eps_magnitudes + [math.exp(v) for v in br.r_log_magnitudes]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-11 * w


def test_boundary_terms_evaluate_the_member_once(k1_setup):
    _, (u_inf, u_zero), spec = k1_setup
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return u_inf(t)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verify_boundary_terms((counted, u_zero), spec, 1.1)
    assert sizes == [11]


def test_appendix_a1_quadrature_vs_closed_form(rng):
    for _ in range(20):
        kw = dict(
            alpha=rng.uniform(0.3, 1.5) + 1j * rng.uniform(-0.3, 0.3),
            beta=rng.uniform(0.2, 2.0) + 1j * rng.uniform(-0.3, 0.3),
            y=rng.uniform(0.5, 2.5) + 1j * rng.uniform(-0.4, 0.4),
        )
        lhs = appendix_integral("A1", **kw)
        rhs = appendix_closed_form("A1", **kw)
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


@pytest.mark.parametrize("which", ["A2", "A3"])
def test_appendix_a2_a3_quadrature_vs_closed_form(which, rng):
    for _ in range(20):
        kw = dict(
            kappa=rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.2, 0.2),
            lam=rng.uniform(-0.3, 0.3),
            mu=rng.uniform(0.3, 1.2),
            a=rng.uniform(0.8, 2.0),
        )
        lhs = appendix_integral(which, **kw)
        rhs = appendix_closed_form(which, **kw)
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_appendix_preconditions():
    with pytest.raises(ConditionError):
        appendix_integral("A1", alpha=-0.5, beta=1.0, y=1.0)
    with pytest.raises(ConditionError):
        appendix_integral("A2", kappa=0.3, lam=0.2, mu=-0.1, a=1.5)


def test_whittaker_index_misprint_detected():
    # the identity holds with second index lam + mu/2 and fails with the
    # misprinted lam - mu/2
    assert whittaker_index_check(0.3, 0.2, 0.8, 1.5, corrected=True) < 1e-8
    assert whittaker_index_check(0.3, 0.2, 0.8, 1.5, corrected=False) > 1e-3


def test_contour_quad_runs_integrand_once_per_node():
    # the rule forms (xi - 1)^p itself, so g sees only xi, as an array of
    # distinct nodes per batch; over all batches every node whose xi rounds
    # to 1.0 shares one evaluation, as does every other xi
    y = 1 + 1j
    nodes = []

    def g(xi):
        nodes.extend(xi.tolist())
        return np.exp(-y * xi)

    val = contour_quad(g, -0.5)
    assert abs(val - math.sqrt(math.pi) * cmath.exp(-y) / cmath.sqrt(y)) < 1e-12
    assert 1.0 in nodes
    assert len(nodes) == len(set(nodes)) > 0


@pytest.mark.parametrize("p1", [0.2, 0.3, 0.2 + 0.5j])
@pytest.mark.parametrize("y", [0.5, 1.0, 2.5 - 0.4j])
def test_contour_quad_weak_endpoint_singularity(p1, y):
    # int_1^inf (xi-1)^p e^{-y xi} dxi = Gamma(p+1) e^{-y} y^{-p-1}; with
    # Re(p+1) = 0.2 the integrand's mass reaches far into xi - 1 < 1e-16
    p = p1 - 1
    ref = gamma(p1) * cmath.exp(-y) * cmath.exp(-p1 * cmath.log(y))
    val = contour_quad(lambda xi: np.exp(-y * xi), p)
    assert abs(val - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "g",
    [
        lambda xi: np.ones(len(xi)),  # never decays: the window reaches its limit
        lambda xi: np.exp(1j * xi),
        lambda xi: np.full(len(xi), math.nan),  # non-finite sum
        lambda xi: np.where(xi < 3.0, np.exp(-xi), 0.0),  # a jump: no level converges
    ],
    ids=["constant", "oscillating", "nan", "jump"],
)
def test_contour_quad_raises_when_the_rule_fails(g):
    with pytest.raises(QuadratureError):
        contour_quad(g, 0.5)


def test_quadrature_results_are_builtin_complex():
    # numpy scalars would leak into JSON output and comparisons
    assert type(contour_quad(lambda xi: np.exp(-xi), 0.0)) is complex
    kw = dict(alpha=0.7, beta=1.2, y=1.5)
    assert type(appendix_integral("A1", **kw)) is complex
    assert type(appendix_integral("A2", kappa=0.1, lam=0.2, mu=0.8, a=1.5)) is complex


def _integral_draws(n: int, seed: int):
    """(which, kwargs) for A2, A3 and the Whittaker form, in the bench's ranges."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        if i % 3 == 2:
            yield "W", {"kappa": rng.uniform(0.1, 0.5), "lam": rng.uniform(0.0, 0.3),
                        "mu": rng.uniform(0.5, 1.1), "a": rng.uniform(1.0, 2.0)}
        else:
            yield ("A2", "A3")[i % 3], {
                "kappa": complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)),
                "lam": rng.uniform(-0.3, 0.3), "mu": rng.uniform(0.45, 1.2),
                "a": rng.uniform(0.8, 2.0)}


def _integral(which, kw):
    if which == "W":
        return whittaker_index_check(kw["kappa"], kw["lam"], kw["mu"], kw["a"])
    return appendix_integral(which, **kw)


def test_u_integrands_call_u_once_per_quadrature_batch(monkeypatch):
    # one hyp_u array call per batch of nodes at most; the scalar calls inside a
    # batch are the points off the numpy pass (Miller's recurrence and the
    # asymptotic series, at Re z > 0 and |z| >= 2), and none is Laplace's
    real_u, real_rule = dcheun.specialfn.hyp_u, dcheun.kernels.exp_sinh
    batches, scalars, inside = [], [], [False]

    def counting_u(a, b, z):
        if isinstance(z, np.ndarray):
            batches[-1] += 1
        elif inside[0]:
            scalars.append(complex(z))
        return real_u(a, b, z)

    def counting_rule(f, p):
        def batch(u):
            batches.append(0)
            inside[0] = True
            try:
                return f(u)
            finally:
                inside[0] = False

        return real_rule(batch, p)

    def no_laplace(a, b, z):
        raise AssertionError(f"Laplace route taken at {(a, b, z)}")

    monkeypatch.setattr(dcheun.specialfn, "hyp_u", counting_u)
    monkeypatch.setattr(dcheun.kernels, "hyp_u", counting_u)
    monkeypatch.setattr(dcheun.kernels, "exp_sinh", counting_rule)
    monkeypatch.setattr(dcheun.specialfn, "_u_laplace", no_laplace)
    for which, kw in _integral_draws(6, 24):
        batches.clear()
        scalars.clear()
        _integral(which, kw)
        # a batch whose every xi rounds to 1.0, evaluated before, calls nothing
        assert set(batches) <= {0, 1} and sum(batches) >= 1, which
        assert all(z.real > 0 and abs(z) >= MILLER_RESCUE_Z for z in scalars), which
        assert len(scalars) < 60, which


def test_u_integrands_match_the_per_node_path(monkeypatch):
    # the array calls against one scalar call per node, as the integrands
    # made them before U took arrays
    draws = list(_integral_draws(9, 25))
    got = [_integral(which, kw) for which, kw in draws]
    real_u, real_w = dcheun.kernels.hyp_u, dcheun.kernels.whittaker_w

    def per_node(f):
        def g(first, second, z):
            if not isinstance(z, np.ndarray):
                return f(first, second, z)
            return np.array([f(first, second, x) for x in z.tolist()])

        return g

    monkeypatch.setattr(dcheun.kernels, "hyp_u", per_node(real_u))
    monkeypatch.setattr(dcheun.kernels, "whittaker_w", per_node(real_w))
    for (which, kw), g in zip(draws, got):
        want = _integral(which, kw)
        if which == "W":  # a relative error of about 1e-15 either way
            assert abs(g - want) <= 1e-13, kw
        else:
            assert abs(g - want) <= 1e-13 * abs(want), (which, kw)
