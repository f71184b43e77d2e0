"""Equation core: residual operator, transformation rules, normal forms."""

import cmath

import numpy as np
import pytest

from dcheun.core import (
    DcheParams,
    GaugeMap,
    VarMap,
    apply_rule,
    gswe_special_maps,
    jet_chain,
    jet_exp,
    jet_product,
    normal_form,
    reduce_degenerate,
    residual,
    residual_parts,
    special_case_constraints,
)
from dcheun.errors import DomainError, NotDegenerate
from dcheun.solutions import build_pair_power

from conftest import draw_params, tune_b3


def dyadic_params(rng) -> DcheParams:
    """Draw from a dyadic grid so affine parameter maps invert exactly."""

    def d(lo, hi):
        return rng.integers(int(lo * 8), int(hi * 8)) / 8

    return DcheParams(
        b1=d(0.5, 2) + 1j * d(-0.5, 0.5),
        b2=d(-1, 3),
        b3=d(-2, 2) + 1j * d(-1, 1),
        omega=d(0.5, 1.5) + 1j * d(-0.5, 0.5),
        eta=d(-1, 1) + 1j * d(-1, 1),
    )


def test_degenerate_params_rejected():
    with pytest.raises(DomainError):
        apply_rule("r2", DcheParams(0.0, 1.0, 1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        apply_rule("r2", DcheParams(1.0, 1.0, 1.0, 0.0, 0.0))


def test_residual_rejects_origin():
    p = DcheParams(1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        residual(p, lambda z: (1.0, 0.0, 0.0), 0.0)


@pytest.mark.parametrize("z", [1.3 - 0.4j, np.array([0.7 + 0.2j, -1.1 + 0.9j, 2.5j])])
def test_jet_exp_and_product_against_closed_forms(z):
    # P = e^{a z} z^p: P' and P'' written out term by term
    a, p = 0.6 - 1.2j, 1.7 + 0.4j
    ez, zp = np.exp(a * z), np.exp(p * np.log(z))
    closed = (
        ez * zp,
        ez * (a * zp + p * zp / z),
        ez * (a * a * zp + 2 * a * p * zp / z + p * (p - 1) * zp / (z * z)),
    )
    by_log = jet_exp(ez * zp, a + p / z, -p / (z * z))
    by_product = jet_product(
        (ez, a * ez, a * a * ez), (zp, p * zp / z, p * (p - 1) * zp / (z * z))
    )
    for got in (by_log, by_product):
        for g, c in zip(got, closed):
            assert np.all(np.abs(g - c) <= 1e-13 * np.abs(c))


def test_jet_chain_against_closed_form():
    # F(c/z) with F = sin: d/dz = -c cos(c/z)/z^2,
    # d2/dz2 = 2c cos(c/z)/z^3 - c^2 sin(c/z)/z^4
    c, z = 0.8 + 0.3j, -0.9 + 1.4j
    w = c / z
    closed = (
        cmath.sin(w),
        -c * cmath.cos(w) / z**2,
        2 * c * cmath.cos(w) / z**3 - c * c * cmath.sin(w) / z**4,
    )
    sin_jet = (cmath.sin(w), cmath.cos(w), -cmath.sin(w))
    got = jet_chain(sin_jet, VarMap("inversion", c).derivatives(z))
    for g, want in zip(got, closed):
        assert abs(g - want) <= 1e-14 * abs(want)


def test_residual_on_explicit_function():
    # f = z solves iff z^2*0 + (B1+B2 z)*1 + (B3 - 2 eta w z + w^2 z^2) z = r(z)
    p = DcheParams(1.0, 2.0, -1.0, 1.0, 0.5)
    z = 1.5
    expect = (p.b1 + p.b2 * z) + (p.b3 - 2 * p.eta * p.omega * z + p.omega**2 * z * z) * z
    got = residual(p, lambda x: (x, 1.0, 0.0), z)
    assert abs(got - expect) < 1e-14


def test_sign_flip_and_index_flip_are_involutions(rng):
    for rule in ("r2", "r3"):
        for _ in range(20):
            p = dyadic_params(rng)
            q, _ = apply_rule(rule, apply_rule(rule, p)[0])
            for f in ("b1", "b2", "b3", "omega", "eta"):
                assert getattr(p, f) == getattr(q, f), (rule, f)


def test_inversion_rule_fixed_point():
    p = DcheParams(2.0, 2.0, 5.0, 1.0, 0.0)
    q, gauge = apply_rule("r1", p)
    for f in ("b1", "b2", "b3", "omega", "eta"):
        assert abs(getattr(p, f) - getattr(q, f)) < 1e-14, f
    assert gauge.varmap.kind == "inversion"


@pytest.mark.parametrize("rule", ["r1", "r2", "r3"])
def test_rule_covariance(rule, rng):
    # a solution built at the transformed parameters, carried back by the
    # gauge, must solve the original equation
    worst = 0.0
    for _ in range(5):
        p = draw_params(rng, b2_range=(0.0, 1.5))
        p2, gauge = apply_rule(rule, p)
        p2t = tune_b3(1, p2)
        # undo the rule's additive B3 shift to recover the original set
        if rule == "r1":
            shift = -(p.b2 / 2 + p.i_eta) * (p.b2 / 2 - p.i_eta - 1)
        elif rule == "r2":
            shift = 2 - p.b2
        else:
            shift = 0.0
        pt = p.with_b3(p2t.b3 - shift)
        u_inf, _ = build_pair_power(1, p2t)
        back = gauge.transport(u_inf)
        for z in (0.8, 1.3 + 0.4j, 2.1):
            res, scale = residual_parts(pt, back, z)
            worst = max(worst, abs(res) / max(scale, 1e-300))
    assert worst < 1e-8, (rule, worst)


@pytest.mark.parametrize("kind,points", [
    ("ALGEBRAIC", (0.8, 1.4, 2.5)),
    ("HYPERBOLIC", (-0.9, 0.3, 1.1)),
    ("RHO_ALGEBRAIC", (0.9, 1.2, 1.6)),
])
def test_normal_form_transport(kind, points, rng):
    # F solving F'' + coeff F = 0 must transport to a solution U; check the
    # contrapositive numerically: transport a genuine U-solution forward by
    # the inverse gauge and verify F'' + coeff F ~ 0 by finite differences.
    p = tune_b3(1, draw_params(rng, b2_range=(0.2, 1.0)))
    coeff, gauge = normal_form(p, kind)
    u_inf, _ = build_pair_power(1, p)

    def z_of_x(x):
        if kind == "ALGEBRAIC":
            return x
        if kind == "HYPERBOLIC":
            return cmath.exp(x)
        return x * x

    def f_of_x(x):
        z = z_of_x(x)
        return u_inf(z)[0] / gauge.prefactor(z)

    for x in points:
        h = 1e-3
        f0 = f_of_x(x)
        d2 = (f_of_x(x + h) - 2 * f0 + f_of_x(x - h)) / h**2
        defect = d2 + coeff(x) * f0
        scale = max(abs(d2), abs(coeff(x) * f0), 1e-30)
        assert abs(defect) / scale < 1e-4, (kind, x)


def test_normal_form_gauge_roundtrip(rng):
    # transporting any F through the gauge and undoing the prefactor must
    # return F(varmap(z)) exactly
    p = draw_params(rng)
    _, gauge = normal_form(p, "ALGEBRAIC")
    f = lambda w: (cmath.sin(w), cmath.cos(w), -cmath.sin(w))
    g = gauge.transport(f)
    for z in (0.7, 1.9, 1.1 + 0.5j):
        w = gauge.varmap.apply(z)
        assert abs(g(z)[0] - gauge.prefactor(z) * f(w)[0]) < 1e-14


def test_reduce_degenerate_branches():
    with pytest.raises(NotDegenerate):
        reduce_degenerate(DcheParams(1.0, 1.0, 1.0, 1.0, 0.0))
    r = reduce_degenerate(DcheParams(0.0, 1.0, -0.25, 1.0, 0.0))
    assert r.kind == "B1_ZERO"
    # alpha^2 - (1 - B2) alpha + B3 = 0 with B2=1: alpha = +-1/2
    assert sorted(x.real for x in r.roots) == pytest.approx([-0.5, 0.5])
    r = reduce_degenerate(DcheParams(1.0, 3.0, 1.0, 0.0, 0.0))
    assert r.kind == "OMEGA_ZERO"
    # beta^2 - 2 beta + 1 = 0: double root at 1
    assert all(abs(x - 1.0) < 1e-12 for x in r.roots)
    r = reduce_degenerate(DcheParams(0.0, 1.0, 1.0, 0.0, 0.0))
    assert r.kind == "CONSTANT_COEFF"


def test_special_case_detection():
    # omega^2 = -B1^2/4 and 2 eta omega = -B1 (1 - B2/2): cosh forcing
    b1, b2 = 2.0, 1.0
    w = 1j * b1 / 2
    eta = -b1 * (1 - b2 / 2) / (2 * w)
    spec = special_case_constraints(DcheParams(b1, b2, 0.3, w, eta))
    assert spec is not None and spec.kind == "WHE"
    eta = b1 * (1 - b2 / 2) / (2 * w)
    spec = special_case_constraints(DcheParams(b1, b2, 0.3, w, eta))
    assert spec is not None and spec.kind == "SECOND_TYPE"
    assert special_case_constraints(DcheParams(1.0, 1.0, 1.0, 1.0, 0.3)) is None


def test_gswe_map_descriptors():
    m = gswe_special_maps(1.0, 0.5, 0.8, 2.0, 1.0, "WHE")
    ew, z0 = 0.5 * 0.8, 2.0
    assert abs(m.theta1 + ew * z0) < 1e-14
    assert abs(m.theta2 - 0.8**2 * z0**2 / 8) < 1e-14
    assert abs(m.z_of_u(0.0) - z0) < 1e-14
    m = gswe_special_maps(1.0, 0.5, 0.8, 2.0, 1.0, "SECOND_TYPE")
    assert abs(m.theta1 + 1j * ew * z0) < 1e-14
    assert abs(m.z_of_u(0.0) - z0 / 2) < 1e-14
    with pytest.raises(DomainError):
        gswe_special_maps(1.0, 0.5, 0.8, 0.0, 1.0, "WHE")


def test_gauge_composition(rng):
    a = GaugeMap(exp_z=0.3j, exp_inv=0.7, power=1.2, varmap=VarMap("inversion", 2.0))
    b = GaugeMap(exp_z=-0.2, exp_inv=0.1j, power=-0.5, varmap=VarMap("linear", 1.5))
    comp = a.compose(b)
    f = lambda w: (cmath.exp(0.3 * w), 0.3 * cmath.exp(0.3 * w), 0.09 * cmath.exp(0.3 * w))
    direct = a.transport(b.transport(f))
    fused = comp.transport(f)
    for z in (0.9, 1.7, 1.2 + 0.8j):
        for k in range(3):
            num, den = fused(z)[k], direct(z)[k]
            assert abs(num - den) <= 1e-12 * max(1.0, abs(den))
