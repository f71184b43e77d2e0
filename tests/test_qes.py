"""Hyperbolic-potential spectra, eigenfunctions and radial parameter maps."""

import math
import warnings

import numpy as np
import pytest

from dcheun.core import DcheParams, normal_form
from dcheun.errors import (
    DegenerateError,
    DomainError,
    MatchFailure,
    NoRoots,
    NotQes,
)
from dcheun.qes import (
    QesProblem,
    eigenfunction,
    infinite_spectrum,
    map_radial,
    potential,
    problem_params,
    qes_spectrum,
    quasi_polynomial_spectrum,
    regularity_check,
    schrodinger_residual,
)

from conftest import fd_schrodinger_spectrum


@pytest.mark.parametrize("prob,energy", [
    (QesProblem("DOUBLE_MORSE", B=2.0, C=0.7, s=0.8), 0.37),
    (QesProblem("SECOND_TYPE", B=1.6, s=0.5), -0.21),
])
def test_parameter_map_reproduces_schrodinger_form(prob, energy):
    # the mapped equation's second-derivative-only coefficient must equal
    # E - V(u) pointwise
    params = problem_params(prob, energy)
    coeff, _ = normal_form(params, "HYPERBOLIC", lam=1.0)
    for u in (-1.3, 0.2, 0.9):
        assert abs(coeff(u) - (energy - potential(prob, u))) < 1e-12


def test_spectrum_half_spin():
    sp = qes_spectrum(QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5))
    assert sp.certificates["certified_real_distinct"]
    assert sorted(e.real for e in sp.energies) == pytest.approx([-1.25, 0.75], abs=1e-9)


def test_spectrum_spin_one():
    sp = qes_spectrum(QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=1.0))
    exact = sorted([-1.0, (-1 + math.sqrt(17)) / 2, (-1 - math.sqrt(17)) / 2])
    assert sorted(e.real for e in sp.energies) == pytest.approx(exact, abs=1e-9)


def test_spectrum_spin_zero_is_origin(rng):
    for _ in range(5):
        sp = qes_spectrum(
            QesProblem("DOUBLE_MORSE", B=rng.uniform(0.5, 4.0), C=rng.uniform(0, 2), s=0.0)
        )
        assert len(sp.energies) == 1 and abs(sp.energies[0]) < 1e-12


def test_non_half_integer_s_rejected():
    with pytest.raises(NotQes):
        qes_spectrum(QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.3))


def test_route_symmetry():
    # the two series routes differ by (C, u) -> (-C, -u) and must agree
    p = QesProblem("DOUBLE_MORSE", B=2.0, C=1.0, s=1.5)
    e1 = sorted(x.real for x in qes_spectrum(p, "PAIR1").energies)
    e3 = sorted(x.real for x in qes_spectrum(p, "PAIR3").energies)
    assert max(abs(a - b) for a, b in zip(e1, e3)) < 1e-10


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_theorem_certification(s):
    r = qes_spectrum(QesProblem("DOUBLE_MORSE", B=1.7, C=0.4, s=s))
    assert r.certificates["certified_real_distinct"]
    prods = r.certificates["offdiag_products"]
    assert len(prods) == int(2 * s)
    assert all(p.real > 0 and abs(p.imag) < 1e-12 for p in prods)
    vals = sorted(e.real for e in r.energies)
    assert all(abs(e.imag) < 1e-10 for e in r.energies)
    assert min(np.diff(vals), default=1.0) > 1e-8


def test_spectrum_against_finite_difference_oracle():
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=1.0)
    sp = sorted(e.real for e in qes_spectrum(prob).energies)
    fd = fd_schrodinger_spectrum(lambda u: potential(prob, u), u_max=12.0, n=2400, k=4)
    # the three algebraic levels are the lowest three bound states here
    for e in sp:
        assert min(abs(e - f) for f in fd) < 5e-3, e


def test_finite_eigenfunction_residual_and_regularity():
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5)
    grid = np.linspace(-6, 6, 61)
    for energy in (-1.25, 0.75):
        efn = eigenfunction(prob, energy)
        assert efn.finite
        assert schrodinger_residual(efn, grid) < 1e-7
        assert regularity_check(efn.psi, prob).passed


def test_parity_resolved_eigenfunctions():
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5)
    grid = np.linspace(-6, 6, 61)
    for energy, parity, sign in ((-1.25, "EVEN", 1), (0.75, "ODD", -1)):
        efn = eigenfunction(prob, energy, parity=parity)
        assert abs(efn.psi(1.0)[0]) > 1e-3
        for u in (0.3, 1.1, 2.2):
            assert abs(efn.psi(u)[0] - sign * efn.psi(-u)[0]) < 1e-8
        assert schrodinger_residual(efn, grid) < 1e-7
    # the opposite combinations vanish identically and are rejected
    for energy, parity in ((-1.25, "ODD"), (0.75, "EVEN")):
        with pytest.raises(DomainError):
            eigenfunction(prob, energy, parity=parity)


def test_non_eigenvalue_rejected():
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5)
    with pytest.raises(MatchFailure):
        eigenfunction(prob, 0.9)


def test_regularity_negative_control():
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5)
    assert not regularity_check(lambda u: 1.0, prob).passed


@pytest.mark.parametrize("B,C,s", [(2.0, 0.0, 0.5), (1.0, 0.0, 2.5), (1.0, 1.0, 2.5)])
def test_continued_fraction_route_agrees_on_algebraic_levels(B, C, s):
    # s = 2.5 holds levels that lie close together (-6.570 and -6.558 at
    # C = 0; -4.247 and -4.104 at C = 1)
    prob = QesProblem("DOUBLE_MORSE", B=B, C=C, s=s)
    levels = sorted(e.real for e in qes_spectrum(prob).energies)
    sp = infinite_spectrum(prob, (levels[0] - 0.25, levels[-1] + 0.25))
    assert sp.method == "CONTINUED_FRACTION"
    assert sorted(e.real for e in sp.energies) == pytest.approx(levels, abs=1e-8)


def test_non_terminating_roots_fail_matching():
    # characteristic roots exist off the algebraic sector but the two
    # series members are not proportional there; the honest outcome is an
    # empty validated spectrum
    with pytest.raises(NoRoots):
        infinite_spectrum(QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.3), (-3.0, 3.0))
    with pytest.raises(NoRoots):
        infinite_spectrum(QesProblem("SECOND_TYPE", B=2.0, s=0.5), (-3.0, 8.0))


def test_second_type_quasi_polynomials_not_regular():
    prob = QesProblem("SECOND_TYPE", B=2.0, s=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qp = quasi_polynomial_spectrum(prob)
        # the positivity hypothesis fails: energies come out complex
        assert not qp.certificates["certified_real_distinct"]
        efq = eigenfunction(prob, qp.energies[0], pair_choice=1)
        rep = regularity_check(efq.psi, prob)
    assert not rep.passed


def test_uncertified_energies_ordered_by_imag_within_equal_real_parts():
    # the sinh-forced quasi-polynomial energies at B = 1.3, s = 1.5 are two
    # conjugate-like pairs whose real parts agree only up to rounding; both
    # routes must list each pair in the same order, negative imaginary first
    prob = QesProblem("SECOND_TYPE", B=1.3, s=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectra = [quasi_polynomial_spectrum(prob, route=r).energies for r in ("PAIR1", "PAIR3")]
    for energies in spectra:
        assert len(energies) == 4
        for lo, hi in (energies[0:2], energies[2:4]):
            assert abs(lo.real - hi.real) < 1e-12 and lo.imag < 0 < hi.imag
    assert np.allclose(spectra[0], spectra[1], rtol=0, atol=1e-12)


def test_second_type_algebraic_route_rejected():
    with pytest.raises(DomainError):
        qes_spectrum(QesProblem("SECOND_TYPE", B=2.0, s=0.5))


def test_problem_validation():
    with pytest.raises(DomainError):
        QesProblem("DOUBLE_MORSE", B=-1.0, C=0.0, s=0.5)
    with pytest.raises(DomainError):
        QesProblem("SECOND_TYPE", B=2.0, s=0.5, C=0.3)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("B", "C", "s"):
            kw = {"B": 2.0, "C": 0.0, "s": 0.5, field: bad}
            with pytest.raises(DomainError, match=f"{field} must be finite"):
                QesProblem("DOUBLE_MORSE", **kw)


def test_radial_inverse_power_map():
    v1, v2, v3, v4, energy, l = 0.3, -0.2, 0.4, 1.2, -0.8, 1
    branches = map_radial("INVERSE_POWER", v1, v2, v3, v4, energy, l)
    assert len(branches) == 2 and branches[0].b1 == -branches[1].b1
    for pr in branches:
        coeff, _ = normal_form(pr, "ALGEBRAIC")
        for r in (0.7, 1.3, 2.4):
            rhs = energy - l * (l + 1) / r**2 - (v1 / r + v2 / r**2 + v3 / r**3 + v4 / r**4)
            assert abs(coeff(r) - rhs) < 1e-12


def test_radial_even_power_map():
    v1, v2, v3, v4, energy, l = 1.1, 0.5, -0.3, 0.9, -1.1, 2
    branches = map_radial("EVEN_POWER", v1, v2, v3, v4, energy, l)
    for pr in branches:
        coeff, _ = normal_form(pr, "RHO_ALGEBRAIC")
        for r in (0.8, 1.5):
            rhs = energy - l * (l + 1) / r**2 - (
                v1 * r**2 + v2 / r**2 + v3 / r**4 + v4 / r**6
            )
            assert abs(coeff(r) - rhs) < 1e-12


def test_radial_degenerate_rejected():
    with pytest.raises(DegenerateError):
        map_radial("INVERSE_POWER", 1.0, 1.0, 1.0, 0.0, 1.0, 0)
