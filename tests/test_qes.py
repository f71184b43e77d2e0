"""Hyperbolic-potential spectra, eigenfunctions and radial parameter maps."""

import math
import warnings

import numpy as np
import pytest

import dcheun.qes
from dcheun.core import DcheParams, normal_form
from dcheun.errors import (
    DegenerateError,
    DomainError,
    MatchFailure,
    NoRoots,
    NotQes,
)
from dcheun.qes import (
    KINDS,
    QesProblem,
    _energy_rows,
    _series_pair_id,
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
from dcheun.recurrence import _tridiag_matrix
from dcheun.solutions import build_pair_power

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


@pytest.mark.parametrize("kind", KINDS)
def test_qes_flag_is_the_termination_condition(kind):
    # pair 1 terminates after N = 1 + 2s terms for both potentials; the
    # flag and the size of the algebraic spectrum both read that N
    C = 0.4 if kind == "DOUBLE_MORSE" else 0.0
    for s, n in ((0.0, 1), (0.5, 2), (1.5, 4), (2.0, 5), (0.3, None), (1.0 + 1e-7, None)):
        prob = QesProblem(kind, B=1.7, C=C, s=s)
        assert prob.qes_flag == (n is not None), s
        if n is None:
            with pytest.raises(NotQes):
                quasi_polynomial_spectrum(prob)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert len(quasi_polynomial_spectrum(prob).energies) == n


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


def cosh_sinh_sum(prob, energy, parity, u):
    """psi, psi', psi'' of e^{-(B/2) cosh u} sum_n b_n (B/2)^{-n} h((n-s)u),
    h = cosh (EVEN) or sinh (ODD), with b_n the terminating pair-1 series."""
    B, s = prob.B, prob.s
    seq = build_pair_power(1, problem_params(prob, energy))[0].coeffs
    sv = sd = sd2 = 0.0
    for n in range(seq.n_max + 1):
        c, k = seq.b(n) * (B / 2) ** (-n), n - s
        h, hp = np.cosh(k * u), np.sinh(k * u)
        if parity == "ODD":
            h, hp = hp, h
        sv, sd, sd2 = sv + c * h, sd + c * k * hp, sd2 + c * k * k * h
    pre, g, gp = np.exp(-(B / 2) * np.cosh(u)), -(B / 2) * np.sinh(u), -(B / 2) * np.cosh(u)
    return pre * sv, pre * (g * sv + sd), pre * ((g * g + gp) * sv + 2 * g * sd + sd2)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_parity_parts_match_the_cosh_sinh_sum(s):
    # the parity parts are reflections of the member's own psi; the
    # written-out even/odd sums are the oracle
    prob = QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=s)
    u = np.linspace(-4.0, 4.0, 33)
    built = 0
    for energy in qes_spectrum(prob).energies:
        for parity in ("EVEN", "ODD"):
            try:
                efn = eigenfunction(prob, energy, parity=parity)
            except DomainError:
                continue
            want = cosh_sinh_sum(prob, energy, parity, u)
            scale = np.abs(want[0]).max()
            for got, ref in zip(efn.psi(u), want):
                assert np.abs(got - ref).max() <= 1e-12 * scale, (energy, parity)
            built += 1
    assert built == 2 * s + 1


@pytest.mark.parametrize("B, s, level", [(0.7, 2.0, 0), (2.0, 3.0, 0)])
def test_wrong_parity_of_a_tiny_psi_raises(B, s, level):
    # the lowest levels here are EVEN; their ODD parts once came back as
    # cancellation noise (max|psi| 2.3e-12 at B = 0.7, E = -4.1737), small
    # against psi but not against the largest coefficient
    prob = QesProblem("DOUBLE_MORSE", B=B, C=0.0, s=s)
    energy = sorted(qes_spectrum(prob).energies, key=lambda e: e.real)[level]
    assert abs(energy - {0.7: -4.1736689022426, 2.0: -10.2495}[B]) < 1e-4
    eigenfunction(prob, energy, parity="EVEN")
    with pytest.raises(DomainError):
        eigenfunction(prob, energy, parity="ODD")


@pytest.mark.parametrize("B", [0.7, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_each_level_builds_in_exactly_one_parity(B, s):
    prob = QesProblem("DOUBLE_MORSE", B=B, C=0.0, s=s)
    u = np.linspace(-4.0, 4.0, 17)
    for energy in qes_spectrum(prob).energies:
        built = []
        for parity, sign in (("EVEN", 1), ("ODD", -1)):
            try:
                efn = eigenfunction(prob, energy, parity=parity)
            except DomainError:
                continue
            v = efn.psi(u)[0]
            assert np.abs(v - sign * v[::-1]).max() <= 1e-10 * np.abs(v).max()
            built.append(parity)
        assert len(built) == 1, (energy, built)


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


def test_complex_characteristic_roots_are_not_tested_as_levels(monkeypatch):
    # at B = 3.14, s = 2.5 the sinh-forced search reaches complex roots; the
    # real part of a complex root is no root, so it must not cost an
    # eigenfunction attempt
    roots, tested = [], []
    real_root, real_efn = dcheun.qes.char_root, dcheun.qes.eigenfunction

    def recording_root(*args, **kw):
        root = real_root(*args, **kw)
        roots.append(root.x)
        return root

    def counting_efn(problem, energy, *args, **kw):
        tested.append(energy)
        return real_efn(problem, energy, *args, **kw)

    monkeypatch.setattr(dcheun.qes, "char_root", recording_root)
    monkeypatch.setattr(dcheun.qes, "eigenfunction", counting_efn)
    with pytest.raises(NoRoots):
        infinite_spectrum(QesProblem("SECOND_TYPE", B=3.14, s=2.5), (-20.0, 20.0))
    complex_roots = [x for x in roots if abs(x.imag) > 1e-8 * max(1.0, abs(x))]
    assert complex_roots
    assert len(tested) == len(roots) - len(complex_roots)
    assert not any(abs(e - x.real) <= 1e-12 * max(1.0, abs(x)) for e in tested for x in complex_roots)


@pytest.mark.parametrize("prob", [QesProblem("DOUBLE_MORSE", B=2.3, C=0.4, s=1.5),
                                  QesProblem("SECOND_TYPE", B=1.7, s=1.3)])
def test_seed_matrix_is_real(prob):
    # real entries give a real matrix, so the seed eigensolve takes the real
    # LAPACK routine; its eigenvalues are those of the complex solve
    m = _tridiag_matrix(_energy_rows(prob, _series_pair_id(prob)), 80)
    assert m.dtype == np.float64
    real, cplx = np.linalg.eigvals(m), np.linalg.eigvals(m.astype(complex))
    for a, b in ((real, cplx), (cplx, real)):
        assert max(np.min(np.abs(b - v)) / max(1.0, abs(v)) for v in a) < 1e-12


def pointwise_residual(efn, grid):
    res = [efn.psi(float(u)) for u in grid]
    worst = max(abs(d2 + (efn.energy - potential(efn.problem, float(u))) * v)
                for u, (v, _, d2) in zip(grid, res))
    return worst / max(abs(v) for v, _, _ in res)


@pytest.mark.parametrize("prob,energy,kw", [
    (QesProblem("DOUBLE_MORSE", B=2.0, C=0.4, s=1.5), None, {}),
    (QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.5), -1.25, {"parity": "EVEN"}),
    # no level: the matched pieces disagree, but psi is still the matched one
    (QesProblem("DOUBLE_MORSE", B=2.0, C=0.0, s=0.3), -0.7442, {"mismatch_tol": 1e9}),
], ids=["finite", "parity", "matched"])
def test_schrodinger_residual_matches_pointwise(prob, energy, kw):
    if energy is None:
        energy = qes_spectrum(prob).energies[1].real
    efn = eigenfunction(prob, energy, **kw)
    assert efn.finite == ("mismatch_tol" not in kw)
    grid = np.linspace(-6, 6, 61)
    whole = schrodinger_residual(efn, grid)
    assert abs(whole - pointwise_residual(efn, grid)) <= 1e-12 * max(1.0, whole)


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
