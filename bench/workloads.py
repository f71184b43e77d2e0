"""Seeded inputs for the four benchmark workloads.

Input ``i`` of a workload depends only on (seed, stream, i), so a run can
draw inputs in batches of any size and a warm-up stream (stream 1) never
overlaps the measured one (stream 0).  Nothing here imports dcheun except
the ``cli_cold`` input builder, which closes terminating series with the
library's tridiagonal solver, outside every metric.

Op kinds are cycled, not drawn, so that every run of a given length sees
the same mix of cheap and expensive ops; only continuous parameters are
random.  Each input carries a ``label`` naming its category.  Parameter
ranges follow the acceptance criteria of the test suite (criteria 3, 4
and 5), narrowed where the library is known to fail: the measured
streams hold only inputs on which every op passes, so that one failed op
is a regression.  The inputs cut out of them are the census (stream 2):
a fixed number per run, checked like any op but outside every metric,
so that each known defect stays visible (see ``CENSUS`` below).
"""

from __future__ import annotations

import numpy as np

import oracles

WORKLOADS = ("series_eval", "spectrum", "integrals", "cli_cold")

# dcheun modules each workload imports; set-up time is measured to the end
# of exactly these imports.
IMPORTS = {
    "series_eval": ("dcheun.core", "dcheun.recurrence", "dcheun.solutions"),
    "spectrum": ("dcheun.qes", "dcheun.recurrence", "dcheun.solutions"),
    "integrals": ("dcheun.core", "dcheun.kernels", "dcheun.solutions", "dcheun.recurrence"),
    "cli_cold": ("dcheun.cli",),
}

SERIES_FAMILIES = (
    [("power", p) for p in (1, 2, 3, 4)]
    + [("r3", p) for p in (1, 2, 3, 4)]
    + [("coulomb", p) for p in (1, 2, 3, 4)]
)
# double-Morse at half-integer s: tridiagonal levels, or the
# continued-fraction search over a bracket around them.  Four CF ops per
# tridiagonal one put the median latency among the CF ops, where op times
# are dense, rather than where slow tridiagonal and fast CF ops overlap.
SPECTRUM_METHODS = ("tridiag", "cf", "cf", "cf", "cf")
INTEGRAL_KINDS = (
    "A1", "A2", "A3", "whittaker", "K1", "K1_r3", "K2", "K2_r3",
    "adjoint_K1", "adjoint_K2",
)
CLI_KINDS = (
    "eval", "spectrum_tridiag", "spectrum_cf", "transform",
    "verify_rules", "verify_pairs",
)

# Known defects at the seed commit, each cut out of a measured stream and
# sampled by the census instead (rates from a few hundred draws each):
CENSUS = {
    "series_eval": (
        # char_root lands on a coefficient pole for about a third of the
        # two-sided Coulomb-nu draws: DenominatorError, or members with O(1)
        # residuals after ~1.5 s in mpmath
        "coulomb_nu_1", "coulomb_nu_2",
        # terminating series of N >= 3 terms: residual above 1e-8 in about
        # a sixth of the Coulomb draws at N = 4, rarely at N = 3 or for r3
        "coulomb_fin_N3-4",
    ),
    "spectrum": (
        # infinite_spectrum raises NoRoots on every non-QES and every
        # second-type problem (ROADMAP item 4)
        "DOUBLE_MORSE/generic_s", "SECOND_TYPE/half_integer_s", "SECOND_TYPE/generic_s",
        # the CF search misses algebraic levels that lie close together:
        # s >= 1.5 (often for s >= 2), or s = 1 with B < 1 and C > 1.5
        "cf/clustered",
    ),
    "integrals": (
        # quadrature error just above 1e-8 for alpha (A1) or mu (A2, A3)
        # below about 0.4
        "A1/alpha<0.45", "A3/mu<0.45",
        # K1 adjoint defect above 1e-5 for about a sixth of draws with
        # b1 > 0.7 (none in 3000 draws with b1 < 0.6)
        "adjoint_K1/b1>0.6",
        # K1 transforms of N = 2 terms: ratio deviation up to 5e-7, and
        # occasionally above 1e-6
        "K1/N=2",
        # K2 boundary term not vanishing at infinity for N = 3 and b1 < 0.8
        "K2/N=3,b1<0.8",
    ),
    # the library's own suites fail for some seeds: K1 adjoint defect above
    # 1e-5 (kernels), A-integral errors just above 1e-8 (integrals)
    "cli_cold": ("verify_kernels", "verify_integrals"),
}


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cplx(rng, lo, hi, ilo, ihi) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(ilo, ihi))


def _generic_params(rng, b2_range, eta_im=(-1.0, 1.0)) -> list:
    return [
        _c(_cplx(rng, 0.5, 2.0, -0.5, 0.5)),
        _c(rng.uniform(*b2_range)),
        _c(_cplx(rng, -2.0, 2.0, -1.0, 1.0)),
        _c(_cplx(rng, 0.5, 1.5, -0.5, 0.5)),
        _c(_cplx(rng, -1.0, 1.0, *eta_im)),
    ]


def _terminating_params(rng, pair: int, flipped: bool, terms=(1, 4)):
    """(parameters, N) with a pair-``pair`` series that terminates after N terms,
    N drawn from the inclusive range ``terms``.

    B3 is a starting guess only: the op's characteristic-root search
    closes the finite series.  With ``flipped`` the series terminates for
    the sign-flipped parameters (eta, omega) -> (-eta, -omega).
    """
    n_fin = int(rng.integers(terms[0], terms[1] + 1))
    b2 = rng.uniform(0.2, 1.4)
    ie = (1 - n_fin) - b2 / 2 if pair in (1, 3) else b2 / 2 - (1 + n_fin)
    eta = (-1 if flipped else 1) * ie / 1j
    return [
        _c(rng.uniform(0.5, 1.5)),
        _c(b2),
        _c(_cplx(rng, -2.0, 2.0, -1.0, 1.0)),
        _c(1j * rng.uniform(0.3, 0.9)),
        _c(eta),
    ], n_fin


def _series_input(rng, kind, pair, terminating, terms=(1, 4)) -> dict:
    if terminating:
        params, _ = _terminating_params(rng, pair, flipped=kind == "r3", terms=terms)
    else:
        b2_range = {"coulomb": (0.3, 1.2), "coulomb_nu": (0.4, 1.2)}.get(kind, (0.0, 1.5))
        # Coulomb pair 4 keeps under a decade of margin on the 1e-8
        # residual for Im(eta) < -0.75 (digits down to 8.4)
        eta_im = (-0.75, 1.0) if kind == "coulomb" else (-1.0, 1.0)
        params = _generic_params(rng, b2_range, eta_im)
    points = [_c(_cplx(rng, 0.6, 2.5, -0.8, 0.8)) for _ in range(20)]
    return {"kind": kind, "pair": pair, "terminating": terminating,
            "label": kind + ("_fin" if terminating else ""),
            "params": params, "points": points}


def series_eval_input(seed: int, stream: int, i: int) -> dict:
    rng = _rng(seed, stream, i)
    kind, pair = SERIES_FAMILIES[i % len(SERIES_FAMILIES)]
    # every fourth visit to a family uses a terminating series, rotated so
    # that each cycle holds three of them
    j, cycle = i % len(SERIES_FAMILIES), i // len(SERIES_FAMILIES)
    terminating = (j + cycle) % 4 == 3
    return _series_input(rng, kind, pair, terminating, terms=(1, 2))


def _spectrum_problem(kind, B, C, s, method, label, cross_check=True) -> dict:
    problem = {"kind": kind, "B": B, "C": C, "s": s, "method": method, "label": label}
    problem["ref"] = oracles.spectrum_reference(problem, cross_check)
    return problem


def spectrum_input(seed: int, stream: int, i: int) -> dict:
    """One double-Morse QES problem plus its reference levels (computed here,
    outside every metric).  CF searches stay at s <= 1 and B >= 1, where
    they find every algebraic level."""
    rng = _rng(seed, stream, i)
    j, cycle = i % len(SPECTRUM_METHODS), i // len(SPECTRUM_METHODS)
    method = SPECTRUM_METHODS[j]
    B = float(rng.uniform(0.5 if method == "tridiag" else 1.0, 4.0))
    C = float(rng.uniform(0.0, 2.0))
    # an op's cost grows with its 2s+1 levels, so s is cycled like an op
    # kind: tridiagonal ops through 0..3, CF ops through 0.5 and 1
    s = (cycle % 7) / 2 if method == "tridiag" else 0.5 * (1 + j % 2)
    # the FD cross-check of the tridiagonal oracle costs more than most
    # ops, so it runs on every eighth input only
    return _spectrum_problem("DOUBLE_MORSE", B, C, s, method, f"{method}/s={s:g}",
                             cross_check=i % 8 == 0)


def _spectrum_census(rng, kind: str) -> dict:
    B = float(rng.uniform(0.5, 4.0))
    if kind == "cf/clustered":
        s = float(rng.integers(2, 7)) / 2
        if s == 1:
            B = float(rng.uniform(0.5, 1.0))
        return _spectrum_problem("DOUBLE_MORSE", B, float(rng.uniform(0.0, 2.0)), s, "cf", kind)
    potential, s_kind = kind.split("/")
    C = float(rng.uniform(0.0, 2.0)) if potential == "DOUBLE_MORSE" else 0.0
    if s_kind == "half_integer_s":
        s = float(rng.integers(0, 7)) / 2
    else:
        s = float(rng.uniform(0.0, 3.0))
        while abs(2 * s - round(2 * s)) < 0.1:
            s = float(rng.uniform(0.0, 3.0))
    return _spectrum_problem(potential, B, C, s, "cf_fd", kind)


def integrals_input(seed: int, stream: int, i: int) -> dict:
    rng = _rng(seed, stream, i)
    kind = INTEGRAL_KINDS[i % len(INTEGRAL_KINDS)]
    b1_range = (0.5, 0.6) if kind == "adjoint_K1" else (0.8, 1.3)
    return _integral(rng, kind, kind, b1_range=b1_range)


def _integral(rng, kind, label, index=None, b1_range=(0.8, 1.3), n_fin=3) -> dict:
    """``index``: range of A1's Re(alpha) or of A2/A3's mu, by default from
    0.45 to criterion 5's upper end."""
    u = rng.uniform
    if kind == "A1":
        args = {"alpha": _c(_cplx(rng, *(index or (0.45, 1.5)), -0.3, 0.3)),
                "beta": _c(_cplx(rng, 0.2, 2.0, -0.3, 0.3)),
                "y": _c(_cplx(rng, 0.5, 2.5, -0.4, 0.4))}
    elif kind in ("A2", "A3"):
        args = {"kappa": _c(_cplx(rng, -0.5, 0.5, -0.2, 0.2)), "lam": u(-0.3, 0.3),
                "mu": u(*(index or (0.45, 1.2))), "a": u(0.8, 2.0)}
    elif kind == "whittaker":
        args = {"kappa": u(0.1, 0.5), "lam": u(0.0, 0.3), "mu": u(0.5, 1.1), "a": u(1.0, 2.0)}
    elif kind.startswith("adjoint"):
        eta_lo = 0.6 if kind == "adjoint_K1" else 1.6
        b1 = u(*b1_range) if kind == "adjoint_K1" else u(0.5, 1.5)
        args = {"params": [_c(b1), _c(u(0.2, 0.8)), _c(u(-1.0, 1.0)),
                           _c(1j * u(0.3, 0.8)), _c(1j * u(eta_lo + 0.6, eta_lo + 1.4))]}
    else:
        # terminating pair of n_fin terms inside the kernel's half-plane
        # condition; B3 is closed by the op's tridiagonal solve
        pair = 1 if kind.startswith("K1") else 2
        b2 = u(0.3, 0.9)
        ie = 1 - n_fin - b2 / 2 if pair == 1 else b2 / 2 - 1 - n_fin
        sign = 1 if pair == 1 else -1
        args = {"pair": pair, "n_fin": n_fin,
                "params": [_c(u(*b1_range)), _c(b2), _c(0.0), _c(1j * u(0.4, 0.6)), _c(ie / 1j)],
                "zs": [sign * (x + u(0.0, 0.1)) for x in (0.8, 1.1, 1.4)],
                "z_boundary": sign * u(1.0, 1.2)}
    return {"kind": kind, "label": label, "args": args}


def _integrals_census(rng, label: str) -> dict:
    if label.startswith("A"):
        return _integral(rng, label[:2], label, index=(0.3, 0.45))
    if label == "adjoint_K1/b1>0.6":
        return _integral(rng, "adjoint_K1", label, b1_range=(0.6, 1.5))
    if label == "K1/N=2":
        return _integral(rng, "K1", label, n_fin=2)
    return _integral(rng, "K2", label, b1_range=(0.7, 0.8))


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


def cli_input(seed: int, stream: int, i: int) -> dict:
    """Argument vector, expected exit code and oracle data for one CLI call."""
    rng = _rng(seed, stream, i)
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    out = {"kind": kind, "label": kind, "expect_rc": 0}
    if kind == "eval":
        from dcheun.recurrence import tridiag_eigen
        from dcheun.solutions import power_coeffs
        from dcheun.core import DcheParams
        import warnings

        pair = int(rng.integers(1, 5))
        raw, n_fin = _terminating_params(rng, pair, False, terms=(1, 3))
        p = DcheParams(*(complex(*x) for x in raw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ev = tridiag_eigen(power_coeffs(pair, p.with_b3(0.0)), n_fin)
        p = p.with_b3(-complex(ev.values[0]))
        # points in the right half-plane suit the zero member of pairs 1
        # and 3 and the infinity member of pairs 2 and 4; they also keep
        # every --z value from starting with "-"
        zs = [complex(rng.uniform(0.6, 2.0), rng.uniform(-0.5, 0.5)) for _ in range(3)]
        params = [p.b1, p.b2, p.b3, p.omega, p.eta]
        out["argv"] = ["eval", "--params", ",".join(_fmt(x) for x in params),
                       "--pair", str(pair), "--variant", "zero" if pair in (1, 3) else "inf",
                       "--z", *(_fmt(z) for z in zs)]
        out["params"] = [_c(x) for x in params]
    elif kind.startswith("spectrum"):
        B, C = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.0, 1.0))
        s = float(rng.integers(1, 3)) / 2
        argv = ["spectrum", "--potential", "double-morse",
                "--B", repr(B), "--C", repr(C), "--s", repr(s)]
        levels = oracles.tridiag_levels(B, C, s)
        if kind == "spectrum_cf":
            # bracket around the algebraic levels; every FD level inside it
            # is a reference level
            lo, hi = levels[0] - 0.25, levels[-1] + 0.25
            fd, _ = oracles.fd_levels("DOUBLE_MORSE", B, C, s, 8)
            levels = [e for e in fd if lo < e < hi]
            argv += ["--method", "cf", "--bracket", f"{lo:.12f}", f"{hi:.12f}"]
        out["argv"] = argv
        out["levels"] = levels
    elif kind == "transform":
        params = [complex(*x) for x in _generic_params(rng, (-1.0, 3.0))]
        out["argv"] = ["transform", "--rule", str(rng.choice(["r1", "r2", "r3"])),
                       "--params", ",".join(_fmt(x) for x in params)]
    else:
        suite = kind.split("_", 1)[1]
        out["argv"] = ["verify", "--suite", suite, "--seed", str(int(rng.integers(0, 2**31)))]
    return out


def _census_series(rng, label: str) -> dict:
    if label == "coulomb_fin_N3-4":
        inp = _series_input(rng, "coulomb", int(rng.integers(1, 5)), True, terms=(3, 4))
    else:
        inp = _series_input(rng, "coulomb_nu", int(label[-1]), False)
    inp["label"] = label
    return inp


def _census_cli(rng, label: str) -> dict:
    suite = label.split("_", 1)[1]
    return {"kind": label, "label": label, "expect_rc": 0,
            "argv": ["verify", "--suite", suite, "--seed", str(int(rng.integers(0, 2**31)))]}


MAKERS = {
    "series_eval": series_eval_input,
    "spectrum": spectrum_input,
    "integrals": integrals_input,
    "cli_cold": cli_input,
}


CENSUS_MAKERS = {
    "series_eval": _census_series,
    "spectrum": _spectrum_census,
    "integrals": _integrals_census,
    "cli_cold": _census_cli,
}
CENSUS_STREAM = 2


def make_inputs(workload: str, seed: int, stream: int, start: int, count: int) -> list:
    maker = MAKERS[workload]
    return [maker(seed, stream, i) for i in range(start, start + count)]


def census_inputs(workload: str, seed: int) -> list:
    """One input of each known-defect kind of the workload, from stream 2."""
    maker = CENSUS_MAKERS[workload]
    return [maker(_rng(seed, CENSUS_STREAM, i), label)
            for i, label in enumerate(CENSUS[workload])]
