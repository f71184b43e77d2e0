"""Reference spectra for the benchmark, independent of the dcheun package.

Two oracles, both built from the potentials' closed forms only:

* ``fd_levels``: lowest levels of -psi'' + V psi = E psi by second-order
  finite differences on three nested grids (h, h/2, h/4), extrapolated
  twice (Richardson, error O(h^6)).  The distance between the result and
  the single extrapolation of the two finer grids is a conservative
  error estimate.
* ``tridiag_levels``: the 2s+1 algebraic energies of the double-Morse
  well at half-integer s, as eigenvalues of the terminating recurrence's
  matrix (diagonal -s(s+C) - n(n-C-2s), superdiagonal -(n+1),
  subdiagonal (B^2/4)(n-2s-1)).  FD levels cross-check them on every
  eighth measured input, and on every census input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

HALF_WIDTH = 8.0  # Dirichlet walls at u = +-8, deep in the forbidden region
BASE_CELLS = 800
LEVEL_TOL = 1e-6  # a reference level must be at least this accurate


def potential(kind: str, B: float, C: float, s: float, u: np.ndarray) -> np.ndarray:
    if kind == "DOUBLE_MORSE":
        return (B**2 / 4) * (np.sinh(u) - C / B) ** 2 - B * (s + 0.5) * np.cosh(u)
    return (B**2 / 4) * np.sinh(u) ** 2 - B * (s + 0.5) * np.sinh(u)


def _fd(kind, B, C, s, cells, count):
    h = 2 * HALF_WIDTH / cells
    u = -HALF_WIDTH + h * np.arange(1, cells)
    diag = 2.0 / h**2 + potential(kind, B, C, s, u)
    off = np.full(cells - 2, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def fd_levels(kind: str, B: float, C: float, s: float, count: int):
    """(levels, error estimates) for the lowest ``count`` levels."""
    e1, e2, e4 = (_fd(kind, B, C, s, BASE_CELLS * m, count) for m in (1, 2, 4))
    r1, r2 = (4 * e2 - e1) / 3, (4 * e4 - e2) / 3
    levels = (16 * r2 - r1) / 15
    return [float(e) for e in levels], [float(e) for e in np.abs(levels - r2)]


def tridiag_levels(B: float, C: float, s: float):
    size = int(round(2 * s)) + 1
    n = np.arange(size, dtype=float)
    m = np.diag(-s * (s + C) - n * (n - C - 2 * s))
    m += np.diag(-(n[:-1] + 1), 1) + np.diag((B**2 / 4) * (n[1:] - 2 * s - 1), -1)
    return sorted(float(v.real) for v in np.linalg.eigvals(m))


def spectrum_reference(problem: dict, cross_check: bool = True) -> dict:
    """Reference levels, the energy bracket of a search, and the oracle's error.

    Double-Morse QES problems (method "tridiag" or "cf") are referenced by
    their tridiagonal levels; a "cf" search gets the bracket that holds
    them with a 0.25 margin.  With ``cross_check`` each level must also
    appear among the FD levels and no other FD level may lie in the
    bracket; ``error`` is then the worst disagreement (infinite for an
    extra level).  Non-QES problems (method "cf_fd") get the bracket that
    holds the lowest three FD levels, with half the neighbouring gap as
    margin on each side, and ``error`` is the FD error estimate.  Errors
    are relative to max(1, |E|), as in the benchmark's level check.
    """
    kind, B, C, s = problem["kind"], problem["B"], problem["C"], problem["s"]
    if problem["method"] in ("tridiag", "cf"):
        levels = tridiag_levels(B, C, s)
        bracket = None
        if problem["method"] == "cf":
            bracket = [levels[0] - 0.25, levels[-1] + 0.25]
        err = 0.0
        if cross_check:
            fd, _ = fd_levels(kind, B, C, s, 2 * len(levels) + 2)
            err = max(min(abs(e - f) for f in fd) / max(1.0, abs(e)) for e in levels)
            if bracket and sum(bracket[0] < f < bracket[1] for f in fd) != len(levels):
                err = math.inf
        return {"levels": levels, "bracket": bracket, "error": err}
    fd, est = fd_levels(kind, B, C, s, 4)
    lo = fd[0] - 0.5 * (fd[1] - fd[0])
    hi = fd[2] + 0.5 * (fd[3] - fd[2])
    err = max(d / max(1.0, abs(e)) for e, d in zip(fd, est))
    return {"levels": fd[:3], "bracket": [lo, hi], "error": err}


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 17 digits for exact results."""
    return -math.log10(max(rel_err, 1e-17))
