"""Exp-sinh (double-exponential) quadrature on (0, inf).

The substitution u = exp(pi/2 sinh t) maps (0, inf) onto the real t axis
and makes the transformed integrand decay double-exponentially at both
ends, for an algebraic endpoint factor u^p (Re p > -1) at u = 0 and an
exponential decay at infinity (Takahasi and Mori, Publ. RIMS 9, 1974;
Mori and Sugihara, J. Comput. Appl. Math. 127, 2001).  The trapezoid
rule in t then converges geometrically in the number of nodes, so the
step is halved until two levels agree.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError
from .tolerances import EPS, EXP_SINH_TOL

_H0 = 0.5  # step of level 0
_MAX_LEVEL = 7
_FIRST_LEVEL = 2  # levels 0.._FIRST_LEVEL are evaluated in one batch
_T_START = (-4.0, 2.0)  # level-0 window before it grows
_T_LIMIT = (-12.0, 6.0)  # the window never grows past these

# Every node the rule can use, at the finest step: level k takes every
# 2^(_MAX_LEVEL - k)-th entry.  Per node: pi/2 sinh t, log(pi/2 cosh t)
# and u = exp(pi/2 sinh t).
_STRIDE0 = 1 << _MAX_LEVEL
_T = _T_LIMIT[0] + (_H0 / _STRIDE0) * np.arange(
    round((_T_LIMIT[1] - _T_LIMIT[0]) / _H0) * _STRIDE0 + 1
)
_SH = 0.5 * math.pi * np.sinh(_T)
_LOG_DU = np.log(0.5 * math.pi * np.cosh(_T))
_U = np.exp(_SH)


def _index(t: float) -> int:
    return round((t - _T_LIMIT[0]) / _H0) * _STRIDE0


def _terms(g, p, nodes: slice) -> np.ndarray:
    """Transformed integrand u^p g(u) du/dt at the table nodes ``nodes``.

    u^p du/dt is formed as one exponential, exp((p+1) pi/2 sinh t)
    pi/2 cosh t, so it stays finite where u itself underflows to 0.
    """
    return np.exp((p + 1) * _SH[nodes] + _LOG_DU[nodes]) * g(_U[nodes])


def exp_sinh(g, p):
    """int_0^inf u^p g(u) du by the exp-sinh rule; returns (value, error estimate).

    ``g`` takes a float array of nodes u and returns their values; ``p``
    may be complex with Re p > -1.  Level 0 has step 1/2 on a window of t
    that grows at each end until the end term is negligible against the
    sum of |terms|; each later level halves the step inside the part of
    that window where the terms count.  The rule stops when two levels
    differ by at most ``EXP_SINH_TOL`` (1e-12) times the sum of |terms|
    (the scale that rounding already limits a cancelling integral to),
    and the difference is the error estimate.

    Raises QuadratureError on a non-finite sum, on a window that reaches
    its limit without the end terms becoming negligible, or when the
    finest level has not converged.
    """
    step = _STRIDE0 >> _FIRST_LEVEL  # table stride of the first batch
    lo, hi = _index(_T_START[0]), _index(_T_START[1])
    terms = _terms(g, p, slice(lo, hi + 1, step))
    while True:
        l1 = float(np.abs(terms).sum())
        if not math.isfinite(l1):
            raise QuadratureError("exp-sinh quadrature: sum not finite")
        grow_lo = abs(terms[0]) > EPS * l1
        grow_hi = abs(terms[-1]) > EPS * l1
        if not (grow_lo or grow_hi):
            break
        if (grow_lo and lo == 0) or (grow_hi and hi == len(_T) - 1):
            raise QuadratureError("exp-sinh quadrature: integrand does not decay")
        if grow_lo:  # one unit of t more at the left end
            new_lo = lo - 2 * _STRIDE0
            terms = np.concatenate((_terms(g, p, slice(new_lo, lo, step)), terms))
            lo = new_lo
        if grow_hi:
            new_hi = min(hi + 2 * _STRIDE0, len(_T) - 1)
            terms = np.concatenate((terms, _terms(g, p, slice(hi + step, new_hi + 1, step))))
            hi = new_hi

    # levels 0 .. _FIRST_LEVEL from the batch: level k takes every
    # 2^(_FIRST_LEVEL - k)-th batch node, which all lie on level 0's grid
    value = 0.0j
    for k in range(_FIRST_LEVEL + 1):
        h = _H0 / (1 << k)
        sub = terms[:: 1 << (_FIRST_LEVEL - k)]
        prev, value = value, h * complex(sub.sum())
        l1 = h * float(np.abs(sub).sum())
        err = abs(value - prev)
        if k > 0 and err <= EXP_SINH_TOL * l1:
            return value, err

    # later levels refine only where the batch has terms that count
    mags = np.abs(terms)
    keep = np.nonzero(mags > EPS * mags.sum())[0]
    win_lo = lo + step * max(keep[0] - 1, 0)
    win_hi = lo + step * min(keep[-1] + 1, len(terms) - 1)
    for k in range(_FIRST_LEVEL + 1, _MAX_LEVEL + 1):
        h = _H0 / (1 << k)
        half = _STRIDE0 >> k
        mid = _terms(g, p, slice(win_lo + half, win_hi, 2 * half))
        prev, value = value, 0.5 * value + h * complex(mid.sum())
        l1 = 0.5 * l1 + h * float(np.abs(mid).sum())
        if not math.isfinite(l1):
            raise QuadratureError("exp-sinh quadrature: sum not finite")
        err = abs(value - prev)
        if err <= EXP_SINH_TOL * l1:
            return value, err
    raise QuadratureError(
        f"exp-sinh quadrature did not converge: level difference {err:.1e} "
        f"against {EXP_SINH_TOL:.0e} of the |terms| sum {l1:.1e}"
    )
