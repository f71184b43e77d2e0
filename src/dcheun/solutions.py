"""Solution families for the two-point confluent equation.

Four pairs of power / hypergeometric series and the Coulomb-type pairs.
Only pairs 1 and 3 are written out.  Pairs 2 and 4 are their r2 images
(B1 -> -B1, B2 -> 4 - B2) and pairs 5..8 the r3 images of pairs 1..4
(eta, omega -> -eta, -omega): each image is the source pair built at the
rule's parameters and carried back by the rule's gauge.  Every Coulomb
pair is built from one coefficient table in a phase parameter nu and one
layout.  The two-sided pairs take nu from the two-tail characteristic
equation.  The one-sided pairs 1 and 3 sit at nu = i*eta and
nu = B2/2 - 1, where alpha(-1) = 0 cuts the series off below n = 0.
Every table denominator is n + nu + c with c in {-1/2, 0, 1, 3/2}, so
one rule on 2 nu decides every pole (``_check_phase``): the two-sided
pairs refuse 2 nu on the integers, the one-sided pairs refuse 2 nu <= -2
and take the exact limits of their one 0/0 entry at nu = 0 and -1/2.
Each solution evaluates its value and two derivatives; pairs share a
single coefficient sequence.  At each point the U factors of all terms
come from one ``specialfn.u_ladder``: two direct U values at a seed term
(four for some two-sided Coulomb-nu points) and contiguous relations for
the rest.  Each term takes U(a, b, w) and U(a+1, b+1, w), forms
U' = -a U(a+1, b+1, w) and gets U'' from Kummer's equation.

``evaluate`` takes a scalar point or a 1-D numpy array of points through
one term loop: the arithmetic is written in operators, with exp and log
from cmath for a scalar and from numpy for an array.  An array keeps one
U ladder per point, stepped term by term together, and each point leaves
the sum where a scalar call would stop.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, replace
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .core import (
    DcheParams,
    GaugeMap,
    VarMap,
    apply_rule,
    jet_chain,
    jet_exp,
    jet_product,
    residual_parts,
)
from .errors import DenominatorError, DomainError, NoConvergence, SectorWarning
from .recurrence import (
    CoeffSeq,
    ThreeTermCoeffs,
    char_value,
    finite_series_condition,
    generate,
    generate_minimal,
    generate_two_sided,
)
from .specialfn import u_ladder
from .tolerances import CHAR_VALUE_WARN, DEN_TOL, MEMBER_PROBE_TOL, SERIES_TOL, TRUNC_TOL


@dataclass(frozen=True)
class TermScheme:
    """Structure of the n-th basis term, before the overall prefactor.

    t_n(z) = (pow_const * z)^(pow_sign * n) * U(a0 + n, b0 + db n, w(z))

    The power factor is dropped when pow_sign = 0 and the U factor when
    ``arg`` is None.  ``arg`` is the map z -> w: ``linear`` puts the U
    argument proportional to z, ``inversion`` to 1/z.
    """

    pow_const: complex = 1.0
    pow_sign: int = 0
    a0: complex = 0.0
    b0: complex = 0.0
    db: int = 1
    arg: Optional[VarMap] = None

    def term(self, n: int, z, w_derivs, u, xp=cmath):
        """(value, d1, d2) of the bare term t_n at z.  ``w_derivs`` is the triple
        (w, dw/dz, d2w/dz2) at z and ``u`` the pair (U(a, b, w), U(a+1, b+1, w))
        of this term; both are None when the scheme has no U factor.  ``z``
        and the parts of ``w_derivs`` and ``u`` may be numpy arrays of points,
        with ``xp`` = numpy supplying exp and log."""
        power = None
        if self.pow_sign and n:
            k = self.pow_sign * n
            power = jet_exp(xp.exp(k * xp.log(self.pow_const * z)), k / z, -k / (z * z))
        if self.arg is None:
            return power or (1.0 + 0.0j, 0.0j, 0.0j)
        a = self.a0 + n
        b = self.b0 + self.db * n
        w = w_derivs[0]
        g0, u1 = u
        u1 *= -a  # dU/dw = -a U(a+1, b+1, w)
        u2 = (a * g0 + (w - b) * u1) / w  # Kummer's equation w U'' + (b - w) U' - a U = 0
        ujet = jet_chain((g0, u1, u2), w_derivs)
        return ujet if power is None else jet_product(power, ujet)


@dataclass(frozen=True)
class DcheSolution:
    """One member of a solution pair; callable as z -> (value, d1, d2)."""

    family: str
    pair_id: int
    variant: str  # AT_INF | AT_ZERO
    params: DcheParams
    coeffs: CoeffSeq
    gauge: GaugeMap  # prefactor multiplying the term series
    scheme: TermScheme
    halfplane_sign: int = 0    # sign s with s*Re(B1/z) > 0 required (0: none)
    nu: Optional[complex] = None

    @property
    def finite(self) -> bool:
        return self.coeffs.finite

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(sol: DcheSolution, z):
    """Value and two derivatives of the solution at z.

    ``z`` is a scalar, which gives a tuple of builtin complex, or a 1-D
    numpy array of points, which gives a tuple of complex arrays.  Terms
    are summed until three consecutive terms fall below the truncation
    floor relative to the running maximum; in an array each point keeps
    its own count and leaves the sum at the term where a scalar call
    would stop.  w(z) and its two derivatives are formed once, and each
    point's U ladder is stepped only as far as its sum goes.  A one-sided
    infinite sum whose last term is still above 1e-10 of its peak raises
    NoConvergence.  A SectorWarning is issued (once per call) when the
    member's half-plane condition on Re(B1/z) fails at some point.  A
    non-finite point, or z = 0, raises DomainError for every member.
    """
    many = isinstance(z, np.ndarray)
    z = z.astype(complex) if many else complex(z)
    if many and z.ndim != 1:
        raise ValueError("evaluate takes a scalar or a 1-D array of points")
    if not (np.isfinite(z).all() if many else cmath.isfinite(z)):
        raise DomainError("solutions are evaluated at finite points only")
    if (z == 0).any() if many else z == 0:
        raise DomainError("solutions are singular or undefined at z = 0")
    if sol.halfplane_sign:
        wrong = sol.halfplane_sign * (sol.params.b1 / z).real <= 0
        if wrong.any() if many else wrong:
            warnings.warn(
                f"Re(B1/z) is on the wrong side for this member "
                f"(needs sign {sol.halfplane_sign:+d})",
                SectorWarning,
            )
    return jet_product(sol.gauge.prefactor_derivatives(z), _term_sums(sol, z, many))


def _term_sums(sol: DcheSolution, z, many: bool):
    """Sums of b_n t_n and of its two z-derivatives at z, a scalar or (when
    ``many``) an array.

    An array point whose sum has stopped leaves the live arrays: its sums
    go to the output, and its ladder is stepped no further.
    """
    seq, scheme = sol.coeffs, sol.scheme
    xp = np if many else cmath
    larger = np.maximum if many else max
    s0 = s1 = s2 = 0.0j
    peak = last = 0.0
    small = 0
    w = ladders = None
    steps = repeat(None)
    if scheme.arg is not None:
        w = scheme.arg.derivatives(z)
        if many:
            # w per point in Python arithmetic, as a scalar call forms it:
            # a numpy product can differ in the last bit, which can flip the
            # route of a seed's direct U value
            ladders = [_ladder(scheme, seq, scheme.arg.apply(zi)) for zi in z.tolist()]
            steps = _in_step(ladders)
        else:
            steps = _ladder(scheme, seq, w[0])
    if many:
        out = np.zeros((3, len(z)), dtype=complex)
        if not len(z):
            return tuple(out)
        pos = np.arange(len(z))
        # per-point from the start, as a term free of z (n = 0) is a scalar;
        # the sums are rebound at each term, never updated in place
        s0 = s1 = s2 = np.zeros(len(z), dtype=complex)
        peak = np.zeros(len(z))
    for i, (bn, u) in enumerate(zip(seq.values, steps)):
        if bn == 0:
            continue
        t0, t1, t2 = scheme.term(seq.n_min + i, z, w, u, xp)
        c0 = bn * t0
        s0 = s0 + c0
        s1 = s1 + bn * t1
        s2 = s2 + bn * t2
        last = abs(c0)
        peak = larger(peak, last)
        if seq.n_min:
            continue
        small = (small + 1) * (last <= TRUNC_TOL * peak)
        if not many:
            if small >= 3:
                break
            continue
        done = small >= 3
        if done.any():
            out[:, pos[done]] = s0[done], s1[done], s2[done]
            keep = ~done
            if ladders:
                ladders[:] = compress(ladders, keep.tolist())
            pos, z, s0, s1, s2, peak, last, small = (
                x[keep] for x in (pos, z, s0, s1, s2, peak, last, small)
            )
            if w is not None:
                w = tuple(x[keep] if np.ndim(x) else x for x in w)
            if not len(pos):
                break
    if not seq.finite and seq.n_min == 0:
        live_tail = (peak > 0) & (last > SERIES_TOL * peak)
        if live_tail.any() if many else live_tail:
            ratio = (last / peak)[live_tail].max() if many else last / peak
            raise NoConvergence(
                f"series tail still at {ratio:.2e} of its peak; increase n_terms"
            )
    if not many:
        return s0, s1, s2
    out[:, pos] = s0, s1, s2
    return tuple(out)


def _ladder(scheme: TermScheme, seq: CoeffSeq, w: complex):
    """U pairs of every term of ``seq`` at the point where U's argument is w."""
    return u_ladder(scheme.a0, scheme.b0, scheme.db, w, seq.n_min, len(seq.values))


def _in_step(ladders: list):
    """Step per-point U ladders together: per term, the pair of arrays
    (U(a, b, w), U(a+1, b+1, w)) over the points.  The caller may drop
    ladders from the list between terms."""
    while True:
        yield np.array([next(ladder) for ladder in ladders]).T


def _r2_source(pair_id: int, params: DcheParams):
    """(pair, parameters) whose rows pair ``pair_id`` (1..4) takes: pairs 2
    and 4 take those of pairs 1 and 3 at the r2 parameters."""
    params.require_nondegenerate()
    if pair_id not in (1, 2, 3, 4):
        raise ValueError("pair_id must be 1..4")
    if pair_id % 2:
        return pair_id, params
    return pair_id - 1, apply_rule("r2", params)[0]


def _rule_image(build, rule: str, source: int, target: int, params: DcheParams, *args):
    """Pair ``target`` as the ``rule`` image of pair ``source``.

    ``build(source, ...)`` at the rule's parameters solves the image
    equation; the rule's gauge carries each member back to ``params``.
    The half-plane condition follows B1, which r2 flips and r3 keeps.
    """
    image, gauge = apply_rule(rule, params)
    flip = 1 if image.b1 == params.b1 else -1
    return tuple(
        replace(m, pair_id=target, params=params, gauge=gauge.compose(m.gauge),
                halfplane_sign=flip * m.halfplane_sign)
        for m in build(source, image, *args)
    )


# Coefficient tables of the power/hypergeometric pairs.
def power_coeffs(pair_id: int, params: DcheParams) -> ThreeTermCoeffs:
    """Three-term coefficient closures for pairs 1..4 of the power family.

    Pairs 2 and 4 are the rows of pairs 1 and 3 at the r2 parameters.
    """
    pair_id, params = _r2_source(pair_id, params)
    b2, b3 = params.b2, params.b3
    ie = params.i_eta
    iwb = 1j * params.omega * params.b1
    if pair_id == 1:
        const = iwb + b3 + (b2 / 2 + ie) * (1 + ie - b2 / 2)
        return ThreeTermCoeffs(
            alpha=lambda n: n + 1.0 + 0.0j,
            beta=lambda n: n * (n + 1 + 2 * ie) + const,
            gamma=lambda n: 2 * iwb * (n + ie + b2 / 2 - 1),
        )
    return ThreeTermCoeffs(
        alpha=lambda n: n + 1.0 + 0.0j,
        beta=lambda n: n * (n + b2 - 1) + iwb + b3,
        gamma=lambda n: 2 * iwb * (n + ie + b2 / 2 - 1),
    )


def _power_pair_layout(pair_id: int, params: DcheParams):
    """(gauge, scheme at infinity, scheme at zero, families) for pairs 1 and 3."""
    b1, b2 = params.b1, params.b2
    ie = params.i_eta
    iw = 1j * params.omega
    if pair_id == 1:
        inf = TermScheme(pow_const=-2 * iw, pow_sign=-1)
        zero = TermScheme(a0=ie + b2 / 2, b0=2 + 2 * ie, db=1, arg=VarMap("inversion", b1))
        return GaugeMap(exp_z=iw, power=-ie - b2 / 2), inf, zero, ("POWER_DESC", "HYP_U_IN_1/Z")
    inf = TermScheme(a0=ie + b2 / 2, b0=b2, db=1, arg=VarMap("linear", -2 * iw))
    zero = TermScheme(pow_const=1 / b1, pow_sign=1)
    return GaugeMap(exp_z=iw), inf, zero, ("HYP_U_IN_Z", "POWER_ASC")


def _one_sided_seq(tc: ThreeTermCoeffs, pair_id: int, params: DcheParams, n_terms: int):
    """Finite series when the pair terminates, else the minimal solution."""
    n_fin = finite_series_condition(pair_id, params)
    if n_fin is not None:
        return replace(generate(tc, n_fin - 1), finite=True)
    return generate_minimal(tc, n_terms)


def build_pair_power(pair_id: int, params: DcheParams, n_terms: int = 60):
    """Pair (U at infinity, U at zero) of the power/hypergeometric family.

    Both members share one coefficient sequence.  When the termination
    condition holds, n_terms is clipped to the finite length N and the
    series is generated exactly; otherwise the minimal solution is built
    (meaningful when the constant term satisfies the characteristic
    equation).  Pairs 2 and 4 are the r2 images of pairs 1 and 3.
    """
    if pair_id in (2, 4):
        return _rule_image(build_pair_power, "r2", pair_id - 1, pair_id, params, n_terms)
    seq = _one_sided_seq(power_coeffs(pair_id, params), pair_id, params, n_terms)
    gauge, s_inf, s_zero, fams = _power_pair_layout(pair_id, params)
    u_inf = DcheSolution(
        family=fams[0], pair_id=pair_id, variant="AT_INF", params=params,
        coeffs=seq, gauge=gauge, scheme=s_inf,
    )
    u_zero = DcheSolution(
        family=fams[1], pair_id=pair_id, variant="AT_ZERO", params=params,
        coeffs=seq, gauge=gauge, scheme=s_zero, halfplane_sign=+1,
    )
    return u_inf, u_zero


def r3_family(pair_id: int, params: DcheParams, n_terms: int = 60):
    """Pairs 5..8: the r3 (sign-flip) images of pairs 1..4.

    The sign-flip rule has an identity gauge, so the members are the
    pairs built at the flipped parameters, relabeled to solve the
    original equation; asymptotics change to e^{-i omega z} z^{i eta - B2/2}.
    """
    if pair_id not in (1, 2, 3, 4):
        raise ValueError("pair_id must be 1..4")
    return _rule_image(build_pair_power, "r3", pair_id, pair_id + 4, params, n_terms)


# Coulomb-type pairs: one table and one layout in the phase parameter nu.
def _coulomb_table(params: DcheParams, nu) -> ThreeTermCoeffs:
    """One-sided closures of the Coulomb coefficient table at phase nu."""
    b2, b3 = params.b2, params.b3
    ie = params.i_eta
    nu = complex(nu)
    iwb = 1j * params.omega * params.b1
    ewb = params.eta * params.omega * params.b1

    def alpha(n):
        return (iwb * (n + nu + 2 - b2 / 2) * (n + nu + 1 - ie)
                / (2 * (n + nu + 1) * (n + nu + 1.5)))

    def beta(n):
        return (b3 + (n + nu + 1 - b2 / 2) * (n + nu + b2 / 2)
                + ewb * (b2 / 2 - 1) / ((n + nu) * (n + nu + 1)))

    def gamma(n):
        return (iwb * (n + nu + b2 / 2 - 1) * (n + nu + ie)
                / (2 * (n + nu) * (n + nu - 0.5)))

    return ThreeTermCoeffs(alpha=alpha, beta=beta, gamma=gamma)


def _coulomb_pair(params: DcheParams, nu: complex, seq: CoeffSeq):
    """(U at infinity, U at zero) members of the table at phase nu."""
    b1, b2 = params.b1, params.b2
    ie = params.i_eta
    iw = 1j * params.omega
    s_inf = TermScheme(pow_const=-2 * iw, pow_sign=1,
                       a0=nu + 1 + ie, b0=2 * nu + 2, db=2, arg=VarMap("linear", -2 * iw))
    s_zero = TermScheme(pow_const=1 / b1, pow_sign=-1,
                        a0=nu + b2 / 2, b0=2 * nu + 2, db=2, arg=VarMap("inversion", b1))
    u_inf = DcheSolution(
        family="COULOMB_NU", pair_id=1, variant="AT_INF", params=params, coeffs=seq,
        gauge=GaugeMap(exp_z=iw, power=nu + 1 - b2 / 2), scheme=s_inf, nu=nu,
    )
    u_zero = DcheSolution(
        family="COULOMB_NU", pair_id=1, variant="AT_ZERO", params=params, coeffs=seq,
        gauge=GaugeMap(exp_z=iw, power=-nu - b2 / 2), scheme=s_zero, halfplane_sign=+1, nu=nu,
    )
    return u_inf, u_zero


def coulomb_nu_coeffs(pair_id: int, params: DcheParams, nu) -> ThreeTermCoeffs:
    """Fractional coefficient closures of the two-sided Coulomb pairs.

    Pair 2 takes the rows of pair 1 at the r2 parameters.
    """
    params.require_nondegenerate()
    if pair_id not in (1, 2):
        raise ValueError("pair_id must be 1 or 2 for the phase-parameter family")
    _, params = _r2_source(pair_id, params)
    return replace(_coulomb_table(params, nu), two_sided=True)


def _check_phase(nu: complex, one_sided: bool, remedy: str) -> Optional[int]:
    """k = 2 nu when nu lies within ``DEN_TOL`` of the half-integer lattice,
    else None.

    Every table denominator is n + nu + c with c in {-1/2, 0, 1, 3/2}, so
    on the lattice some row has a zero one.  A two-sided sum uses every
    row and raises DenominatorError.  A one-sided sum uses rows n >= 0
    (gamma from n = 1): it raises for k <= -2 and returns k for k >= -1,
    where beta(0) (k = 0) or gamma(1) (k = -1) is 0/0 and has a limit.
    """
    k = round(2 * nu.real) if cmath.isfinite(nu) else None
    if k is None or abs(nu - k / 2) >= DEN_TOL:
        return None
    if one_sided and k >= -1:
        return k
    raise DenominatorError(
        f"nu = {k}/2 makes a coefficient denominator n + nu + c vanish; {remedy}"
    )


def build_pair_coulomb_nu(pair_id: int, params: DcheParams, nu, window: int = 40):
    """Two-sided Coulomb pair with phase parameter nu.

    ``nu`` should solve the two-tail characteristic equation; when it
    does not, a warning is issued and the members do not solve the
    equation.  A root is checked on its members too: each is evaluated at
    z = B1/|B1|, and a relative equation residual above 1e-8 there raises
    NoConvergence, whose message gives the distance of 2 nu from the
    nearest integer.  This catches the roots that ``char_root`` accepts
    next to the half-integer lattice.  The sum runs over
    n = -window .. window.  A nu with 2 nu within 2e-9 of an integer
    raises DenominatorError, at any window: the tails' continued fractions
    run on past it.  Pair 2 is the r2 image of pair 1.
    """
    if pair_id == 2:
        return _rule_image(build_pair_coulomb_nu, "r2", 1, 2, params, nu, window)
    nu = complex(nu)
    tc = coulomb_nu_coeffs(pair_id, params, nu)
    _check_phase(nu, False, "shift nu to the companion characteristic root")
    pair = _coulomb_pair(params, nu, generate_two_sided(tc, window=window))
    cv = char_value(tc)
    if abs(cv) > CHAR_VALUE_WARN * max(1.0, abs(tc.beta(0))):
        warnings.warn(
            f"phase parameter does not satisfy the characteristic equation "
            f"(|value| = {abs(cv):.2e}); series will not solve the equation",
            UserWarning,
        )
        return pair
    z0 = params.b1 / abs(params.b1)
    for member in pair:
        res, scale = residual_parts(params, member, z0)
        if abs(res) > MEMBER_PROBE_TOL * scale:
            raise NoConvergence(
                f"the {member.variant} member misses the equation at z = B1/|B1| "
                f"(relative residual {abs(res) / scale:.2e}); 2 nu is "
                f"{abs(2 * nu - round(2 * nu.real)):.2e} from the nearest integer"
            )
    return pair


# Truncated (one-sided) Coulomb pairs: rows of the table at a fixed phase.
def _coulomb_phase(pair_id: int, params: DcheParams) -> complex:
    """Phase nu of truncated pair 1 or 3; alpha(-1) vanishes there."""
    return params.i_eta if pair_id == 1 else params.b2 / 2 - 1


def coulomb_coeffs(pair_id: int, params: DcheParams) -> ThreeTermCoeffs:
    """One-sided coefficient closures of the truncated Coulomb pair.

    The rows of the shared table at the pair's phase nu; pairs 2 and 4
    take those of pairs 1 and 3 at the r2 parameters.  At nu = 0 beta(0)
    and at nu = -1/2 gamma(1) are 0/0 in the table; they are replaced by
    their exact limits along the pair's line in nu.  A phase at 2 nu <= -2
    on the half-integer lattice raises DenominatorError with the pair's
    remedy.
    """
    source, params = _r2_source(pair_id, params)
    if source == 1:
        remedy = "apply the sign-reversal rule (eta, omega) -> (-eta, -omega) first"
    else:
        remedy = f"use the companion pair {4 if pair_id == 3 else 3}"
    nu = _coulomb_phase(source, params)
    k = _check_phase(nu, True, remedy)
    tc = _coulomb_table(params, nu)
    b2, b3 = params.b2, params.b3
    iwb = 1j * params.omega * params.b1
    if k == 0:
        lim = -iwb * (b2 / 2 - 1) if source == 1 else params.eta * params.omega * params.b1
        beta0 = b3 + (1 - b2 / 2) * (b2 / 2) + lim
        return replace(tc, beta=lambda n: beta0 if n == 0 else tc.beta(n))
    if k == -1:
        gamma1 = 2 * iwb * (b2 / 2 - 0.5 if source == 1 else 0.5 + params.i_eta)
        return replace(tc, gamma=lambda n: gamma1 if n == 1 else tc.gamma(n))
    return tc


def build_pair_coulomb(pair_id: int, params: DcheParams, n_terms: int = 60):
    """Truncated Coulomb pair (U at infinity, U at zero).

    Termination follows the same condition, with the same N, as the
    corresponding power/hypergeometric pair.  Pairs 2 and 4 are the r2
    images of pairs 1 and 3.
    """
    if pair_id in (2, 4):
        coulomb_coeffs(pair_id, params)  # a vanishing denominator names this pair's companion
        return _rule_image(build_pair_coulomb, "r2", pair_id - 1, pair_id, params, n_terms)
    seq = _one_sided_seq(coulomb_coeffs(pair_id, params), pair_id, params, n_terms)
    u_inf, u_zero = _coulomb_pair(params, _coulomb_phase(pair_id, params), seq)
    return (
        replace(u_inf, family="HYP_U_IN_Z", pair_id=pair_id, nu=None),
        replace(u_zero, family="HYP_U_IN_1/Z", pair_id=pair_id, nu=None),
    )
