"""Every threshold, cap and cutoff of the library, each defined once.

Each name says what it decides, and the comment above it says why it has
its value.  A module imports the names it needs with
``from .tolerances import NAME``, so a hot loop reads a module global.
Formula coefficients stay with their formulas, save the one set whose
sizes look like thresholds: Lanczos's Gamma coefficients.  The exp-sinh
node-table geometry also stays in ``quadrature``, because it sizes the
table built at import rather than judging a result.
"""

# --- floating point ----------------------------------------------------------

# Machine epsilon of IEEE doubles, 2^-52: the unit of every rounding bound,
# and the size below which a term no longer changes a sum.
EPS = 2.220446049250313e-16

# Stand-in for a zero magnitude under a division or a log, so that a
# relative error or a log-magnitude stays finite; it sits near the bottom
# of the double range (the smallest normal double is 2.2e-308), below any
# magnitude that counts.
MAGNITUDE_FLOOR = 1e-300

# --- core --------------------------------------------------------------------

# special_case_constraints: omega^2 = -B1^2/4 and the cross-term condition
# hold when they agree to this, relative to their scale; parameters read
# from text carry rounding of a few ulps, far below it.
CONSTRAINT_TOL = 1e-10

# --- recurrence --------------------------------------------------------------

# Lentz's start value and its replacement for a zero denominator
# (Numerical Recipes, 5.2), also used by the backward ratios: it makes the
# next ratio huge but finite.
CF_TINY = 1e-30

# A pair's finite-series condition holds when its offset from B2/2 +- i eta
# is this close to a positive integer: parameters built to terminate land
# a few roundings away from the integer, far inside it.
INTEGER_TOL = 1e-9

# Cap on the rows a minimal-solution continued fraction may sum; a tail
# that has not settled by then raises NoConvergence instead of returning
# its last iterate.  The cap bounds the cost of a tail that never settles.
CF_ROWS = 400

# Lentz stops once a row changes the fraction by less than this (relative):
# a few ulps, so the fraction is exact to rounding.
CF_TOL = 1e-14

# char_root's default stop: |char_value| below this is a root.  It is an
# absolute bound, so it does not scale with the size of the row terms.
CHAR_ROOT_TOL = 1e-11

# char_root's default cap on secant steps; it bounds the cost of a secant
# that wanders, since a converging one stops far sooner.
CHAR_ROOT_MAX_ITER = 200

# Offset of the secant's second point from the guess, relative and
# absolute: x1 = x0 (1 + h) + h (1 + 0.3i); small enough to stay next to
# the guess, large enough for a finite-difference slope of char_value.
SECANT_OFFSET = 1e-4

# Step along 1 + i taken when two secant values are equal, so that the
# next secant slope is defined.
SECANT_NUDGE = 1e-7

# A secant step shorter than this, relative to max(1, |x|), has stalled:
# the iterate moves only by rounding.
STALL_STEP = 1e-15

# A stalled iterate is still returned as a root when |char_value| is below
# this multiple of tol.  This acceptance is absolute: next to a coefficient
# pole char_value's rounding noise reaches it, and the noise decides
# between a spurious root and NoConvergence.
STALL_FACTOR = 1e3

# tridiag_eigen certifies a diagonal entry as real when its imaginary part
# is below this, relative to max(1, |entry|): the rows carry a few ulps of
# complex rounding.
CERT_DIAG_IMAG = 1e-12

# tridiag_eigen certifies an off-diagonal product alpha_j gamma_{j+1} as
# real when its imaginary part is below this times the largest product.
CERT_PRODUCT_IMAG = 1e-10

# Uncertified eigenvalues whose real parts agree to this, relative to the
# largest modulus, are ordered by imaginary part: eigvals gives the real
# parts of a conjugate-like pair equal only to rounding.
REAL_PART_TIE = 1e-8

# --- special functions -------------------------------------------------------

# U takes the M-series connection for |z| below this and the asymptotic
# series at or above it, where the connection's two terms cancel too much.
ASYMPTOTIC_CUTOFF = 30.0

# Cap on the asymptotic series' terms; at |z| >= 30 the series reaches its
# smallest term, or a term below eps, well before it.
ASYMPTOTIC_MAX_TERMS = 120

# Cap on the Kummer M series' terms before it raises NoConvergence; at
# |z| < 30 the terms fall below eps well before it.
KUMMER_MAX_TERMS = 700

# A connection, Miller or asymptotic U whose relative error estimate
# reaches this takes the Laplace route instead.
FALLBACK_TOL = 1e-11

# U takes Miller's recurrence for |z| from this up to ASYMPTOTIC_CUTOFF in
# the right half-plane: there the connection's two terms cancel past
# FALLBACK_TOL, while the recurrence's terms fall fast enough in n.
MILLER_MIN_Z = 5.0

# Below MILLER_MIN_Z, a right half-plane connection miss at |z| from this
# up tries Miller's recurrence before the Laplace route: at 2 <= |z| < 5 it
# settles at about half the Laplace route's cost.
MILLER_RESCUE_Z = 2.0

# Miller's a-priori depth is (sqrt(this) + 2 max(Re(a - b/2), 0))^2 / (|z|
# cos^2(arg z / 2)).  The sum's terms fall like n^(a - b/2) e^(-2 sqrt(n z));
# at a = b/2 that depth makes e^(-2 sqrt(n z)) = e^(-42), past eps with a
# margin, and the second term moves it as far past the power's peak.
MILLER_DEPTH_SCALE = 450.0

# Cap on Miller's depth, which doubles while its top term is above eps of
# the sum; past it the route raises NoConvergence.  The depth reaches it
# only for Re a in the tens with z near the imaginary axis, where the
# rounding bound misses FALLBACK_TOL anyway.
MILLER_MAX_DEPTH = 4096

# Lanczos's approximation with Godfrey's g = 7 and nine terms (C. Lanczos,
# SIAM J. Numer. Anal. B 1 (1964) 86-96; Numerical Recipes 6.1):
# Gamma(z) = sqrt(2 pi) t^(z - 1/2) e^(-t) P(z) / (z (z+1) ... (z+7)) with
# t = z + 6.5, for Re z >= 1/2.  These are P's coefficients p_0..p_8:
# Godfrey's nine partial-fraction coefficients (0.99999999999980993,
# 676.5203681218851, -1259.1392167224028, ...) put over that common
# denominator in 40-digit arithmetic.  All are positive, so P does not
# cancel on the real axis, where the alternating partial fractions lose
# up to 3e-15.  Against mpmath, with the reflection formula below 1/2, the
# relative error is at most 2.1e-13 over 4000 draws with |z| <= 50 (the
# approximation's own error, which grows with |Im z|), 5e-14 on the real
# axis there (where gamma itself is math.gamma), and 5e-15 within 1e-2 of
# the poles 0, -1, ..., -8.
LANCZOS_G7 = (
    3409662.655334301,
    4162387.8912255666,
    2222880.4194936417,
    678289.7015023341,
    129347.25852873056,
    15784.880456697452,
    1203.8342013886463,
    52.45833333334355,
    0.9999999999998099,
)

# Relative error allowed for a product of two Gamma values, a connection
# coefficient.  Against mpmath at the same arguments, over the 3981
# distinct (a, b) that the bench's series_eval and integrals inputs (the
# first 480 of seeds 7 and 11) and its cli eval and pairs commands (the
# first 60) pass to the connection, the worst is 4.3e-15 and the median
# 8e-16.
GAMMA_REL = 4.3e-15

# b this close to an integer skips the connection route: both of its terms
# have poles there, and its estimate (of order eps / |b - n|) would reject
# it.
INTEGER_B_WINDOW = 1e-5

# Distance from 0, -1, -2, ... at which a Gamma pole or a polynomial U is
# taken.
POLE_TOL = 1e-12

# A db = 2 ladder seeds the term where |b - a| is below this: a backward
# step there divides by b - a, and loses about log10(1 / |b - a|) digits.
LADDER_GAP = 0.1

# --- quadrature --------------------------------------------------------------

# The exp-sinh rule stops when two levels differ by at most this times the
# sum of |terms|, the scale that rounding already limits a cancelling
# integral to; it serves U's Laplace route and contour_quad alike.
EXP_SINH_TOL = 1e-12

# --- solutions ---------------------------------------------------------------

# A series sum stops after three consecutive terms below this fraction of
# its peak term: under half an ulp of the peak, so they no longer count.
TRUNC_TOL = 1e-16

# A one-sided sum whose last term is still above this fraction of its peak
# term has not converged, and evaluate raises NoConvergence.
SERIES_TOL = 1e-10

# A Coulomb phase nu this close to the half-integer lattice makes a table
# denominator n + nu + c count as zero (the pole guard's distance in nu).
# The distance is not settled: roots found within 1e-7 of the lattice
# pass it and build members that are not trustworthy.
DEN_TOL = 1e-9

# build_pair_coulomb_nu warns when |char_value(nu)| exceeds this, relative
# to max(1, |beta(0)|): the phase then does not solve the characteristic
# equation, and neither do the members.
CHAR_VALUE_WARN = 1e-6

# build_pair_coulomb_nu evaluates each member once at z = B1/|B1| and
# raises when the equation residual there exceeds this, relative to the
# largest of its three terms.  Members at a true root sit far below it;
# members at a phase next to the lattice that char_root accepts read 0.07
# to 1.3.
MEMBER_PROBE_TOL = 1e-8

# --- kernels -----------------------------------------------------------------

# A kernel evaluation this close to the branch point xi = 1 raises
# BranchError.
BRANCH_TOL = 1e-12

# verify_transform passes when the ratios spread by less than this,
# relative to their mean: the quadrature and series errors stay far below
# it, and a wrong exponent moves the ratios by more.
RATIO_TOL = 1e-6

# (z, t) points of the adjoint-identity check: a 3 x 3 grid off the
# singular points z, t = 0.
ADJOINT_GRID = [(1.0 + 0.2 * i, 1.1 + 0.2 * j) for i in range(3) for j in range(3)]

# --- qes ---------------------------------------------------------------------

# A characteristic root with |Im E| above this (relative to max(1, |E|)) is
# complex: its real part is no root, so it is not tested as a level.
COMPLEX_ROOT_TOL = 1e-8

# Rows of the energy matrix whose eigenvalues seed the continued-fraction
# search; deep enough that its low eigenvalues sit near the levels.
CF_SEED_ROWS = 80

# char_root's stop for a level of the continued-fraction search.
CF_ROOT_TOL = 1e-10

# A polished root may leave the bracket by this much and still count: the
# secant moves a seed at the bracket's edge by rounding.
BRACKET_SLACK = 1e-9

# Two roots closer than this are one level, reached from two seeds.
LEVEL_DEDUPE = 1e-8

# u at which the two series pieces of a non-terminating eigenfunction meet.
MATCH_U = 0.0

# Regularity is read at u = +-TAIL_U, where a bound state has decayed by
# many orders.
TAIL_U = 10.0

# Regularity: psi at u = +-TAIL_U must be below this fraction of its
# interior maximum.
TAIL_FRAC = 1e-6

# eigenfunction raises MatchFailure when its closing-row residual or its
# derivative mismatch exceeds this (the default of ``mismatch_tol``).
MISMATCH_TOL = 1e-6

# A parity combination whose values at PARITY_PROBE_U are below this
# fraction of the larger of |psi(u)|, |psi(-u)| there is not the
# eigenfunction's parity.  The right parity keeps all of psi (ratio above
# 0.9999 for B in [0.3, 5], s <= 4).  The wrong one is rounding, or, at a
# near-degenerate doublet, the level's error over the splitting: up to
# 2e-5 at B = 0.3, s = 4, where the splitting is 8e-10.
PARITY_PROBE_TOL = 1e-3

# u at which the parity probe compares a combination with psi itself.
PARITY_PROBE_U = (0.4, 0.9, 1.7)

# --- cli ---------------------------------------------------------------------

# Default pass threshold of the rules, integrals and pairs suites (``verify
# --tol``).
VERIFY_TOL = 1e-8

# r1 at (B1, B2, B3, omega, eta) = (2, 2, 5, 1, 0) must return each
# parameter to within this: the rule is exact there up to rounding.
R1_FIXED_POINT_TOL = 1e-14

# The kernels suite's fixed adjoint bound: exact derivatives leave a
# rounding-level defect (~1e-15), far below the fault-injected level
# (~1e-2), so 1e-5 separates the two cleanly.
ADJOINT_BOUND = 1e-5

# whittaker_index_check with the misprinted index must miss by more than
# this, so that the suite tells the corrected index from the misprint.
MISPRINT_BOUND = 1e-3
