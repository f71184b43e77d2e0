"""Series solutions, integral relations and spectra for the
double-confluent Heun equation z^2 U'' + (B1 + B2 z) U' +
(B3 - 2 eta omega z + omega^2 z^2) U = 0."""

from .core import (
    DcheParams,
    GaugeMap,
    VarMap,
    apply_rule,
    normal_form,
    reduce_degenerate,
    residual,
    residual_parts,
)
from .errors import (
    BranchError,
    CFBreakdownError,
    ConditionError,
    DcheunError,
    DegenerateError,
    DenominatorError,
    DomainError,
    GenerationError,
    MatchFailure,
    NoConvergence,
    NoRoots,
    NotDegenerate,
    NotQes,
    PoleError,
    QuadratureError,
    SectorWarning,
    TheoremViolation,
)
from .kernels import (
    KernelSpec,
    appendix_closed_form,
    appendix_integral,
    kernel_value,
    r3_companion,
    transform,
    verify_adjoint,
    verify_boundary_terms,
    verify_transform,
    whittaker_index_check,
)
from .qes import (
    QesProblem,
    eigenfunction,
    infinite_spectrum,
    map_radial,
    potential,
    qes_spectrum,
    quasi_polynomial_spectrum,
    regularity_check,
    schrodinger_residual,
)
from .recurrence import (
    ThreeTermCoeffs,
    char_root,
    char_value,
    finite_series_condition,
    generate,
    lentz,
    tridiag_eigen,
)
from .solutions import (
    build_pair_coulomb,
    build_pair_power,
    coulomb_coeffs,
    power_coeffs,
    r3_family,
)
from .specialfn import hyp_u, hyp_u_dz, kummer_transform, laguerre, whittaker_w

__version__ = "0.1.0"
