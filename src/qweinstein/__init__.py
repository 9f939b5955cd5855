"""Numerical q-harmonic analysis on the two-dimensional q-lattice.

The package implements the q-Weinstein transform and its operator
calculus on the lattice {±q^n} x {q^n}, together with the real
Paley-Wiener bandwidth estimator built on iterated-operator norm growth.
"""

from .qcore import (
    DivergenceError,
    LatticePoint,
    PoleError,
    QDomainError,
    QParams,
    TaintError,
    qbracket,
    qfactorial,
    qgamma,
    qshifted,
)
from .qspecial import (
    SeriesValue,
    bessel_j,
    bessel_j_exponent_family,
    qcos,
    qexp,
    qsin,
    sonine_weight,
)
from .qops import (
    EVEN,
    ODD,
    GridFunction,
    LatticeWindow,
    bessel_op,
    dq_1d,
    dq_mixed,
    dq_partial,
    even_odd_split,
    weinstein_op,
)
from .qintegrate import (
    IntegralResult,
    integrate_mu,
    jackson_0_to_a,
    jackson_signed_line,
    lp_norm,
    neumaier_sum,
)
from .transform import (
    IdentityReport,
    Kernel,
    OrthogonalityResult,
    TransformResult,
    auto_lambda_window,
    embed_zeros,
    forward,
    identity_suite,
    inverse,
    kernel_eval,
    normalization_K,
    orthogonality_check,
)
from .paleywiener import (
    BandwidthReport,
    PWmParams,
    bandwidth_estimate,
    radial_power_bound_check,
    monomial_derivative_bound_check,
    norm_growth_sequence,
    pw_m_sup,
    sonine_identity_check,
    support_radius,
    weinstein_sup_bound_check,
)

__version__ = "0.1.0"
