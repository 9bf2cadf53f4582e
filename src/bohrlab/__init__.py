"""bohrlab: powered Bohr radii on polydisks and l_t balls.

Exact closed-form radii, powered-majorant evaluation, per-family
safeguarded Newton radius solvers, certified lower/witness upper bounds,
scaling-exponent sweeps, and array-native multi-index enumeration.
"""

from .asymptotics import FitResult, SweepRecord, fit_exponent, h2_limit_check, sweep
from .bounds import (
    CertificateInput,
    ball_certificate,
    certified_lower_bound,
    coefficient_bound_check,
    sandwich_check,
    witness_upper_linear_form,
)
from .family import (
    AnalyticTail,
    CoefficientFamily,
    explicit,
    extremal_g,
    h2_norm,
    linear_form,
    moebius,
    normalized_monomial,
    rescale,
)
from .majorant import (
    DomainSpec,
    MajorantValue,
    powered_majorant,
    powered_majorant_ball,
    powered_majorant_polydisk,
)
from .multiindex import (
    count_and_bound,
    enumerate_degree,
    multinomial_identity_residual,
    multinomial_weight,
)
from .radius import (
    PluriharmonicFamily,
    RadiusResult,
    exact_h2_radius,
    h2_defining_residual,
    pluriharmonic_radius,
    solve_bohr_radius,
)

__all__ = [
    "AnalyticTail",
    "CertificateInput",
    "CoefficientFamily",
    "DomainSpec",
    "FitResult",
    "MajorantValue",
    "PluriharmonicFamily",
    "RadiusResult",
    "SweepRecord",
    "ball_certificate",
    "certified_lower_bound",
    "coefficient_bound_check",
    "count_and_bound",
    "enumerate_degree",
    "exact_h2_radius",
    "explicit",
    "extremal_g",
    "fit_exponent",
    "h2_defining_residual",
    "h2_limit_check",
    "h2_norm",
    "linear_form",
    "moebius",
    "multinomial_identity_residual",
    "multinomial_weight",
    "normalized_monomial",
    "pluriharmonic_radius",
    "powered_majorant",
    "powered_majorant_ball",
    "powered_majorant_polydisk",
    "rescale",
    "sandwich_check",
    "solve_bohr_radius",
    "sweep",
    "witness_upper_linear_form",
]
