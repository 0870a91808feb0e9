"""spapprox: approximation-theory quantities of discrete (coefficient-space)
metrics, cross-checked against independent brute-force oracles.

The library models finite trigonometric sums by their coefficient maps and
computes: norms, partial-sum/best/greedy approximations, characteristic
sequences and decreasing rearrangements of multiplier systems, closed-form
class-level best approximations / widths / n-term quantities, generalized and
averaged moduli of smoothness, sharp direct-inequality (Jackson-type)
constants with sharpness witnesses, inverse-theorem bounds with constructive
class-membership verdicts, and the verification oracles for all of the above.
"""

from .classes import (
    ClassSpec,
    IdentityConvention,
    class_best_approx,
    class_sigma,
    class_widths,
    direct_identity_check,
    inverse_identity_check,
    kolmogorov_ladder,
    order_estimate_check,
    pin_convention,
)
from .errors import (
    BudgetError,
    CertificationError,
    ConvergenceError,
    DegenerateWeightError,
    InputDomainError,
    ParseError,
    PreconditionError,
    SpapproxError,
)
from .inverse import (
    Majorant,
    abel_sum_identity,
    bari_check,
    class_membership_homega,
    inverse_bound_alpha,
    inverse_bound_general,
    sharpness_single_frequency,
)
from .jackson import (
    JacksonSetup,
    chernykh_constants,
    jackson_I,
    jackson_bound,
    jackson_constant,
    jackson_sharpness_witness,
    kappa,
    sigma_series,
    sine_moment,
)
from .ladder import FrequencyLadder
from .moduli import (
    PhiFunction,
    WeightMeasure,
    apply_difference,
    apply_steklov_difference,
    averaged_omega,
    difference_multiplier,
    omega_phi,
    phi_alpha,
    phi_custom,
    phi_steklov,
    phi_theta,
    steklov_multiplier,
    stieltjes,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from .psi import (
    AxisGeom,
    AxisPow,
    CharSeq,
    ExplicitSeqPsi,
    ExplicitTablePsi,
    PhasedPsi,
    ProductPsi,
    PsiSystem,
    RadialPsi,
    build_charseq,
    psi_derivative,
    psi_integral,
    rearrangement,
    tail_sum,
)
from .reports import ExtremalReport, reports_to_csv, reports_to_json
from .spectrum import (
    DifferenceScheme,
    GreedyResult,
    Spectrum,
    best_tail_approx,
    greedy_select,
    ladder_tail_norm,
    load_spectrum,
    partial_sum,
    save_spectrum,
    sp_norm,
    spectrum_from_json_dict,
    spectrum_to_json_dict,
)

__version__ = "0.1.0"
