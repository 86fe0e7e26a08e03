"""Power sums of zeros of genus-0 entire functions, exact and
arbitrary-precision, with bounded Hausdorff-type positivity certificates.

Quick tour:

>>> from fractions import Fraction
>>> from posroot import sinc_coeffs, power_sums_from_elementary
>>> p = power_sums_from_elementary(sinc_coeffs(3), 3)
>>> str(p[1]), str(p[2])            # zeta(2)/pi^2, zeta(4)/pi^4 as elements of Q(t)
('1/6*t', '1/90*t^2')

See the demos directory for end-to-end walkthroughs of each capability.
"""

from .scalars import (
    BigFloat,
    Polynomial,
    Rational,
    RationalFunction,
    SignVerdict,
    Verdict,
    sign_decide,
    DEFAULT_PRECISION_BITS,
)
from .symfun import (
    ElementarySequence,
    Partition,
    PowerSumSequence,
    elementary_from_power_sums,
    enumerate_partitions,
    power_sums_closed_form,
    power_sums_from_elementary,
)
from .series import (
    TruncatedSeries,
    elementary_from_series,
    even_sqrt_reduce,
    log_derivative_series,
    power_sums_from_log_derivative,
    series_from_elementary,
    taylor_shift,
)
from .hausdorff import (
    DifferenceTable,
    derivative_form_cells,
    derivative_form_coefficient,
    difference_table,
    moment_criterion,
)
from .characters import DirichletCharacter, kronecker_character, kronecker_symbol
from .catalog import (
    FunctionKind,
    FunctionSpec,
    GridConfig,
    MomentResult,
    airy_coeffs,
    besselk_moments,
    bessel_coeffs,
    dirichlet_moments,
    dirichlet_phi,
    elementary_from_moments,
    phi_nonneg_scan,
    qbessel_coeffs,
    ramanujan_aq_coeffs,
    riemann_moments,
    riemann_phi,
    sinc_coeffs,
)
from .zeros import (
    ZeroTable,
    bessel_zeros,
    load_zero_table,
    packaged_riemann_table,
    partial_power_sum_with_tail,
)
from .criterion import (
    AdversarialSpec,
    CertificateReport,
    Defect,
    LambdaPolicy,
    RhoPolicy,
    adversarial_run,
    b_closed_form_power_sum,
    b_recurrence_power_sums,
    certify_derivative,
    certify_moment,
    certify_shifted_even,
    draw_adversarial_spec,
    explicit_p_formulas,
    power_sums_from_moment_list,
)

__version__ = "0.1.0"
