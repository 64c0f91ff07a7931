"""Smoothed quasi-Monte Carlo pricing.

Scrambled Sobol' integration combined with two variance-reduction
layers: an orthogonal rotation of the normal shocks that concentrates
the payoff's linear part on the first coordinate, and a push-out map
that removes the payoff discontinuity along that coordinate.
"""

from .effdim import DimensionReport, dimension_report
from .errors import (
    ConfigError,
    DegenerateWeightError,
    DimensionTableError,
    DistributionBuildError,
    NoEsscherRootError,
    NumericalError,
)
from .estimators import (
    METHODS,
    EstimatorReport,
    analysis_integrand,
    method_integrand,
    method_transform,
    run,
    vrf_table,
    weight_matrix,
)
from .models import (
    BlackScholesSpec,
    BuildResiduals,
    HestonSpec,
    IncrementLaw,
    ModelSpec,
    NigSpec,
    esscher_theta,
    increment_law_for,
    nig_density,
    nig_numerical_law,
    nominal_dim,
    paths_exp_levy,
    paths_heston,
)
from .payoffs import (
    PayoffSpec,
    SeparableProblem,
    build_separable,
    gamma_average,
    gamma_component,
    gamma_extreme,
    heston_gamma_average,
    heston_gamma_extreme,
    payoff_value,
)
from .points import (
    PointSet,
    ScrambleSeed,
    SobolSource,
    pseudo_uniform,
    scramble,
    scrambled_sobol,
    sobol_raw,
)
from .smoothing import (
    VarianceBoundReport,
    evaluate_indicator,
    evaluate_smoothed,
    variance_bound_check,
    vpo_map,
)
from .transforms import (
    OrthogonalTransform,
    apply_transform,
    identity_transform,
    mqr_transform,
    qr_transform,
    taylor_weight,
)

__version__ = "0.1.0"
