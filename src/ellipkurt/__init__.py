"""Kurtosis estimation and inference for high-dimensional elliptical data.

The package estimates the kurtosis parameter of an elliptical model from
fourth-order statistics of pairwise differences, builds asymptotic
confidence intervals for several radius families, and ships a seeded
simulation harness that reproduces the estimation and coverage studies at
desk scale.
"""

from .baselines import oracle_theta, wl_theta
from .errors import (
    CsvParseError,
    DegenerateDataError,
    EllipkurtError,
    InsufficientSampleError,
    InvalidDofError,
    InvalidParameterError,
    MomentDoesNotExistError,
    NotPSDError,
    SchemaError,
    SingularMatrixError,
    UndefinedDofError,
)
from .harness import (
    CSV_HEADER,
    DEFAULT_SEED,
    ExperimentConfig,
    SummaryRow,
    load_config,
    preset_table1_desk,
    preset_table2_desk,
    replication_rng,
    run_experiments,
    summarize_to_csv,
)
from .inference import (
    CiMethod,
    ConfidenceInterval,
    PlugInMoments,
    confidence_interval,
    delta_hat,
    dof_hat,
    plugin_moments_case2,
    sigma2_case1,
    sigma2_case2,
    tau_hat,
    z_quantile,
)
from .linalg import (
    AR1,
    CenteredGram,
    Dense,
    centered_gram,
    sqrt_psd,
    toeplitz_ar1,
    trace_powers,
)
from .models import (
    ChiSquared,
    EllipticalSpec,
    ExpChiProduct,
    FAMILY_NAMES,
    KotzHalf,
    ScaledF,
    XiLaw,
    chi2_moment,
    make_law,
    sample_data,
    sample_sphere,
    sample_xi,
)
from .moments import (
    eta,
    sphere_moment_1,
    sphere_moment_2,
    sphere_moment_3,
    sphere_moment_4,
    var_centered_sq,
    var_quadform,
)
from .ustat import (
    KurtosisEstimate,
    UStats,
    estimate_kurtosis,
    theta_hat,
    ustats_bruteforce,
    ustats_fast,
)

__version__ = "0.1.0"

# The supported API: the names imported above, and only these.
__all__ = [
    "oracle_theta", "wl_theta",
    "CsvParseError", "DegenerateDataError", "EllipkurtError", "InsufficientSampleError",
    "InvalidDofError", "InvalidParameterError", "MomentDoesNotExistError", "NotPSDError",
    "SchemaError", "SingularMatrixError", "UndefinedDofError",
    "CSV_HEADER", "DEFAULT_SEED", "ExperimentConfig", "SummaryRow", "load_config",
    "preset_table1_desk", "preset_table2_desk", "replication_rng", "run_experiments",
    "summarize_to_csv",
    "CiMethod", "ConfidenceInterval", "PlugInMoments", "confidence_interval", "delta_hat",
    "dof_hat", "plugin_moments_case2", "sigma2_case1", "sigma2_case2", "tau_hat", "z_quantile",
    "AR1", "CenteredGram", "Dense", "centered_gram", "sqrt_psd", "toeplitz_ar1", "trace_powers",
    "ChiSquared", "EllipticalSpec", "ExpChiProduct", "FAMILY_NAMES", "KotzHalf", "ScaledF",
    "XiLaw", "chi2_moment", "make_law", "sample_data", "sample_sphere", "sample_xi",
    "eta", "sphere_moment_1", "sphere_moment_2", "sphere_moment_3", "sphere_moment_4",
    "var_centered_sq", "var_quadform",
    "KurtosisEstimate", "UStats", "estimate_kurtosis", "theta_hat", "ustats_bruteforce",
    "ustats_fast",
]
