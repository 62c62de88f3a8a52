"""Sample-selection intercept estimation via rank-transformed local linear
smoothing, plus baseline estimators, simulation designs, a deterministic
Monte Carlo harness, and a two-group decomposition with bootstrap SEs."""

from .baselines import (
    TailRule,
    as98_intercept,
    h90_intercept,
    heckman_two_step,
    ols_selected,
    probit_mle,
    smooth_tail_weight,
)
from .data import Dataset
from .decompose import (
    BootstrapSummary,
    DecompositionConfig,
    DecompositionReport,
    bootstrap_se,
    decompose,
)
from .dgp import DgpSpec, LatentDraw, identification_ratio, simulate, true_gamma
from .estimator import (
    BANDWIDTH_CLAMP,
    BandwidthRule,
    InterceptEstimate,
    residualized_outcome,
    snn_intercept,
    undersmoothing_bandwidth,
)
from .exceptions import DataError, EstimationError, SnnSelectError
from .io_csv import CsvSchema, default_schema, load_csv, save_dataset_csv
from .montecarlo import (
    CellStats,
    MonteCarloReport,
    RateCheckResult,
    TablePlan,
    rate_check,
    run_cell,
    run_table,
)
from .numerics import (
    eval_kernel,
    inverse_mills,
    kernel_l2,
    kernel_moment,
    normal_pdf,
)
from .nuisance import (
    NuisanceEstimates,
    fit_nuisance,
    klein_spady_gamma,
    klein_spady_objective,
    probit_gamma,
    robinson_beta,
    silverman_bandwidth,
)
from .ranks import eta_hat
from .registry import EstimatorConfig
from .seeding import derive_seed

__version__ = "0.1.0"
