"""Desk-scale laboratory for sparse semantic trading signals."""

__version__ = "0.1.0"

from .errors import LabError
from .panels import (
    FeaturePanel,
    INDICATORS_ALL,
    MarketPanel,
    TurbulenceSeries,
    compute_indicators,
    compute_turbulence,
    forward_returns,
    load_price_panel,
)
from .signals import (
    AXES,
    ArticleTable,
    CoverageReport,
    NEUTRAL,
    SignalPanel,
    aggregate_signals,
    coverage_stats,
    mask_axes,
    pca_effective_dim,
)
from .synth import PlantedTruth, SyntheticSpec, synth_panel
from .factors import (
    CompositeScore,
    FactorModel,
    ResidualModel,
    composite,
    fit_equal_weight_composite,
    fit_forecaster,
    fit_pc1_composite,
    fit_ridge,
    fit_sfp,
    fit_srf,
    scw_weights,
    select_temperature,
)
from .backtest import (
    BacktestConfig,
    EquityCurve,
    backtest_topk,
    baseline,
    subperiod_report,
)
from .env import (
    EnvConfig,
    EnvState,
    TradingEnv,
    builtin_policies,
    drawdown_penalty,
    run_policy,
    step_reward,
)
from .metrics import MetricsReport, annualized_return, calmar_ratio, metrics
from .stats import (
    TestResult,
    block_bootstrap_ci,
    lag1_autocorr,
    mann_whitney_u,
    seed_summary,
    spearman_ic,
    wilcoxon_signed_rank,
)
from .experiments import ExperimentConfig, run, validate_inputs
