"""Sandwich bounds for log-evidence from paired Monte Carlo samples."""

__version__ = "0.1.0"

from .accumulate import EXP_SATURATION, log_mean_exp, logsumexp
from .bounds import (
    BoundReport,
    Estimate,
    gap_upper_first_order,
    improved_upper,
    jensen_lower,
    log_ratio_mean,
    midpoint_evidence,
    optimal_c,
    optimal_h_check,
    optimal_upper,
    sandwich,
    tangent_family_g,
)
from .distributions import (
    AnalyticDist,
    Constant,
    Gamma,
    Laplace,
    LogNormal,
    UniformPos,
    k_averaged_law,
    laplace_loglik,
    parse_dist,
    sample,
)
from .samples import PairedSamples, k_sample_pairs, paired_from_halves
from .sweep import (
    CPolicy,
    SampleSource,
    SweepConfig,
    SweepResult,
    dist_source,
    run_sweep,
    write_sweep_csv,
)
from .vae import (
    CNet,
    EvalRecord,
    EvalResult,
    Objective,
    ToyVae,
    evaluate,
    load_cnet,
    load_model,
    log_r,
    save_cnet,
    save_model,
    train,
    train_cnet,
)

__all__ = [
    "AnalyticDist", "BoundReport", "CNet", "CPolicy", "Constant", "Estimate",
    "EvalRecord", "EvalResult", "EXP_SATURATION", "Gamma", "Laplace",
    "LogNormal", "Objective", "PairedSamples", "SampleSource",
    "SweepConfig", "SweepResult", "ToyVae", "UniformPos",
    "dist_source", "evaluate", "gap_upper_first_order",
    "improved_upper", "jensen_lower", "k_averaged_law",
    "k_sample_pairs", "laplace_loglik", "load_cnet", "load_model",
    "log_mean_exp", "log_r", "log_ratio_mean", "logsumexp",
    "midpoint_evidence", "optimal_c", "optimal_h_check", "optimal_upper",
    "paired_from_halves", "parse_dist", "run_sweep", "sample", "sandwich",
    "save_cnet", "save_model", "tangent_family_g", "train", "train_cnet",
    "write_sweep_csv",
]
