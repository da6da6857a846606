"""Sandwich bounds for log-evidence from paired Monte Carlo samples."""

__version__ = "0.1.0"

from .accumulate import EXP_SATURATION, log_mean_exp, logsumexp
from .bounds import (
    BoundReport,
    optimal_h_check,
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
from .samples import PairedSamples, paired_from_halves
from .sweep import (
    CPolicy,
    SweepConfig,
    SweepResult,
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
    save_cnet,
    save_model,
    train,
    train_cnet,
)

__all__ = [
    "AnalyticDist", "BoundReport", "CNet", "CPolicy", "Constant", "EvalRecord",
    "EvalResult", "EXP_SATURATION", "Gamma", "Laplace", "LogNormal",
    "Objective", "PairedSamples", "SweepConfig", "SweepResult", "ToyVae",
    "UniformPos", "evaluate", "k_averaged_law", "laplace_loglik",
    "load_cnet", "load_model", "log_mean_exp", "logsumexp",
    "optimal_h_check", "paired_from_halves", "parse_dist", "run_sweep",
    "sample", "sandwich", "save_cnet", "save_model", "tangent_family_g",
    "train", "train_cnet", "write_sweep_csv",
]
