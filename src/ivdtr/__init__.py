"""Learning, improving, and evaluating multi-stage treatment regimes with a
time-varying binary instrumental variable via partial-identification bounds."""

from .bounds import Interval, RewardBounds, WeightSpec, mp_interval, psi, weighted_q
from .data import (
    BatchAssignment,
    DataError,
    Dataset,
    assign_batches,
    load_csv,
    save_csv,
)
from .dtr_core import (
    ConstantRule,
    Dtr,
    SignOfContrast,
    StageQEstimate,
    TreeRule,
    backward_induct,
    constant_dtr,
    dtr_from_json,
    dtr_to_json,
    evaluate_policy_stage,
    fit_weighted_tree,
    project_policy,
    pseudo_outcomes,
)
from .improve import fit_ivimproved, improve_rule_single, relative_stage_estimates
from .crossfit import CrossfitContrasts, crossfit_stage_contrasts, fit_ivoptimal_crossfit
from .nuisance import (
    LinearModel,
    LogisticModel,
    NuisanceSet,
    NumericalError,
    fit_linear,
    fit_logistic,
    fit_stage_nuisance,
    predict_prob,
)
from .sim import EvalReport, SimConfig, fit_sra_baseline, generate, run_cell, true_value

__all__ = [name for name in dir() if not name.startswith("_")]
