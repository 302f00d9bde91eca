"""Learning, improving, and evaluating multi-stage treatment regimes with a
time-varying binary instrumental variable via partial-identification bounds."""

from .bounds import Interval, RewardBounds, WeightSpec, mp_bounds_matrix, weighted_q
from .data import (
    DataError,
    Dataset,
    assign_batches,
    load_csv,
    save_csv,
)
from .dtr_core import (
    Dtr,
    StageQEstimate,
    TreeRule,
    backward_induct,
    constant_dtr,
    dtr_from_json,
    dtr_to_json,
    fit_weighted_tree,
)
from .improve import fit_ivimproved, relative_stage_estimates
from .crossfit import crossfit_stage_contrasts, fit_ivoptimal_crossfit
from .nuisance import (
    LinearModel,
    LogisticModel,
    NuisanceSet,
    NumericalError,
    StageModels,
    fit_linear,
    fit_logistic,
    fit_stage_models,
    fit_stage_nuisance,
)
from .sim import EvalReport, SimConfig, fit_sra_baseline, generate, run_cell, true_value

__all__ = [name for name in dir() if not name.startswith("_")]
