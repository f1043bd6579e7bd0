"""pastcast: nonparametric next-outcome estimation for stationary series.

Pattern-recurrence estimators of the conditional law of the next outcome
given the observed past, universal sequential models whose Cesàro
averages are divergence-consistent on finite alphabets, online plug-in
predictors built from either, and synthetic stationary sources with
exactly computable conditional laws for validating all of the above.
"""

from .errors import (
    ConfigError,
    InputError,
    InsufficientDataError,
    PastcastError,
    UnsupportedQueryError,
)
from .quantize import Alphabet, IntervalFieldHierarchy, OutcomeSpace
from .recurrence import (
    IncrementalPatternIndex,
    RecurrenceRecord,
    SamplePath,
    avg_inter_recurrence,
    backward_recurrences,
    default_growth_entries,
    forward_recurrences,
    growth_rate_diagnostic,
    kac_diagnostic,
)
from .sources import (
    PRESETS,
    EntropyRateResult,
    HMMSource,
    IIDSource,
    MarkovSource,
    PeriodicSource,
    RyabcoSource,
    build_source,
    get_preset,
)
from .estimators import (
    ConditionalDistribution,
    FiniteAlphabetSchedule,
    RealValuedSchedule,
    estimate_fixed_k,
    estimate_truncated,
    estimate_with_side_info,
    integrate,
    truncated_parameters,
)
from .models import KTMixtureModel, LZ78Model, SequentialModel
from .divergence import (
    cesaro_estimate,
    expected_divergence_curve,
    kl_divergence,
    model_from_code_lengths,
    pinsker_check,
    variational_distance,
)
from .online import (
    LossLedger,
    OnlinePatternEstimator,
    OnlineSideInfoEstimator,
    hamming_loss,
    plug_in_action,
    predict_class,
    predict_regression,
    run_online,
    run_online_side_info,
    squared_loss,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PastcastError",
    "InputError",
    "ConfigError",
    "InsufficientDataError",
    "UnsupportedQueryError",
    # outcome spaces
    "Alphabet",
    "IntervalFieldHierarchy",
    "OutcomeSpace",
    # recurrence machinery
    "SamplePath",
    "RecurrenceRecord",
    "backward_recurrences",
    "forward_recurrences",
    "avg_inter_recurrence",
    "growth_rate_diagnostic",
    "default_growth_entries",
    "kac_diagnostic",
    "IncrementalPatternIndex",
    # sources
    "EntropyRateResult",
    "IIDSource",
    "MarkovSource",
    "PeriodicSource",
    "HMMSource",
    "RyabcoSource",
    "PRESETS",
    "get_preset",
    "build_source",
    # estimators
    "ConditionalDistribution",
    "integrate",
    "FiniteAlphabetSchedule",
    "RealValuedSchedule",
    "estimate_fixed_k",
    "estimate_truncated",
    "estimate_with_side_info",
    "truncated_parameters",
    # sequential models
    "SequentialModel",
    "KTMixtureModel",
    "LZ78Model",
    # divergences
    "kl_divergence",
    "variational_distance",
    "pinsker_check",
    "cesaro_estimate",
    "expected_divergence_curve",
    "model_from_code_lengths",
    # online prediction
    "hamming_loss",
    "squared_loss",
    "plug_in_action",
    "predict_class",
    "predict_regression",
    "OnlinePatternEstimator",
    "OnlineSideInfoEstimator",
    "LossLedger",
    "run_online",
    "run_online_side_info",
]
