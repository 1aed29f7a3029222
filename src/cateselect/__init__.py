"""Ground-truth-free selection of the best CATE estimator from a candidate set.

The package namespace holds what the README's examples and studies use;
everything else (the nuisance fit, the score tensor and its moments, the
report types) lives in its module.
"""

from .datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    NEAR_TIED_SPECS,
    CandidateSet,
    Dataset,
    NoiseSpec,
    generate_toy,
    ingest_dataset,
    ingest_predictions,
    make_candidates,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    clt_diagnostic,
    load_experiment_config,
    run_experiment,
    stability_diagnostic,
    sweep,
)
from .nuisance import Nuisances
from .selectors import (
    SelectorConfig,
    prepare,
    select,
    single_layer_split,
    two_way_split,
)

__version__ = "0.1.0"

__all__ = [
    "COMPETITIVE_PLUS_INFERIOR_SPECS",
    "NEAR_TIED_SPECS",
    "CandidateSet",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "NoiseSpec",
    "Nuisances",
    "SelectorConfig",
    "clt_diagnostic",
    "generate_toy",
    "ingest_dataset",
    "ingest_predictions",
    "load_experiment_config",
    "make_candidates",
    "prepare",
    "run_experiment",
    "select",
    "single_layer_split",
    "stability_diagnostic",
    "sweep",
    "two_way_split",
]
