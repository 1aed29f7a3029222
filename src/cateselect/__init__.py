"""Ground-truth-free selection of the best CATE estimator from a candidate set.

The package namespace holds what the README's examples and studies use, among
them the study runners of ``harness`` and the toy studies of ``diagnostics``;
the rest lives in its module. Each name is imported from its module on first
use, so ``import cateselect`` loads no numpy: the command-line entry
(``__main__.entry``) must choose the BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it, in __all__'s order
_MODULE_OF = {
    "COMPETITIVE_PLUS_INFERIOR_SPECS": "datagen",
    "NEAR_TIED_SPECS": "datagen",
    "CandidateSet": "datagen",
    "ConfigError": "harness",
    "Dataset": "datagen",
    "ExperimentConfig": "harness",
    "NoiseSpec": "datagen",
    "Nuisances": "datagen",
    "SelectorConfig": "selectors",
    "clt_diagnostic": "diagnostics",
    "generate_toy": "datagen",
    "ingest_dataset": "datagen",
    "ingest_predictions": "datagen",
    "load_experiment_config": "harness",
    "make_candidates": "datagen",
    "prepare": "selectors",
    "run_experiment": "harness",
    "select": "selectors",
    "single_layer_split": "selectors",
    "stability_diagnostic": "diagnostics",
    "sweep": "harness",
    "two_way_split": "selectors",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
