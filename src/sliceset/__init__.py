"""Slice-set networks over 3D volumes.

A self-contained deep-learning library (numpy-backed tensors with reverse-mode
differentiation) plus a CLI for training permutation-invariant 2D-slice-set
models on volumetric data: shared per-slice 2D encoders, trainable positional
encodings, mean/attention aggregation, 2D→3D weight transfer, and built-in
verification suites.

Submodules and common names are importable lazily from the package root,
e.g. ``from sliceset import Tensor, SliceSetModel``.
"""

from importlib import import_module

__version__ = "0.1.0"

# name -> defining submodule, resolved on first attribute access (PEP 562).
_EXPORTS = {
    # tensor engine
    "Tensor": "tensor",
    "no_grad": "tensor",
    "stack": "tensor",
    # data
    "Volume": "data",
    "SyntheticSpec": "data",
    "generate_synthetic": "data",
    "generate_synthetic_images": "data",
    "make_splits": "data",
    "normalize": "data",
    "read_manifest": "data",
    "write_manifest": "data",
    "load_manifest_volumes": "data",
    "manifest_task": "data",
    # volume files
    "load_nifti": "nifti",
    "save_nifti": "nifti",
    "NiftiFormatError": "nifti",
    "NiftiUnsupportedError": "nifti",
    # encoders / model
    "EncoderConfig": "encoders",
    "build_encoder": "encoders",
    "AggregatorConfig": "model",
    "ModelConfig": "model",
    "SliceSetModel": "model",
    "build_model": "model",
    "slice_volume": "model",
    "restack_volume": "model",
    "permute_volume": "model",
    "slice_count_for": "model",
    # training
    "OptimizerConfig": "train",
    "TrainConfig": "train",
    "TrainingDivergedError": "train",
    "he_init": "train",
    "train": "train",
    "evaluate": "train",
    "pretrain_2d": "train",
    # metrics
    "EvalReport": "metrics",
    "mae": "metrics",
    "rmse": "metrics",
    "balanced_accuracy": "metrics",
    "f1": "metrics",
    "average_precision": "metrics",
    # weights / transfer
    "WeightArchive": "weights",
    "LoadReport": "weights",
    "export_weights": "weights",
    "import_strict": "weights",
    "import_encoder": "weights",
    # verification suites
    "run_suite": "checks",
}

_SUBMODULES = {"tensor", "nn", "data", "nifti", "encoders", "model", "train",
               "metrics", "weights", "checks", "cli"}

__all__ = sorted(set(_EXPORTS) | _SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
