"""Divergence-gated retrieval with attention-difference knowledge filtering
and shared/private mixed-attention fusion on a small from-scratch transformer."""

from . import (
    autodiff,
    dataset,
    detector,
    divergence,
    errors,
    filtering,
    fixtures,
    fusion,
    model,
    pipeline,
    synth,
    tensorstore,
    training,
)
from .detector import DetectionVerdict, detect, divergence_profile, make_variant
from .filtering import (
    FilterProfile,
    classify_layers,
    compute_filter_profile,
    energy_quotient,
    entropy_gate,
    filter_knowledge,
    pruning_sweep,
)
from .fusion import DsspParams, KnowledgeStream, dssp_forward, make_dssp_hook
from .model import TinyTransformer, forward, generate, infer, layer_distributions
from .pipeline import PipelineTrace, RunConfig, evaluate, load_bundle, pipeline_run
from .training import Hyperparams, TrainExample, grid_search, train

__version__ = "0.1.0"

__all__ = [
    "autodiff", "dataset", "detector", "divergence", "errors",
    "filtering", "fixtures", "fusion", "model", "pipeline", "synth",
    "tensorstore", "training",
    "DetectionVerdict", "detect", "divergence_profile", "make_variant",
    "FilterProfile", "classify_layers", "compute_filter_profile",
    "energy_quotient", "entropy_gate", "filter_knowledge", "pruning_sweep",
    "DsspParams", "KnowledgeStream", "dssp_forward", "make_dssp_hook",
    "TinyTransformer", "forward", "generate", "infer", "layer_distributions",
    "PipelineTrace", "RunConfig", "evaluate", "load_bundle", "pipeline_run",
    "Hyperparams", "TrainExample", "grid_search", "train",
    "__version__",
]
