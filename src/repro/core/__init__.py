"""The paper's primary contribution: NeaTS and its algorithmic components."""

from .compressor import CompressedSeries, NeaTS, default_eps_set
from .convex import RangeLineFitter
from .lossy import LossySeries, NeaTSLossy
from .models import (
    ALL_MODELS,
    DEFAULT_MODELS,
    MODEL_REGISTRY,
    FragmentFit,
    Model,
    get_model,
    make_approximation,
)
from .partition import Fragment, PartitionResult, correction_bits, partition, partition_lossy
from .piecewise import mape, max_abs_error, piecewise_approximation
from .storage import NeaTSStorage
from .tiered import TieredStore

__all__ = [
    "NeaTS",
    "TieredStore",
    "CompressedSeries",
    "NeaTSLossy",
    "LossySeries",
    "NeaTSStorage",
    "RangeLineFitter",
    "Model",
    "FragmentFit",
    "Fragment",
    "PartitionResult",
    "MODEL_REGISTRY",
    "DEFAULT_MODELS",
    "ALL_MODELS",
    "get_model",
    "make_approximation",
    "partition",
    "partition_lossy",
    "correction_bits",
    "piecewise_approximation",
    "mape",
    "max_abs_error",
    "default_eps_set",
]
