"""Dataset generators and I/O for the 16 evaluation time series."""

from .generators import DATASETS, DatasetInfo, dataset_names, load
from .io_utils import read_csv, scale_to_int, unscale_to_float, write_csv

__all__ = [
    "DATASETS",
    "DatasetInfo",
    "dataset_names",
    "load",
    "scale_to_int",
    "unscale_to_float",
    "write_csv",
    "read_csv",
]
