"""CSV round-trip helpers for time series datasets.

The paper's datasets ship as textual fixed-precision values; these utilities
reproduce that interchange format (one decimal value per line) together with
the scaling convention of §II ("multiply by ``10^x`` where ``x`` is the
number of fractional digits").
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "scale_to_int",
    "unscale_to_float",
    "write_csv",
    "read_csv",
]


def scale_to_int(values: np.ndarray, digits: int) -> np.ndarray:
    """Fixed-precision decimals -> int64 (the paper's preprocessing)."""
    return np.round(np.asarray(values, dtype=np.float64) * 10.0**digits).astype(
        np.int64
    )


def unscale_to_float(values: np.ndarray, digits: int) -> np.ndarray:
    """int64 -> decimals (inverse of :func:`scale_to_int`)."""
    return np.asarray(values, dtype=np.float64) / 10.0**digits


def write_csv(path: str | Path, values: np.ndarray, digits: int) -> None:
    """Write int64 values as fixed-precision decimal text, one per line."""
    path = Path(path)
    floats = unscale_to_float(values, digits)
    with path.open("w") as fh:
        for v in floats:
            fh.write(f"{v:.{digits}f}\n")


def read_csv(path: str | Path, digits: int) -> np.ndarray:
    """Read fixed-precision decimal text into int64 values."""
    path = Path(path)
    with path.open() as fh:
        floats = [float(line) for line in fh if line.strip()]
    return scale_to_int(np.array(floats), digits)

