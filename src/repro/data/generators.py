"""Synthetic stand-ins for the paper's 16 real-world datasets (§IV-A1).

The originals (NEON sensor feeds, INFORE stock ticks, a 12-lead ECG corpus,
Geolife GPS traces, Meteoblue history, InfluxDB samples) are not available
offline and span up to 477M points, far beyond pure-Python scale.  Each
generator below reproduces the *statistical character* that drives
compressor behaviour on its namesake:

* trend shape (smooth cycles, random walks, bursts, plateaus),
* noise level and spikes,
* the number of fractional decimal digits (which fixes the int64 scaling and
  dominates the low-bit entropy — e.g. Basel-temp's 9 digits are why every
  compressor does poorly on BT in Table III).

All generators are deterministic (seeded per dataset) and return values
already scaled to int64, exactly like the paper's preprocessing ("multiply by
``10^x`` where ``x`` is the number of fractional digits").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DatasetInfo", "DATASETS", "load", "dataset_names"]


@dataclass(frozen=True)
class DatasetInfo:
    """Metadata for one synthetic dataset."""

    name: str  # the paper's two-letter code
    full_name: str
    digits: int  # fractional decimal digits of the original data
    default_n: int  # default length at reproduction scale
    description: str
    generator: Callable[[np.random.Generator, int], np.ndarray]

    @property
    def seed(self) -> int:
        """The dataset's default seed, derived from its code."""
        return int.from_bytes(self.name.encode(), "little") % (2**32)

    def generate(self, n: int | None = None, seed: int | None = None) -> np.ndarray:
        """Generate ``n`` int64 values (uses per-dataset defaults)."""
        n = n or self.default_n
        rng = np.random.default_rng(self.seed if seed is None else seed)
        raw = self.generator(rng, n)
        return np.round(raw * 10.0**self.digits).astype(np.int64)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _ar1(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    """An AR(1) process — the workhorse of slowly varying sensor noise."""
    noise = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = rho * acc + noise[i]
        out[i] = acc
    return out


def _daily_cycle(n: int, period: float, amplitude: float, phase: float = 0.0):
    t = np.arange(n)
    return amplitude * np.sin(2 * np.pi * t / period + phase)


def _random_walk(rng, n, sigma, drift=0.0):
    return np.cumsum(rng.normal(drift, sigma, n))


def _geometric_walk(rng, n, start, vol, drift=0.0):
    log_p = np.log(start) + np.cumsum(rng.normal(drift, vol, n))
    return np.exp(log_p)


def _nonlinear_regimes(
    rng: np.random.Generator,
    n: int,
    level: float,
    swing: float,
    seg_lo: int = 150,
    seg_hi: int = 900,
    noise: float = 0.0,
) -> np.ndarray:
    """Piecewise *nonlinear* dynamics — the regularity NeaTS exploits.

    Real sensor series alternate regimes whose trends follow physical laws:
    exponential relaxation toward an equilibrium (Newton cooling, RC
    charging), quadratic arcs (ballistics, acceleration ramps), square-root
    ramps (diffusion fronts), and plain linear drifts.  Each segment draws a
    regime at random and evolves continuously from the previous endpoint.
    """
    out = np.empty(n)
    value = level
    pos = 0
    while pos < n:
        seg = min(int(rng.integers(seg_lo, seg_hi)), n - pos)
        t = np.arange(seg, dtype=np.float64)
        kind = rng.choice(("exp", "quad", "sqrt", "linear"))
        target = level + rng.normal(0.0, swing)
        if kind == "exp":
            tau = rng.uniform(seg / 6, seg / 2)
            curve = target + (value - target) * np.exp(-t / tau)
        elif kind == "quad":
            a = (target - value) / max(seg - 1, 1) ** 2
            curve = value + a * t * t
        elif kind == "sqrt":
            b = (target - value) / np.sqrt(max(seg - 1, 1))
            curve = value + b * np.sqrt(t)
        else:
            slope = (target - value) / max(seg - 1, 1)
            curve = value + slope * t
        out[pos : pos + seg] = curve
        value = curve[-1]
        pos += seg
    if noise:
        out = out + rng.normal(0.0, noise, n)
    return out


# ---------------------------------------------------------------------------
# the sixteen datasets
# ---------------------------------------------------------------------------


def _ir_bio_temp(rng, n):
    """IT: infrared biological temperature — thermal relaxation regimes.

    Surface temperatures follow Newton-cooling exponentials toward a diurnal
    equilibrium: piecewise nonlinear dynamics plus small sensor noise.
    """
    base = _nonlinear_regimes(rng, n, 18.0, 6.0, 200, 1200, noise=0.03)
    return base + _daily_cycle(n, 1440, 2.0)


def _stocks(rng, n, start, swing, noise):
    """Log-price momentum regimes: exponential trends in price space.

    Prices trend in phases (momentum / mean reversion); a piecewise-smooth
    log-price makes the price itself piecewise exponential — exactly the
    nonlinearity NeaTS's exponential kind captures and PLA must chop up.
    """
    log_p = _nonlinear_regimes(
        rng, n, np.log(start), swing, 150, 1000, noise=noise
    )
    return np.exp(log_p)


def _stocks_usa(rng, n):
    """US: US stock prices — momentum regimes, cents precision."""
    return _stocks(rng, n, 150.0, 0.04, 0.0006)


def _stocks_uk(rng, n):
    """UK: UK stock prices — higher volatility momentum regimes."""
    return _stocks(rng, n, 80.0, 0.05, 0.0007)


def _stocks_de(rng, n):
    """GE: German stock prices — momentum regimes, 3-digit precision."""
    return _stocks(rng, n, 60.0, 0.045, 0.0008)


def _ecg(rng, n):
    """ECG: a synthetic PQRST waveform with beat-to-beat variability."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        beat_len = int(rng.normal(180, 10))
        beat_len = max(beat_len, 120)
        t = np.linspace(0, 1, beat_len)
        # P wave, QRS complex, T wave as localised Gaussians.
        beat = (
            0.12 * np.exp(-(((t - 0.18) / 0.025) ** 2))
            - 0.18 * np.exp(-(((t - 0.37) / 0.010) ** 2))
            + 1.10 * np.exp(-(((t - 0.40) / 0.008) ** 2))
            - 0.25 * np.exp(-(((t - 0.43) / 0.012) ** 2))
            + 0.28 * np.exp(-(((t - 0.62) / 0.040) ** 2))
        )
        amp = rng.normal(1.0, 0.05)
        end = min(pos + beat_len, n)
        out[pos:end] = amp * beat[: end - pos]
        pos = end
    wander = _ar1(rng, n, 0.999, 0.002)
    return out + wander + rng.normal(0, 0.004, n)


def _wind_direction(rng, n):
    """WD: wind direction in degrees — veering/backing regimes on [0, 360)."""
    swings = _nonlinear_regimes(rng, n, 0.0, 60.0, 100, 600, noise=1.5)
    return np.mod(180.0 + swings, 360.0)


def _air_pressure(rng, n):
    """AP: barometric pressure — smooth nonlinear weather fronts, 5 digits."""
    base = _nonlinear_regimes(rng, n, 1013.25, 6.0, 400, 2000, noise=0.005)
    return base + _daily_cycle(n, 2880, 1.5)


def _geolife_lat(rng, n):
    """LAT: GPS latitude — piecewise movement with stationary plateaus."""
    return _trajectory(rng, n, 39.90, 0.00008)


def _geolife_lon(rng, n):
    """LON: GPS longitude — same trajectory structure around Beijing."""
    return _trajectory(rng, n, 116.40, 0.00010)


def _trajectory(rng, n, start, step):
    out = np.empty(n)
    pos = 0
    value = start
    while pos < n:
        seg = int(rng.integers(50, 400))
        seg = min(seg, n - pos)
        if rng.random() < 0.35:  # stationary (user stopped)
            out[pos : pos + seg] = value + rng.normal(0, step / 10, seg)
        else:  # moving with roughly constant velocity
            v = rng.normal(0, step)
            out[pos : pos + seg] = value + v * np.arange(seg)
            value += v * (seg - 1)
        pos += seg
    return out


def _dewpoint(rng, n):
    """DP: dew point temperature — weather-front relaxation dynamics."""
    base = _nonlinear_regimes(rng, n, 8.0, 4.0, 150, 900, noise=0.02)
    return base + _daily_cycle(n, 1440, 1.0)


def _city_temp(rng, n):
    """CT: city temperatures — seasonal cycles concatenated across cities."""
    out = np.empty(n)
    pos = 0
    while pos < n:
        seg = min(int(rng.integers(300, 800)), n - pos)
        mean = rng.uniform(-5, 30)
        t = np.arange(seg)
        out[pos : pos + seg] = (
            mean
            + 10 * np.sin(2 * np.pi * t / 365 + rng.uniform(0, 6.28))
            + rng.normal(0, 0.8, seg)
        )
        pos += seg
    return out


def _pm10(rng, n):
    """DU: PM10 dust — bursts followed by exponential washout decay."""
    out = np.full(n, 12.0)
    level = 12.0
    for i in range(1, n):
        if rng.random() < 0.004:
            level += float(rng.lognormal(3.2, 0.8))
        level = 12.0 + (level - 12.0) * 0.985  # exponential deposition
        out[i] = level
    return out + rng.normal(0, 0.05, n)


def _basel_temp(rng, n):
    """BT: Basel temperature with 9 (!) fractional digits — noisy low bits."""
    base = 11.0 + _daily_cycle(n, 24, 6.0) + _daily_cycle(n, 24 * 365, 9.0)
    return base + _ar1(rng, n, 0.9, 0.3) + rng.normal(0, 1e-4, n)


def _basel_wind(rng, n):
    """BW: Basel wind speed, 7 digits — gusty, heavy low-bit entropy."""
    speed = np.abs(_ar1(rng, n, 0.97, 0.8)) + 2.0
    return speed + rng.normal(0, 1e-3, n)


def _bird_migration(rng, n):
    """BM: bird positions — nonlinear soaring arcs over a long-range drift."""
    t = np.arange(n)
    arcs = _nonlinear_regimes(rng, n, 45.0, 0.3, 80, 400, noise=0.0005)
    return arcs + 0.0008 * t


def _bitcoin(rng, n):
    """BP: Bitcoin price — bubbly momentum regimes with jumps."""
    log_p = _nonlinear_regimes(rng, n, np.log(9000.0), 0.25, 80, 500,
                               noise=0.004)
    jumps = np.cumsum((rng.random(n) < 0.004) * rng.normal(0, 0.05, n))
    return np.exp(log_p + jumps)


DATASETS: dict[str, DatasetInfo] = {
    info.name: info
    for info in [
        DatasetInfo("IT", "IR-bio-temp", 2, 40_000,
                    "infrared biological temperature (NEON)", _ir_bio_temp),
        DatasetInfo("US", "Stocks-USA", 2, 40_000,
                    "US stock exchange prices (INFORE)", _stocks_usa),
        DatasetInfo("ECG", "Electrocardiogram", 3, 40_000,
                    "12-lead arrhythmia ECG signals", _ecg),
        DatasetInfo("WD", "Wind-direction", 2, 40_000,
                    "2D wind direction (NEON)", _wind_direction),
        DatasetInfo("AP", "Air-pressure", 5, 30_000,
                    "barometric pressure (NEON)", _air_pressure),
        DatasetInfo("UK", "Stocks-UK", 1, 30_000,
                    "UK stock exchange prices (INFORE)", _stocks_uk),
        DatasetInfo("GE", "Stocks-DE", 3, 30_000,
                    "German stock exchange prices (INFORE)", _stocks_de),
        DatasetInfo("LAT", "Geolife-latitude", 4, 25_000,
                    "GPS latitudes of user trajectories (Geolife)", _geolife_lat),
        DatasetInfo("LON", "Geolife-longitude", 4, 25_000,
                    "GPS longitudes of user trajectories (Geolife)", _geolife_lon),
        DatasetInfo("DP", "Dewpoint-temp", 3, 20_000,
                    "relative dew point temperature (NEON)", _dewpoint),
        DatasetInfo("CT", "City-temp", 1, 20_000,
                    "daily temperatures of world cities", _city_temp),
        DatasetInfo("DU", "PM10-dust", 3, 15_000,
                    "PM10 particulate measurements (NEON)", _pm10),
        DatasetInfo("BT", "Basel-temp", 9, 10_000,
                    "Basel temperature, 9 fractional digits (Meteoblue)", _basel_temp),
        DatasetInfo("BW", "Basel-wind", 7, 10_000,
                    "Basel wind speed, 7 fractional digits (Meteoblue)", _basel_wind),
        DatasetInfo("BM", "Bird-migration", 5, 10_000,
                    "bird migration positions (InfluxDB sample)", _bird_migration),
        DatasetInfo("BP", "Bitcoin-price", 4, 7_000,
                    "Bitcoin/USD exchange rate (InfluxDB sample)", _bitcoin),
    ]
}


def dataset_names() -> list[str]:
    """The paper's dataset codes, largest first (Table III order)."""
    return list(DATASETS)


def load(name: str, n: int | None = None, seed: int | None = None) -> np.ndarray:
    """Generate the named dataset at reproduction scale.

    Parameters
    ----------
    name:
        One of the paper's dataset codes (see :func:`dataset_names`).
    n:
        Override the default length.
    seed:
        Override the deterministic per-dataset seed.
    """
    try:
        info = DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; known: {', '.join(DATASETS)}"
        ) from None
    return info.generate(n, seed)
