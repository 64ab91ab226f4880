"""Function models for nonlinear ε-approximation (Table I of the paper).

Each model kind knows how to

1. *transform* a data point ``(x, z)`` and an error bound ``ε`` into the
   ``(t_k, α_k, ω_k)`` triple of Theorem 1, so that fitting reduces to the
   segment-stabbing problem solved by :class:`~repro.core.convex.RangeLineFitter`;
2. *recover* its natural parameters ``θ`` from the fitted line ``(m, b)`` via
   the inverse change of variables; and
3. *evaluate* ``f(x)`` (vectorised) from the stored parameters, which is what
   decompression and random access use.

Conventions
-----------
* ``x`` is the **absolute 1-based** position in the time series, exactly as in
  the paper (timestamps are assumed to be ``1, ..., n``, §III-C).  Absolute
  coordinates are what make the prefix/suffix edges of Algorithm 1 sound: a
  suffix fragment reuses a function fitted from an earlier start, which is
  only an ε-approximation of the suffix when evaluated at the original
  abscissae (a horizontally shifted quadratic ``θ1·x² + θ2`` has a linear
  term, i.e. it leaves its own family).
* ``z`` is the **globally shifted** value ``y + shift`` with
  ``shift = 1 + max(E) - min(y)`` (paper footnote 2), so that ``z - ε >= 1``
  and logarithmic transforms are always defined.
* Models with three natural parameters (anchored quadratic, Gaussian) are
  forced through the fragment's first data point, as described in §III-A, and
  store the derived third parameter explicitly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .convex import RangeLineFitter

__all__ = [
    "Model",
    "FragmentFit",
    "LinearModel",
    "ExponentialModel",
    "PowerModel",
    "LogarithmicModel",
    "RadicalModel",
    "QuadraticModel",
    "QuadraticLinearModel",
    "CubicLinearModel",
    "CubicQuadraticModel",
    "AnchoredQuadraticModel",
    "GaussianModel",
    "MODEL_REGISTRY",
    "DEFAULT_MODELS",
    "ALL_MODELS",
    "get_model",
    "make_approximation",
]

_LOG_FLOOR = 1e-12  # safety clamp: never feed log a non-positive value

_X = TypeVar("_X", np.ndarray, np.float64)


@dataclass(frozen=True)
class FragmentFit:
    """The result of fitting one fragment: ``[start, end)`` with ``params``."""

    start: int
    end: int
    params: tuple[float, ...]


class Model(ABC):
    """A function family usable in Theorem 1."""

    #: short identifier used in headers and reports
    name: str = "?"
    #: number of stored float parameters
    n_params: int = 2

    @abstractmethod
    def transform(self, x: int, z: float, eps: float) -> tuple[float, float, float]:
        """Map a data point to the ``(t, lo, hi)`` triple of Theorem 1."""

    @abstractmethod
    def params_from_line(self, m: float, b: float) -> tuple[float, ...]:
        """Invert the change of variables: line coefficients -> ``θ``."""

    @abstractmethod
    def evaluate(self, params: tuple[float, ...], xs: _X) -> _X:
        """Vectorised ``f(x)`` over absolute 1-based positions ``xs`` (float64).

        ``xs`` is an array, or one ``np.float64`` position for random access.
        """

    def new_fitter(
        self, anchor_x: int | None = None, anchor_z: float | None = None
    ) -> "_ModelFitter":
        """A per-fragment incremental fitter for this model."""
        return _ModelFitter(self)

    def evaluate_at(self, params: tuple[float, ...], x: int) -> float:
        """Scalar ``f(x)`` — the random-access hot path (Algorithm 3, line 6).

        Runs :meth:`evaluate` itself on an ``np.float64`` scalar, so random
        access rounds exactly as decompression does: ``math.exp`` and
        ``math.log`` can differ from numpy's vectorised routines by one ulp,
        which moves the floor of a model value that is an exact integer.  A
        numpy scalar costs far less here than a one-element array.
        """
        return float(self.evaluate(params, np.float64(x)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Model {self.name}>"


class _ModelFitter:
    """Incremental fragment fitter for a two-parameter model."""

    __slots__ = ("model", "fitter", "eps", "n")

    def __init__(self, model: Model) -> None:
        self.model = model
        self.fitter = RangeLineFitter()
        self.eps = 0.0
        self.n = 0

    def add(self, x: int, z: float, eps: float) -> bool:
        """Try to extend the fragment with the point at absolute position ``x``."""
        self.eps = eps
        t, lo, hi = self.model.transform(x, z, eps)
        if not (math.isfinite(t) and math.isfinite(lo) and math.isfinite(hi)):
            return False
        if not self.fitter.add(t, lo, hi):
            return False
        self.n += 1
        return True

    def params(self) -> tuple[float, ...]:
        """Parameters of a feasible function for the accepted points."""
        m, b = self.fitter.line()
        return self.model.params_from_line(m, b)


class _AnchoredFitter:
    """Fitter for three-parameter models forced through the first point."""

    __slots__ = ("model", "fitter", "anchor_x", "anchor_z", "n")

    def __init__(
        self,
        model: "AnchoredQuadraticModel | GaussianModel",
        anchor_x: int,
        anchor_z: float,
    ) -> None:
        self.model = model
        self.fitter = RangeLineFitter()
        self.anchor_x = anchor_x
        self.anchor_z = anchor_z
        self.n = 1  # the anchor itself

    def add(self, x: int, z: float, eps: float) -> bool:
        t, lo, hi = self.model.transform_anchored(
            x, z, eps, self.anchor_x, self.anchor_z
        )
        if not (math.isfinite(t) and math.isfinite(lo) and math.isfinite(hi)):
            return False
        if lo > hi:
            return False
        if not self.fitter.add(t, lo, hi):
            return False
        self.n += 1
        return True

    def params(self) -> tuple[float, ...]:
        if self.fitter.count == 0:
            return self.model.params_from_anchor_only(self.anchor_x, self.anchor_z)
        m, b = self.fitter.line()
        return self.model.params_from_line_anchored(
            m, b, self.anchor_x, self.anchor_z
        )


# ---------------------------------------------------------------------------
# Two-parameter models (rows of Table I)
# ---------------------------------------------------------------------------


class LinearModel(Model):
    """``f(x) = θ1·x + θ2`` — row 4 of Table I."""

    name = "linear"

    def transform(self, x, z, eps):
        return float(x), z - eps, z + eps

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return t1 * xs + t2


class ExponentialModel(Model):
    """``f(x) = θ2·e^(θ1·x)`` — row 1 of Table I.

    Parameters are stored in the transformed domain, ``(θ1, ln θ2)``: the
    change of variables is invertible (all Theorem 1 requires) and the log
    form avoids overflow — with absolute abscissae the fitted intercept
    ``ln θ2`` can exceed the float64 exponent range even when ``f`` itself is
    perfectly tame over the fragment.
    """

    name = "exponential"

    def transform(self, x, z, eps):
        lo = math.log(max(z - eps, _LOG_FLOOR))
        hi = math.log(max(z + eps, _LOG_FLOOR))
        return float(x), lo, hi

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return np.exp(np.minimum(t1 * xs + t2, 700.0))


class PowerModel(Model):
    """``f(x) = θ2·x^θ1`` — row 2 of Table I.

    Stored as ``(θ1, ln θ2)`` for the same overflow reason as
    :class:`ExponentialModel`; evaluation is ``exp(θ1·ln x + ln θ2)``.
    """

    name = "power"

    def transform(self, x, z, eps):
        lo = math.log(max(z - eps, _LOG_FLOOR))
        hi = math.log(max(z + eps, _LOG_FLOOR))
        return math.log(x), lo, hi

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return np.exp(np.minimum(t1 * np.log(xs) + t2, 700.0))


class LogarithmicModel(Model):
    """``f(x) = ln(θ2·x^θ1) = θ1·ln(x) + ln(θ2)`` — row 3 of Table I.

    We store ``ln(θ2)`` (the fitted intercept ``b``) rather than ``θ2``
    itself: the two are related by an invertible map (Theorem 1 only needs
    invertibility) and the logarithm avoids overflow for large intercepts.
    """

    name = "logarithmic"

    def transform(self, x, z, eps):
        return math.log(x), z - eps, z + eps

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return t1 * np.log(xs) + t2


class RadicalModel(Model):
    """``f(x) = θ1·√x + θ2`` — row 5 of Table I."""

    name = "radical"

    def transform(self, x, z, eps):
        return math.sqrt(x), z - eps, z + eps

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return t1 * np.sqrt(xs) + t2


class QuadraticModel(Model):
    """``f(x) = θ1·x² + θ2`` — row 6 of Table I."""

    name = "quadratic"

    def transform(self, x, z, eps):
        return float(x) * float(x), z - eps, z + eps

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return t1 * xs * xs + t2


class QuadraticLinearModel(Model):
    """``f(x) = θ1·x² + θ2·x`` — row 7 of Table I."""

    name = "quadratic_linear"

    def transform(self, x, z, eps):
        fx = float(x)
        return fx, (z - eps) / fx, (z + eps) / fx

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return (t1 * xs + t2) * xs


class CubicLinearModel(Model):
    """``f(x) = θ1·x³ + θ2·x`` — row 8 of Table I."""

    name = "cubic_linear"

    def transform(self, x, z, eps):
        fx = float(x)
        return fx * fx, (z - eps) / fx, (z + eps) / fx

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return (t1 * xs * xs + t2) * xs


class CubicQuadraticModel(Model):
    """``f(x) = θ1·x³ + θ2·x²`` — row 9 of Table I."""

    name = "cubic_quadratic"

    def transform(self, x, z, eps):
        fx = float(x)
        sq = fx * fx
        return fx, (z - eps) / sq, (z + eps) / sq

    def params_from_line(self, m, b):
        return (m, b)

    def evaluate(self, params, xs):
        t1, t2 = params
        return (t1 * xs + t2) * xs * xs


# ---------------------------------------------------------------------------
# Three-parameter models, anchored through the fragment's first point (§III-A)
# ---------------------------------------------------------------------------


class AnchoredQuadraticModel(Model):
    """``f(x) = θ1·x² + θ2·x + θ3`` with ``f(x_i) = z_i`` fixed (§III-A).

    Forcing the curve through the fragment's first data point eliminates the
    third free parameter: the paper's derivation gives ``t_k = x_k + x_i`` and
    bounds ``(z_k - z_i ∓ ε)/(x_k - x_i)``.  ``θ3`` is derived and stored.
    """

    name = "anchored_quadratic"
    n_params = 3

    def transform(self, x, z, eps):  # pragma: no cover - anchored path used
        raise NotImplementedError("anchored models use transform_anchored")

    def transform_anchored(self, x, z, eps, anchor_x, anchor_z):
        dx = float(x) - float(anchor_x)
        return (
            float(x) + float(anchor_x),
            (z - anchor_z - eps) / dx,
            (z - anchor_z + eps) / dx,
        )

    def params_from_line(self, m, b):  # pragma: no cover
        raise NotImplementedError("anchored models use params_from_line_anchored")

    def params_from_line_anchored(self, m, b, anchor_x, anchor_z):
        return (m, b, anchor_z - m * anchor_x * anchor_x - b * anchor_x)

    def params_from_anchor_only(self, anchor_x, anchor_z):
        return (0.0, 0.0, anchor_z)

    def evaluate(self, params, xs):
        t1, t2, t3 = params
        return (t1 * xs + t2) * xs + t3

    def new_fitter(
        self, anchor_x: int | None = None, anchor_z: float | None = None
    ) -> _AnchoredFitter:
        if anchor_x is None or anchor_z is None:
            raise ValueError("anchored models need the fragment's first data point")
        return _AnchoredFitter(self, anchor_x, anchor_z)


class GaussianModel(AnchoredQuadraticModel):
    """``f(x) = e^(θ1·x² + θ2·x + θ3)`` with ``f(x_i) = z_i`` fixed (§III-A)."""

    name = "gaussian"
    n_params = 3

    def transform_anchored(self, x, z, eps, anchor_x, anchor_z):
        dx = float(x) - float(anchor_x)
        log_anchor = math.log(max(anchor_z, _LOG_FLOOR))
        lo = math.log(max(z - eps, _LOG_FLOOR)) - log_anchor
        hi = math.log(max(z + eps, _LOG_FLOOR)) - log_anchor
        return float(x) + float(anchor_x), lo / dx, hi / dx

    def params_from_line_anchored(self, m, b, anchor_x, anchor_z):
        return (
            m,
            b,
            math.log(max(anchor_z, _LOG_FLOOR)) - m * anchor_x * anchor_x - b * anchor_x,
        )

    def params_from_anchor_only(self, anchor_x, anchor_z):
        return (0.0, 0.0, math.log(max(anchor_z, _LOG_FLOOR)))

    def evaluate(self, params, xs):
        t1, t2, t3 = params
        return np.exp(np.minimum((t1 * xs + t2) * xs + t3, 700.0))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_REGISTRY: dict[str, Model] = {
    model.name: model
    for model in (
        LinearModel(),
        ExponentialModel(),
        PowerModel(),
        LogarithmicModel(),
        RadicalModel(),
        QuadraticModel(),
        QuadraticLinearModel(),
        CubicLinearModel(),
        CubicQuadraticModel(),
        AnchoredQuadraticModel(),
        GaussianModel(),
    )
}

#: the four kinds NeaTS uses in the paper's experiments (§IV-A)
DEFAULT_MODELS: tuple[str, ...] = ("linear", "exponential", "quadratic", "radical")

#: every implemented kind
ALL_MODELS: tuple[str, ...] = tuple(MODEL_REGISTRY)


def get_model(name: str) -> Model:
    """Look up a model by name, with a helpful error message."""
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; known models: {known}") from None


def make_approximation(
    z: np.ndarray, start: int, model: Model, eps: float, max_end: int | None = None
) -> FragmentFit:
    """MAKE-APPROXIMATION(T, k, f, ε) — the longest ε-approximable fragment.

    Runs the algorithm of Theorem 1 from position ``start`` (0-based) over the
    shifted values ``z`` and returns the longest fragment ``[start, end)``
    admitting an ε-approximation of kind ``model``, together with feasible
    parameters.  The fragment always has length at least 1.
    """
    n = len(z) if max_end is None else min(max_end, len(z))
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range [0, {n})")
    anchor_needed = model.n_params == 3
    if anchor_needed:
        fitter = model.new_fitter(start + 1, float(z[start]))
        k = start + 1
    else:
        fitter = model.new_fitter()
        k = start
    while k < n:
        if not fitter.add(k + 1, float(z[k]), eps):
            break
        k += 1
    if not anchor_needed and fitter.n == 0:
        # Unreachable after the global positivity shift (every transform is
        # finite for z - ε >= 1 and local x >= 1); only pathological float
        # input (inf/nan values) lands here.
        raise RuntimeError(
            f"model {model.name!r} cannot represent the point at index {start}; "
            "values must be finite and satisfy the positivity shift"
        )
    return FragmentFit(start, k, fitter.params())
