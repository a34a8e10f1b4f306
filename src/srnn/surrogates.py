"""Surrogate derivatives for the spike nonlinearity.

The spike S = H(u - theta) has zero derivative almost everywhere, so
backward passes substitute a pseudo-derivative evaluated on the centered
membrane x = u - theta. Four shapes are provided; each is a small frozen
dataclass so a configured surrogate can travel with a training run. Its
`kind` class attribute is its name in configs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from srnn.jsondoc import read

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _scaled_pdf(x: np.ndarray, mu: float, sigma: float, scale: float,
                out: np.ndarray) -> np.ndarray:
    """scale * N(x | mu, sigma^2), evaluated in place in `out`."""
    if mu:
        np.subtract(x, mu, out=out)
        x = out
    np.divide(x, sigma, out=out)
    out *= out
    out *= -0.5
    np.exp(out, out=out)
    out /= sigma * _SQRT_2PI
    out *= scale
    return out


@dataclass(frozen=True)
class MultiGaussian:
    """Central Gaussian minus two flanking Gaussians at +-sigma.

    grad(x) = (1+h)*N(x | 0, sigma^2) - h*N(x | sigma, (s*sigma)^2)
                                      - h*N(x | -sigma, (s*sigma)^2)

    The flanks dip the curve below zero away from threshold.
    """

    kind: ClassVar[str] = "multi_gaussian"
    h: float = 0.15
    s: float = 6.0
    sigma: float = 0.5

    def __post_init__(self):
        if self.s <= 1.0:
            raise ValueError("s must exceed 1 (flanks wider than the center)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class Gaussian:
    kind: ClassVar[str] = "gaussian"
    sigma: float = 0.5

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class Linear:
    """Triangular window max(0, 1 - alpha*|x|)."""

    kind: ClassVar[str] = "linear"
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class SLayer:
    """Two-sided exponential exp(-alpha*|x|)."""

    kind: ClassVar[str] = "slayer"
    alpha: float = 5.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")


SurrogateKind = Union[MultiGaussian, Gaussian, Linear, SLayer]


def mg_grad(u, theta, h: float = MultiGaussian.h, s: float = MultiGaussian.s,
            sigma: float = MultiGaussian.sigma):
    x = np.asarray(np.asarray(u, dtype=float) - theta)
    out = _scaled_pdf(x, 0.0, sigma, 1.0 + h, np.empty_like(x))
    flank = np.empty_like(x)
    out -= _scaled_pdf(x, sigma, s * sigma, h, flank)
    out -= _scaled_pdf(x, -sigma, s * sigma, h, flank)
    return float(out) if out.ndim == 0 else out


def gaussian_grad(u, theta, sigma: float = Gaussian.sigma):
    x = np.asarray(np.asarray(u, dtype=float) - theta)
    out = _scaled_pdf(x, 0.0, sigma, 1.0, x)
    return float(out) if out.ndim == 0 else out


def linear_grad(u, theta, alpha: float = Linear.alpha):
    x = np.asarray(u, dtype=float) - theta
    out = np.maximum(0.0, 1.0 - alpha * np.abs(x))
    return float(out) if out.ndim == 0 else out


def slayer_grad(u, theta, alpha: float = SLayer.alpha):
    x = np.asarray(u, dtype=float) - theta
    out = np.exp(-alpha * np.abs(x))
    return float(out) if out.ndim == 0 else out


_GRADS = {MultiGaussian: mg_grad, Gaussian: gaussian_grad, Linear: linear_grad,
          SLayer: slayer_grad}


def surrogate_grad(kind: SurrogateKind, u, theta):
    """Evaluate the configured surrogate at membrane u against threshold theta."""
    if type(kind) not in _GRADS:
        raise TypeError(f"unknown surrogate kind: {type(kind).__name__}")
    return _GRADS[type(kind)](u, theta, **vars(kind))


def surrogate_to_dict(kind: SurrogateKind) -> dict:
    return {"kind": kind.kind, **asdict(kind)}


def surrogate_from_dict(d: dict) -> SurrogateKind:
    """Read a surrogate record; raises ValueError naming the offending key."""
    return read(SurrogateKind, d)
