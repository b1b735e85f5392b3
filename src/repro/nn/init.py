"""Weight initialisers.

All initialisers take an explicit ``numpy.random.Generator`` so that
every model in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "uniform", "zeros_init", "orthogonal"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform for ReLU fan-in scaling."""
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Plain U(-bound, bound)."""
    return rng.uniform(-bound, bound, size=shape)


def zeros_init(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero array (biases)."""
    return np.zeros(shape)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (recommended for recurrent weight matrices)."""
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    size = max(rows, cols)
    a = rng.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return gain * q[:rows, :cols]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
