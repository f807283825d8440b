"""Weight initializers (Glorot/Xavier uniform, zeros).

All take an explicit ``numpy.random.Generator`` — reproducible experiments
need seedable initialisation, and the PS workers must be able to agree on
the initial model (worker 0 initialises, others pull).
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros"]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer needs at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform: U(-a, a), a = gain * sqrt(6/(fi+fo))."""
    fan_in, fan_out = _fans(tuple(shape))
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)

