"""Deterministic random-number-generator helpers.

Every stochastic component in the library (samplers, initializers, dataset
generators, failure injectors) takes an explicit seed or ``numpy.random.
Generator`` so that experiments are reproducible run-to-run.  These helpers
centralise the conversion between the two.
"""

from __future__ import annotations

import numpy as np

__all__ = ["new_rng", "spawn_rngs"]


def new_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged), so call sites can expose a single
    ``seed`` argument that covers all three idioms.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one seed.

    Uses ``SeedSequence.spawn`` so the child streams are statistically
    independent — important when several workers sample neighborhoods in
    parallel and we still want the run to be reproducible.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]

