"""Shared utilities: seeded RNG management, timers, and logging."""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.timer import Timer, TimerRegistry

__all__ = ["new_rng", "spawn_rngs", "Timer", "TimerRegistry"]
