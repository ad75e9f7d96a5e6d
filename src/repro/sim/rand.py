"""Deterministic, hierarchically split randomness.

Every stochastic choice in a run (message delays, Byzantine strategies,
corruption patterns, clock drift draws) must be reproducible from a single
scenario seed.  A :class:`RandomSource` wraps :class:`random.Random` and can
be *split* by name into independent child streams, so adding a new consumer
of randomness never perturbs the draws seen by existing consumers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class RandomSource:
    """A named, splittable pseudo-random stream."""

    def __init__(self, seed: int, path: str = "root") -> None:
        self._seed = int(seed)
        self._path = path
        self._rng = random.Random(self._derive(path))

    def _derive(self, path: str) -> int:
        digest = hashlib.sha256(f"{self._seed}:{path}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split(self, name: str) -> "RandomSource":
        """Create an independent child stream identified by ``name``."""
        return RandomSource(self._seed, f"{self._path}/{name}")

    @property
    def path(self) -> str:
        """Hierarchical name of this stream (for diagnostics)."""
        return self._path

    # ------------------------------------------------------------------
    # Draws (thin, explicit wrappers around random.Random)
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]`` (``Random.uniform``'s formula, inlined)."""
        return low + (high - low) * self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements."""
        return self._rng.sample(items, k)

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy (the input is not mutated)."""
        out = list(items)
        self._rng.shuffle(out)
        return out

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw."""
        return self._rng.gauss(mu, sigma)


__all__ = ["RandomSource"]
